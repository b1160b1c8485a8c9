"""milliflow benchmark: one workload per invocation, each in a fresh process.

    python3 benchmarks/perf/run.py --workload {gen,train,sense} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  `--trace 0` runs the workload untraced and
prints its end-to-end metrics.  `--trace 1` runs it untraced and then traced,
each in its own process, and prints the per-layer metrics of the traced run
with the tracing overhead (traced against untraced `items_per_s`).  The last
line of the output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`.  The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUNS_DIR = BENCH_DIR / ".runs"
SPEC = BENCH_DIR.parent.parent / "BENCHMARK.json"  # metric names and units
DEADLINE_S = 175.0  # the whole invocation must end within 180 s
# processes started only to import the program; `setup_s` takes the median
# import time of these and the measured process
IMPORT_PROBES = 2


def _child_env() -> dict:
    """BLAS pinned to one thread; MFL_THREADS left unset so generation runs
    one worker, as the workloads are defined."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    for var in ("MFL_THREADS", "MFL_LOG", "MFL_NO_NUMBA", "PYTHONPATH"):
        env.pop(var, None)
    return env


def run_child(args, trace: int, deadline: float, imports_only: bool = False) -> dict:
    """Run workloads.py once; returns its parsed last line."""
    run_dir = RUNS_DIR / f"{args.workload}-{os.getpid()}-t{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    spawn = time.monotonic()
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--spawn-time", repr(spawn), "--run-dir", str(run_dir)]
    if imports_only:
        cmd.append("--imports-only")
    try:
        proc = subprocess.run(cmd, env=_child_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"benchmarks/perf: {args.workload} did not finish in time")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"[{args.workload} trace={trace}] {line}")
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmarks/perf: {args.workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("gen", "train", "sense"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    spec = json.loads(SPEC.read_text())
    RUNS_DIR.mkdir(exist_ok=True)

    untraced = run_child(args, 0, deadline)
    runs = [untraced]
    if args.trace:
        traced = run_child(args, 1, deadline)
        runs.append(traced)
        values = dict(traced["result"]["per_layer"])
        values["trace.items_per_s_ratio"] = (traced["result"]["items_per_s"]
                                             / untraced["result"]["items_per_s"])
        listed = spec["per_layer"]
    else:
        imports = [untraced["result"]["import_s"]] + [
            run_child(args, 0, deadline, imports_only=True)["import_s"]
            for _ in range(IMPORT_PROBES)]
        print(f"[{args.workload}] import_s {[round(t, 3) for t in imports]}")
        values = dict(untraced["result"], setup_s=statistics.median(imports)
                      + untraced["result"]["workload_setup_s"])
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    correct = all(run["correct"] for run in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
