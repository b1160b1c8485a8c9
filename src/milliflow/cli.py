"""Command line front end over the generation, labeling, training, evaluation
and tracking pipelines.  One JSON config governs every stage; flags override
file values, and the config is echoed into every output manifest so a run can
be reproduced from its artifacts alone.

Exit codes: 0 success, 2 bad flags or configuration, a truncated or
malformed checkpoint or dataset file, or a non-finite training loss, 3 I/O
failure, 4 missing checkpoint file, 5 checkpoint does not match the requested
task/strategy.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import time
from pathlib import Path

from .config import RunConfig, load_config, run_config_from_dict
from .dataio import make_clips, pair_samples, read_manifest, write_json
from .downstream import (
    confusion_matrix_csv,
    evaluate_har,
    evaluate_hp,
    evaluate_tracking,
    load_task_model,
    mje_table_csv,
    task_clips,
    train_task_model,
)
from .errors import (
    ConfigError, MilliflowError, MissingCheckpoint, MissingFlowModel, TaskMismatch, atomic_write,
)
from .flownet import (
    evaluate_baseline,
    evaluate_model,
    load_flow_model,
    train_flow_model,
)
from .labeling import N_SEGMENTS
from .pipeline import generate_dataset, label_dataset, load_labeled_sequences

log = logging.getLogger(__name__)

TASKS = ("flow", "har", "hp")

# the first entry that matches an error gives the exit code, so a subclass
# comes before its base class
EXIT_CODES = (
    (MissingCheckpoint, 4),
    (TaskMismatch, 5),
    (ConfigError, 2),
    (OSError, 3),
    (MilliflowError, 2),
)


# ----------------------------------------------------------------------
# shared plumbing


def _load_run_config(args) -> RunConfig:
    """Explicit --config wins; otherwise reuse the config echoed into the
    dataset manifest, so later stages run exactly as generated."""
    if getattr(args, "config", None):
        return load_config(args.config)
    if getattr(args, "data", None):
        manifest = _read_dataset_manifest(args.data)
        return run_config_from_dict(manifest["config"])
    return RunConfig()


def _read_dataset_manifest(root) -> dict:
    path = Path(root) / "manifest.json"
    if not path.exists():
        raise FileNotFoundError(f"no dataset manifest at {path}")
    return read_manifest(root)


def _require_checkpoint(path, what: str) -> Path:
    if path is None:
        raise ConfigError(f"{what} is required here")
    path = Path(path)
    if not path.exists():
        raise MissingCheckpoint(f"{what} not found: {path}")
    return path


def _write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path) as f:
        f.write(text)


def _flow_clips(root, cfg: RunConfig, partition: str) -> list:
    clips = []
    for seq in load_labeled_sequences(root, partition):
        clips.extend(make_clips(pair_samples(seq, partition, seed=cfg.seed)))
    return clips


def _task_clip_set(root, cfg: RunConfig, partition: str) -> list:
    seqs = load_labeled_sequences(root, partition)
    return task_clips(seqs, cfg.task, partition,
                      catalogue=tuple(cfg.gen.in_set), seed=cfg.seed)


def _resolve_flow_model(args, strategy: str):
    """Flow model referenced by --flow-ckpt: frozen features for s1, the
    joint-training starting point for s2."""
    if strategy not in ("s1", "s2"):
        if args.flow_ckpt is not None:
            raise ConfigError("--flow-ckpt only applies to strategies s1/s2")
        return None
    if args.flow_ckpt is None:
        raise MissingFlowModel(f"strategy {strategy} needs --flow-ckpt")
    return load_flow_model(_require_checkpoint(args.flow_ckpt, "--flow-ckpt"))


# ----------------------------------------------------------------------
# commands


def cmd_gen(args) -> int:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    manifest = generate_dataset(cfg, args.out, workers=args.workers)
    in_set = sum(s["n_frames"] for s in manifest["sequences"] if s["in_set"])
    out_set = sum(s["n_frames"] for s in manifest["sequences"] if not s["in_set"])
    print(f"wrote {len(manifest['sequences'])} sequences to {args.out}")
    print(f"in-set frames: {in_set}")
    print(f"out-of-set frames: {out_set}")
    return 0


def cmd_label(args) -> int:
    _read_dataset_manifest(args.data)
    summary = label_dataset(args.data)
    print(f"labeled {summary['n_sequences']} sequences")
    print(f"valid-point ratio: {summary['valid_ratio']:.4f}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    train_over = {}
    if args.seed is not None:
        train_over["seed"] = args.seed
    if args.epochs is not None:
        train_over["epochs"] = args.epochs
    if args.lr is not None:
        train_over["lr"] = args.lr
    if train_over:
        cfg = dataclasses.replace(
            cfg, train=dataclasses.replace(cfg.train, **train_over))

    ckpt = Path(args.ckpt)
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    log_path = args.log or ckpt.with_suffix(ckpt.suffix + ".log.jsonl")

    if args.task == "flow":
        if args.strategy is not None:
            raise ConfigError("--strategy does not apply to flow training")
        train_clips = _flow_clips(args.data, cfg, "train")
        val_clips = _flow_clips(args.data, cfg, "val")
        _, history = train_flow_model(train_clips, val_clips, cfg.net,
                                      cfg.train, ckpt, log_path=log_path)
        best = min(h["val_epe3d"] for h in history)
        print(f"trained flow model: best val EPE3D {best:.4f} m")
    else:
        strategy = args.strategy or "raw"
        flow_model = _resolve_flow_model(args, strategy)
        train_clips = _task_clip_set(args.data, cfg, "train")
        val_clips = _task_clip_set(args.data, cfg, "val")
        n_classes = len(cfg.gen.in_set) if args.task == "har" else N_SEGMENTS
        _, history = train_task_model(
            args.task, train_clips, val_clips, cfg.task, cfg.train, strategy,
            ckpt, flow_model=flow_model, n_classes=n_classes, log_path=log_path)
        best = max(h["val_oa"] for h in history)
        print(f"trained {args.task} model ({strategy}): best val oA {best:.4f}")

    write_json(Path(str(ckpt) + ".manifest.json"), {
        "config": cfg.as_dict(),
        "task": args.task,
        "strategy": args.strategy,
        "history": history,
    })
    print(f"checkpoint: {ckpt}")
    return 0


def _eval_flow(args, cfg: RunConfig) -> dict:
    clips = _flow_clips(args.data, cfg, args.split)
    if args.oracle:
        return evaluate_baseline(clips, "oracle")
    if args.baseline:
        return evaluate_baseline(clips, args.baseline)
    model = load_flow_model(_require_checkpoint(args.ckpt, "--ckpt"))
    t0 = time.perf_counter()
    report = evaluate_model(model, clips)
    elapsed = time.perf_counter() - t0
    pairs = report["n_frames"] + report["n_frames_excluded"]
    if pairs:
        print(f"mean per-pair latency: {elapsed / pairs * 1e3:.2f} ms")
    return report


def cmd_eval(args) -> int:
    cfg = _load_run_config(args)
    if args.task == "flow":
        report = _eval_flow(args, cfg)
        csv_text = None
    else:
        if args.oracle or args.baseline:
            raise ConfigError("--oracle/--baseline apply to flow evaluation only")
        model, strategy, flow_model = load_task_model(
            _require_checkpoint(args.ckpt, "--ckpt"),
            task=args.task, strategy=args.strategy)
        if strategy == "s1":
            flow_model = _resolve_flow_model(args, strategy)
        clips = _task_clip_set(args.data, cfg, args.split)
        if args.task == "har":
            report = evaluate_har(model, clips, strategy, flow_model)
            csv_text = confusion_matrix_csv(report["confusion"],
                                            list(cfg.gen.in_set))
            report = dict(report, confusion=report["confusion"].tolist())
        else:
            report = evaluate_hp(model, clips, strategy, flow_model)
            csv_text = None

    report = dict(report, config=cfg.as_dict())
    if args.out:
        write_json(args.out, report)
        print(f"report: {args.out}")
        if csv_text is not None:
            csv_path = Path(args.out).with_suffix(".confusion.csv")
            _write_text(csv_path, csv_text)
            print(f"confusion matrix: {csv_path}")
    else:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


def cmd_track(args) -> int:
    cfg = _load_run_config(args)
    if args.oracle == (args.ckpt is not None):
        raise ConfigError("exactly one of --oracle or --ckpt is required")
    if not 1 <= args.length <= 4:
        raise ConfigError(f"--length must be in [1, 4], got {args.length}")
    flow_model = None
    if args.ckpt is not None:
        flow_model = load_flow_model(_require_checkpoint(args.ckpt, "--ckpt"))
    seqs = load_labeled_sequences(args.data, "test")
    report = evaluate_tracking(seqs, flow_model=flow_model,
                               activities=args.activities,
                               clip_length=args.length + 1)
    csv_text = mje_table_csv(report, max_length=args.length)
    if "latency_ms" in report:
        print(f"mean per-pair latency: {report['latency_ms']:.2f} ms")
    print(f"clips tracked: {report['n_clips']}")
    if args.out:
        _write_text(args.out, csv_text)
        print(f"tracking table: {args.out}")
    else:
        sys.stdout.write(csv_text)
    return 0


# ----------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="milliflow",
        description="Synthetic radar scene-flow laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--config", help="JSON run config (defaults if omitted)")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--workers", type=int,
                   help="parallel workers (default: MFL_THREADS or 1)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("label", help="label every stored sequence")
    p.add_argument("--data", required=True, help="dataset directory")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train", help="train a flow or task model")
    p.add_argument("--task", required=True, choices=TASKS)
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True, help="checkpoint output path")
    p.add_argument("--config", help="override the dataset's echoed config")
    p.add_argument("--strategy", choices=("raw", "s1", "s2"),
                   help="task feature strategy (har/hp only; default raw)")
    p.add_argument("--flow-ckpt", help="frozen flow checkpoint (s1) or s2 init")
    p.add_argument("--log", help="JSONL training log path")
    p.add_argument("--seed", type=int, help="override the training seed")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint, baseline or oracle")
    p.add_argument("--task", required=True, choices=TASKS)
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt")
    p.add_argument("--config")
    p.add_argument("--strategy", choices=("raw", "s1", "s2"),
                   help="must match the checkpoint when given")
    p.add_argument("--flow-ckpt")
    p.add_argument("--oracle", action="store_true",
                   help="flow only: score the labels against themselves")
    p.add_argument("--baseline", choices=("zero", "nearest"),
                   help="flow only: score a model-free baseline")
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("track", help="body-part tracking over test sequences")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", help="flow checkpoint for predicted flows")
    p.add_argument("--config")
    p.add_argument("--oracle", action="store_true", help="use the label flows")
    p.add_argument("--length", type=int, default=4,
                   help="longest tracking length to report (1-4)")
    p.add_argument("--activities", nargs="*",
                   help="restrict to these activities")
    p.add_argument("--out", help="write the mJE CSV here")
    p.set_defaults(func=cmd_track)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("MFL_LOG", "WARNING"))
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MilliflowError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(e, kind))


if __name__ == "__main__":
    sys.exit(main())
