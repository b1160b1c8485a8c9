"""Command line front end over the generation, labeling, training, evaluation
and tracking pipelines.  One JSON config governs every stage; flags override
file values, and the config is echoed into every output manifest so a run can
be reproduced from its artifacts alone.

Exit codes: 0 success, 2 bad flags or configuration, a truncated or
malformed checkpoint or dataset file, or a non-finite training loss, 3 I/O
failure, 4 missing checkpoint file, 5 checkpoint does not match the requested
task/strategy or the run config's class count.
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

from .config import RunConfig, from_dict, load_config
from .dataio import make_clips, pair_samples, read_manifest, write_json, write_text
from .downstream import (
    STRATEGIES,
    TRACK_CLIP_LENGTH,
    confusion_matrix_csv,
    evaluate,
    evaluate_tracking,
    load_task_model,
    mje_table_csv,
    task_clips,
    train_task_model,
)
from .errors import (
    ConfigError, MilliflowError, MissingCheckpoint, MissingFlowModel, TaskMismatch,
)
from .flownet import (
    evaluate_baseline,
    evaluate_model,
    load_flow_model,
    train_flow_model,
)
from .labeling import N_SEGMENTS
from .pipeline import generate_dataset, label_dataset, load_labeled_sequences

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
    if args.config:
        return load_config(args.config)
    return from_dict(RunConfig, read_manifest(args.data)["config"])


def _require_checkpoint(path, what: str) -> Path:
    if path is None:
        raise ConfigError(f"{what} is required here")
    path = Path(path)
    if not path.exists():
        raise MissingCheckpoint(f"{what} not found: {path}")
    return path


def _flow_clips(root, cfg: RunConfig, partition: str) -> list:
    clips = []
    for seq in load_labeled_sequences(root, partition):
        clips.extend(make_clips(pair_samples(seq, partition, seed=cfg.seed)))
    return clips


def _task_clip_set(root, cfg: RunConfig, partition: str) -> list:
    seqs = load_labeled_sequences(root, partition)
    return task_clips(seqs, cfg.task, partition,
                      catalogue=tuple(cfg.gen.in_set), seed=cfg.seed)


def _n_classes(task: str, cfg: RunConfig) -> int:
    """Classes a task model scores: in-set activities (har), body segments (hp)."""
    return len(cfg.gen.in_set) if task == "har" else N_SEGMENTS


def _resolve_flow_model(args, strategy: str):
    """Flow model referenced by --flow-ckpt: frozen features for s1, the
    joint-training starting point for s2."""
    if strategy == "raw":
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

    strategy = None  # flow training takes no strategy and no flow model
    if args.task == "flow":
        if args.strategy is not None or args.flow_ckpt is not None:
            raise ConfigError("--strategy and --flow-ckpt do not apply to flow training")
        read_clips = _flow_clips
    else:
        strategy = args.strategy or "raw"
        flow_model = _resolve_flow_model(args, strategy)
        read_clips = _task_clip_set
    train_clips = read_clips(args.data, cfg, "train")
    val_clips = read_clips(args.data, cfg, "val")

    ckpt = Path(args.ckpt)
    log_path = args.log or ckpt.with_suffix(ckpt.suffix + ".log.jsonl")
    if args.task == "flow":
        _, history = train_flow_model(train_clips, val_clips, cfg.net,
                                      cfg.train, ckpt, log_path=log_path)
        best = min(h["val_epe3d"] for h in history)
        print(f"trained flow model: best val EPE3D {best:.4f} m")
    else:
        _, history = train_task_model(
            args.task, train_clips, val_clips, cfg.task, cfg.train, strategy, ckpt,
            flow_model=flow_model, n_classes=_n_classes(args.task, cfg), log_path=log_path)
        best = max(h["val_oa"] for h in history)
        print(f"trained {args.task} model ({strategy}): best val oA {best:.4f}")

    write_json(Path(str(ckpt) + ".manifest.json"), {
        "config": cfg.as_dict(),
        "task": args.task,
        "strategy": strategy,
        "history": history,
    })
    print(f"checkpoint: {ckpt}")
    return 0


def _eval_flow(args, cfg: RunConfig) -> dict:
    if args.oracle + (args.baseline is not None) + (args.ckpt is not None) != 1:
        raise ConfigError("exactly one of --oracle, --baseline or --ckpt is required")
    clips = _flow_clips(args.data, cfg, args.split)
    if args.oracle or args.baseline:
        return evaluate_baseline(clips, "oracle" if args.oracle else args.baseline)
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
    else:
        if args.oracle or args.baseline:
            raise ConfigError("--oracle/--baseline apply to flow evaluation only")
        model, strategy, flow_model = load_task_model(
            _require_checkpoint(args.ckpt, "--ckpt"),
            task=args.task, strategy=args.strategy)
        n_classes = _n_classes(args.task, cfg)
        if model.n_classes != n_classes:
            raise TaskMismatch(f"checkpoint scores {model.n_classes} classes; the run "
                               f"config's {args.task} task has {n_classes}")
        report = evaluate(model, _task_clip_set(args.data, cfg, args.split),
                          strategy, flow_model)
    csv_text = None
    if "confusion" in report:
        csv_text = confusion_matrix_csv(report["confusion"], list(cfg.gen.in_set))
        report = dict(report, confusion=report["confusion"].tolist())

    report = dict(report, config=cfg.as_dict())
    if args.out:
        write_json(args.out, report)
        print(f"report: {args.out}")
        if csv_text is not None:
            csv_path = Path(args.out).with_suffix(".confusion.csv")
            write_text(csv_path, csv_text)
            print(f"confusion matrix: {csv_path}")
    else:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


def cmd_track(args) -> int:
    cfg = _load_run_config(args)
    if args.oracle == (args.ckpt is not None):
        raise ConfigError("exactly one of --oracle or --ckpt is required")
    if not 1 <= args.length <= TRACK_CLIP_LENGTH - 1:
        raise ConfigError(f"--length must be in [1, {TRACK_CLIP_LENGTH - 1}], got {args.length}")
    flow_model = None
    if args.ckpt is not None:
        flow_model = load_flow_model(_require_checkpoint(args.ckpt, "--ckpt"))
    seqs = load_labeled_sequences(args.data, "test")
    report = evaluate_tracking(seqs, flow_model=flow_model,
                               activities=args.activities,
                               clip_length=args.length + 1)
    csv_text = mje_table_csv(report)
    if "latency_ms" in report:
        print(f"mean per-pair latency: {report['latency_ms']:.2f} ms")
    print(f"clips tracked: {report['n_clips']}")
    if args.out:
        write_text(args.out, csv_text)
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
    p.add_argument("--workers", type=int, default=1,
                   help="parallel worker processes, at least 1 (default 1)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("label", help="label every stored sequence")
    p.add_argument("--data", required=True, help="dataset directory")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train", help="train a flow or task model")
    p.add_argument("--task", required=True, choices=TASKS)
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True, help="checkpoint output path")
    p.add_argument("--config", help="override the dataset's echoed config")
    p.add_argument("--strategy", choices=STRATEGIES,
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
    p.add_argument("--strategy", choices=STRATEGIES,
                   help="must match the checkpoint when given")
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
                   help=f"longest tracking length to report (1-{TRACK_CLIP_LENGTH - 1})")
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
