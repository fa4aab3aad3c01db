"""Deterministic command-line pipeline.

Subcommands: synth, split, augment, tune, train, eval, report. Every command
is a pure function of the merged manifests, its flags and the referenced
files, so rerunning it reproduces the outputs byte for byte. A flag sets the
manifest key it names, above every manifest file. All randomness flows from
one root seed (run.seed, default 0); each stage derives its own stream from
(seed, stage name), so adding or removing one stage never shifts another's
draws.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .augment import OPERATORS, hda_batch
from .evaluate import (RunReport, aggregate_metrics, closed_accuracy,
                       open_world_metrics, tune_augmentation, write_report)
from .manifest import (KNOWN_KEYS, Manifest, ManifestError,
                       aug_config_from_manifest, format_manifest,
                       model_config_from_manifest, parse_operator_order,
                       split_spec_from_manifest, train_config_from_manifest,
                       tune_spec_from_manifest)
from .nn import (CheckpointError, TrainingDiverged, dataset_accuracy,
                 load_checkpoint, save_checkpoint, train, write_history)
from .seeding import derive_rng
from .tpe import ObjectiveError, write_trial_log
from .traces import (TraceFormatError, load_dataset, make_splits,
                     one_hot_labels, save_dataset, synth_dataset)


def _note(args, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


def _root_seed(m: Manifest) -> int:
    return m.get("run.seed", 0)


def _out_path(m: Manifest) -> str:
    out = m.get("out.dir", None)
    if out is None:
        raise ManifestError("no output location: pass --out or set out.dir")
    return out


def _out_dir(m: Manifest) -> str:
    out = _out_path(m)
    os.makedirs(out, exist_ok=True)
    return out


def _load_data(m: Manifest):
    path = m.get("data.path")
    if not os.path.exists(path):
        raise ManifestError(f"data.path does not exist: {path}")
    return load_dataset(path, m.get("data.trace_len"))


def _load_splits(m: Manifest, seed: int):
    dataset = _load_data(m)
    return dataset, make_splits(dataset, split_spec_from_manifest(m, seed))


def _trained_on(dataset, m: Manifest, seed: int) -> dict:
    """The loaded traces and labels (SHA-256) and the split drawn from them."""
    digest = hashlib.sha256(dataset.traces.tobytes()
                            + dataset.labels.tobytes()).hexdigest()
    return {"dataset": digest,
            "split": asdict(split_spec_from_manifest(m, seed))}


def _operator_order(m: Manifest, seed: int) -> tuple:
    """aug.order when given, else a seed-derived random permutation."""
    if m.has("aug.order"):
        return parse_operator_order(m.get("aug.order"))
    order = list(OPERATORS)
    derive_rng(seed, "order").shuffle(order)
    return tuple(order)


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def cmd_synth(args, m: Manifest) -> int:
    dataset = synth_dataset(
        num_classes=m.get("data.classes"),
        samples_per_class=m.get("data.per_class"),
        trace_len=m.get("data.trace_len"), noise_rate=m.get("data.noise"),
        seed=_root_seed(m))
    out = _out_path(m)
    save_dataset(dataset, out)
    _note(args, f"wrote {len(dataset)} traces to {out}")
    return 0


def cmd_split(args, m: Manifest) -> int:
    seed = _root_seed(m)
    _, (train_set, val_set, test_set) = _load_splits(m, seed)
    out = _out_dir(m)
    for name, part in (("train", train_set), ("val", val_set),
                       ("test", test_set)):
        save_dataset(part, os.path.join(out, f"{name}.txt"))
        _note(args, f"{name}: {len(part)} traces")
    return 0


def cmd_augment(args, m: Manifest) -> int:
    """One seeded augmentation pass over the whole file, saved as arrays.

    Mixing produces fractional trace values and soft labels, so the preview
    is written as float arrays (augmented_x.npy / augmented_y.npy) rather
    than the integer trace format.
    """
    seed = _root_seed(m)
    dataset = _load_data(m)
    cfg = aug_config_from_manifest(m, dataset.trace_len)
    if cfg is None:
        raise ManifestError(
            "no operators enabled; set aug.enable.<operator> = true")
    labels = one_hot_labels(dataset.labels, dataset.num_classes,
                            background_class=dataset.has_background())
    x, y = hda_batch(dataset.traces.astype(np.float64), labels, cfg,
                     derive_rng(seed, "augment"))
    out = _out_dir(m)
    np.save(os.path.join(out, "augmented_x.npy"), x)
    np.save(os.path.join(out, "augmented_y.npy"), y)
    _note(args, f"augmented {len(x)} traces into {out}")
    return 0


def cmd_tune(args, m: Manifest) -> int:
    seed = _root_seed(m)
    dataset, (train_set, val_set, _) = _load_splits(m, seed)
    order = _operator_order(m, seed)
    spec = tune_spec_from_manifest(m, order)
    model_cfg = model_config_from_manifest(m, dataset.trace_len,
                                           dataset.output_width)
    train_cfg = train_config_from_manifest(m, seed)
    params, log = tune_augmentation(train_set, val_set, model_cfg, train_cfg,
                                    spec, seed)
    fragment = {"aug.order": ",".join(order)}
    for op in OPERATORS:
        fragment[f"aug.enable.{op}"] = "true"
    for name, value in params.items():
        fragment[f"aug.{name}"] = str(value)
    out = _out_dir(m)
    with open(os.path.join(out, "aug_params.cfg"), "w",
              encoding="utf-8") as fh:
        fh.write(format_manifest(fragment))
    write_trial_log(os.path.join(out, "tune_trials.csv"), log, seed)
    _note(args, f"chose {params} over {len(log)} trials")
    return 0


def cmd_train(args, m: Manifest) -> int:
    seed = _root_seed(m)
    dataset, (train_set, val_set, _) = _load_splits(m, seed)
    aug_cfg = aug_config_from_manifest(m, dataset.trace_len,
                                       default_order=_operator_order(m, seed))
    model_cfg = model_config_from_manifest(m, dataset.trace_len,
                                           dataset.output_width)
    train_cfg = train_config_from_manifest(m, seed)
    model, history = train(model_cfg, train_cfg, train_set, val_set, aug_cfg)
    model.trained_on = _trained_on(dataset, m, seed)
    out = _out_dir(m)
    save_checkpoint(model, os.path.join(out, "model.ckpt"))
    write_history(os.path.join(out, "history.csv"), history)
    _note(args, f"best validation accuracy "
                f"{max(h.val_acc for h in history):.4f} over "
                f"{len(history)} epochs")
    return 0


def cmd_eval(args, m: Manifest) -> int:
    seed = _root_seed(m)
    dataset, (_, val_set, test_set) = _load_splits(m, seed)
    if len(test_set) == 0:
        raise ManifestError("split.test_per_class = 0 leaves no test traces "
                            "to evaluate")
    model = load_checkpoint(args.checkpoint)
    if model.cfg.num_classes != dataset.output_width:
        raise ManifestError(
            f"checkpoint {args.checkpoint} outputs {model.cfg.num_classes} "
            f"classes but the dataset encodes {dataset.output_width}")
    # a test split drawn otherwise could hold the shots the model trained on
    for part, value in _trained_on(dataset, m, seed).items():
        if model.trained_on.get(part) != value:
            raise CheckpointError(
                f"checkpoint {args.checkpoint} was trained on {part} "
                f"{model.trained_on.get(part)}, not this {part} {value}")
    if args.open_world:
        world = "open"
        metrics = open_world_metrics(model, val_set, test_set)
    else:
        if test_set.has_background():
            raise ManifestError(
                "dataset contains background traces; use --open-world")
        world = "closed"
        metrics = {"val_accuracy": dataset_accuracy(model, val_set),
                   "test_accuracy": closed_accuracy(model, test_set)}
    out = _out_dir(m)
    _write_json(os.path.join(out, "eval.json"),
                {"seed": seed, "world": world, "metrics": metrics,
                 "dataset": dict(dataset.provenance),
                 "checkpoint": str(args.checkpoint)})
    _note(args, f"{world}-world metrics: {metrics}")
    return 0


def _read_eval(path) -> tuple[int, dict]:
    """The seed and metrics of an eval.json; ValueError naming the file for
    anything but an object with an int seed and metrics of finite numbers."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: not a JSON document ({exc})") from None
    if isinstance(payload, dict):
        seed, metrics = payload.get("seed"), payload.get("metrics")
        # abs() <= float max also rules out NaN and ints too big for a float
        if type(seed) is int and isinstance(metrics, dict) and all(
                type(v) in (int, float) and abs(v) <= sys.float_info.max
                for v in metrics.values()):
            return seed, metrics
    raise ValueError(f"{path}: not an object with an integer seed and "
                     f"metrics of finite numbers")


def cmd_report(args, m: Manifest) -> int:
    seeds, rows, paths = [], [], []
    for run_dir in args.runs:
        path = os.path.join(run_dir, "eval.json")
        if not os.path.exists(path):
            raise ManifestError(f"no eval.json under {run_dir}")
        seed, metrics = _read_eval(path)
        seeds.append(seed)
        rows.append(metrics)
        paths.append(path)
    mean, std = aggregate_metrics(rows, paths)
    report = RunReport(seeds=tuple(seeds), per_seed=tuple(rows), mean=mean,
                       std=std, meta={"runs": [str(r) for r in args.runs]})
    out = _out_dir(m)
    write_report(report, os.path.join(out, "report.json"),
                 os.path.join(out, "report.txt"))
    _note(args, f"aggregated {len(rows)} runs into {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--manifest", action="append", default=[],
                        metavar="FILE",
                        help="manifest file; repeatable, later files win")
    common.add_argument("--seed", dest="run.seed", type=int,
                        help="root seed (overrides run.seed, default 0)")
    common.add_argument("--out", dest="out.dir",
                        help="output file or directory (overrides out.dir)")
    common.add_argument("--verbose", action="store_true",
                        help="progress notes on stderr")

    parser = argparse.ArgumentParser(
        prog="wfaug",
        description="few-shot website-fingerprinting experiments with "
                    "harmonious trace augmentation")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic labeled trace file")
    p.add_argument("--classes", dest="data.classes", type=int)
    p.add_argument("--per-class", dest="data.per_class", type=int)
    p.add_argument("--len", dest="data.trace_len", type=int)
    p.add_argument("--noise", dest="data.noise", type=float)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split", parents=[common],
                       help="write train/val/test trace files")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("augment", parents=[common],
                       help="offline augmentation preview as .npy arrays")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("tune", parents=[common],
                       help="search augmentation hyperparameters")
    p.add_argument("--mode", dest="tpe.mode", help="overrides tpe.mode",
                   choices=("sequential", "independent"))
    p.add_argument("--budget", dest="tpe.budget_per_param", type=int,
                   help="trials per parameter (overrides tpe.budget_per_param)")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("train", parents=[common],
                       help="train a model and save the best checkpoint")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a checkpoint on the test split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--open-world", dest="open_world", action="store_true",
                   help="threshold sweep on validation, report both "
                        "operating points on test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", parents=[common],
                       help="aggregate eval.json files into mean +/- std")
    p.add_argument("runs", nargs="+",
                   help="run directories, each holding an eval.json")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flags = {key: str(value) for key, value in vars(args).items()
             if key in KNOWN_KEYS and value is not None}
    try:
        manifest = Manifest.from_files(args.manifest, flags)
        return args.func(args, manifest)
    except (ManifestError, TraceFormatError, CheckpointError, ObjectiveError,
            TrainingDiverged, FloatingPointError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
