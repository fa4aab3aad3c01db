"""Deterministic command-line pipeline.

Subcommands: synth, split, tune, train, eval, report. Every command
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

from .evaluate import (RunReport, aggregate_metrics, check_test_split,
                       seed_metrics, tune_augmentation, write_report)
from .manifest import (KNOWN_KEYS, Manifest, ManifestError,
                       aug_config_from_manifest, format_manifest,
                       model_config_from_manifest, split_spec_from_manifest,
                       train_config_from_manifest, tune_spec_from_manifest)
from .nn import (CheckpointError, TrainingDiverged, load_checkpoint,
                 save_checkpoint, train, write_history)
from .tpe import ObjectiveError, write_trial_log
from .traces import (TraceFormatError, load_dataset, make_splits,
                     save_dataset, synth_dataset)


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


def _load_splits(m: Manifest, split):
    dataset = _load_data(m)
    return dataset, make_splits(dataset, split)


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
    _, splits = _load_splits(m, split_spec_from_manifest(m, _root_seed(m)))
    parts = list(zip(("train", "val", "test"), splits))
    for name, part in parts:  # all are checked before one is written
        if not len(part):
            raise ValueError(f"cannot save an empty {name} split")
    out = _out_dir(m)
    for name, part in parts:
        save_dataset(part, os.path.join(out, f"{name}.txt"))
        _note(args, f"{name}: {len(part)} traces")
    return 0


def cmd_tune(args, m: Manifest) -> int:
    seed = _root_seed(m)
    spec = tune_spec_from_manifest(m)
    dataset, (train_set, val_set, _) = _load_splits(
        m, split_spec_from_manifest(m, seed))
    model_cfg = model_config_from_manifest(m, dataset.trace_len,
                                           dataset.output_width)
    train_cfg = train_config_from_manifest(m, seed)
    params, log = tune_augmentation(train_set, val_set, model_cfg, train_cfg,
                                    spec)
    fragment = {f"aug.{name}": str(value) for name, value in params.items()}
    out = _out_dir(m)
    with open(os.path.join(out, "aug_params.cfg"), "w",
              encoding="utf-8") as fh:
        fh.write(format_manifest(fragment))
    write_trial_log(os.path.join(out, "tune_trials.csv"), log, seed)
    for note in _unranked_stages(log, len(val_set), dataset.output_width):
        print(note, file=sys.stderr)
    _note(args, f"chose {params} over {len(log)} trials")
    return 0


def _at_chance(hits: int, val_traces: int, width: int) -> bool:
    """Whether ``hits`` right of ``val_traces`` is at or below chance,
    1 / ``width``; the rule of ``tune``'s and ``train``'s notes."""
    return hits * width <= val_traces


def _unranked_stages(log, val_traces: int, width: int):
    """A ``note:`` line for each tune stage whose objectives cannot rank its
    settings: the best and worst differ by at most one validation trace, or
    the best is at or below chance. A stage that tried one value needs more
    trials; any other, longer proxy trainings."""
    stages: dict[tuple, list] = {}
    for trial in log:
        stages.setdefault((trial.stage, trial.param), []).append(trial)
    for (stage, param), trials in stages.items():
        # an objective is a validation accuracy, so hits / val_traces
        counts = [round(t.objective * val_traces) for t in trials]
        best, worst = max(counts), min(counts)
        if best - worst <= 1 or _at_chance(best, val_traces, width):
            key = ("tpe.budget_per_param"
                   if len({t.value for t in trials}) == 1
                   else "tpe.proxy_epochs")
            yield (f"note: tune stage {stage} ({param}) cannot rank its "
                   f"settings: {worst} to {best} of {val_traces} validation "
                   f"traces right, chance 1/{width}; try more {key}")


def cmd_train(args, m: Manifest) -> int:
    seed = _root_seed(m)
    split = split_spec_from_manifest(m, seed)
    dataset, (train_set, val_set, _) = _load_splits(m, split)
    aug_cfg = aug_config_from_manifest(m, dataset.trace_len)
    model_cfg = model_config_from_manifest(m, dataset.trace_len,
                                           dataset.output_width)
    train_cfg = train_config_from_manifest(m, seed)
    model, history = train(model_cfg, train_cfg, train_set, val_set, aug_cfg)
    model.trained_on = {"dataset": dataset.sha256, "split": asdict(split)}
    out = _out_dir(m)
    save_checkpoint(model, os.path.join(out, "model.ckpt"))
    write_history(os.path.join(out, "history.csv"), history)
    best = max(h.val_acc for h in history)
    hits, width = round(best * len(val_set)), dataset.output_width
    if _at_chance(hits, len(val_set), width):
        print(f"note: the kept model is at or below chance: {hits} of "
              f"{len(val_set)} validation traces right, chance 1/{width}; "
              f"try more train.epochs", file=sys.stderr)
    _note(args, f"best validation accuracy {best:.4f} over "
                f"{len(history)} epochs")
    return 0


def cmd_eval(args, m: Manifest) -> int:
    seed = _root_seed(m)
    split = split_spec_from_manifest(m, seed)
    check_test_split(split)
    dataset, (_, val_set, test_set) = _load_splits(m, split)
    model = load_checkpoint(args.checkpoint)
    if model.cfg.num_classes != dataset.output_width:
        raise ManifestError(
            f"checkpoint {args.checkpoint} outputs {model.cfg.num_classes} "
            f"classes but the dataset encodes {dataset.output_width}")
    # in the header's key order, so a refusal prints both splits alike
    trained_on = {"dataset": dataset.sha256,
                  "split": dict(sorted(asdict(split).items()))}
    # a test split drawn otherwise could hold the shots the model trained on
    for part, value in trained_on.items():
        if model.trained_on.get(part) != value:
            raise CheckpointError(
                f"checkpoint {args.checkpoint} was trained on {part} "
                f"{model.trained_on.get(part)}, not this {part} {value}")
    if not args.open_world and test_set.has_background():
        raise ManifestError(
            "dataset contains background traces; use --open-world")
    world = "open" if args.open_world else "closed"
    metrics = seed_metrics(model, val_set, test_set, args.open_world)
    # the checkpoint named by its content, as trained_on names the data
    with open(args.checkpoint, "rb") as fh:
        checkpoint = hashlib.sha256(fh.read()).hexdigest()
    out = _out_dir(m)
    _write_json(os.path.join(out, "eval.json"),
                {"seed": seed, "world": world, "metrics": metrics,
                 **trained_on, "checkpoint": checkpoint})
    _note(args, f"{world}-world metrics: {metrics}")
    return 0


def _read_eval(path) -> dict:
    """An eval.json's object; ValueError naming the file for anything but an
    object with an int seed and metrics of finite numbers."""
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
            return payload
    raise ValueError(f"{path}: not an object with an integer seed and "
                     f"metrics of finite numbers")


def _pooled(run: dict) -> dict:
    """What every run a report pools must share: the data and the split,
    its seed aside, as the eval.json holds them (None where it does not)."""
    split = run.get("split")
    if isinstance(split, dict):
        split = {k: v for k, v in split.items() if k != "seed"}
    return {"dataset": run.get("dataset"), "split (seed aside)": split}


def cmd_report(args, m: Manifest) -> int:
    seen, rows, paths = {}, [], []  # seen: seed -> the file that holds it
    for run_dir in args.runs:
        path = os.path.join(run_dir, "eval.json")
        if not os.path.exists(path):
            raise ManifestError(f"no eval.json under {run_dir}")
        run = _read_eval(path)
        seed = run["seed"]
        if seed in seen:
            raise ValueError(f"{path}: seed {seed} is also the seed of "
                             f"{seen[seed]}")
        pooled = _pooled(run)
        for key, value in pooled.items():
            if paths and value != first[key]:
                raise ValueError(f"{path}: {key} differs from {paths[0]}'s")
        if not paths:
            first = pooled
        seen[seed] = path
        rows.append(run["metrics"])
        paths.append(path)
    mean, std = aggregate_metrics(rows, paths)
    report = RunReport(seeds=tuple(seen), per_seed=tuple(rows), mean=mean,
                       std=std, meta={"runs": [str(r) for r in args.runs]})
    out = _out_dir(m)
    write_report(report, os.path.join(out, "report.json"),
                 os.path.join(out, "report.txt"))
    _note(args, f"aggregated {len(rows)} runs into {out}")
    return 0


# command -> (function, help, {flag: the manifest key it sets})
COMMANDS = {
    "synth": (cmd_synth, "generate a synthetic labeled trace file",
              {"--classes": "data.classes", "--per-class": "data.per_class",
               "--len": "data.trace_len", "--noise": "data.noise"}),
    "split": (cmd_split, "write train/val/test trace files", {}),
    "tune": (cmd_tune, "search augmentation hyperparameters",
             {"--budget": "tpe.budget_per_param"}),
    "train": (cmd_train, "train a model and save the best checkpoint", {}),
    "eval": (cmd_eval, "evaluate a checkpoint on the test split", {}),
    "report": (cmd_report, "aggregate eval.json files into mean +/- std", {}),
}


def build_parser() -> argparse.ArgumentParser:
    """Flags that set a manifest key keep its text; ``Manifest.get`` reads it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--manifest", action="append", default=[],
                        metavar="FILE",
                        help="manifest file; repeatable, later files win")
    common.add_argument("--seed", dest="run.seed",
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
    for name, (func, text, flags) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=text)
        for flag, key in flags.items():
            p.add_argument(flag, dest=key, help=f"overrides {key}")
        p.set_defaults(func=func)

    p = sub.choices["eval"]
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--open-world", dest="open_world", action="store_true",
                   help="threshold sweep on validation, report both "
                        "operating points on test")
    sub.choices["report"].add_argument(
        "runs", nargs="+", help="run directories, each holding an eval.json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flags = {key: value for key, value in vars(args).items()
             if key in KNOWN_KEYS and value is not None}
    try:
        manifest = Manifest.from_files(args.manifest, flags)
        for key in flags:  # checked even where the command never reads it
            manifest.get(key)
        return args.func(args, manifest)
    except (ManifestError, TraceFormatError, CheckpointError, ObjectiveError,
            TrainingDiverged, FloatingPointError, ValueError, OSError,
            MemoryError) as exc:
        # an interpreter's MemoryError has no message; its name says enough
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
