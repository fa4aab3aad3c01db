"""Closed- and open-world evaluation, threshold sweeps and experiment runs.

Closed world scores plain argmax accuracy over monitored classes. Open world
adds a background class and a confidence threshold: a trace counts as
monitored only when the argmax lands on a monitored class and the winning
probability clears the threshold. The experiment runner repeats
split/tune/train/eval across seeds and aggregates a report.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from .augment import AugConfig, OPERATORS
from .nn import Model, ModelConfig, TrainConfig, dataset_accuracy, predict, train
from .seeding import derive_rng
from .tpe import (GAMMA, N_CANDIDATES, N_STARTUP, OPERATOR_PARAMS,
                  SearchSpace, check_tpe_settings, default_spaces,
                  optimize_independent, optimize_sequential)
from .traces import Dataset, SplitSpec, make_splits

# 0.00, 0.01, ..., 1.00
THRESHOLD_GRID = tuple(round(k * 0.01, 2) for k in range(101))


@dataclass(frozen=True)
class ConfusionSummary:
    """Open-world confusion counts over one evaluation set.

    tp: monitored trace assigned its own class.
    fp: background assigned any monitored class, or monitored trace assigned
        the wrong monitored class.
    fn: monitored trace assigned background.
    tn: background assigned background.
    """

    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be >= 0")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def precision(self) -> float:
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0


@dataclass(frozen=True)
class OperatingPoint:
    threshold: float
    precision: float
    recall: float

    def __post_init__(self):
        for name in ("precision", "recall"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")


def confusion_from_predictions(labels: np.ndarray, pred: np.ndarray,
                               conf: np.ndarray, threshold: float,
                               num_classes: int) -> ConfusionSummary:
    """Count open-world outcomes from per-trace predictions.

    ``labels`` uses the BACKGROUND sentinel for unmonitored traces; ``pred``
    holds argmax class indices where ``num_classes`` (or anything above)
    means background; ``conf`` holds the winning probability. A trace is
    called monitored only when its argmax is a monitored class and ``conf``
    reaches ``threshold``, so thresholds above 1 send everything to
    background.
    """
    labels = np.asarray(labels)
    pred = np.asarray(pred)
    conf = np.asarray(conf, dtype=np.float64)
    if not (len(labels) == len(pred) == len(conf)):
        raise ValueError("labels, predictions and confidences must align")
    if not np.isfinite(threshold) or threshold < 0:
        raise ValueError("threshold must be finite and >= 0")
    truth_mon = labels >= 0
    called_mon = (pred < num_classes) & (conf >= threshold)
    tp = int(np.sum(truth_mon & called_mon & (pred == labels)))
    fp = int(np.sum(called_mon) - tp)
    fn = int(np.sum(truth_mon & ~called_mon))
    tn = int(np.sum(~truth_mon & ~called_mon))
    return ConfusionSummary(tp=tp, fp=fp, fn=fn, tn=tn)


def closed_accuracy(model: Model, test: Dataset) -> float:
    """Fraction of traces whose argmax matches the label. Monitored only."""
    if test.has_background():
        raise ValueError("closed-world evaluation rejects background traces")
    return dataset_accuracy(model, test)


def open_world_eval(model: Model, test: Dataset,
                    threshold: float) -> ConfusionSummary:
    pred, conf = predict(model, test.traces)
    return confusion_from_predictions(test.labels, pred, conf, threshold,
                                      test.num_classes)


def sweep_operating_points(model: Model, val: Dataset,
                           thresholds=THRESHOLD_GRID):
    """Score every threshold on ``val`` once.

    Returns (best precision point, best recall point, full curve). Precision
    ties break toward higher recall and recall ties toward higher precision;
    remaining ties keep the lowest threshold.
    """
    thresholds = tuple(float(t) for t in thresholds)
    if not thresholds:
        raise ValueError("thresholds must be non-empty")
    pred, conf = predict(model, val.traces)
    curve = []
    for t in thresholds:
        c = confusion_from_predictions(val.labels, pred, conf, t,
                                       val.num_classes)
        curve.append(OperatingPoint(t, c.precision, c.recall))
    best_precision = max(curve, key=lambda p: (p.precision, p.recall, -p.threshold))
    best_recall = max(curve, key=lambda p: (p.recall, p.precision, -p.threshold))
    return best_precision, best_recall, curve


def open_world_metrics(model: Model, val: Dataset, test: Dataset) -> dict:
    """Pick thresholds on ``val``, score ``test`` at both operating points.

    Sweeps validation once and predicts the test split once; returns the
    threshold, precision and recall of the precision-best and recall-best
    points, keyed ``{precision,recall}_tuned_{threshold,precision,recall}``.
    """
    best_p, best_r, _ = sweep_operating_points(model, val)
    pred, conf = predict(model, test.traces)
    metrics = {}
    for tag, point in (("precision", best_p), ("recall", best_r)):
        c = confusion_from_predictions(test.labels, pred, conf,
                                       point.threshold, test.num_classes)
        metrics.update({f"{tag}_tuned_threshold": point.threshold,
                        f"{tag}_tuned_precision": c.precision,
                        f"{tag}_tuned_recall": c.recall})
    return metrics


@dataclass(frozen=True)
class TuneSpec:
    """How to search augmentation hyperparameters before training."""

    mode: str = "sequential"            # or "independent"
    order: tuple = OPERATORS            # operator application + tuning order
    budget_per_param: int | None = None  # None = 3x grid size, capped at 30
    proxy_epochs: int = 30              # short training runs during search
    gamma: float = GAMMA
    n_startup: int = N_STARTUP
    n_candidates: int = N_CANDIDATES

    def __post_init__(self):
        if self.mode not in ("sequential", "independent"):
            raise ValueError("mode must be 'sequential' or 'independent'")
        if sorted(self.order) != sorted(OPERATORS):
            raise ValueError(f"order must be a permutation of {OPERATORS}")
        if self.proxy_epochs < 1:
            raise ValueError("proxy_epochs must be >= 1")
        if self.budget_per_param is not None and self.budget_per_param < 1:
            raise ValueError("budget_per_param must be >= 1")
        check_tpe_settings(self.gamma, self.n_candidates)


def fit_spaces_to_length(spaces: dict, trace_len: int) -> dict:
    """Drop grid values an L-cell trace cannot support (m_len < L, r_max <= L)."""
    bound = {"m_len": trace_len - 1, "r_max": trace_len}
    out = {}
    for name, space in spaces.items():
        grid = tuple(v for v in space.grid if v <= bound.get(name, v))
        if not grid:
            raise ValueError(f"no {name!r} grid values fit trace length {trace_len}")
        out[name] = space if grid == space.grid else SearchSpace(name, grid)
    return out


def tune_augmentation(train_set: Dataset, val_set: Dataset,
                      model_cfg: ModelConfig, train_cfg: TrainConfig,
                      spec: TuneSpec, seed: int, spaces=None):
    """Search augmentation hyperparameters by short proxy trainings.

    The objective trains ``spec.proxy_epochs`` epochs with only the operators
    named in the candidate setting enabled and scores validation accuracy of
    the best checkpoint. Returns (chosen params, stage trial log). Repeated
    settings reuse their first score, so revisits cost nothing. Default
    search grids are trimmed to the trace length; explicit ``spaces`` are
    used as given.
    """
    if spaces is None:
        spaces = fit_spaces_to_length(default_spaces(), train_set.trace_len)
    param_order = tuple(OPERATOR_PARAMS[op] for op in spec.order)
    proxy_cfg = replace(train_cfg, epochs=spec.proxy_epochs, seed=seed)
    cache: dict[tuple, float] = {}

    def objective(params: dict) -> float:
        key = tuple(sorted(params.items()))
        if key not in cache:
            aug = AugConfig.from_params(params, order=spec.order)
            _, history = train(model_cfg, proxy_cfg, train_set, val_set, aug)
            cache[key] = max(h.val_acc for h in history)
        return cache[key]

    optimize = (optimize_sequential if spec.mode == "sequential"
                else optimize_independent)
    return optimize(param_order, spaces, objective, spec.budget_per_param,
                    derive_rng(seed, "tune"), gamma=spec.gamma,
                    n_startup=spec.n_startup, n_candidates=spec.n_candidates)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment run needs except the dataset and seeds."""

    model: ModelConfig
    train: TrainConfig
    split: SplitSpec
    aug: AugConfig | None = None
    tune: TuneSpec | None = None


@dataclass(frozen=True)
class RunReport:
    """Per-seed metrics plus their population mean/std and run metadata."""

    seeds: tuple
    per_seed: tuple
    mean: dict
    std: dict
    meta: dict


def aggregate_metrics(rows, names=None) -> tuple[dict, dict]:
    """Population mean and std per metric; a single row gives std 0.

    ValueError when a row's keys differ from the first row's, naming the row
    (by ``names``, else its index) and its missing and extra keys, or when a
    mean or std is not finite, naming the metric.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("no metric rows to aggregate")
    names = list(names) if names is not None else [
        f"row {i}" for i in range(len(rows))]
    keys = sorted(rows[0])
    for name, r in zip(names[1:], rows[1:]):
        if sorted(r) != keys:
            raise ValueError(
                f"{name}: metric keys disagree with {names[0]}: missing "
                f"{sorted(set(keys) - set(r))}, extra "
                f"{sorted(set(r) - set(keys))}")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = {k: float(np.mean([r[k] for r in rows])) for k in keys}
        std = {k: float(np.std([r[k] for r in rows])) for k in keys}
    for k in keys:
        if not (np.isfinite(mean[k]) and np.isfinite(std[k])):
            raise ValueError(f"metric {k!r} has mean {mean[k]} and std "
                             f"{std[k]}; both must be finite")
    return mean, std


def config_digest(cfg: ExperimentConfig) -> str:
    parts = {"model": asdict(cfg.model), "train": asdict(cfg.train),
             "split": asdict(cfg.split),
             "aug": asdict(cfg.aug) if cfg.aug is not None else None,
             "tune": asdict(cfg.tune) if cfg.tune is not None else None}
    text = json.dumps(parts, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run_experiment(dataset: Dataset, cfg: ExperimentConfig,
                   seeds) -> RunReport:
    """Split, optionally tune, train and evaluate once per seed.

    Closed world (no background in the dataset) reports test accuracy; open
    world sweeps thresholds on validation and reports test precision/recall
    at the precision-best and recall-best operating points. Fully
    deterministic in (dataset, cfg, seeds).
    """
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ValueError("seeds must be non-empty")
    open_world = dataset.has_background()
    per_seed = []
    for seed in seeds:
        train_set, val_set, test_set = make_splits(
            dataset, replace(cfg.split, seed=seed))
        train_cfg = replace(cfg.train, seed=seed)
        aug = cfg.aug
        metrics: dict[str, float] = {}
        if cfg.tune is not None:
            params, _ = tune_augmentation(train_set, val_set, cfg.model,
                                          train_cfg, cfg.tune, seed)
            aug = AugConfig.from_params(params, order=cfg.tune.order)
            metrics.update({f"tuned_{k}": float(v) for k, v in params.items()})
        model, history = train(cfg.model, train_cfg, train_set, val_set, aug)
        metrics["val_accuracy"] = max(h.val_acc for h in history)
        if open_world:
            metrics.update(open_world_metrics(model, val_set, test_set))
        else:
            metrics["test_accuracy"] = closed_accuracy(model, test_set)
        per_seed.append(metrics)
    mean, std = aggregate_metrics(per_seed)
    meta = {"config": config_digest(cfg), "open_world": open_world,
            "dataset": dict(dataset.provenance)}
    return RunReport(seeds=seeds, per_seed=tuple(per_seed), mean=mean,
                     std=std, meta=meta)


def report_json(report: RunReport) -> str:
    """Canonical JSON rendering: sorted keys, no timestamps or machine paths."""
    payload = {"seeds": list(report.seeds),
               "per_seed": list(report.per_seed),
               "mean": report.mean, "std": report.std, "meta": report.meta}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _fmt(key: str, value: float) -> str:
    # rates as percentages with one decimal; everything else plain
    if key.endswith(("accuracy", "precision", "recall")):
        return f"{100.0 * value:.1f}"
    return f"{value:g}"


def report_table(report: RunReport) -> str:
    """Plain-text summary table, percentage metrics at one decimal."""
    width = max([len("metric")] + [len(k) for k in report.mean])
    lines = ["seeds: " + " ".join(str(s) for s in report.seeds),
             f"{'metric':<{width}} {'mean':>8} {'std':>8}  per-seed"]
    for key in sorted(report.mean):
        per = " ".join(_fmt(key, row[key]) for row in report.per_seed)
        lines.append(f"{key:<{width}} {_fmt(key, report.mean[key]):>8} "
                     f"{_fmt(key, report.std[key]):>8}  {per}")
    return "\n".join(lines) + "\n"


def write_report(report: RunReport, json_path, table_path=None) -> None:
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(report_json(report))
    if table_path is not None:
        with open(table_path, "w", encoding="utf-8") as fh:
            fh.write(report_table(report))
