"""Direction-trace data model: datasets, file I/O, n-shot splits, synthesis.

A trace is a fixed-length sequence of Tor cell directions: +1 outgoing,
-1 incoming, 0 padding. Labels are class ids 0..K-1 for monitored websites or
BACKGROUND (-1) for unmonitored ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .seeding import derive_rng

BACKGROUND = -1


class TraceFormatError(ValueError):
    """Raised when a trace file does not conform to the on-disk format."""


@dataclass
class Dataset:
    """Labeled direction traces, all padded/truncated to a common length."""

    traces: np.ndarray  # (N, L) int8, values in {-1, 0, +1}
    labels: np.ndarray  # (N,) int64, BACKGROUND for unmonitored
    num_classes: int    # number of monitored classes K
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.traces = np.asarray(self.traces, dtype=np.int8)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.traces.ndim != 2 or len(self.labels) != len(self.traces):
            raise ValueError("traces must be (N, L) with one label per trace")
        if not ((self.traces >= -1) & (self.traces <= 1)).all():
            raise ValueError("trace elements must be in {-1, 0, +1}")
        bad = (self.labels >= self.num_classes) | (
            (self.labels < 0) & (self.labels != BACKGROUND)
        )
        if np.any(bad):
            raise ValueError(f"invalid label(s): {np.unique(self.labels[bad])}")

    def __len__(self) -> int:
        return len(self.traces)

    @property
    def trace_len(self) -> int:
        return self.traces.shape[1]

    def has_background(self) -> bool:
        return bool(np.any(self.labels == BACKGROUND))

    @property
    def output_width(self) -> int:
        """Classifier outputs the data needs: one per monitored class, plus
        one for background when any trace is unmonitored."""
        return self.num_classes + (1 if self.has_background() else 0)

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.traces[idx], self.labels[idx], self.num_classes,
                       dict(self.provenance))


@dataclass
class SplitSpec:
    """Per-class sizes for the train/val/test partition."""

    shots: int
    val_per_class: int
    test_per_class: int
    seed: int = 0

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.val_per_class < 0 or self.test_per_class < 0:
            raise ValueError("per-class counts must be >= 0")


# Largest label a trace file may hold. Output widths follow the largest
# label, so an unbounded one would size arrays by it.
MAX_LABEL = 65535

# Longest trace, in directions, that load_dataset and synth_dataset accept.
# Both size every row by trace_len before looking at the data, so an unbounded
# length asks for terabytes or loops for minutes; at this cap a row is 64 KiB.
MAX_TRACE_LEN = 1 << 16

# _FOLLOWS[a, b]: byte b may follow byte a in " " + directions + " ", which
# holds exactly when the directions are "1"/"-1" tokens, one space apart
_FOLLOWS = np.zeros((256, 256), dtype=bool)
for _pair in (" 1", " -", "-1", "1 "):
    _FOLLOWS[ord(_pair[0]), ord(_pair[1])] = True
_TOKENS = {1: "1", -1: "-1"}


def _directions(rest: str, trace_len: int, where: str) -> np.ndarray:
    """The first ``trace_len`` directions of a record's text after the tab;
    every token is checked, also those past ``trace_len``."""
    raw = np.frombuffer(
        b" " + rest.encode("utf-8", "surrogateescape") + b" ", dtype=np.uint8)
    if not _FOLLOWS[raw[:-1], raw[1:]].all():
        bad = next(tok for tok in rest.split(" ") if tok not in _TOKENS.values())
        raise TraceFormatError(f"{where}: direction {bad!r} must be 1 or -1")
    # each "1" ends a token, which is -1 when a "-" precedes it
    ends = np.flatnonzero(raw == ord("1"))[:trace_len]
    return np.where(raw[ends - 1] == ord("-"), -1, 1).astype(np.int8)


def _check_trace_len(trace_len: int) -> None:
    if not 1 <= trace_len <= MAX_TRACE_LEN:
        raise ValueError(f"trace_len must be in [1, {MAX_TRACE_LEN}], "
                         f"got {trace_len}")


def load_dataset(path, trace_len: int) -> Dataset:
    """Read a trace file, padding with 0 or truncating at the tail to ``trace_len``.

    File format: one record per line, ``<label>\\t<d1> <d2> ...`` with label a
    decimal integer from -1 (background) to MAX_LABEL, spelled as ``str``
    writes it (ASCII digits, a ``-`` only for -1, no leading zeros), and each
    d either ``1`` or ``-1``.
    """
    _check_trace_len(trace_len)
    rows, labels = [], []
    # bytes that are not UTF-8 decode to lone surrogates, which neither a
    # label nor a direction accepts, so they fail with their line number
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            where = f"{path}:{lineno}"
            line = line.rstrip("\n")
            if not line:
                raise TraceFormatError(f"{where}: blank line")
            head, sep, rest = line.partition("\t")
            if not sep:
                raise TraceFormatError(f"{where}: missing tab separator")
            try:
                label = int(head)
            except ValueError:
                raise TraceFormatError(
                    f"{where}: label {head!r} is not an integer") from None
            if str(label) != head:
                raise TraceFormatError(
                    f"{where}: label {head!r} must be written as {label}")
            if not BACKGROUND <= label <= MAX_LABEL:
                raise TraceFormatError(f"{where}: label {label} out of range")
            rows.append(_directions(rest, trace_len, where))
            labels.append(label)
    if not rows:
        raise TraceFormatError(f"{path}: empty dataset file")
    traces = np.zeros((len(rows), trace_len), dtype=np.int8)
    for out, row in zip(traces, rows):
        out[:len(row)] = row
    labels = np.array(labels, dtype=np.int64)
    monitored = labels[labels != BACKGROUND]
    num_classes = int(monitored.max()) + 1 if len(monitored) else 0
    return Dataset(traces, labels, num_classes, {"source": str(path)})


def save_dataset(dataset: Dataset, path) -> None:
    """Write a dataset in the load format. Trailing padding zeros are dropped."""
    with open(path, "w", encoding="utf-8") as fh:
        for trace, label in zip(dataset.traces, dataset.labels):
            nz = np.nonzero(trace)[0]
            if len(nz) == 0:
                raise ValueError("cannot save an all-padding trace")
            body = trace[: nz[-1] + 1]
            if np.any(body == 0):
                raise ValueError("cannot save a trace with interior zeros")
            fh.write(f"{label}\t{' '.join([_TOKENS[v] for v in body.tolist()])}\n")


def make_splits(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Disjoint stratified train/val/test splits with ``spec.shots`` train
    records per class, drawn by seeded shuffle. Background records, when
    present, are split with the same per-class counts."""
    need = spec.shots + spec.val_per_class + spec.test_per_class
    rng = derive_rng(spec.seed, "split")
    train_idx, val_idx, test_idx = [], [], []
    class_ids = list(range(dataset.num_classes))
    if dataset.has_background():
        class_ids.append(BACKGROUND)
    for cid in class_ids:
        idx = np.nonzero(dataset.labels == cid)[0]
        if len(idx) < need:
            raise ValueError(
                f"class {cid} has {len(idx)} samples, needs {need} "
                f"({spec.shots} train + {spec.val_per_class} val + {spec.test_per_class} test)")
        perm = idx[rng.permutation(len(idx))]
        train_idx.extend(perm[: spec.shots])
        val_idx.extend(perm[spec.shots: spec.shots + spec.val_per_class])
        test_idx.extend(perm[spec.shots + spec.val_per_class: need])
    return (dataset.subset(np.array(train_idx, dtype=np.int64)),
            dataset.subset(np.array(val_idx, dtype=np.int64)),
            dataset.subset(np.array(test_idx, dtype=np.int64)))


def class_indices(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Label array with the BACKGROUND sentinel mapped to index num_classes."""
    idx = np.asarray(labels, dtype=np.int64).copy()
    idx[idx == BACKGROUND] = num_classes
    return idx


def one_hot_labels(labels: np.ndarray, num_classes: int,
                   background_class: bool = False) -> np.ndarray:
    """One-hot encode labels; BACKGROUND maps to the extra last index when
    ``background_class`` is enabled."""
    if not background_class and np.any(np.asarray(labels) == BACKGROUND):
        raise ValueError("background labels need background_class=True")
    idx = class_indices(labels, num_classes)
    width = num_classes + (1 if background_class else 0)
    out = np.zeros((len(idx), width), dtype=np.float64)
    out[np.arange(len(idx)), idx] = 1.0
    return out


def _render_runs(run_lengths: list[int], trace_len: int) -> np.ndarray:
    out = np.zeros(trace_len, dtype=np.int8)
    pos, sign = 0, 1
    for run in run_lengths:
        if pos >= trace_len:
            break
        end = min(pos + run, trace_len)
        out[pos:end] = sign
        pos = end
        sign = -sign
    return out


def synth_template_runs(num_classes: int, trace_len: int, seed: int) -> list[list[int]]:
    """Per-class burst templates: alternating +1/-1 run lengths with a
    class-specific mean run length and total cell count."""
    all_runs = []
    for cid in range(num_classes):
        rng = derive_rng(seed, "template", cid)
        total = int(trace_len * rng.uniform(0.70, 0.95))
        mean_run = rng.uniform(3.0, 24.0)
        runs, acc = [], 0
        while acc < total:
            run = min(max(1, int(round(rng.exponential(mean_run)))), total - acc)
            runs.append(run)
            acc += run
        all_runs.append(runs)
    return all_runs


def synth_templates(num_classes: int, trace_len: int, seed: int) -> np.ndarray:
    """Rendered (num_classes, trace_len) template traces; the oracle targets
    for nearest-template classification."""
    runs = synth_template_runs(num_classes, trace_len, seed)
    return np.stack([_render_runs(r, trace_len) for r in runs])


def synth_dataset(num_classes: int, samples_per_class: int, trace_len: int,
                  noise_rate: float, seed: int) -> Dataset:
    """Generate a synthetic labeled dataset from seeded burst templates.

    Each sample jitters the template's run boundaries by up to 10% of each run
    length and flips each cell's sign independently with probability
    ``noise_rate``. With ``noise_rate == 0`` samples replicate the template
    exactly. Fully deterministic given ``seed``.
    """
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    if not 0.0 <= noise_rate < 0.5:
        raise ValueError("noise_rate must be in [0, 0.5)")
    if samples_per_class < 1:
        raise ValueError("samples_per_class must be >= 1")
    _check_trace_len(trace_len)
    template_runs = synth_template_runs(num_classes, trace_len, seed)
    traces = np.empty((num_classes * samples_per_class, trace_len), dtype=np.int8)
    labels = np.empty(num_classes * samples_per_class, dtype=np.int64)
    row = 0
    for cid in range(num_classes):
        runs = template_runs[cid]
        bounds = np.concatenate([[0], np.cumsum(runs)])
        for k in range(samples_per_class):
            if noise_rate == 0.0:
                trace = _render_runs(runs, trace_len)
            else:
                rng = derive_rng(seed, "sample", cid, k)
                # jitter each run boundary locally (no cumulative drift)
                jittered = bounds.copy()
                for b in range(1, len(bounds)):
                    d = max(1, int(round(0.1 * runs[b - 1])))
                    jittered[b] = min(bounds[b] + int(rng.integers(-d, d + 1)), trace_len)
                jittered = np.maximum.accumulate(jittered)
                trace = _render_runs(np.diff(jittered).tolist(), trace_len)
                flip = rng.random(trace_len) < noise_rate
                trace = np.where(flip, -trace, trace).astype(np.int8)
            traces[row] = trace
            labels[row] = cid
            row += 1
    return Dataset(traces, labels, num_classes, {
        "source": "synth", "seed": int(seed), "num_classes": int(num_classes),
        "samples_per_class": int(samples_per_class), "trace_len": int(trace_len),
        "noise_rate": float(noise_rate),
    })
