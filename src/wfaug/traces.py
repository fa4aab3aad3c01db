"""Direction-trace data model: datasets, file I/O, n-shot splits, synthesis.

A trace is a fixed-length sequence of Tor cell directions: +1 outgoing,
-1 incoming, 0 padding. Labels are class ids 0..K-1 for monitored websites or
BACKGROUND (-1) for unmonitored ones.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass

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
    def sha256(self) -> str:
        """Hex SHA-256 of the traces' bytes, then the labels' bytes."""
        digest = hashlib.sha256(np.ascontiguousarray(self.traces))
        digest.update(np.ascontiguousarray(self.labels))
        return digest.hexdigest()

    @property
    def output_width(self) -> int:
        """Classifier outputs the data needs: one per monitored class, plus
        one for background when any trace is unmonitored."""
        return self.num_classes + (1 if self.has_background() else 0)

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.traces[idx], self.labels[idx], self.num_classes)


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
        if self.val_per_class < 0:
            raise ValueError("val_per_class must be >= 0")
        if self.test_per_class < 0:
            raise ValueError("test_per_class must be >= 0")


# Largest label a trace file may hold. Output widths follow the largest
# label, so an unbounded one would size arrays by it.
MAX_LABEL = 65535

# Longest trace, in directions, that load_dataset and synth_dataset accept.
# Both size every row by trace_len before looking at the data, so an unbounded
# length asks for terabytes or loops for minutes; at this cap a row is 64 KiB.
MAX_TRACE_LEN = 1 << 16

# Shortest trace synth_dataset makes. A class template holds int(L * u)
# cells, u in [0.70, 0.95): none at L=1, and at L=2 one cell, which a -1
# jitter of its one boundary leaves empty. From L=3 a template holds at least
# two cells, and its last boundary moves by less than that, so every trace
# keeps a direction and can be written to a trace file.
MIN_SYNTH_LEN = 3

# Most cells (classes x traces per class x trace_len) synth_dataset makes.
# The traces take a byte each, and the written file about two, so at this
# cap the array is 256 MiB; a larger request is refused before allocating.
MAX_SYNTH_CELLS = 1 << 28

# save_dataset writes rows of at most this many cells at a time, and
# load_dataset reads whole lines of at most a quarter as many bytes (one line
# at least): its masks and token positions take about ten bytes per byte
# read, which a quarter keeps within the buffers of a written block.
# synth_dataset jitters groups of rows that hold at most this many run
# bounds (one row at least), so its int64 bounds stay within 2 MiB a group.
_BLOCK_CELLS = 1 << 18


def _check_trace_len(trace_len: int) -> None:
    if not 1 <= trace_len <= MAX_TRACE_LEN:
        raise ValueError(f"trace_len must be in [1, {MAX_TRACE_LEN}], "
                         f"got {trace_len}")


def _check_record(line: str, where: str) -> None:
    """Raise TraceFormatError naming the first fault of one record, given as
    text without its line end; return if the record is well formed."""
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
    for tok in rest.split(" "):
        if tok not in ("1", "-1"):
            raise TraceFormatError(
                f"{where}: direction {tok!r} must be 1 or -1")


def _label(head: bytes) -> int | None:
    """The label ``head`` spells the way save_dataset writes it, else None."""
    try:
        label = int(head)
    except ValueError:
        return None
    if b"%d" % label != head or not BACKGROUND <= label <= MAX_LABEL:
        return None
    return label


def _block_tokens(r: np.ndarray, lines: int, head_pairs: int):
    """The position before each "1" in ``r`` and the sign of the token that
    "1" ends, or None unless each record in ``r`` holds "1"/"-1" tokens one
    space apart after its first tab.

    ``r`` is the bytes of whole lines whose labels are well formed, and
    ``head_pairs`` counts the pairs of adjacent digits in those labels. The
    labels' own "1"s are in the result too; the caller skips them.
    """
    one, minus, tab = r == ord("1"), r == ord("-"), r == ord("\t")
    sep = r == ord(" ")
    sep |= tab
    digit = (r - np.uint8(ord("0"))) <= 9
    if (np.count_nonzero(digit) + np.count_nonzero(minus)
            + np.count_nonzero(sep) + lines != len(r)):
        return None  # a byte other than a digit, "-", " ", tab or newline
    if (np.count_nonzero(tab) != lines
            or np.count_nonzero(digit[:-1] & digit[1:]) != head_pairs):
        return None  # a tab or two adjacent digits after a first tab
    # a "-" comes before a "1", a space or tab before a "1" or "-", and a "1"
    # not before a "-"; with the counts above, a "1" after a first tab comes
    # before a space or its line's newline
    bad = minus[:-1] & ~one[1:]
    bad |= sep[:-1] & ~(one[1:] | minus[1:])
    bad |= one[:-1] & minus[1:]
    if bad.any():
        return None
    before = np.flatnonzero(one)
    before -= 1  # a label's "1" at r[0] reads r[-1], and is skipped
    return before, 1 - 2 * (r[before] == ord("-")).view(np.int8)


def _refuse(data: bytes, path, lines) -> None:
    """Raise the error of the first bad record among ``lines``, each a
    (line number, start, end) of ``data``."""
    # bytes that are not UTF-8 decode to lone surrogates, which neither a
    # label nor a direction accepts
    for lineno, start, end in lines:
        _check_record(data[start:end].decode("utf-8", "surrogateescape"),
                      f"{path}:{lineno}")
    raise AssertionError(f"{path}: no bad record among {lines}")


def _read_records(path, trace_len: int) -> tuple[np.ndarray, list[int]]:
    """The traces and labels of a trace file, or the error of its first bad
    line."""
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data:
        raise TraceFormatError(f"{path}: empty dataset file")
    if not data.endswith(b"\n"):
        data += b"\n"
    # one pass over the records' heads, up to the first bad one: where each
    # line starts, its first tab, its newline and its label
    starts, tabs, ends, labels = [], [], [], []
    start = 0
    while start < len(data):
        end = data.index(b"\n", start)
        tab = data.find(b"\t", start, end)
        label = _label(data[start:tab]) if tab >= 0 else None
        if label is None:
            break
        starts.append(start)
        tabs.append(tab)
        ends.append(end)
        labels.append(label)
        start = end + 1
    n = len(labels)
    traces = np.zeros((n, trace_len), dtype=np.int8)
    raw = np.frombuffer(data, dtype=np.uint8)
    size = _BLOCK_CELLS // 4
    lo = 0
    while lo < n:
        b0 = starts[lo]
        hi = max(lo + 1, bisect.bisect_right(ends, b0 + size - 1, lo, n))
        # a label is digits, or "-1"
        head_pairs = (sum(tabs[lo:hi]) - sum(starts[lo:hi]) - (hi - lo)
                      - labels[lo:hi].count(BACKGROUND))
        tokens = _block_tokens(raw[b0:ends[hi - 1] + 1], hi - lo, head_pairs)
        if tokens is None:
            _refuse(data, path, [(i + 1, starts[i], ends[i])
                                 for i in range(lo, hi)])
        before, signs = tokens
        first = np.searchsorted(before, np.array(tabs[lo:hi]) - b0).tolist()
        last = np.searchsorted(before, np.array(ends[lo:hi]) - b0).tolist()
        for row, a, b in zip(traces[lo:hi], first, last):
            k = min(b - a, trace_len)
            row[:k] = signs[a:a + k]
        lo = hi
    if start < len(data):
        _refuse(data, path, [(n + 1, start, data.index(b"\n", start))])
    return traces, labels


def load_dataset(path, trace_len: int) -> Dataset:
    """Read a trace file, padding with 0 or truncating at the tail to ``trace_len``.

    File format: one record per line, ``<label>\\t<d1> <d2> ...`` with label a
    decimal integer from -1 (background) to MAX_LABEL, spelled as ``str``
    writes it (ASCII digits, a ``-`` only for -1, no leading zeros), and each
    d either ``1`` or ``-1``. LF, CRLF and a lone CR each end a record. Every
    direction is checked, also those past ``trace_len``, and a refusal names
    the first bad line.
    """
    _check_trace_len(trace_len)
    traces, labels = _read_records(path, trace_len)
    labels = np.array(labels, dtype=np.int64)
    monitored = labels[labels != BACKGROUND]
    num_classes = int(monitored.max()) + 1 if len(monitored) else 0
    return Dataset(traces, labels, num_classes)


def _check_savable(traces: np.ndarray) -> np.ndarray:
    """Per-row count of directions; raises if there are no rows or, naming the
    first, if a row is all padding or has a zero before its last direction."""
    if not len(traces):
        raise ValueError("cannot save an empty dataset")
    nonzero = traces != 0
    count = np.count_nonzero(nonzero, axis=1)
    # one past the last direction: the row length less the trailing zeros
    end = (traces.shape[1] - np.argmax(nonzero[:, ::-1], axis=1)
           if traces.shape[1] else count)
    bad = np.flatnonzero((count == 0) | (count < end))
    if len(bad):
        row = int(bad[0])
        what = ("an all-padding trace" if count[row] == 0
                else "a trace with interior zeros")
        raise ValueError(f"cannot save {what} (row {row})")
    return count


# an int8 direction's byte, 0x01 or 0xff, as the token the file holds
_TOKEN_1 = bytes.maketrans(b"\x01", b"1")


def save_dataset(dataset: Dataset, path) -> None:
    """Write a dataset in the load format. Trailing padding zeros are dropped.

    Every row is checked before ``path`` is opened, so a refused dataset
    leaves an existing file as it was.
    """
    traces = dataset.traces
    count = _check_savable(traces)
    step = max(1, _BLOCK_CELLS // max(1, traces.shape[1]))
    with open(path, "wb") as fh:
        for start in range(0, len(traces), step):
            rows = slice(start, start + step)
            n = count[rows]
            # directions one byte apart, each row's text ending in a newline
            text = np.full((len(n), 2 * traces.shape[1]), ord(" "),
                           dtype=np.uint8)
            text[:, 0::2] = traces[rows].view(np.uint8)
            text[np.arange(len(n)), 2 * n - 1] = ord("\n")
            lines = b"".join(
                b"%d\t%s" % (label, line[:2 * k].tobytes()) for line, label, k
                in zip(text, dataset.labels[rows].tolist(), n.tolist()))
            fh.write(lines.translate(_TOKEN_1).replace(b"\xff", b"-1"))


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
                   width: int) -> np.ndarray:
    """One-hot encode labels in ``width`` columns (``Dataset.output_width``):
    class k in column k, BACKGROUND in column ``num_classes``; ValueError for
    a label the width cannot hold."""
    idx = class_indices(labels, num_classes)
    bad = (idx < 0) | (idx >= width)
    if np.any(bad):
        raise ValueError(f"label(s) {np.unique(np.asarray(labels)[bad])} do "
                         f"not fit {width} one-hot columns")
    out = np.zeros((len(idx), width), dtype=np.float64)
    out[np.arange(len(idx)), idx] = 1.0
    return out


def _render(bounds: np.ndarray, trace_len: int) -> np.ndarray:
    """Rows of alternating runs, +1 first: row k holds run i in
    ``[bounds[k, i], bounds[k, i + 1])`` and padding from ``bounds[k, -1]``
    on. Each row of ``bounds`` starts at 0, never decreases and ends at most
    at ``trace_len``; an empty run still uses up its sign."""
    rows, runs = bounds.shape[0], bounds.shape[1] - 1
    # each row's runs, then one zero run of padding
    values = np.ones(runs + 1, dtype=np.int8)
    values[1::2] = -1
    values[-1] = 0
    lengths = np.empty((rows, runs + 1), dtype=np.int64)
    np.subtract(bounds[:, 1:], bounds[:, :-1], out=lengths[:, :-1])
    np.subtract(trace_len, bounds[:, -1], out=lengths[:, -1])
    return np.repeat(np.tile(values, rows),
                     lengths.ravel()).reshape(rows, trace_len)


def synth_template_runs(num_classes: int, trace_len: int, seed: int) -> list[list[int]]:
    """Per-class burst templates: alternating +1/-1 run lengths with a
    class-specific mean run length and total cell count."""
    all_runs = []
    for cid in range(num_classes):
        rng = derive_rng(seed, "template", cid)
        total = int(trace_len * rng.uniform(0.70, 0.95))
        mean_run = rng.uniform(3.0, 24.0)
        # runs of max(1, round(exponential)) cells, drawn in blocks of twice
        # the expected count until they cover ``total`` (a block holds the
        # values of as many scalar draws; draws past the last run go unread),
        # and the last run cut to fit
        block = 2 * int(total / mean_run) + 8
        runs = np.empty(0, dtype=np.int64)
        while runs.sum() < total:
            drawn = np.round(rng.exponential(mean_run, block)).astype(np.int64)
            runs = np.concatenate([runs, np.maximum(drawn, 1)])
        ends = np.cumsum(runs)
        count = np.searchsorted(ends, total) + 1
        runs, ends = runs[:count], ends[:count]
        all_runs.append(np.minimum(runs, total - (ends - runs)).tolist())
    return all_runs


def synth_dataset(num_classes: int, samples_per_class: int, trace_len: int,
                  noise_rate: float, seed: int) -> Dataset:
    """Generate a synthetic labeled dataset from seeded burst templates.

    Each sample jitters the template's run boundaries by up to 10% of each run
    length and flips each cell's sign independently with probability
    ``noise_rate``. With ``noise_rate == 0`` samples replicate the template
    exactly. Fully deterministic given ``seed``. At most MAX_LABEL + 1
    classes (the labels a trace file holds) and MAX_SYNTH_CELLS cells, and
    at least MIN_SYNTH_LEN directions per trace.
    """
    if not 2 <= num_classes <= MAX_LABEL + 1:
        raise ValueError(f"num_classes must be in [2, {MAX_LABEL + 1}], "
                         f"got {num_classes}")
    if not 0.0 <= noise_rate < 0.5:
        raise ValueError("noise_rate must be in [0, 0.5)")
    if samples_per_class < 1:
        raise ValueError("samples_per_class must be >= 1")
    if not MIN_SYNTH_LEN <= trace_len <= MAX_TRACE_LEN:
        raise ValueError(f"trace_len must be in [{MIN_SYNTH_LEN}, "
                         f"{MAX_TRACE_LEN}] for synthetic traces, got "
                         f"{trace_len}")
    cells = num_classes * samples_per_class * trace_len
    if cells > MAX_SYNTH_CELLS:
        raise ValueError(
            f"{num_classes} classes x {samples_per_class} traces x "
            f"{trace_len} directions is {cells} cells, more than "
            f"MAX_SYNTH_CELLS = {MAX_SYNTH_CELLS}")
    traces = np.zeros((num_classes, samples_per_class, trace_len), dtype=np.int8)
    for cid, runs in enumerate(synth_template_runs(num_classes, trace_len, seed)):
        runs = np.array(runs, dtype=np.int64)
        # 0 and each run's end, cut at trace_len
        bounds = np.minimum(np.concatenate([[0], np.cumsum(runs)]), trace_len)
        if noise_rate == 0.0:
            traces[cid] = _render(bounds[None], trace_len)
            continue
        # each boundary moves by at most 10% of the run it ends (no
        # cumulative drift); Python's round and np.round both round half
        # to even
        width = np.maximum(1, np.round(0.1 * runs)).astype(np.int64)
        # a class's rows in groups of at most _BLOCK_CELLS bounds
        step = max(1, _BLOCK_CELLS // len(bounds))
        for lo in range(0, samples_per_class, step):
            rows = traces[cid, lo:lo + step]
            jittered = np.zeros((len(rows), len(bounds)), dtype=np.int64)
            flips = np.empty(rows.shape, dtype=bool)
            for k in range(len(rows)):
                rng = derive_rng(seed, "sample", cid, lo + k)
                # one draw per boundary, the stream of one scalar call each,
                # then the flips
                jittered[k, 1:] = rng.integers(-width, width + 1)
                np.less(rng.random(trace_len), noise_rate, out=flips[k])
            np.minimum(jittered[:, 1:] + bounds[1:], trace_len,
                       out=jittered[:, 1:])
            rows[:] = _render(np.maximum.accumulate(jittered, axis=1),
                              trace_len)
            np.negative(rows, out=rows, where=flips)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), samples_per_class)
    return Dataset(traces.reshape(-1, trace_len), labels, num_classes)
