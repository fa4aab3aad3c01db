"""Machine pace: a fixed reference kernel timed next to every measured unit.

The shared 2-core machine this benchmark was written on drifts between speed
regimes that last from seconds to minutes, and a regime slows wfaug and any
other code alike: a fixed matmul-plus-Python loop ran 0.15 s per chunk in one
stretch and 0.22 s in the next, with CPU time equal to wall time (so the
slowdown is the core's speed, not time stolen from the process). A statistic
taken inside one run cannot remove a slow stretch that covers the whole run.

So the harness times ``reference()`` right before and right after each
set-up and each repeat, and inside them after stage calls (at most once per
``MIN_GAP_S``). A stretch between two timings counts at ``REFERENCE_S`` over
their mean, and the reference's own time is left out: seconds at the pace
where the reference takes ``REFERENCE_S``. The reference mixes the kinds of
work wfaug does (interpreter loops, many small numpy calls, Generator
construction, small matmuls and a sweep over memory larger than L2), so a
regime moves it the way it moves the program. It touches no wfaug code, so
a change to wfaug moves the rescaled figures by the same factor as the raw
ones.
"""

from __future__ import annotations

import time

import numpy as np

# Median of reference() on the machine the bounds were set on (2-core Xeon
# VM, numpy with one BLAS thread). It only sets the scale of the figures.
REFERENCE_S = 0.02

# Inside a set-up or repeat the reference runs after a stage call only when
# this long has passed since it last ran, which keeps its share of the run
# under a tenth.
MIN_GAP_S = 0.3

_MATRIX = np.random.default_rng(0).standard_normal((64, 64)) / 8
_SWEEP = np.random.default_rng(1).standard_normal(1 << 21)  # 16 MiB


def reference() -> float:
    """The fixed reference work; returns a checksum so none of it is
    skipped."""
    total = 0
    table = {}
    for i in range(24000):
        total += (i * i) % 7
        table[i & 255] = total
    cells = np.zeros(1000, dtype=np.int8)
    for k in range(600):
        at = (k * 37) % 950
        cells[at:at + 50] = 1 if k % 2 else -1
        total += int(np.where(cells > 0, cells, -cells)[at])
    for k in range(80):
        total += int(np.random.default_rng([k, 7]).integers(0, 10))
    x = _MATRIX
    for _ in range(80):
        x = np.tanh(_MATRIX @ x)
    for _ in range(2):
        total += float(_SWEEP.copy().sum())
    return total + float(x[0, 0])


def warm_up() -> None:
    """A few untimed calls: the first call in a process runs slow."""
    for _ in range(3):
        reference()


def measure() -> float:
    """Seconds one reference() call takes now."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start
