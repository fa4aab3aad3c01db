"""Harmonious data augmentation for direction traces.

Three operators: random rotation (circular shift), random masking (zero out a
contiguous window) and random mixing (convex combination of two samples and
their labels, mixup-style). Rotation and masking keep the label; mixing
interpolates it. Each operator is one batched kernel (rotate_batch,
mask_batch, mix_batch) with one batch sampler of its random parameters
(sample_rotation, sample_mask, sample_lambda). rotate, mask and mix run a
kernel on one sample with given parameters; hda_batch augments a minibatch,
drawing every trace's parameters from the one generator it is given and
applying the enabled operators in a configurable order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ROTATION = "rotation"
MASKING = "masking"
MIXING = "mixing"
OPERATORS = (ROTATION, MASKING, MIXING)

FORWARD = "forward"
BACKWARD = "backward"


@dataclass
class AugConfig:
    """Augmentation hyperparameters and the operator application order."""

    r_max: int = 20           # rotation step bound
    m_len: int = 180          # masked subsequence length
    alpha: float = 0.1        # Beta(alpha, alpha) mixing concentration
    order: tuple = OPERATORS
    enabled: dict = field(default_factory=lambda: {op: True for op in OPERATORS})

    def __post_init__(self):
        self.order = tuple(self.order)
        if sorted(self.order) != sorted(OPERATORS):
            raise ValueError(f"order must be a permutation of {OPERATORS}")
        missing = set(OPERATORS) - set(self.enabled)
        if missing:
            raise ValueError(f"enabled flags missing for {sorted(missing)}")
        if self.r_max < 0 or self.m_len < 0:
            raise ValueError("r_max and m_len must be >= 0")
        _check_alpha(self.alpha)
        if self.enabled[ROTATION] and self.r_max < 1:
            raise ValueError("rotation enabled but r_max < 1")

    def any_enabled(self) -> bool:
        return any(self.enabled.values())

    @classmethod
    def disabled(cls) -> "AugConfig":
        return cls(enabled={op: False for op in OPERATORS})

    @classmethod
    def from_params(cls, params: dict, order: tuple = OPERATORS) -> "AugConfig":
        """Build a config from a hyperparameter dict, enabling exactly the
        operators whose parameter is present.

        Keys: ``r_max`` (rotation), ``m_len`` (masking), ``alpha`` (mixing).
        Absent keys leave the operator disabled with a benign placeholder.
        """
        known = {"r_max", "m_len", "alpha"}
        unknown = set(params) - known
        if unknown:
            raise ValueError(f"unknown augmentation parameters {sorted(unknown)}")
        return cls(r_max=int(params.get("r_max", 1)),
                   m_len=int(params.get("m_len", 0)),
                   alpha=float(params.get("alpha", 0.5)),
                   order=order,
                   enabled={ROTATION: "r_max" in params,
                            MASKING: "m_len" in params,
                            MIXING: "alpha" in params})


def _check_alpha(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")


@dataclass(frozen=True)
class RotationParams:
    n_step: int
    direction: str

    def __post_init__(self):
        if self.n_step < 1:
            raise ValueError("n_step must be >= 1")
        if self.direction not in (FORWARD, BACKWARD):
            raise ValueError(f"direction must be {FORWARD!r} or {BACKWARD!r}")

    @property
    def shift(self) -> int:
        """Signed circular shift: +n_step forward, -n_step backward."""
        return self.n_step if self.direction == FORWARD else -self.n_step


@dataclass(frozen=True)
class MaskParams:
    start: int
    length: int

    def __post_init__(self):
        if self.length < 0 or self.start < 0:
            raise ValueError("start and length must be >= 0")


@dataclass(frozen=True)
class MixParams:
    lam: float

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must be in [0, 1]")


def rotate_batch(x: np.ndarray, shifts) -> np.ndarray:
    """Shift row b of (B, L) ``x`` circularly by shifts[b]; keeps the dtype."""
    pos = np.arange(x.shape[1])[None, :]
    cols = (pos - np.asarray(shifts)[:, None]) % x.shape[1]
    return x[np.arange(len(x))[:, None], cols]


def mask_batch(x: np.ndarray, starts, length: int) -> np.ndarray:
    """Zero positions [starts[b], starts[b] + length) of row b; keeps dtype."""
    pos = np.arange(x.shape[1])[None, :]
    starts = np.asarray(starts)[:, None]
    return np.where((pos >= starts) & (pos < starts + length), 0, x)


def mix_batch(x: np.ndarray, y: np.ndarray, partners,
              lams) -> tuple[np.ndarray, np.ndarray]:
    """Row b becomes lams[b] * row b + (1 - lams[b]) * row partners[b], for
    traces ``x`` and soft labels ``y`` alike, in float64."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    # a + t*(b - a) keeps the self-mix case exact
    t = (1.0 - np.asarray(lams, dtype=np.float64))[:, None]
    return x + t * (x[partners] - x), y + t * (y[partners] - y)


def rotate(x: np.ndarray, params: RotationParams) -> np.ndarray:
    """Circular shift: forward by s moves the element at position i to
    (i + s) mod L; backward is the inverse."""
    return rotate_batch(np.asarray(x)[None], [params.shift])[0]


def mask(x: np.ndarray, params: MaskParams) -> np.ndarray:
    """Zero out positions [start, start + length); everything else unchanged."""
    if params.start + params.length > len(x):
        raise ValueError("mask window exceeds trace length")
    return mask_batch(np.asarray(x)[None], [params.start], params.length)[0]


def mix(xi: np.ndarray, yi: np.ndarray, xj: np.ndarray, yj: np.ndarray,
        params: MixParams) -> tuple[np.ndarray, np.ndarray]:
    """lam * (xi, yi) + (1 - lam) * (xj, yj), elementwise and real-valued."""
    if len(xi) != len(xj):
        raise ValueError("traces must have equal length")
    if len(yi) != len(yj):
        raise ValueError("labels must have equal dimension")
    x, y = mix_batch([xi, xj], [yi, yj], [1, 0], [params.lam, params.lam])
    return x[0], y[0]


def sample_rotation(r_max: int, rng: np.random.Generator,
                    size: int) -> np.ndarray:
    """``size`` signed shifts: steps uniform on {1..r_max}, then directions
    uniform on {forward (+), backward (-)}, signed as RotationParams.shift."""
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    n_step = rng.integers(1, r_max + 1, size)
    return np.where(rng.integers(0, 2, size) == 0, n_step, -n_step)


def sample_mask(m_len: int, trace_len: int, rng: np.random.Generator,
                size: int) -> np.ndarray:
    """``size`` window starts, uniform on {0..trace_len - m_len}."""
    if not 0 <= m_len < trace_len:
        raise ValueError("m_len must be >= 0 and < trace length")
    return rng.integers(0, trace_len - m_len + 1, size)


def sample_lambda(alpha: float, rng: np.random.Generator,
                  size: int) -> np.ndarray:
    """``size`` mixing weights from Beta(alpha, alpha)."""
    _check_alpha(alpha)
    return rng.beta(alpha, alpha, size)


def hda_batch(traces: np.ndarray, labels: np.ndarray, cfg: AugConfig,
              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Augment one minibatch, applying the enabled operators in ``cfg.order``.

    ``traces`` is (B, L), ``labels`` is (B, K) soft labels. Each operator
    draws its B parameters from ``rng`` just before it is applied: rotation
    its steps then directions, masking its starts, mixing its weights then
    each sample's partner, uniform over the same batch (possibly itself).
    """
    if len(traces) == 0:
        raise ValueError("batch must be non-empty")
    if len(traces) != len(labels):
        raise ValueError("one label row per trace required")

    batch, trace_len = traces.shape
    x, y = traces, labels
    for op in cfg.order:
        if not cfg.enabled[op]:
            continue
        if op == ROTATION:
            x = rotate_batch(x, sample_rotation(cfg.r_max, rng, batch))
        elif op == MASKING:
            starts = sample_mask(cfg.m_len, trace_len, rng, batch)
            x = mask_batch(x, starts, cfg.m_len)
        else:
            lams = sample_lambda(cfg.alpha, rng, batch)
            x, y = mix_batch(x, y, rng.integers(0, batch, batch), lams)
    return x, y
