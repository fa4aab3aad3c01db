"""Harmonious data augmentation for direction traces.

Three operators: random rotation (circular shift), random masking (zero out a
contiguous window) and random mixing (convex combination of two samples and
their labels, mixup-style). Rotation and masking keep the label; mixing
interpolates it. Each operator is one batched kernel (rotate_batch,
mask_batch, mix_batch) with one batch sampler of its random parameters
(sample_rotation, sample_mask, sample_lambda) and one hyperparameter in
AugConfig; an operator runs when its hyperparameter is set. hda_batch
augments a minibatch, drawing every trace's parameters from the one
generator it is given and applying the set operators in the one order,
OPERATORS: rotation, masking, mixing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

ROTATION = "rotation"
MASKING = "masking"
MIXING = "mixing"
OPERATORS = (ROTATION, MASKING, MIXING)  # the order hda_batch applies them in

# each operator's one hyperparameter, the AugConfig field that switches it on
OPERATOR_PARAMS = {ROTATION: "r_max", MASKING: "m_len", MIXING: "alpha"}


@dataclass
class AugConfig:
    """Augmentation hyperparameters; an operator whose hyperparameter is
    None is off."""

    r_max: int | None = 20       # rotation step bound
    m_len: int | None = 180      # masked subsequence length
    alpha: float | None = 0.1    # Beta(alpha, alpha) mixing concentration

    def __post_init__(self):
        if self.r_max is not None and self.r_max < 1:
            raise ValueError("r_max must be >= 1")
        if self.m_len is not None and self.m_len < 0:
            raise ValueError("m_len must be >= 0")
        if self.alpha is not None:
            _check_alpha(self.alpha)
        if self.r_max is None and self.m_len is None and self.alpha is None:
            raise ValueError("r_max, m_len and alpha are all None: no operator")

    @classmethod
    def from_params(cls, params: dict) -> "AugConfig":
        """The config running exactly the operators whose parameter
        (``r_max``, ``m_len``, ``alpha``) is in ``params``."""
        unknown = set(params) - set(OPERATOR_PARAMS.values())
        if unknown:
            raise ValueError(f"unknown augmentation parameters {sorted(unknown)}")

        def given(name, kind):
            return kind(params[name]) if name in params else None

        return cls(r_max=given("r_max", int), m_len=given("m_len", int),
                   alpha=given("alpha", float))


def length_limits(trace_len: int) -> dict:
    """The largest ``m_len`` and ``r_max`` an L-cell trace supports: a mask
    leaves at least one cell (m_len < L) and a rotation step goes at most
    once round (r_max <= L)."""
    return {"m_len": trace_len - 1, "r_max": trace_len}


def _check_alpha(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")


def rotate_batch(x: np.ndarray, shifts) -> np.ndarray:
    """Shift row b of (B, L) ``x`` circularly by shifts[b]; keeps the dtype.

    Row b of the result is the L-cell window of row b written twice end to
    end that starts at cell (-shifts[b]) mod L, taken in one gather.
    """
    length = x.shape[1]
    windows = sliding_window_view(np.concatenate([x, x], axis=1), length,
                                  axis=1)
    return windows[np.arange(len(x)), -np.asarray(shifts) % length]


def mask_batch(x: np.ndarray, starts, length: int) -> np.ndarray:
    """Zero positions [starts[b], starts[b] + length) of row b of a copy of
    (B, L) ``x``, for starts in [0, L - length]; keeps the dtype."""
    out = np.array(x)
    windows = sliding_window_view(out, length, axis=1, writeable=True)
    windows[np.arange(len(out)), np.asarray(starts)] = 0
    return out


def mix_batch(x: np.ndarray, y: np.ndarray, partners,
              lams) -> tuple[np.ndarray, np.ndarray]:
    """Row b becomes lams[b] * row b + (1 - lams[b]) * row partners[b], for
    traces ``x`` and soft labels ``y`` alike, in float64."""
    t = (1.0 - np.asarray(lams, dtype=np.float64))[:, None]
    return (_toward(np.asarray(x, dtype=np.float64), partners, t),
            _toward(np.asarray(y, dtype=np.float64), partners, t))


def _toward(a: np.ndarray, partners, t: np.ndarray) -> np.ndarray:
    """a + t * (a[partners] - a), computed in place in the gathered copy:
    the same correctly rounded steps on the same operands, so the same bits,
    with two temporaries fewer. a + t*(b - a) keeps the self-mix case
    exact."""
    d = a[partners]
    d -= a
    d *= t
    d += a
    return d


def sample_rotation(r_max: int, rng: np.random.Generator,
                    size: int) -> np.ndarray:
    """``size`` signed shifts: steps uniform on {1..r_max}, then directions
    uniform on {forward (+), backward (-)}. Forward by s moves the element at
    position i to (i + s) mod L; backward by s is its inverse."""
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    n_step = rng.integers(1, r_max + 1, size)
    return np.where(rng.integers(0, 2, size) == 0, n_step, -n_step)


def sample_mask(m_len: int, trace_len: int, rng: np.random.Generator,
                size: int) -> np.ndarray:
    """``size`` window starts, uniform on {0..trace_len - m_len}."""
    if not 0 <= m_len <= length_limits(trace_len)["m_len"]:
        raise ValueError("m_len must be >= 0 and < trace length")
    return rng.integers(0, trace_len - m_len + 1, size)


def sample_lambda(alpha: float, rng: np.random.Generator,
                  size: int) -> np.ndarray:
    """``size`` mixing weights from Beta(alpha, alpha)."""
    _check_alpha(alpha)
    return rng.beta(alpha, alpha, size)


def hda_batch(traces: np.ndarray, labels: np.ndarray, cfg: AugConfig,
              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Augment one minibatch, applying the set operators in OPERATORS order.

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
    if cfg.r_max is not None:
        x = rotate_batch(x, sample_rotation(cfg.r_max, rng, batch))
    if cfg.m_len is not None:
        x = mask_batch(x, sample_mask(cfg.m_len, trace_len, rng, batch),
                       cfg.m_len)
    if cfg.alpha is not None:
        lams = sample_lambda(cfg.alpha, rng, batch)
        x, y = mix_batch(x, y, rng.integers(0, batch, batch), lams)
    return x, y
