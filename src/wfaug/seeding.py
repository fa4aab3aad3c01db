"""Deterministic RNG derivation.

Every random decision in the toolkit flows from a single root seed. Sub-streams
are derived from the root seed plus a path of tags (strings or ints), so that
independent pipeline stages (dataset synthesis, shuffling, per-batch
augmentation, weight init, ...) draw from non-overlapping streams and any stage
can be reproduced in isolation.
"""

from __future__ import annotations

import zlib

import numpy as np


def _as_word(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFF
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    raise TypeError(f"seed path element must be int or str, got {type(part).__name__}")


def derive_rng(root_seed: int, *path) -> np.random.Generator:
    """Generator for the sub-stream identified by ``(root_seed, *path)``.

    The same (seed, path) pair always yields an identical stream; distinct
    paths yield statistically independent streams.
    """
    words = [int(root_seed) & 0xFFFFFFFFFFFFFFFF] + [_as_word(p) for p in path]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))
