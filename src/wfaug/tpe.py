"""Tree-of-Parzen-Estimators search over small discrete grids.

Every tunable parameter lives on a short ordered grid. The first N_STARTUP
suggestions are uniform draws. After that a trial history is split at the
GAMMA quantile into good and bad halves, each half becomes a smoothed density
over the grid, and the next suggestion is the one of N_CANDIDATES draws from
the good density with the best good-to-bad density ratio. The three settings
are fixed: the search tunes the augmentation operators, not itself.

The multi-parameter search builds on the single-parameter tuner: a pass that
fixes each parameter before moving on to the next one, with operators later
in the order switched off entirely.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

GAMMA = 0.25
N_STARTUP = 5
N_CANDIDATES = 24
MAX_BUDGET = 30

TRIAL_LOG_HEADER = ("stage", "param", "value", "objective", "seed", "trial_index")


@dataclass(frozen=True)
class SearchSpace:
    """Named, strictly increasing grid of candidate values."""

    name: str
    grid: tuple

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(self.grid))
        if not self.grid:
            raise ValueError("grid must be non-empty")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly increasing")

    def __len__(self) -> int:
        return len(self.grid)

    def index(self, value) -> int:
        try:
            return self.grid.index(value)
        except ValueError:
            raise ValueError(f"{value!r} is not on the {self.name!r} grid") from None


@dataclass(frozen=True)
class TpeTrial:
    value: float
    objective: float

    def __post_init__(self):
        if not math.isfinite(self.objective):
            raise ValueError("objective must be finite")


@dataclass(frozen=True)
class StageTrial:
    """One evaluated point in a multi-parameter tuning run."""

    stage: int
    param: str
    value: float
    objective: float
    trial_index: int


class ObjectiveError(RuntimeError):
    """Objective evaluation failed; ``trials`` holds the failing parameter's
    completed trials only, not those of earlier stages."""

    def __init__(self, param: str, trials, cause):
        super().__init__(f"objective failed while tuning {param!r}: {cause}")
        self.trials = list(trials)


def default_spaces() -> dict[str, SearchSpace]:
    """Stepped sweep grids for the three operators, with the top-end settings
    20 and 180 included alongside the stepped values."""
    return {
        "r_max": SearchSpace("r_max", (1, 6, 11, 16, 20)),
        "m_len": SearchSpace("m_len", (1, 21, 41, 61, 81, 101, 121, 141, 161, 180, 181)),
        "alpha": SearchSpace("alpha", tuple(round(0.1 * k, 1) for k in range(1, 11))),
    }


def default_budget(space: SearchSpace) -> int:
    return min(3 * len(space), MAX_BUDGET)


def _density(values, space: SearchSpace) -> np.ndarray:
    # smoothed counts: 1 at the observed point, 0.5 at each grid neighbour,
    # on top of a uniform prior of 1 so nothing ever has zero mass
    w = np.ones(len(space))
    for v in values:
        i = space.index(v)
        w[i] += 1.0
        if i > 0:
            w[i - 1] += 0.5
        if i + 1 < len(w):
            w[i + 1] += 0.5
    return w / w.sum()


def tpe_suggest(history, space: SearchSpace, rng: np.random.Generator):
    """Pick the next grid value to evaluate given the trial history."""
    grid = space.grid
    if len(history) < N_STARTUP:
        return grid[int(rng.integers(0, len(grid)))]
    ranked = sorted(history, key=lambda t: t.objective, reverse=True)
    n_good = math.ceil(GAMMA * len(ranked))
    good = _density([t.value for t in ranked[:n_good]], space)
    bad = _density([t.value for t in ranked[n_good:]], space)
    picks = rng.choice(len(grid), size=N_CANDIDATES, p=good)
    return grid[int(picks[np.argmax(good[picks] / bad[picks])])]


def optimize_one(space: SearchSpace, objective: Callable, budget: int,
                 rng: np.random.Generator):
    """Run ``budget`` suggest/evaluate rounds; the best evaluated point wins.

    Returns ``(best value, trial log)``. Ties go to the earliest trial. If the
    objective raises, the completed part of the log survives on the error.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    trials: list[TpeTrial] = []
    for _ in range(budget):
        value = tpe_suggest(trials, space, rng)
        try:
            trial = TpeTrial(value, float(objective(value)))
        except Exception as exc:
            raise ObjectiveError(space.name, trials, exc) from exc
        trials.append(trial)
    best = max(trials, key=lambda t: t.objective)
    return best.value, trials


def optimize_sequential(order, spaces, objective: Callable,
                        budget_per_param: int | None, rng: np.random.Generator):
    """Tune parameters one at a time in ``order``.

    While parameter k is under tuning, parameters chosen in earlier stages
    stay fixed at their chosen values and parameters later in the order are
    absent from the evaluated setting, so the objective only ever sees
    operators that are switched on. Returns ``(chosen params, stage trial
    log)``.
    """
    chosen: dict = {}
    log: list[StageTrial] = []
    for stage, name in enumerate(order):
        if name not in spaces:
            raise ValueError(f"no search space for parameter {name!r}")
        space = spaces[name]
        budget = (default_budget(space) if budget_per_param is None
                  else budget_per_param)
        best, trials = optimize_one(
            space, lambda v: objective({**chosen, name: v}), budget, rng)
        log.extend(StageTrial(stage, name, t.value, t.objective, i)
                   for i, t in enumerate(trials))
        chosen[name] = best
    return chosen, log


def write_trial_log(path, records, seed: int) -> None:
    """CSV trial log: stage,param,value,objective,seed,trial_index."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIAL_LOG_HEADER)
        for r in records:
            writer.writerow([r.stage, r.param, r.value, r.objective, seed,
                             r.trial_index])
