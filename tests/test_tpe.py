import csv

import numpy as np
import pytest
from scipy import stats

from oracles import optimize_independent
from wfaug.augment import OPERATOR_PARAMS
from wfaug.seeding import derive_rng
from wfaug.tpe import (
    TRIAL_LOG_HEADER,
    ObjectiveError,
    SearchSpace,
    StageTrial,
    TpeTrial,
    default_budget,
    default_spaces,
    optimize_one,
    optimize_sequential,
    tpe_suggest,
    write_trial_log,
)

TEN = SearchSpace("v", tuple(range(1, 11)))


class TestSearchSpace:
    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            SearchSpace("x", ())

    def test_rejects_non_increasing_grid(self):
        with pytest.raises(ValueError):
            SearchSpace("x", (1, 3, 2))
        with pytest.raises(ValueError):
            SearchSpace("x", (1, 1, 2))

    def test_index_and_off_grid_error(self):
        assert TEN.index(3) == 2
        with pytest.raises(ValueError, match="grid"):
            TEN.index(99)

    def test_trial_objective_must_be_finite(self):
        with pytest.raises(ValueError):
            TpeTrial(1, float("nan"))

    def test_default_spaces_cover_all_operators(self):
        spaces = default_spaces()
        assert set(spaces) == set(OPERATOR_PARAMS.values())
        assert spaces["r_max"].grid == (1, 6, 11, 16, 20)
        assert spaces["m_len"].grid[-2:] == (180, 181)
        assert spaces["alpha"].grid[0] == 0.1 and spaces["alpha"].grid[-1] == 1.0

    def test_default_budget_is_capped(self):
        assert default_budget(SearchSpace("s", (1, 2))) == 6
        assert default_budget(SearchSpace("s", tuple(range(40)))) == 30


class TestSuggest:
    def test_startup_is_uniform_over_grid(self):
        rng = derive_rng(0, "tpe", "startup")
        draws = [tpe_suggest([], TEN, rng) for _ in range(10_000)]
        counts = np.bincount(draws, minlength=11)[1:]
        assert set(np.unique(draws)) <= set(TEN.grid)
        assert stats.chisquare(counts).pvalue > 0.01

    def test_singleton_grid_always_returned(self):
        space = SearchSpace("s", (42,))
        rng = derive_rng(1)
        history = [TpeTrial(42, 0.5)] * 10
        assert all(tpe_suggest(history, space, rng) == 42 for _ in range(20))

    def test_concentrates_on_high_objective_region(self):
        # objective strictly increasing in value: top-3 values should
        # dominate; a uniform sampler would hit them 30% of the time
        history = [TpeTrial(v, float(v)) for v in TEN.grid] * 3
        hits = 0
        for seed in range(100):
            v = tpe_suggest(history, TEN, derive_rng(seed, "tpe", "inc"))
            assert v in TEN.grid
            hits += v >= 8
        assert hits / 100 >= 0.7

    def test_suggestions_stay_on_grid_after_startup(self):
        rng = derive_rng(2)
        history = [TpeTrial(int(rng.choice(TEN.grid)), float(rng.random()))
                   for _ in range(40)]
        for _ in range(50):
            assert tpe_suggest(history, TEN, rng) in TEN.grid


class TestOptimizeOne:
    def test_budget_one_returns_the_single_point(self):
        best, log = optimize_one(TEN, lambda v: 0.0, 1, derive_rng(4))
        assert len(log) == 1 and best == log[0].value

    def test_finds_planted_quadratic_optimum(self):
        wins = 0
        for seed in range(20):
            best, log = optimize_one(TEN, lambda v: -((v - 7) ** 2), 30,
                                     derive_rng(seed, "quad"))
            assert len(log) == 30
            wins += best in (6, 7, 8)
        assert wins >= 18

    def test_constant_objective_full_log(self):
        best, log = optimize_one(TEN, lambda v: 1.0, 12, derive_rng(5))
        assert best in TEN.grid
        assert len(log) == 12
        assert all(t.value in TEN.grid for t in log)

    def test_deterministic_given_seed(self):
        runs = [optimize_one(TEN, lambda v: (v * 7) % 3, 20, derive_rng(6))
                for _ in range(2)]
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_objective_error_keeps_partial_log(self):
        calls = []

        def flaky(v):
            if len(calls) == 2:
                raise RuntimeError("boom")
            calls.append(v)
            return 0.5

        with pytest.raises(ObjectiveError) as err:
            optimize_one(TEN, flaky, 10, derive_rng(7))
        assert len(err.value.trials) == 2
        assert [t.value for t in err.value.trials] == calls

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            optimize_one(TEN, lambda v: 0.0, 0, derive_rng(0))


def planted_objective(params):
    # best score exactly at the planted setting, smooth falloff elsewhere
    target = {"r_max": 20, "m_len": 180, "alpha": 0.1}
    span = {"r_max": 19.0, "m_len": 180.0, "alpha": 0.9}
    return 1.0 - sum(abs(v - target[k]) / span[k] for k, v in params.items())


class TestSequential:
    def test_single_parameter_matches_optimize_one(self):
        spaces = {"v": TEN}
        fn = lambda params: -abs(params["v"] - 4)
        chosen, log = optimize_sequential(["v"], spaces, fn, 15, derive_rng(8))
        best, single = optimize_one(TEN, lambda v: -abs(v - 4), 15, derive_rng(8))
        assert chosen == {"v": best}
        assert [(t.value, t.objective) for t in log] == \
               [(t.value, t.objective) for t in single]

    def test_objective_error_holds_the_failing_stage_only(self):
        # stage 0 runs its 3 trials; stage 1 fails at its second
        seen = []

        def fn(params):
            seen.append(params)
            if len(seen) == 5:
                raise RuntimeError("boom")
            return 0.0

        with pytest.raises(ObjectiveError, match="tuning 'b'") as err:
            optimize_sequential(["a", "b"], {name: SearchSpace(name, TEN.grid)
                                             for name in "ab"}, fn, 3,
                                derive_rng(3))
        assert [t.value for t in err.value.trials] == [seen[3]["b"]]

    # the independent pass is the reference in tests/oracles.py; it keeps
    # the budget contract of the search it is compared with
    @pytest.mark.parametrize("optimize", [optimize_sequential,
                                          optimize_independent])
    def test_zero_budget_is_not_the_default_budget(self, optimize):
        calls = []
        with pytest.raises(ValueError, match="budget must be >= 1"):
            optimize(["v"], {"v": TEN}, calls.append, 0, derive_rng(8))
        assert calls == []

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_recovers_planted_optimum(self, seed):
        spaces = default_spaces()
        chosen, _ = optimize_sequential(
            ["r_max", "m_len", "alpha"], spaces, planted_objective,
            60, derive_rng(seed, "planted"))
        assert chosen == {"r_max": 20, "m_len": 180, "alpha": 0.1}

    def test_default_budget_used_when_unset(self):
        chosen, log = optimize_sequential(
            ["r_max", "m_len", "alpha"], default_spaces(), planted_objective,
            None, derive_rng(1, "planted"))
        stage_budgets = {s.stage: s.trial_index + 1 for s in log}
        assert stage_budgets == {0: 15, 1: 30, 2: 30}  # 3x grid, capped at 30

    def test_separable_objective_agrees_with_independent(self):
        spaces = {"a": TEN, "b": TEN}
        fn = lambda p: -abs(p.get("a", 3) - 3) - abs(p.get("b", 9) - 9)
        for seed in range(3):
            seq, _ = optimize_sequential(["a", "b"], spaces, fn, 30,
                                         derive_rng(seed, "sep", "s"))
            ind, _ = optimize_independent(["a", "b"], spaces, fn, 30,
                                          derive_rng(seed, "sep", "i"))
            assert seq == ind == {"a": 3, "b": 9}

    def test_ignored_later_parameter_stays_uniform(self):
        # flat stage-2 objective: ties resolve to the first suggestion, which
        # comes from the uniform startup phase
        spaces = {"a": SearchSpace("a", (1, 2, 3)), "b": SearchSpace("b", (1, 2, 3, 4, 5))}
        fn = lambda p: -abs(p["a"] - 2)
        picks = [optimize_sequential(["a", "b"], spaces, fn, 9,
                                     derive_rng(seed, "flat"))[0]["b"]
                 for seed in range(200)]
        counts = np.bincount(picks, minlength=6)[1:]
        assert stats.chisquare(counts).pvalue > 0.01

    def test_interacting_objective_sequential_beats_independent(self):
        spaces = {"a": TEN, "b": TEN}

        def agree(p):
            if "a" in p and "b" in p:
                return 1.0 if p["a"] == p["b"] else 0.0
            return 0.0

        seq_scores, ind_scores = [], []
        for seed in range(20):
            seq, _ = optimize_sequential(["a", "b"], spaces, agree, 20,
                                         derive_rng(seed, "int", "s"))
            ind, _ = optimize_independent(["a", "b"], spaces, agree, 20,
                                          derive_rng(seed, "int", "i"))
            seq_scores.append(agree(seq))
            ind_scores.append(agree(ind))
        assert np.mean(seq_scores) >= np.mean(ind_scores)
        assert np.mean(seq_scores) >= 0.5  # stage 2 sees the fixed partner

    def test_deterministic_end_to_end(self):
        spaces = default_spaces()
        runs = [optimize_sequential(["r_max", "m_len", "alpha"], spaces,
                                    planted_objective, 10,
                                    derive_rng(11, "det"))
                for _ in range(2)]
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_missing_space_rejected(self):
        with pytest.raises(ValueError, match="search space"):
            optimize_sequential(["nope"], {}, lambda p: 0.0, 5, derive_rng(0))


class TestTrialLog:
    def test_csv_layout(self, tmp_path):
        records = [StageTrial(0, "r_max", 20, 0.75, 0),
                   StageTrial(1, "m_len", 180, 0.875, 1)]
        path = tmp_path / "trials.csv"
        write_trial_log(path, records, seed=41)
        rows = list(csv.reader(path.open()))
        assert rows[0] == list(TRIAL_LOG_HEADER)
        assert rows[1] == ["0", "r_max", "20", "0.75", "41", "0"]
        assert rows[2] == ["1", "m_len", "180", "0.875", "41", "1"]
