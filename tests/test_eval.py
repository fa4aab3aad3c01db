"""Evaluation and experiment-runner tests.

Confusion counting is checked against a per-trace loop oracle and a
hand-built six-trace case; threshold sweeps against brute-force re-scans.
Experiment runs use tiny synthetic tasks so the whole file stays fast.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from wfaug import evaluate
from wfaug.augment import AugConfig
from wfaug.evaluate import (ConfusionSummary, ExperimentConfig, OperatingPoint,
                            THRESHOLD_GRID, TuneSpec, aggregate_metrics,
                            closed_accuracy, config_digest,
                            confusion_from_predictions, fit_spaces_to_length,
                            open_world_eval, open_world_metrics, report_json,
                            report_table, run_experiment,
                            sweep_operating_points,
                            tune_augmentation, write_report)
from wfaug.nn import ConvBlock, ModelConfig, TrainConfig, training
from wfaug.tpe import SearchSpace, default_spaces
from wfaug.traces import BACKGROUND, Dataset, SplitSpec, make_splits, synth_dataset

TINY = ModelConfig(64, 3, (ConvBlock(8, dilation=1, pool="max2"),
                           ConvBlock(16, dilation=2)), fc=(3,))
FAST = TrainConfig(epochs=4, batch_size=16, lr=1e-2)


class TableModel:
    """Serves a fixed probability table in row order, one pass per instance."""

    def __init__(self, probs):
        self.probs = np.asarray(probs, dtype=np.float64)
        self.pos = 0

    def forward(self, x, train=False):
        rows = self.probs[self.pos:self.pos + len(x)]
        self.pos += len(x)
        return rows, None


def flat_dataset(labels, num_classes, trace_len=8):
    labels = np.asarray(labels, dtype=np.int64)
    return Dataset(np.zeros((len(labels), trace_len), dtype=np.int8), labels,
                   num_classes)


def confusion_loops(labels, pred, conf, threshold, num_classes):
    """Per-trace reimplementation of the counting rules."""
    tp = fp = fn = tn = 0
    for y, p, c in zip(labels, pred, conf):
        called = p < num_classes and c >= threshold
        if y == BACKGROUND:
            if called:
                fp += 1
            else:
                tn += 1
        elif not called:
            fn += 1
        elif p == y:
            tp += 1
        else:
            fp += 1
    return tp, fp, fn, tn


def random_predictions(rng, n=40, num_classes=4, background_rate=0.3):
    labels = rng.integers(0, num_classes, size=n)
    labels[rng.random(n) < background_rate] = BACKGROUND
    logits = rng.normal(size=(n, num_classes + 1))
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    pred = probs.argmax(axis=1)
    conf = probs[np.arange(n), pred]
    return labels, pred, conf


class TestConfusionSummary:
    def test_rates_and_total(self):
        c = ConfusionSummary(tp=3, fp=2, fn=0, tn=1)
        assert c.total == 6
        assert c.precision == pytest.approx(0.6)
        assert c.recall == 1.0

    def test_zero_denominators_give_zero(self):
        assert ConfusionSummary(0, 0, 5, 2).precision == 0.0
        assert ConfusionSummary(0, 3, 0, 2).recall == 0.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionSummary(tp=-1, fp=0, fn=0, tn=0)


class TestConfusionCounting:
    def test_hand_built_six_trace_case(self):
        # 4 monitored: 3 called correctly, 1 called as the wrong monitored
        # class; 2 background: 1 called monitored, 1 left alone.
        labels = np.array([0, 1, 2, 0, BACKGROUND, BACKGROUND])
        pred = np.array([0, 1, 2, 1, 0, 3])
        conf = np.array([0.9, 0.8, 0.7, 0.9, 0.6, 0.9])
        c = confusion_from_predictions(labels, pred, conf, 0.5, 3)
        assert (c.tp, c.fp, c.fn, c.tn) == (3, 2, 0, 1)
        assert c.precision == pytest.approx(0.600, abs=1e-9)
        assert c.recall == pytest.approx(1.000, abs=1e-9)

    def test_perfect_classifier_at_zero_threshold(self):
        labels = np.array([0, 1, 2, BACKGROUND])
        pred = np.array([0, 1, 2, 3])
        conf = np.full(4, 0.5)
        c = confusion_from_predictions(labels, pred, conf, 0.0, 3)
        assert (c.precision, c.recall) == (1.0, 1.0)
        assert (c.tp, c.tn) == (3, 1)

    def test_threshold_above_one_sends_all_to_background(self):
        labels, pred, conf = random_predictions(np.random.default_rng(0))
        c = confusion_from_predictions(labels, pred, conf, 1.0 + 1e-9, 4)
        assert c.tp == 0 and c.fp == 0
        assert c.precision == 0.0 and c.recall == 0.0
        assert c.total == len(labels)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        labels, pred, conf = random_predictions(rng)
        for threshold in (0.0, 0.25, 0.5, 0.9):
            c = confusion_from_predictions(labels, pred, conf, threshold, 4)
            assert (c.tp, c.fp, c.fn, c.tn) == confusion_loops(
                labels, pred, conf, threshold, 4)
            assert c.total == len(labels)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="align"):
            confusion_from_predictions(np.zeros(3), np.zeros(2), np.zeros(3),
                                       0.5, 2)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            confusion_from_predictions(np.zeros(2), np.zeros(2), np.zeros(2),
                                       -0.1, 2)
        with pytest.raises(ValueError, match="threshold"):
            confusion_from_predictions(np.zeros(2), np.zeros(2), np.zeros(2),
                                       float("nan"), 2)


class TestClosedAccuracy:
    def test_counts_matches(self):
        ds = flat_dataset([0, 1, 2, 0], 3)
        probs = np.eye(3)[[0, 1, 2, 1]] * 0.8 + 0.1
        assert closed_accuracy(TableModel(probs), ds) == pytest.approx(0.75)

    def test_rejects_background(self):
        ds = flat_dataset([0, BACKGROUND], 2)
        with pytest.raises(ValueError, match="background"):
            closed_accuracy(TableModel(np.eye(2)[[0, 1]]), ds)

    def test_equals_tp_fraction_at_zero_threshold(self):
        # Background-free traces with a background-free head: at threshold 0
        # every trace is called monitored, so accuracy is TP / N.
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 3, size=30)
        ds = flat_dataset(labels, 3)
        logits = rng.normal(size=(30, 3))
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        acc = closed_accuracy(TableModel(probs), ds)
        c = confusion_from_predictions(labels, probs.argmax(axis=1),
                                       probs.max(axis=1), 0.0, 3)
        assert acc == pytest.approx(c.tp / len(ds))


class TestOpenWorldEval:
    def test_matches_pure_counts(self):
        rng = np.random.default_rng(1)
        labels, _, _ = random_predictions(rng, n=25)
        ds = flat_dataset(labels, 4)
        logits = rng.normal(size=(25, 5))
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        c = open_world_eval(TableModel(probs), ds, 0.4)
        pred = probs.argmax(axis=1)
        conf = probs.max(axis=1)
        expect = confusion_from_predictions(labels, pred, conf, 0.4, 4)
        assert c == expect


class TestOpenWorldMetrics:
    def test_matches_sweep_and_open_world_eval(self):
        rng = np.random.default_rng(4)
        val_labels, _, _ = random_predictions(rng, n=30)
        test_labels, _, _ = random_predictions(rng, n=20)
        val, test = flat_dataset(val_labels, 4), flat_dataset(test_labels, 4)
        logits = rng.normal(size=(50, 5)) * 2
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        got = open_world_metrics(TableModel(probs), val, test)
        best_p, best_r, _ = sweep_operating_points(TableModel(probs[:30]), val)
        for tag, point in (("precision", best_p), ("recall", best_r)):
            c = open_world_eval(TableModel(probs[30:]), test, point.threshold)
            assert got[f"{tag}_tuned_threshold"] == point.threshold
            assert got[f"{tag}_tuned_precision"] == c.precision
            assert got[f"{tag}_tuned_recall"] == c.recall
        assert len(got) == 6


class TestSweep:
    def sweep_stub(self, seed, n=60, thresholds=THRESHOLD_GRID):
        rng = np.random.default_rng(seed)
        labels, _, _ = random_predictions(rng, n=n)
        ds = flat_dataset(labels, 4)
        logits = rng.normal(size=(n, 5)) * 2
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        return sweep_operating_points(TableModel(probs), ds, thresholds)

    def test_single_threshold_collapses(self):
        best_p, best_r, curve = self.sweep_stub(0, thresholds=(0.5,))
        assert best_p == best_r == curve[0]
        assert curve[0].threshold == 0.5

    @pytest.mark.parametrize("seed", range(10))
    def test_recall_never_increases_with_threshold(self, seed):
        _, _, curve = self.sweep_stub(seed)
        recalls = [p.recall for p in curve]
        assert all(a >= b - 1e-12 for a, b in zip(recalls, recalls[1:]))

    @pytest.mark.parametrize("seed", range(5))
    def test_best_points_match_brute_force(self, seed):
        best_p, best_r, curve = self.sweep_stub(seed)
        def scan(main, tie):
            best = curve[0]
            for p in curve[1:]:
                if (getattr(p, main), getattr(p, tie)) > \
                        (getattr(best, main), getattr(best, tie)):
                    best = p
            return best
        assert best_p == scan("precision", "recall")
        assert best_r == scan("recall", "precision")

    def test_precision_tie_breaks_toward_recall(self):
        # Both thresholds give precision 1.0; the lower one keeps one more TP.
        labels = np.array([0, 1, BACKGROUND])
        probs = np.array([[0.9, 0.05, 0.05],
                          [0.1, 0.6, 0.3],
                          [0.2, 0.2, 0.6]])
        best_p, best_r, _ = sweep_operating_points(
            TableModel(probs), flat_dataset(labels, 2), (0.5, 0.8))
        assert best_p.threshold == 0.5 and best_p.recall == 1.0
        assert best_r.threshold == 0.5

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            self.sweep_stub(0, thresholds=())


class TestOnePassSweep:
    """The sweep counts all thresholds in one pass; every point of its curve
    is the loop oracle's at that threshold, and so is
    confusion_from_predictions."""

    @staticmethod
    def point(threshold, tp, fp, fn, tn):
        return OperatingPoint(threshold, tp / (tp + fp) if tp + fp else 0.0,
                              tp / (tp + fn) if tp + fn else 0.0)

    def check(self, labels, probs, num_classes, thresholds=THRESHOLD_GRID):
        labels, probs = np.asarray(labels), np.asarray(probs, dtype=np.float64)
        _, _, curve = sweep_operating_points(
            TableModel(probs), flat_dataset(labels, num_classes), thresholds)
        pred = probs.argmax(axis=1)
        conf = probs[np.arange(len(probs)), pred]
        want = [confusion_loops(labels, pred, conf, t, num_classes)
                for t in thresholds]
        for t, counts in zip(thresholds, want):
            c = confusion_from_predictions(labels, pred, conf, t, num_classes)
            assert (c.tp, c.fp, c.fn, c.tn) == counts
        assert curve == [self.point(float(t), *counts)
                         for t, counts in zip(thresholds, want)]
        return curve

    @staticmethod
    def on_grid(rng, n, num_classes):
        # each row's winning probability is a grid threshold itself
        probs = np.zeros((n, num_classes + 1))
        probs[np.arange(n), rng.integers(0, num_classes + 1, n)] = (
            np.array(THRESHOLD_GRID)[rng.integers(1, len(THRESHOLD_GRID), n)])
        return probs

    @pytest.mark.parametrize("seed", range(5))
    def test_confidences_on_grid_thresholds(self, seed):
        rng = np.random.default_rng(seed)
        labels, _, _ = random_predictions(rng, n=63)
        self.check(labels, self.on_grid(rng, 63, 4), 4)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_confidences(self, seed):
        rng = np.random.default_rng(seed)
        labels, _, _ = random_predictions(rng, n=63)
        logits = rng.normal(size=(63, 5)) * 2
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        self.check(labels, probs, 4)

    def test_thresholds_above_one(self):
        rng = np.random.default_rng(7)
        labels, _, _ = random_predictions(rng, n=40)
        probs = self.on_grid(rng, 40, 4)
        probs[:5, 0] = 1.0
        curve = self.check(labels, probs, 4,
                           (0.99, 1.0, 1.0 + 1e-9, 1.5, 2.0, 1e300))
        assert [p.recall for p in curve[2:]] == [0.0] * 4

    def test_all_background_split(self):
        rng = np.random.default_rng(8)
        labels = np.full(30, BACKGROUND)
        curve = self.check(labels, self.on_grid(rng, 30, 3), 3)
        assert {(p.precision, p.recall) for p in curve} == {(0.0, 0.0)}

    def test_nan_confidence_is_never_called(self):
        rng = np.random.default_rng(9)
        labels, _, _ = random_predictions(rng, n=40)
        probs = self.on_grid(rng, 40, 4)
        # argmax lands on a NaN: a monitored class for some rows, the
        # background column for others, and every column of one row
        probs[:8, 1] = np.nan
        probs[8:12, 4] = np.nan
        probs[12] = np.nan
        labels[:8] = 1
        self.check(labels, probs, 4)
        c = confusion_from_predictions(labels[:8], np.ones(8, np.int64),
                                       np.full(8, np.nan), 0.0, 4)
        assert (c.tp, c.fp, c.fn, c.tn) == (0, 0, 8, 0)

    @pytest.mark.parametrize("bad", [-0.01, float("nan"), float("inf")])
    def test_bad_threshold_in_grid_rejected(self, bad):
        rng = np.random.default_rng(10)
        labels, _, _ = random_predictions(rng, n=10)
        with pytest.raises(ValueError, match="threshold must be finite"):
            sweep_operating_points(TableModel(self.on_grid(rng, 10, 4)),
                                   flat_dataset(labels, 4), (0.5, bad, 0.7))


class TestTuneSpec:
    def test_defaults_valid(self):
        spec = TuneSpec()
        assert spec.budget_per_param is None
        assert spec.proxy_epochs == 30

    def test_validation(self):
        with pytest.raises(ValueError, match="proxy_epochs"):
            TuneSpec(proxy_epochs=0)

    @pytest.mark.parametrize("kw,message", [
        ({"budget_per_param": 0}, "budget_per_param must be >= 1"),
        ({"budget_per_param": -2}, "budget_per_param must be >= 1"),
    ])
    def test_search_settings_checked_at_construction(self, kw, message):
        # before any proxy training runs
        with pytest.raises(ValueError, match=message):
            TuneSpec(**kw)


class TestFitSpaces:
    def test_m_len_grid_trimmed_below_trace_len(self):
        fitted = fit_spaces_to_length(default_spaces(), 64)
        assert max(fitted["m_len"].grid) < 64
        assert fitted["r_max"].grid == default_spaces()["r_max"].grid
        assert fitted["alpha"].grid == default_spaces()["alpha"].grid

    def test_long_traces_keep_full_grids(self):
        fitted = fit_spaces_to_length(default_spaces(), 1000)
        assert fitted == default_spaces()

    def test_unfittable_grid_rejected(self):
        spaces = {"m_len": SearchSpace("m_len", (50, 60))}
        with pytest.raises(ValueError, match="m_len"):
            fit_spaces_to_length(spaces, 10)


@pytest.fixture(scope="module")
def task():
    ds = synth_dataset(3, 12, 64, 0.05, seed=7)
    return make_splits(ds, SplitSpec(6, 3, 3, seed=0))


@pytest.fixture(scope="module")
def closed_report():
    ds = synth_dataset(3, 12, 64, 0.05, seed=7)
    cfg = ExperimentConfig(model=TINY, train=FAST, split=SplitSpec(6, 3, 3))
    return ds, cfg, run_experiment(ds, cfg, seeds=(0, 1))


class TestTuneAugmentation:
    def test_sequential_returns_on_grid_params(self, task):
        tr, va, _ = task
        spec = TuneSpec(budget_per_param=2, proxy_epochs=2)
        params, log = tune_augmentation(tr, va, TINY, replace(FAST, seed=0),
                                        spec)
        spaces = fit_spaces_to_length(default_spaces(), 64)
        assert set(params) == {"r_max", "m_len", "alpha"}
        for name, value in params.items():
            assert value in spaces[name].grid
        assert len(log) == 6
        assert [(r.stage, r.param) for r in log] == [
            (0, "r_max"), (0, "r_max"), (1, "m_len"), (1, "m_len"),
            (2, "alpha"), (2, "alpha")]

    def test_deterministic_in_seed(self, task):
        tr, va, _ = task
        spec = TuneSpec(budget_per_param=2, proxy_epochs=2)
        a, _ = tune_augmentation(tr, va, TINY, replace(FAST, seed=5), spec)
        b, _ = tune_augmentation(tr, va, TINY, replace(FAST, seed=5), spec)
        assert a == b

    def test_scores_trials_without_extra_validation_pass(self, task,
                                                         monkeypatch):
        # each proxy training validates once per epoch; its best val_acc is
        # the trial's score, so nothing predicts again after training
        calls = {"predict": 0, "train": 0}
        predict, train = training.predict, evaluate.train

        def counting_predict(*args, **kwargs):
            calls["predict"] += 1
            return predict(*args, **kwargs)

        def counting_train(*args, **kwargs):
            calls["train"] += 1
            return train(*args, **kwargs)

        monkeypatch.setattr(training, "predict", counting_predict)
        monkeypatch.setattr(evaluate, "train", counting_train)
        tr, va, _ = task
        spec = TuneSpec(budget_per_param=2, proxy_epochs=2)
        tune_augmentation(tr, va, TINY, replace(FAST, seed=0), spec)
        assert calls["train"] > 0
        assert calls["predict"] == calls["train"] * spec.proxy_epochs


class TestAggregate:
    def test_mean_and_population_std(self):
        rows = [{"a": 1.0, "b": 4.0}, {"a": 3.0, "b": 4.0}]
        mean, std = aggregate_metrics(rows)
        assert mean == {"a": 2.0, "b": 4.0}
        assert std["a"] == pytest.approx(1.0)   # population, not sample
        assert std["b"] == 0.0

    def test_single_row_gives_zero_std(self):
        mean, std = aggregate_metrics([{"x": 0.7}])
        assert mean == {"x": 0.7} and std == {"x": 0.0}

    def test_key_mismatch_rejected(self):
        with pytest.raises(ValueError, match="keys"):
            aggregate_metrics([{"a": 1.0}, {"b": 1.0}])
        # the message names the row and its missing and extra keys
        rows = [{"a": 1.0, "b": 1.0}, {"a": 1.0, "b": 1.0}, {"b": 1.0, "c": 2}]
        with pytest.raises(ValueError, match=r"^row 2: .* row 0: missing "
                                             r"\['a'\], extra \['c'\]$"):
            aggregate_metrics(rows)
        with pytest.raises(ValueError, match=r"^third: .* first: missing"):
            aggregate_metrics(rows, ["first", "second", "third"])

    @pytest.mark.filterwarnings("error")  # no numpy overflow warning either
    @pytest.mark.parametrize("values", [[1e308, 1e308], [1e200, -1e200],
                                        [-1e308, -1e308, 1.0]])
    def test_non_finite_mean_or_std_rejected(self, values):
        rows = [{"fine": 0.5, "x": v} for v in values]
        with pytest.raises(ValueError, match="metric 'x'"):
            aggregate_metrics(rows)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            aggregate_metrics([])


class TestRunExperiment:
    def test_closed_world_metrics(self, closed_report):
        _, _, report = closed_report
        assert report.seeds == (0, 1)
        assert set(report.mean) == {"test_accuracy", "val_accuracy"}
        assert len(report.per_seed) == 2
        assert report.meta["open_world"] is False

    def test_aggregates_recompute(self, closed_report):
        _, _, report = closed_report
        for key in report.mean:
            vals = [row[key] for row in report.per_seed]
            assert report.mean[key] == pytest.approx(np.mean(vals))
            assert report.std[key] == pytest.approx(np.std(vals))

    def test_deterministic_report_json(self, closed_report):
        ds, cfg, report = closed_report
        again = run_experiment(ds, cfg, seeds=(0, 1))
        assert report_json(again) == report_json(report)

    def test_open_world_predicts_each_split_once(self, eval_predicts):
        base = synth_dataset(4, 12, 64, 0.05, seed=7)
        labels = np.where(base.labels == 3, BACKGROUND, base.labels)
        ds = Dataset(base.traces, labels, 3)
        cfg = ExperimentConfig(model=ModelConfig(64, 4, TINY.blocks, fc=(4,)),
                               train=replace(FAST, epochs=1),
                               split=SplitSpec(6, 3, 3))
        run_experiment(ds, cfg, seeds=(2,))
        _, val, test = make_splits(ds, SplitSpec(6, 3, 3, seed=2))
        assert [t.tobytes() for t in eval_predicts] == [
            val.traces.tobytes(), test.traces.tobytes()]

    def test_open_world_metrics_and_single_seed_std(self):
        base = synth_dataset(4, 12, 64, 0.05, seed=7)
        labels = base.labels.copy()
        labels[labels == 3] = BACKGROUND
        ds = Dataset(base.traces, labels, 3)
        model = ModelConfig(64, 4, TINY.blocks, fc=(4,))
        cfg = ExperimentConfig(model=model, train=FAST,
                               split=SplitSpec(6, 3, 3))
        report = run_experiment(ds, cfg, seeds=(2,))
        assert report.meta["open_world"] is True
        assert {"precision_tuned_precision", "precision_tuned_recall",
                "recall_tuned_precision", "recall_tuned_recall",
                "precision_tuned_threshold",
                "recall_tuned_threshold"} <= set(report.mean)
        assert all(v == 0.0 for v in report.std.values())

    def test_empty_test_split_fails_before_training(self, monkeypatch):
        def no_training(*args):
            raise AssertionError("trained")

        monkeypatch.setattr(evaluate, "train", no_training)
        ds = synth_dataset(3, 12, 64, 0.0, seed=7)
        cfg = ExperimentConfig(model=TINY, train=FAST, split=SplitSpec(6, 3, 0))
        with pytest.raises(ValueError, match="^split.test_per_class = 0 "
                                             "leaves no test traces to "
                                             "evaluate$"):
            run_experiment(ds, cfg, seeds=(0, 1))

    def test_aug_and_tune_are_exclusive(self):
        with pytest.raises(ValueError, match="^aug and tune are exclusive"):
            ExperimentConfig(model=TINY, train=FAST, split=SplitSpec(6, 3, 3),
                             aug=AugConfig(r_max=3), tune=TuneSpec())

    def test_empty_seeds_rejected(self):
        ds = synth_dataset(3, 12, 64, 0.0, seed=7)
        cfg = ExperimentConfig(model=TINY, train=FAST, split=SplitSpec(6, 3, 3))
        with pytest.raises(ValueError, match="seeds"):
            run_experiment(ds, cfg, seeds=())


class TestReports:
    def sample_report(self):
        ds = synth_dataset(3, 12, 64, 0.0, seed=7)
        cfg = ExperimentConfig(model=TINY, train=FAST, split=SplitSpec(6, 3, 3))
        return run_experiment(ds, cfg, seeds=(0,))

    def test_json_round_trip_and_shape(self):
        report = self.sample_report()
        text = report_json(report)
        assert text.endswith("\n")
        data = json.loads(text)
        assert data["seeds"] == [0]
        assert data["mean"] == report.mean
        assert data["meta"]["config"] == report.meta["config"]
        # canonical form: identical dumps for identical content
        assert text == report_json(self.sample_report())

    def test_table_formats_rates_as_percent(self):
        report = self.sample_report()
        table = report_table(report)
        acc = 100.0 * report.mean["test_accuracy"]
        assert f"{acc:.1f}" in table
        assert "test_accuracy" in table and "seeds: 0" in table

    def test_write_report(self, tmp_path):
        report = self.sample_report()
        jp, tp = tmp_path / "report.json", tmp_path / "report.txt"
        write_report(report, jp, tp)
        assert json.loads(jp.read_text()) == json.loads(report_json(report))
        assert tp.read_text() == report_table(report)

    def test_config_digest_tracks_config(self):
        base = ExperimentConfig(model=TINY, train=FAST, split=SplitSpec(6, 3, 3))
        same = ExperimentConfig(model=TINY, train=FAST, split=SplitSpec(6, 3, 3))
        assert config_digest(base) == config_digest(same)
        bumped = replace(base, train=replace(FAST, lr=2e-2))
        assert config_digest(bumped) != config_digest(base)
        with_aug = replace(base, aug=AugConfig())
        assert config_digest(with_aug) != config_digest(base)


class TestOperatingPoint:
    def test_bounds_checked(self):
        with pytest.raises(ValueError, match="precision"):
            OperatingPoint(0.5, 1.5, 0.2)
        with pytest.raises(ValueError, match="recall"):
            OperatingPoint(0.5, 0.5, -0.1)
