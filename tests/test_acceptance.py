"""Acceptance checks, one test per criterion.

Each test prints one `[criterion N] PASS/FAIL <summary> (<elapsed>)` line
(shown with `pytest -s`, and always shown for failures) and enforces its own
wall-clock bound. Tolerances are asserted exactly as stated; nothing here is
loosened to make a check pass.
"""

import json
import os
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from oracles import mask_by_matrix, rotate_by_matrix
from wfaug import (AugConfig, BACKGROUND, BACKWARD, ConvBlock, Dataset,
                   ExperimentConfig, FORWARD, MaskParams, Model, ModelConfig,
                   RotationParams, SearchSpace,
                   SplitSpec, TrainConfig, confusion_from_predictions,
                   cross_entropy, dataset_accuracy, default_model_config,
                   derive_rng, mask, optimize_independent, optimize_one,
                   optimize_sequential, rotate, run_experiment,
                   sample_lambda, sample_mask, sample_rotation,
                   sweep_operating_points, synth_dataset, train)
from wfaug.cli import main as cli_main
from wfaug.manifest import format_manifest


@contextmanager
def criterion(number, summary, limit_s):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok and elapsed < limit_s else "FAIL"
        print(f"[criterion {number}] {status} {summary} "
              f"({elapsed:.1f}s / limit {limit_s:.0f}s)")
    assert elapsed < limit_s, f"runtime {elapsed:.1f}s exceeds {limit_s}s"


def test_criterion_1_kernels_match_matrix_oracles():
    with criterion(1, "rotation/mask kernels equal matrix products exactly, "
                      "n=2..16", 10.0):
        rng = np.random.default_rng(0)
        for n in range(2, 17):
            vectors = [rng.normal(size=n),
                       rng.choice([-1.0, 1.0], size=n)]
            for step in range(1, n + 1):
                for direction in (FORWARD, BACKWARD):
                    params = RotationParams(step, direction)
                    for x in vectors:
                        got = rotate(x, params)
                        want = rotate_by_matrix(x, step, direction)
                        assert np.array_equal(got, want)
            for start in range(n + 1):
                for length in range(n - start + 1):
                    params = MaskParams(start, length)
                    for x in vectors:
                        got = mask(x, params)
                        want = mask_by_matrix(x, start, length)
                        assert np.array_equal(got, want)


def test_criterion_2_sampler_distributions():
    with criterion(2, "sampler chi-square uniformity p>0.01 (1e5 draws), "
                      "balanced rotation signs and Beta(a,a) moments", 30.0):
        draws = 100_000
        r_max = 20
        rng = derive_rng(0, "acceptance", "rotation")
        shifts = sample_rotation(r_max, rng, draws)
        counts = np.bincount(np.abs(shifts), minlength=r_max + 1)[1:]
        assert stats.chisquare(counts).pvalue > 0.01
        signs = [np.sum(shifts > 0), np.sum(shifts < 0)]
        assert sum(signs) == draws
        assert stats.chisquare(signs).pvalue > 0.01

        trace_len, m_len = 100, 10
        rng = derive_rng(0, "acceptance", "mask")
        starts = sample_mask(m_len, trace_len, rng, draws)
        counts = np.bincount(starts, minlength=trace_len - m_len + 1)
        assert stats.chisquare(counts).pvalue > 0.01

        alpha = 0.1
        rng = derive_rng(0, "acceptance", "lambda")
        lam = sample_lambda(alpha, rng, draws)
        assert abs(lam.mean() - 0.5) <= 0.01
        tail_mass = np.mean((lam <= 0.1) | (lam >= 0.9))
        central_mass = np.mean((lam >= 0.45) & (lam <= 0.55))
        assert tail_mass > central_mass
        # binned fit against an independent numerical Beta CDF; binning keeps
        # the check valid despite draws within one ulp of 1 rounding to 1.0
        edges = np.linspace(0.0, 1.0, 21)
        observed = np.histogram(lam, bins=edges)[0]
        prob = np.diff(stats.beta(alpha, alpha).cdf(edges))
        expected = prob / prob.sum() * draws
        assert stats.chisquare(observed, f_exp=expected).pvalue > 0.01


def _lattice_model(cfg, seed=0):
    # dyadic parameters keep every pre-activation an exact multiple of 2^-6,
    # so eps=1e-4 probes can never cross a ReLU kink
    model = Model(cfg, seed)
    convs = [l for l in model.layers if l.name.startswith("conv")]
    for depth, layer in enumerate(convs):
        w = layer.params["w"]
        w[...] = np.round(w / 0.25) * 0.25
        layer.params["b"][...] = 0.125 if depth == 0 else 0.015625
    return model


def test_criterion_3_gradients_match_finite_differences():
    with criterion(3, "analytic grads within rel 1e-3 of central differences "
                      "(eps=1e-4, 100 coords)", 60.0):
        cfg = ModelConfig(64, 4,
                          (ConvBlock(6, dilation=1, causal=False),
                           ConvBlock(8, dilation=2, causal=True)),
                          fc=(4,))
        model = _lattice_model(cfg, seed=0)
        rng = np.random.default_rng(1)
        x = rng.choice([-1.0, 1.0], size=(12, 64))
        targets = np.eye(4)[rng.integers(0, 4, size=12)]
        probs, _ = model.forward(x, train=True)
        model.backward(probs, targets)
        tensors = list(model.param_grad_items())
        assert {name.split(".")[0] for name, _, _ in tensors} == \
            {"conv0", "conv1", "fc0"}
        eps, worst = 1e-4, 0.0
        for k in range(100):
            name, p, g = tensors[k % len(tensors)]  # hit every layer kind
            idx = tuple(rng.integers(0, s) for s in p.shape)
            orig = p[idx]
            p[idx] = orig + eps
            up = cross_entropy(model.forward(x)[0], targets)
            p[idx] = orig - eps
            down = cross_entropy(model.forward(x)[0], targets)
            p[idx] = orig
            fd = (up - down) / (2 * eps)
            rel = abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-8)
            worst = max(worst, rel)
        assert worst < 1e-3, f"worst relative error {worst:.3e}"


def test_criterion_4_overfit_sanity():
    with criterion(4, "5 classes x 20 samples, no augmentation: train acc "
                      ">= 99% within <= 50 epochs", 60.0):
        data = synth_dataset(5, 20, 128, 0.05, seed=2)
        train_cfg = TrainConfig(epochs=25, batch_size=32, lr=3e-3, seed=0)
        assert train_cfg.epochs <= 50
        model, _ = train(default_model_config(128, 5), train_cfg, data, data)
        accuracy = dataset_accuracy(model, data)
        assert accuracy >= 0.99, f"train accuracy {accuracy:.3f}"


# Stride-2 blocks downsample to a handful of positions, so the features keep
# track of where content sits; a global-average head over a long map would
# absorb small shifts and leave rotation augmentation nothing to fix.
BENCH_MODEL = ModelConfig(1000, 20,
                          tuple(ConvBlock(ch, stride=2)
                                for ch in (8, 12, 16, 24, 32, 32, 32)),
                          fc=(20,))
BENCH_TRAIN = TrainConfig(epochs=300, batch_size=16, lr=2e-3)
BENCH_OFFSET = 20  # start-offset jitter, cells each way
BENCH_WINDOW = 36  # dropped burst length, cells


def _captured_traces(num_classes=20, per_class=18, trace_len=1000, seed=100):
    """Synthetic capture with the variation live collection shows.

    Every sample, train and test alike, starts at a jittered offset (the
    capture trigger lands a few cells early or late) and loses one burst of
    cells. Five shots sample five offsets out of dozens, so a model trained
    on the raw shots has never seen most test alignments; the augmentation
    operators generate exactly these displacements, which is the regime the
    method is built for.
    """
    base = synth_dataset(num_classes, per_class, trace_len, 0.05, seed=seed)
    rng = derive_rng(seed, "bench")
    clean = base.traces.copy()
    out = np.empty_like(clean)
    for i in range(len(clean)):
        t = np.roll(clean[i], int(rng.integers(-BENCH_OFFSET,
                                               BENCH_OFFSET + 1)))
        at = int(rng.integers(0, trace_len - BENCH_WINDOW + 1))
        t[at:at + BENCH_WINDOW] = 0
        out[i] = t
    return Dataset(out, base.labels, base.num_classes)


def test_criterion_5_augmentation_beats_no_augmentation():
    with criterion(5, "20-class L=1000 5-shot, 5 seeds: HDA mean test acc "
                      ">= baseline + 10 points", 900.0):
        trace_len = 1000
        data = _captured_traces(trace_len=trace_len)
        base = ExperimentConfig(model=BENCH_MODEL, train=BENCH_TRAIN,
                                split=SplitSpec(shots=5, val_per_class=3,
                                                test_per_class=10))
        hda = replace(base, aug=AugConfig(r_max=20,
                                          m_len=int(round(0.036 * trace_len)),
                                          alpha=0.1))
        plain_report = run_experiment(data, base, seeds=range(5))
        hda_report = run_experiment(data, hda, seeds=range(5))
        delta = (hda_report.mean["test_accuracy"]
                 - plain_report.mean["test_accuracy"])
        print(f"  no-aug {100 * plain_report.mean['test_accuracy']:.1f} "
              f"+- {100 * plain_report.std['test_accuracy']:.1f}, "
              f"hda {100 * hda_report.mean['test_accuracy']:.1f} "
              f"+- {100 * hda_report.std['test_accuracy']:.1f}, "
              f"delta {100 * delta:.1f}")
        assert delta >= 0.10, f"delta {100 * delta:.1f} points"


def test_criterion_6_tpe_competence():
    with criterion(6, "planted quadratic within one grid step >= 18/20; "
                      "sequential >= independent on interacting stub", 120.0):
        grid = SearchSpace("v", tuple(float(v) for v in range(1, 11)))
        hits = 0
        for seed in range(20):
            best, trials = optimize_one(grid, lambda v: -(v - 7.0) ** 2, 30,
                                        derive_rng(seed, "quadratic"))
            assert len(trials) == 30
            hits += best in (6.0, 7.0, 8.0)
        assert hits >= 18, f"only {hits}/20 within one grid step"

        spaces = {"a": grid, "b": grid}

        def agree(params):
            if "a" in params and "b" in params:
                return 1.0 if params["a"] == params["b"] else 0.0
            return 0.0

        seq_scores, ind_scores = [], []
        for seed in range(20):
            chosen, _ = optimize_sequential(("a", "b"), spaces, agree, 20,
                                            derive_rng(seed, "stub", "s"))
            seq_scores.append(agree(chosen))
            chosen, _ = optimize_independent(("a", "b"), spaces, agree, 20,
                                             derive_rng(seed, "stub", "i"))
            ind_scores.append(agree(chosen))
        assert np.mean(seq_scores) >= np.mean(ind_scores)


def test_criterion_7_open_world_metrics():
    with criterion(7, "hand-built confusion case exact; recall non-increasing "
                      "over sweep on 10 models", 10.0):
        labels = np.array([0, 1, 2, 0, BACKGROUND, BACKGROUND])
        pred = np.array([0, 1, 2, 1, 0, 3])
        conf = np.array([0.9, 0.8, 0.7, 0.9, 0.6, 0.9])
        c = confusion_from_predictions(labels, pred, conf, 0.5, 3)
        assert (c.tp, c.fp, c.fn, c.tn) == (3, 2, 0, 1)
        assert c.precision == pytest.approx(0.600, abs=5e-4)
        assert c.recall == pytest.approx(1.000, abs=5e-4)

        base = synth_dataset(6, 8, 64, 0.2, seed=9)
        labels = base.labels.copy()
        labels[labels == 5] = BACKGROUND
        open_world = Dataset(base.traces, labels, 5)
        cfg = ModelConfig(64, 6, (ConvBlock(8, dilation=1, pool="max2"),
                                  ConvBlock(12, dilation=2)), fc=(6,))
        for seed in range(10):
            _, _, curve = sweep_operating_points(Model(cfg, seed), open_world)
            recalls = [p.recall for p in curve]
            assert all(a >= b - 1e-12
                       for a, b in zip(recalls, recalls[1:]))


PIPELINE_MANIFEST = {
    "data.path": "data.txt",
    "data.trace_len": "64",
    "data.classes": "6",
    "data.per_class": "12",
    "data.noise": "0.05",
    "split.shots": "6",
    "split.val_per_class": "3",
    "split.test_per_class": "3",
    "model.blocks": "4:1:max2,8:2",
    "train.epochs": "10",
    "train.batch_size": "16",
    "train.lr": "0.01",
    "tpe.proxy_epochs": "2",
    "tpe.n_startup": "2",
}


def _run_pipeline(base):
    old = os.getcwd()
    os.chdir(base)
    try:
        (base / "exp.cfg").write_text(format_manifest(PIPELINE_MANIFEST),
                                      encoding="utf-8")
        for argv in (
            ["synth", "--manifest", "exp.cfg", "--seed", "7",
             "--out", "data.txt"],
            ["tune", "--manifest", "exp.cfg", "--seed", "0", "--budget", "3",
             "--out", "tuned"],
            ["train", "--manifest", "exp.cfg", "--manifest",
             "tuned/aug_params.cfg", "--seed", "0", "--out", "run"],
            ["eval", "--manifest", "exp.cfg", "--seed", "0", "--checkpoint",
             "run/model.ckpt", "--out", "run"],
            ["report", "run", "--out", "summary"],
        ):
            assert cli_main(argv) == 0, f"command failed: {argv[0]}"
        return ((base / "run" / "eval.json").read_bytes(),
                (base / "summary" / "report.json").read_bytes())
    finally:
        os.chdir(old)


def test_criterion_8_end_to_end_determinism(tmp_path):
    with criterion(8, "synth -> tune(budget 3) -> train(10 epochs) -> eval "
                      "twice: identical report JSON", 300.0):
        first_dir, second_dir = tmp_path / "a", tmp_path / "b"
        first_dir.mkdir()
        second_dir.mkdir()
        first = _run_pipeline(first_dir)
        second = _run_pipeline(second_dir)
        assert first == second
        json.loads(first[0])  # reports are well-formed JSON
        json.loads(first[1])
