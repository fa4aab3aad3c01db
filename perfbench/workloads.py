"""The three benchmark workloads and everything they are built from.

The model, the captured-trace generator and the manifests live here rather
than in ``tests/``, so that editing a test cannot change what the benchmark
measures. Every input derives from the workload seed.

A workload has a set-up (make the inputs; run several times, and the copies
must agree bit for bit), a measured repeat (the same work each time, so
repeats must agree bit for bit too), a fingerprint of each repeat's outputs
and a final check that rescoring the trained models with code of its own
reproduces the reported numbers.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from wfaug import augment, cli, evaluate, nn, seeding, traces

BACKGROUND = traces.BACKGROUND
THRESHOLDS = tuple(round(k * 0.01, 2) for k in range(101))


class OperationFailed(Exception):
    """An operation failed; it has been counted and the repeat is abandoned."""


class Operations:
    """Counts operations (one training run or one CLI command) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.errors.append(message)

    def call(self, label: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except (Exception, SystemExit) as exc:
            self.fail(f"{label}: {type(exc).__name__}: {exc}")
            raise OperationFailed(label) from exc

    def cli(self, tracer, argv) -> None:
        argv = [str(a) for a in argv]
        with tracer.span(f"cli.{argv[0]}"):
            code = self.call(f"wfaug {argv[0]}", cli.main, argv)
        if code != 0:
            self.fail(f"wfaug {' '.join(argv)}: exit {code}")
            raise OperationFailed(argv[0])


@dataclass
class Repeat:
    """Fingerprints of one repeat's outputs; repeats with the same ``key``
    did the same work and must agree bit for bit."""

    key: int
    fingerprint: dict


@contextmanager
def working_dir(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def weights_sha256(model) -> str:
    h = hashlib.sha256()
    for name, arr in model.param_items():
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


def write_manifest(path, values: dict) -> None:
    Path(path).write_text("".join(f"{k} = {v}\n" for k, v in values.items()),
                          encoding="utf-8")


def probabilities(model, x: np.ndarray) -> np.ndarray:
    """Softmax outputs in the batches ``predict`` uses, so the bits match."""
    x = np.asarray(x)
    return np.concatenate([model.forward(x[lo:lo + 256].astype(np.float64))[0]
                           for lo in range(0, len(x), 256)])


def class_accuracy(probs: np.ndarray, labels: np.ndarray,
                   num_classes: int) -> float:
    """Argmax accuracy; background is the extra last class."""
    idx = np.where(labels == BACKGROUND, num_classes, labels)
    return float(np.mean(probs.argmax(axis=1) == idx))


def open_world_point(probs, labels, threshold, num_classes):
    """(precision, recall) of the thresholded open-world decision."""
    pred = probs.argmax(axis=1)
    conf = probs[np.arange(len(probs)), pred]
    monitored = labels >= 0
    called = (pred < num_classes) & (conf >= threshold)
    tp = int(np.sum(monitored & called & (pred == labels)))
    fp = int(np.sum(called)) - tp
    fn = int(np.sum(monitored & ~called))
    return (tp / (tp + fp) if tp + fp else 0.0,
            tp / (tp + fn) if tp + fn else 0.0)


def differs(a: float, b: float) -> bool:
    return abs(a - b) > 1e-12


class Workload:
    """One workload. The harness calls ``setup(ops, tracer, directory)``
    ``setups`` times, then ``run(ops, tracer, index, directory)`` per
    repeat inside a root span, ``outputs(directory, result, snapshot)``
    after each repeat to get its fingerprints, and ``check(last_dirs)``
    once at the end for a list of problems."""

    name = ""
    setups = 5
    min_repeats = 2
    eval_spans: tuple = ("cli.eval",)
    SIZES: dict = {}

    def __init__(self, seed: int, size: str):
        self.seed = int(seed)
        self.p = self.SIZES[size]
        self.reported = None

    @property
    def scored(self) -> int:
        """Distinct traces one repeat's evaluation scores."""
        raise NotImplementedError

    def test_accuracy(self):
        """Test accuracy of the last measured model, as the program reported
        it; deterministic per seed. None when no repeat succeeded."""
        return None if self.reported is None else float(self.reported)


# --- fewshot_hda -----------------------------------------------------------

def bench_model(input_len: int, num_classes: int) -> nn.ModelConfig:
    """Seven stride-2 kernel-3 convs, no pooling, GAP, one FC layer.

    Stride-2 blocks downsample to a handful of positions, so the features
    keep track of where content sits and rotation has something to fix.
    """
    return nn.ModelConfig(input_len, num_classes,
                          tuple(nn.ConvBlock(ch, stride=2)
                                for ch in (8, 12, 16, 24, 32, 32, 32)),
                          fc=(num_classes,))


def captured_traces(num_classes, per_class, trace_len, seed, offset, window):
    """Synthetic capture: every trace starts at a jittered offset (up to
    ``offset`` cells either way) and loses one burst of ``window`` cells."""
    base = traces.synth_dataset(num_classes, per_class, trace_len, 0.05,
                                seed=seed)
    rng = seeding.derive_rng(seed, "bench")
    out = np.empty_like(base.traces)
    for i, row in enumerate(base.traces):
        shifted = np.roll(row, int(rng.integers(-offset, offset + 1)))
        at = int(rng.integers(0, trace_len - window + 1))
        shifted[at:at + window] = 0
        out[i] = shifted
    return traces.Dataset(out, base.labels, base.num_classes)


class FewshotHda(Workload):
    """Criterion-5 shape through evaluate.run_experiment, HDA on."""

    name = "fewshot_hda"
    setups = 15  # each takes a fifth of a second: more of them, less noise
    eval_spans = ("evaluate.closed_accuracy",)
    SIZES = {
        "full": dict(classes=20, per_class=18, trace_len=1000, shots=5, val=3,
                     test=10, epochs=10, offset=20, window=36, r_max=20,
                     m_len=36),
        "tiny": dict(classes=4, per_class=10, trace_len=128, shots=5, val=2,
                     test=3, epochs=2, offset=4, window=5, r_max=4, m_len=5),
    }

    def __init__(self, seed, size):
        super().__init__(seed, size)
        p = self.p
        self.cfg = evaluate.ExperimentConfig(
            model=bench_model(p["trace_len"], p["classes"]),
            train=nn.TrainConfig(epochs=p["epochs"], batch_size=16, lr=2e-3),
            split=traces.SplitSpec(p["shots"], p["val"], p["test"]),
            aug=augment.AugConfig(r_max=p["r_max"], m_len=p["m_len"],
                                  alpha=0.1))
        self.data = None
        self.model = None

    @property
    def scored(self):
        return self.p["classes"] * self.p["test"]

    def setup(self, ops, tracer, directory):
        p = self.p
        data = captured_traces(p["classes"], p["per_class"], p["trace_len"],
                               self.seed, p["offset"], p["window"])
        if self.data is None:
            self.data = data
        h = hashlib.sha256(data.traces.tobytes() + data.labels.tobytes())
        return {"traces": h.hexdigest()}

    def run(self, ops, tracer, index, directory):
        return ops.call("train", evaluate.run_experiment, self.data, self.cfg,
                        (self.seed,))

    def outputs(self, directory, report, snap):
        model, _ = snap["calls"]["nn.train"][-1][2]
        self.model = model
        self.reported = report.per_seed[0]["test_accuracy"]
        text = evaluate.report_json(report).encode("utf-8")
        return Repeat(0, {"weights": weights_sha256(model),
                          "report.json": hashlib.sha256(text).hexdigest()})

    def check(self, last_dirs):
        """Rescore the trained model's test split with our own argmax."""
        split = replace(self.cfg.split, seed=self.seed)
        _, _, test = traces.make_splits(self.data, split)
        acc = class_accuracy(probabilities(self.model, test.traces),
                             test.labels, test.num_classes)
        if differs(acc, self.reported):
            return [f"test_accuracy {self.reported} reported, {acc} rescored"]
        return []


# --- cli_pipeline ----------------------------------------------------------

class CliPipeline(Workload):
    """README walkthrough in-process: synth, tune, train, eval, report."""

    name = "cli_pipeline"
    SIZES = {
        "full": dict(classes=20, per_class=18, trace_len=1000, shots=5, val=3,
                     test=10, epochs=1, proxy_epochs=1, budget=1),
        "tiny": dict(classes=4, per_class=10, trace_len=128, shots=5, val=2,
                     test=3, epochs=1, proxy_epochs=1, budget=1),
    }
    FILES = ("data.txt", "tuned/aug_params.cfg", "tuned/tune_trials.csv",
             "run/model.ckpt", "run/history.csv", "run/eval.json",
             "summary/report.json", "summary/report.txt")

    def __init__(self, seed, size):
        super().__init__(seed, size)
        p = self.p
        # budget 1 per parameter: every seed tunes with exactly three proxy
        # trainings, so the work per repeat does not depend on the seed
        self.manifest = {
            "data.path": "data.txt", "data.trace_len": p["trace_len"],
            "data.classes": p["classes"], "data.per_class": p["per_class"],
            "data.noise": 0.2, "split.shots": p["shots"],
            "split.val_per_class": p["val"],
            "split.test_per_class": p["test"], "train.epochs": p["epochs"],
            "train.batch_size": 16, "train.lr": 0.003,
            "tpe.proxy_epochs": p["proxy_epochs"],
        }
        self.data_sha = None

    @property
    def scored(self):
        return self.p["classes"] * (self.p["val"] + self.p["test"])

    def setup(self, ops, tracer, directory):
        write_manifest(directory / "exp.cfg", self.manifest)
        with working_dir(directory):
            ops.cli(tracer, ["synth", "--manifest", "exp.cfg", "--seed",
                             self.seed, "--out", "data.txt"])
        fp = {name: sha256_file(directory / name)
              for name in ("exp.cfg", "data.txt")}
        if self.data_sha is None:
            self.data_sha = fp["data.txt"]
        return fp

    def run(self, ops, tracer, index, directory):
        s = self.seed
        write_manifest(directory / "exp.cfg", self.manifest)
        with working_dir(directory):
            for argv in (
                ["synth", "--manifest", "exp.cfg", "--seed", s,
                 "--out", "data.txt"],
                ["tune", "--manifest", "exp.cfg", "--seed", s,
                 "--budget", self.p["budget"], "--out", "tuned"],
                ["train", "--manifest", "exp.cfg", "--manifest",
                 "tuned/aug_params.cfg", "--seed", s, "--out", "run"],
                ["eval", "--manifest", "exp.cfg", "--seed", s,
                 "--checkpoint", "run/model.ckpt", "--out", "run"],
                ["report", "run", "--out", "summary"],
            ):
                ops.cli(tracer, argv)

    def outputs(self, directory, result, snap):
        fp = {name: sha256_file(directory / name) for name in self.FILES}
        fp["weights"] = weights_sha256(
            nn.load_checkpoint(directory / "run/model.ckpt"))
        got = json.loads((directory / "run/eval.json").read_text())
        self.reported = got["metrics"]["test_accuracy"]
        return Repeat(0, fp)

    def check(self, last_dirs):
        """The pipeline's synth reproduces the set-up data; eval.json and
        report.json agree with a rescoring of the checkpoint."""
        d = last_dirs[0]
        problems = []
        if sha256_file(d / "data.txt") != self.data_sha:
            problems.append("pipeline synth differs from set-up synth")
        p = self.p
        data = traces.load_dataset(d / "data.txt", p["trace_len"])
        _, val, test = traces.make_splits(data, traces.SplitSpec(
            p["shots"], p["val"], p["test"], seed=self.seed))
        model = nn.load_checkpoint(d / "run/model.ckpt")
        got = json.loads((d / "run/eval.json").read_text())["metrics"]
        for key, part in (("val_accuracy", val), ("test_accuracy", test)):
            acc = class_accuracy(probabilities(model, part.traces),
                                 part.labels, part.num_classes)
            if differs(acc, got[key]):
                problems.append(f"{key} {got[key]} reported, {acc} rescored")
        mean = json.loads((d / "summary/report.json").read_text())["mean"]
        if mean != got:
            problems.append("report.json mean differs from the one eval.json")
        return problems


# --- openworld_eval --------------------------------------------------------

class OpenworldEval(Workload):
    """Inference only: repeated ``wfaug eval --open-world`` on checkpoints
    trained in set-up, each evaluated with the seed it was trained with."""

    name = "openworld_eval"
    SIZES = {
        "full": dict(classes=20, trace_len=1000, shots=5, val=3, test=10,
                     epochs=1, checkpoints=2),
        "tiny": dict(classes=4, trace_len=128, shots=5, val=2, test=3,
                     epochs=1, checkpoints=2),
    }

    def __init__(self, seed, size):
        super().__init__(seed, size)
        p = self.p
        self.min_repeats = 2 * p["checkpoints"]
        self.manifest = {
            "data.path": "data.txt", "data.trace_len": p["trace_len"],
            "split.shots": p["shots"], "split.val_per_class": p["val"],
            "split.test_per_class": p["test"], "train.epochs": p["epochs"],
            "train.batch_size": 16, "train.lr": 0.003,
        }
        self.home = None
        self.accuracy = {}

    @property
    def scored(self):
        return (self.p["classes"] + 1) * (self.p["val"] + self.p["test"])

    def _seed(self, j):
        return self.seed + j

    def setup(self, ops, tracer, directory):
        """Monitored classes plus one class relabelled BACKGROUND (as in
        criterion 7), written as a trace file; one stock checkpoint per
        split seed, trained through the CLI."""
        p = self.p
        per_class = p["shots"] + p["val"] + p["test"]
        base = traces.synth_dataset(p["classes"] + 1, per_class,
                                    p["trace_len"], 0.2, seed=self.seed)
        labels = np.where(base.labels == p["classes"], BACKGROUND, base.labels)
        traces.save_dataset(traces.Dataset(base.traces, labels, p["classes"]),
                            directory / "data.txt")
        write_manifest(directory / "exp.cfg", self.manifest)
        with working_dir(directory):
            for j in range(p["checkpoints"]):
                ops.cli(tracer, ["train", "--manifest", "exp.cfg", "--seed",
                                 self._seed(j), "--out", f"ckpt{j}"])
        if self.home is None:
            self.home = directory
        return {name: sha256_file(directory / name)
                for name in ["data.txt", "exp.cfg"]
                + [f"ckpt{j}/model.ckpt" for j in range(p["checkpoints"])]}

    def run(self, ops, tracer, index, directory):
        j = index % self.p["checkpoints"]
        with working_dir(self.home):
            ops.cli(tracer, ["eval", "--open-world", "--manifest", "exp.cfg",
                             "--seed", self._seed(j), "--checkpoint",
                             f"ckpt{j}/model.ckpt", "--out", f"eval{j}"])
        return j

    def outputs(self, directory, j, snap):
        return Repeat(j, {"eval.json": sha256_file(
            self.home / f"eval{j}" / "eval.json")})

    def check(self, last_dirs):
        """Redo the validation sweep and the two test operating points."""
        p = self.p
        data = traces.load_dataset(self.home / "data.txt", p["trace_len"])
        problems = []
        for j in range(p["checkpoints"]):
            model = nn.load_checkpoint(self.home / f"ckpt{j}/model.ckpt")
            _, val, test = traces.make_splits(data, traces.SplitSpec(
                p["shots"], p["val"], p["test"], seed=self._seed(j)))
            pv = probabilities(model, val.traces)
            pt = probabilities(model, test.traces)
            self.accuracy[j] = class_accuracy(pt, test.labels, p["classes"])
            curve = [(t,) + open_world_point(pv, val.labels, t, p["classes"])
                     for t in THRESHOLDS]
            best = {"precision": max(curve, key=lambda c: (c[1], c[2], -c[0])),
                    "recall": max(curve, key=lambda c: (c[2], c[1], -c[0]))}
            got = json.loads((self.home / f"eval{j}" / "eval.json")
                             .read_text())["metrics"]
            for tag, (t, _, _) in best.items():
                prec, rec = open_world_point(pt, test.labels, t, p["classes"])
                want = {f"{tag}_tuned_threshold": t,
                        f"{tag}_tuned_precision": prec,
                        f"{tag}_tuned_recall": rec}
                for key, value in want.items():
                    if differs(value, got[key]):
                        problems.append(f"checkpoint {j}: {key} {got[key]} "
                                        f"reported, {value} rescored")
        return problems

    def test_accuracy(self):
        """Mean argmax accuracy (background as its own class) over the
        checkpoints; filled in by check(), None before."""
        if not self.accuracy:
            return None
        return float(np.mean(list(self.accuracy.values())))


WORKLOADS = {w.name: w for w in (FewshotHda, CliPipeline, OpenworldEval)}
