"""In-memory span tracer that times wfaug from outside.

A span is (name, start, end, parent). Spans come from two places: the
harness opens its own (one root per set-up or repeat, one per CLI command),
and ``Tracer.install`` replaces public wfaug functions and methods with
wrappers that open a span around each call. A function is patched in every
wfaug module that binds it, because callers look names up in their own
module (``wfaug.nn.training.hda_batch``, ``wfaug.evaluate.train``, ...).
Layer and optimizer methods are patched on their classes.

Wrappers do nothing while no root span is open, so code the harness runs
between repeats (fingerprints, correctness checks) leaves no spans.
Everything runs on one thread, so spans nest strictly and a span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Spans whose predict calls score evaluation traces; used for
# evaluate.predict_redundancy. Per-epoch validation inside nn.train and the
# tune objective's re-scoring of the validation split are not under them.
EVAL_STAGES = ("cli.eval", "evaluate.closed_accuracy",
               "evaluate.open_world_eval", "evaluate.sweep_operating_points")


def _train_counts(tracer, args, kwargs):
    train_cfg = args[1] if len(args) > 1 else kwargs["train_cfg"]
    train_set = args[2] if len(args) > 2 else kwargs["train_set"]
    counts = {"nn.train.samples": train_cfg.epochs * len(train_set)}
    if tracer.inside("evaluate.tune_augmentation"):
        counts["evaluate.tune.trainings"] = 1
    return counts


def _conv_flops(layer, batch, l_out):
    # two FLOPs per multiply-add; bias adds are not counted
    return 2 * batch * layer.out_ch * layer.in_ch * layer.kernel * l_out


def _conv_forward_counts(tracer, args, kwargs):
    layer, x = args[0], args[1]
    return {"nn.conv1d.flop": _conv_flops(layer, x.shape[0],
                                          layer.out_len(x.shape[2]))}


def _conv_backward_counts(tracer, args, kwargs):
    layer, dy = args[0], args[1]
    # weight gradient and input gradient each cost one forward's worth
    return {"nn.conv1d.flop": 2 * _conv_flops(layer, dy.shape[0], dy.shape[2])}


def _predict_counts(tracer, args, kwargs):
    n = len(args[1] if len(args) > 1 else kwargs["traces"])
    counts = {"nn.predict.traces": n}
    if any(tracer.inside(stage) for stage in EVAL_STAGES):
        counts["evaluate.eval_predict.traces"] = n
    return counts


def _hda_counts(tracer, args, kwargs):
    return {"augment.hda_batch.traces": len(args[0] if args
                                            else kwargs["traces"])}


def _load_dataset_counts(tracer, args, kwargs):
    return {"traces.load_dataset.bytes":
            os.path.getsize(args[0] if args else kwargs["path"])}


# Spans whose every call is kept as (seconds, counts, return value,
# (start, end)): the per-training rates and the trained models come from
# these.
RECORD_CALLS = ("nn.train",)

# Spans whose (start, end) every snapshot keeps, so that the harness can
# rescale their time by the machine's pace around them (see pace.py).
TIMED_SPANS = ("bench.setup", "bench.repeat", "nn.train", "cli.eval",
               "evaluate.closed_accuracy")

# Spans after which the tracer calls its ``pace_point`` hook, when set, so
# that long repeats get reference timings inside them too.
PACE_AFTER = ("nn.train", "nn.predict", "evaluate.closed_accuracy",
              "cli.synth", "cli.tune", "cli.train", "cli.eval", "cli.report")

# (defining module, function, span name, counter or None). Stage targets stay
# installed in untraced runs too: they are a few calls per repeat, give the
# training and evaluation time that the end-to-end rates need, and mark
# where a long repeat can time the reference kernel (PACE_AFTER).
STAGE_FUNCTIONS = (
    ("wfaug.nn.training", "train", "nn.train", _train_counts),
    ("wfaug.nn.model", "predict", "nn.predict", _predict_counts),
    ("wfaug.evaluate", "closed_accuracy", "evaluate.closed_accuracy", None),
)

LAYER_FUNCTIONS = (
    ("wfaug.nn.model", "cross_entropy", "nn.cross_entropy", None),
    ("wfaug.nn.model", "save_checkpoint", "nn.checkpoint.save", None),
    ("wfaug.nn.model", "load_checkpoint", "nn.checkpoint.load", None),
    ("wfaug.augment", "hda_batch", "augment.hda_batch", _hda_counts),
    ("wfaug.seeding", "derive_rng", "seeding.derive_rng", None),
    ("wfaug.traces", "load_dataset", "traces.load_dataset",
     _load_dataset_counts),
    ("wfaug.traces", "save_dataset", "traces.save_dataset", None),
    ("wfaug.traces", "synth_dataset", "traces.synth_dataset", None),
    ("wfaug.traces", "make_splits", "traces.make_splits", None),
    ("wfaug.tpe", "tpe_suggest", "tpe.suggest", None),
    ("wfaug.evaluate", "tune_augmentation", "evaluate.tune_augmentation",
     None),
    ("wfaug.evaluate", "sweep_operating_points",
     "evaluate.sweep_operating_points", None),
    ("wfaug.evaluate", "open_world_eval", "evaluate.open_world_eval", None),
    ("wfaug.evaluate", "run_experiment", "evaluate.run_experiment", None),
)

# (defining module, class, method, span name, counter or None)
LAYER_METHODS = (
    ("wfaug.nn.layers", "Conv1D", "forward", "nn.conv1d.forward",
     _conv_forward_counts),
    ("wfaug.nn.layers", "Conv1D", "backward", "nn.conv1d.backward",
     _conv_backward_counts),
    ("wfaug.nn.layers", "ReLU", "forward", "nn.relu.forward", None),
    ("wfaug.nn.layers", "ReLU", "backward", "nn.relu.backward", None),
    ("wfaug.nn.layers", "MaxPool2", "forward", "nn.maxpool2.forward", None),
    ("wfaug.nn.layers", "MaxPool2", "backward", "nn.maxpool2.backward", None),
    ("wfaug.nn.layers", "GlobalAvgPool", "forward", "nn.gap.forward", None),
    ("wfaug.nn.layers", "GlobalAvgPool", "backward", "nn.gap.backward", None),
    ("wfaug.nn.layers", "Dense", "forward", "nn.dense.forward", None),
    ("wfaug.nn.layers", "Dense", "backward", "nn.dense.backward", None),
    ("wfaug.nn.model", "Model", "forward", "nn.model.forward", None),
    ("wfaug.nn.model", "Model", "backward", "nn.model.backward", None),
    ("wfaug.nn.model", "Model", "state_copy", "nn.state_copy", None),
    ("wfaug.nn.optim", "Adam", "step", "nn.optimizer.step", None),
    ("wfaug.nn.optim", "SgdMomentum", "step", "nn.optimizer.step", None),
    ("wfaug.manifest", "Manifest", "from_files", "manifest.from_files", None),
)


class Tracer:
    """Span stack, per-name statistics and counters for one process."""

    def __init__(self, keep_spans: bool = False):
        self.keep_spans = keep_spans
        self.spans: list = []        # (name, start, end, parent index)
        self._stack: list = []       # [name, start, child seconds, index]
        self._open: Counter = Counter()
        self._patches: list = []
        self.pace_point = None       # see PACE_AFTER
        self.reset()

    def reset(self) -> None:
        """Forget statistics, counters and recorded calls."""
        self.stats: dict = {}        # name -> [calls, total s, self s]
        self.counts: defaultdict = defaultdict(int)
        self.calls: defaultdict = defaultdict(list)  # see RECORD_CALLS
        self.intervals: defaultdict = defaultdict(list)  # see TIMED_SPANS

    def inside(self, name: str) -> bool:
        return self._open[name] > 0

    def _enter(self, name: str) -> None:
        index = -1
        if self.keep_spans:
            index = len(self.spans)
            self.spans.append(None)
        self._open[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0, index])

    def _exit(self) -> tuple:
        end = time.perf_counter()
        name, start, child, index = self._stack.pop()
        self._open[name] -= 1
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if index >= 0:
            self.spans[index] = (name, start, end,
                                 parent[3] if parent is not None else -1)
        if name in TIMED_SPANS:
            self.intervals[name].append((start, end))
        if self.pace_point is not None and name in PACE_AFTER:
            self.pace_point()
        return start, end

    @contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def take(self) -> dict:
        """Statistics and counters gathered since the last take, then reset."""
        if self._stack:
            raise RuntimeError("take() with spans still open")
        out = {"stats": self.stats, "counts": dict(self.counts),
               "calls": dict(self.calls), "intervals": dict(self.intervals)}
        self.reset()
        return out

    def _wrap(self, fn, name, counter):
        tracer = self
        record = name in RECORD_CALLS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            counts = {} if counter is None else counter(tracer, args, kwargs)
            for key, value in counts.items():
                tracer.counts[key] += value
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                start, end = tracer._exit()
            if record:
                tracer.calls[name].append((end - start, counts, result,
                                           (start, end)))
            return result

        return wrapper

    def _patch_function(self, module_name, attr, name, counter):
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = self._wrap(original, name, counter)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "wfaug" and not mod_name.startswith("wfaug."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def _patch_method(self, module_name, cls_name, attr, name, counter):
        cls = getattr(importlib.import_module(module_name), cls_name)
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            patched = classmethod(self._wrap(original.__func__, name,
                                             counter))
        else:
            patched = self._wrap(original, name, counter)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, patched)

    def install(self, layers: bool) -> None:
        """Patch the stage targets, plus every layer target if ``layers``."""
        for module_name, attr, name, counter in STAGE_FUNCTIONS:
            self._patch_function(module_name, attr, name, counter)
        if layers:
            for module_name, attr, name, counter in LAYER_FUNCTIONS:
                self._patch_function(module_name, attr, name, counter)
            for module_name, cls_name, attr, name, counter in LAYER_METHODS:
                self._patch_method(module_name, cls_name, attr, name, counter)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def write_spans(self, path) -> None:
        """Kept spans as JSON: a name table and [name, start, end, parent]."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round(s - t0, 9), round(e - t0, 9), p]
                for n, s, e, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "names": names, "spans": rows}, fh)
