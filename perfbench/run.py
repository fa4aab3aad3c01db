"""Benchmark harness for wfaug.

    python3 perfbench/run.py --workload fewshot_hda --seed 1 --seconds 30 \\
        --trace 0

Runs one workload in this process against the wfaug sources in ``src/``
next to this directory. It sets the workload up, then repeats the measured
work until ``--seconds`` have passed (and at least the workload's minimum
number of repeats ran), with the other set-ups spread over that time. A
fixed reference kernel is timed around and inside every set-up and repeat,
and the end-to-end times are rescaled by it to the reference pace (see
pace.py). It checks the outputs and prints the end-to-end metrics, one per
line, followed by a one-line JSON result.
With ``--trace 1`` it instead spends half the time untraced and half with
spans around every wfaug layer, and prints the per-layer self-time table,
the tracing overhead and the per-layer metrics. See README.md here.

A full record (environment, fingerprints, per-repeat figures, errors) goes
to ``.perfbench/results/`` at the root of the checkout, and the spans of a
traced run to a file beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# BLAS reads these once, when numpy loads: set before anything imports it.
# One thread per process keeps runs steady on a small shared machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / ".perfbench"

# Spans whose self time is a per-layer metric named "<span>_s". The model's
# own spans (self time outside its layers) and the repeat root (harness
# time) are reported under their own names below.
LAYER_SPANS = (
    "nn.conv1d.forward", "nn.conv1d.backward", "nn.maxpool2.forward",
    "nn.maxpool2.backward", "nn.relu.forward", "nn.relu.backward",
    "nn.gap.forward", "nn.gap.backward", "nn.dense.forward",
    "nn.dense.backward", "nn.cross_entropy", "nn.optimizer.step",
    "nn.predict", "nn.state_copy", "nn.checkpoint.save", "nn.checkpoint.load",
    "nn.train", "augment.hda_batch", "seeding.derive_rng",
    "traces.load_dataset", "traces.save_dataset", "traces.synth_dataset",
    "traces.make_splits", "tpe.suggest", "evaluate.tune_augmentation",
    "evaluate.sweep_operating_points", "evaluate.open_world_eval",
    "evaluate.closed_accuracy", "evaluate.run_experiment",
    "manifest.from_files", "cli.synth", "cli.tune", "cli.train", "cli.eval",
    "cli.report",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fewshot_hda", "cli_pipeline",
                                 "openworld_eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shapes for the benchmark's self-tests")
    return parser.parse_args(argv)


def git_commit(root: Path):
    """HEAD of the checkout's git repository, read from files; None if the
    checkout is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
    }


def median(values):
    values = list(values)
    return statistics.median(values) if values else None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def drop_results(snap: dict) -> dict:
    """Forget the return values (trained models) of a snapshot's recorded
    calls once they have been used, so that the harness's own memory does
    not grow with the number of repeats and show in peak_rss_mb."""
    for calls in snap["calls"].values():
        calls[:] = [(s, counts, None, span) for s, counts, _, span in calls]
    return snap


class Harness:
    """Set-ups, timed repeats, fingerprint comparison and metrics."""

    def __init__(self, workload, tracer, ops, work: Path):
        self.wl = workload
        self.tracer = tracer
        self.ops = ops
        self.work = work
        self.setups: list = []       # tracer snapshots of each set-up
        self.setup_fps: list = []
        self.setups_started = 0
        self.phases: dict = {}       # phase -> list of (snapshot, Repeat)
        self.baseline: dict = {}     # repeat key -> first fingerprint
        self.last_dirs: dict = {}    # repeat key -> directory of last repeat
        self.samples: dict = {}      # end-to-end metric -> every sample
        self.raw_samples: dict = {}  # the same, as measured
        self.readings: list = []     # (start, end, seconds) per reference

    def compare(self, what: str, first: dict, fp: dict) -> None:
        bad = sorted(k for k in first if first[k] != fp.get(k))
        if bad:
            self.ops.fail(f"{what}: output bits differ from the first "
                          f"repeat: {', '.join(bad)}", count=len(bad))

    def pace_point(self, min_gap: float = 0.0) -> None:
        """Time the reference kernel once (see pace.py), unless it last ran
        less than ``min_gap`` seconds ago."""
        import pace
        start = time.perf_counter()
        if self.readings and start - self.readings[-1][1] < min_gap:
            return
        seconds = pace.measure()
        self.readings.append((start, time.perf_counter(), seconds))

    def paced(self, span: str, fn):
        """Run ``fn`` in a root span between two reference timings."""
        self.pace_point()
        with self.tracer.span(span):
            result = fn()
        self.pace_point()
        return result

    def at_pace(self, start: float, end: float):
        """(seconds at reference pace, seconds as measured) spent in
        [start, end] outside the reference's own runs. The stretch between
        two reference runs counts at REFERENCE_S over their mean time."""
        import pace
        scaled = raw = 0.0
        for (_, a, r0), (b, _, r1) in zip(self.readings, self.readings[1:]):
            overlap = min(end, b) - max(start, a)
            if overlap > 0:
                raw += overlap
                scaled += overlap * 2 * pace.REFERENCE_S / (r0 + r1)
        return scaled, raw

    def setup(self) -> None:
        """One set-up in a fresh directory. Raises OperationFailed if it
        fails; the failure is counted."""
        i = self.setups_started
        self.setups_started += 1
        directory = self.work / f"setup{i}"
        directory.mkdir()
        try:
            fp = self.paced("bench.setup", lambda: self.wl.setup(
                self.ops, self.tracer, directory))
        finally:
            snap = self.tracer.take()
        self.setups.append(drop_results(snap))
        self.setup_fps.append(fp)
        self.compare(f"set-up {i}", self.setup_fps[0], fp)

    def setups_due(self, elapsed: float, seconds: float) -> None:
        """Spread the set-ups after the first over the measured time, so
        that they sample the machine's pace over the whole run."""
        from workloads import OperationFailed
        n = self.wl.setups
        while (self.setups_started < n
               and elapsed >= seconds * self.setups_started / n):
            try:
                self.setup()
            except OperationFailed:
                pass

    def measure(self, phase: str, seconds: float, min_repeats: int,
                with_setups: bool = False) -> None:
        from workloads import OperationFailed
        out = self.phases.setdefault(phase, [])
        start = time.perf_counter()
        index = 0
        while index < min_repeats or time.perf_counter() < start + seconds:
            if with_setups:
                self.setups_due(time.perf_counter() - start, seconds)
            directory = self.work / f"{phase}{index}"
            directory.mkdir()
            try:
                result = self.paced(
                    "bench.repeat", lambda: self.wl.run(
                        self.ops, self.tracer, index, directory))
            except OperationFailed:
                self.tracer.take()
                index += 1
                continue
            snap = self.tracer.take()
            rep = self.wl.outputs(directory, result, snap)
            drop_results(snap)
            first = self.baseline.setdefault(rep.key, rep.fingerprint)
            self.compare(f"{phase} repeat {index}", first, rep.fingerprint)
            old = self.last_dirs.get(rep.key)
            if old is not None and old != directory:
                shutil.rmtree(old, ignore_errors=True)
            self.last_dirs[rep.key] = directory
            out.append((snap, rep))
            index += 1
        if with_setups:
            self.setups_due(seconds, seconds)

    # --- metrics -----------------------------------------------------------

    def end_to_end(self) -> dict:
        """Medians over the set-ups and repeats, in seconds at reference
        pace (see at_pace). The samples as measured go to the record too."""
        names = ("setup_s", "wall_s", "train_samples_per_s",
                 "eval_traces_per_s")
        self.samples = {name: [] for name in names}
        self.raw_samples = {name: [] for name in names}

        def add(name, spans, work=None):
            """One sample: the time spent in ``spans``, or ``work`` over it."""
            for out, which in ((self.samples, 0), (self.raw_samples, 1)):
                seconds = sum(self.at_pace(*span)[which] for span in spans)
                out[name].append(seconds if work is None else work / seconds)

        reps = [snap for snap, _ in self.phases.get("untraced", [])]
        for snap in self.setups:
            add("setup_s", snap["intervals"]["bench.setup"])
        for snap in self.setups + reps:
            for _, counts, _, span in snap["calls"].get("nn.train", ()):
                add("train_samples_per_s", [span], counts["nn.train.samples"])
        for snap in reps:
            add("wall_s", snap["intervals"]["bench.repeat"])
            busy = [span for name in self.wl.eval_spans
                    for span in snap["intervals"].get(name, ())]
            if busy:
                add("eval_traces_per_s", busy, self.wl.scored)
        m = {name: (median(self.samples[name]),
                    "1/s" if name.endswith("_per_s") else "s")
             for name in names}
        m["peak_rss_mb"] = (peak_rss_mb(), "MB")
        return m

    def layer_table(self):
        """Per-name calls, total and self seconds per traced repeat, and the
        counters of one traced repeat. Call counts and counters must be the
        same in every traced repeat."""
        snaps = [snap for snap, _ in self.phases.get("traced", [])]
        table: dict = {}
        for snap in snaps:
            for name, stat in snap["stats"].items():
                row = table.setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    row[i] += stat[i]
        table = {name: [v / len(snaps) for v in row]
                 for name, row in table.items()}

        def work(snap):
            return (snap["counts"],
                    {name: stat[0] for name, stat in snap["stats"].items()})

        for i, snap in enumerate(snaps[1:], start=1):
            if work(snap) != work(snaps[0]):
                self.ops.fail(f"traced repeat {i}: call counts or counters "
                              f"differ from the first traced repeat")
        return table, (snaps[0]["counts"] if snaps else {})

    def per_layer(self, table, counts) -> dict:
        def self_s(name):
            return table.get(name, (0.0, 0.0, 0.0))[2]

        def calls(name):
            return table.get(name, (0.0, 0.0, 0.0))[0]

        def ratio(a, b):
            return a / b if b else 0.0

        m = {f"{name}_s": (self_s(name), "s") for name in LAYER_SPANS}
        m["nn.model.forward_self_s"] = (self_s("nn.model.forward"), "s")
        m["nn.model.backward_self_s"] = (self_s("nn.model.backward"), "s")
        m["bench.other_s"] = (self_s("bench.repeat"), "s")

        gflop = counts.get("nn.conv1d.flop", 0) / 1e9
        conv_s = self_s("nn.conv1d.forward") + self_s("nn.conv1d.backward")
        trials = calls("tpe.suggest")
        hda_traces = counts.get("augment.hda_batch.traces", 0)
        m.update({
            "nn.conv1d.gflop": (gflop, "GFLOP"),
            "nn.conv1d.gflop_per_s": (ratio(gflop, conv_s), "GFLOP/s"),
            "nn.optimizer.steps": (calls("nn.optimizer.step"), "count"),
            "nn.predict.traces": (counts.get("nn.predict.traces", 0),
                                  "count"),
            "nn.train.calls": (calls("nn.train"), "count"),
            "augment.hda_batch.calls": (calls("augment.hda_batch"), "count"),
            "augment.hda_batch.traces": (hda_traces, "count"),
            "augment.hda_batch.us_per_trace": (
                1e6 * ratio(self_s("augment.hda_batch"), hda_traces), "us"),
            "seeding.derive_rng.calls": (calls("seeding.derive_rng"),
                                         "count"),
            "traces.load_dataset.bytes": (
                counts.get("traces.load_dataset.bytes", 0), "bytes"),
            "tpe.trials": (trials, "count"),
            "evaluate.tune.cache_hit_ratio": (
                ratio(trials - counts.get("evaluate.tune.trainings", 0),
                      trials), "ratio"),
            "evaluate.predict_redundancy": (
                counts.get("evaluate.eval_predict.traces", 0)
                / self.wl.scored, "ratio"),
            "evaluate.test_accuracy": (self.wl.test_accuracy(), "ratio"),
        })
        untraced, traced = (
            median(self.at_pace(*span)[0]
                   for s, _ in self.phases.get(phase, [])
                   for span in s["intervals"]["bench.repeat"])
            for phase in ("untraced", "traced"))
        m["bench.untraced_wall_s"] = (untraced, "s")
        m["bench.traced_wall_s"] = (traced, "s")
        m["bench.trace_overhead_ratio"] = (
            traced / untraced if traced and untraced else None, "ratio")
        return m


def format_table(table: dict, wall: float) -> str:
    lines = [f"{'span':<34} {'calls':>9} {'total_s':>10} {'self_s':>10} "
             f"{'self%':>6}"]
    for name, (calls, total, self_s) in sorted(
            table.items(), key=lambda item: -item[1][2]):
        lines.append(f"{name:<34} {calls:>9.1f} {total:>10.4f} "
                     f"{self_s:>10.4f} {100 * self_s / wall:>6.1f}")
    lines.append(f"{'sum of self time':<34} {'':>9} {'':>10} "
                 f"{sum(r[2] for r in table.values()):>10.4f} "
                 f"(mean traced wall {wall:.4f} s per repeat)")
    lines.append("figures are per traced repeat; everything runs on one "
                 "thread with no queue, so no layer waits on another and the "
                 "table has no wait column")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "wfaug" / "__init__.py").is_file():
        print(f"error: no wfaug sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import wfaug
    if Path(wfaug.__file__).resolve().parent != src / "wfaug":
        print(f"error: imported wfaug from {wfaug.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import pace
    from spans import Tracer
    from workloads import WORKLOADS, Operations, OperationFailed

    env = environment()
    workload = WORKLOADS[args.workload](args.seed, args.size)
    tracer = Tracer(keep_spans=bool(args.trace))
    ops = Operations()
    work = BENCH_DIR / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    harness = Harness(workload, tracer, ops, work)
    problems: list = []
    tracer.install(layers=False)
    if not args.trace:
        tracer.pace_point = lambda: harness.pace_point(pace.MIN_GAP_S)
    pace.warm_up()
    try:
        harness.setup()
        if args.trace:
            harness.measure("untraced", args.seconds / 2,
                            workload.min_repeats, with_setups=True)
            tracer.uninstall()
            tracer.install(layers=True)
            harness.measure("traced", args.seconds / 2, 1)
        else:
            harness.measure("untraced", args.seconds, workload.min_repeats,
                            with_setups=True)
        if not harness.phases.get("untraced"):
            raise OperationFailed("no repeat succeeded")
        problems = workload.check(harness.last_dirs)
    except OperationFailed:
        pass
    except Exception as exc:  # a failure must not stop the result line
        ops.fail(f"harness: {type(exc).__name__}: {exc}")
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    table = {}
    if args.trace:
        table, counts = harness.layer_table()
        metrics = harness.per_layer(table, counts) if table else {}
    else:
        metrics = harness.end_to_end()
    correct = ops.failed == 0 and not problems and all(
        v is not None for v, _ in metrics.values()) and bool(metrics)

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print("env: " + json.dumps(env, sort_keys=True))
    reps = harness.phases.get("untraced", []) + harness.phases.get(
        "traced", [])
    print(f"set-ups: {len(harness.setups)}; repeats: "
          + ", ".join(f"{k} {len(v)}" for k, v in harness.phases.items()))
    for key, fp in sorted(harness.baseline.items()):
        print(f"fingerprint[{key}]: " + json.dumps(fp, sort_keys=True))
    if table:
        print(format_table(table, table["bench.repeat"][1]))
        print(f"tracing overhead: traced wall_s / untraced wall_s = "
              f"{metrics['bench.trace_overhead_ratio'][0]}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value!r:>24} {unit}")
    for label, samples in (("at reference pace", harness.samples),
                           ("as measured", harness.raw_samples)):
        for name, values in samples.items():
            if values:
                print(f"  {name} {label}: {len(values)} samples, median "
                      f"{median(values):.6g}, min {min(values):.6g}, "
                      f"max {max(values):.6g}")
    ref = [seconds for _, _, seconds in harness.readings]
    if ref:
        print(f"  reference kernel: {len(ref)} timings, median "
              f"{median(ref):.6g} s, min {min(ref):.6g}, max {max(ref):.6g}")
    rate = ops.failed / ops.attempted if ops.attempted else 0.0
    print(f"operations: attempted {ops.attempted}, failed {ops.failed}, "
          f"error_rate {rate:g}")
    for message in ops.errors + problems:
        print(f"problem: {message}")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "size": args.size, "environment": env,
              "fingerprints": {str(k): v
                               for k, v in harness.baseline.items()},
              "setup_fingerprint": (harness.setup_fps[0]
                                    if harness.setup_fps else None),
              "end_to_end_samples": harness.samples,
              "end_to_end_raw_samples": harness.raw_samples,
              "reference_s": [seconds for _, _, seconds in harness.readings],
              "repeat_stage_s": [{k: v[1] for k, v in s["stats"].items()}
                                 for s, _ in reps],
              "traced_wall_mean_s": (table["bench.repeat"][1]
                                     if table else None),
              "attempted": ops.attempted, "failed": ops.failed,
              "error_rate": rate, "problems": ops.errors + problems,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    results = BENCH_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    if args.trace:
        tracer.write_spans(results / f"{stem}-spans.json")

    print(json.dumps({"correct": correct, "attempted": max(ops.attempted, 1),
                      "failed": ops.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
