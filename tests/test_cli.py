"""Command-line pipeline tests.

Commands run in-process inside a scratch directory with relative paths, the
same way the determinism guarantees are meant to be used.
"""

import argparse
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wfaug
from wfaug import cli
from wfaug.augment import AugConfig, hda_batch
from wfaug.cli import build_parser, main
from wfaug.evaluate import (ExperimentConfig, TuneSpec, run_experiment,
                            tune_augmentation)
from wfaug.manifest import (KNOWN_KEYS, Manifest, format_manifest,
                            model_config_from_manifest, parse_manifest_text,
                            split_spec_from_manifest,
                            train_config_from_manifest)
from wfaug.nn import (Conv1D, Model, default_model_config, save_checkpoint,
                      training)
from wfaug.tpe import TRIAL_LOG_HEADER, StageTrial
from wfaug.traces import (BACKGROUND, Dataset, SplitSpec, load_dataset,
                          make_splits, save_dataset, synth_dataset)

BASE = {
    "data.path": "data.txt",
    "data.trace_len": "48",
    "data.classes": "3",
    "data.per_class": "10",
    "data.noise": "0.05",
    "split.shots": "5",
    "split.val_per_class": "3",
    "split.test_per_class": "2",
    "model.blocks": "4:1:max2,8:2",
    "train.epochs": "3",
    "train.batch_size": "16",
    "train.lr": "0.01",
    "tpe.proxy_epochs": "1",
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.cfg").write_text(format_manifest(BASE), encoding="utf-8")
    return tmp_path


def run(*argv):
    return main(list(argv))


def record_augmentation(monkeypatch):
    """The AugConfig of every hda_batch call training makes, as a list."""
    configs = []

    def record(traces, labels, cfg, rng):
        configs.append(cfg)
        return hda_batch(traces, labels, cfg, rng)

    monkeypatch.setattr(training, "hda_batch", record)
    return configs


def synth_here():
    assert run("synth", "--manifest", "exp.cfg", "--seed", "7",
               "--out", "data.txt") == 0


def open_world_here(workdir):
    """Three monitored classes plus one relabelled as background."""
    base = synth_dataset(4, 10, 48, 0.05, seed=7)
    labels = base.labels.copy()
    labels[labels == 3] = BACKGROUND
    save_dataset(Dataset(base.traces, labels, 3), workdir / "data.txt")


class TestSynth:
    def test_writes_expected_line_count(self, workdir):
        synth_here()
        lines = (workdir / "data.txt").read_text().splitlines()
        assert len(lines) == 30

    def test_rerun_identical_bytes(self, workdir):
        synth_here()
        first = (workdir / "data.txt").read_bytes()
        synth_here()
        assert (workdir / "data.txt").read_bytes() == first

    def test_flags_override_manifest(self, workdir):
        assert run("synth", "--manifest", "exp.cfg", "--classes", "4",
                   "--out", "data.txt") == 0
        assert len((workdir / "data.txt").read_text().splitlines()) == 40

    def test_too_few_classes_fails(self, workdir, capsys):
        assert run("synth", "--classes", "1", "--per-class", "5",
                   "--len", "32", "--noise", "0", "--out", "x.txt") == 1
        assert "error" in capsys.readouterr().err

    def test_missing_out_names_fix(self, workdir, capsys):
        assert run("synth", "--manifest", "exp.cfg") == 1
        assert "--out" in capsys.readouterr().err

    def test_huge_length_fails_at_once(self, workdir, capsys):
        assert run("synth", "--manifest", "exp.cfg", "--len", str(10 ** 12),
                   "--out", "data.txt") == 1
        assert capsys.readouterr().err.startswith("error: trace_len must be")
        assert not (workdir / "data.txt").exists()

    def test_too_short_length_fails_before_writing(self, workdir, capsys):
        assert run("synth", "--manifest", "exp.cfg", "--len", "1",
                   "--out", "data.txt") == 1
        assert capsys.readouterr().err == (
            "error: trace_len must be in [3, 65536] for synthetic traces, "
            "got 1\n")
        assert not (workdir / "data.txt").exists()

    def test_more_classes_than_labels_fails(self, workdir, capsys):
        assert run("synth", "--manifest", "exp.cfg", "--classes", "70000",
                   "--out", "data.txt") == 1
        assert capsys.readouterr().err == (
            "error: num_classes must be in [2, 65536], got 70000\n")
        assert not (workdir / "data.txt").exists()

    def test_huge_array_fails_before_allocating(self, workdir, capsys,
                                                monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated before refusing")

        monkeypatch.setattr(np, "zeros", no_allocation)
        assert run("synth", "--manifest", "exp.cfg", "--len", "100",
                   "--per-class", str(10 ** 12), "--out", "data.txt") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 3 classes x 1000000000000 traces x 100 "
                              "directions is 300000000000000 cells, more "
                              "than MAX_SYNTH_CELLS")
        assert not (workdir / "data.txt").exists()


class TestSplit:
    def test_writes_three_partitions(self, workdir):
        synth_here()
        assert run("split", "--manifest", "exp.cfg", "--seed", "0",
                   "--out", "splits") == 0
        sizes = {name: len(load_dataset(workdir / "splits" / f"{name}.txt", 48))
                 for name in ("train", "val", "test")}
        assert sizes == {"train": 15, "val": 9, "test": 6}

    def test_partitions_disjoint_by_content(self, workdir):
        synth_here()
        run("split", "--manifest", "exp.cfg", "--seed", "0", "--out", "splits")
        seen = set()
        for name in ("train", "val", "test"):
            ds = load_dataset(workdir / "splits" / f"{name}.txt", 48)
            for row in ds.traces:
                seen.add(row.tobytes())
        total = sum(len(load_dataset(workdir / "splits" / f"{n}.txt", 48))
                    for n in ("train", "val", "test"))
        assert total == 30  # shots+val+test per class, all samples used

    def test_huge_trace_len_fails_at_once(self, workdir, capsys):
        synth_here()
        (workdir / "long.cfg").write_text(f"data.trace_len = {10 ** 12}\n",
                                          encoding="utf-8")
        assert run("split", "--manifest", "exp.cfg", "--manifest", "long.cfg",
                   "--out", "splits") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: trace_len must be")
        assert "Traceback" not in err and not (workdir / "splits").exists()

    @pytest.mark.parametrize("key, part", [("val_per_class", "val"),
                                           ("test_per_class", "test")])
    def test_empty_part_fails_before_any_is_written(self, workdir, capsys,
                                                    key, part):
        synth_here()
        (workdir / "none.cfg").write_text(f"split.{key} = 0\n",
                                          encoding="utf-8")
        assert run("split", "--manifest", "exp.cfg", "--manifest", "none.cfg",
                   "--out", "splits") == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot save an empty {part} split\n"
        assert not (workdir / "splits").exists()

    @pytest.mark.parametrize("key", ["val_per_class", "test_per_class"])
    def test_negative_count_is_refused_by_name(self, workdir, capsys, key):
        synth_here()
        (workdir / "neg.cfg").write_text(f"split.{key} = -1\n",
                                         encoding="utf-8")
        assert run("split", "--manifest", "exp.cfg", "--manifest", "neg.cfg",
                   "--out", "splits") == 1
        assert capsys.readouterr().err == \
            f"error: split.{key} must be >= 0\n"
        assert not (workdir / "splits").exists()


class TestTune:
    def test_budget_one_emits_valid_fragment(self, workdir):
        synth_here()
        assert run("tune", "--manifest", "exp.cfg", "--seed", "0",
                   "--budget", "1", "--out", "tuned") == 0
        fragment = parse_manifest_text(
            (workdir / "tuned" / "aug_params.cfg").read_text(), "fragment")
        assert {"aug.r_max", "aug.m_len", "aug.alpha"} == set(fragment)
        assert int(fragment["aug.m_len"]) < 48
        rows = (workdir / "tuned" / "tune_trials.csv").read_text().splitlines()
        assert rows[0] == ",".join(TRIAL_LOG_HEADER)
        assert len(rows) == 1 + 3  # one trial per parameter

    def test_fragment_builds_the_config_train_uses(self, workdir,
                                                   monkeypatch):
        # the tuned values reach training as run_experiment would set them
        synth_here()
        chosen = []

        def record_tune(*args):
            params, log = tune_augmentation(*args)
            chosen.append(AugConfig.from_params(params))
            return params, log

        monkeypatch.setattr(cli, "tune_augmentation", record_tune)
        assert run("tune", "--manifest", "exp.cfg", "--seed", "4",
                   "--budget", "1", "--out", "tuned") == 0
        used = record_augmentation(monkeypatch)
        assert run("train", "--manifest", "exp.cfg", "--manifest",
                   "tuned/aug_params.cfg", "--seed", "4", "--out", "run") == 0
        assert len(chosen) == 1 and used and all(
            cfg == chosen[0] for cfg in used)

    def test_mode_flag_accepted(self, workdir):
        synth_here()
        assert run("tune", "--manifest", "exp.cfg", "--mode", "independent",
                   "--budget", "1", "--out", "tuned") == 0

    def test_flags_beat_tpe_keys(self, workdir, monkeypatch):
        synth_here()
        (workdir / "tpe.cfg").write_text(
            "tpe.mode = independent\ntpe.budget_per_param = 4\n",
            encoding="utf-8")
        specs = []

        def record_spec(train_set, val_set, model_cfg, train_cfg, spec):
            specs.append(spec)
            return {}, []

        monkeypatch.setattr(cli, "tune_augmentation", record_spec)
        keys = ("tune", "--manifest", "exp.cfg", "--manifest", "tpe.cfg")
        assert run(*keys, "--out", "from_keys") == 0
        assert run(*keys, "--mode", "sequential", "--budget", "2",
                   "--out", "from_flags") == 0
        assert [(spec.mode, spec.budget_per_param) for spec in specs] == [
            ("independent", 4), ("sequential", 2)]

    def test_notes_stages_that_cannot_rank(self, workdir, capsys,
                                           monkeypatch):
        # 3 classes x 3 validation traces: one trace is 1/9, chance is 3/9
        synth_here()
        log = [StageTrial(0, "r_max", 1, 4 / 9, 0),
               StageTrial(0, "r_max", 2, 6 / 9, 1),
               StageTrial(1, "m_len", 5, 5 / 9, 0),
               StageTrial(1, "m_len", 9, 6 / 9, 1),
               StageTrial(2, "alpha", 0.1, 1 / 9, 0),
               StageTrial(2, "alpha", 0.2, 3 / 9, 1)]
        monkeypatch.setattr(cli, "tune_augmentation",
                            lambda *args: ({"r_max": 2}, log))
        assert run("tune", "--manifest", "exp.cfg", "--out", "tuned") == 0
        notes = capsys.readouterr().err.splitlines()
        assert notes == [
            "note: tune stage 1 (m_len) cannot rank its settings: 5 to 6 of"
            " 9 validation traces right, chance 1/3; try more"
            " tpe.proxy_epochs",
            "note: tune stage 2 (alpha) cannot rank its settings: 1 to 3 of"
            " 9 validation traces right, chance 1/3; try more"
            " tpe.proxy_epochs"]

    def test_notes_leave_the_artifacts_alone(self, workdir, capsys):
        # one-epoch proxies on this data score every setting at chance
        synth_here()
        capsys.readouterr()
        outputs = []
        for verbose in ((), ("--verbose",)):
            assert run("tune", "--manifest", "exp.cfg", "--seed", "0",
                       "--budget", "2", "--out", "tuned", *verbose) == 0
            err = capsys.readouterr().err.splitlines()
            assert [line for line in err if line.startswith("note: tune")]
            outputs.append([(workdir / "tuned" / name).read_bytes() for name
                            in ("aug_params.cfg", "tune_trials.csv")])
        assert outputs[0] == outputs[1]

    def test_zero_budget_fails_before_work(self, workdir, capsys):
        synth_here()
        assert run("tune", "--manifest", "exp.cfg", "--budget", "0",
                   "--out", "tuned") == 1
        assert "budget_per_param must be >= 1" in capsys.readouterr().err
        assert not (workdir / "tuned").exists()

    def test_missing_dataset_fails_before_work(self, workdir, capsys):
        assert run("tune", "--manifest", "exp.cfg", "--budget", "1",
                   "--out", "tuned") == 1
        err = capsys.readouterr().err
        assert "data.path" in err
        assert not (workdir / "tuned").exists()


def rewrite_header(ckpt, edit):
    """Pass the checkpoint's header text through ``edit``; the edit must
    change it."""
    raw = ckpt.read_bytes()
    n = struct.unpack("<I", raw[8:12])[0]
    text = edit(raw[12:12 + n])
    assert text != raw[12:12 + n]
    ckpt.write_bytes(raw[:8] + struct.pack("<I", len(text)) + text
                     + raw[12 + n:])


class TestTrainEvalReport:
    def pipeline(self, seed):
        assert run("train", "--manifest", "exp.cfg", "--seed", str(seed),
                   "--out", f"run{seed}") == 0
        assert run("eval", "--manifest", "exp.cfg", "--seed", str(seed),
                   "--checkpoint", f"run{seed}/model.ckpt",
                   "--out", f"run{seed}") == 0

    def test_train_and_eval_artifacts(self, workdir):
        synth_here()
        self.pipeline(0)
        assert (workdir / "run0" / "model.ckpt").exists()
        history = (workdir / "run0" / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_acc"
        assert len(history) == 1 + 3
        payload = json.loads((workdir / "run0" / "eval.json").read_text())
        assert payload["world"] == "closed"
        assert 0.0 <= payload["metrics"]["test_accuracy"] <= 1.0
        assert payload["seed"] == 0

    def test_m_len_alone_trains_with_masking(self, workdir, monkeypatch):
        synth_here()
        (workdir / "mask.cfg").write_text("aug.m_len = 10\n",
                                          encoding="utf-8")
        used = record_augmentation(monkeypatch)
        assert run("train", "--manifest", "exp.cfg", "--manifest",
                   "mask.cfg", "--seed", "0", "--out", "run0") == 0
        assert used and all((cfg.r_max, cfg.m_len, cfg.alpha) ==
                            (None, 10, None) for cfg in used)

    def test_label_above_cap_is_an_error(self, workdir, capsys):
        (workdir / "data.txt").write_text("0\t1 -1\n1000000000000\t-1 1\n",
                                          encoding="utf-8")
        (workdir / "aug.cfg").write_text("aug.r_max = 5\n",
                                         encoding="utf-8")
        assert run("train", "--manifest", "exp.cfg", "--manifest",
                   "aug.cfg", "--seed", "3", "--out", "run") == 1
        assert "data.txt:2: label 1000000000000 out of range" in \
            capsys.readouterr().err

    # keys of earlier versions: the operator switches, the optimizer choice
    # with its momentum, TPE's own search settings and the operator order,
    # a line every aug_params.cfg of those versions holds
    @pytest.mark.parametrize("line", ["aug.enable.rotation = true",
                                      "train.optimizer = sgd-momentum",
                                      "train.momentum = 0.9",
                                      "tpe.gamma = 0.25",
                                      "tpe.n_startup = 2",
                                      "tpe.n_candidates = 24",
                                      "aug.order = rotation,masking,mixing"],
                             ids=lambda line: line.split()[0])
    def test_enable_key_is_unknown(self, workdir, capsys, line):
        synth_here()
        (workdir / "old.cfg").write_text(f"aug.r_max = 5\n{line}\n",
                                         encoding="utf-8")
        assert run("train", "--manifest", "exp.cfg", "--manifest",
                   "old.cfg", "--out", "run") == 1
        assert capsys.readouterr().err == (
            f"error: old.cfg:2: unknown key '{line.split()[0]}'\n")
        assert not (workdir / "run").exists()

    def test_report_aggregates_runs(self, workdir):
        synth_here()
        self.pipeline(0)
        self.pipeline(1)
        assert run("report", "run0", "run1", "--out", "summary") == 0
        report = json.loads((workdir / "summary" / "report.json").read_text())
        assert report["seeds"] == [0, 1]
        vals = [row["test_accuracy"] for row in report["per_seed"]]
        assert report["mean"]["test_accuracy"] == pytest.approx(np.mean(vals))
        assert report["std"]["test_accuracy"] == pytest.approx(np.std(vals))
        table = (workdir / "summary" / "report.txt").read_text()
        assert "test_accuracy" in table and "seeds: 0 1" in table

    def test_report_missing_run_fails(self, workdir, capsys):
        assert run("report", "ghost", "--out", "summary") == 1
        assert "ghost" in capsys.readouterr().err

    MALFORMED_EVAL_JSON = {
        "empty_object": b"{}",
        "list": b"[1]",
        "null": b"null",
        "not_utf8": b"\xff",
        "truncated": b'{"seed": 0, "metrics": {',
        "deep_nesting": b"[" * 100_000,
        "no_metrics": b'{"seed": 0}',
        "bool_seed": b'{"seed": true, "metrics": {}}',
        "string_seed": b'{"seed": "0", "metrics": {}}',
        "float_seed": b'{"seed": 0.0, "metrics": {}}',
        "metrics_list": b'{"seed": 0, "metrics": [0.5]}',
        "string_metric": b'{"seed": 0, "metrics": {"test_accuracy": "0.5"}}',
        "bool_metric": b'{"seed": 0, "metrics": {"test_accuracy": true}}',
        "nan_metric": b'{"seed": 0, "metrics": {"test_accuracy": NaN}}',
        "inf_metric": b'{"seed": 0, "metrics": {"test_accuracy": 1e999}}',
        "huge_int_metric": b'{"seed": 0, "metrics": {"n": 1' + b"0" * 400
                           + b"}}",
    }

    @pytest.mark.parametrize("body", MALFORMED_EVAL_JSON.values(),
                             ids=MALFORMED_EVAL_JSON.keys())
    def test_report_malformed_eval_json_fails(self, workdir, capsys, body):
        (workdir / "r").mkdir()
        (workdir / "r" / "eval.json").write_bytes(body)
        assert run("report", "r", "--out", "summary") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {os.path.join('r', 'eval.json')}: ")

    def write_runs(self, workdir, **runs):
        for seed, (name, metrics) in enumerate(runs.items()):
            (workdir / name).mkdir()
            (workdir / name / "eval.json").write_text(
                json.dumps({"seed": seed, "metrics": metrics}))

    def test_report_overflowing_metrics_fail(self, workdir, capsys):
        self.write_runs(workdir, a={"x": 1e308}, b={"x": 1e308})
        assert run("report", "a", "b", "--out", "summary") == 1
        assert capsys.readouterr().err.startswith("error: metric 'x' ")
        assert not (workdir / "summary" / "report.json").exists()

    def test_report_key_mismatch_names_file_and_keys(self, workdir, capsys):
        self.write_runs(workdir, a={"x": 1.0}, c={"y": 1.0})
        assert run("report", "a", "c", "--out", "summary") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {os.path.join('c', 'eval.json')}: ")
        assert "missing ['x'], extra ['y']" in err
        assert not (workdir / "summary" / "report.json").exists()

    # eval.json objects beside one with seed 0, data "d0" and split
    # {"seed": 0, "shots": 5}; seed is set aside when splits are compared
    NOT_POOLED = {
        "other_dataset": ({"seed": 1, "dataset": "d1",
                           "split": {"seed": 1, "shots": 5}},
                          "dataset differs from {first}'s"),
        "no_dataset": ({"seed": 1, "split": {"seed": 1, "shots": 5}},
                       "dataset differs from {first}'s"),
        "other_split": ({"seed": 1, "dataset": "d0",
                         "split": {"seed": 1, "shots": 4}},
                        "split (seed aside) differs from {first}'s"),
        "no_split": ({"seed": 1, "dataset": "d0"},
                     "split (seed aside) differs from {first}'s"),
    }

    @pytest.mark.parametrize("second,message", NOT_POOLED.values(),
                             ids=NOT_POOLED.keys())
    def test_report_refuses_runs_that_do_not_belong_together(
            self, workdir, capsys, second, message):
        first = {"seed": 0, "dataset": "d0", "split": {"seed": 0, "shots": 5}}
        for name, doc in (("a", first), ("b", second)):
            (workdir / name).mkdir()
            (workdir / name / "eval.json").write_text(
                json.dumps({**doc, "metrics": {"x": 1.0}}))
        assert run("report", "a", "b", "--out", "summary") == 1
        a, b = (os.path.join(name, "eval.json") for name in "ab")
        assert capsys.readouterr().err == (
            f"error: {b}: {message.format(first=a)}\n")
        assert not (workdir / "summary").exists()

    def test_report_refuses_one_run_given_twice(self, workdir, capsys):
        synth_here()
        self.pipeline(0)
        capsys.readouterr()
        assert run("report", "run0", "run0", "run0", "--out", "summary") == 1
        path = os.path.join("run0", "eval.json")
        assert capsys.readouterr().err == (
            f"error: {path}: seed 0 is also the seed of {path}\n")
        assert not (workdir / "summary").exists()

    def test_eval_json_names_the_data_by_content(self, workdir):
        # the same data under another name writes the same eval.json
        synth_here()
        assert run("train", "--manifest", "exp.cfg", "--out", "run") == 0
        (workdir / "elsewhere").mkdir()
        (workdir / "elsewhere" / "copy.txt").write_bytes(
            (workdir / "data.txt").read_bytes())
        (workdir / "moved.cfg").write_text(
            "data.path = elsewhere/copy.txt\n", encoding="utf-8")
        written = []
        for extra in ((), ("--manifest", "moved.cfg")):
            assert run("eval", "--manifest", "exp.cfg", *extra,
                       "--checkpoint", "run/model.ckpt", "--out", "run") == 0
            written.append((workdir / "run" / "eval.json").read_bytes())
        assert written[0] == written[1]
        payload = json.loads(written[0])
        assert payload["dataset"] == load_dataset("data.txt", 48).sha256
        assert payload["split"] == {"seed": 0, "shots": 5,
                                    "test_per_class": 2, "val_per_class": 3}

    def test_open_world_eval(self, workdir):
        open_world_here(workdir)
        assert run("train", "--manifest", "exp.cfg", "--seed", "0",
                   "--out", "ow") == 0
        assert run("eval", "--manifest", "exp.cfg", "--seed", "0",
                   "--checkpoint", "ow/model.ckpt", "--open-world",
                   "--out", "ow") == 0
        payload = json.loads((workdir / "ow" / "eval.json").read_text())
        assert payload["world"] == "open"
        metrics = payload["metrics"]
        assert {"precision_tuned_precision", "precision_tuned_recall",
                "recall_tuned_precision", "recall_tuned_recall"} <= set(metrics)

    def test_open_world_eval_predicts_each_split_once(self, workdir,
                                                      eval_predicts):
        open_world_here(workdir)
        assert run("train", "--manifest", "exp.cfg", "--seed", "0",
                   "--out", "ow") == 0
        assert run("eval", "--manifest", "exp.cfg", "--seed", "0",
                   "--checkpoint", "ow/model.ckpt", "--open-world",
                   "--out", "ow") == 0
        data = load_dataset(workdir / "data.txt", 48)
        _, val, test = make_splits(data, SplitSpec(5, 3, 2, seed=0))
        assert [t.tobytes() for t in eval_predicts] == [
            val.traces.tobytes(), test.traces.tobytes()]

    def test_closed_eval_on_background_data_fails(self, workdir, capsys):
        open_world_here(workdir)
        assert run("train", "--manifest", "exp.cfg", "--seed", "0",
                   "--out", "ow") == 0
        assert run("eval", "--manifest", "exp.cfg", "--seed", "0",
                   "--checkpoint", "ow/model.ckpt", "--out", "ow") == 1
        assert "--open-world" in capsys.readouterr().err

    def test_checkpoint_class_mismatch_fails(self, workdir, capsys):
        synth_here()
        self.pipeline(0)
        assert run("synth", "--manifest", "exp.cfg", "--classes", "4",
                   "--seed", "7", "--out", "data.txt") == 0
        assert run("eval", "--manifest", "exp.cfg", "--seed", "0",
                   "--checkpoint", "run0/model.ckpt", "--out", "bad") == 1
        err = capsys.readouterr().err
        assert "3" in err and "4" in err

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 1.96 TiB for an array"),
         "Unable to allocate 1.96 TiB for an array"),
        (MemoryError(), "MemoryError"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_is_an_error(self, workdir, capsys, monkeypatch,
                                       exc, message):
        synth_here()
        (workdir / "huge.cfg").write_text(
            "model.blocks = 300000:1,300000:1\n", encoding="utf-8")

        def out_of_memory(*args, **kwargs):
            raise exc

        # a model this wide would ask for terabytes; none is allocated here
        monkeypatch.setattr(Conv1D, "__init__", out_of_memory)
        assert run("train", "--manifest", "exp.cfg", "--manifest", "huge.cfg",
                   "--seed", "0", "--out", "huge") == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not (workdir / "huge" / "model.ckpt").exists()

    def test_diverged_training_is_an_error(self, workdir, capsys):
        synth_here()
        (workdir / "wild.cfg").write_text("train.lr = 1e300\n",
                                          encoding="utf-8")
        with np.errstate(all="ignore"):
            assert run("train", "--manifest", "exp.cfg", "--manifest",
                       "wild.cfg", "--seed", "0", "--out", "wild") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged")
        assert "Traceback" not in err

    def test_last_epoch_overflow_writes_no_checkpoint(self, workdir, capsys):
        synth_here()
        (workdir / "wild.cfg").write_text(
            "train.lr = 1e300\ntrain.epochs = 1\n", encoding="utf-8")
        with np.errstate(all="ignore"):
            assert run("train", "--manifest", "exp.cfg", "--manifest",
                       "wild.cfg", "--seed", "0", "--out", "wild") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (workdir / "wild" / "model.ckpt").exists()

    @pytest.mark.parametrize("lines,field", [
        pytest.param("train.lr = nan", "train.lr", id="lr-nan"),
        pytest.param("train.lr = inf", "train.lr", id="lr-inf"),
        pytest.param("aug.alpha = nan", "aug.alpha", id="alpha-nan"),
        pytest.param("aug.alpha = inf", "aug.alpha", id="alpha-inf"),
    ])
    def test_non_finite_hyperparameter_fails_before_training(
            self, workdir, capsys, lines, field):
        synth_here()
        (workdir / "bad.cfg").write_text(lines + "\n", encoding="utf-8")
        assert run("train", "--manifest", "exp.cfg", "--manifest", "bad.cfg",
                   "--seed", "0", "--out", "bad") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be finite")
        assert not (workdir / "bad").exists()

    def test_eval_on_empty_test_split_fails(self, workdir, capsys):
        synth_here()
        (workdir / "no_test.cfg").write_text("split.test_per_class = 0\n",
                                             encoding="utf-8")
        argv = ["--manifest", "exp.cfg", "--manifest", "no_test.cfg",
                "--seed", "0"]
        assert run("train", *argv, "--out", "run0") == 0
        capsys.readouterr()  # train's note on a model at chance
        for world in ((), ("--open-world",)):
            assert run("eval", *argv, *world, "--checkpoint",
                       "run0/model.ckpt", "--out", "bad") == 1
            err = capsys.readouterr().err
            assert err.startswith("error: split.test_per_class = 0 ")
        assert not (workdir / "bad").exists()

    def test_checkpoint_header_without_fc_is_an_error(self, workdir, capsys):
        synth_here()
        self.pipeline(0)
        capsys.readouterr()  # train's note on a model at chance
        rewrite_header(workdir / "run0" / "model.ckpt",
                       lambda text: text.replace(b'"fc": [3], ', b""))
        assert run("eval", "--manifest", "exp.cfg", "--seed", "0",
                   "--checkpoint", "run0/model.ckpt", "--out", "bad") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "fc" in err

    def test_checkpoint_header_too_big_for_file_is_an_error(self, workdir,
                                                            capsys):
        # parameters that could never be in the file must not be allocated
        synth_here()
        self.pipeline(0)
        capsys.readouterr()  # train's note on a model at chance
        rewrite_header(workdir / "run0" / "model.ckpt", lambda text: text.replace(
            b'"out_channels": 4,', b'"out_channels": 1000000000000,'))
        assert run("eval", "--manifest", "exp.cfg", "--seed", "0",
                   "--checkpoint", "run0/model.ckpt", "--out", "bad") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_version_1_checkpoint_is_an_error(self, workdir, capsys):
        synth_here()
        self.pipeline(0)
        capsys.readouterr()  # train's note on a model at chance
        ckpt = workdir / "run0" / "model.ckpt"
        raw = ckpt.read_bytes()
        ckpt.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])
        assert run("eval", "--manifest", "exp.cfg", "--seed", "0",
                   "--checkpoint", "run0/model.ckpt", "--out", "bad") == 1
        err = capsys.readouterr().err
        assert err == "error: unsupported checkpoint version 1\n"

    @pytest.mark.parametrize("change,part", [
        pytest.param(("--seed", "1"), "split", id="seed"),
        pytest.param(("--manifest", "fewer_test.cfg"), "split",
                     id="test_per_class"),
        pytest.param(("--manifest", "other_data.cfg"), "dataset",
                     id="data"),
    ])
    def test_eval_refuses_other_training_data(self, workdir, capsys, change,
                                              part):
        # a test split drawn otherwise could overlap the training shots
        synth_here()
        assert run("synth", "--manifest", "exp.cfg", "--seed", "8",
                   "--out", "other.txt") == 0
        (workdir / "fewer_test.cfg").write_text("split.test_per_class = 1\n",
                                                encoding="utf-8")
        (workdir / "other_data.cfg").write_text("data.path = other.txt\n",
                                                encoding="utf-8")
        assert run("train", "--manifest", "exp.cfg", "--seed", "0",
                   "--out", "run0") == 0
        capsys.readouterr()  # train's note on a model at chance
        argv = ["eval", "--manifest", "exp.cfg", "--seed", "0",
                "--checkpoint", "run0/model.ckpt", "--out", "bad"]
        assert run(*argv, *change) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint run0/model.ckpt was trained "
                              f"on {part} ")
        # both splits print their keys in one order, so the odd field shows
        trained, this = err.split(f", not this {part} ")
        assert re.findall(r"'(\w+)':", trained) == re.findall(r"'(\w+)':", this)
        assert not (workdir / "bad").exists()

    def test_eval_refuses_checkpoint_without_training_data(self, workdir,
                                                           capsys):
        synth_here()
        save_checkpoint(Model(default_model_config(48, 3), seed=0),
                        workdir / "bare.ckpt")
        assert run("eval", "--manifest", "exp.cfg", "--seed", "0",
                   "--checkpoint", "bare.ckpt", "--out", "bad") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint bare.ckpt was trained on "
                              "dataset None, not this dataset ")


class TestDeterminism:
    def test_pipeline_rerun_bitwise_identical(self, workdir):
        artifacts = {}
        for attempt in ("a", "b"):
            base = workdir / attempt
            base.mkdir()
            (base / "exp.cfg").write_text(format_manifest(BASE),
                                          encoding="utf-8")
            import os
            os.chdir(base)
            synth_here()
            assert run("tune", "--manifest", "exp.cfg", "--seed", "0",
                       "--budget", "1", "--out", "tuned") == 0
            assert run("train", "--manifest", "exp.cfg", "--manifest",
                       "tuned/aug_params.cfg", "--seed", "0",
                       "--out", "run") == 0
            assert run("eval", "--manifest", "exp.cfg", "--seed", "0",
                       "--checkpoint", "run/model.ckpt", "--out", "run") == 0
            artifacts[attempt] = {
                name: (base / name).read_bytes()
                for name in ("data.txt", "tuned/aug_params.cfg",
                             "run/model.ckpt", "run/eval.json")}
            os.chdir(workdir)
        assert artifacts["a"] == artifacts["b"]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs CPU affinity")
    def test_open_world_eval_same_bytes_on_one_cpu_and_all(self, workdir):
        # the stock model at L=200 runs its inference tiles on a thread pool
        assert Model(default_model_config(200, 4), seed=0)._threaded
        manifest = {key: value for key, value in BASE.items()
                    if key != "model.blocks"}
        manifest.update({"data.trace_len": "200", "split.shots": "2",
                         "split.val_per_class": "6",
                         "split.test_per_class": "6", "train.epochs": "1"})
        (workdir / "exp.cfg").write_text(format_manifest(manifest),
                                         encoding="utf-8")
        base = synth_dataset(4, 14, 200, 0.05, seed=7)
        labels = np.where(base.labels == 3, BACKGROUND, base.labels)
        save_dataset(Dataset(base.traces, labels, 3), workdir / "data.txt")
        assert run("train", "--manifest", "exp.cfg", "--seed", "0",
                   "--out", "ow") == 0
        # one BLAS thread in both runs, so only the tile threads differ
        env = dict(os.environ, PYTHONPATH=str(Path(wfaug.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        one_cpu = min(os.sched_getaffinity(0))
        written = []
        for out, pin in (("one", lambda: os.sched_setaffinity(0, {one_cpu})),
                         ("all", None)):
            subprocess.run(
                [sys.executable, "-m", "wfaug.cli", "eval", "--manifest",
                 "exp.cfg", "--seed", "0", "--checkpoint", "ow/model.ckpt",
                 "--open-world", "--out", out],
                cwd=workdir, env=env, preexec_fn=pin, check=True)
            written.append((workdir / out / "eval.json").read_bytes())
        assert written[0] == written[1]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs CPU affinity")
    def test_train_same_bytes_on_one_cpu_and_all(self, workdir):
        # the stock model at L=200 trains on two row tiles, one on a worker
        # thread, wherever the process has two CPUs
        assert Model(default_model_config(200, 4), seed=0)._threaded
        manifest = {key: value for key, value in BASE.items()
                    if key != "model.blocks"}
        manifest.update({"data.trace_len": "200", "data.classes": "4",
                         "train.epochs": "2"})
        (workdir / "exp.cfg").write_text(format_manifest(manifest),
                                         encoding="utf-8")
        synth_here()
        # one BLAS thread in both runs, so only the tile threads differ
        env = dict(os.environ, PYTHONPATH=str(Path(wfaug.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        one_cpu = min(os.sched_getaffinity(0))
        written = []
        for out, pin in (("one", lambda: os.sched_setaffinity(0, {one_cpu})),
                         ("all", None)):
            subprocess.run(
                [sys.executable, "-m", "wfaug.cli", "train", "--manifest",
                 "exp.cfg", "--seed", "0", "--out", out],
                cwd=workdir, env=env, preexec_fn=pin, check=True)
            written.append({name: (workdir / out / name).read_bytes()
                            for name in ("model.ckpt", "history.csv")})
        assert written[0] == written[1]

    def test_train_and_eval_same_bytes_at_one_and_two_blas_threads(
            self, workdir):
        # the stock model at L=1000 makes products large enough for OpenBLAS
        # to split them over threads
        manifest = {key: value for key, value in BASE.items()
                    if key != "model.blocks"}
        manifest.update({"data.trace_len": "1000", "train.epochs": "2"})
        (workdir / "exp.cfg").write_text(format_manifest(manifest),
                                         encoding="utf-8")
        synth_here()
        written = []
        for threads in ("1", "2"):
            env = dict(os.environ,
                       PYTHONPATH=str(Path(wfaug.__file__).parents[1]),
                       OPENBLAS_NUM_THREADS=threads)
            for argv in (["train"], ["eval", "--checkpoint", "run/model.ckpt"]):
                subprocess.run([sys.executable, "-m", "wfaug.cli", *argv,
                                "--manifest", "exp.cfg", "--seed", "0",
                                "--out", "run"],
                               cwd=workdir, env=env, check=True)
            written.append({name: (workdir / "run" / name).read_bytes()
                            for name in ("model.ckpt", "history.csv",
                                         "eval.json")})
        assert written[0] == written[1]

    def test_synth_and_train_same_bytes_twice_under_the_nehalem_kernels(
            self, workdir, nehalem_env):
        # a second BLAS kernel must keep the CLI reproducible too; whether
        # its bits match the default kernel's is not part of the promise
        manifest = {key: value for key, value in BASE.items()
                    if key != "model.blocks"}
        manifest.update({"data.trace_len": "200", "train.epochs": "2"})
        written = []
        for run_dir in (workdir / "a", workdir / "b"):
            run_dir.mkdir()
            (run_dir / "exp.cfg").write_text(format_manifest(manifest),
                                             encoding="utf-8")
            for argv in (["synth", "--out", "data.txt"],
                         ["train", "--out", "run"]):
                subprocess.run([sys.executable, "-m", "wfaug.cli", *argv,
                                "--manifest", "exp.cfg", "--seed", "0"],
                               cwd=run_dir, env=nehalem_env, check=True)
            written.append({name: (run_dir / "run" / name).read_bytes()
                            for name in ("model.ckpt", "history.csv")})
        assert written[0] == written[1]


class TestOneExperiment:
    """The CLI's per-seed steps and ``run_experiment`` are one experiment."""

    @pytest.mark.parametrize("tuned", [False, True], ids=["aug", "tune"])
    @pytest.mark.parametrize("world", ["closed", "open"])
    def test_cli_gives_run_experiments_rows(self, workdir, world, tuned):
        # both front ends apply the operators in the one order, OPERATORS
        if world == "open":
            open_world_here(workdir)
        else:
            synth_here()
        (workdir / "aug.cfg").write_text(
            "aug.r_max = 4\naug.m_len = 6\naug.alpha = 0.2\n",
            encoding="utf-8")
        seeds = range(3)
        world_flag = ["--open-world"] if world == "open" else []
        for s in map(str, seeds):
            aug_cfg = "aug.cfg"
            if tuned:
                assert run("tune", "--manifest", "exp.cfg", "--seed", s,
                           "--budget", "1", "--out", f"tuned{s}") == 0
                aug_cfg = f"tuned{s}/aug_params.cfg"
            assert run("train", "--manifest", "exp.cfg", "--manifest",
                       aug_cfg, "--seed", s, "--out", f"run{s}") == 0
            assert run("eval", "--manifest", "exp.cfg", "--seed", s,
                       "--checkpoint", f"run{s}/model.ckpt", *world_flag,
                       "--out", f"run{s}") == 0
        assert run("report", *(f"run{s}" for s in seeds),
                   "--out", "summary") == 0

        data = load_dataset(workdir / "data.txt", 48)
        m = Manifest(BASE)
        cfg = ExperimentConfig(
            model=model_config_from_manifest(m, 48, data.output_width),
            train=train_config_from_manifest(m, 0),
            split=split_spec_from_manifest(m, 0),
            aug=None if tuned else AugConfig(r_max=4, m_len=6, alpha=0.2),
            tune=TuneSpec(budget_per_param=1, proxy_epochs=1)
            if tuned else None)
        report = run_experiment(data, cfg, seeds)

        def split_tuned(values):
            tuned_values = {k: v for k, v in values.items()
                            if k.startswith("tuned_")}
            return {k: v for k, v in values.items()
                    if k not in tuned_values}, tuned_values

        for s, row in zip(seeds, report.per_seed):
            metrics, tuned_values = split_tuned(row)
            payload = json.loads((workdir / f"run{s}" / "eval.json")
                                 .read_text())
            assert payload["world"] == world
            assert payload["metrics"] == metrics
            if tuned:
                fragment = parse_manifest_text(
                    (workdir / f"tuned{s}" / "aug_params.cfg").read_text())
                assert {f"tuned_{k[4:]}": float(v)
                        for k, v in fragment.items()} == tuned_values
        summary = json.loads((workdir / "summary" / "report.json").read_text())
        assert summary["mean"] == split_tuned(report.mean)[0]
        assert summary["std"] == split_tuned(report.std)[0]


# an out-of-range value for every field that a config class checks
CHECKED = {"split.shots": "0", "split.val_per_class": "-1",
           "split.test_per_class": "-1", "aug.r_max": "0", "aug.m_len": "-1",
           "aug.alpha": "0", "tpe.mode": "grid", "tpe.budget_per_param": "0",
           "tpe.proxy_epochs": "0", "train.epochs": "0",
           "train.batch_size": "0", "train.lr": "0"}


class TestRefusalsNameTheirKey:
    """A value that SplitSpec, AugConfig, TuneSpec or TrainConfig refuses
    ends as one ``error: <key> …`` line, exit 1 and nothing written."""

    def refused(self, workdir, capsys, key, *argv):
        synth_here()
        before = set(os.listdir(workdir))
        command = "tune" if key.startswith("tpe.") else "train"
        assert run(command, "--manifest", "exp.cfg", *argv,
                   "--out", "out") == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith(f"error: {key} ")
        assert set(os.listdir(workdir)) == before

    def test_table_covers_every_config_key(self):
        assert set(CHECKED) == {key for key in KNOWN_KEYS if key.split(".")[0]
                                in ("split", "aug", "tpe", "train")}

    @pytest.mark.parametrize("key", list(CHECKED))
    def test_manifest_value(self, workdir, capsys, key):
        (workdir / "bad.cfg").write_text(f"{key} = {CHECKED[key]}\n",
                                         encoding="utf-8")
        self.refused(workdir, capsys, key, "--manifest", "bad.cfg")

    @pytest.mark.parametrize("flag", ["--mode", "--budget"])
    def test_flag_value(self, workdir, capsys, flag):
        key = cli.COMMANDS["tune"][2][flag]
        self.refused(workdir, capsys, key, flag, CHECKED[key])


class TestManifestPrecedence:
    def test_every_flag_stores_under_its_manifest_key(self):
        parser = build_parser()
        commands, = [action for action in parser._actions
                     if isinstance(action, argparse._SubParsersAction)]
        dests = {action.dest for p in (parser, *commands.choices.values())
                 for action in p._actions}
        assert dests - set(KNOWN_KEYS) == {
            "help", "command", "manifest", "verbose", "checkpoint",
            "open_world", "runs"}
        assert dests & set(KNOWN_KEYS) == {
            "run.seed", "out.dir", "data.classes", "data.per_class",
            "data.trace_len", "data.noise", "tpe.mode",
            "tpe.budget_per_param"}

    @pytest.mark.parametrize("argv, err", [
        (("synth", "--classes", "x", "--out", "x.txt"),
         "error: manifest key 'data.classes': 'x' is not an int\n"),
        (("synth", "--manifest", "exp.cfg", "--len", "1_00", "--out", "x.txt"),
         "error: manifest key 'data.trace_len': '1_00' is not an int\n"),
        (("tune", "--manifest", "exp.cfg", "--mode", "grid", "--out", "t"),
         "error: tpe.mode must be 'sequential' or 'independent'\n"),
        (("report", "r", "--seed", "+1", "--out", "s"),
         "error: manifest key 'run.seed': '+1' is not an int\n")],
        ids=["classes", "len", "mode", "seed"])
    def test_bad_flag_value_is_one_error_line(self, workdir, capsys, argv,
                                              err):
        assert run(*argv) == 1
        assert capsys.readouterr() == ("", err)
        assert not {"x.txt", "t", "s"} & set(os.listdir(workdir))

    def test_long_flag_value_is_echoed_short(self, workdir, capsys):
        assert run("synth", "--manifest", "exp.cfg", "--seed", "7" * 4301,
                   "--out", "x.txt") == 1
        out, err = capsys.readouterr()
        line, = err.splitlines()
        assert out == "" and len(line) < 200
        assert line.startswith("error: manifest key 'run.seed': '7777")
        assert not (workdir / "x.txt").exists()

    @pytest.mark.parametrize("key, value", [
        ("model.blocks", "1" * 5000 + ":1"),
        ("model.blocks", "4:1:" + "x" * 5000)],
        ids=["channels", "pool"])
    def test_long_manifest_value_is_echoed_short(self, workdir, capsys, key,
                                                 value):
        synth_here()
        (workdir / "long.cfg").write_text(
            format_manifest({key: value, "aug.r_max": "2"}), encoding="utf-8")
        assert run("train", "--manifest", "exp.cfg", "--manifest", "long.cfg",
                   "--out", "run") == 1
        out, err = capsys.readouterr()
        line, = err.splitlines()
        assert out == "" and len(line) < 200
        assert line.startswith(f"error: {key} ")
        assert not (workdir / "run").exists()

    def test_long_unknown_key_is_echoed_short(self, workdir, capsys):
        (workdir / "long.cfg").write_text("k" * 5000 + " = 1\n",
                                          encoding="utf-8")
        assert run("synth", "--manifest", "long.cfg", "--out", "x.txt") == 1
        out, err = capsys.readouterr()
        line, = err.splitlines()
        assert out == "" and len(line) < 200
        assert line.startswith("error: long.cfg:1: unknown key 'kkkk")
        assert not (workdir / "x.txt").exists()

    def test_later_manifest_overrides_earlier(self, workdir):
        synth_here()
        (workdir / "small.cfg").write_text("train.epochs = 2\n",
                                           encoding="utf-8")
        assert run("train", "--manifest", "exp.cfg", "--manifest",
                   "small.cfg", "--seed", "0", "--out", "short") == 0
        history = (workdir / "short" / "history.csv").read_text().splitlines()
        assert len(history) == 1 + 2

    def test_seed_flag_beats_manifest(self, workdir):
        synth_here()
        (workdir / "seeded.cfg").write_text("run.seed = 5\n",
                                            encoding="utf-8")
        assert run("train", "--manifest", "exp.cfg", "--manifest",
                   "seeded.cfg", "--seed", "2", "--out", "r") == 0
        assert run("eval", "--manifest", "exp.cfg", "--seed", "2",
                   "--checkpoint", "r/model.ckpt", "--out", "r") == 0
        payload = json.loads((workdir / "r" / "eval.json").read_text())
        assert payload["seed"] == 2
