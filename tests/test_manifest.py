"""Manifest parsing, typed access and config-building tests."""

import hashlib
import re
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from wfaug.augment import (MASKING, MIXING, OPERATORS, ROTATION, AugConfig,
                           check_order, length_limits, sample_mask)
from wfaug.cli import main
from wfaug.evaluate import TuneSpec, fit_spaces_to_length
from wfaug.manifest import (KNOWN_KEYS, Manifest, ManifestError,
                            aug_config_from_manifest, format_manifest,
                            load_manifest_file, model_config_from_manifest,
                            operator_order, parse_manifest_text,
                            parse_operator_order,
                            split_spec_from_manifest,
                            train_config_from_manifest,
                            tune_spec_from_manifest)
from wfaug.nn import TrainConfig, default_model_config
from wfaug.tpe import SearchSpace
from wfaug.traces import SplitSpec


class TestParsing:
    def test_basic_lines(self):
        text = "data.path = traces.txt\nsplit.shots = 5\n"
        assert parse_manifest_text(text) == {"data.path": "traces.txt",
                                             "split.shots": "5"}

    def test_comments_and_blanks_skipped(self):
        text = "# experiment\n\n  # indented comment\ntrain.lr = 0.01\n"
        assert parse_manifest_text(text) == {"train.lr": "0.01"}

    def test_whitespace_tolerated(self):
        assert parse_manifest_text("  train.epochs=  40 ") == {
            "train.epochs": "40"}

    def test_missing_equals_names_line(self):
        with pytest.raises(ManifestError, match=r"m\.cfg:2"):
            parse_manifest_text("train.lr = 0.1\ntrain.epochs 40", "m.cfg")

    def test_unknown_key_names_line_and_key(self):
        with pytest.raises(ManifestError, match=r"m\.cfg:1.*'data\.bogus'"):
            parse_manifest_text("data.bogus = 3", "m.cfg")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ManifestError, match="duplicate.*train.lr"):
            parse_manifest_text("train.lr = 1\ntrain.lr = 2")

    def test_missing_file_named(self, tmp_path):
        with pytest.raises(ManifestError, match="not found"):
            load_manifest_file(tmp_path / "absent.cfg")

    def test_non_utf8_file_named(self, tmp_path):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"data.path = caf\xe9.txt\n")
        with pytest.raises(ManifestError, match="latin1.cfg: not UTF-8"):
            load_manifest_file(path)


class TestTypedAccess:
    def manifest(self, **values):
        return Manifest({k: str(v) for k, v in values.items()})

    def test_int_float_str(self):
        m = self.manifest(**{"split.shots": 5, "train.lr": "1e-2",
                             "tpe.mode": "sequential"})
        assert m.get("split.shots") == 5
        assert m.get("train.lr") == 0.01
        assert m.get("tpe.mode") == "sequential"

    def test_bad_value_names_key(self):
        with pytest.raises(ManifestError, match="'split.shots'.*'five'"):
            self.manifest(**{"split.shots": "five"}).get("split.shots")
        with pytest.raises(ManifestError, match="'aug.alpha'.*'yes'"):
            self.manifest(**{"aug.alpha": "yes"}).get("aug.alpha")

    def test_bad_value_names_its_kind(self):
        with pytest.raises(ManifestError, match=r"^manifest key 'split\.shots'"
                           r": '1e3' is not an int$"):
            self.manifest(**{"split.shots": "1e3"}).get("split.shots")
        with pytest.raises(ManifestError, match=r"'aug\.alpha': 'yes' is not "
                           r"a float$"):
            self.manifest(**{"aug.alpha": "yes"}).get("aug.alpha")

    @pytest.mark.parametrize("key, raw", [
        ("split.shots", "1_0"), ("split.shots", "\uff15"),
        ("split.shots", "+3"), ("split.shots", "007"), ("run.seed", "-0"),
        ("train.lr", "1_0e-3"), ("train.lr", "\uff10.\uff11")])
    def test_refuses_spellings_str_does_not_write(self, key, raw):
        with pytest.raises(ManifestError, match=re.escape(f"'{key}': {raw!r}")):
            self.manifest(**{key: raw}).get(key)

    @pytest.mark.parametrize("key, raw, want", [
        ("run.seed", "-3", -3), ("train.lr", ".5", 0.5), ("train.lr", "inf", float("inf"))])
    def test_reads_what_int_and_float_write(self, key, raw, want):
        assert self.manifest(**{key: raw}).get(key) == want

    def test_long_refused_value_is_echoed_short(self):
        with pytest.raises(ManifestError, match=re.escape(
                f"'train.lr': {'x' * 40!r} is not a float")):
            self.manifest(**{"train.lr": "x" * 40}).get("train.lr")
        with pytest.raises(ManifestError, match=re.escape(
                "'train.lr': '12345678901234567890'... (41 characters) is "
                "not a float")):
            self.manifest(**{"train.lr": "1234567890" * 4 + "x"}).get(
                "train.lr")

    def test_nan_reaches_the_config_checks(self):
        assert np.isnan(self.manifest(**{"train.lr": "nan"}).get("train.lr"))

    def test_missing_required_names_key(self):
        with pytest.raises(ManifestError, match="'data.path'"):
            Manifest({}).get("data.path")

    def test_default_returned_when_absent(self):
        assert Manifest({}).get("train.epochs", 150) == 150

    def test_unknown_key_lookup_rejected(self):
        with pytest.raises(ManifestError, match="unknown"):
            Manifest({}).get("data.bogus", 1)

    def test_later_map_wins(self):
        m = Manifest({"train.lr": "0.1"}, {"train.lr": "0.2"})
        assert m.get("train.lr") == 0.2


class TestRoundTrip:
    def test_format_then_parse(self):
        values = {"data.path": "d.txt", "split.shots": "5",
                  "aug.alpha": "0.2"}
        assert parse_manifest_text(format_manifest(values)) == values

    def test_registry_order(self):
        text = format_manifest({"train.lr": "0.1", "data.path": "d.txt"})
        assert text.index("data.path") < text.index("train.lr")

    def test_unknown_key_rejected(self):
        with pytest.raises(ManifestError, match="bogus"):
            format_manifest({"bogus": "1"})


class TestOperatorOrder:
    def test_valid_permutation(self):
        assert parse_operator_order("mixing, rotation, masking") == \
            (MIXING, ROTATION, MASKING)

    @pytest.mark.parametrize("raw", ["rotation,masking",
                                     "rotation,rotation,masking",
                                     "rotation,masking,mixing,extra",
                                     "spin,masking,mixing"])
    def test_bad_orders_rejected(self, raw):
        with pytest.raises(ManifestError, match="aug.order"):
            parse_operator_order(raw)


class TestAugConfig:
    def test_all_disabled_is_none(self):
        m = Manifest({"aug.order": "mixing,rotation,masking"})
        assert aug_config_from_manifest(m, 100) is None
        assert aug_config_from_manifest(Manifest({}), 100) is None

    def test_r_max_alone_is_rotation_only(self):
        cfg = aug_config_from_manifest(Manifest({"aug.r_max": "5"}), 1000)
        assert (cfg.r_max, cfg.m_len, cfg.alpha) == (5, None, None)

    def test_explicit_values_and_order(self):
        m = Manifest({"aug.r_max": "6", "aug.m_len": "12",
                      "aug.alpha": "0.4",
                      "aug.order": "masking,mixing,rotation"})
        cfg = aug_config_from_manifest(m, 64)
        assert (cfg.r_max, cfg.m_len, cfg.alpha) == (6, 12, 0.4)
        assert cfg.order == (MASKING, MIXING, ROTATION)

    def test_order_without_key_derives_from_seed(self):
        # it does not: without aug.order both builders give OPERATORS, the
        # order AugConfig and TuneSpec default to, at every seed
        for seed in range(6):
            m = Manifest({"aug.alpha": "0.4", "run.seed": str(seed)})
            assert operator_order(m) == OPERATORS
            assert aug_config_from_manifest(m, 64).order == OPERATORS
            assert tune_spec_from_manifest(m).order == OPERATORS

    def test_mask_longer_than_trace_names_key(self):
        m = Manifest({"aug.m_len": "64"})
        with pytest.raises(ManifestError, match="aug.m_len"):
            aug_config_from_manifest(m, 64)

    def test_rotation_beyond_trace_names_key(self):
        m = Manifest({"aug.r_max": "65"})
        with pytest.raises(ManifestError, match="aug.r_max"):
            aug_config_from_manifest(m, 64)

    def test_set_value_always_length_checked(self):
        # a set value switches its operator on, so it always meets the rule
        m = Manifest({"aug.r_max": "5", "aug.m_len": "500"})
        with pytest.raises(ManifestError, match="^aug.m_len = 500 must"):
            aug_config_from_manifest(m, 64)


class TestOneRulePerFact:
    """The manifest, the tune grids and the samplers apply the same length
    rule and the same operator-order check, each with its own message."""

    @pytest.mark.parametrize("trace_len", [2, 10, 64])
    def test_length_rule_agrees_everywhere(self, trace_len):
        limits = length_limits(trace_len)
        assert limits == {"m_len": trace_len - 1, "r_max": trace_len}
        for name, limit in limits.items():
            values = tuple(range(1, trace_len + 3))
            fitted = fit_spaces_to_length(
                {name: SearchSpace(name, values)}, trace_len)
            assert max(fitted[name].grid) == limit
            for value, fits in ((limit, True), (limit + 1, False)):
                m = Manifest({f"aug.{name}": str(value)})
                if fits:
                    assert getattr(aug_config_from_manifest(m, trace_len),
                                   name) == value
                else:
                    with pytest.raises(ManifestError,
                                       match=f"^aug.{name} = {value} must"):
                        aug_config_from_manifest(m, trace_len)
        rng = np.random.default_rng(0)
        # the longest mask fits at the first or the second cell
        assert set(sample_mask(limits["m_len"], trace_len, rng,
                               50).tolist()) == {0, 1}
        with pytest.raises(ValueError,
                           match="^m_len must be >= 0 and < trace length$"):
            sample_mask(limits["m_len"] + 1, trace_len, rng, 1)

    def test_manifest_length_messages_unchanged(self):
        for value, text in (("aug.m_len = 64", "<"),
                            ("aug.r_max = 65", "<=")):
            name, _, number = value.partition(" = ")
            m = Manifest({name: number})
            with pytest.raises(ManifestError) as err:
                aug_config_from_manifest(m, 64)
            assert str(err.value) == f"{value} must be {text} trace length 64"

    @pytest.mark.parametrize("order", [(ROTATION, MASKING),
                                       (ROTATION, ROTATION, MIXING),
                                       OPERATORS + ("extra",),
                                       ("spin", MASKING, MIXING)])
    def test_order_check_agrees_everywhere(self, order):
        message = "^order must be a permutation of"
        for build in (check_order, lambda o: AugConfig(order=o),
                      lambda o: TuneSpec(order=o)):
            with pytest.raises(ValueError, match=message):
                build(order)
        with pytest.raises(ManifestError,
                           match="^aug.order must list rotation, masking, "
                                 "mixing exactly once, got "):
            parse_operator_order(",".join(order))
        good = (MIXING, MASKING, ROTATION)
        assert check_order(list(good)) == good
        assert AugConfig(order=good).order == TuneSpec(order=good).order
        assert parse_operator_order(",".join(good)) == good


class TestConfigBuilders:
    def test_split_spec(self):
        m = Manifest({"split.shots": "5", "split.val_per_class": "3",
                      "split.test_per_class": "2"})
        spec = split_spec_from_manifest(m, seed=4)
        assert (spec.shots, spec.val_per_class, spec.test_per_class,
                spec.seed) == (5, 3, 2, 4)

    def test_split_spec_missing_key(self):
        with pytest.raises(ManifestError, match="split.shots"):
            split_spec_from_manifest(Manifest({}), seed=0)

    def test_train_config_defaults_and_overrides(self):
        cfg = train_config_from_manifest(Manifest({}), seed=3)
        assert (cfg.epochs, cfg.batch_size, cfg.lr, cfg.seed) == (
            150, 32, 1e-3, 3)
        m = Manifest({"train.epochs": "10", "train.lr": "0.5"})
        cfg = train_config_from_manifest(m, seed=0)
        assert (cfg.epochs, cfg.batch_size, cfg.lr) == (10, 32, 0.5)

    def test_tune_spec_defaults_and_flag_precedence(self):
        # flag precedence: test_cli.py TestTune::test_flags_beat_tpe_keys
        m = Manifest({"tpe.mode": "independent", "tpe.budget_per_param": "4",
                      "tpe.proxy_epochs": "2", "tpe.gamma": "0.5"})
        spec = tune_spec_from_manifest(m)
        assert (spec.mode, spec.budget_per_param, spec.proxy_epochs,
                spec.gamma) == ("independent", 4, 2, 0.5)

    def test_tune_spec_empty_manifest(self):
        spec = tune_spec_from_manifest(Manifest({}))
        assert spec.mode == "sequential"
        assert spec.budget_per_param is None
        assert spec.proxy_epochs == 30

    # a value other than the default for every field with a key of its own
    @pytest.mark.parametrize("section,cls,build,values", [
        ("split", SplitSpec, lambda m: split_spec_from_manifest(m, seed=0),
         {"shots": 4, "val_per_class": 2, "test_per_class": 6}),
        ("aug", AugConfig, lambda m: aug_config_from_manifest(m, 1000),
         {"r_max": 7, "m_len": 9, "alpha": 0.7}),
        ("tpe", TuneSpec, lambda m: tune_spec_from_manifest(m),
         {"mode": "independent", "budget_per_param": 4, "proxy_epochs": 2,
          "gamma": 0.5, "n_startup": 3, "n_candidates": 7}),
        ("train", TrainConfig, lambda m: train_config_from_manifest(m, 0),
         {"epochs": 9, "batch_size": 5, "lr": 0.25}),
    ], ids=["split", "aug", "tpe", "train"])
    def test_every_field_round_trips_through_its_key(self, section, cls,
                                                     build, values):
        own_keys = {"seed", "order"}
        by_name = {f.name: f for f in fields(cls) if f.name not in own_keys}
        assert set(values) == set(by_name)
        for name, value in values.items():
            assert by_name[name].default in (MISSING, None) or \
                value != by_name[name].default
        raw = {f"{section}.{name}": str(v) for name, v in values.items()}
        cfg = build(Manifest(parse_manifest_text(format_manifest(raw))))
        assert {name: getattr(cfg, name) for name in values} == values


class TestModelConfig:
    def test_default_architecture_without_blocks(self):
        cfg = model_config_from_manifest(Manifest({}), 128, 5)
        assert cfg == default_model_config(128, 5)

    def test_blocks_and_fc_parsed(self):
        m = Manifest({"model.blocks": "8:1:max2, 16:2", "model.kernel": "5",
                      "model.fc": "32"})
        cfg = model_config_from_manifest(m, 64, 4)
        assert [b.out_channels for b in cfg.blocks] == [8, 16]
        assert [b.dilation for b in cfg.blocks] == [1, 2]
        assert [b.pool for b in cfg.blocks] == ["max2", "none"]
        assert all(b.kernel == 5 for b in cfg.blocks)
        assert cfg.fc == (32, 4)

    def test_fc_defaults_to_head_only(self):
        m = Manifest({"model.blocks": "8:1"})
        assert model_config_from_manifest(m, 64, 3).fc == (3,)

    def test_stray_model_keys_without_blocks_rejected(self):
        with pytest.raises(ManifestError, match="model.kernel"):
            model_config_from_manifest(Manifest({"model.kernel": "5"}), 64, 3)

    @pytest.mark.parametrize("blocks", ["8", "8:1:max2:zzz", "a:1", "8:1:avg",
                                        "3_2:1", "8:+1"])
    def test_bad_block_items_rejected(self, blocks):
        with pytest.raises(ManifestError, match="model.blocks"):
            model_config_from_manifest(Manifest({"model.blocks": blocks}),
                                       64, 3)

    def test_bad_fc_rejected(self):
        m = Manifest({"model.blocks": "8:1", "model.fc": "32,ten"})
        with pytest.raises(ManifestError, match="model.fc"):
            model_config_from_manifest(m, 64, 3)

    @pytest.mark.parametrize("fc", ["\uff13\uff12", "32, +16"])
    def test_fc_widths_read_as_str_writes_them(self, fc):
        m = Manifest({"model.blocks": "8:1", "model.fc": fc})
        with pytest.raises(ManifestError, match="model.fc"):
            model_config_from_manifest(m, 64, 3)

    def test_fc_widths_may_have_spaces_around_commas(self):
        m = Manifest({"model.blocks": "8:1", "model.fc": "32, 16"})
        assert model_config_from_manifest(m, 64, 3).fc == (32, 16, 3)

    def test_registry_keys_and_kinds(self):
        assert KNOWN_KEYS == {
            "run.seed": "int", "out.dir": "str", "data.path": "str",
            "data.trace_len": "int", "data.classes": "int",
            "data.per_class": "int", "data.noise": "float",
            "split.shots": "int", "split.val_per_class": "int",
            "split.test_per_class": "int", "aug.r_max": "int",
            "aug.m_len": "int", "aug.alpha": "float", "aug.order": "str",
            "tpe.gamma": "float",
            "tpe.n_startup": "int", "tpe.n_candidates": "int",
            "tpe.budget_per_param": "int", "tpe.mode": "str",
            "tpe.proxy_epochs": "int", "model.blocks": "str",
            "model.kernel": "int", "model.fc": "str", "train.epochs": "int",
            "train.batch_size": "int", "train.lr": "float"}

    def test_registry_covers_spec_pinned_keys(self):
        pinned = {"aug.r_max", "aug.m_len", "aug.alpha", "aug.order",
                  "tpe.gamma", "tpe.n_startup",
                  "tpe.n_candidates", "tpe.budget_per_param", "tpe.mode",
                  "tpe.proxy_epochs"}
        assert pinned <= set(KNOWN_KEYS)


def readme_manifests() -> list:
    """The manifest text in README.md: every fenced block without a language
    tag, and the body of every ``<<'EOF'`` here-document."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    # prose, tag, block, closing tag, prose, tag, block, ...
    parts = re.split(r"^```(.*)\n", text, flags=re.M)
    bare = [block for tag, block in zip(parts[1::4], parts[2::4]) if not tag]
    return bare + re.findall(r"<<'EOF'\n(.*?)^EOF$", text, flags=re.M | re.S)


class TestReadme:
    def test_every_manifest_block_parses(self):
        blocks = readme_manifests()
        assert len(blocks) == 2
        for text in blocks:
            assert parse_manifest_text(text, "README.md")
        merged = Manifest(*(parse_manifest_text(t) for t in blocks))
        cfg = aug_config_from_manifest(merged, merged.get("data.trace_len"))
        assert cfg == AugConfig(r_max=20, m_len=180, alpha=0.1)

    def test_synth_data_is_pinned(self, tmp_path, monkeypatch):
        """The README's data file, byte for byte: a change to the synthesis
        streams shows here and has to be declared."""
        monkeypatch.chdir(tmp_path)
        text = next(t for t in readme_manifests() if "data.classes" in t)
        data = {k: v for k, v in parse_manifest_text(text).items()
                if k.startswith("data.")}
        (tmp_path / "exp.cfg").write_text(format_manifest(data),
                                          encoding="utf-8")
        assert main(["synth", "--manifest", "exp.cfg", "--seed", "7",
                     "--out", "data.txt"]) == 0
        assert hashlib.sha256((tmp_path / "data.txt").read_bytes()).hexdigest() \
            == "d7b336aed207842f9090a07f027e797877656457606bfd054746bfd0cf58555e"
