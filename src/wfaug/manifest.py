"""Line-oriented experiment configuration.

Format: UTF-8 text, one ``section.key = value`` per line, ``#`` starts a
comment, blank lines ignored. Keys come from a fixed registry; anything else
is rejected with the offending file and line. Each field of SplitSpec,
AugConfig, TuneSpec and TrainConfig is a split.*, aug.*, tpe.* or train.* key
(except seed, which run.seed sets), and a value its class refuses is reported
under that key; an aug.r_max, aug.m_len or aug.alpha value switches its
operator on. Later files override earlier ones when several are merged, and
command-line flags, whose values are manifest text too, come last.
``read_value`` reads every value as the kind KNOWN_KEYS gives it.
"""

from __future__ import annotations

import os
from dataclasses import MISSING, fields

from .augment import OPERATOR_PARAMS, AugConfig, length_limits
from .evaluate import TuneSpec
from .nn import ConvBlock, ModelConfig, TrainConfig, default_model_config
from .traces import SplitSpec


class ManifestError(ValueError):
    """Raised for unparseable, unknown or ill-typed manifest content."""


def _field_keys(section: str, cls) -> dict:
    """A key per config field but seed (run.seed sets it); "int | None"
    reads as int (absent is None)."""
    return {f"{section}.{f.name}": f.type.split(" | ")[0]
            for f in fields(cls) if f.name != "seed"}


# key -> value kind; the registry doubles as documentation of the format
KNOWN_KEYS = {
    "run.seed": "int",
    "out.dir": "str",
    "data.path": "str",
    "data.trace_len": "int",
    "data.classes": "int",
    "data.per_class": "int",
    "data.noise": "float",
    **_field_keys("split", SplitSpec),
    **_field_keys("aug", AugConfig),
    **_field_keys("tpe", TuneSpec),
    "model.blocks": "str",
    "model.kernel": "int",
    "model.fc": "str",
    **_field_keys("train", TrainConfig),
}

_MISSING = object()


def _echo(raw: str) -> str:
    """``raw`` quoted; past 40 characters, its first 20 and its length."""
    return (repr(raw) if len(raw) <= 40 else
            f"{raw[:20]!r}... ({len(raw)} characters)")


def read_value(raw: str, kind: str, what: str):
    """``raw`` as a ``kind`` value, or a ManifestError naming ``what``.

    An int is read only as ``str`` writes it (no ``+``, ``_``, spaces,
    leading zeros, ``-0`` or non-ASCII digits), a float only as ASCII
    without ``_`` or spaces; a str is taken as is; errors show ``_echo(raw)``.
    """
    if kind == "str":
        return raw
    try:
        value = int(raw) if kind == "int" else float(raw)
    except ValueError:  # also an int past Python's digit limit
        value = None
    if value is not None and (str(value) == raw if kind == "int" else
                              raw.isascii() and raw == raw.strip()
                              and "_" not in raw):
        return value
    raise ManifestError(f"{what}: {_echo(raw)} is not "
                        f"{'an' if kind == 'int' else 'a'} {kind}")


def parse_manifest_text(text: str, source: str = "<string>") -> dict:
    """Parse one manifest document into a raw key -> string map."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ManifestError(f"{source}:{lineno}: expected 'key = value'")
        key, value = key.strip(), value.strip()
        if key not in KNOWN_KEYS:
            raise ManifestError(f"{source}:{lineno}: unknown key {_echo(key)}")
        if key in values:
            raise ManifestError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def load_manifest_file(path) -> dict:
    if not os.path.exists(path):
        raise ManifestError(f"manifest file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{path}: not UTF-8 text ({exc})") from None
    return parse_manifest_text(text, source=str(path))


class Manifest:
    """Merged manifest values with typed, registry-checked access."""

    def __init__(self, *value_maps: dict):
        merged: dict[str, str] = {}
        for values in value_maps:
            merged.update(values)
        self.values = merged

    @classmethod
    def from_files(cls, paths, *overrides: dict) -> "Manifest":
        """The files in order, then ``overrides`` (raw strings) on top."""
        return cls(*[load_manifest_file(p) for p in paths], *overrides)

    def has(self, key: str) -> bool:
        return key in self.values

    def get(self, key: str, default=_MISSING):
        """Typed lookup. Without a default, a missing key is an error."""
        kind = KNOWN_KEYS.get(key)
        if kind is None:
            raise ManifestError(f"unknown manifest key {key!r}")
        if key not in self.values:
            if default is _MISSING:
                raise ManifestError(f"missing required manifest key {key!r}")
            return default
        return read_value(self.values[key], kind, f"manifest key {key!r}")


def format_manifest(values: dict) -> str:
    """Render keys back to manifest syntax (registry order, one per line)."""
    unknown = set(values) - set(KNOWN_KEYS)
    if unknown:
        raise ManifestError(f"unknown manifest keys {sorted(unknown)}")
    lines = [f"{key} = {values[key]}" for key in KNOWN_KEYS if key in values]
    return "\n".join(lines) + "\n"


def _config(m: Manifest, section: str, cls, **given):
    """``cls`` from ``given`` and the ``section.<field>`` keys the manifest
    sets; the class holds the defaults, and a field without one is required."""
    values = {}
    for f in fields(cls):
        key = f"{section}.{f.name}"
        required = f.default is MISSING and f.default_factory is MISSING
        if f.name not in given and (required or m.has(key)):
            values[f.name] = m.get(key)
    return _checked(section, cls, **values, **given)


def _checked(section: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; its ValueError, whose message begins with
    the refused field's name, as a ManifestError naming ``section.<field>``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ManifestError(f"{section}.{exc}") from None


def aug_config_from_manifest(m: Manifest, trace_len: int) -> AugConfig | None:
    """The augmentation config running each operator whose aug.r_max,
    aug.m_len or aug.alpha key is set, or None when none is set."""
    params = {name: m.get(f"aug.{name}") for name in OPERATOR_PARAMS.values()
              if m.has(f"aug.{name}")}
    if not params:
        return None
    cfg = _checked("aug", AugConfig.from_params, params)
    for name, limit in length_limits(trace_len).items():
        value = getattr(cfg, name)
        if value is not None and value > limit:
            relation = "<" if limit < trace_len else "<="
            raise ManifestError(f"aug.{name} = {value} must be {relation} "
                                f"trace length {trace_len}")
    return cfg


def split_spec_from_manifest(m: Manifest, seed: int) -> SplitSpec:
    return _config(m, "split", SplitSpec, seed=seed)


def train_config_from_manifest(m: Manifest, seed: int) -> TrainConfig:
    return _config(m, "train", TrainConfig, seed=seed)


def tune_spec_from_manifest(m: Manifest) -> TuneSpec:
    return _config(m, "tpe", TuneSpec)


def _parse_block(item: str, kernel: int) -> ConvBlock:
    what, parts = f"model.blocks item {_echo(item)}", item.split(":")
    if len(parts) not in (2, 3):
        raise ManifestError(f"{what} must be 'channels:dilation' or "
                            f"'channels:dilation:pool'")
    out_channels, dilation = (read_value(part, "int", what)
                              for part in parts[:2])
    pool = parts[2] if len(parts) == 3 else "none"
    try:
        return ConvBlock(out_channels, kernel=kernel, dilation=dilation,
                         pool=pool)
    except ValueError as exc:
        raise ManifestError(f"{what}: {exc}") from None


def model_config_from_manifest(m: Manifest, input_len: int,
                               num_classes: int) -> ModelConfig:
    """model.blocks as 'ch:dil[:pool],...'; model.fc lists hidden widths.

    Without model.blocks the stock architecture is used, and the other
    model.* keys must be absent (they would be silently ignored otherwise).
    """
    if not m.has("model.blocks"):
        for key in ("model.kernel", "model.fc"):
            if m.has(key):
                raise ManifestError(f"{key} requires model.blocks")
        return default_model_config(input_len, num_classes)
    kernel = m.get("model.kernel", 3)
    blocks = tuple(_parse_block(item.strip(), kernel)
                   for item in m.get("model.blocks").split(","))
    hidden = tuple(read_value(w.strip(), "int", "model.fc")
                   for w in m.get("model.fc", "").split(",") if w.strip())
    try:
        return ModelConfig(input_len=input_len, num_classes=num_classes,
                           blocks=blocks, fc=hidden + (num_classes,))
    except ValueError as exc:
        raise ManifestError(f"model configuration invalid: {exc}") from None
