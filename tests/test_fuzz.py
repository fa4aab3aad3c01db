"""Property tests for the parsers of outside input.

Whatever bytes a trace file, a manifest or a checkpoint holds, its parser
returns a value or raises its own documented error (TraceFormatError,
ManifestError, CheckpointError), never anything else. The trace parser also
reads every file the way a token-at-a-time reference does. Whatever the
eval.json files hold, ``wfaug report`` exits 0, or 1 with an ``error:``
line. The synthesizer and the trace writer make the bytes of their
one-boundary-at-a-time and one-token-at-a-time references, and the
synthesizer's templates the runs of one scalar draw each. Examples are
derandomized so that every run tries the same inputs.
"""

import contextlib
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wfaug.cli import main
from wfaug.manifest import (KNOWN_KEYS, Manifest, ManifestError,
                            load_manifest_file)
from wfaug.nn import (CheckpointError, ConvBlock, Model, ModelConfig,
                      load_checkpoint, save_checkpoint)
from wfaug.nn.model import CHECKPOINT_MAGIC, CHECKPOINT_VERSION
from oracles import (load_dataset_per_token, mask_batch_by_where,
                     mix_batch_by_expression, rotate_batch_by_index,
                     save_dataset_per_token, synth_dataset_per_boundary,
                     synth_template_runs_per_draw)
from wfaug.augment import mask_batch, mix_batch, rotate_batch
from wfaug.traces import (MAX_LABEL, MIN_SYNTH_LEN, Dataset, TraceFormatError,
                          load_dataset, save_dataset, synth_dataset,
                          synth_template_runs)

FUZZ = settings(max_examples=300, derandomize=True, deadline=None)

TINY = ModelConfig(16, 3, (ConvBlock(2, pool="max2"), ConvBlock(3, dilation=2)),
                   fc=(4, 3))

# bytes near each format's own alphabet reach deeper than uniform noise
TRACE_BYTES = st.lists(st.sampled_from(
    [b"0", b"1", b"-1", b"-", b"9", b"\t", b" ", b"\n", b"\r", b"\xff",
     b"99999999999999999999", b"\xe2\x80\xa8"])).map(b"".join)
MANIFEST_BYTES = st.lists(st.sampled_from(
    [b"split.shots", b"train.lr", b"bogus", b" = ", b"=", b"3", b"x",
     b"#", b"\n", b"\r", b"\xe9", b"\xff", b" "])).map(b"".join)
# well-formed lines of every key, with values in and out of each kind's
# spelling, digit runs past Python's int limit among them
MANIFEST_LINES = st.lists(st.tuples(
    st.sampled_from(sorted(KNOWN_KEYS)),
    st.lists(st.sampled_from(["1", "0", "-", "+", "_", ".", "e", "x", "nan",
                              "inf", "\uff15", "9" * 4301]),
             max_size=4).map("".join)
    | st.integers().map(str) | st.floats().map(repr)), max_size=4).map(
        lambda lines: "".join(f"{k} = {v}\n" for k, v in lines).encode())
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 10**13) | st.floats()
    | st.sampled_from(["max2", "none", "", "conv0.w"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["fc", "seed", "pool", "x"]), inner,
                      max_size=3),
    max_leaves=8)
# eval.json documents: near the written shape, any JSON, raw and deep bytes
METRICS = st.dictionaries(
    st.sampled_from(["test_accuracy", "val_accuracy", "n"]),
    st.floats() | st.integers() | st.booleans() | st.text(max_size=2),
    max_size=3)
EVAL_DOCS = (st.fixed_dictionaries({"seed": st.integers() | JSON_VALUES,
                                    "metrics": METRICS | JSON_VALUES})
             | JSON_VALUES).map(lambda doc: json.dumps(doc).encode())
EVAL_BYTES = (EVAL_DOCS | st.binary(max_size=100)
              | st.integers(0, 5000).map(lambda n: b"[" * n + b"]" * n))
# well-formed trace files: labels on both sides of MAX_LABEL, records
# shorter and longer than the trace length they are read at
TRACE_RECORDS = st.lists(st.tuples(
    st.integers(-1, 5) | st.integers(MAX_LABEL - 1, MAX_LABEL + 1),
    st.lists(st.sampled_from(["1", "-1"]), min_size=1, max_size=20)),
    min_size=1, max_size=6).map(
        lambda recs: "".join(f"{label}\t{' '.join(toks)}\n"
                             for label, toks in recs).encode())

# synth_dataset arguments: classes, traces per class, length, noise, seed
SYNTH_ARGS = st.tuples(
    st.integers(2, 5), st.integers(1, 4), st.integers(1, 300),
    st.just(0.0) | st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
    st.integers(-2 ** 63, 2 ** 64 - 1))
# (N, L) direction arrays, with zeros anywhere, and labels for them
DIRECTION_ROWS = st.integers(1, 12).flatmap(lambda length: st.lists(
    st.lists(st.sampled_from([1, -1, 1, -1, 0]), min_size=length,
             max_size=length), min_size=1, max_size=6))
LABELS = st.integers(-1, 5) | st.just(MAX_LABEL)


def write(tmp_path_factory, raw, name):
    path = tmp_path_factory.mktemp("fuzz") / name
    path.write_bytes(raw)
    return path


@FUZZ
@given(raw=st.binary(max_size=200) | TRACE_BYTES)
def test_trace_file_gives_dataset_or_trace_format_error(tmp_path_factory,
                                                        raw):
    path = write(tmp_path_factory, raw, "d.txt")
    try:
        dataset = load_dataset(path, trace_len=8)
    except TraceFormatError:
        return
    assert isinstance(dataset, Dataset) and dataset.traces.shape[1] == 8


def read_trace_file(reader, path, trace_len):
    try:
        return reader(path, trace_len)
    except TraceFormatError as exc:
        return exc


@FUZZ
@given(raw=TRACE_BYTES | TRACE_RECORDS, trace_len=st.integers(1, 16))
# a label above MAX_LABEL before a bad direction on its own line
@example(raw=b"65536\t0\n", trace_len=8)
def test_trace_file_reads_as_the_per_token_reference(tmp_path_factory, raw,
                                                     trace_len):
    path = write(tmp_path_factory, raw, "d.txt")
    want = read_trace_file(load_dataset_per_token, path, trace_len)
    got = read_trace_file(load_dataset, path, trace_len)
    if isinstance(want, TraceFormatError):
        assert isinstance(got, TraceFormatError) and str(got) == str(want)
        return
    assert isinstance(got, Dataset)
    assert got.traces.dtype == want.traces.dtype
    assert got.traces.shape == want.traces.shape
    assert got.traces.tobytes() == want.traces.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.num_classes == want.num_classes


@st.composite
def one_byte_changes(draw):
    """A well-formed trace file with one byte replaced, inserted or
    deleted."""
    raw = draw(TRACE_RECORDS)
    kind = draw(st.sampled_from(["replace", "insert", "delete"]))
    at = draw(st.integers(0, len(raw) - (kind != "insert")))
    byte = draw(st.sampled_from(b"01-9\t \n\r") | st.integers(0, 255))
    return raw[:at] + (b"" if kind == "delete" else bytes([byte])) + raw[
        at + (kind != "insert"):]


@pytest.mark.parametrize("block_cells", [None, 64],
                         ids=["one-block", "16-byte-blocks"])
@FUZZ
@given(raw=one_byte_changes(), trace_len=st.integers(1, 16))
def test_one_byte_change_reads_as_the_per_token_reference(
        tmp_path_factory, block_cells, raw, trace_len):
    """A changed file reads as the reference reads it, message included;
    with small blocks, the reader's block boundaries fall between the
    records."""
    path = write(tmp_path_factory, raw, "d.txt")
    with pytest.MonkeyPatch.context() as patch:
        if block_cells is not None:
            patch.setattr("wfaug.traces._BLOCK_CELLS", block_cells)
        got = read_trace_file(load_dataset, path, trace_len)
    want = read_trace_file(load_dataset_per_token, path, trace_len)
    if isinstance(want, TraceFormatError):
        assert isinstance(got, TraceFormatError) and str(got) == str(want)
    else:
        assert isinstance(got, Dataset)
        assert got.traces.shape == want.traces.shape
        assert got.traces.tobytes() == want.traces.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()
        assert got.num_classes == want.num_classes


@FUZZ
@given(raw=st.binary(max_size=200) | MANIFEST_BYTES | MANIFEST_LINES)
def test_manifest_gives_values_or_manifest_error(tmp_path_factory, raw):
    path = write(tmp_path_factory, raw, "m.cfg")
    try:
        values = load_manifest_file(path)
    except ManifestError:
        return
    assert set(values) <= set(KNOWN_KEYS)
    manifest = Manifest(values)
    for key in values:  # each reads as its kind or is a ManifestError
        try:
            value = manifest.get(key)
        except ManifestError:
            continue
        assert type(value).__name__ == KNOWN_KEYS[key]


@FUZZ
@given(raw=st.binary(max_size=300))
def test_checkpoint_bytes_give_model_or_checkpoint_error(tmp_path_factory,
                                                         raw):
    # arbitrary bytes, and the same bytes behind a valid preamble
    preamble = CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION,
                                              len(raw))
    for body in (raw, preamble + raw):
        path = write(tmp_path_factory, body, "m.ckpt")
        try:
            assert isinstance(load_checkpoint(path), Model)
        except CheckpointError:
            pass


def header_paths(node, prefix=()):
    """Every key and list index path inside a parsed JSON header."""
    yield prefix
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from header_paths(child, prefix + (key,))


@FUZZ
@given(data=st.data())
def test_mutated_header_gives_model_or_checkpoint_error(tmp_path_factory,
                                                        data):
    path = write(tmp_path_factory, b"", "m.ckpt")
    save_checkpoint(Model(TINY, seed=3), path)
    raw = path.read_bytes()
    n = struct.unpack("<I", raw[8:12])[0]
    header = json.loads(raw[12:12 + n])
    for _ in range(data.draw(st.integers(1, 3))):
        paths = [p for p in header_paths(header) if p]
        if not paths:
            break
        where = data.draw(st.sampled_from(paths))
        parent = header
        for step in where[:-1]:
            parent = parent[step]
        if isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[where[-1]]
        else:
            parent[where[-1]] = data.draw(JSON_VALUES)
    text = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(raw[:8] + struct.pack("<I", len(text)) + text
                     + raw[12 + n:])
    try:
        model = load_checkpoint(path)
    except CheckpointError:
        return
    assert isinstance(model, Model)


@FUZZ
@given(bodies=st.lists(EVAL_BYTES, min_size=1, max_size=2))
def test_report_exits_zero_or_with_an_error_line(tmp_path_factory, bodies):
    root = tmp_path_factory.mktemp("report")
    runs = []
    for i, body in enumerate(bodies):
        (root / f"run{i}").mkdir()
        (root / f"run{i}" / "eval.json").write_bytes(body)
        runs.append(str(root / f"run{i}"))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["report", *runs, "--out", str(root / "summary")])
    assert code == 0 or (code == 1 and err.getvalue().startswith("error: "))


def assert_saved_as_reference(tmp_path_factory, dataset):
    """``save_dataset`` writes the bytes of its per-token reference, and they
    load back as ``dataset``; or both refuse, and ``save_dataset`` names the
    row at which the reference stopped writing."""
    tmp = tmp_path_factory.mktemp("save")
    got, want = tmp / "got.txt", tmp / "want.txt"
    try:
        save_dataset_per_token(dataset, want)
    except ValueError as exc:
        row = want.read_bytes().count(b"\n")
        with pytest.raises(ValueError) as err:
            save_dataset(dataset, got)
        assert str(err.value) == f"{exc} (row {row})"
        assert not got.exists()
        return
    save_dataset(dataset, got)
    assert got.read_bytes() == want.read_bytes()
    back = load_dataset(got, dataset.trace_len)
    assert back.traces.tobytes() == dataset.traces.tobytes()
    assert back.labels.tobytes() == dataset.labels.tobytes()


@FUZZ
@given(args=SYNTH_ARGS)
def test_synth_dataset_writes_as_the_per_boundary_reference(tmp_path_factory,
                                                            args):
    if args[2] < MIN_SYNTH_LEN:
        with pytest.raises(ValueError, match=rf"trace_len must be in "
                                             rf"\[{MIN_SYNTH_LEN}, "):
            synth_dataset(*args)
        return
    got, want = synth_dataset(*args), synth_dataset_per_boundary(*args)
    assert got.traces.dtype == want.traces.dtype == np.int8
    assert got.traces.shape == want.traces.shape
    assert got.traces.tobytes() == want.traces.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.num_classes == want.num_classes
    assert (got.traces != 0).any(axis=1).all()
    assert_saved_as_reference(tmp_path_factory, got)


@FUZZ
@given(classes=st.integers(1, 5), trace_len=st.integers(MIN_SYNTH_LEN, 1000),
       seed=st.integers(-2 ** 63, 2 ** 64 - 1))
@example(classes=2, trace_len=MIN_SYNTH_LEN, seed=0)
@example(classes=2, trace_len=1000, seed=2 ** 32)
def test_template_runs_are_the_per_draw_reference_runs(classes, trace_len,
                                                       seed):
    assert synth_template_runs(classes, trace_len, seed) == (
        synth_template_runs_per_draw(classes, trace_len, seed))


@FUZZ
@given(rows=DIRECTION_ROWS, labels=st.lists(LABELS, min_size=6, max_size=6))
def test_save_dataset_writes_as_the_per_token_reference(tmp_path_factory,
                                                        rows, labels):
    labels = np.array(labels[:len(rows)])
    monitored = labels[labels >= 0]
    assert_saved_as_reference(tmp_path_factory, Dataset(
        np.array(rows), labels,
        int(monitored.max()) + 1 if len(monitored) else 0))


@FUZZ
@given(batch=st.integers(1, 19), length=st.integers(1, 299),
       dtype=st.sampled_from(["float32", "float64", "int8"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_rotation_and_masking_write_as_the_index_reference(batch, length,
                                                           dtype, seed):
    """The window-view kernels give the bytes of the index-arithmetic ones,
    signed zeros included, for shifts up to one turn either way and every
    window length up to the whole trace, and leave their input as it was."""
    rng = np.random.default_rng(seed)
    x = rng.choice([-1.5, -1.0, -0.0, 0.0, 1.0, 2.25],
                   size=(batch, length)).astype(dtype)
    before = x.tobytes()
    shifts = rng.integers(-length, length + 1, batch)
    m_len = int(rng.integers(0, length + 1))
    starts = rng.integers(0, length - m_len + 1, batch)
    for got, want in ((rotate_batch(x, shifts),
                       rotate_batch_by_index(x, shifts)),
                      (mask_batch(x, starts, m_len),
                       mask_batch_by_where(x, starts, m_len))):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert x.tobytes() == before


@FUZZ
@given(batch=st.integers(1, 19), length=st.integers(1, 299),
       classes=st.integers(1, 9),
       dtype=st.sampled_from(["float32", "float64", "int8"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mixing_writes_as_the_expression_reference(batch, length, classes,
                                                   dtype, seed):
    """The in-place mixing steps give the bytes of the one-expression form
    for traces and soft labels, signed zeros and weights 0 and 1 included,
    and leave their inputs as they were."""
    rng = np.random.default_rng(seed)
    x = rng.choice([-1.5, -1.0, -0.0, 0.0, 1.0, 2.25],
                   size=(batch, length)).astype(dtype)
    y = rng.dirichlet(np.ones(classes), batch)
    y[rng.random(batch) < 0.3] = -0.0
    before = x.tobytes(), y.tobytes()
    partners = rng.integers(0, batch, batch)
    lams = np.where(rng.random(batch) < 0.3, rng.integers(0, 2, batch),
                    rng.beta(0.2, 0.2, batch))
    got, want = (mix_batch(x, y, partners, lams),
                 mix_batch_by_expression(x, y, partners, lams))
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    assert (x.tobytes(), y.tobytes()) == before


@pytest.mark.parametrize("oracle", [False, True], ids=["conv1d", "per_tap"])
def test_first_block_table_gives_the_block_bytes(request, oracle):
    """For every first-block geometry, looking int8 traces up in the block's
    table gives the bytes of running the block on them, and a model fed
    int8 traces gives the probabilities and features of a float64 feed;
    also with the per-tap reference convolution. A fifth of the weights and
    biases are exactly zero, so that signed zeros meet."""
    if oracle:
        request.getfixturevalue("per_tap_conv")

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(kernel=st.sampled_from([1, 3, 5]), dilation=st.integers(1, 3),
           stride=st.integers(1, 3), causal=st.booleans(),
           pool=st.sampled_from(["none", "max2"]), length=st.integers(16, 300),
           batch=st.integers(0, 40), seed=st.integers(0, 2 ** 32 - 1))
    def check(kernel, dilation, stride, causal, pool, length, batch, seed):
        block = ConvBlock(3, kernel=kernel, dilation=dilation, stride=stride,
                          pool=pool, causal=causal)
        model = Model(ModelConfig(length, 2, (block,), fc=(2,)), seed=0)
        rng = np.random.default_rng(seed)
        model.params[...] = np.where(rng.random(model.params.size) < 0.2, 0.0,
                                     rng.standard_normal(model.params.size))
        x = rng.integers(-1, 2, (batch, length)).astype(np.int8)
        first = model._first_block
        h = x.astype(np.float32)[:, None, :]
        for layer in first.layers:
            h = layer.forward(h)
        got = first.with_table(np.float32).forward(x[:, None, :])
        assert got.shape == h.shape and got.tobytes() == h.tobytes()
        for want, fed in zip(model.forward(x.astype(np.float64)),
                             model.forward(x)):
            assert fed.tobytes() == want.tobytes()

    check()
