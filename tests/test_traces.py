import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (load_dataset_per_token, nearest_template_labels,
                     render_runs_loop, synth_templates)
from wfaug.traces import (
    BACKGROUND,
    MAX_LABEL,
    MAX_SYNTH_CELLS,
    MAX_TRACE_LEN,
    MIN_SYNTH_LEN,
    Dataset,
    SplitSpec,
    TraceFormatError,
    load_dataset,
    make_splits,
    one_hot_labels,
    save_dataset,
    synth_dataset,
    synth_template_runs,
)


def write(tmp_path, text, name="d.txt"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadDataset:
    def test_pads_with_zeros(self, tmp_path):
        d = load_dataset(write(tmp_path, "3\t1 -1 1\n"), trace_len=5)
        assert d.traces.tolist() == [[1, -1, 1, 0, 0]]
        assert d.labels.tolist() == [3]
        assert d.num_classes == 4

    def test_truncates_at_tail(self, tmp_path):
        d = load_dataset(write(tmp_path, "0\t1 1 -1 -1 1 1\n"), trace_len=4)
        assert d.traces.tolist() == [[1, 1, -1, -1]]

    def test_background_sentinel(self, tmp_path):
        d = load_dataset(write(tmp_path, "-1\t1 -1\n"), trace_len=2)
        assert d.labels.tolist() == [BACKGROUND]
        assert d.num_classes == 0

    @pytest.mark.parametrize("line,fragment", [
        ("a\t1 -1", "not an integer"),
        ("0\t1 2", "must be 1 or -1"),
        ("0\t1 0", "must be 1 or -1"),
        ("-2\t1 1", "out of range"),
        ("0 1 -1", "missing tab"),
        ("99999999999999999999999\t1 -1", "out of range"),
        ("9223372036854775808\t1", "out of range"),
        ("65536\t1", "out of range"),
        ("1000000000000\t1 -1", "out of range"),
        # int() reads these, but save_dataset would write them otherwise
        ("+3\t1", "label '+3' must be written as 3"),
        (" 2\t1", "label ' 2' must be written as 2"),
        ("2 \t1", "label '2 ' must be written as 2"),
        ("1_0\t1", "label '1_0' must be written as 10"),
        ("３\t1", "label '３' must be written as 3"),
        ("007\t1", "label '007' must be written as 7"),
        ("-0\t1", "label '-0' must be written as 0"),
        ("-01\t1", "label '-01' must be written as -1"),
        ("+65536\t1", "must be written as 65536"),
    ])
    def test_malformed_line_names_line_number(self, tmp_path, line, fragment):
        path = write(tmp_path, "0\t1 1\n" + line + "\n")
        with pytest.raises(TraceFormatError) as err:
            load_dataset(path, trace_len=4)
        assert ":2:" in str(err.value)
        assert fragment in str(err.value)

    def test_largest_label_loads(self, tmp_path):
        d = load_dataset(write(tmp_path, f"{MAX_LABEL}\t-1\n"), trace_len=2)
        assert d.labels.tolist() == [MAX_LABEL] and MAX_LABEL == 65535
        assert d.num_classes == MAX_LABEL + 1

    def test_non_utf8_bytes_name_line_number(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_bytes(b"0\t1 1\n1\t1 \xff -1\n")
        with pytest.raises(TraceFormatError, match=":2:"):
            load_dataset(path, trace_len=4)

    def test_blank_line_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError, match="blank"):
            load_dataset(write(tmp_path, "0\t1 1\n\n"), trace_len=4)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError, match="empty"):
            load_dataset(write(tmp_path, ""), trace_len=4)

    LF = b"0\t1 -1 1\n-1\t-1\n2\t1 1 1 -1\n"

    @pytest.mark.parametrize("raw", [
        LF.replace(b"\n", b"\r\n"), LF.replace(b"\n", b"\r"), LF[:-1],
        LF.replace(b"\n", b"\r\n")[:-2], LF[:-1] + b"\r",
        b"0\t1 -1 1\r\n-1\t-1\r2\t1 1 1 -1\n",
    ], ids=["crlf", "cr", "no-final-newline", "crlf-no-final-newline",
            "final-cr", "mixed"])
    def test_every_line_end_reads_like_lf(self, tmp_path, raw):
        (tmp_path / "lf.txt").write_bytes(self.LF)
        (tmp_path / "d.txt").write_bytes(raw)
        want = load_dataset(tmp_path / "lf.txt", trace_len=5)
        got = load_dataset(tmp_path / "d.txt", trace_len=5)
        assert got.traces.tobytes() == want.traces.tobytes()
        assert got.labels.tolist() == want.labels.tolist() == [0, -1, 2]

    @pytest.mark.parametrize("raw,line", [
        (b"0\t1\r\r\n1\t-1\n", 2), (b"0\t1\r\n\r\n", 2),
        (b"0\t1\n\r1\t1\n", 2), (b"\r", 1)])
    def test_crlf_and_lone_cr_count_lines(self, tmp_path, raw, line):
        path = tmp_path / "d.txt"
        path.write_bytes(raw)
        with pytest.raises(TraceFormatError) as err:
            load_dataset(path, trace_len=4)
        assert str(err.value) == f"{path}:{line}: blank line"

    def test_line_separator_is_not_a_line_end(self, tmp_path):
        # U+2028 ends a line for str.splitlines, but not in a trace file
        path = write(tmp_path, "0\t1 1\n1\t1\u2028-1\n2\t-1\n")
        with pytest.raises(TraceFormatError) as err:
            load_dataset(path, trace_len=4)
        assert str(err.value) == (f"{path}:2: direction '1\\u2028-1' must "
                                  "be 1 or -1")

    @pytest.mark.parametrize("rest,token", [
        ("1\t1", "1\t1"), ("1 -1\t-1", "-1\t-1"), ("11", "11"),
        ("1 10", "10"), ("1-1", "1-1"), ("-1-1 1", "-1-1"), ("1 -", "-"),
        ("- 1", "-"), (" 1", ""), ("1 ", ""), ("", "")])
    def test_directions_between_labels_refused(self, tmp_path, rest, token):
        """Bytes a label may hold, or a tab, among the directions."""
        path = write(tmp_path, f"11\t1 1\n-1\t{rest}\n10\t-1\n")
        with pytest.raises(TraceFormatError) as err:
            load_dataset(path, trace_len=8)
        assert str(err.value) == (f"{path}:2: direction {token!r} must be 1 "
                                  "or -1")

    def test_bad_token_past_trace_len_refused(self, tmp_path):
        path = write(tmp_path, "0\t1 1\n1\t1 -1 1 -1 1 -1 0 1\n")
        with pytest.raises(TraceFormatError) as err:
            load_dataset(path, trace_len=2)
        assert str(err.value) == f"{path}:2: direction '0' must be 1 or -1"

    @pytest.mark.parametrize("lines,message", [
        (["0\t1 1", "1\t1  -1", "x\t1"], "2: direction '' must be 1 or -1"),
        (["0\t1 1", "x\t1", "1\t1  -1"],
         "2: label 'x' is not an integer"),
        (["0\t1 1", "1\t1 --1", "007\t1"],
         "2: direction '--1' must be 1 or -1"),
        (["0\t1 1", "65536\t1", "1\t11"], "2: label 65536 out of range"),
    ], ids=["direction-then-label", "label-then-direction",
            "direction-then-spelling", "range-then-direction"])
    def test_first_bad_line_is_named(self, tmp_path, monkeypatch, lines,
                                     message):
        path = write(tmp_path, "\n".join(lines) + "\n")
        for cells in (1, 1 << 18):  # one line per block, or one block
            monkeypatch.setattr("wfaug.traces._BLOCK_CELLS", cells)
            with pytest.raises(TraceFormatError) as err:
                load_dataset(path, trace_len=4)
            assert str(err.value) == f"{path}:{message}"

    @pytest.mark.parametrize("trace_len", [1, 700, 1000, 2000])
    def test_readme_file_reads_as_the_per_token_reference(self, tmp_path,
                                                          trace_len):
        # the README walkthrough's data file: synth --seed 7, 20 classes x
        # 18 traces of 1000 cells, noise 0.2
        made = synth_dataset(20, 18, 1000, 0.2, seed=7)
        path = tmp_path / "data.txt"
        save_dataset(made, path)
        got = load_dataset(path, trace_len)
        want = load_dataset_per_token(path, trace_len)
        assert got.traces.shape == (360, trace_len)
        assert got.traces.tobytes() == want.traces.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()
        assert got.num_classes == want.num_classes == 20
        if trace_len == 1000:
            assert got.traces.tobytes() == made.traces.tobytes()
            assert got.labels.tobytes() == made.labels.tobytes()

    def test_trace_len_capped(self, tmp_path):
        path = write(tmp_path, "0\t1 -1\n")
        d = load_dataset(path, trace_len=MAX_TRACE_LEN)
        assert d.traces.shape == (1, MAX_TRACE_LEN) and MAX_TRACE_LEN == 65536
        for bad in (0, MAX_TRACE_LEN + 1):
            with pytest.raises(ValueError, match="trace_len"):
                load_dataset(path, trace_len=bad)


class TestDatasetChecks:
    @pytest.mark.parametrize("value", [2, -2, 127, -128])
    def test_element_outside_directions_rejected(self, value):
        with pytest.raises(ValueError, match="must be in"):
            Dataset(np.array([[1, value]]), np.array([0]), 1)

    def test_empty_split_accepted(self):
        assert len(Dataset(np.zeros((0, 5)), np.zeros(0), 2)) == 0


class TestSha256:
    """``Dataset.sha256`` is the digest checkpoints have always recorded:
    the traces' bytes, then the labels' bytes, in C order."""

    @staticmethod
    def joined(d):
        return hashlib.sha256(d.traces.tobytes()
                              + d.labels.tobytes()).hexdigest()

    def test_loaded_file(self, tmp_path):
        d = load_dataset(write(tmp_path, "0\t1 -1\n-1\t-1\n1\t1 1 1\n"), 4)
        assert d.sha256 == self.joined(d)

    def test_synth_set_and_its_splits(self):
        d = synth_dataset(3, 6, 32, 0.1, seed=2)
        parts = make_splits(d, SplitSpec(2, 2, 2, seed=1))
        for part in (d, *parts):
            assert part.sha256 == self.joined(part)
        assert len({part.sha256 for part in (d, *parts)}) == 4

    def test_non_contiguous_views(self):
        d = synth_dataset(3, 6, 32, 0.1, seed=2)
        view = Dataset(d.traces[::2, 1::3], d.labels[::2], 3)
        assert not view.traces.flags.c_contiguous
        assert not view.labels.flags.c_contiguous
        assert view.traces.dtype == np.int8
        assert view.sha256 == self.joined(view)


class TestRoundTrip:
    def test_canonical_file_is_reproduced_byte_for_byte(self, tmp_path):
        text = "0\t1 1 -1\n2\t-1 -1 -1 1\n-1\t1\n"
        path = write(tmp_path, text)
        out = tmp_path / "out.txt"
        save_dataset(load_dataset(path, trace_len=8), out)
        assert out.read_bytes() == path.read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.tuples(
            st.integers(min_value=-1, max_value=4),
            st.lists(st.sampled_from([1, -1]), min_size=1, max_size=12),
        ),
        min_size=1, max_size=8,
    ))
    def test_random_files_round_trip(self, tmp_path_factory, records):
        tmp = tmp_path_factory.mktemp("rt")
        text = "".join(f"{lab}\t{' '.join(map(str, vals))}\n" for lab, vals in records)
        path = write(tmp, text)
        d = load_dataset(path, trace_len=12)
        assert np.all(np.isin(d.traces, [-1, 0, 1]))
        out = tmp / "out.txt"
        save_dataset(d, out)
        assert out.read_text(encoding="utf-8") == text

    def test_interior_zero_cannot_be_saved(self):
        d = Dataset(np.array([[1, 0, 1]]), np.array([0]), 1)
        with pytest.raises(ValueError, match="interior zeros"):
            save_dataset(d, "/dev/null")

    @pytest.mark.parametrize("bad_row, what", [
        ([1, 0, -1, 0], "a trace with interior zeros"),
        ([0, 0, 0, 0], "an all-padding trace"),
    ], ids=["interior-zero", "all-padding"])
    def test_refused_save_leaves_existing_file_untouched(self, tmp_path,
                                                         bad_row, what):
        path = write(tmp_path, "0\t1 1 -1\n1\t-1\n")
        before = path.read_bytes()
        traces = np.array([[1, 1, 0, 0], [-1, 1, 0, 0], bad_row, [0, 0, 0, 0]])
        d = Dataset(traces, np.array([0, 1, 0, 1]), 2)
        with pytest.raises(ValueError) as err:
            save_dataset(d, path)
        assert str(err.value) == f"cannot save {what} (row 2)"
        assert path.read_bytes() == before
        with pytest.raises(ValueError):
            save_dataset(d, tmp_path / "new.txt")
        assert not (tmp_path / "new.txt").exists()

    def test_empty_dataset_cannot_be_saved(self, tmp_path):
        """A trace file holds one trace at least, so an empty dataset is
        refused before any file is opened."""
        path = write(tmp_path, "0\t1 1 -1\n")
        before = path.read_bytes()
        empty = Dataset(np.zeros((0, 4), np.int8), np.zeros(0, np.int64), 2)
        for target in (path, tmp_path / "new.txt"):
            with pytest.raises(ValueError,
                               match="^cannot save an empty dataset$"):
                save_dataset(empty, target)
        assert path.read_bytes() == before
        assert not (tmp_path / "new.txt").exists()

    def test_writes_in_bounded_chunks(self, tmp_path, monkeypatch):
        d = synth_dataset(3, 5, 40, 0.2, seed=4)
        whole = tmp_path / "whole.txt"
        save_dataset(d, whole)
        writes = []

        class Recording:
            def __init__(self, *args, **kwargs):
                self.fh = open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                writes.append(len(data))
                return self.fh.write(data)

        # two rows of 40 cells per write
        monkeypatch.setattr("wfaug.traces._BLOCK_CELLS", 2 * 40)
        monkeypatch.setattr("wfaug.traces.open", Recording, raising=False)
        save_dataset(d, tmp_path / "chunked.txt")
        assert len(writes) == 8 and sum(writes) == whole.stat().st_size
        assert (tmp_path / "chunked.txt").read_bytes() == whole.read_bytes()


class TestSplits:
    def make(self, per_class=100, classes=3, with_background=False, seed=1):
        d = synth_dataset(classes, per_class, 64, 0.1, seed)
        if with_background:
            bg = synth_dataset(2, per_class, 64, 0.1, seed + 99)
            traces = np.concatenate([d.traces, bg.traces[:per_class]])
            labels = np.concatenate([d.labels, np.full(per_class, BACKGROUND)])
            d = Dataset(traces, labels, classes)
        return d

    def test_paper_protocol_sizes(self):
        train, val, test = make_splits(self.make(), SplitSpec(20, 10, 70, seed=3))
        for part, count in [(train, 20), (val, 10), (test, 70)]:
            for c in range(3):
                assert int(np.sum(part.labels == c)) == count

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec(0, 10, 70)

    @pytest.mark.parametrize("spec, message", [
        ((5, -1, 70), "val_per_class must be >= 0"),
        ((5, 10, -1), "test_per_class must be >= 0")])
    def test_negative_count_names_its_field(self, spec, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SplitSpec(*spec)

    def test_same_seed_identical(self):
        d = self.make()
        spec = SplitSpec(5, 5, 20, seed=11)
        a = make_splits(d, spec)
        b = make_splits(d, spec)
        for x, y in zip(a, b):
            assert np.array_equal(x.traces, y.traces)
            assert np.array_equal(x.labels, y.labels)

    def test_parts_are_disjoint_and_counts_exact(self):
        d = self.make(per_class=40)
        train, val, test = make_splits(d, SplitSpec(5, 10, 15, seed=0))
        def keys(part):
            return {tuple(t) + (l,) for t, l in zip(part.traces.tolist(), part.labels.tolist())}
        # traces are unique in this dataset, so tuple identity detects overlap
        assert len(keys(train) & keys(val)) == 0
        assert len(keys(train) & keys(test)) == 0
        assert len(keys(val) & keys(test)) == 0
        assert len(train) == 15 and len(val) == 30 and len(test) == 45

    def test_background_records_are_split_too(self):
        d = self.make(per_class=50, with_background=True)
        train, val, test = make_splits(d, SplitSpec(5, 5, 10, seed=2))
        assert int(np.sum(train.labels == BACKGROUND)) == 5
        assert int(np.sum(test.labels == BACKGROUND)) == 10

    def test_insufficient_samples_names_class(self):
        d = self.make(per_class=10)
        with pytest.raises(ValueError, match="class 0"):
            make_splits(d, SplitSpec(5, 5, 70, seed=0))


class TestSynth:
    def test_zero_noise_replicates_template(self):
        d = synth_dataset(3, 4, 128, 0.0, seed=5)
        templates = synth_templates(3, 128, seed=5)
        for trace, label in zip(d.traces, d.labels):
            assert np.array_equal(trace, templates[label])

    def test_determinism_bitwise(self):
        a = synth_dataset(20, 100, 1000, 0.05, seed=7)
        b = synth_dataset(20, 100, 1000, 0.05, seed=7)
        assert np.array_equal(a.traces, b.traces)
        assert np.array_equal(a.labels, b.labels)

    def test_distinct_seeds_differ(self):
        a = synth_dataset(4, 5, 256, 0.1, seed=1)
        b = synth_dataset(4, 5, 256, 0.1, seed=2)
        assert not np.array_equal(a.traces, b.traces)

    def test_nearest_template_oracle_accuracy(self):
        d = synth_dataset(20, 20, 1000, 0.05, seed=7)
        templates = synth_templates(20, 1000, seed=7)
        pred = nearest_template_labels(d.traces, templates)
        assert np.mean(pred == d.labels) >= 0.95

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            synth_dataset(1, 10, 100, 0.1, seed=0)

    def test_noise_rate_bounds(self):
        with pytest.raises(ValueError):
            synth_dataset(3, 10, 100, 0.5, seed=0)

    def test_trace_len_capped(self):
        d = synth_dataset(2, 1, MAX_TRACE_LEN, 0.05, seed=0)
        assert d.traces.shape == (2, MAX_TRACE_LEN)
        for bad in (0, MAX_TRACE_LEN + 1):
            with pytest.raises(ValueError, match="trace_len"):
                synth_dataset(2, 1, bad, 0.05, seed=0)

    def test_lengths_that_can_jitter_to_padding_refused(self):
        """Below MIN_SYNTH_LEN a trace can come out all padding, which no
        trace file holds; from it up, none does."""
        assert MIN_SYNTH_LEN == 3
        for short in (1, 2):
            with pytest.raises(ValueError, match=r"trace_len must be in "
                                                 r"\[3, 65536\] for synthetic"):
                synth_dataset(2, 4, short, 0.1, seed=0)
        for seed in range(100):
            d = synth_dataset(2, 4, MIN_SYNTH_LEN, 0.1, seed=seed)
            assert (d.traces != 0).any(axis=1).all()

    def test_class_count_capped_at_label_range(self):
        with pytest.raises(ValueError, match=r"num_classes must be in "
                                             rf"\[2, {MAX_LABEL + 1}\]"):
            synth_dataset(MAX_LABEL + 2, 1, 1, 0.0, seed=0)

    @pytest.mark.parametrize("classes, per_class, trace_len", [
        (20, 10 ** 12, 100),
        # one trace over the cap
        (2, MAX_SYNTH_CELLS // (2 * MAX_TRACE_LEN) + 1, MAX_TRACE_LEN),
    ])
    def test_cell_count_capped_before_allocating(self, monkeypatch, classes,
                                                 per_class, trace_len):
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated before refusing")

        monkeypatch.setattr("wfaug.traces.synth_template_runs", no_allocation)
        monkeypatch.setattr(np, "zeros", no_allocation)
        with pytest.raises(ValueError, match="more than MAX_SYNTH_CELLS"):
            synth_dataset(classes, per_class, trace_len, 0.1, seed=0)

    @pytest.mark.parametrize("block_cells", [1, 95, 200])
    def test_rows_in_groups_write_the_same_bytes(self, monkeypatch,
                                                 block_cells):
        # the classes hold 51, 22 and 36 runs: groups of one row, of a few
        # rows with a shorter one at a class's end, and of a whole class
        whole = synth_dataset(3, 7, 200, 0.1, seed=4)
        monkeypatch.setattr("wfaug.traces._BLOCK_CELLS", block_cells)
        assert synth_dataset(3, 7, 200, 0.1, seed=4).traces.tobytes() == (
            whole.traces.tobytes())

    def test_templates_render_runs_in_turn(self):
        # zero-noise rows are the rendered templates; synth_dataset renders
        # only lengths from MIN_SYNTH_LEN up
        for seed, trace_len in ((0, MIN_SYNTH_LEN), (3, 4), (5, 128),
                                (7, 1000)):
            runs = synth_template_runs(4, trace_len, seed)
            want = [render_runs_loop(r, trace_len) for r in runs]
            d = synth_dataset(4, 2, trace_len, 0.0, seed)
            assert d.traces.tobytes() == np.repeat(want, 2, axis=0).tobytes()


class TestOutputWidth:
    def test_monitored_only(self):
        ds = Dataset(np.ones((2, 3)), np.array([0, 2]), 4)
        assert ds.output_width == 4

    def test_background_adds_one(self):
        ds = Dataset(np.ones((2, 3)), np.array([0, BACKGROUND]), 4)
        assert ds.output_width == 5
        assert ds.subset(np.array([0])).output_width == 4


class TestOneHot:
    def test_one_hot_from_labels(self):
        y = one_hot_labels(np.array([0, 2]), 3, 3)
        assert y.tolist() == [[1, 0, 0], [0, 0, 1]]

    def test_background_maps_to_last_index(self):
        y = one_hot_labels(np.array([1, BACKGROUND]), 2, 3)
        assert y.tolist() == [[0, 1, 0], [0, 0, 1]]

    def test_background_needs_flag(self):
        with pytest.raises(ValueError):
            one_hot_labels(np.array([BACKGROUND]), 2, 2)

    @pytest.mark.parametrize("label", [2, 5, -2])
    def test_label_beyond_width_is_value_error(self, label):
        with pytest.raises(ValueError, match=rf"\[{label}\] do not fit 2"):
            one_hot_labels(np.array([0, label]), 2, 2)

    def test_spare_background_column_stays_zero(self):
        # what train builds when only the validation split holds background
        y = one_hot_labels(np.array([1, 0]), 2, 3)
        assert y.tolist() == [[0, 1, 0], [1, 0, 0]]
