import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mask_by_matrix, rotate_by_matrix
from wfaug.augment import (
    BACKWARD,
    FORWARD,
    MASKING,
    MIXING,
    OPERATORS,
    ROTATION,
    AugConfig,
    MaskParams,
    MixParams,
    RotationParams,
    hda_batch,
    mask,
    mask_batch,
    mix,
    mix_batch,
    rotate,
    rotate_batch,
    sample_lambda,
    sample_mask,
    sample_rotation,
)
from wfaug.seeding import derive_rng
from wfaug.traces import one_hot_labels

signs = st.lists(st.sampled_from([-1, 1]), min_size=2, max_size=64)


class TestRotate:
    def test_forward_by_one(self):
        x = np.array([1, -1, -1, 1])
        out = rotate(x, RotationParams(1, FORWARD))
        assert out.tolist() == [1, 1, -1, -1]

    def test_backward_undoes_forward(self):
        x = np.array([1, 1, -1, 1, -1, -1, 1])
        fwd = rotate(x, RotationParams(3, FORWARD))
        assert np.array_equal(rotate(fwd, RotationParams(3, BACKWARD)), x)

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(11)
        for n in (5, 12, 31):
            x = rng.choice([-1, 1], size=n)
            for s in range(1, n + 1):
                for d in (FORWARD, BACKWARD):
                    want = rotate_by_matrix(x, s, d)
                    assert np.array_equal(rotate(x, RotationParams(s, d)), want)

    def test_full_cycle_is_identity(self):
        x = np.array([1, -1, 1, 1, -1])
        assert np.array_equal(rotate(x, RotationParams(5, FORWARD)), x)

    @given(signs, st.integers(1, 200), st.sampled_from([FORWARD, BACKWARD]))
    def test_preserves_multiset(self, vals, n_step, direction):
        x = np.array(vals)
        out = rotate(x, RotationParams(n_step, direction))
        assert sorted(out.tolist()) == sorted(vals)

    def test_rejects_zero_step(self):
        with pytest.raises(ValueError):
            RotationParams(0, FORWARD)

    def test_rejects_bad_direction(self):
        with pytest.raises(ValueError):
            RotationParams(1, "up")


class TestMask:
    def test_zeroes_window_only(self):
        x = np.array([1, -1, 1, -1, 1])
        assert mask(x, MaskParams(1, 3)).tolist() == [1, 0, 0, 0, 1]

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(12)
        x = rng.choice([-1, 1], size=40)
        for start in (0, 7, 33):
            for length in (0, 1, 7):
                want = mask_by_matrix(x, start, length)
                assert np.array_equal(mask(x, MaskParams(start, length)), want)

    @given(signs, st.data())
    def test_zero_count_equals_length(self, vals, data):
        x = np.array(vals)
        length = data.draw(st.integers(0, len(x)))
        start = data.draw(st.integers(0, len(x) - length))
        out = mask(x, MaskParams(start, length))
        # input has no zeros, so every zero in the output came from the window
        assert int(np.sum(out == 0)) == length
        assert np.array_equal(np.delete(out, range(start, start + length)),
                              np.delete(x, range(start, start + length)))

    def test_window_past_end_rejected(self):
        with pytest.raises(ValueError):
            mask(np.ones(4), MaskParams(3, 2))

    def test_does_not_modify_input(self):
        x = np.array([1, -1, 1])
        mask(x, MaskParams(0, 3))
        assert x.tolist() == [1, -1, 1]


class TestMix:
    def test_lam_one_returns_first(self):
        xi, xj = np.array([1.0, -1.0]), np.array([-1.0, -1.0])
        yi, yj = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        x, y = mix(xi, yi, xj, yj, MixParams(1.0))
        assert np.array_equal(x, xi) and np.array_equal(y, yi)

    def test_lam_zero_returns_second(self):
        xi, xj = np.array([1.0, -1.0]), np.array([-1.0, -1.0])
        yi, yj = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        x, y = mix(xi, yi, xj, yj, MixParams(0.0))
        assert np.array_equal(x, xj) and np.array_equal(y, yj)

    def test_convex_combination_values(self):
        x, y = mix(np.array([1.0, -1.0]), np.array([1.0, 0.0]),
                   np.array([-1.0, 1.0]), np.array([0.0, 1.0]),
                   MixParams(0.25))
        assert np.allclose(x, [-0.5, 0.5])
        assert np.allclose(y, [0.25, 0.75])

    @given(st.floats(0.0, 1.0), signs)
    def test_self_mix_is_exact_identity(self, lam, vals):
        x = np.array(vals, dtype=np.float64)
        y = np.array([0.0, 1.0, 0.0])
        xm, ym = mix(x, y, x, y, MixParams(lam))
        # bitwise, not approximately: a + t*(a - a) == a
        assert np.array_equal(xm, x)
        assert np.array_equal(ym, y)

    def test_one_hot_mix_sums_to_one(self):
        yi = np.array([0.0, 1.0, 0.0])
        yj = np.array([0.0, 0.0, 1.0])
        _, y = mix(np.zeros(3), yi, np.zeros(3), yj, MixParams(0.3))
        assert np.isclose(y.sum(), 1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mix(np.zeros(3), np.zeros(2), np.zeros(4), np.zeros(2), MixParams(0.5))
        with pytest.raises(ValueError):
            mix(np.zeros(3), np.zeros(2), np.zeros(3), np.zeros(5), MixParams(0.5))

    def test_lambda_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            MixParams(1.5)


class TestBatchKernels:
    """Row b of each kernel against the single-sample definition, with
    different parameters in every row."""

    def rows(self, dtype, batch=6, trace_len=23):
        rng = np.random.default_rng(21)
        if dtype == np.int8:
            return rng.choice([-1, 0, 1], size=(batch, trace_len)).astype(dtype)
        return rng.normal(size=(batch, trace_len))

    @pytest.mark.parametrize("dtype", [np.int8, np.float64])
    def test_rotate_rows_match_matrix_oracle(self, dtype):
        x = self.rows(dtype)
        params = [RotationParams(1, FORWARD), RotationParams(4, BACKWARD),
                  RotationParams(23, FORWARD), RotationParams(7, BACKWARD),
                  RotationParams(30, BACKWARD), RotationParams(11, FORWARD)]
        out = rotate_batch(x, [p.shift for p in params])
        assert out.dtype == dtype and out.shape == x.shape
        for row, got, p in zip(x, out, params):
            assert np.array_equal(got, rotate_by_matrix(row, p.n_step,
                                                        p.direction))

    @pytest.mark.parametrize("dtype", [np.int8, np.float64])
    @pytest.mark.parametrize("length", [0, 1, 5])
    def test_mask_rows_match_matrix_oracle(self, dtype, length):
        x = self.rows(dtype)
        starts = [0, 3, 23 - length, 9, 0, 17 - length]
        out = mask_batch(x, starts, length)
        assert out.dtype == dtype and out.shape == x.shape
        for row, got, start in zip(x, out, starts):
            assert np.array_equal(got, mask_by_matrix(row, start, length))

    @pytest.mark.parametrize("dtype", [np.int8, np.float64])
    def test_mix_rows_match_scalar_mix(self, dtype):
        x = self.rows(dtype)
        y = one_hot_labels(np.array([0, 1, 2, 3, 1, 0]), 4)
        partners = [3, 1, 0, 5, 2, 5]   # rows 1 and 5 mix with themselves
        lams = [0.3, 0.71, 0.0, 1.0, 0.5, 0.02]
        xm, ym = mix_batch(x, y, partners, lams)
        assert xm.dtype == ym.dtype == np.float64
        for b, (j, lam) in enumerate(zip(partners, lams)):
            want_x, want_y = mix(x[b], y[b], x[j], y[j], MixParams(lam))
            assert np.array_equal(xm[b], want_x)
            assert np.array_equal(ym[b], want_y)
        for b in (1, 5):
            assert np.array_equal(xm[b], x[b].astype(np.float64))
            assert np.array_equal(ym[b], y[b])


class TestSamplers:
    def test_rotation_covers_grid_and_directions(self):
        rng = derive_rng(0, "samplers")
        shifts = sample_rotation(5, rng, 2000)
        assert shifts.shape == (2000,)
        steps = np.abs(shifts)
        assert set(steps.tolist()) == {1, 2, 3, 4, 5}
        counts = np.bincount(steps, minlength=6)[1:]
        assert counts.min() > 300  # expected 400 each
        assert set(np.sign(shifts).tolist()) == {-1, 1}

    def test_rotation_rejects_zero_bound(self):
        with pytest.raises(ValueError):
            sample_rotation(0, np.random.default_rng(0), 1)

    def test_mask_start_covers_valid_range(self):
        rng = derive_rng(0, "samplers", "mask")
        starts = sample_mask(7, 10, rng, 2000)
        assert starts.shape == (2000,)
        assert set(starts.tolist()) == {0, 1, 2, 3}

    def test_mask_length_must_leave_room(self):
        for m_len in (10, 11, -1):
            with pytest.raises(ValueError):
                sample_mask(m_len, 10, np.random.default_rng(0), 1)

    def test_lambda_range_and_shape(self):
        rng = derive_rng(0, "samplers", "lam")
        lams = sample_lambda(0.1, rng, 2000)
        assert lams.shape == (2000,)
        assert np.all((lams >= 0) & (lams <= 1))
        # Beta(0.1, 0.1) is strongly bimodal at the endpoints
        assert np.mean((lams < 0.1) | (lams > 0.9)) > 0.7

    def test_lambda_rejects_bad_alpha(self):
        for alpha in (0.0, -0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="alpha must be finite and > 0"):
                sample_lambda(alpha, np.random.default_rng(0), 1)


class TestAugConfig:
    def test_defaults(self):
        cfg = AugConfig()
        assert cfg.r_max == 20 and cfg.m_len == 180 and cfg.alpha == 0.1
        assert cfg.order == OPERATORS
        assert cfg.any_enabled()

    def test_order_must_be_permutation(self):
        with pytest.raises(ValueError):
            AugConfig(order=(ROTATION, MASKING))
        with pytest.raises(ValueError):
            AugConfig(order=(ROTATION, ROTATION, MIXING))

    def test_missing_enabled_flag_rejected(self):
        with pytest.raises(ValueError):
            AugConfig(enabled={ROTATION: True})

    def test_alpha_must_be_positive(self):
        for alpha in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="alpha must be finite and > 0"):
                AugConfig(alpha=alpha)

    def test_enabled_rotation_needs_positive_bound(self):
        with pytest.raises(ValueError):
            AugConfig(r_max=0)
        AugConfig(r_max=0, enabled={ROTATION: False, MASKING: True, MIXING: True})

    def test_disabled_factory(self):
        assert not AugConfig.disabled().any_enabled()


def batch_fixture(batch=8, trace_len=64, num_classes=4, seed=3):
    rng = np.random.default_rng(seed)
    traces = rng.choice([-1, 1], size=(batch, trace_len)).astype(np.int8)
    labels = one_hot_labels(rng.integers(0, num_classes, batch), num_classes)
    return traces, labels


class TestHdaBatch:
    def cfg(self, **kw):
        enabled = {op: True for op in OPERATORS}
        enabled.update(kw.pop("enabled", {}))
        return AugConfig(r_max=8, m_len=16, alpha=0.1, enabled=enabled, **kw)

    def test_disabled_config_is_identity(self):
        traces, labels = batch_fixture()
        x, y = hda_batch(traces, labels, AugConfig.disabled(), derive_rng(0))
        assert np.array_equal(x, traces) and np.array_equal(y, labels)

    def test_shapes_preserved(self):
        traces, labels = batch_fixture()
        x, y = hda_batch(traces, labels, self.cfg(), derive_rng(1))
        assert x.shape == traces.shape and y.shape == labels.shape

    def test_labels_untouched_without_mixing(self):
        traces, labels = batch_fixture()
        cfg = self.cfg(enabled={MIXING: False})
        x, y = hda_batch(traces, labels, cfg, derive_rng(2))
        assert np.array_equal(y, labels)
        assert np.isin(x, [-1, 0, 1]).all()

    def test_label_rows_stay_distributions(self):
        traces, labels = batch_fixture(batch=32)
        _, y = hda_batch(traces, labels, self.cfg(), derive_rng(3))
        assert np.allclose(y.sum(axis=1), 1.0)
        assert np.all(y >= 0)

    def test_same_rng_state_reproduces(self):
        traces, labels = batch_fixture()
        x1, y1 = hda_batch(traces, labels, self.cfg(), derive_rng(7, "a"))
        x2, y2 = hda_batch(traces, labels, self.cfg(), derive_rng(7, "a"))
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    def test_different_rng_state_differs(self):
        traces, labels = batch_fixture()
        x1, _ = hda_batch(traces, labels, self.cfg(), derive_rng(7, "a"))
        x2, _ = hda_batch(traces, labels, self.cfg(), derive_rng(7, "b"))
        assert not np.array_equal(x1, x2)

    def test_operator_order_changes_output(self):
        # each operator draws just before it applies, so the order moves the
        # draws as well as the composition
        traces, labels = batch_fixture(batch=16)
        cfg_rm = self.cfg(order=(ROTATION, MASKING, MIXING),
                          enabled={MIXING: False})
        cfg_mr = self.cfg(order=(MASKING, ROTATION, MIXING),
                          enabled={MIXING: False})
        x1, _ = hda_batch(traces, labels, cfg_rm, derive_rng(9))
        x2, _ = hda_batch(traces, labels, cfg_mr, derive_rng(9))
        assert not np.array_equal(x1, x2)

    def test_single_sample_mixes_with_itself_exactly(self):
        traces, labels = batch_fixture(batch=1)
        cfg = self.cfg(enabled={ROTATION: False, MASKING: False})
        x, y = hda_batch(traces, labels, cfg, derive_rng(4))
        assert np.array_equal(x, traces.astype(np.float64))
        assert np.array_equal(y, labels.astype(np.float64))

    def test_mixing_coefficient_consistent_between_trace_and_label(self):
        # constant traces let the mixing weight be read off the output, and
        # the label row must interpolate with that same weight
        batch, num_classes = 6, 6
        traces = np.repeat(np.arange(batch, dtype=np.float64)[:, None], 12, axis=1)
        labels = one_hot_labels(np.arange(batch), num_classes)
        cfg = self.cfg(enabled={ROTATION: False, MASKING: False})
        x, y = hda_batch(traces, labels, cfg, derive_rng(5))
        for i in range(batch):
            assert np.ptp(x[i]) == 0  # still constant
            v = x[i, 0]
            j = int(round(v)) if np.isclose(v, round(v)) else None
            if np.isclose(y[i, i], 1.0):
                # degenerate draw: partner i or lambda at an endpoint
                continue
            j = int(np.argmax(np.where(np.arange(num_classes) == i, -1, y[i])))
            lam = 1.0 - y[i, j]
            assert np.isclose(v, lam * i + (1 - lam) * j)

    @pytest.mark.parametrize("order", list(itertools.permutations(OPERATORS)))
    @pytest.mark.parametrize("ops", [
        ops for k in (1, 2, 3) for ops in itertools.combinations(OPERATORS, k)])
    def test_draws_batch_samplers_in_order_from_one_generator(
            self, order, ops, monkeypatch):
        batch, trace_len = 16, 64
        traces, labels = batch_fixture(batch=batch, trace_len=trace_len)
        cfg = self.cfg(order=order, enabled={op: op in ops for op in OPERATORS})
        rng, replay = derive_rng(11, "draws"), derive_rng(11, "draws")

        def no_generator(*args, **kwargs):
            raise AssertionError("hda_batch built a generator of its own")

        for name in ("PCG64", "Generator", "default_rng"):
            monkeypatch.setattr(np.random, name, no_generator)
        x, y = hda_batch(traces, labels, cfg, rng)

        want_x, want_y = traces, labels
        for op in order:
            if op not in ops:
                continue
            if op == ROTATION:
                shifts = sample_rotation(cfg.r_max, replay, batch)
                want_x = rotate_batch(want_x, shifts)
            elif op == MASKING:
                starts = sample_mask(cfg.m_len, trace_len, replay, batch)
                want_x = mask_batch(want_x, starts, cfg.m_len)
            else:
                lams = sample_lambda(cfg.alpha, replay, batch)
                partners = replay.integers(0, batch, batch)
                want_x, want_y = mix_batch(want_x, want_y, partners, lams)
        assert x.dtype == want_x.dtype and x.tobytes() == want_x.tobytes()
        assert y.dtype == want_y.dtype and y.tobytes() == want_y.tobytes()
        # nothing drawn beyond the documented draws
        assert rng.bit_generator.state == replay.bit_generator.state

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            hda_batch(np.zeros((0, 4)), np.zeros((0, 2)), self.cfg(), derive_rng(0))

    def test_rejects_mismatched_rows(self):
        with pytest.raises(ValueError):
            hda_batch(np.zeros((3, 4)), np.zeros((2, 2)), self.cfg(), derive_rng(0))
