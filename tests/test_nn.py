import copy
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (conv1d_backward_loops, conv1d_backward_per_tap,
                     conv1d_forward_loops, conv1d_forward_per_tap,
                     conv1d_weight_grads_per_tap, maxpool2_backward_argmax,
                     maxpool2_forward_argmax)
from wfaug.nn import (
    CheckpointError,
    Conv1D,
    ConvBlock,
    Dense,
    GlobalAvgPool,
    MaxPool2,
    Model,
    ModelConfig,
    ReLU,
    TrainConfig,
    TrainingDiverged,
    cross_entropy,
    dataset_accuracy,
    decide,
    default_model_config,
    load_checkpoint,
    predict,
    save_checkpoint,
    softmax,
    train,
    write_history,
)
from wfaug.augment import AugConfig
from wfaug.nn import model as model_mod
from wfaug.nn import training
from wfaug.nn.model import CHECKPOINT_MAGIC, DTYPE, TILE_ROWS
from wfaug.nn.optim import Adam, SgdMomentum
from wfaug.traces import Dataset, SplitSpec, make_splits, synth_dataset

TINY = ModelConfig(64, 3, (ConvBlock(8, dilation=1, pool="max2"),
                           ConvBlock(16, dilation=2)), fc=(3,))


def tiny_task():
    d = synth_dataset(3, 15, 64, 0.05, seed=11)
    return make_splits(d, SplitSpec(10, 3, 2, seed=0))


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Fail a test, whether it passed or failed, that leaves more threads
    running than it found: every pool a model makes ends with the pass
    that made it."""
    threads = threading.active_count()
    yield
    assert threading.active_count() <= threads, threading.enumerate()


def lattice_model(cfg, seed=0):
    """Float64 model whose conv parameters sit on a dyadic lattice.

    With +-1 inputs every pre-activation is then an exact multiple of a
    power of two, bounded away from the ReLU kink, so finite-difference
    probes at eps=1e-4 cannot flip any activation sign.
    """
    m = Model(cfg, seed, dtype=np.float64)
    convs = [l for l in m.layers if l.name.startswith("conv")]
    for depth, layer in enumerate(convs):
        w = layer.params["w"]
        w[...] = np.round(w / 0.25) * 0.25
        layer.params["b"][...] = 0.125 if depth == 0 else 0.015625
    return m


def assert_conv_matches_per_tap(conv, draw, batch, length, rng):
    """Forward and backward of ``conv`` write the per-tap oracle's bytes.

    ``draw(shape)`` gives the input and the output gradient; the bias is
    redrawn from normal values, so it is not all zero.
    """
    conv.params["b"][...] = rng.normal(size=conv.out_ch)
    x = draw((batch, conv.in_ch, length))
    y = conv.forward(x, train=True)
    dy = draw(y.shape)
    dx = conv.backward(dy)
    w, b = conv.params["w"], conv.params["b"]
    args = (conv.dilation, conv.stride, conv.pad_l, conv.pad_r)
    y_want, xp = conv1d_forward_per_tap(x, w, b, *args)
    dw, db, dx_want = conv1d_backward_per_tap(xp, w, dy, *args)
    for got, want in ((y, y_want), (conv.grads["w"], dw),
                      (conv.grads["b"], db), (dx, dx_want)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# signed zeros next to +-1 reach the sign of every zero product
CONV_LATTICE = (-1.0, -0.0, 0.0, 1.0)

BENCH_MODEL_1000 = ModelConfig(1000, 20, tuple(
    ConvBlock(ch, stride=2) for ch in (8, 12, 16, 24, 32, 32, 32)),
    fc=(20,))


def model_conv_shapes(cfg):
    """(in, out, kernel, dilation, stride, causal, input length) of every
    conv of ``cfg``'s model."""
    length = cfg.input_len
    for layer in Model(cfg, 0).layers:
        if isinstance(layer, Conv1D):
            yield (layer.in_ch, layer.out_ch, layer.kernel, layer.dilation,
                   layer.stride, layer.causal, length)
            length = layer.out_len(length)
        elif isinstance(layer, MaxPool2):
            length //= 2


# every conv the benchmark shape and the stock model run, where OpenBLAS
# picks its kernels by width, and the shapes where a tap product has a
# dimension of 1: one input channel with its input gradient on, one output
# channel, and one or two output positions
MODEL_CONV_SHAPES = sorted(
    set(model_conv_shapes(BENCH_MODEL_1000))
    | set(model_conv_shapes(default_model_config(1000, 20)))
    | set(model_conv_shapes(default_model_config(128, 20)))
    | {(32, 1, 3, 1, 1, True, 40), (1, 1, 3, 2, 2, True, 40),
       (32, 32, 3, 1, 2, True, 2), (32, 32, 3, 1, 2, True, 4),
       (24, 16, 3, 4, 1, False, 1), (16, 24, 3, 4, 1, False, 2)})


def fd_worst_rel_err(model, x, targets, n_coords, eps, probe_seed):
    probs, _ = model.forward(x, train=True)
    model.backward(probs, targets)
    rng = np.random.default_rng(probe_seed)
    tensors = list(model.param_grad_items())
    worst = 0.0
    for _ in range(n_coords):
        name, p, g = tensors[rng.integers(0, len(tensors))]
        idx = tuple(rng.integers(0, s) for s in p.shape)
        orig = p[idx]
        p[idx] = orig + eps
        up = cross_entropy(model.forward(x)[0], targets)
        p[idx] = orig - eps
        down = cross_entropy(model.forward(x)[0], targets)
        p[idx] = orig
        fd = (up - down) / (2 * eps)
        worst = max(worst, abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-8))
    return worst


class TestConvLayer:
    @pytest.mark.parametrize("dilation,stride,causal",
                             [(1, 1, True), (2, 1, True), (3, 1, False),
                              (1, 2, False), (2, 2, True)])
    def test_forward_matches_loop_oracle(self, dilation, stride, causal):
        rng = np.random.default_rng(0)
        conv = Conv1D("c", 3, 5, kernel=3, dilation=dilation, stride=stride,
                      causal=causal, rng=rng)
        x = rng.normal(size=(4, 3, 17))
        want = conv1d_forward_loops(x, conv.params["w"], conv.params["b"],
                                    dilation, stride, conv.pad_l, conv.pad_r)
        assert np.allclose(conv.forward(x), want, atol=1e-12)

    @pytest.mark.parametrize("dilation,causal", [(1, True), (2, False), (4, True)])
    def test_backward_matches_loop_oracle(self, dilation, causal):
        rng = np.random.default_rng(1)
        conv = Conv1D("c", 2, 4, dilation=dilation, causal=causal, rng=rng)
        x = rng.normal(size=(3, 2, 15))
        dy = rng.normal(size=conv.forward(x, train=True).shape)
        dx = conv.backward(dy)
        dw, db, dx_want = conv1d_backward_loops(x, conv.params["w"], dy,
                                                dilation, 1, conv.pad_l,
                                                conv.pad_r)
        assert np.allclose(conv.grads["w"], dw, atol=1e-12)
        assert np.allclose(conv.grads["b"], db, atol=1e-12)
        assert np.allclose(dx, dx_want, atol=1e-12)

    @pytest.mark.parametrize("causal", [True, False])
    @pytest.mark.parametrize("dilation", [1, 2, 8])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("in_ch", [1, 3])
    def test_same_bytes_as_per_tap_oracle(self, in_ch, kernel, stride,
                                          dilation, causal):
        # kernel 1 pads neither side and causal pads no right side
        rng = np.random.default_rng(kernel * 100 + dilation * 10 + stride)
        conv = Conv1D("c", in_ch, 5, kernel=kernel, dilation=dilation,
                      stride=stride, causal=causal, rng=rng)
        assert (conv.params["w"] < 0).any()
        for batch in (1, 7, 16):
            assert_conv_matches_per_tap(
                conv, lambda shape: rng.choice(CONV_LATTICE, size=shape),
                batch, 37, rng)
            assert_conv_matches_per_tap(
                conv, lambda shape: rng.normal(size=shape), batch, 37, rng)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(in_ch=st.integers(1, 3), out_ch=st.integers(1, 6),
           kernel=st.integers(1, 5), stride=st.integers(1, 3),
           dilation=st.integers(1, 8), causal=st.booleans(),
           batch=st.integers(1, 16), length=st.integers(1, 40),
           lattice=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_fuzz_same_bytes_as_per_tap_oracle(self, in_ch, out_ch, kernel,
                                               stride, dilation, causal,
                                               batch, length, lattice, seed):
        rng = np.random.default_rng(seed)
        conv = Conv1D("c", in_ch, out_ch, kernel=kernel, dilation=dilation,
                      stride=stride, causal=causal, rng=rng)
        if lattice:
            def draw(shape):
                return rng.choice(CONV_LATTICE, size=shape)
        else:
            def draw(shape):
                return rng.normal(size=shape)
        # the padding is one short of the kernel span, so every length
        # gives at least one output position
        assert_conv_matches_per_tap(conv, draw, batch, length, rng)

    @pytest.mark.parametrize(
        "in_ch,out_ch,kernel,dilation,stride,causal,length",
        MODEL_CONV_SHAPES)
    def test_model_widths_same_bytes_as_per_tap_oracle(
            self, in_ch, out_ch, kernel, dilation, stride, causal, length):
        rng = np.random.default_rng(in_ch * 1000 + out_ch + length)
        conv = Conv1D("c", in_ch, out_ch, kernel=kernel, dilation=dilation,
                      stride=stride, causal=causal, rng=rng)
        conv.params = {k: v.astype(np.float32)
                       for k, v in conv.params.items()}
        assert conv.input_grad
        for batch in (1, 7, 16):
            assert_conv_matches_per_tap(
                conv, lambda shape: rng.normal(size=shape).astype(np.float32),
                batch, length, rng)

    @pytest.mark.parametrize(
        "in_ch,out_ch,kernel,stride,causal,length,pieces", [
            pytest.param(12, 16, 3, 1, True, 37, [1], id="one-row-stride-1"),
            pytest.param(12, 16, 3, 2, True, 37, [1], id="one-row-stride-2"),
            pytest.param(12, 16, 3, 2, True, 37, [1, 1], id="1-row-pieces"),
            pytest.param(12, 16, 3, 1, False, 37, [3, 1, 4], id="3-1-4"),
            pytest.param(12, 16, 3, 2, True, 37, [1, 6, 1], id="1-6-1"),
            # kernel 1 pads nothing, so a one-channel tap of a whole batch
            # reshapes to a view of its padded input: unit-stride at stride
            # 1, strided at stride 2 when the stride divides the length
            pytest.param(1, 5, 1, 1, True, 37, [1], id="k1-in1-one-row"),
            pytest.param(1, 5, 1, 1, True, 37, [2, 1, 3], id="k1-in1-2-1-3"),
            pytest.param(1, 5, 1, 2, True, 37, [1, 1], id="k1-in1-1-1"),
            pytest.param(1, 4, 1, 2, True, 100, [2, 3], id="k1-in1-view-2-3"),
            # one input and one output channel make each tap a dot product
            # of two vectors, whose bits follow their strides
            pytest.param(1, 1, 3, 2, True, 100, [1], id="in1-out1-one-row"),
            pytest.param(1, 1, 1, 2, True, 100, [1], id="k1-in1-out1-one-row"),
            pytest.param(1, 1, 1, 2, True, 100, [2, 3], id="k1-in1-out1-2-3"),
            pytest.param(1, 1, 1, 2, True, 100, [1, 1], id="k1-in1-out1-1-1"),
            # one row of a kernel-1 conv reshapes to an F-ordered view
            pytest.param(12, 16, 1, 1, True, 100, [1], id="k1-one-row"),
            pytest.param(8, 1, 3, 1, True, 37, [1], id="out1-one-row"),
            pytest.param(8, 1, 3, 2, False, 37, [4, 1, 3], id="out1-4-1-3"),
            pytest.param(12, 16, 3, 2, True, 1, [1], id="lout1-one-row"),
            pytest.param(12, 16, 3, 2, True, 1, [1, 5, 2], id="lout1-1-5-2"),
        ])
    def test_weight_grads_from_row_pieces_same_bytes_as_per_tap_oracle(
            self, in_ch, out_ch, kernel, stride, causal, length, pieces):
        """The weight gradients of a conv whose batch ran as row tiles, as a
        tiled training step takes them, have the bytes the per-tap oracle
        takes from the whole batch; one tile goes the serial way."""
        rng = np.random.default_rng(sum(pieces) * 100 + in_ch + stride)
        conv = Conv1D("c", in_ch, out_ch, kernel=kernel, stride=stride,
                      causal=causal, rng=rng)
        conv.params = {k: v.astype(np.float32)
                       for k, v in conv.params.items()}
        x = rng.normal(size=(sum(pieces), in_ch, length)).astype(np.float32)
        stacks = [[conv]] + [[copy.copy(conv)] for _ in pieces[1:]]
        tiles, lo = [], 0
        for stack, rows in zip(stacks, pieces):
            tiles.append(slice(lo, lo + rows))
            stack[0].forward(x[tiles[-1]], train=True)
            lo += rows
        dy = rng.normal(size=(len(x), out_ch, conv.out_len(length)))
        dy = dy.astype(np.float32)
        model_mod._backward_tiles(stacks, tiles, dy)
        args = (1, stride, conv.pad_l, conv.pad_r)
        _, xp = conv1d_forward_per_tap(x, conv.params["w"], conv.params["b"],
                                       *args)
        for got, want in zip((conv.grads["w"], conv.grads["b"]),
                             conv1d_weight_grads_per_tap(
                                 xp, conv.params["w"], dy, *args)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_causal_outputs_ignore_future_inputs(self):
        rng = np.random.default_rng(2)
        stack = [Conv1D("c0", 1, 3, dilation=1, causal=True, rng=rng),
                 Conv1D("c1", 3, 2, dilation=2, causal=True, rng=rng)]
        x1 = rng.normal(size=(1, 1, 20))
        for t in (5, 12, 19):
            x2 = x1.copy()
            x2[0, 0, t] += 1.0
            h1, h2 = x1, x2
            for conv in stack:
                h1, h2 = conv.forward(h1), conv.forward(h2)
            assert np.array_equal(h1[:, :, :t], h2[:, :, :t])
            assert not np.array_equal(h1[:, :, t:], h2[:, :, t:])

    def test_plain_conv_uses_both_sides(self):
        rng = np.random.default_rng(3)
        conv = Conv1D("c", 1, 2, causal=False, rng=rng)
        x1 = rng.normal(size=(1, 1, 10))
        x2 = x1.copy()
        x2[0, 0, 5] += 1.0
        y1, y2 = conv.forward(x1), conv.forward(x2)
        assert not np.array_equal(y1[:, :, 4], y2[:, :, 4])

    def test_rejects_wrong_channel_count(self):
        conv = Conv1D("c", 2, 3, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="expected"):
            conv.forward(np.zeros((1, 5, 8)))


class TestPoolingLayers:
    def test_maxpool_values_and_routing(self):
        x = np.array([[[1.0, 3.0, 2.0, 2.0, 5.0, 4.0]]])
        pool = MaxPool2()
        assert pool.forward(x, train=True).tolist() == [[[3.0, 2.0, 5.0]]]
        dx = pool.backward(np.array([[[10.0, 20.0, 30.0]]]))
        # ties (the 2,2 pair) route to the first element
        assert dx.tolist() == [[[0.0, 10.0, 20.0, 0.0, 30.0, 0.0]]]

    def test_maxpool_drops_odd_tail(self):
        pool = MaxPool2()
        y = pool.forward(np.array([[[1.0, 3.0, 9.0]]]), train=True)
        assert y.tolist() == [[[3.0]]]
        assert pool.backward(np.array([[[7.0]]])).tolist() == [[[0.0, 7.0, 0.0]]]

    @pytest.mark.parametrize("length", [1, 2, 7, 64, 301])
    @pytest.mark.parametrize("values", [
        (-2.0, -1.0, 0.0, 1.0, 2.0),            # integer ties
        (0.0, -0.0, 1.0),                       # signed-zero ties
        (np.nan, -np.nan, 0.0, -0.0, 1.0),      # NaNs of both signs
    ], ids=["ints", "signed-zeros", "nans"])
    def test_maxpool_matches_argmax_oracle_bitwise(self, length, values):
        rng = np.random.default_rng(length)
        x = rng.choice(np.array(values), size=(3, 4, length))
        dy = rng.normal(size=(3, 4, length // 2))
        want_y, idx = maxpool2_forward_argmax(x)
        want_dx = maxpool2_backward_argmax(dy, idx, length)
        pool = MaxPool2()
        assert pool.forward(x).tobytes() == want_y.tobytes()
        assert pool.forward(x, train=True).tobytes() == want_y.tobytes()
        assert pool.backward(dy).tobytes() == want_dx.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_maxpool_backward_copies_every_gradient_bit(self, dtype):
        """Signed zeros, infinities and NaNs reach the winning slot as they
        are, and a losing slot holds +0.0, as with np.where."""
        rng = np.random.default_rng(3)
        x = rng.choice(np.array([-1.0, 0.0, -0.0, 1.0, np.nan]),
                       size=(2, 3, 41)).astype(dtype)
        dy = rng.choice(np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, -2.5,
                                  1e-45]), size=(2, 3, 20)).astype(dtype)
        _, idx = maxpool2_forward_argmax(x.astype(np.float64))
        want = maxpool2_backward_argmax(dy.astype(np.float64), idx, 41)
        pool = MaxPool2()
        pool.forward(x, train=True)
        dx = pool.backward(dy)
        assert dx.dtype == dtype
        assert dx.tobytes() == want.astype(dtype).tobytes()

    def test_gap_mean_and_backward(self):
        gap = GlobalAvgPool()
        x = np.arange(12.0).reshape(1, 3, 4)
        assert np.array_equal(gap.forward(x, train=True), x.mean(axis=2))
        dx = gap.backward(np.array([[4.0, 8.0, 12.0]]))
        assert np.allclose(dx, np.repeat([[1.0, 2.0, 3.0]], 4).reshape(1, 3, 4))

    def test_dense_shape_check(self):
        dense = Dense("fc", 4, 2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="expected"):
            dense.forward(np.zeros((1, 5)))


class TestModelConfig:
    def test_default_architecture(self):
        cfg = default_model_config(1000, 21)
        assert [b.out_channels for b in cfg.blocks] == [32, 64, 64, 128]
        assert [b.dilation for b in cfg.blocks] == [1, 2, 4, 8]
        assert [b.pool for b in cfg.blocks] == ["max2", "max2", "none", "none"]
        assert all(b.causal and b.kernel == 3 for b in cfg.blocks)
        assert cfg.fc == (21,)

    def test_rejects_even_kernel(self):
        with pytest.raises(ValueError, match="odd"):
            ConvBlock(8, kernel=4)

    def test_rejects_bad_dilation_and_pool(self):
        with pytest.raises(ValueError):
            ConvBlock(8, dilation=0)
        with pytest.raises(ValueError):
            ConvBlock(8, pool="avg3")

    def test_requires_conv_block_and_matching_head(self):
        with pytest.raises(ValueError):
            ModelConfig(64, 3, (), fc=(3,))
        with pytest.raises(ValueError, match="num_classes"):
            ModelConfig(64, 3, (ConvBlock(4),), fc=(5,))
        with pytest.raises(ValueError, match="fc widths"):
            ModelConfig(64, 3, (ConvBlock(4),), fc=(0, 3))


class TestForward:
    def test_zero_head_gives_uniform_probs(self):
        model = Model(TINY, seed=0)
        head = model.layers[-1]
        head.params["w"][...] = 0.0
        head.params["b"][...] = 0.0
        probs, _ = model.forward(np.random.default_rng(0).normal(size=(5, 64)))
        assert np.array_equal(probs, np.full((5, 3), 1.0 / 3.0))

    def test_probs_are_distributions(self):
        model = Model(TINY, seed=1)
        x = np.random.default_rng(1).choice([-1.0, 1.0], size=(9, 64))
        probs, feats = model.forward(x)
        assert np.all((probs > 0) & (probs < 1))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert feats.shape == (9, 16)

    def test_identity_kernel_features_are_input_means(self):
        cfg = ModelConfig(32, 2, (ConvBlock(1, causal=False),), fc=(2,))
        model = Model(cfg, seed=0)
        conv = model.layers[0]
        conv.params["w"][...] = np.array([[[0.0, 1.0, 0.0]]])
        conv.params["b"][...] = 0.0
        # non-negative input passes the ReLU untouched
        x = np.random.default_rng(2).random((6, 32)).astype(model.dtype)
        _, feats = model.forward(x)
        assert np.array_equal(feats[:, 0], x.mean(axis=1))

    def test_rejects_wrong_length(self):
        model = Model(TINY, seed=0)
        with pytest.raises(ValueError, match="expected"):
            model.forward(np.zeros((2, 65)))

    def test_inference_tiling_keeps_bits(self, monkeypatch):
        batch = 37
        assert batch > TILE_ROWS and batch % TILE_ROWS
        model = Model(default_model_config(200, 5), seed=3)
        # 19.8M multiply-adds per 8-row tile: the threaded path
        assert model._threaded
        x = np.random.default_rng(5).choice([-1.0, 0.0, 1.0], size=(batch, 200))
        h = x.astype(model.dtype)[:, None, :]
        for i, layer in enumerate(model.layers):
            h = layer.forward(h)
            if isinstance(layer, GlobalAvgPool):
                want_feats = h
        pools = []
        monkeypatch.setattr(model_mod, "ThreadPoolExecutor",
                            lambda workers: pools.append(workers)
                            or ThreadPoolExecutor(workers))
        # more threads than cores, switching as often as the interpreter
        # allows, would show any state the tiles share
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in (1, 2, 8):
                monkeypatch.setattr(model_mod, "_cpu_count", lambda: cpus)
                probs, feats = model.forward(x)
                assert feats.tobytes() == want_feats.tobytes()
                assert probs.tobytes() == softmax(
                    h.astype(np.float64)).tobytes()
        finally:
            sys.setswitchinterval(interval)
        # five 8-row tiles: the caller and one worker at 2 CPUs, the caller
        # and four workers at 8
        assert pools == [1, 4]

    def test_small_model_never_starts_threads(self, monkeypatch):
        # the shape of criterion 5's BENCH_MODEL: 3.0M multiply-adds per tile
        model = Model(ModelConfig(1000, 20, tuple(
            ConvBlock(ch, stride=2) for ch in (8, 12, 16, 24, 32, 32, 32)),
            fc=(20,)), seed=0)
        assert not model._threaded

        def refuse(workers):
            raise AssertionError("thread pool constructed")

        monkeypatch.setattr(model_mod, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(model_mod, "_cpu_count", lambda: 2)
        x = np.random.default_rng(0).choice([-1.0, 1.0], size=(64, 1000))
        probs, _ = model.forward(x)
        assert probs.shape == (64, 20)

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(model_mod.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(model_mod.os, "cpu_count", lambda: None)
        assert model_mod._cpu_count() == 1
        monkeypatch.setattr(model_mod.os, "cpu_count", lambda: 3)
        assert model_mod._cpu_count() == 3

    def test_backward_releases_forward_caches(self):
        (train_set, _, _) = tiny_task()
        model = Model(TINY, seed=0)
        probs, _ = model.forward(train_set.traces.astype(np.float64),
                                 train=True)
        model.backward(probs, np.eye(3)[train_set.labels])
        kinds = {type(layer) for layer in model.layers}
        assert {Conv1D, ReLU, MaxPool2, Dense} <= kinds
        for layer in model.layers:
            for attr in ("_cache", "_mask", "_left_wins", "_x"):
                assert getattr(layer, attr, None) is None, (layer.name, attr)

    def test_empty_batch(self):
        probs, feats = Model(TINY, seed=0).forward(np.zeros((0, 64)))
        assert probs.shape == (0, 3) and feats.shape == (0, 16)


BENCH_MODEL = ModelConfig(1000, 20, tuple(
    ConvBlock(ch, stride=2) for ch in (8, 12, 16, 24, 32, 32, 32)), fc=(20,))


def random_model(cfg, seed):
    """A model of ``cfg`` with normal weights and biases, a fifth of them
    exactly zero."""
    model = Model(cfg, seed=0)
    rng = np.random.default_rng(seed)
    model.params[...] = np.where(rng.random(model.params.size) < 0.2, 0.0,
                                 rng.standard_normal(model.params.size))
    return model


def conv0_rows(monkeypatch):
    """The row count of every batch ``conv0`` runs over, in call order."""
    seen, forward = [], Conv1D.forward

    def recording(self, x, train=False):
        if self.name == "conv0":
            seen.append(len(x))
        return forward(self, x, train)

    monkeypatch.setattr(Conv1D, "forward", recording)
    return seen


class TestFirstBlockTable:
    """Inference on int8 traces looks the first conv block up in a table of
    its outputs; a float64 feed of the same traces runs the block itself,
    and both give the same bytes."""

    def same_bytes(self, model, x):
        probs, feats = model.forward(x)
        want_probs, want_feats = model.forward(x.astype(np.float64))
        assert feats.tobytes() == want_feats.tobytes()
        assert probs.tobytes() == want_probs.tobytes()

    def test_stock_model_threaded(self, monkeypatch):
        model = random_model(default_model_config(200, 5), seed=1)
        assert model._threaded
        x = np.random.default_rng(2).integers(-1, 2, (37, 200)).astype(np.int8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in (1, 2, 8):
                monkeypatch.setattr(model_mod, "_cpu_count", lambda: cpus)
                self.same_bytes(model, x)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("batch", [0, 1, 37])
    @pytest.mark.parametrize("cfg", [default_model_config(1000, 5),
                                     BENCH_MODEL], ids=["stock", "bench"])
    def test_batch_sizes(self, cfg, batch):
        # 37 rows end in a ragged tile: 8-row tiles for the stock model,
        # 16-row ones for BENCH_MODEL
        model = random_model(cfg, seed=3)
        x = np.random.default_rng(4).integers(-1, 2, (batch, 1000))
        self.same_bytes(model, x.astype(np.int8))

    @pytest.mark.parametrize("cfg, patterns", [
        (default_model_config(1000, 5), 3 ** 4), (BENCH_MODEL, 3 ** 3)],
        ids=["stock", "bench"])
    def test_conv0_runs_once_per_call_on_the_patterns(self, monkeypatch, cfg,
                                                     patterns):
        model = random_model(cfg, seed=5)
        seen = conv0_rows(monkeypatch)
        x = np.random.default_rng(6).integers(-1, 2, (300, 1000))
        labels, _ = predict(model, x.astype(np.int8))
        assert seen == [patterns, patterns]
        seen.clear()
        assert np.array_equal(predict(model, x.astype(np.float32))[0], labels)
        assert patterns not in seen and sum(seen) == 300

    def test_too_big_a_table_runs_the_block(self, monkeypatch):
        # 3^10 input windows: the table would cost more than a tile
        cfg = ModelConfig(1000, 4, (ConvBlock(6, kernel=5, dilation=4,
                                              pool="max2"), ConvBlock(5)),
                          fc=(4,))
        model = random_model(cfg, seed=7)
        seen = conv0_rows(monkeypatch)
        x = np.random.default_rng(8).integers(-1, 2, (40, 1000))
        self.same_bytes(model, x.astype(np.int8))
        assert seen == [16, 16, 8] * 2

    def test_too_short_a_batch_runs_the_block(self, monkeypatch):
        # one row of 200 cells holds fewer conv positions than the 81
        # patterns of 4 cells take
        model = random_model(default_model_config(200, 5), seed=9)
        seen = conv0_rows(monkeypatch)
        x = np.random.default_rng(10).integers(-1, 2, (1, 200))
        self.same_bytes(model, x.astype(np.int8))
        assert seen == [1, 1]

    def test_other_int8_values_run_the_block(self, monkeypatch):
        model = random_model(default_model_config(200, 5), seed=11)
        seen = conv0_rows(monkeypatch)
        x = np.random.default_rng(12).integers(-1, 2, (6, 200)).astype(np.int8)
        x[5, 7] = 2
        self.same_bytes(model, x)
        assert seen == [3, 3] * 2


class TestLossFunction:
    def test_perfect_one_hot_is_zero(self):
        y = np.array([[0.0, 1.0, 0.0]])
        assert cross_entropy(y, y) == 0.0

    def test_uniform_probs_analytic(self):
        probs = np.full((2, 4), 0.25)
        targets = np.eye(4)[:2]
        assert math.isclose(cross_entropy(probs, targets), math.log(4))

    def test_mixed_target_analytic(self):
        probs = np.array([[0.5, 0.5, 0.0, 0.0]])
        target = np.array([[0.5, 0.5, 0.0, 0.0]])
        assert math.isclose(cross_entropy(probs, target), math.log(2))

    def test_mixing_linearity_in_target(self):
        rng = np.random.default_rng(3)
        probs = softmax(rng.normal(size=(4, 5)))
        yi, yj = np.eye(5)[rng.integers(0, 5, 4)], np.eye(5)[rng.integers(0, 5, 4)]
        for lam in (0.0, 0.3, 0.77, 1.0):
            mixed = lam * yi + (1 - lam) * yj
            want = lam * cross_entropy(probs, yi) + (1 - lam) * cross_entropy(probs, yj)
            assert math.isclose(cross_entropy(probs, mixed), want, rel_tol=1e-10)

    def test_self_entropy_nonnegative(self):
        one_hot = np.array([[1.0, 0.0]])
        assert cross_entropy(one_hot, one_hot) == 0.0
        soft = np.array([[0.5, 0.5]])
        assert cross_entropy(soft, soft) > 0.0

    def test_zero_prob_is_floored(self):
        probs = np.array([[1.0, 0.0]])
        target = np.array([[0.0, 1.0]])
        assert cross_entropy(probs, target) == pytest.approx(-math.log(1e-12))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            cross_entropy(np.zeros((2, 3)), np.zeros((2, 4)))


class TestBackward:
    def test_gradcheck_on_lattice_network(self):
        cfg = ModelConfig(32, 3, (ConvBlock(4, causal=False),
                                  ConvBlock(6, dilation=2)), fc=(3,))
        model = lattice_model(cfg, seed=0)
        rng = np.random.default_rng(5)
        x = rng.choice([-1.0, 1.0], size=(6, 32))
        targets = np.eye(3)[rng.integers(0, 3, 6)]
        worst = fd_worst_rel_err(model, x, targets, n_coords=40, eps=1e-4,
                                 probe_seed=17)
        assert worst < 1e-3

    def test_zero_input_zero_bias_kills_conv_weight_grads(self):
        model = Model(TINY, seed=2)
        for layer in model.layers:
            if "b" in layer.params:
                layer.params["b"][...] = 0.0
        x = np.zeros((4, 64))
        targets = np.eye(3)[[0, 1, 2, 0]]
        probs, _ = model.forward(x, train=True)
        model.backward(probs, targets)
        for layer in model.layers:
            if layer.name.startswith("conv"):
                assert np.array_equal(layer.grads["w"], np.zeros_like(layer.grads["w"]))

    def test_mean_loss_grads_are_linear_in_samples(self):
        model = Model(TINY, seed=3, dtype=np.float64)
        rng = np.random.default_rng(4)
        a, b = rng.choice([-1.0, 1.0], size=(2, 64))
        ya, yb = np.eye(3)[0], np.eye(3)[2]

        def grads(x, y):
            probs, _ = model.forward(x, train=True)
            model.backward(probs, y)
            return {n: g.copy() for n, _, g in model.param_grad_items()}

        g_a = grads(a[None], ya[None])
        g_dup = grads(np.stack([a, a]), np.stack([ya, ya]))
        g_ab = grads(np.stack([a, b]), np.stack([ya, yb]))
        g_b = grads(b[None], yb[None])
        for name in g_a:
            assert np.allclose(g_dup[name], g_a[name], atol=1e-12)
            assert np.allclose(g_ab[name], (g_a[name] + g_b[name]) / 2, atol=1e-12)

    def test_first_conv_skips_its_input_gradient(self, monkeypatch):
        train_set, _, _ = tiny_task()
        x = train_set.traces.astype(np.float64)
        targets = np.eye(3)[train_set.labels]
        built = []
        zeros_like = np.zeros_like

        def recording(a, *args, **kwargs):
            built.append(a.shape)
            return zeros_like(a, *args, **kwargs)

        def grads(model):
            probs, _ = model.forward(x, train=True)
            model.backward(probs, targets)
            return [(name, g.tobytes())
                    for name, _, g in model.param_grad_items()]

        monkeypatch.setattr(np, "zeros_like", recording)
        model = Model(TINY, seed=0)
        first, second = model.layers[0], model.layers[3]
        assert not first.input_grad and second.input_grad
        fast = grads(model)
        # padded inputs: conv0 (B, 1, 64 + 2), conv1 (B, 8, 32 + 4)
        assert (len(x), 1, 66) not in built and (len(x), 8, 36) in built
        reference = Model(TINY, seed=0)
        reference.layers[0].input_grad = True
        assert grads(reference) == fast
        assert (len(x), 1, 66) in built
        model.forward(x, train=True)
        assert first.backward(np.ones((len(x), 8, 64))) is None

    @pytest.mark.parametrize("threaded", [False, True])
    def test_backward_needs_a_pending_training_pass(self, monkeypatch,
                                                    threaded):
        if threaded:
            force_tiled_training(monkeypatch, cpus=2)
        x = np.random.default_rng(0).normal(size=(4, 64))
        targets = np.eye(3)[[0, 1, 2, 0]]
        trained, only_inferred = Model(TINY, seed=0), Model(TINY, seed=0)
        probs, _ = trained.forward(x, train=True)
        trained.backward(probs, targets)
        only_inferred.forward(x)
        ran = []
        for cls in (Conv1D, ReLU, MaxPool2, GlobalAvgPool, Dense):
            monkeypatch.setattr(cls, "backward",
                                lambda self, *args: ran.append(self.name))
        for model in (trained, only_inferred):
            with pytest.raises(RuntimeError, match=r"needs a forward\(\.\.\., "
                                                   r"train=True\) first$"):
                model.backward(probs, targets)
        # a training pass that fails in its head leaves no step pending
        monkeypatch.setattr(Dense, "forward", lambda *args, **kw: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            trained.forward(x, train=True)
        with pytest.raises(RuntimeError, match="needs a forward"):
            trained.backward(probs, targets)
        assert ran == []

    def test_non_finite_pool_gradient_raises(self):
        """A non-finite gradient into MaxPool2 reaches the conv below it,
        whose weight gradient the check then refuses."""
        model = Model(TINY, seed=0)
        assert [layer.name for layer in model.layers[1:4]] == [
            "relu", "maxpool2", "conv1"]
        x = np.random.default_rng(0).normal(size=(2, 64))
        probs, _ = model.forward(x, train=True)
        # set after the forward pass: the loss stays finite, and conv1's
        # input gradient, which MaxPool2 receives, is not
        model.layers[3].params["w"][...] = np.inf
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(FloatingPointError,
                               match=r"^non-finite gradient in conv0\.w$"):
                model.backward(probs, np.eye(3)[[0, 1]])

    def test_non_finite_gradient_names_layer(self):
        model = Model(TINY, seed=0)
        model.layers[-1].params["w"][...] = np.inf
        x = np.ones((2, 64))
        with np.errstate(invalid="ignore"):
            probs, _ = model.forward(x, train=True)
            # every gradient is NaN: fc0.w comes first in the backward pass
            # and last in the parameter vector
            with pytest.raises(FloatingPointError,
                               match=r"^non-finite gradient in fc0\.w$"):
                model.backward(probs, np.eye(3)[[0, 1]])


class TestPredict:
    def test_decide_tie_breaks_to_lowest_index(self):
        labels, conf = decide(np.array([[0.25, 0.25, 0.25, 0.25]]))
        assert labels.tolist() == [0]
        assert conf.tolist() == [0.25]

    def test_decide_reports_argmax_and_confidence(self):
        labels, conf = decide(np.array([[0.1, 0.7, 0.2]]))
        assert labels.tolist() == [1] and conf.tolist() == [0.7]

    def test_no_traces(self):
        model = Model(TINY, seed=4)
        labels, confs = predict(model, np.zeros((0, 64), np.int8))
        assert labels.shape == confs.shape == (0,)
        assert labels.dtype == np.int64 and confs.dtype == np.float64

    def test_accuracy_of_no_traces_is_refused(self):
        empty = Dataset(np.zeros((0, 64), np.int8), np.zeros(0), 3)
        with pytest.raises(ValueError, match="empty dataset"):
            dataset_accuracy(Model(TINY, seed=4), empty)

    def test_batch_partition_invariance(self):
        model = Model(TINY, seed=4)
        x = np.random.default_rng(6).choice([-1, 1], size=(10, 64)).astype(np.int8)
        full_lab, full_conf = predict(model, x)
        lab3, conf3 = predict(model, x, batch_size=3)
        assert np.array_equal(full_lab, lab3)
        assert np.array_equal(full_conf, conf3)


class TestOptimizers:
    class OneTensor:
        """A model whose parameter vector is one three-element tensor."""

        def __init__(self, grad):
            self.params = self.p = np.array([1.0, -2.0, 3.0])
            self.grads = np.asarray(grad, dtype=np.float64)

    def test_sgd_first_step_is_lr_times_grad(self):
        holder = self.OneTensor([0.5, -1.0, 0.0])
        opt = SgdMomentum(holder, lr=0.1)
        opt.step()
        assert np.allclose(holder.p, [1.0 - 0.05, -2.0 + 0.1, 3.0])

    def test_sgd_momentum_accumulates(self):
        holder = self.OneTensor([1.0, 0.0, 0.0])
        opt = SgdMomentum(holder, lr=0.1, momentum=0.5)
        opt.step()
        opt.step()  # velocity: -0.1, then -0.15
        assert np.allclose(holder.p, [1.0 - 0.1 - 0.15, -2.0, 3.0])

    def test_adam_first_step_is_signed_lr(self):
        holder = self.OneTensor([0.5, -3.0, 0.0])
        opt = Adam(holder, lr=0.01)
        opt.step()
        # bias-corrected first step moves each coordinate by ~lr*sign(g)
        assert np.allclose(holder.p, [1.0 - 0.01, -2.0 + 0.01, 3.0], atol=1e-6)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.epochs, cfg.batch_size, cfg.lr) == (150, 32, 1e-3)

    @pytest.mark.parametrize("kw", [dict(epochs=0), dict(batch_size=0),
                                    dict(lr=0.0), dict(lr=float("nan")),
                                    dict(lr=float("inf"))])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)


class TestTraining:
    def test_overfits_small_task(self):
        train_set, _, _ = tiny_task()
        model, history = train(TINY, TrainConfig(epochs=40, batch_size=64,
                                                 lr=1e-2, seed=0),
                               train_set, train_set)
        assert dataset_accuracy(model, train_set) >= 0.99
        assert len(history) == 40

    def test_no_config_never_augments(self, monkeypatch):
        train_set, val_set, _ = tiny_task()

        def no_augmentation(*args):
            raise AssertionError("hda_batch called without a config")

        monkeypatch.setattr(training, "hda_batch", no_augmentation)
        train(TINY, TrainConfig(epochs=2, batch_size=16, seed=1), train_set,
              val_set, aug_cfg=None)

    @pytest.mark.parametrize("aug", [
        AugConfig(r_max=5, m_len=None, alpha=None),
        AugConfig(r_max=None, m_len=8, alpha=None),
        AugConfig(r_max=None, m_len=None, alpha=0.5),
        AugConfig(r_max=5, m_len=8, alpha=0.5),
    ], ids=["rotation", "masking", "mixing", "all"])
    def test_int8_feed_same_bytes_as_float32_feed(self, tmp_path, monkeypatch,
                                                  aug):
        # traces reach hda_batch as int8; a feed cast to float32 first, the
        # model dtype, trains the same bytes
        args = (tmp_path, TINY, TrainConfig(epochs=3, batch_size=8, seed=4),
                synth_dataset(3, 9, 64, 0.05, seed=11), aug)
        hda_batch, fed = training.hda_batch, set()

        def float32_feed(x, *rest):
            fed.add(x.dtype)
            return hda_batch(x.astype(np.float32), *rest)

        int8_feed = trained_bytes(*args)
        monkeypatch.setattr(training, "hda_batch", float32_feed)
        assert trained_bytes(*args) == int8_feed
        assert fed == {np.dtype(np.int8)}

    def test_same_seed_is_bitwise_reproducible(self):
        train_set, val_set, _ = tiny_task()
        cfg = TrainConfig(epochs=6, batch_size=16, seed=7)
        aug = AugConfig(r_max=5, m_len=8, alpha=0.5)
        m1, h1 = train(TINY, cfg, train_set, val_set, aug_cfg=aug)
        m2, h2 = train(TINY, cfg, train_set, val_set, aug_cfg=aug)
        assert h1 == h2
        for (_, p1), (_, p2) in zip(m1.param_items(), m2.param_items()):
            assert np.array_equal(p1, p2)

    def test_returns_best_validation_checkpoint(self):
        train_set, val_set, _ = tiny_task()
        model, history = train(TINY, TrainConfig(epochs=12, batch_size=16,
                                                 lr=1e-2, seed=2),
                               train_set, val_set)
        best = max(h.val_acc for h in history)
        assert dataset_accuracy(model, val_set) == best

    def test_loss_monotone_after_warmup_on_overfit_task(self):
        train_set, _, _ = tiny_task()
        violations = 0
        for seed in range(10):
            _, history = train(TINY, TrainConfig(epochs=20, batch_size=64,
                                                 seed=seed),
                               train_set, train_set)
            losses = [h.train_loss for h in history]
            ok = all(losses[i + 1] <= losses[i] + 1e-9
                     for i in range(5, len(losses) - 1))
            violations += not ok
        assert violations <= 1

    def test_divergence_aborts_with_history(self):
        train_set, val_set, _ = tiny_task()
        cfg = TrainConfig(epochs=5, batch_size=64, lr=1e155, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged) as err:
                train(TINY, cfg, train_set, val_set)
        assert len(err.value.history) == err.value.epoch

    def test_last_step_overflow_aborts(self):
        # one epoch of one batch: only the parameters show the overflow
        train_set, val_set, _ = tiny_task()
        cfg = TrainConfig(epochs=1, batch_size=64, lr=1e155, seed=0)
        one_block = ModelConfig(64, 3, (ConvBlock(8),), fc=(3,))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged,
                               match="non-finite loss or parameters") as err:
                train(one_block, cfg, train_set, val_set)
        assert len(err.value.history) == err.value.epoch == 0

    def test_rejects_class_count_mismatch(self):
        train_set, val_set, _ = tiny_task()
        bad = ModelConfig(64, 4, (ConvBlock(8),), fc=(4,))
        with pytest.raises(ValueError, match="classes"):
            train(bad, TrainConfig(epochs=1), train_set, val_set)

    def test_rejects_train_val_class_count_mismatch(self):
        train_set, val_set, _ = tiny_task()
        wider = replace(val_set, num_classes=4)
        with pytest.raises(ValueError, match="validation set"):
            train(TINY, TrainConfig(epochs=1), train_set, wider)

    def test_rejects_length_mismatch(self):
        train_set, val_set, _ = tiny_task()
        bad = ModelConfig(128, 3, (ConvBlock(8),), fc=(3,))
        with pytest.raises(ValueError, match="length"):
            train(bad, TrainConfig(epochs=1), train_set, val_set)

    def test_history_csv_layout(self, tmp_path):
        from wfaug.nn import HistoryRow
        path = tmp_path / "history.csv"
        write_history(path, [HistoryRow(0, 1.5, 0.25), HistoryRow(1, 0.75, 0.5)])
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_acc"
        assert lines[1] == "0,1.5,0.25"
        assert lines[2] == "1,0.75,0.5"


def force_tiled_training(monkeypatch, cpus):
    """Make every model threaded and ``cpus`` CPUs visible; returns the
    worker counts of the thread pools models start from then on, and the
    tile count of each training step that goes back through the conv
    stack."""
    monkeypatch.setattr(model_mod, "PARALLEL_MIN_MACS", 1)
    monkeypatch.setattr(model_mod, "_cpu_count", lambda: cpus)
    pools, steps = [], []
    monkeypatch.setattr(model_mod, "ThreadPoolExecutor",
                        lambda workers: pools.append(workers)
                        or ThreadPoolExecutor(workers))
    backward_tiles = model_mod._backward_tiles
    monkeypatch.setattr(model_mod, "_backward_tiles",
                        lambda stacks, *rest: steps.append(len(stacks))
                        or backward_tiles(stacks, *rest))
    return pools, steps


def trained_bytes(tmp_path, model_cfg, train_cfg, data, aug):
    """Weight bytes per tensor and ``history.csv`` bytes of one training on
    a 5-shot, 3-validation split of ``data``."""
    train_set, val_set, _ = make_splits(data, SplitSpec(5, 3, 0, seed=0))
    model, history = train(model_cfg, train_cfg, train_set, val_set, aug)
    path = tmp_path / "history.csv"
    write_history(path, history)
    return ([(name, p.tobytes()) for name, p in model.param_items()],
            path.read_bytes())


class TestThreadedTraining:
    """A threaded model trains its conv stack over row tiles of at most
    TILE_ROWS // 2 rows, two at least, on up to one thread per CPU with the
    calling thread among them, and takes the weight gradients over the whole
    batch: the bytes of the untiled step, whatever the CPU count and however
    often the interpreter switches threads."""

    STOCK = default_model_config(64, 4)

    @pytest.mark.parametrize("train_cfg, aug, tiles", [
        (TrainConfig(epochs=2, batch_size=16, lr=3e-3, seed=3),
         AugConfig(r_max=5, m_len=6, alpha=0.2), 2),
        (TrainConfig(epochs=2, batch_size=16, lr=1e-2, seed=4), None, 2),
        (TrainConfig(epochs=1, batch_size=3, seed=5),
         AugConfig(r_max=None, m_len=None, alpha=0.5), 2),
        (TrainConfig(epochs=1, batch_size=1, seed=6), None, 1),
        (TrainConfig(epochs=2, batch_size=32, lr=3e-3, seed=7),
         AugConfig(r_max=5, m_len=6, alpha=0.2), 3),
    ], ids=["adam-hda-16", "adam-16", "adam-mix-3", "adam-1",
            "adam-hda-32"])
    def test_same_bytes_as_the_serial_step(self, monkeypatch, tmp_path,
                                           train_cfg, aug, tiles):
        # 4 classes x 5 shots = 20 training traces, so batches of 16 and 3
        # end with a partial one, and a batch of 32 is one of 20 rows in
        # tiles of 8, 8 and 4
        data = synth_dataset(4, 8, 64, 0.05, seed=9)
        assert not Model(self.STOCK, seed=0)._threaded
        serial = trained_bytes(tmp_path, self.STOCK, train_cfg, data, aug)
        # switching threads as often as the interpreter allows would show
        # any state the tiles share
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in (1, 2, 8):
                pools, steps = force_tiled_training(monkeypatch, cpus)
                assert trained_bytes(tmp_path, self.STOCK, train_cfg, data,
                                     aug) == serial, cpus
                assert max(steps) == tiles
                # one thread per CPU and tile at most, the caller's among
                # them; validation passes run 12 rows as two tiles
                assert max(pools, default=0) == min(cpus, max(tiles, 2)) - 1
        finally:
            sys.setswitchinterval(interval)

    def test_bench_model_never_starts_threads(self, monkeypatch):
        cfg = ModelConfig(1000, 6, tuple(
            ConvBlock(ch, stride=2) for ch in (8, 12, 16, 24, 32, 32, 32)),
            fc=(6,))
        assert not Model(cfg, seed=0)._threaded

        def refuse(workers):
            raise AssertionError("thread pool constructed")

        monkeypatch.setattr(model_mod, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(model_mod, "_cpu_count", lambda: 2)
        train_set, val_set, _ = make_splits(synth_dataset(6, 8, 1000, 0.05,
                                                          seed=4),
                                            SplitSpec(5, 3, 0, seed=0))
        train(cfg, TrainConfig(epochs=1, batch_size=16, seed=3), train_set,
              val_set, AugConfig(r_max=20, m_len=36, alpha=0.1))

    def tiled_step(self, monkeypatch, seed=0):
        """A threaded stock model at 2 CPUs after a training forward pass of
        20 rows, with its targets. Of its tiles of 8, 8 and 4 rows the first
        runs in the calling thread, the second on a worker and the third on
        whichever of them is free first, in every phase."""
        pools, _ = force_tiled_training(monkeypatch, cpus=2)
        model = Model(self.STOCK, seed=seed)
        rng = np.random.default_rng(seed)
        x = rng.choice([-1.0, 1.0], size=(20, 64))
        probs, _ = model.forward(x, train=True)
        assert pools == [1] and model._tiles is not None
        return model, probs, np.eye(4)[rng.integers(0, 4, 20)]

    def test_backward_releases_every_tile_cache(self, monkeypatch):
        model, probs, targets = self.tiled_step(monkeypatch)
        stacks, tiles = model._tiles
        assert tiles == [slice(0, 8), slice(8, 16), slice(16, 24)]
        assert stacks[0] == model.layers[:len(stacks[0])]
        copies = stacks[1] + stacks[2]
        assert len({id(layer) for layer in stacks[0] + copies}) == 3 * len(
            stacks[0])
        model.backward(probs, targets)
        assert model._tiles is None
        for layer in model.layers + copies:
            for attr in ("_cache", "_mask", "_left_wins", "_x"):
                assert getattr(layer, attr, None) is None, (layer.name, attr)

    def worker_input_grads(self, monkeypatch, conv, spoil):
        """``Conv1D.input_grads`` with ``spoil`` applied to what layer
        ``conv`` returns on a thread other than the main one."""
        input_grads = Conv1D.input_grads

        def spoiled(self, xp, dy):
            dx = input_grads(self, xp, dy)
            if (self.name == conv and threading.current_thread()
                    is not threading.main_thread()):
                dx = spoil(dx)
            return dx

        monkeypatch.setattr(Conv1D, "input_grads", spoiled)

    def test_non_finite_worker_gradient_reaches_the_caller(self,
                                                           monkeypatch):
        model, probs, targets = self.tiled_step(monkeypatch)
        # conv1's input gradient reaches conv0's weight gradient only
        self.worker_input_grads(monkeypatch, "conv1",
                                lambda dx: np.full_like(dx, np.inf))
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(FloatingPointError,
                               match=r"^non-finite gradient in conv0\.w$"):
                model.backward(probs, targets)

    def test_worker_runtime_warning_reaches_the_caller(self, monkeypatch):
        model, probs, targets = self.tiled_step(monkeypatch)
        self.worker_input_grads(monkeypatch, "conv2",
                                lambda dx: dx / np.zeros_like(dx))
        # tier-1 turns every RuntimeWarning into an error (pyproject.toml)
        with pytest.raises(RuntimeWarning, match="encountered in divide"):
            model.backward(probs, targets)

    def test_worker_keeps_the_callers_error_state(self, monkeypatch):
        model, probs, targets = self.tiled_step(monkeypatch)
        self.worker_input_grads(monkeypatch, "conv2",
                                lambda dx: dx / np.zeros_like(dx))
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError,
                               match=r"^non-finite gradient in conv1\.w$"):
                model.backward(probs, targets)


# the stock model at L=1000 makes products large enough for OpenBLAS to split
# them over threads
TRAIN_STOCK_MODEL = """
import hashlib
from wfaug.nn import TrainConfig, default_model_config, train
from wfaug.traces import SplitSpec, make_splits, synth_dataset
train_set, val_set, _ = make_splits(synth_dataset(4, 6, 1000, 0.05, seed=7),
                                    SplitSpec(2, 1, 0, seed=0))
model, _ = train(default_model_config(1000, 4),
                 TrainConfig(epochs=1, batch_size=16, seed=0),
                 train_set, val_set)
print(hashlib.sha256(model.params.tobytes()).hexdigest())
"""


class TestBlasThreads:
    """Building a model pins numpy's bundled OpenBLAS to one thread."""

    def test_building_a_model_sets_one_thread(self, monkeypatch):
        calls = []
        monkeypatch.setattr(model_mod, "_blas_thread_setter",
                            lambda: calls.append)
        Model(TINY, seed=0)
        assert calls == [1]

    def test_api_train_same_bytes_at_one_and_two_blas_threads(self):
        src = str(Path(model_mod.__file__).parents[2])
        digests = [subprocess.run(
            [sys.executable, "-c", TRAIN_STOCK_MODEL], check=True,
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src,
                     OPENBLAS_NUM_THREADS=threads)).stdout
            for threads in ("1", "2")]
        assert len(digests[0]) == 65 and digests[0] == digests[1]

    def test_no_setter_leaves_blas_as_configured(self, monkeypatch):
        # numpy bundles no scipy-openblas: models build, train and predict
        monkeypatch.setattr(model_mod, "_blas_thread_setter", lambda: None)
        train_set, val_set, _ = tiny_task()
        model, history = train(TINY, TrainConfig(epochs=1, batch_size=16,
                                                  seed=0), train_set, val_set)
        labels, confs = predict(model, val_set.traces)
        assert len(history) == 1
        assert labels.shape == confs.shape == (len(val_set),)


class TestSameBitsAsPerTapConv:
    """Training through ``Conv1D`` gives the bytes the per-tap reference
    convolution (the ``per_tap_conv`` fixture) gives on the same machine."""

    def run_both(self, request, tmp_path, *args):
        fast = trained_bytes(tmp_path, *args)
        request.getfixturevalue("per_tap_conv")
        reference = trained_bytes(tmp_path, *args)
        assert fast == reference

    def test_bench_model_shape_with_hda(self, request, tmp_path):
        cfg = ModelConfig(1000, 6, tuple(
            ConvBlock(ch, stride=2) for ch in (8, 12, 16, 24, 32, 32, 32)),
            fc=(6,))
        self.run_both(request, tmp_path, cfg,
                      TrainConfig(epochs=2, batch_size=16, lr=2e-3, seed=3),
                      synth_dataset(6, 8, 1000, 0.05, seed=4),
                      AugConfig(r_max=20, m_len=36, alpha=0.1))

    def test_stock_model(self, request, tmp_path):
        self.run_both(request, tmp_path, default_model_config(128, 4),
                      TrainConfig(epochs=1, batch_size=16, seed=5),
                      synth_dataset(4, 8, 128, 0.05, seed=6), None)

    def test_stock_model_threaded(self, request, tmp_path, monkeypatch):
        pools, _ = force_tiled_training(monkeypatch, cpus=2)
        self.run_both(request, tmp_path, default_model_config(128, 4),
                      TrainConfig(epochs=1, batch_size=16, seed=5),
                      synth_dataset(4, 8, 128, 0.05, seed=6),
                      AugConfig(r_max=9, m_len=12, alpha=0.2))
        assert 1 in pools


class TestSameBitsAsPerTensorStep(TestSameBitsAsPerTapConv):
    """The same trainings give the bytes of per-tensor optimizer steps, a
    per-layer finite check and index-arithmetic rotation and masking (the
    ``per_tensor_step`` fixture)."""

    def run_both(self, request, tmp_path, *args):
        fast = trained_bytes(tmp_path, *args)
        steps = request.getfixturevalue("per_tensor_step")
        assert trained_bytes(tmp_path, *args) == fast
        assert steps, "the per-tensor optimizer took no step"

    def test_stock_model_rotation_and_masking(self, request, tmp_path):
        self.run_both(request, tmp_path, default_model_config(128, 4),
                      TrainConfig(epochs=2, batch_size=16, lr=1e-2, seed=7),
                      synth_dataset(4, 8, 128, 0.05, seed=8),
                      AugConfig(r_max=9, m_len=12, alpha=None))


class TestParameterVector:
    """A model's parameters live in one vector, its gradients in another."""

    def test_layer_tensors_are_views_in_table_order(self):
        model = Model(default_model_config(128, 4), seed=7)
        model.params[...] = np.arange(model.params.size)
        flat = np.concatenate([p.ravel() for _, p in model.param_items()])
        assert flat.tobytes() == model.params.tobytes()
        assert model.grads.shape == model.params.shape

    def test_backward_gathers_the_layer_gradients(self):
        model = Model(TINY, seed=1)
        train_set, _, _ = tiny_task()
        probs, _ = model.forward(train_set.traces, train=True)
        model.backward(probs, np.eye(3)[train_set.labels])
        want = np.concatenate([g.ravel() for _, _, g in
                               model.param_grad_items()])
        assert model.grads.tobytes() == want.tobytes()

    def test_state_copy_round_trip(self):
        model = Model(TINY, seed=2)
        before = [(name, p.tobytes()) for name, p in model.param_items()]
        state = model.state_copy()
        assert not np.shares_memory(state, model.params)
        model.params[...] = 0.5
        model.load_state(state)
        state[...] = 0.0
        assert [(name, p.tobytes()) for name, p in model.param_items()] == \
            before


class TestDtypes:
    """The network body keeps its dtype end to end; probabilities are
    float64 whatever it is."""

    def step_dtypes(self, model, optimizer):
        """Dtypes of every layer output, returned input gradient, parameter
        gradient and optimizer state over one training step."""
        seen = []
        for layer in model.layers:
            def forward(h, train=False, layer=layer, run=layer.forward):
                out = run(h, train)
                seen.append((f"{layer.name} output", out.dtype))
                return out

            def backward(d, layer=layer, run=layer.backward):
                out = run(d)
                if out is not None:
                    seen.append((f"{layer.name} input grad", out.dtype))
                return out

            layer.forward, layer.backward = forward, backward
        train_set, _, _ = tiny_task()
        probs, feats = model.forward(train_set.traces, train=True)
        assert probs.dtype == np.float64
        seen.append(("features", feats.dtype))
        model.backward(probs, np.eye(3)[train_set.labels])
        optimizer.step()
        for name, p, g in model.param_grad_items():
            seen += [(name, p.dtype), (f"{name} grad", g.dtype)]
        seen += [("params", model.params.dtype), ("grads", model.grads.dtype)]
        for attr in ("m", "v", "vel"):
            if hasattr(optimizer, attr):
                seen.append((attr, getattr(optimizer, attr).dtype))
        return seen

    @pytest.mark.parametrize("optimizer", [Adam, SgdMomentum],
                             ids=["adam", "sgd-momentum"])
    @pytest.mark.parametrize("dtype", [DTYPE, np.float64])
    def test_model_keeps_its_dtype(self, dtype, optimizer):
        model = Model(TINY, seed=0, dtype=dtype)
        seen = self.step_dtypes(model, optimizer(model, lr=1e-2))
        # 7 layer outputs, 6 input gradients (not conv0's), the features,
        # 6 parameters with their gradients, the parameter and gradient
        # vectors and 1 or 2 state vectors
        assert len(seen) == 7 + 6 + 1 + 12 + 2 + (2 if optimizer is Adam
                                                  else 1)
        assert {d for _, d in seen} == {np.dtype(dtype)}, seen

    def test_default_model_is_float32(self):
        assert Model(TINY, seed=0).dtype == DTYPE == np.float32

    def test_checkpoint_tensors_are_float32(self, tmp_path):
        model = Model(TINY, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        text_len = struct.unpack("<I", raw[8:12])[0]
        flat = np.concatenate([p.ravel() for _, p in model.param_items()])
        assert raw[12 + text_len:] == flat.astype("<f4").tobytes()
        loaded = load_checkpoint(path)
        assert loaded.dtype == np.float32
        for _, p in loaded.param_items():
            assert p.dtype == np.float32

    def test_float64_model_is_not_saved(self, tmp_path):
        with pytest.raises(ValueError, match="float32"):
            save_checkpoint(Model(TINY, seed=0, dtype=np.float64),
                            tmp_path / "model.ckpt")

    def test_per_tap_oracle_keeps_input_dtype(self):
        rng = np.random.default_rng(0)
        for in_ch in (1, 3):
            x = rng.normal(size=(2, in_ch, 9)).astype(np.float32)
            w = rng.normal(size=(4, in_ch, 3)).astype(np.float32)
            y, xp = conv1d_forward_per_tap(x, w, np.zeros(4, np.float32),
                                           2, 1, 4, 0)
            grads = conv1d_backward_per_tap(xp, w, y, 2, 1, 4, 0)
            assert {a.dtype for a in (y, xp, *grads)} == {np.dtype("f4")}


class TestCheckpoint:
    def roundtrip(self, tmp_path, model):
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        return path, load_checkpoint(path)

    def test_roundtrip_bitwise(self, tmp_path):
        model = Model(TINY, seed=9)
        path, loaded = self.roundtrip(tmp_path, model)
        assert loaded.cfg == model.cfg and loaded.seed == model.seed
        for (n1, p1), (n2, p2) in zip(model.param_items(), loaded.param_items()):
            assert n1 == n2 and np.array_equal(p1, p2)
        x = np.random.default_rng(8).choice([-1.0, 1.0], size=(4, 64))
        assert np.array_equal(model.forward(x)[0], loaded.forward(x)[0])

    def test_stock_checkpoint_is_pinned(self, tmp_path):
        """A seeded stock model's checkpoint, byte for byte: a change to the
        parameter layout or the file format shows here and has to be
        declared."""
        model = Model(default_model_config(128, 4), seed=7)
        model.trained_on = {"source": "synth", "seed": 7}
        path, loaded = self.roundtrip(tmp_path, model)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "a94f20c47d223f19fc41c15bc85bd778c87405ee9013487e4e2931e9eede7fed")
        assert loaded.params.tobytes() == model.params.tobytes()

    def test_save_is_canonical(self, tmp_path):
        model = Model(TINY, seed=9)
        path, loaded = self.roundtrip(tmp_path, model)
        again = tmp_path / "again.ckpt"
        save_checkpoint(loaded, again)
        assert path.read_bytes() == again.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_unknown_version_rejected(self, tmp_path):
        model = Model(TINY, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = Model(TINY, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        model = Model(TINY, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def rewrite_header(self, tmp_path, edit):
        """Save TINY, pass its header text through ``edit``, return the path."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(Model(TINY, seed=0), path)
        raw = path.read_bytes()
        text_len = struct.unpack("<I", raw[8:12])[0]
        text = edit(raw[12:12 + text_len])
        path.write_bytes(raw[:8] + struct.pack("<I", len(text)) + text
                         + raw[12 + text_len:])
        return path

    @pytest.mark.parametrize("path", [
        pytest.param(path, id=str(path[-1])) for path in
        [("config",), ("seed",), ("tensors",), ("trained_on",)]
        + [("config", key) for key in ("input_len", "num_classes", "blocks",
                                       "fc")]
        + [("config", "blocks", 0, f.name) for f in fields(ConvBlock)]
    ] + [pytest.param(("config", "blocks", i), id=f"block.{i}")
         for i in (0, 1)])
    def test_header_missing_field_rejected(self, tmp_path, path):
        def drop(text):
            header = json.loads(text)
            parent = header
            for step in path[:-1]:
                parent = parent[step]
            del parent[path[-1]]
            return json.dumps(header, sort_keys=True).encode()

        with pytest.raises(CheckpointError):
            load_checkpoint(self.rewrite_header(tmp_path, drop))

    # the first thirteen ids name the fault each case had in the version-1
    # key=value header; the cases are the same faults in JSON
    @pytest.mark.parametrize("old,new", [
        pytest.param(b'"input_len": 64', b'"input_len": "64"',
                     id="input_len=64-input_len=sixty-four"),
        pytest.param(b'"num_classes": 3', b'"num_classes": null',
                     id="num_classes=3-num_classes="),
        pytest.param(b'"fc": [3]', b'"fc": [3, "x"]', id="fc=3-fc=3,x"),
        pytest.param(b'"seed": 0', b'"seed": 0.5', id="seed=0-seed=0.5"),
        pytest.param(b'"pool": "max2"', b'"pool": "max3"',
                     id="pool:max2-pool:max3"),
        pytest.param(b'"kernel": 3', b'"kernel": 4', id="kernel:3-kernel:4"),
        pytest.param(b'"dilation": 1, ', b"", id="dilation:1,-"),
        pytest.param(b'"causal": true', b'"causal": "yes"',
                     id="causal:1-causal:yes"),
        pytest.param(b'"seed": 0', b'"seed": 0, "seed": 0',
                     id="seed=0-seed=0\nseed=0"),
        pytest.param(b'"seed": 0', b'"seed": 0, "color": "red"',
                     id="seed=0-seed=0\ncolor=red"),
        pytest.param(b'"seed": 0', b'"seed" 0',
                     id="seed=0-seed=0\nno equals sign"),
        pytest.param(b'"seed": 0', b'"seed": "\xff"', id="seed=0-seed=\xff"),
        pytest.param(b'"out_channels": 8', b'"out_channels": 1000000000000',
                     id="block.0=out:8-block.0=out:1000000000000"),
        pytest.param(b'"stride": 1', b'"stride": true', id="bool-as-int"),
        pytest.param(b'"seed": 0', b'"seed": 0.0', id="integral-float-seed"),
        pytest.param(b'"kernel": 3', b'"kernel": 3.0', id="float-kernel"),
        pytest.param(b'"fc": [3]', b'"fc": [0, 3]', id="zero-width-fc"),
        pytest.param(b'"fc": [3]', b'"fc": [3.0]', id="float-fc-width"),
        pytest.param(b'"pool": "max2"', b'"pool": "max2", "pool": "max2"',
                     id="repeated-block-key"),
        pytest.param(b'["fc0.b", [3]]', b'["fc0.b", [1, 3]]',
                     id="tensor-table-shape"),
        pytest.param(b'["fc0.b", [3]]', b'["fc9.b", [3]]',
                     id="tensor-table-name"),
        pytest.param(b'"trained_on": {}', b'"trained_on": null',
                     id="null-trained-on"),
        pytest.param(b'"trained_on": {}',
                     b'"trained_on": ' + b"[" * 100_000 + b"]" * 100_000,
                     id="deep-nesting"),
    ])
    def test_header_malformed_value_rejected(self, tmp_path, old, new):
        def corrupt(text):
            assert old in text
            return text.replace(old, new, 1)

        with pytest.raises(CheckpointError):
            load_checkpoint(self.rewrite_header(tmp_path, corrupt))

    def test_float64_version_2_file_rejected(self, tmp_path):
        model = Model(TINY, seed=0)
        path = tmp_path / "v2.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        text_len = struct.unpack("<I", raw[8:12])[0]
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", 2, text_len)
                         + raw[12:12 + text_len]
                         + b"".join(p.astype("<f8").tobytes()
                                    for _, p in model.param_items()))
        with pytest.raises(CheckpointError,
                           match="^unsupported checkpoint version 2$"):
            load_checkpoint(path)

    def test_version_1_file_rejected(self, tmp_path):
        path = tmp_path / "v1.ckpt"
        text = b"input_len=64\nnum_classes=3\nseed=0\nfc=3"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", 1, len(text))
                         + text)
        with pytest.raises(CheckpointError,
                           match="^unsupported checkpoint version 1$"):
            load_checkpoint(path)
