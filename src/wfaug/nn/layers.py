"""Forward/backward kernels for the 1D CNN.

Every layer keeps its parameters in ``self.params`` and, after a backward
pass, the matching gradients in ``self.grads``. ``forward(x, train=True)``
caches whatever the backward pass needs, and ``backward`` drops that cache
once it has used it, so no step's activations outlive the step.

Convolutions are computed one kernel tap at a time over a strided slice of
the zero-padded input, so both directions stay plain BLAS calls with a fixed
reduction order. The first tap's product is the output array itself; each
later tap's product goes into one buffer reused across taps and is added into
the output. With a single input channel (the first layer) a tap is a
broadcast multiply instead of a K=1 matmul: every output is then one product,
rounded once either way. Each call hands BLAS operands it takes as they
are, which numpy would otherwise copy inside every tap's matmul:
``forward`` takes the taps of one contiguous (kernel, out, in) copy of the
weights and, in a strided conv, contiguous copies of the input taps;
``input_grads`` takes the transposed weight taps as F-ordered views, since
a C-ordered copy rounds otherwise. A matmul tap product with a dimension
of 1 (one input or output channel, or one output position) keeps strided
views of both, because on contiguous operands numpy takes its vector path,
which rounds otherwise; the one-channel broadcast multiply rounds alike
whatever the layout. ``Conv1D.backward`` runs its two parts one after
the other. ``weight_grad_jobs`` returns the bias sum and one GEMM per weight
tap as separate jobs; each GEMM takes the (out_ch, batch * length) rows of
the output gradient, built once per call, and the tap's (batch * length,
in_ch) rows. ``input_grads`` gives each row's input gradient from that row
alone. A training step of several row tiles (see ``Model``) calls
``backward`` once per tile, each with its share of one whole-batch set of
jobs. ``Model`` marks its first conv ``input_grad = False``: nothing uses
the gradient of the network's input, so that layer does not compute it.

Every array a layer allocates takes the dtype of its input and parameters,
so a network whose parameters ``Model`` casts to float32 stays float32
through forward and backward.
"""

from __future__ import annotations

import functools

import numpy as np


class Layer:
    """Minimal layer interface; parameter-free layers leave the dicts empty."""

    name = "layer"

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Conv1D(Layer):
    """Dilated 1D convolution over (batch, channels, length) input.

    Causal mode pads on the left only, so output position t never sees input
    positions beyond t. Plain mode pads symmetrically (same-size output for
    odd kernels at stride 1).

    ``input_grad = False`` makes ``backward`` compute the parameter
    gradients only and return None; a model's first layer has no use for
    the gradient of its input.
    """

    input_grad = True

    def __init__(self, name: str, in_ch: int, out_ch: int, kernel: int = 3,
                 dilation: int = 1, stride: int = 1, causal: bool = True, *,
                 rng: np.random.Generator):
        super().__init__()
        if min(in_ch, out_ch, kernel, dilation, stride) < 1:
            raise ValueError("conv dimensions must be >= 1")
        self.name = name
        self.in_ch, self.out_ch = in_ch, out_ch
        self.kernel, self.dilation, self.stride = kernel, dilation, stride
        self.causal = causal
        reach = (kernel - 1) * dilation
        self.pad_l = reach if causal else reach // 2
        self.pad_r = 0 if causal else reach - self.pad_l
        scale = 1.0 / np.sqrt(in_ch * kernel)
        self.params["w"] = rng.uniform(-scale, scale, (out_ch, in_ch, kernel))
        self.params["b"] = np.zeros(out_ch)
        self._cache = None

    def out_len(self, length: int) -> int:
        span = (self.kernel - 1) * self.dilation + 1
        return (length + self.pad_l + self.pad_r - span) // self.stride + 1

    def _tap(self, t: int, l_out: int) -> slice:
        start = t * self.dilation
        return slice(start, start + self.stride * (l_out - 1) + 1, self.stride)

    def _weight_taps(self, contiguous):
        """The weights as (kernel, out, in) taps: a contiguous copy, or
        strided views of ``params["w"]``."""
        w = self.params["w"].transpose(2, 0, 1)
        return w.copy() if contiguous else w

    def forward(self, x, train=False):
        """The convolution of ``x``; a training pass keeps its padded input.

        Each tap's product takes a contiguous (out, in) weight tap and, at a
        stride above 1, a contiguous copy of its input tap (at stride 1 the
        input tap's rows are already unit-stride); a matmul with one output
        channel or position keeps strided views (see the module
        docstring)."""
        if x.ndim != 3 or x.shape[1] != self.in_ch:
            raise ValueError(f"{self.name}: expected (B, {self.in_ch}, L) input,"
                             f" got {x.shape}")
        l_out = self.out_len(x.shape[2])
        if l_out < 1:
            raise ValueError(f"{self.name}: input shorter than kernel span")
        batch, length = x.shape[0], x.shape[2]
        xp = np.empty((batch, self.in_ch, self.pad_l + length + self.pad_r),
                      x.dtype)
        xp[:, :, :self.pad_l] = 0
        xp[:, :, self.pad_l + length:] = 0
        xp[:, :, self.pad_l:self.pad_l + length] = x
        # with one input channel each tap output is a single product, which
        # matmul and multiply round alike, whatever the operands' layout
        tap_product = np.multiply if self.in_ch == 1 else np.matmul
        contiguous = self.in_ch == 1 or min(self.out_ch, l_out) > 1
        taps = self._weight_taps(contiguous)
        copy_in = contiguous and self.stride > 1

        def tap_input(t):
            view = xp[:, :, self._tap(t, l_out)]
            return view.copy() if copy_in else view

        y = tap_product(taps[0], tap_input(0))
        prod = np.empty_like(y)
        for t in range(1, self.kernel):
            y += tap_product(taps[t], tap_input(t), out=prod)
        # a sum started at +0.0 differs from this one only by a -0.0 where
        # this one has -0.0 and that one +0.0; adding a bias that is not
        # -0.0 (training never makes one) gives both the same bits
        y += self.params["b"][None, :, None]
        if train:
            self._cache = xp
        return y

    def backward(self, dy, jobs=None):
        """Run ``jobs``, then return the input gradient (None when
        ``input_grad`` is off). The jobs are by default this batch's
        ``weight_grad_jobs``; a training step of several tiles passes each
        tile its share of the whole batch's."""
        xp, self._cache = self._cache, None
        for job in self.weight_grad_jobs(xp, dy) if jobs is None else jobs:
            job()
        return self.input_grads(xp, dy) if self.input_grad else None

    @property
    def padded_input(self):
        """The padded input a training pass keeps for ``backward``."""
        return self._cache

    def weight_grad_jobs(self, xp, dy):
        """The weight and bias gradients of a batch as independent jobs, from
        its padded input ``xp`` and output gradient ``dy``: the bias sum,
        then one GEMM per weight tap. The jobs write ``grads`` and may run in
        any order and on any thread."""
        l_out = dy.shape[2]
        rows = dy.shape[0] * l_out
        dw = self.grads["w"] = np.empty_like(self.params["w"])
        # the same reshapes a tensordot of dy and the tap over batch and
        # length makes, so each dw tap is that GEMM call on those operands
        # and keeps its bits; dy's operand is made once for all taps
        dy_rows = dy.transpose(1, 0, 2).reshape(self.out_ch, rows)

        def bias():
            self.grads["b"] = dy.sum(axis=(0, 2))

        def tap(t):
            cols = xp[:, :, self._tap(t, l_out)].transpose(0, 2, 1)
            dw[:, :, t] = np.dot(dy_rows, cols.reshape(rows, self.in_ch))

        return [bias] + [functools.partial(tap, t) for t in range(self.kernel)]

    def input_grads(self, xp, dy):
        """The gradient of the unpadded input, from the padded input ``xp``
        and the output gradient ``dy`` of the same rows; each row's depends on
        that row alone.

        Each tap's matmul takes the transpose of a contiguous (out, in)
        weight tap, an F-ordered view that BLAS reads as a transposed
        operand; one with one input or output channel, or one output
        position, keeps strided views (see the module docstring)."""
        l_out = dy.shape[2]
        taps = self._weight_taps(min(self.in_ch, self.out_ch, l_out) > 1)
        dxp = np.zeros_like(xp)
        prod = np.empty((dy.shape[0], self.in_ch, l_out),
                        np.result_type(taps, dy))
        for t in range(self.kernel):
            dxp[:, :, self._tap(t, l_out)] += np.matmul(taps[t].T, dy,
                                                        out=prod)
        return dxp[:, :, self.pad_l: xp.shape[2] - self.pad_r]


class ReLU(Layer):
    """max(x, 0), written over its input: in a ``Model`` that input is
    always the fresh output of a conv or dense layer, which nothing else
    holds, so no array is allocated for the result."""

    name = "relu"
    _mask = None

    def forward(self, x, train=False):
        if train:
            self._mask = x > 0
        return np.maximum(x, 0.0, out=x)

    def backward(self, dy):
        mask, self._mask = self._mask, None
        return dy * mask


class MaxPool2(Layer):
    """Non-overlapping width-2 max pooling; an odd trailing element is dropped.

    Each output picks the element ``argmax`` over its pair would pick: the
    left one on ties (signed zeros included) and the first NaN, so output
    and gradient bits do not depend on how the pairs are compared.
    """

    name = "maxpool2"
    _left_wins = None

    def forward(self, x, train=False):
        keep = 2 * (x.shape[2] // 2)
        left, right = x[..., 0:keep:2], x[..., 1:keep:2]
        # np.maximum returns its second operand on a +0.0/-0.0 tie (the
        # oracle tests pin this) but its first of two NaNs, so a left NaN is
        # copied in explicitly
        y = np.maximum(right, left)
        np.copyto(y, left, where=np.isnan(left))
        if train:
            self._left_wins = (left >= right) | np.isnan(left)
            self._len = x.shape[2]
        return y

    def backward(self, dy):
        keep = 2 * dy.shape[2]
        left_wins, self._left_wins = self._left_wins, None
        dx = np.zeros(dy.shape[:2] + (self._len,), dy.dtype)
        # np.where(left_wins, dy, 0) and its complement as masks on the
        # bits: every dy (-0.0, inf and NaN too) is copied as it is, at a
        # fraction of np.where's time
        bits = np.dtype(f"u{dy.itemsize}")
        dy_bits, left = dy.view(bits), dx[..., 0:keep:2].view(bits)
        np.bitwise_and(dy_bits, np.negative(left_wins, dtype=bits), out=left)
        np.bitwise_xor(dy_bits, left, out=dx[..., 1:keep:2].view(bits))
        return dx


class GlobalAvgPool(Layer):
    name = "gap"

    def forward(self, x, train=False):
        if train:
            self._len = x.shape[2]
        return x.mean(axis=2)

    def backward(self, dy):
        return np.broadcast_to((dy / self._len)[:, :, None],
                               dy.shape + (self._len,))


class Dense(Layer):
    def __init__(self, name: str, in_dim: int, out_dim: int, *,
                 rng: np.random.Generator):
        super().__init__()
        if min(in_dim, out_dim) < 1:
            raise ValueError("dense dimensions must be >= 1")
        self.name = name
        scale = 1.0 / np.sqrt(in_dim)
        self.params["w"] = rng.uniform(-scale, scale, (in_dim, out_dim))
        self.params["b"] = np.zeros(out_dim)
        self._x = None

    def forward(self, x, train=False):
        if x.ndim != 2 or x.shape[1] != self.params["w"].shape[0]:
            raise ValueError(f"{self.name}: expected (B, {self.params['w'].shape[0]})"
                             f" input, got {x.shape}")
        if train:
            self._x = x
        return x @ self.params["w"] + self.params["b"]

    def backward(self, dy):
        x, self._x = self._x, None
        self.grads["w"] = x.T @ dy
        self.grads["b"] = dy.sum(axis=0)
        return dy @ self.params["w"].T
