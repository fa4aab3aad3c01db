"""Forward/backward kernels for the 1D CNN.

Every layer keeps its parameters in ``self.params`` and, after a backward
pass, the matching gradients in ``self.grads``. ``forward(x, train=True)``
caches whatever the backward pass needs, and ``backward`` drops that cache
once it has used it, so no step's activations outlive the step.

Convolutions are computed one kernel tap at a time, so both directions stay
plain BLAS calls with a fixed reduction order. A conv holds its zero-padded
input as one array per stride phase: phase r holds padded cells r,
r + stride, r + 2 * stride and so on (at stride 1 the one phase is the
padded input). Tap t reads cells o:o + l_out of phase (t * dilation) %
stride, with o = (t * dilation) // stride, so every tap is a view with
unit-stride rows and no tap is copied. ``forward`` cuts the phases from one
buffer and fills them straight from its input (at stride 2, two strided
copies) by a plan of phase lengths, zero borders and source slices that the
layer keeps per input length; a training pass keeps them for ``backward``.
The first tap's product is the output array itself; each later tap's
product goes into one buffer reused across taps and is added into the
output. With a single input channel (the first layer) a tap is a broadcast
multiply instead of a K=1 matmul: every output is then one product, rounded
once either way, whatever the layout.

Each call hands BLAS operands it takes as they are, which numpy would
otherwise copy inside every tap's matmul: ``forward`` takes the taps of one
contiguous (kernel, out, in) copy of the weights; ``input_grads`` takes the
transposed weight taps as F-ordered views, since a C-ordered copy rounds
otherwise. Where numpy or BLAS picks its path by the operands' strides, the
operands keep those of a strided slice of one padded input, which a conv
above stride 1 rebuilds from its phases for them:
- a matmul tap product with a dimension of 1 (one input or output channel,
  or one output position) takes strided views of the weights and of the
  padded input, because on unit-stride operands numpy takes its vector
  path, which rounds otherwise;
- a weight-gradient GEMM whose (batch * length, in_ch) rows are a view of
  the padded input, not a copy (one row, one output position, or rows that
  follow on in memory), takes that view: a one-channel dot product rounds
  by its strides, and one row's F-ordered cells would be a transposed
  operand.

``Conv1D.backward`` runs its two parts one after the other.
``weight_grad_jobs`` returns the bias sum and one GEMM per weight tap as
separate jobs; each GEMM takes the (out_ch, batch * length) rows of the
output gradient, built once per call, and the tap's (batch * length, in_ch)
rows. ``input_grads`` zeroes the phases, which the weight gradients have
read by then, and adds each tap's product into its phase in tap order, so
every cell sums as it did in one padded gradient; each phase then fills its
cells of the unpadded gradient once (at stride 1 the gradient is a view of
the one phase). Each row's input gradient comes from that row alone. A
training step of several row tiles (see ``Model``) calls ``backward`` once
per tile, each with its share of one whole-batch set of jobs, which take
the tiles' phases joined phase by phase. ``Model`` marks its first conv
``input_grad = False``: nothing uses the gradient of the network's input.

On criterion 5's ``BENCH_MODEL`` (seven stride-2 kernel-3 convs) at 16
rows, on a 2-core Xeon with one BLAS thread and glibc's mmap threshold
raised, phases took the conv1-conv6 forward from 580-590 to 500-510 us, a
training step from 2.52-2.61 to 2.44-2.56 ms and a 200-row int8 ``predict``
in 16-row tiles from 10.0-10.1 to 9.0-9.4 ms, with the same bits. The input
gradients took about as long as before (605-640 against 625-660 us): the
contiguous adds save what the strided writes into the unpadded gradient
cost. Phases in arrays of their own, not cut from one buffer, raised
``fewshot_hda``'s anonymous memory by 0.25-0.6 MB.

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
        # the phase plan of every input length seen (see _plan), on the
        # instance: a cache on the method would keep every layer alive
        self._plans = {}

    def out_len(self, length: int) -> int:
        span = (self.kernel - 1) * self.dilation + 1
        return (length + self.pad_l + self.pad_r - span) // self.stride + 1

    def _plan(self, length):
        """Per stride phase r of a padded ``length``-cell input: its cell
        count, and the cells ``lo:hi`` of it that hold the input cells
        ``first::stride``; the cells before and after are padding."""
        plan = self._plans.get(length)
        if plan is None:
            s, padded = self.stride, self.pad_l + length + self.pad_r
            plan = []
            for r in range(s):
                first = (r - self.pad_l) % s
                lo = (first + self.pad_l) // s
                plan.append((len(range(r, padded, s)), lo,
                             lo + len(range(first, length, s)), first))
            plan = self._plans[length] = tuple(plan)
        return plan

    def _phases(self, x):
        """The zero-padded ``x`` as one array per stride phase, all cut from
        one buffer (phase 0 has the most cells)."""
        plan = self._plan(x.shape[2])
        buf = np.empty((len(plan),) + x.shape[:2] + (plan[0][0],), x.dtype)
        phases = []
        for (cells, lo, hi, first), rows in zip(plan, buf):
            phase = rows[:, :, :cells]
            phase[:, :, :lo] = 0
            phase[:, :, hi:] = 0
            phase[:, :, lo:hi] = x[:, :, first::self.stride]
            phases.append(phase)
        return phases

    def _interleaved(self, phases):
        """The phases as strided views of one padded input, for the
        products whose path depends on their operands' strides (see the
        module docstring); one phase is that input already."""
        if len(phases) == 1:
            return phases
        cells = sum(phase.shape[2] for phase in phases)
        xp = np.empty(phases[0].shape[:2] + (cells,), phases[0].dtype)
        views = [xp[:, :, r::self.stride] for r in range(self.stride)]
        for view, phase in zip(views, phases):
            view[...] = phase
        return views

    def _taps(self, phases, l_out):
        """Each kernel tap's (batch, channels, l_out) cells of the padded
        input, as a view of its phase."""
        return [phases[r][:, :, o:o + l_out]
                for o, r in (divmod(t * self.dilation, self.stride)
                             for t in range(self.kernel))]

    def _weight_taps(self, contiguous):
        """The weights as (kernel, out, in) taps: a contiguous copy, or
        strided views of ``params["w"]``."""
        w = self.params["w"].transpose(2, 0, 1)
        return w.copy() if contiguous else w

    def forward(self, x, train=False):
        """The convolution of ``x``; a training pass keeps its input phases.

        Each tap's product takes a contiguous (out, in) weight tap and a view
        of its input phase; a matmul with one output channel or position
        takes strided views of the weights and of the padded input instead
        (see the module docstring)."""
        if x.ndim != 3 or x.shape[1] != self.in_ch:
            raise ValueError(f"{self.name}: expected (B, {self.in_ch}, L) input,"
                             f" got {x.shape}")
        l_out = self.out_len(x.shape[2])
        if l_out < 1:
            raise ValueError(f"{self.name}: input shorter than kernel span")
        phases = self._phases(x)
        # with one input channel each tap output is a single product, which
        # matmul and multiply round alike, whatever the operands' layout
        tap_product = np.multiply if self.in_ch == 1 else np.matmul
        contiguous = self.in_ch == 1 or min(self.out_ch, l_out) > 1
        taps = self._weight_taps(contiguous)
        inputs = self._taps(phases if contiguous
                            else self._interleaved(phases), l_out)
        y = tap_product(taps[0], inputs[0])
        prod = np.empty_like(y)
        for t in range(1, self.kernel):
            y += tap_product(taps[t], inputs[t], out=prod)
        # a sum started at +0.0 differs from this one only by a -0.0 where
        # this one has -0.0 and that one +0.0; adding a bias that is not
        # -0.0 (training never makes one) gives both the same bits
        y += self.params["b"][None, :, None]
        if train:
            self._cache = phases
        return y

    def backward(self, dy, jobs=None):
        """Run ``jobs``, then return the input gradient (None when
        ``input_grad`` is off). The jobs are by default this batch's
        ``weight_grad_jobs``; a training step of several tiles passes each
        tile its share of the whole batch's."""
        phases, self._cache = self._cache, None
        for job in self.weight_grad_jobs(phases, dy) if jobs is None else jobs:
            job()
        return self.input_grads(phases, dy) if self.input_grad else None

    @property
    def input_phases(self):
        """The input phases a training pass keeps for ``backward``."""
        return self._cache

    def weight_grad_jobs(self, phases, dy):
        """The weight and bias gradients of a batch as independent jobs, from
        its input phases and output gradient ``dy``: the bias sum, then one
        GEMM per weight tap. The jobs write ``grads`` and may run in any
        order and on any thread."""
        batch, l_out = dy.shape[0], dy.shape[2]
        rows = batch * l_out
        dw = self.grads["w"] = np.empty_like(self.params["w"])
        # the same reshapes a tensordot of dy and the tap over batch and
        # length makes, so each dw tap is that GEMM call on those operands
        # and keeps its bits; dy's operand is made once for all taps
        dy_rows = dy.transpose(1, 0, 2).reshape(self.out_ch, rows)
        # where a strided tap's rows reshape to a view of the padded input,
        # not to a copy, BLAS takes them with that view's strides
        padded = sum(phase.shape[2] for phase in phases)
        if 1 in (batch, l_out) or self.in_ch * padded == l_out * self.stride:
            phases = self._interleaved(phases)
        inputs = self._taps(phases, l_out)

        def bias():
            self.grads["b"] = dy.sum(axis=(0, 2))

        def tap(t):
            cols = inputs[t].transpose(0, 2, 1)
            dw[:, :, t] = np.dot(dy_rows, cols.reshape(rows, self.in_ch))

        return [bias] + [functools.partial(tap, t) for t in range(self.kernel)]

    def input_grads(self, phases, dy):
        """The gradient of the unpadded input, from its phases and the
        output gradient ``dy`` of the same rows; each row's depends on that
        row alone. The phases are spent: they are zeroed and take the
        phase gradients (``backward`` has read them by then), so a training
        step holds no more arrays than it did with one padded input.

        Each tap's matmul takes the transpose of a contiguous (out, in)
        weight tap, an F-ordered view that BLAS reads as a transposed
        operand; one with one input or output channel, or one output
        position, keeps strided views (see the module docstring). It is
        added into the gradient of its phase, tap by tap, and the phases
        then fill the input gradient, each once."""
        l_out = dy.shape[2]
        taps = self._weight_taps(min(self.in_ch, self.out_ch, l_out) > 1)
        for phase in phases:
            phase.fill(0)
        prod = np.empty((dy.shape[0], self.in_ch, l_out),
                        np.result_type(taps, dy))
        for t, cells in enumerate(self._taps(phases, l_out)):
            cells += np.matmul(taps[t].T, dy, out=prod)
        length = sum(p.shape[2] for p in phases) - self.pad_l - self.pad_r
        plan = self._plan(length)
        if len(phases) == 1:
            (_, lo, hi, _), = plan
            return phases[0][:, :, lo:hi]
        dx = np.empty((dy.shape[0], self.in_ch, length), phases[0].dtype)
        for phase, (_, lo, hi, first) in zip(phases, plan):
            dx[:, :, first::self.stride] = phase[:, :, lo:hi]
        return dx


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
