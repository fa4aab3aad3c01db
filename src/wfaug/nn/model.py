"""Model assembly: conv blocks, global average pooling, FC head, softmax.

The network consumes (batch, length) real-valued direction sequences and
returns per-class probabilities plus the pooled feature vectors. Its body
(parameters, activations, gradients, optimizer state) runs in ``DTYPE``; the
logits are cast to float64 for the softmax, so probabilities, the loss and
every threshold decision are float64. A model keeps all its parameters in one
vector, ``Model.params``, and every layer's tensors are views of it in
``param_items`` order; the gradients of a backward pass are gathered into a
second vector, ``Model.grads``, in the same order. A versioned checkpoint
holds a JSON header (architecture, seed, tensor table, training data) and the
parameter vector as little-endian float32.

This module alone sets how many threads compute: building a model pins the
OpenBLAS numpy bundles (scipy-openblas, where it does) to one thread, and
``_threads`` caps a call's tile threads at the CPUs the process may use.
"""

from __future__ import annotations

import contextlib
import contextvars
import copy
import ctypes
import functools
import glob
import json
import os
import struct
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from ..seeding import derive_rng
from .layers import Conv1D, Dense, GlobalAvgPool, MaxPool2, ReLU

EPS = 1e-12

# the dtype of the network body; float64 models exist for gradient checks
DTYPE = np.float32

CHECKPOINT_MAGIC = b"TFWF"
CHECKPOINT_VERSION = 3

POOL_KINDS = ("none", "max2")

# Rows per tile of a threaded model's conv stack, in training and inference
# (see Model.forward). A float32 forward of 256 rows through the stock model
# at L=1000 on a 2-core Xeon (2 MB L2 per core, one BLAS thread; best of 7,
# over three runs) took 98-123 ms on two threads with 8-row tiles, 99-140 ms
# with 12 or 16 rows and 122-162 ms with 24 to 64. At 8 rows its widest
# activation is 8 x 32 x 1000 float32, 1 MB.
THREAD_TILE_ROWS = 8

# Rows per inference tile of a serial model's conv stack. A 200-row int8
# predict through BENCH_MODEL (seven stride-2 convs, L=1000) on that Xeon,
# with glibc's mmap threshold raised so that freed buffers are not faulted
# back in, took 8.9-9.0 ms in 16-row tiles, 8.4-8.5 ms in 24-row ones,
# 8.1-8.2 ms in 32-row ones and 7.9-8.0 ms in 48 or 64; a 60-row one
# 2.7-2.85, 2.65, 2.45 and 2.4-2.5 ms. At 32 rows its widest activation is
# 32 x 8 x 500 float32, 0.5 MB.
TILE_ROWS = 32

# Conv multiply-adds one THREAD_TILE_ROWS-row tile must hold before the
# tiles of a model run on a thread pool (about 0.7 ms of single-thread
# float32 conv work on that Xeon). Below it, thread hand-offs and the
# GIL-bound small numpy calls between BLAS calls cost about what a second
# core wins: for the stock model at L=40 to 140 (0.24 to 0.83 of this) two
# threads took 0.66 to 1.28 times the serial time, and from L=170 (the
# threshold) up 0.29 to 0.68 times.
PARALLEL_MIN_MACS = 1 << 24

# Rows per ``predict`` batch: the FC head's last bits depend on the rows BLAS
# sees (see Model.forward), so one size gives every caller the same bits.
PREDICT_BATCH = 256


@dataclass(frozen=True)
class ConvBlock:
    """One conv stage: convolution, ReLU, optional width-2 max pool."""

    out_channels: int
    kernel: int = 3
    dilation: int = 1
    stride: int = 1
    pool: str = "none"
    causal: bool = True

    def __post_init__(self):
        if self.out_channels < 1:
            raise ValueError("out_channels must be >= 1")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ValueError("kernel size must be odd")
        if self.dilation < 1 or self.stride < 1:
            raise ValueError("dilation and stride must be >= 1")
        if self.pool not in POOL_KINDS:
            raise ValueError(f"pool must be one of {POOL_KINDS}")


@dataclass(frozen=True)
class ModelConfig:
    input_len: int
    num_classes: int
    blocks: tuple
    fc: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "fc", tuple(self.fc))
        if self.input_len < 1:
            raise ValueError("input_len must be >= 1")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if not self.blocks:
            raise ValueError("need at least one conv block")
        if not all(isinstance(b, ConvBlock) for b in self.blocks):
            raise ValueError("blocks must be ConvBlock instances")
        if not self.fc or self.fc[-1] != self.num_classes or min(self.fc) < 1:
            raise ValueError("fc widths must be >= 1, the final one equal to "
                             "num_classes")


def default_model_config(input_len: int, num_classes: int) -> ModelConfig:
    """Small 4-block network: kernel-3 dilated causal convs (dilations
    1/2/4/8), max-pool after the first two blocks, GAP, one FC layer."""
    return ModelConfig(
        input_len=input_len,
        num_classes=num_classes,
        blocks=(ConvBlock(32, dilation=1, pool="max2"),
                ConvBlock(64, dilation=2, pool="max2"),
                ConvBlock(64, dilation=4),
                ConvBlock(128, dilation=8)),
        fc=(num_classes,),
    )


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(probs: np.ndarray, targets: np.ndarray) -> float:
    """Mean over the batch of -sum_j target_j * log(prob_j).

    Works for one-hot and mixed (soft) targets alike; probabilities are
    floored at EPS inside the log.
    """
    if probs.shape != targets.shape:
        raise ValueError(f"shape mismatch: probs {probs.shape}, "
                         f"targets {targets.shape}")
    return float(-np.sum(targets * np.log(np.maximum(probs, EPS))) / len(probs))


class _BlockTable:
    """The first conv block (conv, ReLU, optional ``MaxPool2``) as a lookup
    table, for inference on int8 input whose cells all lie in {-1, 0, +1}.

    Each output of the block reads only the W padded input cells
    ``j * step + offset``, one per entry of ``offsets`` (conv0's tap
    offsets, and the pool's right-hand conv column's too), so it takes one
    of 3^W values per channel. ``with_table`` computes them all with the
    block's own layers over one pattern row per input window, and
    ``forward`` gathers them by each output's base-3 code. A table entry is
    made by the same elementwise float operations on the same operands as
    the output it stands for (a padding cell and a 0 cell are both +0.0),
    so the lookup has the bits of the block."""

    def __init__(self, layers, input_len):
        conv, self.layers = layers[0], layers
        pooled = isinstance(layers[-1], MaxPool2)
        taps = [t * conv.dilation for t in range(conv.kernel)]
        self.offsets = sorted(set(taps) | ({conv.stride + t for t in taps}
                                           if pooled else set()))
        self.step = conv.stride * (2 if pooled else 1)
        self.pad = conv.pad_l, conv.pad_r
        self.conv_len = conv.out_len(input_len)
        self.out_len = self.conv_len // 2 if pooled else self.conv_len
        # a pattern row's output column ``keep`` reads its cells ``cells``,
        # none of the padding; the row ends with the last of them
        self.keep = -(-conv.pad_l // self.step)
        self.cells = [self.keep * self.step + off - conv.pad_l
                      for off in self.offsets]
        self.patterns = 3 ** len(self.offsets)
        # conv positions the table's pattern rows take, against conv_len
        # per input row
        self.cost = self.patterns * conv.out_len(self.cells[-1] + 1)

    def fits(self, x, rows):
        """Whether the table serves ``x``: int8 cells in {-1, 0, +1}, and a
        table built over no more conv positions than one ``rows``-row tile
        of ``x`` takes (so never an empty ``x``)."""
        return (x.dtype == np.int8
                and self.cost <= min(rows, len(x)) * self.conv_len
                and x.min() >= -1 and x.max() <= 1)

    def with_table(self, dtype):
        """A copy holding the (channels, 3^W) table in ``dtype``: column c
        is the output whose cell k (of ``offsets``) holds base-3 digit k of
        c, most significant first, minus one."""
        digits = np.indices((3,) * len(self.offsets)).reshape(
            len(self.offsets), self.patterns)
        h = np.zeros((self.patterns, 1, self.cells[-1] + 1), dtype)
        h[:, 0, self.cells] = digits.T - 1
        for layer in self.layers:
            h = layer.forward(h)
        built = copy.copy(self)
        built.table = np.ascontiguousarray(h[:, :, self.keep].T)
        return built

    def forward(self, x, train=False):
        """The block's output for (rows, 1, L) int8 input ``x``, as a
        (rows, channels, out_len) view of the gathered table entries."""
        x, (pad_l, pad_r) = x[:, 0, :], self.pad
        padded = np.zeros((len(x), pad_l + x.shape[1] + pad_r), np.int8)
        padded[:, pad_l:pad_l + x.shape[1]] = x
        windows = [padded[:, off::self.step][:, :self.out_len]
                   for off in self.offsets]
        # the code of the cell values, then of the digits (value + 1):
        # adding one to each of W digits adds 3^W // 2
        codes = windows[0].astype(np.intp)
        for window in windows[1:]:
            codes *= 3
            codes += window
        codes += self.patterns // 2
        return np.take(self.table, codes, axis=1).transpose(1, 0, 2)


def _run(layers, h, train, rows=slice(None)):
    """``layers`` over ``h[rows]``."""
    h = h[rows]
    for layer in layers:
        h = layer.forward(h, train=train)
    return h


@contextlib.contextmanager
def _threads(n):
    """Yields ``run(calls)``: the results of ``calls`` in order. Thread ``t``
    of ``n`` capped at ``_cpu_count()`` (this one, then the workers of a pool
    that lasts the with block; a long-lived one would not survive fork) runs
    call ``t``, then each next call no thread has taken. Workers run in a
    copy of this thread's context, keeping its numpy error state; their
    errors reach it."""
    def run(calls):
        out, todo = [None] * len(calls), deque(range(count, len(calls)))

        def take(i):
            while True:
                out[i] = calls[i]()
                try:
                    i = todo.popleft()
                except IndexError:
                    return

        later = [pool.submit(contextvars.copy_context().run, take, t)
                 for t in range(1, count)]
        take(0)
        for f in later:
            f.result()
        return out

    count = min(_cpu_count(), n)
    with (ThreadPoolExecutor(count - 1) if count > 1
          else contextlib.nullcontext()) as pool:
        yield run


def _run_backward(layers, d, *jobs):
    """``d`` back through ``layers``. A conv among them runs ``jobs`` when
    they are passed, a tile's share of its weight-gradient jobs (only the top
    layer of a backward stage of several tiles is a conv), else its own."""
    for layer in reversed(layers):
        d = (layer.backward(d, *jobs) if isinstance(layer, Conv1D)
             else layer.backward(d))
    return d


def _backward_tiles(stacks, tiles, d):
    """Backpropagate ``d`` through the conv stack a training forward pass
    ran: rows ``tiles[t]`` through ``stacks[t]``. One tile goes back layer
    by layer in this thread. More go back in stages, each taking every tile
    down to the output gradient of the next conv. There the tiles' output
    gradients, and their conv input phases phase by phase, are joined in
    row order, so the conv's weight-gradient jobs see the arrays of a
    whole-batch backward; in the next stage tile ``t`` of ``n`` runs
    ``jobs[t::n]`` in its ``Conv1D.backward`` before its input gradient."""
    if len(stacks) == 1:
        return _run_backward(stacks[0], d)
    stack, n = stacks[0], len(stacks)
    convs = [i for i, layer in enumerate(stack) if isinstance(layer, Conv1D)]
    ds, jobs, hi = [d[rows] for rows in tiles], [], len(stack)
    with _threads(n) as run:
        for lo in reversed([-1] + convs):
            ds = run([functools.partial(
                _run_backward, layers[lo + 1:hi], dt, jobs[t::n])
                for t, (layers, dt) in enumerate(zip(stacks, ds))])
            if lo < 0:
                return
            # the last conv's arrays go before this one's are joined; the
            # tiles go on with views, so only the joined arrays are kept
            jobs = dy = None
            dy = np.concatenate(ds)
            ds = [dy[rows] for rows in tiles]
            jobs = stack[lo].weight_grad_jobs(
                [np.concatenate(phase) for phase in zip(
                    *(layers[lo].input_phases for layers in stacks))], dy)
            hi = lo + 1


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


@functools.cache
def _blas_thread_setter():
    """scipy-openblas's ``set_num_threads`` from numpy's bundled libraries,
    or None when numpy ships no library exporting it."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))):
        try:
            setter = ctypes.CDLL(path).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        return setter
    return None


class Model:
    """The classifier: seeded construction, forward, backward, state copy."""

    def __init__(self, cfg: ModelConfig, seed: int, dtype=DTYPE):
        # BLAS threads would compete with the tile threads and move bits
        setter = _blas_thread_setter()
        if setter is not None:
            setter(1)
        self.cfg = cfg
        self.seed = int(seed)
        self.dtype = np.dtype(dtype)
        # JSON-able record of the data the weights were fit on ({} when
        # unknown); checkpoints carry it so evaluation can refuse other data
        self.trained_on = {}
        self.layers = []
        in_ch = 1
        for i, blk in enumerate(cfg.blocks):
            self.layers.append(Conv1D(
                f"conv{i}", in_ch, blk.out_channels, kernel=blk.kernel,
                dilation=blk.dilation, stride=blk.stride, causal=blk.causal,
                rng=derive_rng(self.seed, "init", "conv", i)))
            self.layers.append(ReLU())
            if blk.pool == "max2":
                self.layers.append(MaxPool2())
            in_ch = blk.out_channels
        self.layers[0].input_grad = False
        first = 3 if cfg.blocks[0].pool == "max2" else 2
        self._first_block = _BlockTable(self.layers[:first], cfg.input_len)
        self._gap_index = len(self.layers)
        self.layers.append(GlobalAvgPool())
        width = in_ch
        for j, out in enumerate(cfg.fc):
            self.layers.append(Dense(f"fc{j}", width, out,
                                     rng=derive_rng(self.seed, "init", "fc", j)))
            if j < len(cfg.fc) - 1:
                self.layers.append(ReLU())
            width = out
        # layers draw their parameters in float64; the vector holds them
        # cast once, in param_items order, and each becomes a view of it
        drawn = [(layer.params, key, arr) for layer in self.layers
                 for key, arr in layer.params.items()]
        self.params = np.concatenate(
            [arr.ravel() for _, _, arr in drawn]).astype(self.dtype)
        self.grads = np.zeros_like(self.params)
        lo = 0
        for params, key, arr in drawn:
            params[key] = self.params[lo:lo + arr.size].reshape(arr.shape)
            lo += arr.size
        # conv multiply-adds per input row decide whether tiles are worth a
        # thread each
        length, macs = cfg.input_len, 0
        for layer in self.layers[:self._gap_index]:
            if isinstance(layer, Conv1D):
                length = layer.out_len(length)
                macs += layer.out_ch * layer.in_ch * layer.kernel * length
            elif isinstance(layer, MaxPool2):
                length //= 2
        self._threaded = macs * THREAD_TILE_ROWS >= PARALLEL_MIN_MACS
        # (stack per tile, row slices) of a training forward pass, until
        # backward takes it
        self._tiles = None

    def forward(self, x: np.ndarray, train: bool = False):
        """Run the net over (B, L) input; returns (probs, features).

        The input is cast to the model dtype once, unless the first block is
        looked up; the features keep that dtype, and the probabilities are
        float64.

        Inference on int8 input whose cells all lie in {-1, 0, +1} (every
        ``Dataset`` holds such traces) looks the first conv block up instead
        of computing it (see ``_BlockTable``): this thread runs the block's
        own layers once over the 3^W input windows its outputs can read,
        and each tile gathers its rows' outputs from that table. It does so
        when the table takes no more conv positions than the call's first
        tile; the gathered outputs have the bits of the block's, so the
        probabilities and features are those of a float feed.

        The conv blocks and global average pooling run over row tiles; every
        row they output depends on its own input row only, so tiling leaves
        the bits unchanged. A threaded model (one whose THREAD_TILE_ROWS-row
        tile holds PARALLEL_MIN_MACS or more) cuts every batch into tiles of
        at most THREAD_TILE_ROWS rows, and into two at least when it has two
        rows, and runs them on up to one thread per CPU, this one among them
        (numpy releases the GIL inside BLAS). Another model runs inference in
        TILE_ROWS-row tiles, which keeps activations near cache size, and
        trains on the whole batch. The FC head and softmax then run on the
        whole batch in this thread: BLAS picks its kernel by the number of
        rows, so the logits' last bits can depend on batch size, and the head
        must see the batch the caller passed.

        In training each tile after the first runs shallow copies of the
        stack's layers (the same parameter views, its own caches), and the
        step is pending for ``backward`` once the whole pass has run.
        """
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[1] != self.cfg.input_len:
            raise ValueError(f"expected (B, {self.cfg.input_len}) input, "
                             f"got {x.shape}")
        rows = (min(THREAD_TILE_ROWS, (len(x) + 1) // 2) if self._threaded
                else len(x) if train else TILE_ROWS) or 1
        tiles = [slice(lo, lo + rows) for lo in range(0, len(x) or 1, rows)]
        first = self._first_block
        if not train and first.fits(x, rows):
            stack = ([first.with_table(self.dtype)]
                     + self.layers[len(first.layers):self._gap_index + 1])
        else:
            x = x.astype(self.dtype, copy=False)
            stack = self.layers[:self._gap_index + 1]
        h = x[:, None, :]
        stacks = [stack] * len(tiles)
        if train:
            self._tiles = None
            stacks[1:] = [[copy.copy(layer) for layer in stack]
                          for _ in tiles[1:]]
        with _threads(len(tiles) if self._threaded else 1) as run:
            features = np.concatenate(run(
                [functools.partial(_run, layers, h, train, tile)
                 for layers, tile in zip(stacks, tiles)]))
        logits = _run(self.layers[self._gap_index + 1:], features, train)
        if train:
            self._tiles = (stacks, tiles)
        return softmax(logits.astype(np.float64)), features

    def backward(self, probs: np.ndarray, targets: np.ndarray) -> None:
        """Backpropagate mean cross-entropy through the pending training
        step. Each layer keeps its gradients, and ``grads`` gathers them in
        ``param_items`` order; a non-finite one raises FloatingPointError
        naming the first such tensor in backward order. With no step pending
        (no ``forward(..., train=True)`` since the last backward) it raises
        RuntimeError before any layer runs.

        The head runs on the whole batch in this thread, and the conv stack
        goes back over the forward pass's tiles (see ``_backward_tiles``).
        Each row's input gradient depends on that row alone, and each conv's
        weight and bias gradients are taken over the whole batch from the
        arrays an untiled pass gives them: the bits of an untiled pass."""
        if self._tiles is None:
            raise RuntimeError("Model.backward needs a forward(..., "
                               "train=True) first")
        tiles, self._tiles = self._tiles, None
        d = ((probs - targets) / len(probs)).astype(self.dtype)
        d = _run_backward(self.layers[self._gap_index + 1:], d)
        _backward_tiles(*tiles, d)
        self._gather_grads()

    def _gather_grads(self) -> None:
        """Gather the layer gradients into ``grads``; a non-finite one raises
        FloatingPointError naming the first such tensor in backward order."""
        np.concatenate([g.ravel() for _, _, g in self.param_grad_items()],
                       out=self.grads)
        if not np.isfinite(self.grads).all():
            for layer in reversed(self.layers):
                for key, g in layer.grads.items():
                    if not np.isfinite(g).all():
                        raise FloatingPointError(
                            f"non-finite gradient in {layer.name}.{key}")

    def param_items(self):
        for layer in self.layers:
            for key, arr in layer.params.items():
                yield f"{layer.name}.{key}", arr

    def param_grad_items(self):
        for layer in self.layers:
            for key, arr in layer.params.items():
                yield f"{layer.name}.{key}", arr, layer.grads[key]

    def state_copy(self) -> np.ndarray:
        """A copy of the parameter vector."""
        return self.params.copy()

    def load_state(self, state: np.ndarray) -> None:
        """Set every parameter from a ``state_copy`` of a like model."""
        self.params[...] = state


def decide(probs: np.ndarray):
    """Argmax class per row plus its probability; ties go to the lower index."""
    labels = np.argmax(probs, axis=1)
    return labels, probs[np.arange(len(probs)), labels]


def predict(model: Model, traces: np.ndarray):
    """Predicted class index (int64) and confidence (float64) per trace, in
    batches of PREDICT_BATCH rows; ``Model.forward`` takes each as it is."""
    labels, confs = [np.empty(0, np.int64)], [np.empty(0)]
    traces = np.asarray(traces)
    for lo in range(0, len(traces), PREDICT_BATCH):
        probs, _ = model.forward(traces[lo:lo + PREDICT_BATCH])
        lab, conf = decide(probs)
        labels.append(lab)
        confs.append(conf)
    return np.concatenate(labels), np.concatenate(confs)


class CheckpointError(ValueError):
    pass


# the JSON types a header value may have; a dataclass field's annotation (a
# string under the __future__ import) names its Python type
_JSON_TYPES = {"int": int, "bool": bool, "str": str, "tuple": list}
_FIELD_TYPES = {cls: {f.name: _JSON_TYPES[f.type] for f in fields(cls)}
                for cls in (ConvBlock, ModelConfig)}
_HEADER_TYPES = {"config": dict, "seed": int, "tensors": list,
                 "trained_on": dict}


def _unique_keys(pairs) -> dict:
    # json.loads alone would keep the last of two equal keys without a word
    if len({key for key, _ in pairs}) != len(pairs):
        raise CheckpointError(f"repeated key in {pairs!r}")
    return dict(pairs)


def _exact(obj, types: dict) -> dict:
    """``obj`` if it is a JSON object with exactly the keys of ``types``, each
    value of exactly that type (so ``true`` and ``3.0`` are no int)."""
    if type(obj) is not dict or obj.keys() != types.keys():
        raise CheckpointError(f"expected keys {sorted(types)}, got {obj!r}")
    for key, value in obj.items():
        if type(value) is not types[key]:
            raise CheckpointError(f"{key} has the wrong JSON type: {value!r}")
    return obj


def _tensor_table(model: Model) -> list:
    return [[name, list(arr.shape)] for name, arr in model.param_items()]


def _param_count(cfg: ModelConfig) -> int:
    """Parameters a Model of ``cfg`` holds, counted without one."""
    chans = (1,) + tuple(b.out_channels for b in cfg.blocks)
    dims = chans[-1:] + cfg.fc
    return (sum((i * b.kernel + 1) * b.out_channels
                for i, b in zip(chans, cfg.blocks))
            + sum((i + 1) * o for i, o in zip(dims, dims[1:])))


def save_checkpoint(model: Model, path) -> None:
    """Magic, ``<II`` version and header length, a sorted-key JSON header,
    then the parameter vector (every ``param_items`` tensor, back to back) as
    ``<f4`` bytes. Only a float32 model is saved, so the file holds its values
    exactly."""
    if model.dtype != np.float32:
        raise ValueError(f"checkpoints hold float32 tensors; this model is "
                         f"{model.dtype}")
    header = json.dumps({"config": asdict(model.cfg), "seed": model.seed,
                         "tensors": _tensor_table(model),
                         "trained_on": model.trained_on}, sort_keys=True)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack(
            "<II", CHECKPOINT_VERSION, len(header)) + header.encode("ascii"))
        fh.write(model.params.astype("<f4", copy=False).tobytes())


def load_checkpoint(path) -> Model:
    """The saved float32 model; any other file, versions 1 and 2 included,
    raises CheckpointError."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(4) != CHECKPOINT_MAGIC:
            raise CheckpointError("not a model checkpoint (bad magic)")
        if size < 12:
            raise CheckpointError("truncated checkpoint file")
        version, text_len = struct.unpack("<II", fh.read(8))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        # each size is checked against the file before it is read
        if text_len > size - 12:
            raise CheckpointError("truncated checkpoint file")
        try:
            header = _exact(json.loads(fh.read(text_len).decode("utf-8"),
                                       object_pairs_hook=_unique_keys),
                            _HEADER_TYPES)
            raw = _exact(header["config"], _FIELD_TYPES[ModelConfig])
            if not all(type(w) is int for w in raw["fc"]):
                raise CheckpointError(f"fc widths must be ints: {raw['fc']}")
            cfg = ModelConfig(**{**raw, "blocks": [
                ConvBlock(**_exact(b, _FIELD_TYPES[ConvBlock]))
                for b in raw["blocks"]]})
        except (ValueError, TypeError, RecursionError) as exc:
            raise CheckpointError(f"bad checkpoint header: {exc}") from None
        need, left = 4 * _param_count(cfg), size - 12 - text_len
        if need != left:
            raise CheckpointError(
                f"{'truncated' if need > left else 'trailing bytes in'} "
                f"checkpoint: {need} parameter bytes expected, {left} found")
        model = Model(cfg, header["seed"], dtype=np.float32)
        model.trained_on = header["trained_on"]
        if header["tensors"] != _tensor_table(model):
            raise CheckpointError("tensor table does not match the config")
        model.params[...] = np.frombuffer(fh.read(need), "<f4")
    return model
