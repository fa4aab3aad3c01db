"""Model assembly: conv blocks, global average pooling, FC head, softmax.

The network consumes (batch, length) real-valued direction sequences and
returns per-class probabilities plus the pooled feature vectors. A versioned
checkpoint holds a JSON header (architecture, seed, tensor table, training
data) and every parameter tensor as little-endian float64.
"""

from __future__ import annotations

import json
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from ..seeding import derive_rng
from .layers import Conv1D, Dense, GlobalAvgPool, MaxPool2, ReLU

EPS = 1e-12

CHECKPOINT_MAGIC = b"TFWF"
CHECKPOINT_VERSION = 2

POOL_KINDS = ("none", "max2")

# Rows per inference tile of the conv stack (see Model.forward). A forward
# of 256 rows through the stock model on a 2-core Xeon (2 MB L2 per core, one
# BLAS thread) took 340-370 ms with tiles of 4 to 24 rows, 390 ms at 32 and
# 500 ms at 64; at 16 rows its widest activation is 16 x 32 x 1000 float64.
TILE_ROWS = 16

# Conv multiply-adds one inference tile must hold before the tiles of a
# model run on a thread pool (about 1 ms of single-thread BLAS on that
# Xeon). Below it, thread hand-offs and the GIL-bound small numpy calls
# between BLAS calls cost more than a second core wins.
PARALLEL_MIN_MACS = 1 << 24


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


def _run(layers, h: np.ndarray, train: bool) -> np.ndarray:
    for layer in layers:
        h = layer.forward(h, train=train)
    return h


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


class Model:
    """The classifier: seeded construction, forward, backward, state copy."""

    def __init__(self, cfg: ModelConfig, seed: int):
        self.cfg = cfg
        self.seed = int(seed)
        # JSON-able record of the data the weights were fit on ({} when
        # unknown); checkpoints carry it so evaluation can refuse other data
        self.trained_on = {}
        self.layers = []
        self._gap_index = None
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
        self._gap_index = len(self.layers)
        self.layers.append(GlobalAvgPool())
        width = in_ch
        for j, out in enumerate(cfg.fc):
            self.layers.append(Dense(f"fc{j}", width, out,
                                     rng=derive_rng(self.seed, "init", "fc", j)))
            if j < len(cfg.fc) - 1:
                self.layers.append(ReLU())
            width = out
        # conv multiply-adds per input row decide whether inference tiles
        # are worth a thread each
        length, macs = cfg.input_len, 0
        for layer in self.layers[:self._gap_index]:
            if isinstance(layer, Conv1D):
                length = layer.out_len(length)
                macs += layer.out_ch * layer.in_ch * layer.kernel * length
            elif isinstance(layer, MaxPool2):
                length //= 2
        self._threaded = macs * (TILE_ROWS // 2) >= PARALLEL_MIN_MACS

    def forward(self, x: np.ndarray, train: bool = False):
        """Run the net over (B, L) input; returns (probs, features).

        Inference runs the conv blocks and global average pooling over tiles
        of TILE_ROWS rows, which keeps each tile's activations near cache
        size. Every row those layers output depends on its own input row
        only, so tiling leaves the bits unchanged. A model whose tile holds
        PARALLEL_MIN_MACS or more runs tiles of TILE_ROWS // 2 rows on up to
        one thread per CPU (numpy releases the GIL inside BLAS), so two tiles
        in flight hold no more than one serial tile; np.concatenate keeps row
        order, so this too leaves the bits unchanged. The FC head and
        softmax then run once on the whole batch, in the calling thread: BLAS
        picks its kernel by the number of rows (a matrix-vector product for
        one row), so the logits' last bits can depend on batch size, and the
        head must see the batch the caller passed. Training runs the whole
        batch as one tile, because backward needs every layer's cache for the
        full batch.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.cfg.input_len:
            raise ValueError(f"expected (B, {self.cfg.input_len}) input, "
                             f"got {x.shape}")
        h = x[:, None, :]
        stack = self.layers[:self._gap_index + 1]
        head = self.layers[self._gap_index + 1:]
        if train:
            features = _run(stack, h, train)
        else:
            rows = TILE_ROWS // 2 if self._threaded else TILE_ROWS
            tiles = [h[lo:lo + rows] for lo in range(0, max(len(h), 1), rows)]
            workers = min(_cpu_count(), len(tiles)) if self._threaded else 1
            if workers > 1:
                # a pool per call: a long-lived one would not survive fork
                with ThreadPoolExecutor(workers) as pool:
                    outs = list(pool.map(lambda t: _run(stack, t, False),
                                         tiles))
            else:
                outs = [_run(stack, t, False) for t in tiles]
            features = np.concatenate(outs)
        return softmax(_run(head, features, train)), features

    def backward(self, probs: np.ndarray, targets: np.ndarray) -> None:
        """Backpropagate mean cross-entropy; gradients land in each layer."""
        d = (probs - targets) / len(probs)
        for layer in reversed(self.layers):
            d = layer.backward(d)
            for key, g in layer.grads.items():
                if not np.all(np.isfinite(g)):
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

    def state_copy(self) -> dict:
        return {name: arr.copy() for name, arr in self.param_items()}

    def load_state(self, state: dict) -> None:
        for name, arr in self.param_items():
            arr[...] = state[name]


def decide(probs: np.ndarray):
    """Argmax class per row plus its probability; ties go to the lower index."""
    labels = np.argmax(probs, axis=1)
    return labels, probs[np.arange(len(probs)), labels]


def predict(model: Model, traces: np.ndarray, batch_size: int = 256):
    """Predicted class index and confidence per trace, batched for memory."""
    labels, confs = [], []
    traces = np.asarray(traces)
    for lo in range(0, len(traces), batch_size):
        probs, _ = model.forward(traces[lo:lo + batch_size].astype(np.float64))
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
    """Float64 parameters a Model of ``cfg`` holds, counted without one."""
    chans = (1,) + tuple(b.out_channels for b in cfg.blocks)
    dims = chans[-1:] + cfg.fc
    return (sum((i * b.kernel + 1) * b.out_channels
                for i, b in zip(chans, cfg.blocks))
            + sum((i + 1) * o for i, o in zip(dims, dims[1:])))


def save_checkpoint(model: Model, path) -> None:
    """Magic, ``<II`` version and header length, a sorted-key JSON header,
    then every ``param_items`` tensor as ``<f8`` bytes, back to back."""
    header = json.dumps({"config": asdict(model.cfg), "seed": model.seed,
                         "tensors": _tensor_table(model),
                         "trained_on": model.trained_on}, sort_keys=True)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack(
            "<II", CHECKPOINT_VERSION, len(header)) + header.encode("ascii"))
        for _, arr in model.param_items():
            fh.write(arr.astype("<f8").tobytes())


def load_checkpoint(path) -> Model:
    """The saved model; any other file, v1 included, raises CheckpointError."""
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
        need, left = 8 * _param_count(cfg), size - 12 - text_len
        if need != left:
            raise CheckpointError(
                f"{'truncated' if need > left else 'trailing bytes in'} "
                f"checkpoint: {need} parameter bytes expected, {left} found")
        model = Model(cfg, header["seed"])
        model.trained_on = header["trained_on"]
        if header["tensors"] != _tensor_table(model):
            raise CheckpointError("tensor table does not match the config")
        for _, arr in model.param_items():
            arr.flat[:] = np.frombuffer(fh.read(8 * arr.size), "<f8")
    return model
