"""Seeded minibatch training with online augmentation and best-val selection.

All randomness (shuffling, per-batch augmentation) derives from the single
seed in TrainConfig, so a rerun with the same inputs reproduces every weight
bit for bit. The returned model carries the parameters of the epoch with the
best validation accuracy (earliest epoch on ties).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from ..augment import AugConfig, hda_batch
from ..seeding import derive_rng
from ..traces import Dataset, class_indices, one_hot_labels
from .model import Model, ModelConfig, cross_entropy, predict
from .optim import Adam


@dataclass
class TrainConfig:
    epochs: int = 150
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")


@dataclass(frozen=True)
class HistoryRow:
    epoch: int
    train_loss: float
    val_acc: float


class TrainingDiverged(RuntimeError):
    """Loss or parameters went non-finite; ``history`` holds the completed
    epochs."""

    def __init__(self, epoch: int, history):
        super().__init__(f"training diverged (non-finite loss or parameters)"
                         f" in epoch {epoch}")
        self.epoch = epoch
        self.history = list(history)


def dataset_accuracy(model: Model, ds: Dataset) -> float:
    """Plain argmax accuracy; background counts as the extra last class.
    An empty ``ds`` has none and raises ValueError."""
    if len(ds) == 0:
        raise ValueError("accuracy of an empty dataset")
    pred, _ = predict(model, ds.traces)
    return float(np.mean(pred == class_indices(ds.labels, ds.num_classes)))


def train(model_cfg: ModelConfig, train_cfg: TrainConfig, train_set: Dataset,
          val_set: Dataset, aug_cfg: AugConfig | None = None):
    """Train a fresh model; returns (best-validation model, epoch history).

    Labels are one-hot in the wider split's output width, so background in
    either split gets the extra output. Traces reach ``hda_batch`` and
    ``Model.forward`` as stored (int8); ``forward`` casts them."""
    if len(train_set) == 0 or len(val_set) == 0:
        raise ValueError("train and validation sets must be non-empty")
    if train_set.num_classes != val_set.num_classes:
        raise ValueError(f"train set has {train_set.num_classes} classes, "
                         f"validation set {val_set.num_classes}")
    width = max(train_set.output_width, val_set.output_width)
    if width != model_cfg.num_classes:
        raise ValueError(f"model outputs {model_cfg.num_classes} classes but "
                         f"the data encodes {width}")
    if train_set.trace_len != model_cfg.input_len:
        raise ValueError(f"model expects length {model_cfg.input_len}, "
                         f"dataset has {train_set.trace_len}")

    model = Model(model_cfg, train_cfg.seed)
    optimizer = Adam(model, lr=train_cfg.lr)
    y_all = one_hot_labels(train_set.labels, train_set.num_classes, width)
    n = len(train_set)

    history: list[HistoryRow] = []
    best_acc, best_state = -1.0, None
    for epoch in range(train_cfg.epochs):
        order = derive_rng(train_cfg.seed, "shuffle", epoch).permutation(n)
        total = 0.0
        for index, lo in enumerate(range(0, n, train_cfg.batch_size)):
            sel = order[lo:lo + train_cfg.batch_size]
            xb, yb = train_set.traces[sel], y_all[sel]
            if aug_cfg is not None:
                xb, yb = hda_batch(xb, yb, aug_cfg,
                                   derive_rng(train_cfg.seed, "aug", epoch, index))
            probs, _ = model.forward(xb, train=True)
            batch_loss = cross_entropy(probs, yb)
            if not math.isfinite(batch_loss):
                raise TrainingDiverged(epoch, history)
            model.backward(probs, yb)
            optimizer.step()
            total += batch_loss * len(sel)
        # the loss check sees a step's overflow only at the next batch, so
        # an epoch's last step is checked here, before it can be kept
        if not np.isfinite(model.params).all():
            raise TrainingDiverged(epoch, history)
        val_acc = dataset_accuracy(model, val_set)
        history.append(HistoryRow(epoch, total / n, val_acc))
        if val_acc > best_acc:
            best_acc, best_state = val_acc, model.state_copy()
    model.load_state(best_state)
    return model, history


def write_history(path, history) -> None:
    """CSV history: epoch,train_loss,val_acc."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("epoch", "train_loss", "val_acc"))
        for row in history:
            writer.writerow([row.epoch, row.train_loss, row.val_acc])
