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
from .optim import OPTIMIZERS, make_optimizer


@dataclass
class TrainConfig:
    epochs: int = 150
    batch_size: int = 32
    lr: float = 1e-3
    optimizer: str = "adam"
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not math.isfinite(self.momentum):
            raise ValueError(f"momentum must be finite, got {self.momentum}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")


@dataclass(frozen=True)
class HistoryRow:
    epoch: int
    train_loss: float
    val_acc: float


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; ``history`` holds the completed epochs."""

    def __init__(self, epoch: int, history):
        super().__init__(f"training diverged (non-finite loss) in epoch {epoch}")
        self.epoch = epoch
        self.history = list(history)


def dataset_accuracy(model: Model, ds: Dataset) -> float:
    """Plain argmax accuracy; background counts as the extra last class."""
    pred, _ = predict(model, ds.traces)
    return float(np.mean(pred == class_indices(ds.labels, ds.num_classes)))


def train(model_cfg: ModelConfig, train_cfg: TrainConfig, train_set: Dataset,
          val_set: Dataset, aug_cfg: AugConfig | None = None):
    """Train a fresh model; returns (best-validation model, epoch history)."""
    if len(train_set) == 0 or len(val_set) == 0:
        raise ValueError("train and validation sets must be non-empty")
    if train_set.num_classes != val_set.num_classes:
        raise ValueError(f"train set has {train_set.num_classes} classes, "
                         f"validation set {val_set.num_classes}")
    # background in either split gets the extra output
    width = max(train_set.output_width, val_set.output_width)
    background = width > train_set.num_classes
    if width != model_cfg.num_classes:
        raise ValueError(f"model outputs {model_cfg.num_classes} classes but "
                         f"the data encodes {width}")
    if train_set.trace_len != model_cfg.input_len:
        raise ValueError(f"model expects length {model_cfg.input_len}, "
                         f"dataset has {train_set.trace_len}")

    model = Model(model_cfg, train_cfg.seed)
    optimizer = make_optimizer(train_cfg.optimizer, model, train_cfg.lr,
                               train_cfg.momentum)
    x_all = train_set.traces.astype(np.float64)
    y_all = one_hot_labels(train_set.labels, train_set.num_classes,
                           background_class=background)
    augment = aug_cfg is not None and aug_cfg.any_enabled()
    n = len(train_set)

    history: list[HistoryRow] = []
    best_acc, best_state = -1.0, None
    for epoch in range(train_cfg.epochs):
        order = derive_rng(train_cfg.seed, "shuffle", epoch).permutation(n)
        total = 0.0
        for index, lo in enumerate(range(0, n, train_cfg.batch_size)):
            sel = order[lo:lo + train_cfg.batch_size]
            xb, yb = x_all[sel], y_all[sel]
            if augment:
                xb, yb = hda_batch(xb, yb, aug_cfg,
                                   derive_rng(train_cfg.seed, "aug", epoch, index))
            probs, _ = model.forward(xb, train=True)
            batch_loss = cross_entropy(probs, yb)
            if not math.isfinite(batch_loss):
                raise TrainingDiverged(epoch, history)
            model.backward(probs, yb)
            optimizer.step()
            total += batch_loss * len(sel)
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
