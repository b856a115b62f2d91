"""Training recipe: SGD with Nesterov momentum and weight decay, the step
learning-rate schedule, and the epoch loop with deterministic rng indexing.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import network, ops
from .atomic import atomic_write
from .data import augment_cifar
from .model_spec import ConfigError, as_flag, as_integer, as_number, as_tuple, read_fields
from .rng import make_rng
from .tensor import NonFiniteError, Tape, backward, set_debug


class TrainingDivergedError(RuntimeError):
    """Raised when a batch loss (the diagnostic names the first bad tensor) or an
    evaluation's mean loss turns non-finite."""


@dataclass
class TrainConfig:
    """Training settings; ``__post_init__`` checks each field by its type's reader.

    A rejected value raises a ``ConfigError`` whose ``key`` is its field."""

    epochs: int
    batch_size: int = 64
    lr0: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr_drop_points: tuple = (0.5, 0.75)
    lr_drop_factor: float = 10.0
    augment: bool = False
    dropout_p: float = None   # policy default: 0.2 without augmentation, 0 with
    seed: int = 0

    def __post_init__(self):
        read_fields(self, {int: as_integer, float: as_number, bool: as_flag,
                           tuple: as_tuple(as_number)})
        if self.epochs < 1:
            raise ConfigError(f"at least 1 epoch required, got {self.epochs}", "epochs")
        if self.batch_size < 1:
            raise ConfigError(f"must be at least 1, got {self.batch_size}", "batch_size")
        for name in ("lr0", "momentum", "weight_decay", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"must be nonnegative, got {getattr(self, name)}", name)
        if self.lr_drop_factor <= 0:
            raise ConfigError(f"must be positive, got {self.lr_drop_factor}", "lr_drop_factor")
        pts = self.lr_drop_points
        if any(not 0 < p < 1 for p in pts) or list(pts) != sorted(set(pts)):
            raise ConfigError(f"must be strictly increasing in (0, 1), got {pts}", "lr_drop_points")
        if self.dropout_p is None:
            self.dropout_p = 0.0 if self.augment else 0.2
        if not 0 <= self.dropout_p < 1:
            raise ConfigError(f"must be in [0, 1), got {self.dropout_p}", "dropout_p")


def lr_at_epoch(config, epoch):
    """Step schedule: lr0 divided by the drop factor at each drop point.

    Drop epochs are floor(fraction * epochs); with epochs=1 both drops land on
    epoch 0, so the single epoch already runs at lr0/factor^2.
    """
    if not 0 <= epoch < config.epochs:
        raise ValueError(f"epoch {epoch} out of range [0, {config.epochs})")
    lr = config.lr0
    for frac in config.lr_drop_points:
        if epoch >= math.floor(frac * config.epochs):
            lr /= config.lr_drop_factor
    return lr


def sgd_nesterov_step(params, velocity, lr, momentum, weight_decay):
    """value <- value - lr * (g' + momentum * v) with v <- momentum * v + g'
    and g' = grad + weight_decay * value (Nesterov form); ``velocity`` maps
    each parameter name to its v, which starts at 0."""
    for p in params:
        g = p.grad.data + weight_decay * p.value.data
        v = velocity.get(p.name)
        if v is None:
            v = velocity[p.name] = np.zeros_like(p.value.data)
        v *= momentum
        v += g
        p.value.data -= (lr * (g + momentum * v)).astype(p.value.data.dtype, copy=False)


def _batch_arrays(dataset, idxs, config, epoch):
    x = dataset.images[idxs]
    if config.augment:
        for j, i in enumerate(idxs):
            x[j] = augment_cifar(x[j], make_rng(config.seed, "aug", epoch, int(i)))
    return x, dataset.labels[idxs]


def _diagnose_nonfinite(model, x, labels, rng, epoch, batch):
    set_debug(True)
    try:
        logits, _ = network.forward(model, x, mode="train", rng=rng)
        ops.softmax_cross_entropy(logits, labels)
    except NonFiniteError as exc:
        return TrainingDivergedError(
            f"non-finite loss at epoch {epoch}, batch {batch}; "
            f"first non-finite tensor: {exc.label}")
    finally:
        set_debug(False)
    return TrainingDivergedError(
        f"non-finite loss at epoch {epoch}, batch {batch} (not reproducible in replay)")


def train_epochs(model, train_data, test_data, config, on_epoch_end=None):
    """Run the full recipe; returns one metrics row per epoch.

    Shuffling, augmentation, and dropout draw from generators keyed by
    (seed, purpose, epoch, index), so reruns with the same seed are
    bit-identical regardless of batching or prefetch order.
    """
    velocity = {}
    params = model.parameters()
    history = []
    for epoch in range(config.epochs):
        lr = lr_at_epoch(config, epoch)
        model.dropout_p = config.dropout_p
        perm = make_rng(config.seed, "shuffle", epoch).permutation(len(train_data))
        total_loss, total_correct = 0.0, 0
        for b_idx, start in enumerate(range(0, len(perm), config.batch_size)):
            idxs = perm[start:start + config.batch_size]
            x, labels = _batch_arrays(train_data, idxs, config, epoch)
            rng = make_rng(config.seed, "dropout", epoch, b_idx)
            with Tape() as tape:
                logits, _ = network.forward(model, x, mode="train", rng=rng)
                loss = ops.softmax_cross_entropy(logits, labels)
            if not np.isfinite(loss.data):
                raise _diagnose_nonfinite(model, x, labels,
                                          make_rng(config.seed, "dropout", epoch, b_idx),
                                          epoch, b_idx)
            backward(tape, loss)
            sgd_nesterov_step(params, velocity, lr, config.momentum, config.weight_decay)
            model.zero_grad()
            total_loss += float(loss.data) * len(idxs)
            total_correct += int((logits.data.argmax(axis=1) == labels).sum())
        model.epoch = epoch + 1
        test_loss, test_acc = evaluate(model, test_data)   # checks the epoch's last update
        row = {
            "epoch": epoch,
            "lr": lr,
            "train_loss": total_loss / len(perm),
            "train_acc": total_correct / len(perm),
            "test_loss": test_loss,
            "test_acc": test_acc,
        }
        history.append(row)
        if on_epoch_end is not None:
            on_epoch_end(model, row)
    return history


def evaluate(model, data, batch_size=256):
    """Mean loss and accuracy in eval mode (no augmentation, no dropout); checked finite."""
    total_loss, total_correct = 0.0, 0
    for start in range(0, len(data), batch_size):
        x = data.images[start:start + batch_size]
        labels = data.labels[start:start + batch_size]
        logits, _ = network.forward(model, x, mode="eval", rng=None)
        loss = ops.softmax_cross_entropy(logits, labels)
        total_loss += float(loss.data) * len(labels)
        total_correct += int((logits.data.argmax(axis=1) == labels).sum())
    if not math.isfinite(total_loss):
        raise TrainingDivergedError(f"non-finite test loss; epochs trained: {model.epoch}")
    return total_loss / len(data), total_correct / len(data)


METRICS_HEADER = "epoch,lr,train_loss,train_acc,test_loss,test_acc"


def write_metrics_csv(history, path):
    """One row per epoch, floats with 6 decimals."""
    with atomic_write(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(METRICS_HEADER + "\n")
        for row in history:
            fh.write("{epoch},{lr:.6f},{train_loss:.6f},{train_acc:.6f},"
                     "{test_loss:.6f},{test_acc:.6f}\n".format(**row))
