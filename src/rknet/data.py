"""Dataset ingestion: CIFAR-10 binary batches, a desk-scale synthetic shape
set, and the standard pad-crop-flip augmentation."""

import os
from dataclasses import dataclass

import numpy as np

from .model_spec import ConfigError, as_count, as_number, read_fields
from .rng import make_rng


class DataError(RuntimeError):
    """Unreadable or malformed dataset input."""


@dataclass
class DatasetHandle:
    images: np.ndarray      # (N, C, H, W) float32
    labels: np.ndarray      # (N,) int64
    split: str
    num_classes: int

    def __len__(self):
        return len(self.labels)


_CIFAR_TRAIN = [f"data_batch_{i}.bin" for i in range(1, 6)]
_CIFAR_TEST = "test_batch.bin"
_CIFAR_RECORD = 3073          # 1 label byte + 3 * 1024 channel-planar pixel bytes
_CIFAR_RECORDS = 10_000       # records per batch file


def _read_cifar_batch(path):
    """One batch file's images and labels; its size is checked before any
    byte is read, so no allocation is sized by the file."""
    records = _CIFAR_RECORDS
    expected = records * _CIFAR_RECORD
    try:
        size = os.stat(path).st_size
        if size == expected:
            raw = np.fromfile(path, dtype=np.uint8, count=expected)
            size = raw.size   # the file may have shrunk since the stat
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if size != expected:
        raise DataError(f"{path}: expected {expected} bytes "
                        f"({records} records of {_CIFAR_RECORD}), got {size}")
    rows = raw.reshape(records, _CIFAR_RECORD)
    labels = rows[:, 0].astype(np.int64)
    if labels.max() > 9:
        raise DataError(f"{path}: label byte {labels.max()} out of range [0, 9]")
    images = rows[:, 1:].reshape(records, 3, 32, 32).astype(np.float32) / 255.0
    return images, labels


def load_cifar10_binary(directory):
    """Load the six standard CIFAR-10 binary batch files from a directory,
    standardized per channel with statistics computed from the training split.

    A training channel that is constant (standard deviation 0, which float32
    rounding may not compute as 0) or whose standard deviation is not finite
    cannot be standardized; it raises ``DataError`` naming the split and the
    channel."""
    parts = [_read_cifar_batch(os.path.join(directory, f)) for f in _CIFAR_TRAIN]
    train_x = np.concatenate([p[0] for p in parts])
    train_y = np.concatenate([p[1] for p in parts])
    test_x, test_y = _read_cifar_batch(os.path.join(directory, _CIFAR_TEST))

    mean = train_x.mean(axis=(0, 2, 3), keepdims=True)
    std = train_x.std(axis=(0, 2, 3), keepdims=True)
    constant = train_x.min(axis=(0, 2, 3)) == train_x.max(axis=(0, 2, 3))
    for channel, (value, flat) in enumerate(zip(std.ravel(), constant)):
        if flat or not np.isfinite(value):
            raise DataError(f"{directory}: channel {channel} of the train split has standard "
                            f"deviation {0.0 if flat else value}, so it cannot be standardized")
    train_x = (train_x - mean) / std
    test_x = (test_x - mean) / std
    return (DatasetHandle(train_x, train_y, "train", 10),
            DatasetHandle(test_x, test_y, "test", 10))


@dataclass
class SyntheticSplits:
    """Noise and per-class sizes of the synthetic train and test splits.

    ``__post_init__`` checks each field by its type's reader; a rejected
    value raises a ``ConfigError`` whose ``key`` is its field."""

    noise: float = 0.15
    train_per_class: int = 500
    test_per_class: int = 100

    def __post_init__(self):
        read_fields(self, {int: as_count, float: as_number})
        if self.noise < 0:
            raise ConfigError(f"must be nonnegative, got {self.noise}", "noise")


def gen_synthetic_shapes(n_per_class, classes=4, size=16, noise=0.1, seed=0, split="train"):
    """Render a balanced 4-class shape dataset (square / circle / cross / stripes).

    Shapes are drawn at a jittered center with unit intensity on all three
    channels plus additive Gaussian noise.  Deterministic given (seed, split).
    """
    if n_per_class < 1:
        raise ValueError(f"gen_synthetic_shapes: n_per_class must be >= 1, got {n_per_class}")
    if size < 8:
        raise ValueError(f"gen_synthetic_shapes: size must be >= 8, got {size}")
    if not 1 <= classes <= 4:
        raise ValueError(f"gen_synthetic_shapes: classes must be in [1, 4], got {classes}")
    span = size // 2
    jitter = max(1, size // 8)
    yy, xx = np.mgrid[0:size, 0:size]
    images = np.empty((classes * n_per_class, 3, size, size), dtype=np.float32)
    labels = np.empty(classes * n_per_class, dtype=np.int64)
    idx = 0
    for cls in range(classes):
        for i in range(n_per_class):
            rng = make_rng(seed, "shapes", split, cls, i)
            cy = size // 2 + int(rng.integers(-jitter, jitter + 1))
            cx = size // 2 + int(rng.integers(-jitter, jitter + 1))
            half = span // 2
            if cls == 0:     # filled square
                mask = (np.abs(yy - cy) <= half) & (np.abs(xx - cx) <= half)
            elif cls == 1:   # filled circle
                mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= half ** 2
            elif cls == 2:   # plus-shaped cross
                bar = max(1, size // 16)
                mask = (((np.abs(yy - cy) < bar) & (np.abs(xx - cx) <= half))
                        | ((np.abs(xx - cx) < bar) & (np.abs(yy - cy) <= half)))
            else:            # horizontal stripes
                mask = (np.abs(yy - cy) <= half) & (np.abs(xx - cx) <= half) & (yy % 2 == 0)
            img = np.repeat(mask[None].astype(np.float32), 3, axis=0)
            if noise:
                img = img + rng.normal(0.0, noise, size=img.shape).astype(np.float32)
            images[idx] = img
            labels[idx] = cls
            idx += 1
    return DatasetHandle(images, labels, split, classes)


def augment_cifar(x, rng):
    """Pad 4 zeros per side, random 32x32 crop, random horizontal flip (p=0.5).

    Accepts one (C, 32, 32) image; the output has the input's shape.  Center
    crop plus no flip reproduces the input exactly.
    """
    if x.ndim != 3 or x.shape[1] != 32 or x.shape[2] != 32:
        raise ValueError(f"augment_cifar expects a (C, 32, 32) image, got {x.shape}")
    padded = np.pad(x, ((0, 0), (4, 4), (4, 4)))
    oy, ox = (int(v) for v in rng.integers(0, 9, size=2))
    out = padded[:, oy:oy + 32, ox:ox + 32]
    if rng.random() < 0.5:
        out = out[:, :, ::-1]
    return np.ascontiguousarray(out)
