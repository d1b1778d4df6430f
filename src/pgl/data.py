"""Synthetic dataset generators, deterministic batching, and an IDX loader.

The blob and spiral generators are the desk-scale stand-ins for image
benchmarks: every generator is a pure function of its seed and produces
exactly balanced labels.  The IDX loader reads the classic big-endian image
file format for optional real-data runs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, FormatError


@dataclass
class Dataset:
    inputs: np.ndarray        # [N, d] or [N, C, H, W], float32
    labels: np.ndarray        # [N], int64 in [0, num_classes)
    num_classes: int

    def __post_init__(self):
        if len(self.inputs) != len(self.labels):
            raise DataError(f"{len(self.inputs)} inputs vs {len(self.labels)} labels")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise DataError(f"labels must lie in [0, {self.num_classes})")

    def __len__(self):
        return len(self.labels)


def _rng(seed):
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def _require(where, *rules):
    # raise for the first (name, value, ">=" or ">", bound) that fails
    for name, value, op, bound in rules:
        if not (value > bound if op == ">" else value >= bound):
            raise ConfigError(f"{where}{name} must be {op} {bound}, got {value!r}")


def check_blobs(n_per_class, d, classes, spread, where="gen_blobs: ", count="n_per_class"):
    """``gen_blobs``' rule on its arguments.  The ConfigError names the
    first argument that breaks it, after ``where``; n_per_class as ``count``."""
    _require(where, (count, n_per_class, ">=", 1), ("classes", classes, ">=", 2),
             ("d", d, ">=", classes), ("spread", spread, ">", 0))


def check_spirals(n_per_class, classes, noise, where="gen_spirals: ", count="n_per_class"):
    """``gen_spirals``' rule on its arguments, named as ``check_blobs`` names them."""
    _require(where, (count, n_per_class, ">=", 1), ("classes", classes, ">=", 2),
             ("noise", noise, ">=", 0))


def gen_blobs(n_per_class: int, d: int, classes: int, spread: float, seed) -> Dataset:
    """Isotropic Gaussian blobs centered on scaled basis vectors.

    Class c sits at 4 * e_c, so d must be >= classes.  Noise std is
    ``spread``.  Deterministic given the seed; labels exactly balanced.
    """
    check_blobs(n_per_class, d, classes, spread)
    rng = _rng(seed)
    centers = 4.0 * np.eye(classes, d, dtype=np.float64)
    xs = [centers[c] + rng.normal(0.0, spread, size=(n_per_class, d)) for c in range(classes)]
    return Dataset(np.concatenate(xs).astype(np.float32), np.repeat(np.arange(classes), n_per_class), classes)


SPIRAL_TURNS = 1.75


def gen_spirals(n_per_class: int, classes: int, noise: float, seed) -> Dataset:
    """Interleaved 2-D spirals: radius 0..1 over 2*pi*1.75 turns, class phase
    offset 2*pi/classes, additive Gaussian noise of std ``noise``."""
    check_spirals(n_per_class, classes, noise)
    rng = _rng(seed)
    xs = []
    for c in range(classes):
        t = np.linspace(0.0, 1.0, n_per_class, dtype=np.float64)
        angle = 2.0 * np.pi * SPIRAL_TURNS * t + 2.0 * np.pi * c / classes
        pts = np.stack([t * np.cos(angle), t * np.sin(angle)], axis=1)
        pts += rng.normal(0.0, noise, size=pts.shape)
        xs.append(pts)
    return Dataset(np.concatenate(xs).astype(np.float32), np.repeat(np.arange(classes), n_per_class), classes)


# ---------------------------------------------------------------------------
# IDX files

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


def _read_exact(f, n: int, path) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise FormatError(f"{path}: truncated IDX file (wanted {n} bytes, got {len(buf)})")
    return buf


def load_idx(images_path, labels_path, mean: float = 0.0, std: float = 1.0) -> Dataset:
    """Read big-endian IDX image/label files into a [N,1,H,W] dataset.

    Pixels are scaled to [0,1] and then normalized as (x - mean) / std.
    """
    with open(images_path, "rb") as f:
        magic, = struct.unpack(">I", _read_exact(f, 4, images_path))
        if magic != _IDX_IMAGES_MAGIC:
            raise FormatError(f"{images_path}: bad image magic 0x{magic:08x}")
        n, h, w = struct.unpack(">III", _read_exact(f, 12, images_path))
        raw = _read_exact(f, n * h * w, images_path)
        images = np.frombuffer(raw, dtype=np.uint8).reshape(n, 1, h, w)
    with open(labels_path, "rb") as f:
        magic, = struct.unpack(">I", _read_exact(f, 4, labels_path))
        if magic != _IDX_LABELS_MAGIC:
            raise FormatError(f"{labels_path}: bad label magic 0x{magic:08x}")
        nl, = struct.unpack(">I", _read_exact(f, 4, labels_path))
        labels = np.frombuffer(_read_exact(f, nl, labels_path), dtype=np.uint8).astype(np.int64)
    if n == 0 or n != nl:
        raise DataError(f"{images_path} holds {n} images and {labels_path} {nl} labels; "
                        "an IDX pair needs one label per image and at least one image")
    x = (images.astype(np.float32) / 255.0 - mean) / std
    return Dataset(x, labels, int(labels.max()) + 1)


# ---------------------------------------------------------------------------
# batching

def batches(dataset: Dataset, batch_size: int, seed, epoch: int) -> list:
    """Deterministic per-epoch shuffled batches; the final short batch is kept.

    The permutation depends only on (seed, epoch).  ``seed=None`` keeps the
    dataset order (used for evaluation passes) and returns views into the
    dataset's arrays instead of copies.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    n = len(dataset)
    if seed is None:
        return [(dataset.inputs[start:start + batch_size], dataset.labels[start:start + batch_size])
                for start in range(0, n, batch_size)]
    order = np.random.default_rng([seed, epoch]).permutation(n)
    out = []
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        out.append((dataset.inputs[idx], dataset.labels[idx]))
    return out
