"""Bit-exact binary checkpoints.

Layout (all integers little-endian):

    magic "PGLC" | u32 version=1 | u32 tensor count
    per tensor:  u32 name length | UTF-8 name | u32 rank | u64 dims... | f32 data
    trailer:     u32 CRC32 of every preceding byte

Tensors are written in insertion order, so save(load(save(x))) is
byte-identical.  A checkpoint carries the model parameters, batchnorm running
stats, optimizer velocities ("opt.velocity.<name>"), and the epoch counter
("meta.epoch").  A ``bp`` run's model is one block with no heads, so its
parameters are named "block1.unit<i>..." over the whole backbone and it
holds no "aux" tensor; it loads only into the model its config builds.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import CheckpointError

MAGIC = b"PGLC"
VERSION = 1


def write_tensors(tensors: dict, path):
    """Write an ordered {name: ndarray} mapping in the PGLC format.

    The bytes go to a temp file beside ``path``, are flushed to disk, and
    then replace ``path`` in one rename, so ``path`` never holds a partial
    file: an error mid-write removes the temp file and leaves any previous
    ``path`` as it was."""
    parts = [MAGIC, struct.pack("<II", VERSION, len(tensors))]
    for name, arr in tensors.items():
        arr = np.asarray(arr, dtype=np.float32)
        nb = name.encode("utf-8")
        parts.append(struct.pack("<I", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        parts.append(arr.astype("<f4").tobytes(order="C"))
    payload = b"".join(parts)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(payload)
            f.write(struct.pack("<I", zlib.crc32(payload)))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_tensors(path) -> dict:
    """Read a PGLC file back into an ordered {name: ndarray} mapping; a
    name stored twice raises ``CheckpointError`` naming it."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 16 or blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a PGLC checkpoint")
    payload, (crc,) = blob[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) != crc:
        raise CheckpointError(f"{path}: CRC mismatch, file is corrupt")
    version, count = struct.unpack_from("<II", payload, 4)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    pos = 12
    tensors = {}
    try:
        for _ in range(count):
            (nlen,) = struct.unpack_from("<I", payload, pos)
            pos += 4
            name = payload[pos:pos + nlen].decode("utf-8")
            pos += nlen
            (rank,) = struct.unpack_from("<I", payload, pos)
            pos += 4
            dims = struct.unpack_from(f"<{rank}Q", payload, pos)
            pos += 8 * rank
            size = int(np.prod(dims)) if rank else 1
            data = np.frombuffer(payload, dtype="<f4", count=size, offset=pos)
            if data.size != size:
                raise struct.error("short read")
            pos += 4 * size
            if name in tensors:
                raise CheckpointError(f"{path}: tensor {name} is stored twice")
            tensors[name] = data.reshape(dims).copy()
    except CheckpointError:
        raise
    except (struct.error, ValueError):
        raise CheckpointError(f"{path}: truncated checkpoint") from None
    if pos != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - pos} trailing bytes after tensors")
    return tensors


class Checkpoint:
    """Decoded checkpoint: named tensors plus the trainer bookkeeping."""

    def __init__(self, tensors: dict):
        self.tensors = tensors

    @property
    def epoch(self) -> int:
        return int(_stored(self, "meta.epoch", (1,))[0])


def save_checkpoint(model, opt, epoch: int, path):
    """Serialize model params, batchnorm stats, velocities, and the epoch.

    Velocities go in local-step order (``model.groups``: block j's, then
    head j's, for j = 1..J), skipping the groups never stepped; that is the
    order a run creates them in, since its first epoch is local (a ``bp``
    run steps one group)."""
    tensors = {}
    for name, p in model.named_params():
        tensors[name] = p.data
    for prefix, bn in model.named_bns():
        tensors[f"{prefix}.running_mean"] = bn.state.running_mean
        tensors[f"{prefix}.running_var"] = bn.state.running_var
        tensors[f"{prefix}.batches_tracked"] = np.asarray([bn.state.batches_tracked], dtype=np.float32)
    for group in model.groups():
        if group.name in opt.velocity:
            tensors.update((f"opt.velocity.{name}", v) for name, v in group.views(opt.velocity[group.name]))
    tensors["meta.epoch"] = np.asarray([epoch], dtype=np.float32)
    write_tensors(tensors, path)


def load_checkpoint(path) -> Checkpoint:
    return Checkpoint(read_tensors(path))


def _stored(ckpt: Checkpoint, name: str, shape) -> np.ndarray:
    if name not in ckpt.tensors:
        raise CheckpointError(f"checkpoint is missing {name}")
    arr = ckpt.tensors[name]
    if arr.shape != shape:
        raise CheckpointError(f"{name}: checkpoint shape {list(arr.shape)} != model {list(shape)}")
    return arr


def apply_checkpoint(ckpt: Checkpoint, model, opt=None):
    """Copy checkpoint values into a freshly built model (and optimizer).

    The checkpoint must hold exactly what the model reads: its parameters,
    its batchnorm stats, velocities of its parameters and ``meta.epoch``.
    A tensor missing, left over, or shaped unlike the model's raises
    ``CheckpointError`` naming it, and so do velocities for only part of a
    parameter group, naming the group, whether or not ``opt`` is given.
    Parameters and velocities are copied into the arrays the model's groups
    and the optimizer step, never rebound.
    """
    params = dict(model.named_params())
    bns = list(model.named_bns())
    _stored(ckpt, "meta.epoch", (1,))
    known = set(params) | {"meta.epoch"}
    known.update(f"{prefix}.{stat}" for prefix, _ in bns
                 for stat in ("running_mean", "running_var", "batches_tracked"))
    velocity_prefix = "opt.velocity."
    velocities = {}
    for name in ckpt.tensors:
        if name.startswith(velocity_prefix):
            param = name[len(velocity_prefix):]
            if param not in params:
                raise CheckpointError(f"{name}: the model has no parameter {param}")
            velocities[param] = _stored(ckpt, name, params[param].shape)
        elif name not in known:
            raise CheckpointError(f"checkpoint holds {name}, which the model does not read")
    stepped = []
    for group in model.groups():
        held = sum(name in velocities for name, _ in group)
        if held and held < len(group):
            raise CheckpointError(f"checkpoint holds velocities for {held} of the {len(group)} "
                                  f"parameters of group {group.name}")
        if held:
            stepped.append(group)
    for name, p in params.items():
        p.data[...] = _stored(ckpt, name, p.shape)
    for prefix, bn in bns:
        st = bn.state
        st.running_mean = _stored(ckpt, f"{prefix}.running_mean", st.running_mean.shape).copy()
        st.running_var = _stored(ckpt, f"{prefix}.running_var", st.running_var.shape).copy()
        st.batches_tracked = int(_stored(ckpt, f"{prefix}.batches_tracked", (1,))[0])
    if opt is not None:
        for group in stepped:
            for name, v in group.views(opt.velocity.setdefault(group.name, np.zeros_like(group.data))):
                v[...] = velocities[name]
