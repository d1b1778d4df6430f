"""Analytic training-memory estimator: the step peaks of backprop and of
decoupled-local training.

Nothing here allocates model tensors: every figure is a sum over
``network.block_plans``, the walk of blocks the model is built from, so the
estimator and the model cannot disagree on a block's units, its input or its
head.
Backprop must hold every unit's output activation plus optimizer state for
all parameters at once; decoupled-local training holds one block at a time
(its activations, its head, the handed-off boundary input, and its optimizer
state).  ``estimate_bp`` counts every parameter's gradient as alive at once,
as the one-block ``bp`` step holds them.  Every figure is the peak of one
step, what a device must hold.  A guided step re-forwards one block at a
time from its stored input (``training.guided_epoch``), so it holds what a
local step does plus the stored inputs of the blocks below, which
``estimate_local`` does not count: a ``pgl`` run peaks near
``estimate_local``'s figure while its blocks are few, and above it by
those inputs when they are many.
``eval_rows`` sizes evaluation batches so that a no-grad pass stays within
the local step's activation figure.

Absolute bytes ignore framework overheads; comparisons are meaningful as
ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .network import Partition, block_plans, unit_plan  # noqa: F401  (unit_plan re-exported)

# optimizer state factor: parameters + gradients + velocity
_OPT_FACTOR = 3
_BYTES_PER_ELEMENT = 4          # float32


def _sizes(plans, batch: int) -> tuple:
    """(output activation elements at ``batch``, parameter count) of ``plans``."""
    if batch < 1:
        raise ConfigError(f"batch must be >= 1, got {batch}")
    return sum(p.out_elements(batch) for p in plans), sum(p.params for p in plans)


def estimate_bp(blocks, batch: int) -> int:
    """All unit activations resident at once, heads unused, full optimizer state."""
    acts, params = _sizes([u for b in blocks for u in b.units], batch)
    return (acts + _OPT_FACTOR * params) * _BYTES_PER_ELEMENT


def _block_elements(blocks, batch: int) -> list:
    """(activation elements, parameter count) per block under
    one-block-at-a-time training; see ``block_footprints``."""
    out = []
    for j, b in enumerate(blocks):
        acts, params = _sizes(b.units + tuple(p for _, p in b.head), batch)
        if j > 0:               # block 1's input is the data batch itself
            acts += batch * math.prod(b.in_shape)
        out.append((acts, params))
    return out


def block_footprints(blocks, batch: int) -> list:
    """Per-block byte counts under one-block-at-a-time training.

    Block j holds its own unit activations, its aux head's activations, the
    boundary input handed over from block j-1, block j-1's output array
    itself (none for block 1, whose input is the data batch), and optimizer
    state for its parameters and its head's.
    """
    return [(acts + _OPT_FACTOR * params) * _BYTES_PER_ELEMENT
            for acts, params in _block_elements(blocks, batch)]


def estimate_local(blocks, batch: int) -> int:
    """Peak over blocks: only one decoupled block is loaded at a time."""
    return max(block_footprints(blocks, batch))


def eval_rows(blocks, batch: int) -> int:
    """Rows per evaluation batch, never fewer than ``batch``.

    The widest no-grad step holds one unit's input and output.  This is the
    most rows for which that step fits in the local training step's
    activation elements at ``batch`` (``block_footprints`` without optimizer
    state), so evaluation holds no more activation than a local step does.
    """
    units = [u for b in blocks for u in b.units]
    inputs = [blocks[0].in_shape] + [u.out_shape for u in units[:-1]]
    widest = max(math.prod(i) + u.out_elements(1) for i, u in zip(inputs, units))
    local = max(acts for acts, _ in _block_elements(blocks, batch))
    return max(batch, local // widest)


@dataclass
class MemEstimate:
    peak_bp: int
    peak_local: int
    per_block: list = field(default_factory=list)


def estimate(spec, part: Partition, batch: int, schedule=None,
             aux_policy="aux_adapt") -> MemEstimate:
    """Step peaks of ``spec`` split by ``part`` at ``batch``.

    No figure reads ``schedule``: a step's peak does not depend on how
    often it runs.  It stays in 4th place only because the benchmark's
    ``analytic_ratio`` passes five positional arguments; the next change to
    the benchmark drops it there, and then here.
    """
    blocks = block_plans(spec, part, aux_policy)
    return MemEstimate(
        peak_bp=estimate_bp(blocks, batch),
        peak_local=estimate_local(blocks, batch),
        per_block=block_footprints(blocks, batch),
    )
