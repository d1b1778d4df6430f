"""Analytic training-memory estimator for backprop, decoupled-local, and
periodically guided schedules.

Nothing here allocates model tensors: output shapes and parameter counts
come from ``network.unit_plan`` and ``network.head_plan``, the shape-only
walks the backbone and the auxiliary heads are built from, so the estimator
and the model cannot disagree on either.
Backprop must hold every unit's output activation plus optimizer state for
all parameters at once; decoupled-local training holds one block at a time
(its activations, its head, the handed-off boundary input, and its optimizer
state).  A guided schedule time-averages the two at the guided-epoch
fraction.  ``eval_rows`` sizes evaluation batches so that a no-grad pass
stays within the local step's activation figure.

Absolute bytes ignore framework overheads; comparisons are meaningful as
ratios.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError
from .network import Partition, ResNetSpec, aux_head_spec, head_plan, unit_plan
from .training import Schedule, guided_epoch_count


@dataclass
class MemProfile:
    unit_activations: list      # per unit, for the given batch size
    unit_params: list
    head_activations: list      # per block 1..J-1
    head_params: list
    bytes_per_element: int = 4


def activation_sizes(spec, part: Partition, batch: int, aux_policy="aux_adapt") -> MemProfile:
    """Element counts per unit output and per aux head, plus parameter counts."""
    if batch < 1:
        raise ConfigError(f"batch must be >= 1, got {batch}")
    plans = unit_plan(spec)
    part.validate(len(plans))
    head_acts, head_params = [], []
    for j in range(1, part.J):
        boundary = plans[part.ranges[j - 1][1] - 1]
        head = aux_head_spec(aux_policy, boundary.out_width, spec.num_classes)
        layers = [p for _, p in head_plan(head, boundary)]
        head_acts.append(sum(p.out_elements(batch) for p in layers))
        head_params.append(sum(p.params for p in layers))
    return MemProfile([u.out_elements(batch) for u in plans],
                      [u.params for u in plans], head_acts, head_params)


# ---------------------------------------------------------------------------
# estimates

# optimizer state factor: parameters + gradients + velocity
_OPT_FACTOR = 3


def estimate_bp(profile: MemProfile) -> int:
    """All unit activations resident at once, heads unused, full optimizer state."""
    total = sum(profile.unit_activations) + _OPT_FACTOR * sum(profile.unit_params)
    return total * profile.bytes_per_element


def _block_elements(profile: MemProfile, part: Partition) -> list:
    """(activation elements, parameter count) per block under
    one-block-at-a-time training; see ``block_footprints``."""
    part.validate(len(profile.unit_activations))
    # blocks 1..J-1 carry a head; block J's classifier is in-block
    n_heads = len(profile.head_activations)
    if n_heads != part.J - 1:
        raise ConfigError(f"profile has {n_heads} heads for J={part.J}, expected {part.J - 1}")
    out = []
    for j in range(1, part.J + 1):
        start, end = part.ranges[j - 1]
        acts = sum(profile.unit_activations[start:end])
        params = sum(profile.unit_params[start:end])
        if j < part.J:
            acts += profile.head_activations[j - 1]
            params += profile.head_params[j - 1]
        if j >= 2:
            acts += profile.unit_activations[part.ranges[j - 2][1] - 1]
        out.append((acts, params))
    return out


def block_footprints(profile: MemProfile, part: Partition) -> list:
    """Per-block byte counts under one-block-at-a-time training.

    Block j holds its own unit activations, its aux head's activations, the
    detached boundary input handed over from block j-1 (none for block 1,
    whose input is the data batch itself), and optimizer state for its
    parameters and its head's.
    """
    return [(acts + _OPT_FACTOR * params) * profile.bytes_per_element
            for acts, params in _block_elements(profile, part)]


def estimate_local(profile: MemProfile, part: Partition) -> int:
    """Peak over blocks: only one decoupled block is loaded at a time."""
    return max(block_footprints(profile, part))


def estimate_schedule_avg(profile: MemProfile, part: Partition, schedule: Schedule) -> float:
    """Time-average: guided epochs cost like bp, local epochs like decoupled."""
    schedule.validate()
    f_guided = guided_epoch_count(schedule) / schedule.E
    return f_guided * estimate_bp(profile) + (1.0 - f_guided) * estimate_local(profile, part)


def _input_elements(spec) -> int:
    """Elements per sample of the backbone's input."""
    if isinstance(spec, ResNetSpec):
        return spec.in_channels * spec.input_hw * spec.input_hw
    return spec.in_features


def eval_rows(spec, part: Partition, batch: int, aux_policy="aux_adapt") -> int:
    """Rows per evaluation batch, never fewer than ``batch``.

    The widest no-grad step holds one unit's input and output.  This is the
    most rows for which that step fits in the local training step's
    activation elements at ``batch`` (``block_footprints`` without optimizer
    state), so evaluation holds no more activation than a local step does.
    """
    plans = unit_plan(spec)
    inputs = [_input_elements(spec)] + [u.out_elements(1) for u in plans[:-1]]
    widest = max(i + u.out_elements(1) for i, u in zip(inputs, plans))
    profile = activation_sizes(spec, part, batch, aux_policy)
    local = max(acts for acts, _ in _block_elements(profile, part))
    return max(batch, local // widest)


@dataclass
class MemEstimate:
    peak_bp: int
    peak_local: int
    schedule_avg: float
    per_block: list = field(default_factory=list)


def estimate(spec, part: Partition, batch: int, schedule: Schedule,
             aux_policy="aux_adapt") -> MemEstimate:
    profile = activation_sizes(spec, part, batch, aux_policy)
    return MemEstimate(
        peak_bp=estimate_bp(profile),
        peak_local=estimate_local(profile, part),
        schedule_avg=estimate_schedule_avg(profile, part, schedule),
        per_block=block_footprints(profile, part),
    )
