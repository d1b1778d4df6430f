"""Backbone construction, block partitioning, and auxiliary classifier heads.

A backbone is a flat list of units (stem / residual blocks / dense layers /
terminal classifier).  ``unit_plan`` walks the spec once, as classes,
constructor arguments and output shapes.  ``partition`` groups the units into
J contiguous blocks, merging the stem into block 1 and the classifier into
block J while J leaves room for that.  Every block except the last gets an
auxiliary head; block J's own classifier plays that role.  ``head_plan`` is
the one walk of a head's layers.  ``block_plans`` is the one walk of blocks:
per block, the shape it takes in, its units and its head, all before anything
is built.  ``DecoupledModel`` builds that list, the memory estimator sums it
and the run configuration validates it.  Gradient isolation between blocks
comes from detaching boundary activations, never from parameter bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import layers as L
from . import tensor as T
from .errors import ConfigError
from .tensor import Tensor


# ---------------------------------------------------------------------------
# network specs

def _check_positive(spec, *names):
    for name in names:
        if getattr(spec, name) < 1:
            raise ConfigError(f"{name} must be >= 1, got {getattr(spec, name)}")


@dataclass
class MlpSpec:
    widths: list
    num_classes: int
    in_features: int = 2

    def validate(self):
        if not self.widths or any(w < 1 for w in self.widths):
            raise ConfigError("mlp widths must be a non-empty list of positive ints")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        _check_positive(self, "in_features")

    @property
    def in_shape(self) -> tuple:
        return (self.in_features,)


STAGE_CHANNELS = (16, 32, 64)    # the CIFAR ResNet widths of the three stages


@dataclass
class ResNetSpec:
    depth: int
    num_classes: int
    in_channels: int = 3
    input_hw: int = 32

    def validate(self):
        if self.depth < 8 or (self.depth - 2) % 6 != 0:
            raise ConfigError(f"resnet depth must be 6n+2, got {self.depth}")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        _check_positive(self, "in_channels", "input_hw")

    @property
    def units_per_stage(self) -> int:
        return (self.depth - 2) // 6

    @property
    def in_shape(self) -> tuple:
        return (self.in_channels, self.input_hw, self.input_hw)


# ---------------------------------------------------------------------------
# units
#
# Each unit class states its kind, whether ``partition`` may split at it, and
# its parameter count as a function of its constructor arguments, so a
# ``UnitPlan`` can answer shape and size questions without building it.

class StemUnit:
    """3x3 conv (in->16) + bn + relu; not partitionable (merges into block 1
    unless J exceeds the partitionable units)."""

    kind = "conv"
    partitionable = False

    def __init__(self, in_ch: int, out_ch: int, rng):
        self.conv = L.Conv2d(in_ch, out_ch, 3, rng, stride=1, pad=1)
        self.bn = L.BatchNorm2d(out_ch)

    @staticmethod
    def param_count(in_ch: int, out_ch: int) -> int:
        return in_ch * out_ch * 9 + 2 * out_ch

    def forward(self, x, train=True):
        return T.relu(self.bn.forward(self.conv.forward(x, train), train))

    def named_params(self, prefix):
        yield from self.conv.named_params(f"{prefix}.conv")
        yield from self.bn.named_params(f"{prefix}.bn")

    def named_bns(self, prefix):
        yield from self.bn.named_bns(f"{prefix}.bn")


class ResidualUnit:
    kind = "conv"
    partitionable = True

    def __init__(self, in_ch: int, out_ch: int, stride: int, rng):
        self.block = L.ResidualBasic(in_ch, out_ch, stride, rng)

    @staticmethod
    def param_count(in_ch: int, out_ch: int, stride: int) -> int:
        p = in_ch * out_ch * 9 + 2 * out_ch      # conv1 + bn1
        p += out_ch * out_ch * 9 + 2 * out_ch    # conv2 + bn2
        if in_ch != out_ch or stride != 1:
            p += in_ch * out_ch + 2 * out_ch     # 1x1 projection + bn
        return p

    def forward(self, x, train=True):
        return self.block.forward(x, train)

    def named_params(self, prefix):
        yield from self.block.named_params(prefix)

    def named_bns(self, prefix):
        yield from self.block.named_bns(prefix)


class _FcUnit:
    """A unit around one linear layer ``fc``; subclasses choose the forward."""

    kind = "dense"

    def __init__(self, d_in: int, d_out: int, rng):
        self.fc = L.Linear(d_in, d_out, rng)

    @staticmethod
    def param_count(d_in: int, d_out: int) -> int:
        return L.Linear.param_count(d_in, d_out)

    def named_params(self, prefix):
        yield from self.fc.named_params(f"{prefix}.fc")

    def named_bns(self, prefix):
        return iter(())


class PoolClassifierUnit(_FcUnit):
    """Global average pool + linear; terminal unit of conv backbones."""

    partitionable = False

    def forward(self, x, train=True):
        return self.fc.forward(L.global_avg_pool(x), train)


class DenseUnit(_FcUnit):
    """Linear + relu; the hidden unit of MLP backbones."""

    partitionable = True

    def forward(self, x, train=True):
        return T.relu(self.fc.forward(x, train))


class LinearClassifierUnit(_FcUnit):
    partitionable = False

    def forward(self, x, train=True):
        return self.fc.forward(x, train)


@dataclass(frozen=True)
class UnitPlan:
    """One backbone unit or head layer before it is built: its class, its
    constructor arguments (all but the rng) and its output shape."""
    cls: type
    args: tuple
    out_shape: tuple          # (C, H, W) or (width,)

    @property
    def kind(self) -> str:
        return self.cls.kind

    @property
    def partitionable(self) -> bool:
        return self.cls.partitionable

    @property
    def out_width(self) -> int:
        return self.out_shape[0]

    @property
    def params(self) -> int:
        return self.cls.param_count(*self.args)

    def out_elements(self, batch: int) -> int:
        return batch * math.prod(self.out_shape)


def unit_plan(spec) -> list:
    """The backbone's units in order, as shapes and constructor arguments
    only; allocates nothing.  ``block_plans`` groups exactly this list."""
    spec.validate()
    if isinstance(spec, ResNetSpec):
        hw = spec.input_hw
        in_ch = STAGE_CHANNELS[0]
        plans = [UnitPlan(StemUnit, (spec.in_channels, in_ch), (in_ch, hw, hw))]
        for stage, ch in enumerate(STAGE_CHANNELS):
            for i in range(spec.units_per_stage):
                stride = 2 if (stage > 0 and i == 0) else 1
                hw = L.conv_out_size(hw, 3, stride, 1)
                plans.append(UnitPlan(ResidualUnit, (in_ch, ch, stride), (ch, hw, hw)))
                in_ch = ch
        plans.append(UnitPlan(PoolClassifierUnit, (in_ch, spec.num_classes),
                              (spec.num_classes,)))
    elif isinstance(spec, MlpSpec):
        d = spec.in_features
        plans = []
        for w in spec.widths:
            plans.append(UnitPlan(DenseUnit, (d, w), (w,)))
            d = w
        plans.append(UnitPlan(LinearClassifierUnit, (d, spec.num_classes),
                              (spec.num_classes,)))
    else:
        raise ConfigError(f"unknown network spec {type(spec).__name__}")
    return plans


# ---------------------------------------------------------------------------
# partitioning

@dataclass
class Partition:
    """J contiguous index ranges covering a unit list exactly once."""
    J: int
    ranges: list          # [(start, end)) over the full unit list

    def validate(self, n_units: int):
        if self.J < 1 or len(self.ranges) != self.J:
            raise ConfigError(f"partition must have J >= 1 ranges, got {self.ranges}")
        pos = 0
        for start, end in self.ranges:
            if start != pos or end <= start:
                raise ConfigError(f"partition ranges must be contiguous and non-empty: {self.ranges}")
            pos = end
        if pos != n_units:
            raise ConfigError(f"partition covers {pos} of {n_units} units")


def partition(units, J: int) -> Partition:
    """Split ``units`` into J contiguous near-equal blocks, 1 <= J <= len(units).

    While J is at most the number of partitionable units, only those are
    dealt out: the leading non-partitionable prefix (stem) merges into block
    1 and the trailing classifier into block J.  Above that count every unit
    counts, so the stem and the classifier may stand as blocks of their own
    (a 16-way split of the 17-unit depth-32 backbone leaves the classifier
    alone as block 16).  Remainder units go to the earliest blocks."""
    n = len(units)
    if not 1 <= J <= n:
        raise ConfigError(f"blocks={J} out of range: the backbone has {n} units")
    prefix = 0
    while prefix < n and not units[prefix].partitionable:
        prefix += 1
    suffix = 0
    while suffix < n - prefix and not units[n - 1 - suffix].partitionable:
        suffix += 1
    if J > n - prefix - suffix:
        prefix = suffix = 0
    base, rem = divmod(n - prefix - suffix, J)
    sizes = [base + 1 if j < rem else base for j in range(J)]
    ranges = []
    pos = 0
    for j, size in enumerate(sizes):
        start = pos
        end = pos + size
        if j == 0:
            end += prefix
        if j == J - 1:
            end += suffix
        ranges.append((start, end))
        pos = end
    p = Partition(J, ranges)
    p.validate(n)
    return p


# ---------------------------------------------------------------------------
# auxiliary heads

@dataclass
class AuxHeadSpec:
    n_conv: int
    n_fc: int
    in_width: int
    num_classes: int

    def validate(self):
        if not (0 <= self.n_conv <= 2):
            raise ConfigError(f"aux head n_conv must be 0..2, got {self.n_conv}")
        if not (1 <= self.n_fc <= 3):
            raise ConfigError(f"aux head n_fc must be 1..3, got {self.n_fc}")


AUX_HIDDEN = 128                 # width of a head's inner fc layers
_AUX_ADAPT = {16: (2, 2), 32: (1, 3), 64: (1, 2)}


def aux_adapt_policy(input_channels: int, num_classes: int = 10) -> AuxHeadSpec:
    """Channel-adaptive head sizing: wider heads on earlier, narrower blocks.

    16 -> 2 convs + 2 fc, 32 -> 1 conv + 3 fc, 64 -> 1 conv + 2 fc.  Any
    other width falls back to the 1 conv + 2 fc shape.
    """
    n_conv, n_fc = _AUX_ADAPT.get(int(input_channels), (1, 2))
    return AuxHeadSpec(n_conv, n_fc, int(input_channels), num_classes)


class HeadConv(L.Conv2d):
    """A head's channel-preserving 3x3 stride-2 conv."""

    def __init__(self, ch: int, rng):
        super().__init__(ch, ch, 3, rng, stride=2, pad=1)

    @staticmethod
    def param_count(ch: int) -> int:
        return ch * ch * 9


class HeadPool:
    """Global average pooling, between a conv head's convs and its fc stack."""

    def __init__(self, rng):
        pass

    @staticmethod
    def param_count() -> int:
        return 0

    def forward(self, x, train=True):
        return L.global_avg_pool(x)

    def named_params(self, prefix):
        return iter(())


def head_plan(spec: AuxHeadSpec, boundary: UnitPlan) -> list:
    """The head ``spec`` puts on ``boundary``, as (name, UnitPlan) pairs in
    build order; allocates nothing.  ``block_plans`` places it and
    ``AuxHead`` builds it.

    Conv boundaries: n_conv ``HeadConv`` layers, then global average pooling.
    Dense boundaries replace each conv with a width-preserving linear layer.
    The fc stack follows: n_fc - 1 linear layers of width ``AUX_HIDDEN``, then
    one to num_classes.  The names ("conv{i}", "pool", "fc{i}") prefix the
    layers' parameter names inside the head.
    """
    spec.validate()
    c = spec.in_width
    conv = boundary.kind == "conv"
    shape = (c,) + boundary.out_shape[1:]
    plan = []
    for i in range(spec.n_conv):
        if conv:
            shape = (c,) + tuple(L.conv_out_size(s, 3, 2, 1) for s in shape[1:])
            plan.append((f"conv{i}", UnitPlan(HeadConv, (c,), shape)))
        else:
            plan.append((f"conv{i}", UnitPlan(L.Linear, (c, c), shape)))
    if conv:
        plan.append(("pool", UnitPlan(HeadPool, (), (c,))))
    d = c
    for i in range(spec.n_fc):
        out = AUX_HIDDEN if i < spec.n_fc - 1 else spec.num_classes
        plan.append((f"fc{i}", UnitPlan(L.Linear, (d, out), (out,))))
        d = out
    return plan


class AuxHead:
    """Small classifier on a block boundary, built layer by layer from a
    ``head_plan``; relu follows every layer but the pool and the last."""

    def __init__(self, plan, rng):
        self.layers = [(name, p.cls(*p.args, rng)) for name, p in plan]

    def forward(self, x: Tensor, train: bool = True) -> Tensor:
        h = x
        for name, layer in self.layers[:-1]:
            h = layer.forward(h, train)
            if name != "pool":
                h = T.relu(h)
        return self.layers[-1][1].forward(h, train)

    def named_params(self, prefix):
        for name, layer in self.layers:
            yield from layer.named_params(f"{prefix}.{name}")


# ---------------------------------------------------------------------------
# block plans

@dataclass(frozen=True)
class BlockPlan:
    """One block before it is built: the shape it takes in, its backbone
    units and the (name, UnitPlan) pairs of its aux head, empty for block J."""
    in_shape: tuple
    units: tuple
    head: tuple


def block_plans(spec, part: Partition, aux_policy) -> list:
    """The one walk of blocks: a ``BlockPlan`` per block of ``part`` over
    ``unit_plan(spec)``; allocates nothing.

    Block 1 takes in the spec's input shape and block j > 1 the output of
    block j-1's last unit.  Blocks 1..J-1 carry the ``head_plan`` that
    ``aux_policy`` puts on their last unit: "aux_adapt" (``aux_adapt_policy``
    of its width) or a fixed (n_conv, n_fc) pair at every boundary."""
    units = unit_plan(spec)
    part.validate(len(units))
    blocks, in_shape = [], spec.in_shape
    for j, (start, end) in enumerate(part.ranges, 1):
        boundary = units[end - 1]
        head = ()
        if j < part.J:
            width = boundary.out_width
            head_spec = (aux_adapt_policy(width, spec.num_classes) if aux_policy == "aux_adapt"
                         else AuxHeadSpec(*aux_policy, width, spec.num_classes))
            head = tuple(head_plan(head_spec, boundary))
        blocks.append(BlockPlan(in_shape, tuple(units[start:end]), head))
        in_shape = boundary.out_shape
    return blocks


# ---------------------------------------------------------------------------
# the decoupled model

class DecoupledModel:
    """Backbone blocks plus auxiliary heads with stop-gradient boundaries,
    built from ``block_plans``."""

    def __init__(self, spec, J: int, aux_policy, seed: int):
        rng = np.random.default_rng(seed)
        self.plan = block_plans(spec, partition(unit_plan(spec), J), aux_policy)
        # every backbone unit draws from rng before any head does: the draw
        # order fixes the initial values that the oracle digests pin
        self.blocks = [[u.cls(*u.args, rng) for u in b.units] for b in self.plan]
        self.heads = [AuxHead(b.head, rng) for b in self.plan[:-1]]

    @property
    def J(self) -> int:
        return len(self.blocks)

    def forward_global(self, x: Tensor, train: bool = True):
        """One uninterrupted differentiable chain through all blocks.

        Returns (logits, [X_1 .. X_J]) where the boundary activations are
        detached copies for auxiliary-head training.
        """
        h = x
        boundary = []
        for units in self.blocks:
            for unit in units:
                h = unit.forward(h, train)
            boundary.append(h.detach())
        return h, boundary

    def forward_local(self, x: Tensor, j: int, train: bool = True):
        """Forward block j on a detached input; returns (X_j, logits_j).

        The caller must hand in a detached tensor (one with no parents) so
        that the local loss reaches only this block's parameters and its
        head.  For j == J the terminal classifier inside the block provides
        the logits.
        """
        if not 1 <= j <= self.J:
            raise ConfigError(f"block index {j} out of [1, {self.J}]")
        h = x
        for unit in self.blocks[j - 1]:
            h = unit.forward(h, train)
        logits = self.heads[j - 1].forward(h, train) if j < self.J else h
        return h, logits

    def aux_logits(self, x_j: Tensor, j: int, train: bool = True) -> Tensor:
        """Head j applied to a (detached) boundary activation."""
        return self.heads[j - 1].forward(x_j, train)

    # -- parameter bookkeeping ------------------------------------------------

    def block_named_params(self, j: int):
        for i, unit in enumerate(self.blocks[j - 1]):
            yield from unit.named_params(f"block{j}.unit{i}")

    def head_named_params(self, j: int):
        yield from self.heads[j - 1].named_params(f"aux{j}")

    def named_params(self):
        for j in range(1, self.J + 1):
            yield from self.block_named_params(j)
        for j in range(1, self.J):
            yield from self.head_named_params(j)

    def named_bns(self):
        for j, units in enumerate(self.blocks, 1):
            for i, unit in enumerate(units):
                yield from unit.named_bns(f"block{j}.unit{i}")

    def param_count(self) -> int:
        return sum(p.size for _, p in self.named_params())
