"""Backbone construction, block partitioning, and auxiliary classifier heads.

A backbone is a flat list of units (stem / residual blocks / dense layers /
terminal classifier).  Each unit, like each aux head, is a
``layers.LayerList`` of named layers, and a unit class states whether
``partition`` may split at it.  ``unit_plan`` walks the spec once, as
classes, constructor arguments and output shapes, so a ``UnitPlan`` answers
shape and size questions without building anything.  ``partition`` groups
the units into J contiguous blocks, merging the stem into block 1 and the
classifier into block J while J leaves room for that.  Every block except
the last gets an auxiliary head; block J's own classifier plays that role.
``head_plan`` is the one walk of a head's layers.  ``block_plans`` is the one
walk of blocks: per block, the shape it takes in, its units and its head, all
before anything is built.  ``DecoupledModel`` builds that list, the memory
estimator sums it and the run configuration validates it.  Once built, the
model walks its parameters once into fixed ``ParamGroup``s, one per block
and one per head, each stored as one flat array, which every optimizer step
reads.  ``forward_block`` runs one block; the local and global forwards
are built on it.  Gradient isolation between blocks comes from
the boundary activations, never from parameter bookkeeping: a training
step runs a block on a tensor of its own over the previous block's output
array (untracked in a local step, a requires-grad leaf in a guided step's
re-forward, whose gradient seeds the previous block's walk), so no walk
crosses a boundary.  A ``bp`` run builds the one-block model, which has
no boundary and no head.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

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

class StemUnit(L.LayerList):
    """3x3 conv (in->16) + bn + relu; not partitionable (merges into block 1
    unless J exceeds the partitionable units)."""

    partitionable = False

    @staticmethod
    def layout(in_ch: int, out_ch: int) -> list:
        return [("conv", L.Conv2d, (in_ch, out_ch, 3, 1, 1)), ("bn", L.BatchNorm2d, (out_ch,))]

    def forward(self, x, train=True):
        return self.bn.forward(self.conv.forward(x, train), train, relu=True)


class ResidualUnit(L.LayerList):
    """conv3x3(stride s) -> bn -> relu -> conv3x3 -> bn, plus skip, then relu.

    When channels or stride change, the skip path gets a 1x1 stride-matched
    projection ``proj`` followed by batch norm ``proj_bn``; otherwise both
    are None and the skip is the input itself.  The tail, bn2, the skip add
    and the relu, is one batchnorm node, so the unit's output is a
    ``tensor.Remade`` that its consumers rebuild: it keeps no output.
    """

    partitionable = True
    proj = proj_bn = None

    @staticmethod
    def layout(in_ch: int, out_ch: int, stride: int) -> list:
        layers = [("conv1", L.Conv2d, (in_ch, out_ch, 3, stride, 1)), ("bn1", L.BatchNorm2d, (out_ch,)),
                  ("conv2", L.Conv2d, (out_ch, out_ch, 3, 1, 1)), ("bn2", L.BatchNorm2d, (out_ch,))]
        if in_ch != out_ch or stride != 1:
            layers += [("proj", L.Conv2d, (in_ch, out_ch, 1, stride, 0)),
                       ("proj_bn", L.BatchNorm2d, (out_ch,))]
        return layers

    def forward(self, x, train=True):
        # bn1's output is not bound to a name: it dies once conv2 has run
        h = self.conv2.forward(self.bn1.forward(self.conv1.forward(x, train), train, relu=True), train)
        skip = x if self.proj is None else self.proj_bn.forward(self.proj.forward(x, train), train)
        return self.bn2.forward(h, train, skip=skip)


class _FcUnit(L.LayerList):
    """A unit around one linear layer ``fc``; subclasses choose the forward."""

    @staticmethod
    def layout(d_in: int, d_out: int) -> list:
        return [("fc", L.Linear, (d_in, d_out))]


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


class HeadPool(L.LayerList):
    """Global average pooling, between a conv head's convs and its fc stack."""

    @staticmethod
    def layout() -> list:
        return []

    def forward(self, x, train=True):
        return L.global_avg_pool(x)


def head_plan(spec: AuxHeadSpec, boundary: UnitPlan) -> list:
    """The head ``spec`` puts on ``boundary``, as (name, UnitPlan) pairs in
    build order; allocates nothing.  ``block_plans`` places it and
    ``AuxHead`` builds it.

    Conv boundaries, whose output is (C, H, W): n_conv channel-preserving
    3x3 stride-2 convs, then global average pooling.
    Dense boundaries replace each conv with a width-preserving linear layer.
    The fc stack follows: n_fc - 1 linear layers of width ``AUX_HIDDEN``, then
    one to num_classes.  The names ("conv{i}", "pool", "fc{i}") prefix the
    layers' parameter names inside the head.
    """
    spec.validate()
    c = spec.in_width
    conv = len(boundary.out_shape) == 3
    shape = (c,) + boundary.out_shape[1:]
    plan = []
    for i in range(spec.n_conv):
        if conv:
            shape = (c,) + tuple(L.conv_out_size(s, 3, 2, 1) for s in shape[1:])
            plan.append((f"conv{i}", UnitPlan(L.Conv2d, (c, c, 3, 2, 1), shape)))
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


class AuxHead(L.LayerList):
    """Small classifier on a block boundary, built layer by layer from a
    ``head_plan``; relu follows every layer but the pool and the last."""

    @staticmethod
    def layout(plan) -> list:
        return [(name, p.cls, p.args) for name, p in plan]

    def forward(self, x: Tensor, train: bool = True) -> Tensor:
        h = x
        for name, layer in self.layers[:-1]:
            h = layer.forward(h, train)
            if name != "pool":
                h = T.relu(h)
        return self.layers[-1][1].forward(h, train)


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

class ParamGroup:
    """Named parameters stored as views into one float32 array, ``data``.

    Building the group copies each parameter's values into its slice of
    ``data``, in order, and points the parameter at a view of that slice;
    the optimizer then steps ``data`` as one array.  Iterating a group yields
    its (name, Param) pairs.  A parameter must be written in place
    (``p.data[...] = ...``): once one is rebound to another array, the
    layers no longer read its slice of ``data``, and the optimizer refuses
    to step the group.
    """

    def __init__(self, name: str, named):
        self.name = name
        self.named = list(named)
        self.data = np.concatenate([p.data.reshape(-1) for _, p in self.named], dtype=np.float32)
        ends = np.cumsum([p.size for _, p in self.named]).tolist()
        self._slices = [(n, start, end, p.shape) for (n, p), start, end in zip(self.named, [0] + ends, ends)]
        for (_, p), (_, view) in zip(self.named, self.views(self.data)):
            p.data = view

    def views(self, flat: np.ndarray) -> list:
        """(name, view) of each parameter's slice of ``flat``, an array laid
        out like ``data``, shaped as the parameter."""
        return [(name, flat[start:end].reshape(shape)) for name, start, end, shape in self._slices]

    def rebound(self):
        """The name of the first parameter whose array is no longer its view
        of ``data``, or None."""
        return next((name for name, p in self.named if p.data.base is not self.data), None)

    def __iter__(self):
        return iter(self.named)

    def __len__(self) -> int:
        return len(self.named)


class DecoupledModel:
    """Backbone blocks plus auxiliary heads with stop-gradient boundaries,
    built from ``block_plans``.  ``block_params[j-1]`` and ``head_params[j-1]``
    are block j's and head j's ``ParamGroup``s ("block{j}", "aux{j}"), walked
    once after building; the optimizer steps them, ``named_params`` chains
    them and ``groups`` lists them in local-step order."""

    def __init__(self, spec, J: int, aux_policy, seed: int):
        rng = np.random.default_rng(seed)
        self.plan = block_plans(spec, partition(unit_plan(spec), J), aux_policy)
        # every backbone unit draws from rng before any head does: the draw
        # order fixes the initial values that the oracle digests pin
        self.blocks = [[u.cls(*u.args, rng=rng) for u in b.units] for b in self.plan]
        self.heads = [AuxHead(b.head, rng=rng) for b in self.plan[:-1]]
        self.block_params = [ParamGroup(f"block{j}", (named for i, unit in enumerate(units)
                                                      for named in unit.named_params(f"block{j}.unit{i}")))
                             for j, units in enumerate(self.blocks, 1)]
        self.head_params = [ParamGroup(f"aux{j}", head.named_params(f"aux{j}"))
                            for j, head in enumerate(self.heads, 1)]

    @property
    def J(self) -> int:
        return len(self.blocks)

    def forward_block(self, x: Tensor, j: int, train: bool = True) -> Tensor:
        """Block j's units on ``x``; returns X_j (for j == J, the logits).

        A gradient stops at ``x``: a caller that wants X_{j-1}'s gradient
        hands in a requires-grad leaf over its array, and ``backward``
        files the gradient under that leaf's node id."""
        if not 1 <= j <= self.J:
            raise ConfigError(f"block index {j} out of [1, {self.J}]")
        h = x
        for unit in self.blocks[j - 1]:
            h = unit.forward(h, train)
        return h

    def forward_global(self, x: Tensor, train: bool = True) -> Tensor:
        """All blocks in order, each on the previous block's output; the
        logits.  Evaluation's forward: a guided step runs the blocks one at
        a time (``training.guided_epoch``)."""
        for j in range(1, self.J + 1):
            x = self.forward_block(x, j, train)
        return x

    def forward_local(self, x: Tensor, j: int, train: bool = True):
        """Forward block j on an untracked input; returns (X_j, logits_j).

        The caller must hand in an untracked tensor, for j > 1 one over
        block j-1's output array (``Tensor(x_prev.data)``), so that the
        local loss reaches only this block's parameters and its head.  For
        j == J the terminal classifier inside the block provides the logits.
        """
        h = self.forward_block(x, j, train)
        logits = self.heads[j - 1].forward(h, train) if j < self.J else h
        return h, logits

    def aux_logits(self, x_j: Tensor, j: int, train: bool = True) -> Tensor:
        """Head j applied to an untracked tensor over a boundary array."""
        return self.heads[j - 1].forward(x_j, train)

    # -- parameter bookkeeping ------------------------------------------------

    def named_params(self):
        return chain(*self.block_params, *self.head_params)

    def groups(self) -> list:
        """Every parameter group in local-step order: block j's, then head
        j's, for j = 1..J."""
        return [g for j, block in enumerate(self.block_params) for g in (block, *self.head_params[j:j + 1])]

    def named_bns(self):
        for j, units in enumerate(self.blocks, 1):
            for i, unit in enumerate(units):
                yield from unit.named_bns(f"block{j}.unit{i}")
