"""Dense tensors with dynamic reverse-mode differentiation.

Every operation that touches a gradient-tracking tensor stores its tracked
(parent, grad_fn) pairs on its output, so the graph is owned by the tensors
themselves and lives exactly as long as a Python reference reaches it.
``backward(loss)`` walks the graph reachable from the loss and returns a
mapping from leaf node ids to gradient tensors.  Detaching a tensor cuts it
from its producers; nothing else has to be cleared between steps.

Training runs in float32.  The same ops preserve float64 inputs, which is what
the finite-difference gradient checks use.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, DomainError, ShapeError

_node_ids = itertools.count()
_grad_enabled = True


@contextmanager
def no_grad():
    """Build no graph inside the block (evaluation passes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A rank-N float array, optionally tracked for differentiation.

    ``parents`` holds the (parent tensor, grad_fn) pairs of the op that made
    this tensor; it is empty for leaves and for untracked tensors.
    """

    __slots__ = ("data", "requires_grad", "node_id", "parents")

    def __init__(self, data, requires_grad=False):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.node_id = next(_node_ids)
        self.parents = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of {self.data.size} elements")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Value-equal copy with no parents and requires_grad=False."""
        return Tensor(self.data.copy(), requires_grad=False)

    def __repr__(self):
        return f"Tensor(shape={list(self.shape)}, requires_grad={self.requires_grad})"

    # Arithmetic sugar; scalars are allowed on either side.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(_lift(other, self.dtype), self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_lift(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(_lift(other, self.dtype), self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def relu(self):
        return relu(self)

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def sqrt(self):
        return sqrt(self)

    def sum(self, axes=None, keepdims=False):
        return reduce_sum(self, axes, keepdims)

    def mean(self, axes=None, keepdims=False):
        return reduce_mean(self, axes, keepdims)

    def max(self, axes=None):
        return reduce_max(self, axes)

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)


def _lift(x, dtype):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def apply_op(data, parents):
    """Build a tensor from a primitive's forward result.

    ``parents`` is a list of (tensor, grad_fn) pairs where grad_fn maps the
    output gradient to that parent's gradient contribution.  Parents that do
    not require gradients are dropped, so they never join the graph.
    """
    out = Tensor(data)
    if _grad_enabled:
        tracked = [(p, fn) for p, fn in parents if p.requires_grad]
        if tracked:
            out.requires_grad = True
            out.parents = tracked
    return out


def backward(loss: Tensor) -> dict:
    """Reverse-accumulate gradients of a scalar loss over its graph.

    Nodes are processed in descending ``node_id``.  An op's output is always
    created after its inputs, so every node is reached after all its
    consumers, and each gradient sum adds its terms in creation order.  An
    interior gradient is dropped once it has been passed to its parents.

    Returns {node_id: gradient Tensor} for the reachable leaves only: tensors
    that require gradients and have no parents.  Unreachable parameters are
    simply absent.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward() needs a scalar loss, got shape {list(loss.shape)}")
    if not loss.requires_grad:
        return {}                     # no differentiable lineage at all
    nodes = {loss.node_id: loss}
    stack = [loss]
    while stack:
        for p, _ in stack.pop().parents:
            if p.node_id not in nodes:
                nodes[p.node_id] = p
                stack.append(p)
    grads = {loss.node_id: np.ones_like(loss.data)}
    leaves = {}
    for nid in sorted(nodes, reverse=True):
        node = nodes[nid]
        g = grads.pop(nid)
        if not node.parents:
            leaves[nid] = Tensor(g)
        for p, fn in node.parents:
            contrib = fn(g)
            pid = p.node_id
            grads[pid] = grads[pid] + contrib if pid in grads else contrib
    return leaves


# ---------------------------------------------------------------------------
# creation

_INIT_RULES = ("zeros", "ones", "constant", "uniform", "kaiming_normal")


def _as_rng(rng):
    if rng is None or isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def create(shape, init="zeros", rng=None, requires_grad=False) -> Tensor:
    """Allocate a float32 tensor under a named init rule.

    ``init`` is a rule name or a (name, arg) pair: ("constant", c),
    ("uniform", a) for U(-a, a), ("kaiming_normal", fan_in).  kaiming_normal
    uses std = sqrt(2 / fan_in); fan_in defaults to prod(shape[1:]) for rank
    >= 2.  Random rules are deterministic given ``rng`` (seed or Generator).
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) == 0 or any(s < 1 for s in shape):
        raise ShapeError(f"invalid tensor shape {list(shape)}: all dims must be >= 1")
    if isinstance(init, str):
        name, arg = init, None
    else:
        name, arg = init
    if name not in _INIT_RULES:
        raise ValueError(f"unknown init rule {name!r}")
    rng = _as_rng(rng)

    if name == "zeros":
        data = np.zeros(shape, dtype=np.float32)
    elif name == "ones":
        data = np.ones(shape, dtype=np.float32)
    elif name == "constant":
        data = np.full(shape, float(arg), dtype=np.float32)
    elif name == "uniform":
        data = rng.uniform(-float(arg), float(arg), size=shape).astype(np.float32)
    else:  # kaiming_normal
        fan_in = arg if arg is not None else int(np.prod(shape[1:])) if len(shape) > 1 else shape[0]
        std = np.sqrt(2.0 / fan_in)
        data = (rng.standard_normal(shape) * std).astype(np.float32)
    return Tensor(data, requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# primitives

def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to ``shape``."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _check_broadcast(a, b, opname):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{opname}: shapes {list(a.shape)} and {list(b.shape)} do not broadcast") from None


def add(a: Tensor, b) -> Tensor:
    b = _lift(b, a.dtype)
    _check_broadcast(a, b, "add")
    return apply_op(a.data + b.data, [
        (a, lambda g: _unbroadcast(g, a.shape)),
        (b, lambda g: _unbroadcast(g, b.shape)),
    ])


def sub(a: Tensor, b) -> Tensor:
    b = _lift(b, a.dtype)
    _check_broadcast(a, b, "sub")
    return apply_op(a.data - b.data, [
        (a, lambda g: _unbroadcast(g, a.shape)),
        (b, lambda g: _unbroadcast(-g, b.shape)),
    ])


def mul(a: Tensor, b) -> Tensor:
    b = _lift(b, a.dtype)
    _check_broadcast(a, b, "mul")
    ad, bd = a.data, b.data
    return apply_op(ad * bd, [
        (a, lambda g: _unbroadcast(g * bd, a.shape)),
        (b, lambda g: _unbroadcast(g * ad, b.shape)),
    ])


def div(a: Tensor, b) -> Tensor:
    b = _lift(b, a.dtype)
    _check_broadcast(a, b, "div")
    ad, bd = a.data, b.data
    return apply_op(ad / bd, [
        (a, lambda g: _unbroadcast(g / bd, a.shape)),
        (b, lambda g: _unbroadcast(-g * ad / (bd * bd), b.shape)),
    ])


def neg(a: Tensor) -> Tensor:
    return apply_op(-a.data, [(a, lambda g: -g)])


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0  # subgradient at exactly 0 (and at NaN) is 0; NaN passes through
    return apply_op(np.maximum(a.data, 0, dtype=a.dtype), [(a, lambda g: g * mask)])


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return apply_op(out, [(a, lambda g: g * out)])


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise DomainError("log: all entries must be > 0")
    ad = a.data
    return apply_op(np.log(ad), [(a, lambda g: g / ad)])


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.data < 0):
        raise DomainError("sqrt: all entries must be >= 0")
    out = np.sqrt(a.data)
    return apply_op(out, [(a, lambda g: g * 0.5 / out)])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: expects rank-2 operands, got {list(a.shape)} x {list(b.shape)}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims disagree, {list(a.shape)} x {list(b.shape)}")
    ad, bd = a.data, b.data
    return apply_op(ad @ bd, [
        (a, lambda g: g @ bd.T),
        (b, lambda g: ad.T @ g),
    ])


def _norm_axes(axes, ndim):
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    axes = tuple(int(ax) for ax in axes)
    for ax in axes:
        if ax < -ndim or ax >= ndim:
            raise ShapeError(f"reduce: axis {ax} out of range for rank {ndim}")
    return tuple(ax % ndim for ax in axes)


def reduce_sum(a: Tensor, axes=None, keepdims=False) -> Tensor:
    axes = _norm_axes(axes, a.data.ndim)
    out = a.data.sum(axis=axes, keepdims=keepdims)

    def grad(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return np.broadcast_to(g, a.shape).copy()

    return apply_op(out, [(a, grad)])


def reduce_mean(a: Tensor, axes=None, keepdims=False) -> Tensor:
    axes = _norm_axes(axes, a.data.ndim)
    count = int(np.prod([a.shape[ax] for ax in axes])) if axes else 1
    out = a.data.mean(axis=axes, keepdims=keepdims)

    def grad(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return np.broadcast_to(g, a.shape) / count

    return apply_op(out, [(a, grad)])


def reduce_max(a: Tensor, axes=None) -> Tensor:
    """Max over all elements (axes=None) or one axis; gradient goes to the
    first maximum only."""
    if axes is None:
        flat = a.data.reshape(-1)
        idx = int(np.argmax(flat))
        out = flat[idx]

        def grad(g):
            full = np.zeros_like(flat)
            full[idx] = np.asarray(g).reshape(())
            return full.reshape(a.shape)

        return apply_op(np.asarray(out), [(a, grad)])

    (axis,) = _norm_axes(axes if isinstance(axes, int) else tuple(axes), a.data.ndim)
    out = a.data.max(axis=axis)
    idx = np.argmax(a.data, axis=axis)

    def grad(g):
        full = np.zeros_like(a.data)
        np.put_along_axis(full, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis)
        return full

    return apply_op(out, [(a, grad)])


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if -1 in shape:
        known = int(np.prod([s for s in shape if s != -1]))
        if shape.count(-1) > 1 or a.data.size % known:
            raise ShapeError(f"reshape: cannot infer {list(shape)} from {list(a.shape)}")
        shape = tuple(a.data.size // known if s == -1 else s for s in shape)
    if int(np.prod(shape)) != a.data.size:
        raise ShapeError(f"reshape: {list(a.shape)} has {a.data.size} elements, target {list(shape)}")
    return apply_op(a.data.reshape(shape), [(a, lambda g: g.reshape(a.shape))])


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(int(ax) for ax in axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise ShapeError(f"transpose: axes {list(axes)} are not a permutation of rank {a.data.ndim}")
    inv = np.argsort(axes)
    return apply_op(a.data.transpose(axes), [(a, lambda g: g.transpose(inv))])


def pad(a: Tensor, pad_width) -> Tensor:
    """Zero-pad with per-axis (before, after) amounts; gradient slices back."""
    pad_width = [(int(lo), int(hi)) for lo, hi in pad_width]
    if len(pad_width) != a.data.ndim:
        raise ShapeError(f"pad: {len(pad_width)} pad pairs for rank {a.data.ndim}")
    if any(lo < 0 or hi < 0 for lo, hi in pad_width):
        raise ShapeError("pad: amounts must be >= 0")
    slices = tuple(slice(lo, lo + s) for (lo, _), s in zip(pad_width, a.shape))
    return apply_op(np.pad(a.data, pad_width), [(a, lambda g: g[slices])])


def slice_(a: Tensor, ranges) -> Tensor:
    """Take per-axis [start, stop) ranges; gradient scatters into zeros."""
    ranges = [(int(lo), int(hi)) for lo, hi in ranges]
    if len(ranges) != a.data.ndim:
        raise ShapeError(f"slice: {len(ranges)} ranges for rank {a.data.ndim}")
    for (lo, hi), s in zip(ranges, a.shape):
        if not (0 <= lo <= hi <= s):
            raise ShapeError(f"slice: range [{lo},{hi}) out of bounds for dim {s}")
    sl = tuple(slice(lo, hi) for lo, hi in ranges)

    def grad(g):
        full = np.zeros_like(a.data)
        full[sl] = g
        return full

    return apply_op(a.data[sl].copy(), [(a, grad)])


def detach(a: Tensor) -> Tensor:
    return a.detach()
