"""Dense tensors with dynamic reverse-mode differentiation.

A tensor in a graph carries a ``Node`` holding its creation order and the
(parent node, grad_fn) edges of the op that made it; requires-grad leaves and
tracked op outputs have one, untracked tensors none.  Nodes hold no arrays
and each grad_fn captures only what it reads, so an activation lives only
while a Python reference or a grad_fn that reads it reaches it.
``backward(out, grad)`` walks the graph reachable from ``out``, seeded with
the output gradient ``grad`` (a vector-Jacobian product; ones for a scalar
loss), releasing each node's edges once they have run, and returns a mapping
from leaf node ids to gradient tensors; walking a released graph again raises
``ContractError``.  An untracked tensor over an op's output array,
``Tensor(t.data)``, shares the array but not the graph, so a gradient stops
there; nothing else has to be cleared between steps.
``Tensor(t.data, requires_grad=True)`` is the requires-grad kind, a leaf
whose gradient the walk returns: a block re-forwarded from its stored input
runs on one.

The one primitive here is ``relu``, the activation of the dense units and
the aux heads; it keeps its output (the array the next layer reads anyway),
not a mask beside it.  The layers build their fused ops (linear, conv,
batchnorm, pooling, cross-entropy) on ``apply_op``, one graph node each.  A
relu right after a batchnorm, and a residual unit's whole tail, relu(bn(x)
+ skip), are part of the batchnorm node, which keeps no output: an op that
can rebuild its output bit for bit from what its backward keeps anyway
hands ``apply_op`` that rebuild, and its tracked output is a ``Remade``.  A
consumer keeps the rebuild, not the array, which is freed with the tensor.

Training runs in float32.  The same ops preserve float64 inputs, which is what
the finite-difference gradient checks use.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, ShapeError

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


class Node:
    """A tensor's place in the graph; holds no data.

    ``parents`` holds the (parent node, grad_fn) pairs of the op that made
    the tensor: empty for a leaf, None once ``backward`` has run them.
    """

    __slots__ = ("node_id", "parents")

    def __init__(self, parents=()):
        self.node_id = next(_node_ids)
        self.parents = parents


class Tensor:
    """A rank-N float array, optionally tracked for differentiation.

    ``node`` is the tensor's ``Node`` if it is in a graph, else None.
    """

    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.node = Node() if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @property
    def node_id(self):
        """The key of this tensor's gradient in ``backward``'s result; None
        for an untracked tensor."""
        return None if self.node is None else self.node.node_id

    @property
    def parents(self):
        return () if self.node is None else self.node.parents

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

    def __repr__(self):
        return f"Tensor(shape={list(self.shape)}, requires_grad={self.requires_grad})"


class Remade(Tensor):
    """A tracked op output that its op can rebuild from arrays the op's
    backward keeps anyway.  ``remake()`` returns an array with ``data``'s
    bytes and strides: ``data`` itself while anything still holds it, else
    a rebuild; a caller reads it and never writes it.  A consumer that needs
    the input again in its backward keeps ``remake`` instead of ``data``.
    ``keep_mask``, None unless the op ends in a relu, takes what ``remake``
    returned and keeps relu's 1-byte mask of it for the op's own backward,
    which runs right after a conv's (a conv is created right after the op
    it reads), so the op need not rebuild its output again."""

    __slots__ = ("remake", "keep_mask")


def apply_op(data, parents, remake=None, keep_mask=None):
    """Build a tensor from a primitive's forward result.

    ``parents`` is a list of (tensor, grad_fn) pairs where grad_fn maps the
    output gradient to that parent's gradient contribution.  Parents that do
    not require gradients are dropped, so they never join the graph.
    ``data`` must already be an array of the inputs' float dtype, so the
    output skips ``Tensor.__init__``'s conversion.  ``remake``, a function
    that rebuilds ``data``, makes a tracked output a ``Remade`` with that
    ``remake`` and ``keep_mask`` (see ``Remade``); an untracked one is a
    plain tensor, since no backward will read it.
    """
    tracked = [(p.node, fn) for p, fn in parents if p.node is not None] if _grad_enabled else None
    if tracked and remake is not None:
        out = object.__new__(Remade)
        out.remake, out.keep_mask = remake, keep_mask
    else:
        out = object.__new__(Tensor)
    out.data = data
    out.node = Node(tracked) if tracked else None
    return out


def backward(out: Tensor, grad=None) -> dict:
    """Reverse-accumulate the gradient ``grad`` of ``out`` over its graph.

    With ``grad`` None, ``out`` must be a scalar loss and the walk starts
    from ones.  Otherwise ``grad`` is the gradient of some downstream scalar
    with respect to ``out``; it is taken in ``out``'s dtype, must have
    ``out``'s shape (else ``ShapeError``), and is read, never written.
    Nodes are processed in descending ``node_id``.  An op's output is always
    created after its inputs, so every node is reached after all its
    consumers, and each gradient sum adds its terms in creation order.  An
    interior node's edges (with the arrays its grad_fns captured) are
    dropped once they have run, and its gradient once it has been passed to
    its parents: the node's last edge is handed it as its one reference (in
    CPython 3.11+, which moves a call's arguments into the callee), so a
    last edge that no longer needs it can free it before it allocates.  The
    walk holds neither ``out`` nor ``grad`` itself: a seed the caller does
    not keep dies with the root's edges.

    Returns {node_id: gradient Tensor} for the reachable leaves only: tensors
    that require gradients and have no parents.  Unreachable parameters are
    simply absent.  Raises ``ContractError`` if the graph reaches a node an
    earlier ``backward`` released.
    """
    if grad is None:
        if out.data.size != 1:
            raise ContractError(f"backward() needs a scalar loss, got shape {list(out.shape)}")
        grad = np.ones_like(out.data)
    else:
        grad = np.asarray(grad, dtype=out.dtype)
        if grad.shape != out.shape:
            raise ShapeError(f"backward(): seed {list(grad.shape)} != output {list(out.shape)}")
    root = out.node
    if root is None:
        return {}                     # no differentiable lineage at all
    nodes = {root.node_id: root}
    stack = [root]
    while stack:
        node = stack.pop()
        if node.parents is None:
            raise ContractError("backward() through a graph an earlier backward() released")
        for p, _ in node.parents:
            if p.node_id not in nodes:
                nodes[p.node_id] = p
                stack.append(p)
    grads = {root.node_id: grad}
    del out, grad                 # the root's gradient now lives in grads alone
    leaves = {}
    for nid in sorted(nodes, reverse=True):
        node = nodes[nid]
        if not node.parents:
            leaves[nid] = Tensor(grads.pop(nid))
            continue
        edges, node.parents = node.parents, None
        last = len(edges) - 1
        for i, (p, fn) in enumerate(edges):
            # the last edge is handed the node's gradient as its one reference
            d = fn(grads[nid] if i < last else grads.pop(nid))
            pid = p.node_id
            grads[pid] = grads[pid] + d if pid in grads else d
    return leaves


# ---------------------------------------------------------------------------
# creation

_INIT_RULES = ("zeros", "ones", "kaiming_normal")


def _as_rng(rng):
    if rng is None or isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def create(shape, init="zeros", rng=None) -> Tensor:
    """Allocate a float32 tensor under a named init rule.

    ``init`` is "zeros", "ones", "kaiming_normal" or ("kaiming_normal",
    fan_in).  kaiming_normal uses std = sqrt(2 / fan_in); fan_in defaults to
    prod(shape[1:]) for rank >= 2.  It is deterministic given ``rng`` (seed or
    Generator).
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
    else:  # kaiming_normal
        fan_in = arg if arg is not None else int(np.prod(shape[1:])) if len(shape) > 1 else shape[0]
        std = np.sqrt(2.0 / fan_in)
        data = (rng.standard_normal(shape) * std).astype(np.float32)
    return Tensor(data)


# ---------------------------------------------------------------------------
# the one primitive

def relu(a: Tensor) -> Tensor:
    """max(a, 0); NaN passes through, and the subgradient at 0 and NaN is 0.
    The activation of the dense units and the aux heads.

    The node keeps the output, which the next layer holds anyway, not a
    mask: ``out > 0`` has the values of ``a > 0``, NaN included.
    """
    out = np.maximum(a.data, 0, dtype=a.dtype)

    def grad(g):
        nonlocal out
        mask = out > 0
        out = None                    # freed before g * mask allocates
        return _masked(g, mask)

    return apply_op(out, [(a, grad)])


def _masked(g: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """relu's input gradient ``g * mask``, with its values and strides.

    After a conv the mask is NHWC memory while g, a conv's input gradient,
    is NCHW; a product over mixed orders walks short inner runs.  Copying
    the 1-byte mask to g's order first is faster and gives the same values
    and strides as g * mask, which are C order.  Batchnorm with the relu
    after it makes its mask the same way.
    """
    if g.flags.c_contiguous and not mask.flags.c_contiguous:
        mask = np.ascontiguousarray(mask)
    return g * mask
