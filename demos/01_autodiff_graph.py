"""A walk through the tensor core: building expressions, backpropagating
through the graph they form from an output gradient or a scalar loss, how
long that graph keeps its arrays, and checking a gradient against finite
differences.

Run:  python3 demos/01_autodiff_graph.py
"""

import weakref

import numpy as np

import pgl.layers as L
import pgl.tensor as T
from pgl.errors import ContractError
from pgl.tensor import Tensor, backward, create

print("== tensors and their graph ==")
x = Tensor([[1.0, 2.0]], requires_grad=True)
w = Tensor([[1.0, -2.0], [3.0, 1.0]], requires_grad=True)
b = Tensor([0.5, -1.0], requires_grad=True)
y = T.relu(L.linear_forward(x, w, b))         # relu(x @ w + b): one linear node, one relu node
print(f"y = relu(x @ w + b) = {y.data}")

print("\n== backward seeded with an output gradient ==")
seed = np.array([[2.0, 5.0]])                 # d(loss)/dy from some downstream consumer
grads = backward(y, seed)                     # the vector-Jacobian product seed^T dy/d(x, w, b)
masked = seed * (y.data > 0)                  # relu passes the seed where its input was positive
print(f"dx = {grads[x.node_id].data}   (expected masked @ w.T = {masked @ w.data.T})")
print(f"dw = {grads[w.node_id].data.tolist()}   (expected x.T @ masked = {(x.data.T @ masked).tolist()})")
print(f"db = {grads[b.node_id].data}   (expected masked = {masked[0]})")

print("\n== a scalar loss needs no seed ==")
labels = np.array([0])
loss = L.softmax_cross_entropy(T.relu(L.linear_forward(x, w, b)), labels)
grads = backward(loss)                        # seeded with ones, d(loss)/d(loss)
print(f"cross-entropy {loss.item():.4f}; d loss / db = {grads[b.node_id].data}")


def add(a, b):
    """a + b as a graph node.  A new op is one apply_op call: its output and
    a grad_fn per input, here passing the output's gradient through."""
    return T.apply_op(a.data + b.data, [(a, lambda g: g), (b, lambda g: g)])


print("\n== an untracked tensor over an array severs the gradient path; reuse accumulates ==")
x = Tensor([2.0, -1.0], requires_grad=True)
y = add(T.relu(x), Tensor(x.data))            # x's array, outside the graph: a constant
print(f"d(relu(x) + stop(x))/dx = {backward(y, np.ones(2))[x.node_id].data}   (expected [1, 0])")
x = Tensor([2.0, -1.0], requires_grad=True)
y = add(T.relu(x), x)                         # x reaches y twice; the terms add
print(f"d(relu(x) + x)/dx = {backward(y, np.ones(2))[x.node_id].data}   (expected [2, 1])")

print("\n== the graph keeps only what backward reads ==")
x = Tensor(np.ones((4, 3)), requires_grad=True)
hidden = add(x, x)                            # relu's backward reads its output, not its input
probe = weakref.ref(hidden.data)
y = T.relu(hidden)
del hidden
print(f"relu input freed while the graph lives: {probe() is None}")
backward(y, np.ones((4, 3)))                  # releases the graph as it walks it
try:
    backward(y, np.ones((4, 3)))
except ContractError as e:
    print(f"a second backward is refused: {e}")

print("\n== a linear layer's gradient vs central finite differences ==")
rng = np.random.default_rng(0)
a64 = rng.uniform(-1, 1, size=(3, 4))       # float64 for a sharp oracle
w64 = rng.uniform(-1, 1, size=(4, 2))
b64 = rng.uniform(-1, 1, size=2)
proj = rng.uniform(-1, 1, size=(3, 2))      # project the output onto a random direction


def loss_fn(a_data):
    with T.no_grad():
        return float(np.sum(L.linear_forward(Tensor(a_data), Tensor(w64), Tensor(b64)).data * proj))


a = Tensor(a64, requires_grad=True)
analytic = backward(L.linear_forward(a, Tensor(w64), Tensor(b64)), proj)[a.node_id].data

h = 1e-3
numeric = np.zeros_like(a64)
for i in range(a64.shape[0]):
    for j in range(a64.shape[1]):
        bump = np.zeros_like(a64)
        bump[i, j] = h
        numeric[i, j] = (loss_fn(a64 + bump) - loss_fn(a64 - bump)) / (2 * h)

err = np.max(np.abs(analytic - numeric))
print(f"max |analytic - numeric| = {err:.2e}   (threshold 1e-4)")

print("\n== deterministic initialization ==")
w1 = create((3, 3), "kaiming_normal", rng=7)
w2 = create((3, 3), "kaiming_normal", rng=7)
print(f"same seed twice -> bit identical: {np.array_equal(w1.data, w2.data)}")
