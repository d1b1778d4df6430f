"""A walk through the tensor core: building expressions, backpropagating
through the graph they form, how long that graph keeps its arrays, and
checking a gradient against finite differences.

Run:  python3 demos/01_autodiff_tape.py
"""

import weakref

import numpy as np

import pgl.layers as L
import pgl.tensor as T
from pgl.errors import ContractError
from pgl.tensor import Tensor, backward, create

print("== tensors and their graph ==")
x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
y = (x * x).sum()                           # y = sum(x^2)
grads = backward(y)
print(f"x = {x.data},  y = sum(x*x) = {y.item()}")
print(f"dy/dx = {grads[x.node_id].data}   (expected 2x = [2, 4, 6])")

print("\n== detach severs the gradient path ==")
x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
y = (x.detach() * x).sum()                  # one factor is frozen
grads = backward(y)
print(f"d sum(stop(x) * x) / dx = {grads[x.node_id].data}   (expected x itself)")

print("\n== gradient accumulation over reuse ==")
x = Tensor([2.0], requires_grad=True)
y = (x * x + x).sum()                       # d/dx = 2x + 1
print(f"d(x^2 + x)/dx at x=2: {backward(y)[x.node_id].data}   (expected [5])")

print("\n== the graph keeps only what backward reads ==")
x = Tensor(np.ones((4, 3)), requires_grad=True)
hidden = T.relu(x * 2.0)                    # relu's backward reads a 1-byte mask, not its output
probe = weakref.ref(hidden.data)
y = hidden.sum()                            # sum's backward reads only a shape
del hidden
print(f"relu output freed while the loss lives: {probe() is None}")
backward(y)                                 # releases the graph as it walks it
try:
    backward(y)
except ContractError as e:
    print(f"a second backward is refused: {e}")

print("\n== a linear layer's gradient vs central finite differences ==")
rng = np.random.default_rng(0)
a64 = rng.uniform(-1, 1, size=(3, 4))       # float64 for a sharp oracle
w64 = rng.uniform(-1, 1, size=(4, 2))
b64 = rng.uniform(-1, 1, size=2)


def loss_fn(a_data):
    with T.no_grad():
        return float(T.reduce_sum(L.linear_forward(Tensor(a_data), Tensor(w64), Tensor(b64))).item())


a = Tensor(a64, requires_grad=True)
analytic = backward(T.reduce_sum(L.linear_forward(a, Tensor(w64), Tensor(b64))))[a.node_id].data

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
