"""Building decoupled networks: backbone units, block partitions, auxiliary
heads, and the stop-gradient boundary between blocks.

Run:  python3 demos/02_blocks_and_heads.py
"""

import numpy as np

from pgl.layers import softmax_cross_entropy
from pgl.network import (DecoupledModel, MlpSpec, ResNetSpec, aux_adapt_policy, block_plans,
                         partition, unit_plan)
from pgl.tensor import Tensor, backward

print("== a depth-32 residual backbone ==")
spec = ResNetSpec(depth=32, num_classes=10)
units = unit_plan(spec)
print(f"{len(units)} units: stem + {sum(u.partitionable for u in units)} residual + classifier")

part = partition(units, 4)
blocks = block_plans(spec, part, "aux_adapt")
residual = [sum(u.partitionable for u in b.units) for b in blocks]
print(f"J=4 partition ranges: {part.ranges}  (residual units per block: {residual})")

print("\n== channel-adaptive auxiliary heads ==")
for ch in (16, 32, 64):
    spec = aux_adapt_policy(ch)
    print(f"  {ch:>2} channels -> {spec.n_conv} conv + {spec.n_fc} fc")

print("\n== gradient isolation across a block boundary ==")
model = DecoupledModel(MlpSpec(widths=[16] * 4, num_classes=3), J=2, aux_policy="aux_adapt", seed=0)
x = Tensor(np.random.default_rng(0).normal(size=(8, 2)).astype(np.float32))
y = np.random.default_rng(1).integers(0, 3, size=8)
print(f"parameter groups, listed once when the model is built: {[len(g) for g in model.block_params]} "
      f"per block, {[len(g) for g in model.head_params]} per head; each steps as one flat array of "
      f"{[g.data.size for g in model.groups()]} floats")

_, logits_1 = model.forward_local(x, 1, train=True)
grads = backward(softmax_cross_entropy(logits_1, y))

own = [name for name, p in model.block_params[0] if p.node_id in grads]
own += [name for name, p in model.head_params[0] if p.node_id in grads]
leaked = [name for name, p in model.block_params[1] if p.node_id in grads]
print(f"block-1 local loss reaches {len(own)} of its own parameters, {len(leaked)} of block 2's")

x_1 = model.forward_block(x, 1, train=True)                    # block 1, tracked
leaf = Tensor(x_1.data, requires_grad=True)                     # block 2's input: a leaf over X_1's array
ggrads = backward(softmax_cross_entropy(model.forward_block(leaf, 2, train=True), y))
leaf_grad = ggrads.pop(leaf.node_id)                            # the walk stops at the leaf
ggrads.update(backward(x_1, leaf_grad.data))                    # block 1, seeded with that leaf's gradient
head_hit = [name for name, p in model.head_params[0] if p.node_id in ggrads]
print(f"global loss reaches {len(head_hit)} head parameters (heads sit off the global path)")
print(f"block 2 runs on a requires-grad leaf over block 1's output; the leaf's gradient, "
      f"{list(leaf_grad.shape)}, seeds the walk from block 1's output"
      " (a local step hands block 2 an untracked tensor over the same array)")

print("\n== eval-mode equivalence, block-chained vs end-to-end ==")
logits_g = model.forward_global(x, train=False)
h = x
for j in (1, 2):
    h, logits_l = model.forward_local(h, j, train=False)
    h = Tensor(h.data)                        # the next block's input: this block's array, untracked
print(f"bit-identical logits: {np.array_equal(logits_g.data, logits_l.data)}")
