"""Analytic training-memory comparison: the step peak of end-to-end training
against that of one-block-at-a-time training, on the depth-32 residual
network at batch 1024.

End-to-end training must hold every activation for the backward pass;
decoupled training holds one block, its head, and the handed-off boundary.
A guided epoch steps like end-to-end training, so a pgl run peaks at the
end-to-end figure and only a dgl run at the one-block figure.

Run:  python3 demos/04_memory_footprint.py
"""

from pgl.memory import estimate_bp, estimate_local
from pgl.network import ResNetSpec, block_plans, partition, unit_plan

spec = ResNetSpec(depth=32, num_classes=10)
plans = unit_plan(spec)
BATCH = 1024
MB = 1e6

print(f"depth-32 backbone: {len(plans)} units, "
      f"{sum(u.params for u in plans) / 1e6:.2f}M backbone parameters")

print(f"\n{'J':>3} {'peak end-to-end':>16} {'peak one-block':>15} {'ratio':>6}")
for J in (2, 4, 8, 16):
    blocks = block_plans(spec, partition(plans, J), "aux_adapt")
    bp = estimate_bp(blocks, BATCH)
    local = estimate_local(blocks, BATCH)
    print(f"{J:>3} {bp / MB:>13.0f} MB {local / MB:>12.0f} MB {local / bp:>6.2f}")
