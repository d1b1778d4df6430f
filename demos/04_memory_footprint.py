"""Analytic training-memory comparison: end-to-end vs one-block-at-a-time vs
a guided schedule, on the depth-32 residual network at batch 1024.

End-to-end training must hold every activation for the backward pass;
decoupled training holds one block, its head, and the handed-off boundary.
A guided schedule time-averages the two at the guided-epoch fraction.

Run:  python3 demos/04_memory_footprint.py
"""

from pgl.memory import estimate_bp, estimate_local, estimate_schedule_avg
from pgl.network import ResNetSpec, block_plans, partition, unit_plan
from pgl.training import Schedule

spec = ResNetSpec(depth=32, num_classes=10)
plans = unit_plan(spec)
BATCH = 1024
MB = 1e6

print(f"depth-32 backbone: {len(plans)} units, "
      f"{sum(u.params for u in plans) / 1e6:.2f}M backbone parameters")

print(f"\n{'J':>3} {'peak end-to-end':>16} {'peak one-block':>15} {'ratio':>6} {'avg P=10,Q=2':>13}")
for J in (2, 4, 8, 16):
    blocks = block_plans(spec, partition(plans, J), "aux_adapt")
    bp = estimate_bp(blocks, BATCH)
    local = estimate_local(blocks, BATCH)
    avg = estimate_schedule_avg(blocks, BATCH, Schedule(E=160, P=10, Q=2, regime="pgl"))
    print(f"{J:>3} {bp / MB:>13.0f} MB {local / MB:>12.0f} MB {local / bp:>6.2f} {avg / MB:>10.0f} MB")

print("\nguided-schedule average across the (P, Q) grid (J=16, MB):")
blocks = block_plans(spec, partition(plans, 16), "aux_adapt")
header = "      " + "".join(f"P={p:<8}" for p in (5, 10, 15, 20))
print(header)
for q in (1, 2, 3):
    row = "".join(f"{estimate_schedule_avg(blocks, BATCH, Schedule(E=160, P=p, Q=q, regime='pgl')) / MB:<10.0f}"
                  for p in (5, 10, 15, 20))
    print(f"Q={q}   {row}")
print("(more frequent / longer guidance -> closer to the end-to-end footprint)")
