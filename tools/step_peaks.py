"""Print the step-peak table of ROADMAP State: for each net and block count J,
the ``tracemalloc`` peak in MiB of one local step, of one guided step, of
the checkpointed ``bp`` step (the guided step's re-forward at J without its
heads, ``guided_epoch(update_aux=False)``) and of the one-block (J=1,
``bp``) step, then local over ``bp`` measured and as ``memest``
(``memory.estimate``) puts it.

Each model is built with seed 0 and takes one local and one guided step on
its one batch first, so every velocity exists; then each step is measured
alone, with the garbage collector off, as ``tests/test_memory.py``'s
``TestMeasuredPeak._peak`` measures it.  The peaks leave out everything
allocated before the step (parameters, velocities, heads), and they are
deterministic.  Run from anywhere:

    python3 tools/step_peaks.py [--batch 64] [--hw 16] [DEPTH:J ...]

The default rows are ResNet-20 at J=2 and 4 and ResNet-32 at J=2, 4, 8 and
16, on batches of 64 3x16x16 images.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from pgl.memory import estimate  # noqa: E402
from pgl.network import DecoupledModel, ResNetSpec, partition, unit_plan  # noqa: E402
from pgl.training import NesterovSGD, guided_epoch, local_epoch  # noqa: E402

ROWS = ("20:2", "20:4", "32:2", "32:4", "32:8", "32:16")
MIB = 2 ** 20


def peak(step) -> int:
    """The ``tracemalloc`` peak of ``step()`` in bytes."""
    gc.collect()
    gc.disable()
    try:
        tracemalloc.start()
        try:
            step()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        gc.enable()


def step_peaks(spec, J: int, batch: int) -> tuple:
    """(local, guided, checkpointed ``bp``) step peaks in bytes of ``spec``
    split into J blocks."""
    model = DecoupledModel(spec, J, "aux_adapt", seed=0)
    opt = NesterovSGD()
    rng = np.random.default_rng(0)
    data = [(rng.normal(size=(batch, *spec.in_shape)).astype(np.float32),
             rng.integers(0, spec.num_classes, size=batch))]
    local_epoch(model, data, opt, 0.1)
    guided_epoch(model, data, opt, 0.1)
    return (peak(lambda: local_epoch(model, data, opt, 0.1)),
            peak(lambda: guided_epoch(model, data, opt, 0.1)),
            peak(lambda: guided_epoch(model, data, opt, 0.1, update_aux=False)))


def table(rows, batch: int, hw: int) -> list:
    """The table's lines, one per "DEPTH:J" row of ``rows``."""
    lines = ["| net | J | local | guided | checkpointed `bp` | `bp` (J=1) | local/`bp` measured "
             "| local/`bp` `memest` |",
             "|---|---|---|---|---|---|---|---|"]
    bp = {}
    for row in rows:
        depth, J = (int(s) for s in row.split(":"))
        spec = ResNetSpec(depth=depth, num_classes=10, input_hw=hw)
        if depth not in bp:
            bp[depth] = step_peaks(spec, 1, batch)[1]
        local, guided, checkpointed = step_peaks(spec, J, batch)
        est = estimate(spec, partition(unit_plan(spec), J), batch)
        lines.append(f"| ResNet-{depth} | {J} | {local / MIB:.2f} | {guided / MIB:.2f} | "
                     f"{checkpointed / MIB:.2f} | {bp[depth] / MIB:.2f} | {local / bp[depth]:.2f} | "
                     f"{est.peak_local / est.peak_bp:.2f} |")
    return lines


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rows", nargs="*", default=list(ROWS), metavar="DEPTH:J")
    parser.add_argument("--batch", type=int, default=64)
    parser.add_argument("--hw", type=int, default=16, help="image height and width")
    args = parser.parse_args(argv)
    print("\n".join(table(args.rows, args.batch, args.hw)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
