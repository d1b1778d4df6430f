"""Time the local, guided, one-block and eval epochs of two ``pgl`` sources in
one process, pair by pair: a change against its parent, with both sides under
the same swings of the host.

``--base DIR`` and ``--change DIR`` each name a directory holding a ``pgl``
package, or a checkout whose ``src`` holds one; ``--change`` defaults to
this checkout's ``src``.  Each package is imported under a module name of
its own.  Both sides build a ResNet (``aux_adapt`` heads) from seed 0, split
into J blocks and as one block, and run the same two batches of random
images.  A local epoch and a guided epoch run on the J-block model, a
one-block epoch (``guided_epoch`` at J=1, a ``bp`` step) on the one-block
model and an eval epoch (``evaluate``) on the J-block model.  After one
untimed round of every mode, each pair runs every mode once on each side,
base first in even pairs and change first in odd ones, and times it in CPU
seconds (``time.process_time``).  Per mode it prints each side's median, the
median of the pairs' change/base ratios and the pairs the change ran
faster.  Run from anywhere:

    python3 tools/ab_epochs.py --base DIR [--change DIR] [--depth 20 --hw 16 --J 4 --batch 64 --pairs 12]

A copy of the parent commit to pass as ``--base`` can be made with
``git archive <commit> | tar -x -C DIR``.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

MODES = ("local", "guided", "one-block", "eval")
LR = 0.05


def load(path: Path, name: str):
    """The ``pgl`` package under ``path`` (or ``path/src``), imported as
    module ``name``; its relative imports load its own modules."""
    pkg = path / "pgl" if (path / "pgl").is_dir() else path / "src" / "pgl"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                      submodule_search_locations=[str(pkg)])
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def epochs(pgl, args, batches) -> dict:
    """{mode: a function running one epoch of it} on models ``pgl`` builds."""
    spec = pgl.ResNetSpec(depth=args.depth, num_classes=10, input_hw=args.hw)
    model, one = (pgl.DecoupledModel(spec, J, "aux_adapt", seed=0) for J in (args.J, 1))
    opt, one_opt = pgl.NesterovSGD(), pgl.NesterovSGD()
    return {"local": lambda: pgl.local_epoch(model, batches, opt, LR),
            "guided": lambda: pgl.guided_epoch(model, batches, opt, LR),
            "one-block": lambda: pgl.guided_epoch(one, batches, one_opt, LR),
            "eval": lambda: pgl.evaluate(model, batches)}


def cpu_seconds(run) -> float:
    gc.collect()
    start = time.process_time()
    run()
    return time.process_time() - start


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="the parent's src or checkout")
    parser.add_argument("--change", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    parser.add_argument("--depth", type=int, default=20)
    parser.add_argument("--hw", type=int, default=16, help="image height and width")
    parser.add_argument("--J", type=int, default=4, help="blocks of the local, guided and eval model")
    parser.add_argument("--batch", type=int, default=64)
    parser.add_argument("--pairs", type=int, default=12)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(0)
    batches = [(rng.normal(size=(args.batch, 3, args.hw, args.hw)).astype(np.float32),
                rng.integers(0, 10, size=args.batch)) for _ in range(2)]
    sides = [epochs(load(path.resolve(), name), args, batches)
             for path, name in ((args.base, "_ab_base_pgl"), (args.change, "_ab_change_pgl"))]
    for side in sides:
        for mode in MODES:
            side[mode]()
    times = {mode: ([], []) for mode in MODES}
    for pair in range(args.pairs):
        for mode in MODES:
            for s in (0, 1) if pair % 2 == 0 else (1, 0):
                times[mode][s].append(cpu_seconds(sides[s][mode]))
    for mode in MODES:
        base, change = times[mode]
        ratios = [c / b for b, c in zip(base, change)]
        better = sum(c < b for b, c in zip(base, change))
        print(f"{mode:<9}  base {statistics.median(base) * 1e3:8.1f} ms  "
              f"change {statistics.median(change) * 1e3:8.1f} ms  "
              f"change/base x{statistics.median(ratios):.3f}  better {better}/{args.pairs}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
