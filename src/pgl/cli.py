"""Command-line surface: train / eval / gradcheck / memest / ablate.

``ablate`` runs ``training.panel`` over a (P, Q) grid of ``pgl`` cells and a
``dgl`` cell at the same seeds; with two or more seeds its summary adds each
(P, Q) cell's ``training.paired`` ``pgl - dgl``.  ``train`` and ``ablate``
make their output directory only once every run has finished.

``PGL_THREADS`` caps BLAS kernel parallelism (default 1 for bit-deterministic
runs); it must take effect before numpy spins up its thread pools, hence the
environment setup ahead of any numeric import.
"""

import os

_threads = os.environ.get("PGL_THREADS", "1")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, _threads)

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import data as D
from . import memory as M
from . import training as TR
from .checkpoint import apply_checkpoint, load_checkpoint, save_checkpoint
from .config import parse_config
from .errors import ConfigError, PglError
from .gradcheck import run_suite
from .network import partition, unit_plan
from .training import evaluate


def _fmt(v) -> str:
    return "" if v is None else f"{v:.8g}"


def write_metrics(records, J: int, path):
    """Fixed schema: epoch,mode,lr,global_loss,local_loss_1..J,train_acc,test_acc.

    Absent values stay empty, never zero-filled."""
    header = ["epoch", "mode", "lr", "global_loss"]
    header += [f"local_loss_{j}" for j in range(1, J + 1)]
    header += ["train_acc", "test_acc"]
    lines = [",".join(header)]
    for r in records:
        row = [str(r.epoch), r.mode, _fmt(r.lr), _fmt(r.global_loss)]
        row += [_fmt(v) for v in r.local_losses]
        row += [_fmt(r.train_acc), _fmt(r.test_acc)]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_train(args) -> int:
    config = parse_config(args.config)
    if args.seed is not None:
        config = config.with_overrides(seed=args.seed)
    if args.out is not None:
        config = config.with_overrides(out_dir=args.out)
    config.validate()
    records, model, opt = TR.train(config)
    # made only now, so a run that fails leaves no output directory behind
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_metrics(records, config.blocks, out_dir / "metrics.csv")
    save_checkpoint(model, opt, config.epochs, out_dir / "final.ckpt")
    print(f"final test accuracy: {records[-1].test_acc:.4f}")
    print(f"wrote {out_dir / 'metrics.csv'} and {out_dir / 'final.ckpt'}")
    return 0


def cmd_eval(args) -> int:
    config = parse_config(args.config)
    model = config.build_model()
    apply_checkpoint(load_checkpoint(args.ckpt), model)
    _, test_set = config.build_datasets()
    rows = M.eval_rows(config.plan(), config.batch_size)
    acc = evaluate(model, D.batches(test_set, rows, None, 0))
    print(f"test accuracy: {acc:.4f}")
    return 0


def cmd_gradcheck(args) -> int:
    start = time.time()
    results = run_suite(seed=args.seed)
    failed = 0
    for name, err, tol, ok in results:
        status = "ok" if ok else "FAIL"
        print(f"{name:20s} max rel err {err:.3e}  (tol {tol:.0e})  {status}")
        failed += not ok
    print(f"{len(results)} ops checked in {time.time() - start:.1f}s, {failed} failed")
    return 1 if failed else 0


def cmd_memest(args) -> int:
    config = parse_config(args.config)
    part = partition(unit_plan(config.network), config.blocks)
    est = M.estimate(config.network, part, config.batch_size, aux_policy=config.aux)
    print(f"peak_bp       {est.peak_bp:>14d} bytes")
    print(f"peak_local    {est.peak_local:>14d} bytes  (local/bp = {est.peak_local / est.peak_bp:.3f})")
    for j, b in enumerate(est.per_block, 1):
        print(f"  block {j:>2d}    {b:>14d} bytes")
    if args.csv:
        lines = ["quantity,bytes", f"peak_bp,{est.peak_bp}", f"peak_local,{est.peak_local}"]
        lines += [f"block_{j},{b}" for j, b in enumerate(est.per_block, 1)]
        Path(args.csv).write_text("\n".join(lines) + "\n")
        print(f"wrote {args.csv}")
    return 0


def _int_list(text: str, what: str):
    items = [s for s in text.split(",") if s.strip()]
    if not items:
        raise ConfigError(f"{what} list must not be empty")
    try:
        return [int(s) for s in items]
    except ValueError:
        raise ConfigError(f"{what} list must hold integers, got {text!r}") from None


def cmd_ablate(args) -> int:
    config = parse_config(args.config)
    p_list = _int_list(args.P, "P")
    q_list = _int_list(args.Q, "Q")
    if args.seeds < 1:
        raise ConfigError("need at least one seed")
    seeds = [config.seed + i for i in range(args.seeds)]
    cells = {("pgl", p, q): dict(regime="pgl", P=p, Q=q) for p in p_list for q in q_list}
    dgl = ("dgl", "", "")
    cells[dgl] = dict(regime="dgl")
    accs = {cell: [] for cell in cells}
    for (regime, p, q), s, acc in TR.panel(config, cells, seeds):
        accs[regime, p, q].append(acc)
        print(f"pgl P={p} Q={q} seed={s}: {acc:.4f}" if regime == "pgl" else f"dgl seed={s}: {acc:.4f}")

    # made only now, so a run that fails leaves no output directory behind
    csv_path = Path(args.out if args.out is not None else config.out_dir) / "ablation.csv"
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["regime,P,Q,seed,test_acc"]
    lines += [f"{r},{p},{q},{s},{a:.6f}" for (r, p, q), row in accs.items() for s, a in zip(seeds, row)]
    csv_path.write_text("\n".join(lines) + "\n")

    print("\nmean test accuracy over seeds:")
    print("          " + "".join(f"P={p:<8d}" for p in p_list))
    for q in q_list:
        print(f"  Q={q:<4d}  " + "".join(f"{float(np.mean(accs['pgl', p, q])) * 100:<10.2f}" for p in p_list))
    print(f"  DGL     {float(np.mean(accs[dgl])) * 100:.2f}")
    for (regime, p, q), row in accs.items():
        if regime == "pgl" and len(seeds) >= 2:
            mean, se, t = TR.paired(row, accs[dgl])
            print(f"  P={p} Q={q}  pgl - dgl {mean:+.2f} ± {se:.2f} pt, paired (one-sided 95 % t = {t:.3f})")
    print(f"wrote {csv_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pgl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run one training configuration")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference checks for every op")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("memest", help="analytic training-memory estimates")
    p.add_argument("--config", required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_memest)

    p = sub.add_parser("ablate", help="grid over guidance period and duration")
    p.add_argument("--config", required=True)
    p.add_argument("--P", required=True, help="comma-separated periods, e.g. 5,10,15,20")
    p.add_argument("--Q", required=True, help="comma-separated durations, e.g. 1,2,3")
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PglError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
