"""pgl benchmark: one workload per run, or every workload with ``--workload all``.

    python3 benchmarks/run.py --workload mlp-spirals --seed 0 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` wraps the public pgl functions (``spans.py``) and reports the
per-layer metrics instead.  Either way the outputs are checked, and the last
stdout line is one JSON object: correct, attempted, failed, metrics.  An
environment record, every sample and the check failures go to
``.bench_out/<workload>/result-seed<N>-trace<T>.json``; a traced run also
writes its spans to ``trace.npz`` beside it.  Metric names, units and what each per-layer
metric should move are in ``metric_map.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PIN_VARS = ("PGL_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# BLAS runs on one thread; this must happen before numpy is first imported.
for _var in PIN_VARS:
    os.environ[_var] = "1"

SETUP_REPS = 9           # set-up is repeated and its median reported
MEMORY_ESTIMATE_REPS = 5
LOSS_RTOL = 1e-3         # float32 rounding may change (fused primitives); the MLP csv digest may not


class Ledger:
    """Counts checked operations.  An operation fails if it raises or any
    check on its output fails."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def run(self, what: str, fn, check=lambda out: []):
        self.attempted += 1
        try:
            out = fn()
        except Exception as e:  # one failed operation must not stop the run
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{what}: {type(e).__name__}: {e}")
            return None
        problems = check(out)
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")
        return out

    @property
    def failed(self) -> int:
        return len(self.failures)


def fresh_pgl():
    """Import pgl from the checkout's src/, dropping any earlier import so a
    repeated set-up pays the import again."""
    import importlib
    from types import SimpleNamespace

    from spans import MODULES

    for name in [m for m in sys.modules if m == "pgl" or m.startswith("pgl.")]:
        del sys.modules[name]
    importlib.import_module("pgl.cli")
    pgl = sys.modules["pgl"]
    if Path(pgl.__file__).resolve().parent != SRC / "pgl":
        raise ImportError(f"pgl imported from {pgl.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: sys.modules[f"pgl.{m}"] for m in MODULES})


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(seed: int, rounds: int) -> dict:
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "thread_pin": {v: os.environ.get(v) for v in PIN_VARS},
            "nproc": len(os.sched_getaffinity(0)), "seed": seed, "rounds": rounds}


def median(xs):
    return statistics.median(xs) if xs else 0.0


class Bench:
    def __init__(self, args):
        from workloads import WORKLOADS

        self.args = args
        self.size = "smoke" if args.smoke else "full"
        self.wl = WORKLOADS[args.workload](OUT / args.workload / self.size, args.smoke)
        ref = json.loads(Path(args.reference).read_text()).get(args.workload, {}).get(self.size, {})
        self.ref = ref if ref.get("seed") == args.seed else {}
        self.ledger = Ledger()
        self.samples = {}        # scaled to the reference speed (clock.py)
        self.raw = {}            # the same samples as plain wall time
        self.first = {}          # first outputs of each kind; repeats must match them
        self.outputs = {"train": {}, "modes": {}}

    # -- checks ----------------------------------------------------------------

    def _close(self, got, want):
        import numpy as np

        return len(got) == len(want) and bool(np.allclose(got, want, rtol=LOSS_RTOL, atol=1e-6))

    def check_train(self, regime, run):
        from workloads import all_finite

        problems = []
        if not all_finite(run.losses):
            problems.append("non-finite loss")
        if self.first.setdefault(("train", regime), run.digest) != run.digest:
            problems.append("a repeat wrote different outputs")
        floor = None if self.args.smoke else self.wl.acc_floor
        if floor is not None and run.test_acc < floor:
            problems.append(f"test accuracy {run.test_acc:.4f} below floor {floor}")
        ref = self.ref.get("train", {}).get(regime)
        if ref is not None:
            if "metrics_csv_sha256" in ref:
                if run.csv_sha256 != ref["metrics_csv_sha256"]:
                    problems.append("metrics.csv differs from the reference digest")
            elif not self._close(run.losses, ref["losses"]):
                problems.append("losses differ from the reference")
        entry = {"losses": run.losses}
        if run.csv_sha256 is not None:
            entry = {"metrics_csv_sha256": run.csv_sha256}
        self.outputs["train"].setdefault(regime, entry)
        return problems

    def check_modes(self, mr):
        from workloads import all_finite

        problems = []
        if not all_finite(mr.losses):
            problems.append("non-finite loss")
        if self.first.setdefault("modes", mr.losses) != mr.losses:
            problems.append("a repeat gave different losses")
        ref = self.ref.get("modes")
        if ref is not None and not self._close(mr.losses, ref["losses"]):
            problems.append("losses differ from the reference")
        self.outputs["modes"] = {"losses": self.first["modes"]}
        return problems

    # -- the work --------------------------------------------------------------

    def add_sample(self, metric, seconds, scale, per=None):
        """Record a wall time both raw and scaled to the reference speed;
        ``per`` turns it into a rate."""
        for store, secs in ((self.raw, seconds), (self.samples, seconds * scale)):
            store.setdefault(metric, []).append(secs if per is None else per / secs)

    def setup(self):
        from clock import scaled

        def one():
            t0 = time.perf_counter()
            self.st = self.wl.setup(fresh_pgl(), self.args.seed)
            return time.perf_counter() - t0

        for _ in range(1 if self.args.smoke else SETUP_REPS):
            secs, scale = scaled(one)
            self.add_sample("setup_s", secs, scale)

    def memory(self):
        def check(m):
            ok = all(v > 0 for v in m["peak_bytes"].values()) and 0 < m["analytic"] < 10
            return [] if ok else [f"implausible memory figures {m}"]

        self.mem = self.ledger.run("memory pass", lambda: self.wl.memory_pass(self.st), check)

    def round(self, r: int):
        from clock import scaled
        from workloads import REGIMES, round_trip

        st, wl, ledger = self.st, self.wl, self.ledger
        k = r % len(REGIMES)     # rotate the regime order from round to round
        for regime in REGIMES[k:] + REGIMES[:k]:
            run, scale = scaled(lambda: ledger.run(f"train {regime}", lambda: wl.train(st, regime),
                                                   lambda run: self.check_train(regime, run)))
            if run is None:
                continue
            self.add_sample(f"run_s.{regime}", run.seconds, scale)
            ledger.run(f"checkpoint round trip {regime}",
                       lambda: round_trip(st, run.ckpt, st.configs[regime]),
                       lambda ok: [] if ok else ["a tensor changed"])
        n = wl.samples_per_epoch(st)
        mr = None
        for _ in range(wl.mode_repeats):
            got, scale = scaled(lambda: ledger.run("epoch modes", lambda: wl.mode_round(st),
                                                   self.check_modes))
            if got is not None:
                mr = got
                for mode, secs in mr.seconds.items():
                    self.add_sample(f"samples_per_s.{mode}", secs, scale, per=n)
        if mr is not None:
            ckpt = st.out / "modes.ckpt"
            ledger.run("checkpoint round trip modes",
                       lambda: (st.P.checkpoint.save_checkpoint(mr.model, mr.opt, 1, ckpt),
                                round_trip(st, ckpt, st.configs["pgl"]))[1],
                       lambda ok: [] if ok else ["a tensor changed"])

    def rounds(self, seconds: float, on_round=None) -> list:
        """Run rounds until the next one would overrun ``seconds``; at least one."""
        walls = []
        t_start = time.perf_counter()
        while True:
            if on_round is not None:
                on_round(len(walls))
            t0 = time.perf_counter()
            self.round(len(walls))
            walls.append(time.perf_counter() - t0)
            if time.perf_counter() - t_start + walls[-1] > seconds:
                return walls

    # -- metrics ---------------------------------------------------------------

    def end_to_end(self, metric_map):
        out = {}
        for m in metric_map["end_to_end"]:
            name = m["name"]
            if name.startswith("peak_mib."):
                xs = [self.mem["peak_bytes"][name.split(".", 1)[1]] / 2**20] if self.mem else []
            else:
                xs = self.samples.get(name, [])
            out[name] = (median(xs), m["unit"], len(xs))
        return out

    def per_layer(self, metric_map, tracer, walls, baseline):
        self_s, calls = tracer.self_times()
        by_span = {}
        for (run, span), secs in self_s.items():
            by_span.setdefault(span, []).append((secs, calls[run, span]))
        mem = self.mem or {"peak_bytes": {"local": 0, "guided": 1}, "analytic": 0.0}
        pk = mem["peak_bytes"]
        ckpt = self.st.out / "pgl" / "final.ckpt"
        special = {
            "memory.local_over_bp.analytic": (mem["analytic"], 1),
            "memory.model_gap": (pk["local"] / pk["guided"] - mem["analytic"], 1),
            "checkpoint.bytes": (ckpt.stat().st_size if ckpt.exists() else 0, 1),
            "trace.overhead_s": (median(walls) - baseline, len(walls)),
        }
        out = {}
        for m in metric_map["per_layer"]:
            name = m["name"]
            if name in special:
                value, n = special[name]
            else:
                span, stat = name.rsplit(".", 1)
                per_run = by_span.get(span, [])
                value = median([s if stat == "self_s" else c for s, c in per_run])
                n = len(per_run)
            out[name] = (value, m["unit"], n)
        return out


def run_one(args) -> int:
    from spans import Tracer, install

    metric_map = json.loads((HERE / "metric_map.json").read_text())
    bench = Bench(args)
    bench.setup()
    bench.memory()
    trace_file = None
    if args.trace:
        # One untraced round is the baseline for the tracing overhead.
        t0 = time.perf_counter()
        bench.round(0)
        baseline = time.perf_counter() - t0
        tracer = Tracer()
        install(tracer)

        def start_round(r):
            tracer.run_id = r
        walls = bench.rounds(max(args.seconds - baseline, 0.0), start_round)
        for k in range(MEMORY_ESTIMATE_REPS):
            tracer.run_id = 1_000_000 + k
            bench.wl.analytic_ratio(bench.st)
        tracer.run_id = -1
        metrics = bench.per_layer(metric_map, tracer, walls, baseline)
        trace_file = bench.wl.out / "trace.npz"
        tracer.save(trace_file)
        rounds = len(walls)
    else:
        rounds = len(bench.rounds(args.seconds))
        metrics = bench.end_to_end(metric_map)

    ledger = bench.ledger
    env = environment(args.seed, rounds)
    print(f"workload {args.workload} ({bench.size}), seed {args.seed}, trace {args.trace}, "
          f"{rounds} rounds")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:38s} {value:14.6g} {unit:8s} n={n}")
    fail_ratio = ledger.failed / max(ledger.attempted, 1)
    print(f"  {'fail_ratio':38s} {fail_ratio:14.6g} {'ratio':8s} n={ledger.attempted}")
    for f in ledger.failures:
        print(f"  FAILED {f}")
    print("env " + json.dumps(env))
    result = {"workload": args.workload, "size": bench.size, "trace": args.trace, "env": env,
              "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
              "samples": bench.samples, "raw_samples": bench.raw,
              "raw_medians": {k: median(v) for k, v in bench.raw.items()}, "fail_ratio": fail_ratio, "attempted": ledger.attempted,
              "failures": ledger.failures, "outputs": bench.outputs,
              "trace_file": str(trace_file.relative_to(ROOT)) if trace_file else None}
    result_file = bench.wl.out / f"result-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table of every metric."""
    from workloads import WORKLOADS

    rows, worst = [], 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--reference", args.reference]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        size = "smoke" if args.smoke else "full"
        result = json.loads((OUT / name / size / f"result-seed{args.seed}-trace{args.trace}.json").read_text())
        for metric, m in result["metrics"].items():
            rows.append((metric, name, m["value"], m["unit"], m["n"]))
        rows.append(("fail_ratio", name, result["fail_ratio"], "ratio", result["attempted"]))
        worst = max(worst, result["fail_ratio"])
    print(f"\n{'metric':38s} {'workload':16s} {'value':>14s} unit     samples")
    for metric, name, value, unit, n in rows:
        print(f"{metric:38s} {name:16s} {value:14.6g} {unit:8s} {n}")
    return 0 if worst == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="mlp-spirals, resnet20-img16 or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--reference", default=str(HERE / "reference.json"),
                        help="recorded outputs that the default seed must reproduce")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "pgl" / "__init__.py").is_file():
        print(f"error: no pgl source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
