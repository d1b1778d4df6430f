"""The byte-exact oracle: the benchmark's frozen acceptance MLP, trained at
seed 0 through the CLI, must write the recorded ``metrics.csv`` for every
regime.  A change that is meant to keep the arithmetic must keep these bytes;
only a change meant to alter it re-records ``benchmarks/reference.json``."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmarks"
PIN_VARS = ("PGL_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _mlp_workload(out):
    """The benchmark's ``MlpSpirals`` workload, loaded from its file (read only)."""
    name = "pgl_bench_workloads"
    if name not in sys.modules:      # dataclasses look their module up by name
        spec = importlib.util.spec_from_file_location(name, BENCH / "workloads.py")
        mod = importlib.util.module_from_spec(spec)
        sys.modules[name] = mod
        spec.loader.exec_module(mod)
    return sys.modules[name].MlpSpirals(out, smoke=False)


@pytest.mark.parametrize("regime", ["bp", "pgl", "dgl"])
def test_mlp_metrics_csv_matches_reference(regime, tmp_path):
    ref = json.loads((BENCH / "reference.json").read_text())["mlp-spirals"]["full"]
    seed = ref["seed"]
    config = tmp_path / "config.json"
    out = tmp_path / regime
    cfg = dict(_mlp_workload(tmp_path).config_dict(seed), regime=regime, out_dir=str(out))
    config.write_text(json.dumps(cfg, indent=1))
    # a fresh interpreter, so BLAS is pinned to one thread before numpy loads,
    # as in the benchmark; pgl.cli's entry point is pgl.cli.main
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{v: "1" for v in PIN_VARS})
    argv = ["train", "--config", str(config), "--seed", str(seed), "--out", str(out)]
    proc = subprocess.run([sys.executable, "-m", "pgl.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest()
    assert digest == ref["train"][regime]["metrics_csv_sha256"]
