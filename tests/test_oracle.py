"""The byte-exact oracles.

The benchmark's frozen acceptance MLP, trained at seed 0 through the CLI,
must write the recorded ``metrics.csv`` for every regime; only a change meant
to alter the arithmetic re-records ``benchmarks/reference.json``.  A short
ResNet-8 run of every regime must reproduce the digest of its losses,
accuracies and final checkpoint recorded in ``resnet_oracle.json`` beside
this file, which covers the conv, batchnorm and residual paths the MLP never
runs.  The benchmark's ``resnet20-img16`` workload, trained at seed 0 in every
regime plus one mode round, must reproduce the digest of its losses and
checkpoints recorded there too: it runs the benchmark's own GEMM shapes and
batch of 64, where a change of memory layout that ResNet-8 hides moves the
last bits of a loss.  All run in a fresh interpreter with BLAS pinned to one
thread.
"""

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
RESNET_ORACLE = Path(__file__).resolve().parent / "resnet_oracle.json"

# Trains ResNet-8 (J=2, 3x8x8 synthetic images, 3 epochs with one guided
# epoch under pgl) for the regime in argv[1], saves the final checkpoint to
# argv[2] and prints the sha256 of the float64 losses and accuracies
# followed by the checkpoint bytes.
RESNET_RUN = """
import hashlib, sys
import numpy as np
from pgl import checkpoint, data, training
from pgl.config import RunConfig
from pgl.network import ResNetSpec

class Images:
    def build(self, seed):
        rng = np.random.default_rng(seed)
        proto = rng.normal(size=(3, 3, 8, 8))
        sets = []
        for n in (40, 24):
            y = np.arange(n) % 3
            x = proto[y] + rng.normal(size=(n, 3, 8, 8))
            sets.append(data.Dataset(x.astype(np.float32), y.astype(np.int64), 3))
        return tuple(sets)

regime, ckpt = sys.argv[1], sys.argv[2]
config = RunConfig(network=ResNetSpec(depth=8, num_classes=3, input_hw=8), blocks=2,
                   regime=regime, epochs=3, P=2, Q=1, lr0=0.1, batch_size=16, seed=0,
                   dataset=Images()).validate()
records, model, opt = training.train(config)
values = [v for r in records for v in [r.global_loss, *r.local_losses, r.train_acc, r.test_acc]
          if v is not None]
checkpoint.save_checkpoint(model, opt, len(records), ckpt)
digest = hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes())
with open(ckpt, "rb") as f:
    digest.update(f.read())
print(digest.hexdigest())
"""


# Sets up the benchmark's ``Resnet20Img16`` workload (loaded read only from
# the file in argv[1]) at seed 0 under argv[2], trains it once per regime and
# runs one mode round, then prints the sha256 of each run's float64 losses
# and final checkpoint bytes, followed by the mode round's float64 losses.
IMG16_RUN = """
import hashlib, importlib.util, sys
from pathlib import Path
from types import SimpleNamespace
import numpy as np
import pgl.cli

spec = importlib.util.spec_from_file_location("pgl_bench_workloads", sys.argv[1])
wl = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = wl            # dataclasses look their module up by name
spec.loader.exec_module(wl)
P = SimpleNamespace(**{name[4:]: mod for name, mod in sys.modules.items() if name.startswith("pgl.")})
work = wl.Resnet20Img16(Path(sys.argv[2]), smoke=False)
st = work.setup(P, 0)
digest = hashlib.sha256()
for regime in wl.REGIMES:
    run = work.train(st, regime)
    digest.update(np.asarray(run.losses, dtype=np.float64).tobytes())
    digest.update(run.ckpt.read_bytes())
digest.update(np.asarray(work.mode_round(st).losses, dtype=np.float64).tobytes())
print(digest.hexdigest())
"""


def _pinned_env(src):
    # a fresh interpreter, so BLAS is pinned to one thread before numpy loads,
    # as in the benchmark
    return dict(os.environ, PYTHONPATH=str(src), **{v: "1" for v in PIN_VARS})


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
    # pgl.cli's entry point is pgl.cli.main
    argv = ["train", "--config", str(config), "--seed", str(seed), "--out", str(out)]
    proc = subprocess.run([sys.executable, "-m", "pgl.cli", *argv], cwd=tmp_path,
                          env=_pinned_env(ROOT / "src"),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest()
    assert digest == ref["train"][regime]["metrics_csv_sha256"]


def resnet_digest(regime, tmp_path, src=ROOT / "src"):
    """The digest ``RESNET_RUN`` prints for ``regime`` with pgl from ``src``."""
    proc = subprocess.run([sys.executable, "-c", RESNET_RUN, regime, str(tmp_path / f"{regime}.ckpt")],
                          cwd=tmp_path, env=_pinned_env(src), capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("regime", ["bp", "pgl", "dgl"])
def test_resnet_run_matches_recorded_digest(regime, tmp_path):
    want = json.loads(RESNET_ORACLE.read_text())["sha256"][regime]
    assert resnet_digest(regime, tmp_path) == want


def test_resnet20_img16_matches_recorded_digest(tmp_path):
    want = json.loads(RESNET_ORACLE.read_text())["sha256"]["resnet20-img16"]
    proc = subprocess.run([sys.executable, "-c", IMG16_RUN, str(BENCH / "workloads.py"), str(tmp_path)],
                          cwd=tmp_path, env=_pinned_env(ROOT / "src"), capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == want
