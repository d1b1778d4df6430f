"""The two benchmark workloads.

``mlp-spirals`` trains the frozen acceptance MLP through ``pgl.cli.main``;
``resnet20-img16`` trains ResNet-20 on synthetic 3x16x16 images through
``pgl.training``.  Both also time the three epoch modes (local, guided, eval)
over one fixed batch list, take a ``tracemalloc`` peak of one step per mode,
and round-trip checkpoints.  Every pgl function is looked up through its
module at call time, so a traced run sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REGIMES = ("bp", "pgl", "dgl")


@dataclass
class TrainRun:
    seconds: float
    losses: list            # every loss the run reports, in a fixed order
    test_acc: float
    digest: str             # identifies the run's outputs; repeats must agree
    ckpt: Path
    csv_sha256: str | None = None


@dataclass
class ModeRound:
    seconds: dict           # mode -> wall seconds of one epoch over the batch list
    losses: list
    model: object
    opt: object


@dataclass
class State:
    """What set-up builds: parsed configs, datasets and the fixed batch list."""
    P: object               # namespace of the pgl modules
    seed: int
    out: Path
    configs: dict           # regime -> RunConfig
    config_paths: dict      # regime -> JSON file
    batch_list: list


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def timed(fn, *args, **kwargs):
    gc.collect()
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def fresh_model(P, config):
    return config.build_model(), P.training.NesterovSGD(config.momentum, config.weight_decay)


class Workload:
    name = ""
    mode_repeats = 1        # mode rounds per benchmark round
    acc_floor = None        # final test accuracy every full-size training must reach

    def __init__(self, out: Path, smoke: bool):
        self.out = out
        self.smoke = smoke

    def config_dict(self, seed: int) -> dict:
        raise NotImplementedError

    def setup(self, P, seed: int) -> State:
        """Write one JSON config per regime, parse them, build the model and
        the datasets, and cut the fixed batch list."""
        self.out.mkdir(parents=True, exist_ok=True)
        configs, paths = {}, {}
        for regime in REGIMES:
            path = self.out / f"config-{regime}.json"
            cfg = dict(self.config_dict(seed), regime=regime, out_dir=str(self.out / regime))
            path.write_text(json.dumps(cfg, indent=1))
            configs[regime] = P.config.parse_config(path)
            paths[regime] = path
        st = State(P, seed, self.out, configs, paths, [])
        self.build_inputs(st)
        return st

    def build_inputs(self, st: State):
        raise NotImplementedError

    def train(self, st: State, regime: str) -> TrainRun:
        raise NotImplementedError

    def mode_round(self, st: State) -> ModeRound:
        """Fresh model, one untimed warm-up batch, then one local, one guided
        (heads updated too) and one evaluation sweep over the batch list."""
        TR = st.P.training
        config = st.configs["pgl"]
        model, opt = fresh_model(st.P, config)
        lr = config.lr0
        TR.local_epoch(model, st.batch_list[:1], opt, lr)
        t_local, local = timed(TR.local_epoch, model, st.batch_list, opt, lr)
        t_guided, (gloss, aux) = timed(TR.guided_epoch, model, st.batch_list, opt, lr, update_aux=True)
        t_eval, _ = timed(TR.evaluate, model, st.batch_list)
        return ModeRound({"local": t_local, "guided": t_guided, "eval": t_eval},
                         list(local) + [gloss] + list(aux), model, opt)

    def samples_per_epoch(self, st: State) -> int:
        return sum(len(y) for _, y in st.batch_list)

    def memory_pass(self, st: State) -> dict:
        """tracemalloc peak of one step per mode, beside the analytic model.

        tracemalloc sees numpy buffers, not BLAS scratch.  The garbage
        collector is off while tracing so the peaks repeat exactly."""
        P = st.P
        TR = P.training
        config = st.configs["pgl"]
        model, opt = fresh_model(P, config)
        batch = st.batch_list[:1]
        lr = config.lr0
        TR.local_epoch(model, batch, opt, lr)
        TR.guided_epoch(model, batch, opt, lr, update_aux=True)
        steps = {"local": lambda: TR.local_epoch(model, batch, opt, lr),
                 "guided": lambda: TR.guided_epoch(model, batch, opt, lr, update_aux=True)}
        peaks = {}
        gc.collect()
        gc.disable()
        try:
            for mode, step in steps.items():
                tracemalloc.start()
                try:
                    step()
                    peaks[mode] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        finally:
            gc.enable()
        return {"peak_bytes": peaks, "analytic": self.analytic_ratio(st)}

    def analytic_ratio(self, st: State) -> float:
        """memory.estimate's local/bp peak ratio for this spec, partition and batch."""
        P = st.P
        config = st.configs["pgl"]
        part = P.network.partition(P.memory.unit_plan(config.network), config.blocks)
        schedule = P.training.Schedule(config.epochs, config.P, config.Q, "pgl")
        est = P.memory.estimate(config.network, part, len(st.batch_list[0][1]), schedule, config.aux)
        return est.peak_local / est.peak_bp


def _csv_losses(text: str):
    """(all loss values, final test accuracy) from a metrics.csv."""
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    loss_cols = [i for i, h in enumerate(header) if h.endswith("loss") or h.startswith("local_loss")]
    losses = [float(row.split(",")[i]) for row in lines[1:] for i in loss_cols
              if row.split(",")[i] != ""]
    return losses, float(lines[-1].split(",")[header.index("test_acc")])


class MlpSpirals(Workload):
    name = "mlp-spirals"
    mode_repeats = 5
    acc_floor = 0.80

    def config_dict(self, seed):
        cfg = {"network": {"kind": "mlp", "widths": [64] * 8, "num_classes": 3},
               "blocks": 4, "aux": "aux_adapt", "regime": "pgl",
               "epochs": 60, "P": 5, "Q": 1, "lr0": 0.1, "batch_size": 64, "seed": seed,
               "dataset": {"kind": "spirals", "classes": 3, "n_per_class": 256,
                           "test_n_per_class": 512, "noise": 0.05}}
        if self.smoke:
            cfg["epochs"] = 6
            cfg["dataset"].update(n_per_class=32, test_n_per_class=32)
        return cfg

    def build_inputs(self, st):
        config = st.configs["pgl"]
        config.build_model()
        train_set, _ = config.build_datasets()
        st.batch_list = st.P.data.batches(train_set, config.batch_size, st.seed, 0)

    def train(self, st, regime):
        out = st.out / regime
        argv = ["train", "--config", str(st.config_paths[regime]), "--seed", str(st.seed),
                "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            seconds, rc = timed(st.P.cli.main, argv)
        if rc != 0:
            raise RuntimeError(f"pgl train exited with {rc}")
        csv = (out / "metrics.csv").read_bytes()
        ckpt = out / "final.ckpt"
        losses, acc = _csv_losses(csv.decode())
        return TrainRun(seconds, losses, acc, sha256(csv) + sha256(ckpt.read_bytes()), ckpt,
                        csv_sha256=sha256(csv))


class ImageSet:
    """Synthetic 3xHxW images: a fixed random prototype per class plus unit
    Gaussian noise.  Pure function of (seed, stream); labels balanced."""

    def __init__(self, P, n_train: int, n_test: int, hw: int, classes: int):
        self.P, self.n_train, self.n_test, self.hw, self.classes = P, n_train, n_test, hw, classes

    def draw(self, n: int, seed: int, stream: int):
        proto = np.random.default_rng([seed, 0]).standard_normal((self.classes, 3, self.hw, self.hw))
        rng = np.random.default_rng([seed, stream])
        labels = rng.permutation(np.arange(n) % self.classes)
        x = proto[labels] + rng.standard_normal((n, 3, self.hw, self.hw))
        return self.P.data.Dataset(x.astype(np.float32), labels.astype(np.int64), self.classes)

    def build(self, seed):
        return self.draw(self.n_train, seed, 1), self.draw(self.n_test, seed, 2)


class Resnet20Img16(Workload):
    name = "resnet20-img16"

    def config_dict(self, seed):
        hw = 8 if self.smoke else 16
        # The spirals section only satisfies validation; the run replaces the
        # dataset with synthetic images of the network's input shape.
        return {"network": {"kind": "resnet", "depth": 20, "num_classes": 10,
                            "in_channels": 3, "input_hw": hw},
                "blocks": 4, "aux": "aux_adapt", "regime": "pgl",
                "epochs": 3, "P": 2, "Q": 1, "lr0": 0.1, "batch_size": 16 if self.smoke else 64,
                "seed": seed, "dataset": {"kind": "spirals", "classes": 10}}

    def build_inputs(self, st):
        config = st.configs["pgl"]
        bs = config.batch_size
        images = ImageSet(st.P, bs, bs, config.network.input_hw, config.network.num_classes)
        st.configs = {r: c.with_overrides(dataset=images) for r, c in st.configs.items()}
        config.build_model()
        mode_set = images.draw(2 * bs, st.seed, 3)
        st.batch_list = st.P.data.batches(mode_set, bs, st.seed, 0)

    def train(self, st, regime):
        seconds, (records, model, opt) = timed(st.P.training.train, st.configs[regime])
        losses = [v for r in records for v in [r.global_loss, *r.local_losses] if v is not None]
        ckpt = st.out / regime / "final.ckpt"
        ckpt.parent.mkdir(parents=True, exist_ok=True)
        st.P.checkpoint.save_checkpoint(model, opt, len(records), ckpt)
        digest = sha256(np.asarray(losses, dtype=np.float64).tobytes()) + sha256(ckpt.read_bytes())
        return TrainRun(seconds, losses, records[-1].test_acc, digest, ckpt)


WORKLOADS = {w.name: w for w in (MlpSpirals, Resnet20Img16)}


def round_trip(st: State, ckpt: Path, config) -> bool:
    """load -> apply into a fresh model -> save again; every tensor must match."""
    C = st.P.checkpoint
    ck = C.load_checkpoint(ckpt)
    model, opt = fresh_model(st.P, config)
    C.apply_checkpoint(ck, model, opt)
    again = ckpt.with_name(ckpt.name + ".again")
    C.save_checkpoint(model, opt, ck.epoch, again)
    back = C.read_tensors(again)
    return back.keys() == ck.tensors.keys() and all(
        np.array_equal(back[k], ck.tensors[k]) for k in back)


def all_finite(values) -> bool:
    return all(math.isfinite(v) for v in values)
