"""Run configuration: JSON parsing with strict key checking, defaults, and
builders for the model and datasets.

Unknown keys are rejected outright so a mistyped hyperparameter can never
silently fall back to a default.  Optimizer and schedule defaults are the
standard recipe this code ships with (momentum 0.9, weight decay 1e-4,
lr0 0.8 cosine-annealed, 160 epochs, guidance period 10, duration 2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .data import Dataset, gen_blobs, gen_spirals, load_idx
from .errors import ConfigError
from .network import DecoupledModel, MlpSpec, ResNetSpec, aux_head_spec, partition, unit_plan
from .training import Schedule


@dataclass
class SpiralsSpec:
    classes: int = 3
    n_per_class: int = 256
    test_n_per_class: int = 256
    noise: float = 0.05

    def build(self, seed):
        train = gen_spirals(self.n_per_class, self.classes, self.noise, [seed, 1])
        test = gen_spirals(self.test_n_per_class, self.classes, self.noise, [seed, 2])
        return train, test


@dataclass
class BlobsSpec:
    classes: int = 2
    n_per_class: int = 128
    test_n_per_class: int = 128
    d: int = 2
    spread: float = 0.5

    def build(self, seed):
        train = gen_blobs(self.n_per_class, self.d, self.classes, self.spread, [seed, 1])
        test = gen_blobs(self.test_n_per_class, self.d, self.classes, self.spread, [seed, 2])
        return train, test


@dataclass
class IdxSpec:
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    mean: float = 0.0
    std: float = 1.0

    def build(self, seed):
        train = load_idx(self.train_images, self.train_labels, self.mean, self.std)
        test = load_idx(self.test_images, self.test_labels, self.mean, self.std)
        return train, test


@dataclass
class RunConfig:
    network: object = field(default_factory=lambda: MlpSpec(widths=[64] * 8, num_classes=3))
    blocks: int = 4
    aux: object = "aux_adapt"            # "aux_adapt" or (n_conv, n_fc)
    regime: str = "pgl"
    epochs: int = 160
    P: int = 10
    Q: int = 2
    lr0: float = 0.8
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 1024
    seed: int = 0
    dataset: object = field(default_factory=SpiralsSpec)
    out_dir: str = "runs"

    def validate(self):
        """Check every invariant a run needs before any compute.

        The block count must split the backbone under ``partition``'s one
        bound, 1 <= blocks <= units (stem and classifier included), which
        the trainer and the memory estimator share.  Shapes come from the
        allocation-free ``unit_plan``, so no model is built here."""
        Schedule(self.epochs, self.P, self.Q, self.regime).validate()
        plans = unit_plan(self.network)
        partition(plans, self.blocks)
        # any boundary width will do: the head's range check ignores it
        aux_head_spec(self.aux, plans[0].out_width, self.network.num_classes).validate()
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr0 <= 0:
            raise ConfigError(f"lr0 must be > 0, got {self.lr0}")
        if not (0 <= self.momentum < 1):
            raise ConfigError(f"momentum must be in [0,1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if isinstance(self.dataset, (SpiralsSpec, BlobsSpec)):
            if self.dataset.classes != self.network.num_classes:
                raise ConfigError(f"dataset has {self.dataset.classes} classes but the "
                                  f"network outputs {self.network.num_classes}")
        return self

    def build_model(self) -> DecoupledModel:
        return DecoupledModel(self.network, self.blocks, self.aux, seed=[self.seed, 0])

    def build_datasets(self) -> tuple[Dataset, Dataset]:
        return self.dataset.build(self.seed)

    def with_overrides(self, **kw) -> "RunConfig":
        return replace(self, **kw)


# ---------------------------------------------------------------------------
# JSON parsing

_TOP_KEYS = {"network", "blocks", "aux", "regime", "epochs", "P", "Q", "lr0",
             "momentum", "weight_decay", "batch_size", "seed", "dataset", "out_dir"}

_NETWORK_KEYS = {
    "mlp": {"kind", "widths", "num_classes", "in_features"},
    "resnet": {"kind", "depth", "num_classes", "in_channels", "input_hw"},
}

_DATASET_KEYS = {
    "spirals": {"kind", "classes", "n_per_class", "test_n_per_class", "noise"},
    "blobs": {"kind", "classes", "n_per_class", "test_n_per_class", "d", "spread"},
    "idx": {"kind", "train_images", "train_labels", "test_images", "test_labels", "mean", "std"},
}


def _check_keys(d: dict, allowed: set, where: str):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _parse_network(d: dict):
    kind = d.get("kind")
    if kind not in _NETWORK_KEYS:
        raise ConfigError(f"network.kind must be 'mlp' or 'resnet', got {kind!r}")
    _check_keys(d, _NETWORK_KEYS[kind], "network")
    body = {k: v for k, v in d.items() if k != "kind"}
    if kind == "mlp":
        return MlpSpec(**body)
    return ResNetSpec(**body)


def _parse_dataset(d: dict):
    kind = d.get("kind")
    if kind not in _DATASET_KEYS:
        raise ConfigError(f"dataset.kind must be one of {sorted(_DATASET_KEYS)}, got {kind!r}")
    _check_keys(d, _DATASET_KEYS[kind], "dataset")
    body = {k: v for k, v in d.items() if k != "kind"}
    cls = {"spirals": SpiralsSpec, "blobs": BlobsSpec, "idx": IdxSpec}[kind]
    return cls(**body)


def config_from_dict(d: dict) -> RunConfig:
    if not isinstance(d, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(d).__name__}")
    _check_keys(d, _TOP_KEYS, "config")
    kw = dict(d)
    if "network" in kw:
        kw["network"] = _parse_network(kw["network"])
    if "dataset" in kw:
        kw["dataset"] = _parse_dataset(kw["dataset"])
    if "aux" in kw and kw["aux"] != "aux_adapt":
        aux = kw["aux"]
        if isinstance(aux, dict):
            _check_keys(aux, {"n_conv", "n_fc"}, "aux")
            if set(aux) != {"n_conv", "n_fc"}:
                raise ConfigError("fixed aux needs both n_conv and n_fc")
            kw["aux"] = (int(aux["n_conv"]), int(aux["n_fc"]))
        else:
            raise ConfigError(f"aux must be 'aux_adapt' or {{n_conv, n_fc}}, got {aux!r}")
    try:
        cfg = RunConfig(**kw)
    except TypeError as e:
        raise ConfigError(f"bad config value: {e}") from None
    cfg.validate()
    return cfg


def parse_config(path) -> RunConfig:
    """Load and validate a JSON run configuration."""
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: JSON parse error at line {e.lineno}, column {e.colno}: {e.msg}") from None
    return config_from_dict(raw)
