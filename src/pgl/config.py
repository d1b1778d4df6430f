"""Run configuration: JSON parsing with strict key checking, defaults, and
builders for the model and datasets.

Unknown keys are rejected outright so a mistyped hyperparameter can never
silently fall back to a default, and so is a value of the wrong JSON type (a
bool or a float where an integer belongs, a string, NaN or Infinity where a
number does), so it cannot fail mid-run.  Optimizer and schedule defaults are the standard
recipe this code ships with (momentum 0.9, weight decay 1e-4, lr0 0.8
cosine-annealed, 160 epochs, guidance period 10, duration 2).
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

from .data import Dataset, gen_blobs, gen_spirals, load_idx
from .errors import ConfigError
from .network import DecoupledModel, MlpSpec, ResNetSpec, block_plans, partition, unit_plan
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
        bound, 1 <= blocks <= units (stem and classifier included), and the
        aux policy must fit every head the blocks carry; the trainer and the
        memory estimator walk the same ``block_plans``.  That walk allocates
        nothing, so no model is built here; it also checks that the network's
        sizes are >= 1.  A spirals or blobs dataset must match the network's
        class count and an MLP's in_features."""
        Schedule(self.epochs, self.P, self.Q, self.regime).validate()
        block_plans(self.network, partition(unit_plan(self.network), self.blocks), self.aux)
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
            # an MLP reads the set's flat samples; a ResNet config may name a
            # synthetic set as a placeholder for images it is handed later,
            # as benchmarks/workloads.py does
            features = 2 if isinstance(self.dataset, SpiralsSpec) else self.dataset.d
            if isinstance(self.network, MlpSpec) and self.network.in_features != features:
                raise ConfigError(f"network.in_features is {self.network.in_features} but the "
                                  f"dataset's samples have {features} features")
        return self

    def build_model(self) -> DecoupledModel:
        return DecoupledModel(self.network, self.blocks, self.aux, seed=[self.seed, 0])

    def build_datasets(self) -> tuple[Dataset, Dataset]:
        return self.dataset.build(self.seed)

    def with_overrides(self, **kw) -> "RunConfig":
        return replace(self, **kw)


# ---------------------------------------------------------------------------
# JSON parsing

_NETWORKS = {"mlp": MlpSpec, "resnet": ResNetSpec}
_DATASETS = {"spirals": SpiralsSpec, "blobs": BlobsSpec, "idx": IdxSpec}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return (_is_int(v) or isinstance(v, float)) and math.isfinite(v)


# JSON type of each field annotation: (what the error says, the check)
_JSON_TYPES = {
    "int": ("an integer", _is_int),
    "float": ("a finite number", _is_number),
    "str": ("a string", lambda v: isinstance(v, str)),
    "list": ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v))),
}


def _check_fields(d: dict, cls, where: str):
    """Reject a key of ``d`` that names no field of ``cls``, a field without
    a default that ``d`` leaves out, and a value whose JSON type is not its
    field's."""
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    missing = [f.name for f in fields(cls) if f.name not in d
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{where} needs {', '.join(missing)}")
    prefix = "" if where == "config" else f"{where}."
    for f in fields(cls):
        if f.name in d and f.type in _JSON_TYPES:
            what, ok = _JSON_TYPES[f.type]
            if not ok(d[f.name]):
                raise ConfigError(f"{prefix}{f.name} must be {what}, got {d[f.name]!r}")


def _parse_kind(d, kinds: dict, where: str):
    """Build the spec that ``d``'s "kind" names from its other keys."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {d!r}")
    kind = d.get("kind")
    if kind not in kinds:
        raise ConfigError(f"{where}.kind must be one of {sorted(kinds)}, got {kind!r}")
    body = {k: v for k, v in d.items() if k != "kind"}
    _check_fields(body, kinds[kind], where)
    return kinds[kind](**body)


def _parse_aux(aux):
    if aux == "aux_adapt":
        return aux
    if not isinstance(aux, dict):
        raise ConfigError(f"aux must be 'aux_adapt' or {{n_conv, n_fc}}, got {aux!r}")
    if set(aux) != {"n_conv", "n_fc"}:
        raise ConfigError(f"fixed aux needs exactly n_conv and n_fc, got {sorted(aux)}")
    for key in ("n_conv", "n_fc"):
        if not _is_int(aux[key]):
            raise ConfigError(f"aux.{key} must be an integer, got {aux[key]!r}")
    return aux["n_conv"], aux["n_fc"]


def config_from_dict(d: dict) -> RunConfig:
    if not isinstance(d, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(d).__name__}")
    _check_fields(d, RunConfig, "config")
    kw = dict(d)
    if "network" in kw:
        kw["network"] = _parse_kind(kw["network"], _NETWORKS, "network")
    if "dataset" in kw:
        kw["dataset"] = _parse_kind(kw["dataset"], _DATASETS, "dataset")
    if "aux" in kw:
        kw["aux"] = _parse_aux(kw["aux"])
    return RunConfig(**kw).validate()


def parse_config(path) -> RunConfig:
    """Load and validate a JSON run configuration."""
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: JSON parse error at line {e.lineno}, column {e.colno}: {e.msg}") from None
    return config_from_dict(raw)
