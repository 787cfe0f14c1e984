"""Flat dotted-key run configuration with layered precedence:
built-in defaults < RISKCAST_SEED env var < config file < command-line
overrides. The fully resolved mapping is written next to every output for
provenance.

Defaults and keys come from the typed configs: each number or string field
of `ModelConfig`, `TrainConfig`, `RiskConfig` and its parts is the key
"<section>.<field>" with the field's default, and the gen.* keys are
`generate_scenario`'s parameters with scene.py's defaults. Written out are
only the names the configs do not give: `seed`, the split fractions, the
region harm coefficients, the risk weights and the CLI's own gen.* keys.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import fields

from .geometry import CollisionRegion
from .model import ModelConfig
from .risk import HarmCoefficients, RiskConfig, UncertaintyModel
from .scene import (DEFAULT_DT, DEFAULT_H, DEFAULT_T, JITTER_STD, Scenario,
                    generate_scenario)
from .training import TrainConfig


def _scalar_fields(config) -> list[str]:
    """The fields of a typed config that hold a number or a string."""
    return [f.name for f in fields(config)
            if isinstance(getattr(config, f.name), (int, float, str))]


def _keys(section: str, config, **irregular: str) -> dict[str, str]:
    """typed-config field -> config key: "<section>.<field>" for each
    scalar field, unless `irregular` names its key."""
    return {f: f"{section}.{f}" for f in _scalar_fields(config)} | irregular


_MODEL, _TRAIN, _RISK = ModelConfig(), TrainConfig(), RiskConfig()
MODEL_KEYS = _keys("model", _MODEL, init_seed="seed")
TRAIN_KEYS = _keys("train", _TRAIN, seed="seed",
                   split="train.split_train/split_val/split_test")
UNCERTAINTY_KEYS = _keys("risk", _RISK.uncertainty)
HARM_KEYS = _keys("risk", _RISK.harm)
RISK_KEYS = _keys("risk", _RISK)
GEN_KEYS = {p: f"gen.{p}"
            for p in ("template", "n_agents", "H", "T", "dt", "jitter")}
SPLIT_KEYS = ("train.split_train", "train.split_val", "train.split_test")
MU_AREA_KEYS = {r: f"risk.mu_{r.value}" for r in CollisionRegion}
WEIGHT_KEYS = ("risk.weight_s", "risk.weight_c", "risk.weight_r")


def _defaults(config, keys: dict[str, str]) -> dict[str, object]:
    """Each "<section>.<field>" key of a typed config with its default
    (seed, shared by two configs, is stated in DEFAULTS itself)."""
    return {keys[f]: getattr(config, f) for f in _scalar_fields(config)
            if keys[f] != "seed"}


DEFAULTS: dict[str, object] = {
    "seed": _TRAIN.seed,
    "gen.template": "straight",
    "gen.count": 10,
    "gen.n_agents": 3,
    "gen.H": DEFAULT_H,
    "gen.T": DEFAULT_T,
    "gen.dt": DEFAULT_DT,
    "gen.jitter": JITTER_STD,
    **_defaults(_MODEL, MODEL_KEYS),
    **_defaults(_TRAIN, TRAIN_KEYS),
    **dict(zip(SPLIT_KEYS, _TRAIN.split)),
    **_defaults(_RISK.uncertainty, UNCERTAINTY_KEYS),
    **_defaults(_RISK.harm, HARM_KEYS),
    **{MU_AREA_KEYS[r]: mu for r, mu in _RISK.harm.mu_area.items()},
    **dict(zip(WEIGHT_KEYS, _RISK.weights)),
    **_defaults(_RISK, RISK_KEYS),
}


# the value types each key type takes, and how an error names the key type
_ACCEPTS = {int: ((int, str), "an integer"),
            float: ((int, float, str), "a finite number"),
            str: ((str,), "a string")}


def _coerce(key: str, value: object) -> object:
    """`value` as the type of `key`'s default. An integer key takes an
    integer or its string, a float key a finite number or its string and a
    string key a string; anything else, such as 2.7 or true for an integer
    key, or nan for a float key, raises ValueError."""
    kind = type(DEFAULTS[key])
    types, what = _ACCEPTS[kind]
    try:
        out = kind(value) if type(value) in types else None
    except (ValueError, OverflowError):
        out = None
    if out is None or (kind is float and not math.isfinite(out)):
        raise ValueError(f"{key}: {value!r} is not {what}")
    return out


def resolve_config(config_file: str | None = None,
                   overrides: dict[str, object] | None = None
                   ) -> dict[str, object]:
    cfg = dict(DEFAULTS)
    env_seed = os.environ.get("RISKCAST_SEED")
    if env_seed is not None:
        with keyed({"seed": "RISKCAST_SEED"}):
            cfg["seed"] = _coerce("seed", env_seed)
    if config_file is not None:
        with open(config_file) as f:
            file_cfg = json.load(f)
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config file {config_file}: expected a JSON "
                             f"object of config keys")
        for key, value in file_cfg.items():
            if key not in DEFAULTS:
                raise ValueError(f"unknown config key {key!r}")
            cfg[key] = _coerce(key, value)
    for key, value in (overrides or {}).items():
        if key not in DEFAULTS:
            raise ValueError(f"unknown config key {key!r}")
        cfg[key] = _coerce(key, value)
    return cfg


@contextmanager
def keyed(keys: dict[str, str]):
    """Raise a ValueError whose message starts with "<field>:", for a field
    in `keys`, again with the field replaced by its config key."""
    try:
        yield
    except ValueError as e:
        field, _, rest = str(e).partition(":")
        if field not in keys:
            raise
        raise ValueError(f"{keys[field]}:{rest}") from e


def _values(cfg: dict[str, object], keys: dict[str, str]) -> dict:
    """The values of the keys that map one to one onto fields."""
    return {f: cfg[k] for f, k in keys.items() if k in cfg}


def model_config(cfg: dict[str, object]) -> ModelConfig:
    with keyed(MODEL_KEYS):
        return ModelConfig(**_values(cfg, MODEL_KEYS))


def risk_config(cfg: dict[str, object]) -> RiskConfig:
    with keyed(HARM_KEYS):
        harm = HarmCoefficients(**_values(cfg, HARM_KEYS), mu_area={
            r: cfg[k] for r, k in MU_AREA_KEYS.items()})
    return RiskConfig(
        uncertainty=UncertaintyModel(**_values(cfg, UNCERTAINTY_KEYS)),
        harm=harm, weights=tuple(cfg[k] for k in WEIGHT_KEYS),
        **_values(cfg, RISK_KEYS))


def train_config(cfg: dict[str, object]) -> TrainConfig:
    risk = risk_config(cfg)
    with keyed(TRAIN_KEYS):
        return TrainConfig(**_values(cfg, TRAIN_KEYS),
                           split=tuple(cfg[k] for k in SPLIT_KEYS), risk=risk)


def scenario(cfg: dict[str, object], i: int) -> Scenario:
    """The i-th generated scenario of the gen.* keys, seeded seed + i."""
    with keyed(GEN_KEYS):
        return generate_scenario(seed=cfg["seed"] + i,
                                 **_values(cfg, GEN_KEYS))
