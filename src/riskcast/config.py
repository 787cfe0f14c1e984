"""Flat dotted-key run configuration with layered precedence:
built-in defaults < RISKCAST_SEED env var < config file < command-line
overrides. The fully resolved mapping is written next to every output for
provenance.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager

from .model import ModelConfig
from .risk import HarmCoefficients, RiskConfig, UncertaintyModel
from .scene import Scenario, generate_scenario
from .training import TrainConfig
from .geometry import CollisionRegion

DEFAULTS: dict[str, object] = {
    "seed": 0,
    "gen.template": "straight",
    "gen.count": 10,
    "gen.n_agents": 3,
    "gen.H": 10,
    "gen.T": 50,
    "gen.dt": 0.1,
    "gen.jitter": 0.05,
    "model.embed_dim": 64,
    "model.attention_heads": 4,
    "model.transformer_layers": 2,
    "model.ff_mult": 2,
    "model.context_radius_m": 50.0,
    "model.map_pad": 20,
    "model.n_modes": 6,
    "model.future_steps": 50,
    "train.batch_size": 32,
    "train.lr": 2e-4,
    "train.weight_decay": 3e-4,
    "train.epochs": 20,
    "train.stage1_epochs": 5,
    "train.tau": 0.5,
    "train.mode_loss_weight": 0.5,
    "train.val_every": 1,
    "train.split_train": 0.7,
    "train.split_val": 0.15,
    "train.split_test": 0.15,
    "risk.sigma0": 0.5,
    "risk.growth": 0.05,
    "risk.mu0": -6.0,
    "risk.mu1": 0.4,
    "risk.mu_front": 0.2,
    "risk.mu_side": 0.8,
    "risk.mu_rear": 0.0,
    "risk.weight_s": 33.3,
    "risk.weight_c": 33.3,
    "risk.weight_r": 33.3,
    "risk.responsiveness_scale": 1.0,
    "risk.prob_tradeoff": 1.0,
    "risk.protected_harm_scale": 1.0,
    "risk.unprotected_harm_scale": 2.0,
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
        for key, value in file_cfg.items():
            if key not in DEFAULTS:
                raise KeyError(f"unknown config key {key!r}")
            cfg[key] = _coerce(key, value)
    for key, value in (overrides or {}).items():
        if key not in DEFAULTS:
            raise KeyError(f"unknown config key {key!r}")
        cfg[key] = _coerce(key, value)
    return cfg


def write_resolved(cfg: dict[str, object], out_dir: str) -> None:
    path = os.path.join(out_dir, "resolved_config.json")
    with open(path, "w") as f:
        json.dump(cfg, f, indent=1, sort_keys=True)


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


# typed-config field -> config key
MODEL_KEYS = {
    "embed_dim": "model.embed_dim",
    "attention_heads": "model.attention_heads",
    "transformer_layers": "model.transformer_layers",
    "ff_mult": "model.ff_mult",
    "context_radius_m": "model.context_radius_m",
    "map_pad": "model.map_pad",
    "n_modes": "model.n_modes",
    "future_steps": "model.future_steps",
    "init_seed": "seed",
}
TRAIN_KEYS = {
    "batch_size": "train.batch_size",
    "lr": "train.lr",
    "weight_decay": "train.weight_decay",
    "epochs": "train.epochs",
    "stage1_epochs": "train.stage1_epochs",
    "tau": "train.tau",
    "seed": "seed",
    "mode_loss_weight": "train.mode_loss_weight",
    "val_every": "train.val_every",
    "split": "train.split_train/split_val/split_test",
}
HARM_KEYS = {"mu0": "risk.mu0", "mu1": "risk.mu1"}
GEN_KEYS = {
    "template": "gen.template",
    "n_agents": "gen.n_agents",
    "H": "gen.H",
    "T": "gen.T",
    "dt": "gen.dt",
    "jitter": "gen.jitter",
}


def _values(cfg: dict[str, object], keys: dict[str, str]) -> dict:
    """The values of the keys that map one to one onto fields."""
    return {f: cfg[k] for f, k in keys.items() if k in cfg}


def model_config(cfg: dict[str, object]) -> ModelConfig:
    with keyed(MODEL_KEYS):
        return ModelConfig(**_values(cfg, MODEL_KEYS))


def risk_config(cfg: dict[str, object]) -> RiskConfig:
    with keyed(HARM_KEYS):
        harm = HarmCoefficients(**_values(cfg, HARM_KEYS), mu_area={
            CollisionRegion.FRONT: cfg["risk.mu_front"],
            CollisionRegion.SIDE: cfg["risk.mu_side"],
            CollisionRegion.REAR: cfg["risk.mu_rear"],
        })
    return RiskConfig(
        uncertainty=UncertaintyModel(cfg["risk.sigma0"], cfg["risk.growth"]),
        harm=harm,
        weights=(cfg["risk.weight_s"], cfg["risk.weight_c"],
                 cfg["risk.weight_r"]),
        responsiveness_scale=cfg["risk.responsiveness_scale"],
        prob_tradeoff=cfg["risk.prob_tradeoff"],
        protected_harm_scale=cfg["risk.protected_harm_scale"],
        unprotected_harm_scale=cfg["risk.unprotected_harm_scale"],
    )


def train_config(cfg: dict[str, object]) -> TrainConfig:
    risk = risk_config(cfg)
    with keyed(TRAIN_KEYS):
        return TrainConfig(
            **_values(cfg, TRAIN_KEYS),
            split=(cfg["train.split_train"], cfg["train.split_val"],
                   cfg["train.split_test"]),
            risk=risk)


def scenario(cfg: dict[str, object], i: int) -> Scenario:
    """The i-th generated scenario of the gen.* keys, seeded seed + i."""
    with keyed(GEN_KEYS):
        return generate_scenario(seed=cfg["seed"] + i,
                                 **_values(cfg, GEN_KEYS))
