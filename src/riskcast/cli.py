"""Command-line driver: scenario generation, training, prediction, risk
scoring, and evaluation, each writing into its own output directory along
with the resolved configuration."""

from __future__ import annotations

import argparse
import csv
import glob
import json
import os
import sys

from . import config as cfgmod
from .evaluation import evaluate
from .model import (JointPredictor, prediction_from_json, prediction_to_csv_rows,
                    prediction_to_json)
from .risk import rank_trajectories
from .scene import TEMPLATES, dump_scenario, load_scenario
from .training import train


class CliError(Exception):
    """User-facing failure: printed to stderr, exit code 1."""


def _require_file(path: str, what: str) -> None:
    if os.path.isdir(path):
        raise CliError(f"{what} is a directory, not a file: {path}")
    if not os.path.exists(path):
        raise CliError(f"{what} not found: {path}")


def _read_scenario(path: str):
    _require_file(path, "scenario file")
    with open(path) as f:   # reading raises UnicodeDecodeError, a ValueError
        return _checked(f"invalid scenario {path}",
                        lambda: load_scenario(f.read()))


def _read_dataset(data_dir: str):
    if not os.path.isdir(data_dir):
        raise CliError(f"dataset directory not found: {data_dir}")
    paths = sorted(glob.glob(os.path.join(data_dir, "*.json")))
    paths = [p for p in paths
             if os.path.basename(p) != "resolved_config.json"]
    if not paths:
        raise CliError(f"no scenario files in {data_dir}")
    return [_read_scenario(p) for p in paths]


def _prediction_doc(path: str):
    _require_file(path, "prediction file")
    with open(path) as f:   # JSONDecodeError, UnicodeDecodeError
        return _checked(f"invalid prediction {path}", json.load, f)


def _unpredicted(scn, jp) -> list[str]:
    """Scene agents the prediction has no trajectory for (the model's
    context radius dropped them), in scene order."""
    return [aid for aid in scn.agent_ids.tolist() if aid not in jp.agent_ids]


def _load_model(path: str) -> JointPredictor:
    _require_file(path, "model checkpoint")
    return _checked(f"invalid checkpoint {path}", JointPredictor.load, path)


def _parse_overrides(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise CliError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key] = value
    return out


# flag -> the config key it overrides; a flag beats --set
FLAG_KEYS = {"seed": "seed", "template": "gen.template", "count": "gen.count",
             "n_agents": "gen.n_agents", "epochs": "train.epochs"}


def _resolve(args) -> dict:
    overrides = _parse_overrides(args.set)
    for flag, key in FLAG_KEYS.items():
        if getattr(args, flag, None) is not None:
            overrides[key] = getattr(args, flag)
    try:
        return cfgmod.resolve_config(args.config, overrides)
    except (ValueError, OSError) as e:
        raise CliError(str(e)) from e


def _checked(what: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), a ValueError ending in a CliError."""
    try:
        return fn(*args, **kwargs)
    except ValueError as e:
        raise CliError(f"{what}: {e}") from e


def _write_json(path: str, doc, **kwargs) -> None:
    """doc as strict JSON: a NaN or an infinity in it ends in a CliError
    before the file is opened."""
    text = _checked(f"cannot write {path}", lambda: json.dumps(
        doc, allow_nan=False, **kwargs))
    with open(path, "w") as f:
        f.write(text)


def _prepare_out(args, cfg: dict) -> str:
    try:
        os.makedirs(args.out, exist_ok=True)
    except FileExistsError as e:   # exist_ok spares only a directory
        raise CliError(f"output directory is a file: {args.out}") from e
    except OSError as e:           # a file on the way, a denied parent
        raise CliError(f"cannot create output directory {args.out}: "
                       f"{e.strerror}") from e
    _write_json(os.path.join(args.out, "resolved_config.json"), cfg,
                indent=1, sort_keys=True)
    return args.out


def cmd_gen(args) -> int:
    cfg = _resolve(args)
    if cfg["gen.count"] < 1:
        raise CliError(f"invalid config: gen.count: {cfg['gen.count']!r} "
                       f"is not >= 1")
    # the first scene checks the gen.* values before anything is written
    scn = _checked("invalid config", cfgmod.scenario, cfg, 0)
    out = _prepare_out(args, cfg)
    for i in range(cfg["gen.count"]):
        if i:
            scn = _checked("invalid config", cfgmod.scenario, cfg, i)
        path = os.path.join(out, f"scenario_{i:04d}.json")
        with open(path, "w") as f:
            f.write(dump_scenario(scn))
    print(f"wrote {cfg['gen.count']} scenarios to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve(args)
    model_cfg = _checked("invalid config", cfgmod.model_config, cfg)
    train_cfg = _checked("invalid config", cfgmod.train_config, cfg)
    scenarios = _read_dataset(args.data)
    out = _prepare_out(args, cfg)
    _, report = _checked(f"cannot train on {args.data}",
                         cfgmod.keyed(cfgmod.TRAIN_KEYS)(train), scenarios,
                         model_cfg, train_cfg, out_dir=out)
    print(f"trained {cfg['train.epochs']} epochs; "
          f"final val ADE {report.final_val_ade:.3f} m")
    return 0


def cmd_predict(args) -> int:
    cfg = _resolve(args)
    scn = _read_scenario(args.scenario)
    model = _load_model(args.model)
    jp, dists = _checked(f"cannot predict {args.scenario}", model.predict,
                         scn)
    out = _prepare_out(args, cfg)
    doc = prediction_to_json(jp, dists)
    doc["unpredicted"] = _unpredicted(scn, jp)
    _write_json(os.path.join(out, "prediction.json"), doc, sort_keys=True)
    with open(os.path.join(out, "prediction.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["scenario_id", "agent_id", "mode_k", "t", "x", "y",
                    "p_k"])
        w.writerows(prediction_to_csv_rows(jp))
    print(f"wrote prediction for {scn.scenario_id or args.scenario} to {out}")
    return 0


def cmd_risk(args) -> int:
    cfg = _resolve(args)
    scn = _read_scenario(args.scenario)
    jp = _checked(f"invalid prediction {args.prediction}",
                  prediction_from_json, _prediction_doc(args.prediction))
    risk_cfg = _checked("invalid config", cfgmod.risk_config, cfg)
    order, reports = _checked(f"cannot rank {args.prediction}",
                              rank_trajectories, jp, scn, risk_cfg)
    out = _prepare_out(args, cfg)
    doc = {
        "scenario_id": scn.scenario_id,
        "order": order,
        "modes": [r.to_json() for r in reports],
        "unpredicted": _unpredicted(scn, jp),
    }
    _write_json(os.path.join(out, "risk_report.json"), doc, indent=1,
                sort_keys=True)
    print(f"ranked {len(reports)} modes; best mode {order[0]}")
    return 0


def cmd_eval(args) -> int:
    cfg = _resolve(args)
    scenarios = _read_dataset(args.data)
    if (args.model is None) == (args.predictions is None):
        raise CliError("eval needs exactly one of --model or --predictions")
    if args.model is not None:
        model = _load_model(args.model)

        def predict_fn(scn):
            jp, _ = model.predict(scn)
            return jp
    else:
        if not os.path.isdir(args.predictions):
            raise CliError(
                f"predictions directory not found: {args.predictions}")
        by_id, files = {}, {}
        for path in sorted(glob.glob(os.path.join(args.predictions,
                                                  "*.json"))):
            # other JSON objects (a resolved_config.json) are not predictions
            doc = _prediction_doc(path)
            if isinstance(doc, dict) and "modes" in doc:
                jp = _checked(f"invalid prediction {path}",
                              prediction_from_json, doc)
                if jp.scenario_id in files:
                    raise CliError(
                        f"{files[jp.scenario_id]} and {path} both predict "
                        f"scenario {jp.scenario_id!r}")
                by_id[jp.scenario_id], files[jp.scenario_id] = jp, path

        def predict_fn(scn):
            jp = by_id.get(scn.scenario_id)
            if jp is None:
                raise CliError(
                    f"no prediction found for scenario {scn.scenario_id!r}")
            return jp

    report = _checked(f"cannot evaluate {args.model or args.predictions}",
                      evaluate, predict_fn, scenarios)
    out = _prepare_out(args, cfg)
    _write_json(os.path.join(out, "metrics.json"), report.to_json(),
                indent=1, sort_keys=True)
    report.write_csv(os.path.join(out, "metrics.csv"))
    sel = report.mean("all", "model_selected", "ego", "ade")
    print(f"evaluated {len(scenarios)} scenarios; "
          f"ego ADE@{report.horizons_s[-1]}s = {sel[-1]:.3f} m")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskcast",
        description="Joint trajectory prediction with intention and "
                    "risk-aware ranking on synthetic driving scenes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (flat dotted keys)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key")
        p.add_argument("--seed", type=int, help="override the seed")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("gen", help="generate synthetic scenarios")
    common(p)
    p.add_argument("--template", choices=TEMPLATES)
    p.add_argument("--count", type=int)
    p.add_argument("--n-agents", type=int, dest="n_agents")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a model on a scenario directory")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--epochs", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict one scenario")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("risk", help="rank predicted modes by risk cost")
    common(p)
    p.add_argument("--scenario", required=True)
    p.add_argument("--prediction", required=True)
    p.set_defaults(func=cmd_risk)

    p = sub.add_parser("eval", help="compute displacement metrics")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--model")
    p.add_argument("--predictions")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
