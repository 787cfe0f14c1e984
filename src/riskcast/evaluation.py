"""Displacement metrics, the constant-velocity baseline, and per-subset
evaluation reports (normal vs conflict scenes, and by ego lateral intention).

ADE at horizon h is the mean Euclidean error over the first h steps; FDE is
the error at step h. Reports carry the mode-selected metric (primary), the
best-over-modes metric, and the constant-velocity baseline, for the ego
alone and averaged over all predicted agents.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import norm2
from .intention import JointPrediction, label_intentions, select_mode
from .scene import AgentHistory, Scenario

SUBSETS = ("all", "normal", "conflict", "LT", "ST", "RT")
ESTIMATORS = ("model_selected", "model_best", "cv")


def ade(pred: np.ndarray, truth: np.ndarray, horizon_steps: int) -> float:
    """Mean L2 distance over the first horizon_steps steps."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if horizon_steps < 1:
        raise ValueError("horizon must be at least one step")
    if horizon_steps > min(len(pred), len(truth)):
        raise ValueError(f"horizon {horizon_steps} exceeds trajectory "
                         f"length {min(len(pred), len(truth))}")
    err = np.linalg.norm(pred[:horizon_steps] - truth[:horizon_steps],
                         axis=-1)
    return float(err.mean())


def fde(pred: np.ndarray, truth: np.ndarray, horizon_steps: int) -> float:
    """L2 distance at exactly step horizon_steps."""
    if horizon_steps < 1:
        raise ValueError("horizon must be at least one step")
    if horizon_steps > min(len(pred), len(truth)):
        raise ValueError(f"horizon {horizon_steps} exceeds trajectory "
                         f"length {min(len(pred), len(truth))}")
    d = np.asarray(pred)[horizon_steps - 1] - np.asarray(truth)[
        horizon_steps - 1]
    return float(np.linalg.norm(d))


def constant_velocity_baseline(history: AgentHistory, horizon: int,
                               dt: float) -> np.ndarray:
    """Extrapolate the last observed velocity; a single-state history holds
    position."""
    last = history.past[-1]
    v = last[3:] if len(history.past) > 1 else np.zeros(2)
    steps = np.arange(1, horizon + 1)[:, None]
    return last[None, :2] + v[None, :] * dt * steps


def constant_velocity_baselines(past: np.ndarray, horizon: int,
                                dt: float) -> np.ndarray:
    """``constant_velocity_baseline`` of every agent of a scene's past
    [N, S, 5] as one array op, [N, horizon, 2], rounding as the per-agent
    baseline does."""
    last = past[:, -1]
    v = last[:, 3:] if past.shape[1] > 1 else np.zeros((len(last), 2))
    steps = np.arange(1, horizon + 1)[:, None]
    return last[:, None, :2] + v[:, None, :] * dt * steps


@dataclass
class MetricsReport:
    horizons_s: list[int]
    # (subset, estimator, scope) -> {"ade": [per horizon], "fde": [...],
    #                                "count": scenarios}
    entries: dict = field(default_factory=dict)

    def key(self, subset: str, estimator: str, scope: str):
        return (subset, estimator, scope)

    def add(self, subset: str, estimator: str, scope: str,
            ade_vals: np.ndarray, fde_vals: np.ndarray) -> None:
        e = self.entries.setdefault(
            self.key(subset, estimator, scope),
            {"ade": [], "fde": []})
        e["ade"].append(ade_vals)
        e["fde"].append(fde_vals)

    def mean(self, subset: str, estimator: str, scope: str,
             metric: str) -> np.ndarray:
        e = self.entries.get(self.key(subset, estimator, scope))
        if e is None or not e[metric]:
            return np.full(len(self.horizons_s), math.nan)
        return np.mean(np.stack(e[metric]), axis=0)

    def count(self, subset: str) -> int:
        e = self.entries.get(self.key(subset, "model_selected", "ego"))
        return len(e["ade"]) if e else 0

    def rows(self) -> list[dict]:
        out = []
        for subset in SUBSETS:
            for estimator in ESTIMATORS:
                for scope in ("ego", "all"):
                    for metric in ("ade", "fde"):
                        vals = self.mean(subset, estimator, scope, metric)
                        out.append({
                            "subset": subset,
                            "estimator": estimator,
                            "scope": scope,
                            "metric": metric,
                            "count": self.count(subset),
                            **{f"h{h}s": float(v)
                               for h, v in zip(self.horizons_s, vals)},
                        })
        return out

    def write_csv(self, path: str) -> None:
        rows = self.rows()
        with open(path, "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
            w.writeheader()
            w.writerows(rows)

    def write_json(self, path: str) -> None:
        """The rows as strict JSON: a subset without a scene has null where
        `rows()` has NaN, and any other NaN raises ValueError before the
        file is opened."""
        empty = dict.fromkeys((f"h{h}s" for h in self.horizons_s), None)
        rows = [row if row["count"] else row | empty for row in self.rows()]
        text = json.dumps({"horizons_s": self.horizons_s, "rows": rows},
                          indent=1, sort_keys=True, allow_nan=False)
        with open(path, "w") as f:
            f.write(text)


def _horizon_metrics(pred: np.ndarray, truth: np.ndarray,
                     horizons: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """ADE and FDE of pred [..., T, 2] against truth [N, T, 2] at every
    horizon, as ``ade``/``fde`` compute them: two arrays [..., N, horizons].
    """
    diff = pred - truth
    err = norm2(diff)
    a = np.stack([err[..., :h].mean(axis=-1) for h in horizons], axis=-1)
    # fde's norm of one 2-vector is sqrt(d @ d); a batched matmul rounds
    # as that dot product does
    d = diff[..., np.asarray(horizons) - 1, :]
    f = np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])
    return a, f


def evaluate(predict_fn: Callable[[Scenario], JointPrediction],
             scenarios: list[Scenario]) -> MetricsReport:
    """Score a predictor over scenarios with ground-truth futures.

    predict_fn returns a joint prediction in global coordinates covering a
    subset of the scenario's agents (at least the ego). The errors of a
    scene are computed once for every mode, agent and step; best-of-modes
    takes the first mode with the lowest ADE at the longest horizon. The
    horizons are whole seconds of the first scenario's time step, so every
    scenario must share it.
    """
    if not scenarios:
        raise ValueError("no scenarios to evaluate")
    dt = scenarios[0].dt
    for scn in scenarios:
        if scn.dt != dt:
            raise ValueError(
                f"scenario {scn.scenario_id!r} has time step {scn.dt!r}, the "
                f"first scenario {scenarios[0].scenario_id!r} has {dt!r}; "
                f"one report needs one time step")
    steps_per_s = max(int(round(1.0 / dt)), 1)
    t_total = scenarios[0].horizon_future
    horizons_s = [s for s in (1, 2, 3, 4, 5) if s * steps_per_s <= t_total]
    horizon_steps = [s * steps_per_s for s in horizons_s]
    if not horizon_steps:  # sub-second horizon: report the full span
        horizons_s = [1]
        horizon_steps = [t_total]
    report = MetricsReport(horizons_s)
    h_max = horizon_steps[-1]

    for scn in scenarios:
        if not scn.has_future.all():
            raise ValueError(
                f"scenario {scn.scenario_id!r} lacks ground-truth futures")
        jp = predict_fn(scn)
        k_sel = select_mode(jp)
        try:
            lateral, _ = label_intentions(scn.future[scn.ego_index])
        except ValueError:
            lateral = "ST"
        subsets = ["all",
                   "conflict" if scn.template == "crossing_conflict"
                   else "normal",
                   lateral]

        predicted = scn.prediction_rows(jp.agent_ids)
        span = min(jp.trajectories.shape[2], scn.future.shape[1])
        if h_max > span:
            raise ValueError(f"horizon {h_max} exceeds trajectory "
                             f"length {span}")
        truth = scn.future[predicted, :h_max, :2]
        model_a, model_f = _horizon_metrics(
            np.asarray(jp.trajectories, dtype=np.float64)[:, :, :h_max],
            truth, horizon_steps)
        cv = constant_velocity_baselines(scn.past[predicted], h_max, scn.dt)
        rows = np.arange(len(predicted))
        best = np.argmin(model_a[:, :, -1], axis=0)
        estimates = {
            "model_selected": (model_a[k_sel], model_f[k_sel]),
            "model_best": (model_a[best, rows], model_f[best, rows]),
            "cv": _horizon_metrics(cv, truth, horizon_steps),
        }
        ego = jp.agent_ids.index(scn.ego_id)
        ego_first = [ego] + [i for i in rows if i != ego]
        for est in ESTIMATORS:
            a_vals, f_vals = estimates[est]
            all_a = np.mean(a_vals[ego_first], axis=0)
            all_f = np.mean(f_vals[ego_first], axis=0)
            for subset in subsets:
                report.add(subset, est, "ego", a_vals[ego], f_vals[ego])
                report.add(subset, est, "all", all_a, all_f)
    return report
