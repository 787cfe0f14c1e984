"""Displacement metrics, the constant-velocity baseline, and per-subset
evaluation reports (normal vs conflict scenes, and by ego lateral intention).

ADE at horizon h is the mean Euclidean error over the first h steps; FDE is
the error at step h. Reports carry the mode-selected metric (primary), the
best-over-modes metric, and the constant-velocity baseline, for the ego
alone and averaged over all predicted agents. A report keeps each scene's
subsets and one error array [estimator, scope, metric, horizon], ordered as
``ESTIMATORS``, ``SCOPES`` and ``METRICS``; a subset's figures are the mean
of its scenes' arrays.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import norm2
from .intention import JointPrediction, label_intentions, select_mode
from .scene import Scenario

SUBSETS = ("all", "normal", "conflict", "LT", "ST", "RT")
ESTIMATORS = ("model_selected", "model_best", "cv")
SCOPES = ("ego", "all")
METRICS = ("ade", "fde")


def _check_horizon(horizon_steps: int, length: int) -> None:
    if horizon_steps < 1:
        raise ValueError("horizon must be at least one step")
    if horizon_steps > length:
        raise ValueError(f"horizon {horizon_steps} exceeds trajectory "
                         f"length {length}")


def ade(pred: np.ndarray, truth: np.ndarray, horizon_steps: int) -> float:
    """Mean L2 distance over the first horizon_steps steps."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    _check_horizon(horizon_steps, min(len(pred), len(truth)))
    err = norm2(pred[:horizon_steps] - truth[:horizon_steps])
    return float(err.mean())


def fde(pred: np.ndarray, truth: np.ndarray, horizon_steps: int) -> float:
    """L2 distance at exactly step horizon_steps."""
    _check_horizon(horizon_steps, min(len(pred), len(truth)))
    d = np.asarray(pred)[horizon_steps - 1] - np.asarray(truth)[
        horizon_steps - 1]
    return float(norm2(d))


def constant_velocity_baseline(past: np.ndarray, horizon: int,
                               dt: float) -> np.ndarray:
    """Extrapolate the last observed velocity of one agent's past [S, 5];
    a single-state past holds position."""
    last = past[-1]
    v = last[3:] if len(past) > 1 else np.zeros(2)
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
    scenes: list[tuple[tuple, np.ndarray]] = field(default_factory=list)

    def mean(self, subset: str, estimator: str, scope: str,
             metric: str) -> np.ndarray:
        at = (ESTIMATORS.index(estimator), SCOPES.index(scope),
              METRICS.index(metric))
        errors = [e[at] for subsets, e in self.scenes if subset in subsets]
        if not errors:
            return np.full(len(self.horizons_s), math.nan)
        return np.mean(np.stack(errors), axis=0)

    def count(self, subset: str) -> int:
        return sum(subset in subsets for subsets, _ in self.scenes)

    def rows(self) -> list[dict]:
        out = []
        for subset, estimator, scope, metric in itertools.product(
                SUBSETS, ESTIMATORS, SCOPES, METRICS):
            vals = self.mean(subset, estimator, scope, metric)
            out.append({
                "subset": subset,
                "estimator": estimator,
                "scope": scope,
                "metric": metric,
                "count": self.count(subset),
                **{f"h{h}s": float(v) for h, v in zip(self.horizons_s, vals)},
            })
        return out

    def write_csv(self, path: str) -> None:
        rows = self.rows()
        with open(path, "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
            w.writeheader()
            w.writerows(rows)

    def to_json(self) -> dict:
        """The rows as a JSON document; a subset without a scene has null
        where `rows()` has NaN."""
        empty = dict.fromkeys((f"h{h}s" for h in self.horizons_s), None)
        return {"horizons_s": self.horizons_s,
                "rows": [row if row["count"] else row | empty
                         for row in self.rows()]}


def _horizon_metrics(pred: np.ndarray, truth: np.ndarray,
                     horizons: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """ADE and FDE of pred [..., T, 2] against truth [N, T, 2] at every
    horizon, as ``ade``/``fde`` compute them: two arrays [..., N, horizons].
    """
    err = norm2(pred - truth)
    a = np.stack([err[..., :h].sum(axis=-1) / h for h in horizons], axis=-1)
    return a, err[..., np.asarray(horizons) - 1]


def evaluate(predict_fn: Callable[[Scenario], JointPrediction],
             scenarios: list[Scenario]) -> MetricsReport:
    """Score a predictor over scenarios with ground-truth futures.

    predict_fn returns a joint prediction in global coordinates covering a
    subset of the scenario's agents (at least the ego). The errors of a
    scene are computed once for every mode, agent and step; best-of-modes
    takes the first mode with the lowest ADE at the longest horizon. The
    horizons are whole seconds of the first scenario's time step, so every
    scenario must share it. A scene with an error that is not finite (a
    prediction or a baseline that overflows) raises ValueError naming it.
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
        lateral, _ = label_intentions(scn.future[scn.ego_index])
        subsets = ("all", "conflict" if scn.template == "crossing_conflict"
                   else "normal", lateral)

        predicted = scn.prediction_rows(jp.agent_ids)
        span = min(jp.trajectories.shape[2], scn.future.shape[1])
        if h_max > span:
            raise ValueError(f"scenario {scn.scenario_id!r}: horizon "
                             f"{h_max} exceeds trajectory length {span}")
        truth = scn.future[predicted, :h_max, :2]
        # an error that overflows is reported by the finiteness check
        # below, not by numpy's warnings on the way
        with np.errstate(over="ignore", invalid="ignore"):
            # the K modes and, as mode K, the constant-velocity baseline
            a, f = _horizon_metrics(np.concatenate([
                np.asarray(jp.trajectories, dtype=np.float64)[:, :, :h_max],
                constant_velocity_baselines(scn.past[predicted], h_max,
                                            scn.dt)[None]]),
                truth, horizon_steps)
        if not (np.isfinite(a).all() and np.isfinite(f).all()):
            raise ValueError(f"scenario {scn.scenario_id!r}: an error is "
                             f"not finite")
        n = len(predicted)
        # each estimator's mode of each agent; one reduction of the errors
        # [estimator, metric, agent, horizon] they pick gives every
        # all-agent mean, so equal picks give equal means
        modes = np.stack([np.full(n, k_sel), np.argmin(a[:-1, :, -1], axis=0),
                          np.full(n, len(a) - 1)])
        rows = np.arange(n)
        per_agent = np.stack([a[modes, rows], f[modes, rows]], axis=1)
        ego = jp.agent_ids.index(scn.ego_id)
        report.scenes.append((subsets, np.stack(
            [per_agent[:, :, ego], per_agent.sum(axis=2) / n], axis=1)))
    return report
