"""Displacement metric, baseline, and report-aggregation tests."""

import itertools
import json
import math

import numpy as np
import pytest

from riskcast.evaluation import (MetricsReport, ade,
                                 constant_velocity_baseline,
                                 constant_velocity_baselines, evaluate, fde)
from riskcast.geometry import rotate2
from riskcast.intention import JointPrediction, label_intentions, select_mode
from riskcast.model import JointPredictor, ModelConfig
from riskcast.scene import generate_scenario


class TestAde:
    def test_perfect(self):
        t = np.arange(10, dtype=float).reshape(5, 2)
        assert ade(t, t, 5) == 0.0

    def test_constant_offset(self):
        truth = np.zeros((8, 2))
        pred = truth + np.array([1.0, 0.0])
        for h in (1, 4, 8):
            assert ade(pred, truth, h) == pytest.approx(1.0, abs=1e-12)

    def test_growing_offset_series(self):
        truth = np.zeros((10, 2))
        pred = np.zeros((10, 2))
        pred[:, 0] = 0.1 * np.arange(1, 11)
        assert ade(pred, truth, 10) == pytest.approx(0.55, abs=1e-12)

    def test_zero_horizon_rejected(self):
        with pytest.raises(ValueError):
            ade(np.zeros((5, 2)), np.zeros((5, 2)), 0)

    def test_horizon_beyond_length_rejected(self):
        with pytest.raises(ValueError):
            ade(np.zeros((5, 2)), np.zeros((5, 2)), 6)


class TestFde:
    def test_perfect(self):
        t = np.arange(10, dtype=float).reshape(5, 2)
        assert fde(t, t, 5) == 0.0

    def test_constant_offset(self):
        truth = np.zeros((8, 2))
        pred = truth + np.array([0.0, 2.0])
        assert fde(pred, truth, 8) == pytest.approx(2.0, abs=1e-12)

    def test_growing_offset(self):
        truth = np.zeros((10, 2))
        pred = np.zeros((10, 2))
        pred[:, 0] = 0.1 * np.arange(1, 11)
        assert fde(pred, truth, 10) == pytest.approx(1.0, abs=1e-12)

    def test_equals_single_step_ade(self):
        rng = np.random.default_rng(0)
        pred = rng.normal(size=(10, 2))
        truth = rng.normal(size=(10, 2))
        for h in (1, 5, 10):
            assert fde(pred, truth, h) == pytest.approx(
                ade(pred[h - 1:h], truth[h - 1:h], 1), abs=1e-12)


class TestRigidInvariance:
    def test_metrics_invariant_under_rigid_transform(self):
        rng = np.random.default_rng(1)
        pred = rng.normal(size=(12, 2)) * 10
        truth = rng.normal(size=(12, 2)) * 10
        shift = np.array([42.0, -7.0])
        pred2 = rotate2(pred, 0.83) + shift
        truth2 = rotate2(truth, 0.83) + shift
        for h in (1, 6, 12):
            assert ade(pred2, truth2, h) == pytest.approx(
                ade(pred, truth, h), abs=1e-9)
            assert fde(pred2, truth2, h) == pytest.approx(
                fde(pred, truth, h), abs=1e-9)


class TestBaseline:
    def history(self, v, n=5, dt=0.1):
        return np.array([(v * dt * t, 0.0, 0.0, v, 0.0) for t in range(n)])

    def test_constant_velocity_truth_gives_zero(self):
        h = self.history(v=4.0)
        pred = constant_velocity_baseline(h, horizon=10, dt=0.1)
        truth = np.array([[h[-1, 0] + 4.0 * 0.1 * t, 0.0]
                          for t in range(1, 11)])
        assert ade(pred, truth, 10) == pytest.approx(0.0, abs=1e-12)

    def test_turning_truth_gives_error(self):
        scn = generate_scenario("left_turn", 1, seed=2)
        truth = scn.future[scn.ego_index, :, :2]
        pred = constant_velocity_baseline(scn.past[scn.ego_index], len(truth),
                                          scn.dt)
        assert ade(pred, truth, len(truth)) > 0.5

    def test_single_state_holds_position(self):
        pred = constant_velocity_baseline(np.array([[3.0, 4.0, 0.0, 9.0,
                                                     0.0]]), 5, 0.1)
        assert np.allclose(pred, [[3.0, 4.0]] * 5)

    def test_deterministic(self):
        h = self.history(v=7.0)
        a = constant_velocity_baseline(h, 10, 0.1)
        b = constant_velocity_baseline(h, 10, 0.1)
        assert np.array_equal(a, b)

    def test_all_agents_at_once_equal_each_agent(self):
        scn = generate_scenario("merge", 8, seed=4)
        single = np.array([[[3.0, 4.0, 0.5, -2.0, 7.0]]])
        for past, dt in ((scn.past, scn.dt), (scn.past, 0.3), (single, 0.1)):
            want = np.array([constant_velocity_baseline(p, 17, dt)
                             for p in past])
            assert np.array_equal(constant_velocity_baselines(past, 17, dt),
                                  want)


def oracle_predict(scn):
    """A predictor that returns the ground truth as its single mode."""
    trajs = scn.future[None, :, :, :2].copy()
    return JointPrediction(trajs, np.array([1.0]), scn.agent_ids.tolist(),
                           scn.scenario_id)


class TestEvaluate:
    def test_oracle_model_scores_zero(self):
        scns = [generate_scenario("straight", 2, s) for s in range(3)]
        report = evaluate(oracle_predict, scns)
        for scope in ("ego", "all"):
            vals = report.mean("all", "model_selected", scope, "ade")
            assert np.allclose(vals, 0.0, atol=1e-12)

    def test_subset_assignment(self):
        scns = [generate_scenario("left_turn", 2, 1),
                generate_scenario("crossing_conflict", 3, 2)]
        report = evaluate(oracle_predict, scns)
        assert report.count("LT") == 1
        assert report.count("conflict") == 1
        assert report.count("normal") == 1
        assert report.count("all") == 2

    def test_aggregation_is_mean_of_per_scenario(self):
        scns = [generate_scenario("straight", 1, s) for s in range(4)]
        report = evaluate(lambda s: oracle_predict(s), scns)
        assert len(report.scenes) == 4
        # errors [estimator, scope, metric, horizon]: cv, ego, ade
        by_hand = sum(errors[2, 0, 0] for _, errors in report.scenes) / 4
        assert np.allclose(report.mean("all", "cv", "ego", "ade"), by_hand,
                           atol=1e-12)

    def test_missing_future_rejected(self):
        scn = generate_scenario("straight", 1, 0)
        scn.has_future[0] = False
        with pytest.raises(ValueError, match="futures"):
            evaluate(oracle_predict, [scn])

    def test_horizon_beyond_a_scene_names_it(self):
        # the first scene sets a 5 s horizon, 50 steps; the second has 30
        long = generate_scenario("straight", 2, 0, T=50)
        short = generate_scenario("merge", 2, 2, T=30)
        with pytest.raises(ValueError, match=(
                "^scenario 'merge-2': horizon 50 exceeds trajectory length "
                "30$")):
            evaluate(oracle_predict, [long, short])
        # a prediction of 20 steps, as a model with future_steps=20 makes
        jp = oracle_predict(long)
        jp.trajectories = jp.trajectories[:, :, :20]
        with pytest.raises(ValueError, match=(
                "^scenario 'straight-0': horizon 50 exceeds trajectory "
                "length 20$")):
            evaluate(lambda s: jp, [long])

    def test_mixed_time_steps_rejected(self):
        scns = [generate_scenario("straight", 2, 0),
                generate_scenario("straight", 2, 1, dt=0.05)]
        for order in (scns, scns[::-1]):
            with pytest.raises(ValueError, match=(
                    f"scenario '{order[1].scenario_id}' has time step")):
                evaluate(oracle_predict, order)

    def test_report_rows_and_csv(self, tmp_path):
        scns = [generate_scenario("straight", 2, s) for s in range(2)]
        report = evaluate(oracle_predict, scns)
        rows = report.rows()
        assert all({"subset", "estimator", "scope", "metric"} <= set(r)
                   for r in rows)
        path = tmp_path / "metrics.csv"
        report.write_csv(str(path))
        header = path.read_text().splitlines()[0]
        assert header.startswith("subset,estimator,scope,metric,count,h1s")
        doc = report.to_json()
        assert doc["horizons_s"] == report.horizons_s
        # the subsets without a scene are null, so the document is strict
        assert json.loads(json.dumps(doc, allow_nan=False))["rows"] == [
            row if row["count"] else row | dict.fromkeys(
                [f"h{h}s" for h in report.horizons_s]) for row in rows]

    def test_cv_baseline_reported(self):
        scns = [generate_scenario("left_turn", 1, s) for s in range(2)]
        report = evaluate(oracle_predict, scns)
        cv = report.mean("LT", "cv", "ego", "ade")
        assert cv[-1] > 0.5  # turning scenes defeat constant velocity


def reference_evaluate(predict_fn, scenarios):
    """evaluate's former per-agent, per-mode, per-horizon loop over the
    public ade/fde, each scene's errors [estimator, scope, metric, horizon]
    gathered from it."""
    steps_per_s = max(int(round(1.0 / scenarios[0].dt)), 1)
    t_total = scenarios[0].horizon_future
    horizons_s = [s for s in (1, 2, 3, 4, 5) if s * steps_per_s <= t_total]
    horizon_steps = [s * steps_per_s for s in horizons_s]
    report = MetricsReport(horizons_s)

    def metrics(pred, truth):
        return (np.array([ade(pred, truth, h) for h in horizon_steps]),
                np.array([fde(pred, truth, h) for h in horizon_steps]))

    for scn in scenarios:
        jp = predict_fn(scn)
        k_sel = select_mode(jp)
        lateral, _ = label_intentions(scn.future[scn.ego_index])
        subsets = ("all", "conflict" if scn.template == "crossing_conflict"
                   else "normal", lateral)
        per_est = [{"ego": [], "others": []} for _ in range(3)]
        for i, aid in enumerate(jp.agent_ids):
            row = scn.row(aid)
            truth = scn.future[row, :, :2]
            best = None
            for k in range(jp.trajectories.shape[0]):
                vals = metrics(jp.trajectories[k, i], truth)
                if best is None or vals[0][-1] < best[0][-1]:
                    best = vals
            cv = constant_velocity_baseline(scn.past[row], truth.shape[0],
                                            scn.dt)
            bucket = "ego" if aid == scn.ego_id else "others"
            for est, vals in zip(per_est, [
                    metrics(jp.trajectories[k_sel, i], truth), best,
                    metrics(cv, truth)]):
                est[bucket].append(vals)
        errors = np.empty((3, 2, 2, len(horizon_steps)))
        for e, est in enumerate(per_est):
            for s, vals in enumerate((est["ego"], est["ego"] + est["others"])):
                for m in range(2):
                    errors[e, s, m] = np.mean([v[m] for v in vals], axis=0)
        report.scenes.append((subsets, errors))
    return report


def _assert_same_rows(report, ref):
    rows, ref_rows = report.rows(), ref.rows()
    assert len(rows) == len(ref_rows)
    for row, ref_row in zip(rows, ref_rows):
        assert row.keys() == ref_row.keys()
        for key, value in row.items():
            if isinstance(value, float):
                if math.isnan(ref_row[key]):
                    assert math.isnan(value), (row, key)
                else:
                    assert abs(value - ref_row[key]) <= 1e-12, (row, key)
            else:
                assert value == ref_row[key]


class TestEvaluateMatchesPerCallLoop:
    def test_model_predictions(self):
        model = JointPredictor(ModelConfig(embed_dim=16, attention_heads=2))
        scns = [generate_scenario(t, n, 40 + i)
                for i, (t, n) in enumerate([
                    ("straight", 16), ("left_turn", 8), ("right_turn", 3),
                    ("merge", 16), ("crossing_conflict", 8)])]

        def predict_fn(scn):
            return model.predict(scn)[0]

        _assert_same_rows(evaluate(predict_fn, scns),
                          reference_evaluate(predict_fn, scns))

    def test_best_of_modes_takes_first_minimum(self):
        # modes 1 and 2 tie at the longest horizon (mean error 1 m over
        # 5 s) but differ before it; the first of them must win
        scn = generate_scenario("straight", 2, 3)
        truth = oracle_predict(scn).trajectories[0]
        t = truth.shape[1]
        offsets = np.zeros((3, t))
        offsets[0] = 3.0
        offsets[1, t // 2:] = 2.0
        offsets[2] = 1.0
        trajs = truth[None] + offsets[:, None, :, None] * [1.0, 0.0]
        assert ade(trajs[1, 0], truth[0], t) == ade(trajs[2, 0], truth[0], t)
        jp = JointPrediction(trajs, np.array([0.5, 0.25, 0.25]),
                             scn.agent_ids.tolist())
        report = evaluate(lambda s: jp, [scn])
        _assert_same_rows(report, reference_evaluate(lambda s: jp, [scn]))
        best = report.mean("all", "model_best", "ego", "ade")
        assert best[0] == pytest.approx(0.0, abs=1e-12)
        assert best[-1] == pytest.approx(1.0, abs=1e-12)


def test_selected_and_best_all_agent_errors_agree_when_one_mode_is_both():
    # mode 0 is the selected mode (p 0.6) and, with mode 1 moved 5 m along
    # x and y, every agent's best mode; both estimators must then report
    # the same all-agent means, to the bit
    templates = ("straight", "left_turn", "right_turn", "merge",
                 "crossing_conflict")
    for template, n, seed in itertools.product(templates, (3, 8, 16),
                                               range(3)):
        scn = generate_scenario(template, n, seed)
        noise = np.random.default_rng(seed).normal(
            scale=0.3, size=scn.future[:, :, :2].shape)
        mode0 = scn.future[:, :, :2] + noise
        jp = JointPrediction(np.stack([mode0, mode0 + 5.0]),
                             np.array([0.6, 0.4]), scn.agent_ids.tolist(),
                             scn.scenario_id)
        errors = evaluate(lambda s: jp, [scn]).scenes[0][1]
        # errors [estimator, scope, metric, horizon]
        assert np.array_equal(errors[0, 1], errors[1, 1]), scn.scenario_id
