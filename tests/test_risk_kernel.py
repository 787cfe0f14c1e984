"""The batched risk kernel against the scalar per-step reference on model
predictions (risks, boundary risk, costs, order, training loss), the join of
predictions to scenes by agent id, and invariances of predict ->
rank_trajectories."""

import math
from dataclasses import replace

import numpy as np
import pytest

from riskcast.geometry import CollisionRegion
from riskcast.intention import select_mode
from riskcast.model import JointPredictor, ModelConfig
from riskcast.risk import (RiskConfig, care_cost, collision_probability,
                           disc_probability, harm, pair_harm,
                           rank_trajectories, responsiveness_cost,
                           risk_loss_and_grad, safety_cost, total_risk_cost,
                           track_from_prediction)
from riskcast.scene import _apply_rigid, generate_scenario

# (template, N, seed); the 50 m context radius drops the pedestrian of the
# crossing_conflict scene
PARITY_SCENES = [("crossing_conflict", 3, 0), ("merge", 8, 1),
                 ("left_turn", 16, 2)]


@pytest.fixture(scope="module")
def model():
    return JointPredictor(ModelConfig())


def loop_clearance(p, polylines):
    """Distance from p to the nearest segment, one segment at a time."""
    best = math.inf
    for poly in polylines:
        w = poly.waypoints
        for a, b in zip(w[:-1], w[1:]):
            ab = b - a
            denom = float(ab @ ab)
            s = 0.0 if denom == 0.0 else \
                float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
            best = min(best, float(np.linalg.norm(p - (a + s * ab))))
    return best


def reference_mode(jp, scn, k, cfg):
    """(risks, R_b, l_risk, score) of mode k from the per-step formulas."""
    u, coeffs = cfg.uncertainty, cfg.harm
    by_id = {a.agent_id: a for a in scn.agents}
    tracks = [track_from_prediction(by_id[aid], jp.trajectories[k, i], scn.dt)
              for i, aid in enumerate(jp.agent_ids)]
    ego = tracks[jp.agent_ids.index(scn.ego.agent_id)]
    risks = np.array([
        max(pair_harm(v, ego, t, coeffs, cfg.harm_scale(v.protected_flag))
            * collision_probability(v, ego, t, u) for t in range(v.horizon))
        for v in tracks if v is not ego])
    boundaries = [p for p in scn.map if p.kind == "road_boundary"]
    r_b = max(
        harm(ego.speeds[t], CollisionRegion.SIDE, coeffs)
        * float(disc_probability(loop_clearance(ego.positions[t], boundaries),
                                 0.5 * ego.width, u.sigma(t + 1)))
        for t in range(ego.horizon))
    l_risk = total_risk_cost(safety_cost(risks, r_b), care_cost(risks),
                             responsiveness_cost(risks), cfg.weights)
    score = l_risk - cfg.prob_tradeoff * math.log(
        max(float(jp.mode_probs[k]), 1e-12))
    return risks, r_b, l_risk, score


def with_truth_mode(jp, scn):
    """The prediction plus one mode made of the agents' ground-truth
    futures, which holds the scene's close encounters."""
    by_id = {a.agent_id: a for a in scn.agents}
    truth = np.array([by_id[aid].future[:, :2] for aid in jp.agent_ids])
    probs = np.append(jp.mode_probs, 0.5) / 1.5
    return replace(jp, trajectories=np.concatenate(
        [jp.trajectories, truth[None]]), mode_probs=probs)


@pytest.mark.parametrize("template,n,seed", PARITY_SCENES)
def test_kernel_matches_per_step_reference(model, template, n, seed):
    scn = generate_scenario(template, n, seed)
    jp = with_truth_mode(model.predict(scn)[0], scn)
    cfg = RiskConfig()
    order, reports = rank_trajectories(jp, scn, cfg)
    scores = []
    for k, report in enumerate(reports):
        risks, r_b, l_risk, score = reference_mode(jp, scn, k, cfg)
        np.testing.assert_allclose(report.risks, risks, rtol=1e-12, atol=0)
        assert report.boundary == pytest.approx(r_b, rel=1e-12, abs=0)
        assert report.l_risk == pytest.approx(l_risk, rel=1e-12, abs=0)
        scores.append(score)
    assert order == sorted(range(len(scores)), key=scores.__getitem__)
    # both risk terms are exercised
    assert max(r.risks.max() for r in reports) > 1e-3
    assert max(r.boundary for r in reports) > 1e-3

    k = select_mode(jp)
    by_id = {a.agent_id: a for a in scn.agents}
    predicted = replace(scn, agents=[by_id[aid] for aid in jp.agent_ids],
                        ego_index=jp.agent_ids.index(scn.ego.agent_id))
    loss, _ = risk_loss_and_grad(jp.trajectories[k], predicted,
                                 predicted.ego_index, cfg)
    assert loss == pytest.approx(reports[k].l_risk, rel=1e-12, abs=0)


def test_ranks_scene_with_agent_dropped_by_context_radius(model):
    scn = generate_scenario("crossing_conflict", 3, seed=0)
    jp, _ = model.predict(scn)
    assert jp.agent_ids == ["ego", "crosser"]   # the pedestrian is >50 m away
    order, reports = rank_trajectories(jp, scn)
    assert sorted(order) == list(range(len(reports)))
    assert all(r.agent_ids == ["crosser"] for r in reports)
    assert all(set(r.collision_probs) == {"crosser"} for r in reports)


def test_prediction_without_the_ego_is_rejected(model):
    scn = generate_scenario("straight", 3, seed=1)
    jp, _ = model.predict(scn)
    others = replace(jp, trajectories=jp.trajectories[:, 1:],
                     agent_ids=jp.agent_ids[1:])
    with pytest.raises(ValueError, match="ego"):
        rank_trajectories(others, scn)
    unknown = replace(jp, agent_ids=["ego", "a1", "nobody"])
    with pytest.raises(ValueError, match="nobody"):
        rank_trajectories(unknown, scn)


def _plan(model, scn):
    jp, _ = model.predict(scn)
    order, reports = rank_trajectories(jp, scn)
    return order, reports


def _assert_same_plan(a, b):
    order_a, reports_a = a
    order_b, reports_b = b
    assert order_a == order_b
    for ra, rb in zip(reports_a, reports_b):
        risks_a = dict(zip(ra.agent_ids, ra.risks))
        risks_b = dict(zip(rb.agent_ids, rb.risks))
        assert risks_a.keys() == risks_b.keys()
        for aid in risks_a:
            assert risks_b[aid] == pytest.approx(risks_a[aid], rel=1e-8,
                                                 abs=1e-15)
        for name in ("boundary", "c_s", "c_c", "c_r", "l_risk", "score"):
            assert getattr(rb, name) == pytest.approx(
                getattr(ra, name), rel=1e-8, abs=1e-15)


@pytest.mark.parametrize("template,n,seed", [("crossing_conflict", 8, 8),
                                             ("merge", 8, 1)])
def test_plan_invariant_under_rigid_transform(model, template, n, seed):
    scn = generate_scenario(template, n, seed)
    moved = _apply_rigid(scn, np.array([37.0, -61.0]), 2.3)
    _assert_same_plan(_plan(model, scn), _plan(model, moved))


@pytest.mark.parametrize("template,n,seed", [("crossing_conflict", 8, 8),
                                             ("merge", 8, 1)])
def test_plan_invariant_under_non_ego_permutation(model, template, n, seed):
    scn = generate_scenario(template, n, seed)
    ego = scn.agents[scn.ego_index]
    others = [a for a in scn.agents if a is not ego]
    perm = np.random.default_rng(seed).permutation(len(others))
    agents = [others[i] for i in perm]
    agents.insert(2, ego)
    shuffled = replace(scn, agents=agents, ego_index=2)
    _assert_same_plan(_plan(model, scn), _plan(model, shuffled))
