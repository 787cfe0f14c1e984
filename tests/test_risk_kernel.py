"""The batched risk kernel against the scalar per-step reference on model
predictions (risks, boundary risk, costs, order, training loss, delta-v and
struck region, and every step's collision probability and harm), the tail
gate of the disc probability, the bound that gates the kernel's pair
probabilities, the join of predictions to scenes by agent id, and
invariances of predict -> rank_trajectories."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import chndtr
from scipy.stats import ncx2

from riskcast import risk
from riskcast.geometry import (CollisionRegion, collision_angle,
                               collision_region)
from riskcast.intention import select_mode
from riskcast.model import JointPredictor, ModelConfig
from riskcast.risk import (BOUND_SLACK, REGIONS, TAIL_CUT, RiskConfig,
                           _road_boundaries, batch_from_prediction, care_cost,
                           collision_probability, delta_v, disc_probability,
                           harm, pair_bound, pair_harm, rank_trajectories,
                           responsiveness_cost, risk_kernel,
                           risk_loss_and_grad, safety_cost, total_risk_cost)
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


def reference_pair(batch, k, v, e, t, cfg):
    """(collision probability, harm) of victim v against the ego e at step t
    of mode k from the per-step formulas."""
    victim, ego = batch.state(k, v, t), batch.state(k, e, t)
    return (collision_probability(victim, ego, cfg.uncertainty.sigma(t + 1)),
            pair_harm(victim, ego, cfg.harm,
                      cfg.harm_scale(victim.protected_flag)))


def reference_mode(jp, scn, k, cfg):
    """(risks, R_b, l_risk, score) of mode k from the per-step formulas."""
    u, coeffs = cfg.uncertainty, cfg.harm
    batch = predicted_batch(jp, scn)
    e, horizon = batch.agent_ids.index(scn.ego.agent_id), batch.yaws.shape[2]
    risks = np.array([
        max(math.prod(reference_pair(batch, k, v, e, t, cfg))
            for t in range(horizon))
        for v in range(len(batch.agent_ids)) if v != e])
    boundaries = [p for p in scn.map if p.kind == "road_boundary"]
    speeds = np.linalg.norm(batch.velocities[k, e], axis=1)
    r_b = max(
        harm(speeds[t], CollisionRegion.SIDE, coeffs)
        * float(disc_probability(
            loop_clearance(batch.positions[k, e, t], boundaries),
            0.5 * batch.widths[e], u.sigma(t + 1)))
        for t in range(horizon))
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
    predicted = scn.take(scn.prediction_rows(jp.agent_ids))
    loss, _ = risk_loss_and_grad(jp.trajectories[k], predicted,
                                 predicted.ego_index, cfg)
    assert loss == pytest.approx(reports[k].l_risk, rel=1e-12, abs=0)


def predicted_batch(jp, scn):
    """Every mode of the prediction, as rank_trajectories batches it."""
    return batch_from_prediction(scn.take(scn.prediction_rows(jp.agent_ids)),
                                 jp.trajectories)


def kernel_terms(jp, scn, cfg):
    """The batch and the risk kernel's output for every mode, as
    rank_trajectories has them."""
    batch = predicted_batch(jp, scn)
    return batch, risk_kernel(batch, batch.agent_ids.index(scn.ego.agent_id),
                              _road_boundaries(scn), cfg)


def ncx2_disc_probability(dist, radius, sigma):
    """The disc probability without the tail gate."""
    return np.clip(ncx2.cdf((radius / sigma) ** 2, 2, (dist / sigma) ** 2),
                   0.0, 1.0)


def test_tail_bound_holds_past_the_cut():
    gap, beta = np.meshgrid(np.linspace(TAIL_CUT, 40.0, 193),
                            np.linspace(0.0, 60.0, 121)[1:])
    alpha = beta + gap
    p = chndtr(beta ** 2, 2.0, alpha ** 2)
    bound = np.exp(-0.5 * gap ** 2)
    assert (p <= bound).all()
    assert (p[bound == 0.0] == 0.0).all()
    gated = disc_probability(alpha, beta, 1.0)
    assert (gated[alpha - beta > TAIL_CUT] == 0.0).all()


@pytest.mark.parametrize("template,n,seed", PARITY_SCENES)
def test_gated_disc_probability_matches_ncx2(model, template, n, seed):
    scn = generate_scenario(template, n, seed)
    jp = with_truth_mode(model.predict(scn)[0], scn)
    cfg = RiskConfig()
    _, terms = kernel_terms(jp, scn, cfg)
    sigma = cfg.uncertainty.sigma_array(jp.trajectories.shape[2])
    calls = [(terms.dists, terms.radii[:, None, None],
              terms.pair_sigma[:, None]),
             (terms.clearance, 0.5 * scn.ego.width, sigma)]
    for dist, radius, s in calls:
        gated = disc_probability(dist, radius, s)
        oracle = ncx2_disc_probability(dist, radius, s)
        np.testing.assert_allclose(gated, oracle, rtol=0, atol=1e-12)
        skipped = np.broadcast_to(dist / s - radius / s > TAIL_CUT,
                                  gated.shape)
        assert (gated[skipped] == 0.0).all()
        assert np.array_equal(gated[~skipped], oracle[~skipped])
    # the gate and the exact CDF both take part on the pair elements
    assert 0.0 < (terms.dists / terms.pair_sigma[:, None]
                  - terms.radii[:, None, None] / terms.pair_sigma[:, None]
                  > TAIL_CUT).mean() < 1.0


def test_pair_bound_holds():
    """disc_probability <= pair_bound * (1 + BOUND_SLACK) with beta down to
    1e-8, alpha <= beta, and alpha - beta up to past TAIL_CUT; the other
    two body points are out of reach, so the bound is of one disc."""
    beta = np.logspace(-8.0, 1.7, 80)[:, None]
    alpha = np.concatenate([beta * np.linspace(0.0, 1.0, 21),
                            beta + np.linspace(0.0, TAIL_CUT + 0.5, 120)],
                           axis=1)
    beta = np.broadcast_to(beta, alpha.shape).ravel()
    alpha = alpha.ravel()
    dists = np.full((1, alpha.size, 1, 3), np.inf)
    dists[0, :, 0, 0] = alpha
    bound = pair_bound(dists, beta, np.array([1.0]))[0][0, :, 0]
    p = disc_probability(alpha, beta, 1.0)
    assert (p <= bound * (1.0 + BOUND_SLACK)).all()
    # the bound is tight to rounding where beta -> 0 and alpha <= beta, so
    # the slack is needed there
    tiny = (beta < 1e-6) & (alpha <= beta)
    assert (p[tiny] / bound[tiny]).max() == pytest.approx(1.0, abs=1e-12)
    # exactly 0 where disc_probability is, past TAIL_CUT
    assert (bound[alpha - beta > TAIL_CUT] == 0.0).all()


# the parity scenes and the benchmark's normal and conflict templates
GATE_SCENES = PARITY_SCENES + [
    (template, n, 5) for template in ("straight", "left_turn", "right_turn",
                                      "merge", "crossing_conflict")
    for n in (3, 8, 16)]


@pytest.mark.parametrize("template,n,seed", GATE_SCENES)
def test_gated_risks_are_the_full_maximum(model, template, n, seed):
    scn = generate_scenario(template, n, seed)
    jp = with_truth_mode(model.predict(scn)[0], scn)
    _, terms = kernel_terms(jp, scn, RiskConfig())
    weighted = terms.harms * terms.probs
    assert np.array_equal(terms.steps, weighted.argmax(axis=-1))
    assert np.array_equal(terms.risks.view(np.int64),
                          weighted.max(axis=-1).view(np.int64))
    assert np.array_equal(terms.step_sums, np.take_along_axis(
        terms.prob_sums, terms.steps[..., None], axis=-1)[..., 0])


def test_gate_skips_pair_probabilities(model, monkeypatch):
    scn = generate_scenario("merge", 8, seed=1)
    jp, _ = model.predict(scn)
    sizes = []

    def counted(dist, radius, sigma):
        sizes.append(np.size(dist))
        return disc_probability(dist, radius, sigma)

    monkeypatch.setattr(risk, "disc_probability", counted)
    rank_trajectories(jp, scn)
    k, n, t, _ = jp.trajectories.shape
    # two pair calls and the boundary call, which is not gated
    assert len(sizes) == 3 and sizes[2] == k * t
    assert 0 < sizes[0] + sizes[1] < 0.5 * k * (n - 1) * t * 3


@pytest.mark.parametrize("template,n,seed", PARITY_SCENES)
def test_kernel_keeps_delta_v_and_struck_region(model, template, n, seed):
    scn = generate_scenario(template, n, seed)
    jp = with_truth_mode(model.predict(scn)[0], scn)
    cfg = RiskConfig()
    batch, terms = kernel_terms(jp, scn, cfg)
    e = batch.agent_ids.index(scn.ego.agent_id)
    speeds = np.linalg.norm(batch.velocities, axis=-1)
    shape = terms.probs.shape
    assert terms.delta_v.shape == terms.region.shape == shape
    for k in range(shape[0]):
        for m, v in enumerate(terms.victims):
            t = terms.steps[k, m]
            victim, ego = batch.state(k, v, t), batch.state(k, e, t)
            assert terms.delta_v[k, m, t] == pytest.approx(delta_v(
                victim.mass, ego.mass, speeds[k, v, t], speeds[k, e, t],
                collision_angle(victim, ego)), rel=1e-12, abs=1e-12)
            assert REGIONS[terms.region[k, m, t]] == collision_region(
                victim, ego)


@pytest.mark.parametrize("template,n,seed", PARITY_SCENES)
def test_every_step_matches_per_step_reference(model, template, n, seed):
    scn = generate_scenario(template, n, seed)
    jp = with_truth_mode(model.predict(scn)[0], scn)
    cfg = RiskConfig()
    batch, terms = kernel_terms(jp, scn, cfg)
    e = batch.agent_ids.index(scn.ego.agent_id)
    probs, harms = np.empty_like(terms.probs), np.empty_like(terms.harms)
    for k, m, t in np.ndindex(terms.probs.shape):
        probs[k, m, t], harms[k, m, t] = reference_pair(
            batch, k, terms.victims[m], e, t, cfg)
    assert np.array_equal(probs, terms.probs)
    np.testing.assert_allclose(harms, terms.harms, rtol=1e-12, atol=0)


def test_ranks_scene_with_agent_dropped_by_context_radius(model):
    scn = generate_scenario("crossing_conflict", 3, seed=0)
    jp, _ = model.predict(scn)
    assert jp.agent_ids == ["ego", "crosser"]   # the pedestrian is >50 m away
    order, reports = rank_trajectories(jp, scn)
    assert sorted(order) == list(range(len(reports)))
    assert all(r.agent_ids == ["crosser"] for r in reports)


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
    others = [i for i in range(len(scn.agent_ids)) if i != scn.ego_index]
    perm = np.random.default_rng(seed).permutation(len(others))
    rows = [others[i] for i in perm]
    rows.insert(2, scn.ego_index)
    shuffled = scn.take(rows)
    _assert_same_plan(_plan(model, scn), _plan(model, shuffled))
