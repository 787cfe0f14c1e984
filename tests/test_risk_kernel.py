"""The batched risk kernel against the scalar per-step reference on model
predictions (risks, boundary risk, costs, order, training loss, delta-v and
struck region, and every step's collision probability and harm), the disc
probability's series and its derivative against scipy, the tail gate of the
disc probability, the bound that gates the kernel's rows, the boundary
row's share of the risk gradient against central differences, the join of
predictions to scenes by agent id, and invariances of predict ->
rank_trajectories."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import chdtr, chndtr, i1e
from scipy.stats import ncx2

from riskcast import risk
from riskcast.geometry import (DIST_EPS, SPEED_EPS, CollisionRegion,
                               collision_angle, collision_region, dot2, norm2,
                               wrap_angle)
from riskcast.intention import select_mode
from riskcast.model import JointPredictor, ModelConfig
from riskcast.risk import (BOUND_SLACK, REGIONS, TAIL_CUT, WIDE_Y,
                           HarmCoefficients, RiskConfig, _road_boundaries,
                           batch_from_prediction, care_cost,
                           collision_probability, delta_v, disc_probability,
                           disc_probability_ddist, harm, pair_bound,
                           pair_harm, rank_trajectories, responsiveness_cost,
                           risk_kernel, risk_loss_and_grad, safety_cost,
                           total_risk_cost)
from riskcast.scene import RoadMap, _apply_rigid, generate_scenario

# (template, N, seed); the 50 m context radius drops the pedestrian of the
# crossing_conflict scene
PARITY_SCENES = [("crossing_conflict", 3, 0), ("merge", 8, 1),
                 ("left_turn", 16, 2)]


@pytest.fixture(scope="module")
def model():
    return JointPredictor(ModelConfig())


def loop_clearance(p, polylines):
    """Distance from p to the nearest segment of polylines of [n, 2]
    waypoints, one segment at a time."""
    best = math.inf
    for w in polylines:
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
    e, horizon = batch.agent_ids.index(scn.ego_id), batch.yaws.shape[2]
    risks = np.array([
        max(math.prod(reference_pair(batch, k, v, e, t, cfg))
            for t in range(horizon))
        for v in range(len(batch.agent_ids)) if v != e])
    road = scn.map.of_kind("road_boundary")
    boundaries = [w[:n] for w, n in zip(road.waypoints, road.counts)]
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
    truth = np.array([scn.future[scn.row(aid), :, :2]
                      for aid in jp.agent_ids])
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
    [loss], _ = risk_loss_and_grad(jp.trajectories, [predicted],
                                   np.array([k]), cfg)
    assert loss == pytest.approx(reports[k].l_risk, rel=1e-12, abs=0)


def scene_risk_loss(trajs, scn, cfg):
    """risk_loss_and_grad of one mode [N, T, 2] of one scene."""
    losses, grad = risk_loss_and_grad(trajs[None], [scn], np.array([0]), cfg)
    return losses[0], grad


def predicted_batch(jp, scn):
    """Every mode of the prediction, as rank_trajectories batches it."""
    return batch_from_prediction(
        [scn.take(scn.prediction_rows(jp.agent_ids))], jp.trajectories)


def kernel_terms(jp, scn, cfg):
    """The batch and the risk kernel's output for every mode, as
    rank_trajectories has them."""
    batch = predicted_batch(jp, scn)
    return batch, risk_kernel(batch, [batch.agent_ids.index(scn.ego_id)],
                              [_road_boundaries(scn)], cfg)


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


def series_grid():
    """(alpha, beta) [41, 73]: beta from 1e-8 to past WIDE_Y's beta of 8,
    alpha from 0 to beta + TAIL_CUT."""
    beta = np.concatenate([[1e-8, 1e-4, 1e-2], np.linspace(0.05, 8.5, 70)])
    beta, frac = np.meshgrid(beta, np.linspace(0.0, 1.0, 41))
    return frac * (beta + TAIL_CUT), beta


def test_disc_series_matches_scipy():
    """The series against chndtr (chdtr at alpha = 0) and the i1e form of
    the derivative. Tolerance from the dtype: up to ~120 terms of ~4
    roundings of 2.2e-16 each. Past WIDE_Y both equal scipy's bits."""
    alpha, beta = series_grid()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = disc_probability(alpha, beta, 1.0)
        dp = disc_probability_ddist(alpha, beta, 1.0)
    x, nc = beta ** 2, alpha ** 2
    p_ref = np.clip(np.where(nc == 0.0, chdtr(2.0, x), chndtr(x, 2.0, nc)),
                    0.0, 1.0)
    dp_ref = -beta * np.exp(-0.5 * (alpha - beta) ** 2) * i1e(alpha * beta)
    cut = alpha - beta > TAIL_CUT     # rounding puts a few on the far side
    assert (p[cut] == 0.0).all()
    np.testing.assert_allclose(p[~cut], p_ref[~cut], rtol=1e-13, atol=0)
    np.testing.assert_allclose(dp, dp_ref, rtol=1e-13, atol=0)
    wide = 0.5 * x > WIDE_Y
    assert wide.any() and not wide.all()
    assert np.array_equal(p[wide & ~cut], p_ref[wide & ~cut])
    assert np.array_equal(dp[wide], dp_ref[wide])


def test_disc_series_is_elementwise():
    """An element's value is the same in a call of its own, as the gate's
    bit-for-bit maximum needs; NaN in gives NaN out; and at y = WIDE_Y the
    series stops within its table of steps, also where its first term is
    subnormal (mu = 709)."""
    alpha, beta = series_grid()
    alpha, beta = alpha.ravel(), beta.ravel()
    for f in (disc_probability, disc_probability_ddist):
        one = [f(a, b, 1.0) for a, b in zip(alpha, beta)]
        assert np.array_equal(f(alpha, beta, 1.0), np.array(one))
        out = f(np.array([np.nan, 1.0]), 1.5, 0.8)
        assert np.isnan(out[0]) and np.isfinite(out[1])
    y = np.full(3, WIDE_Y)
    sums = risk._poisson_sums(y, np.array([0.0, 700.0, 709.0]))
    assert np.isfinite(sums).all() and (sums > 0.0).all()
    # the elements the series sets aside, alone and among live ones: y = 0
    # and a first term that underflows (mu = 800) give 0, a NaN gives NaN,
    # and y > WIDE_Y gives NaN for scipy to replace
    y = np.array([0.0, 0.5, np.nan, 40.0, 1.0, 0.5])
    mu = np.array([1.0, np.nan, 1.0, 2.0, 800.0, 3.0])
    want = [0.0, np.nan, np.nan, np.nan, 0.0]
    sums = risk._poisson_sums(y, mu)
    for i, w in enumerate(want):
        assert np.array_equal(sums[:, i], [w, w], equal_nan=True)
        assert np.array_equal(risk._poisson_sums(y[i:i + 1], mu[i:i + 1]),
                              sums[:, i:i + 1], equal_nan=True)
    assert (sums[:, -1] > 0.0).all()


def ungated_disc_probability(dist, radius, sigma):
    """The series of disc_probability at every element, past TAIL_CUT
    too."""
    alpha, beta = np.broadcast_arrays(np.asarray(dist) / sigma,
                                      np.asarray(radius) / sigma)
    p = risk._poisson_sums(0.5 * beta.ravel() ** 2,
                           0.5 * alpha.ravel() ** 2)[0]
    return np.clip(p, 0.0, 1.0).reshape(alpha.shape)


@pytest.mark.parametrize("template,n,seed", PARITY_SCENES)
def test_gated_disc_probability_matches_ncx2(model, template, n, seed):
    scn = generate_scenario(template, n, seed)
    jp = with_truth_mode(model.predict(scn)[0], scn)
    cfg = RiskConfig()
    _, terms = kernel_terms(jp, scn, cfg)
    dist, radius, s = np.broadcast_arrays(
        terms.dists, terms.radii[:, None, None], terms.sigma[..., None])
    gated = disc_probability(dist, radius, s)
    # the boundary row's two body points out of reach have no ncx2 value
    reach = np.isfinite(dist)
    assert (gated[~reach] == 0.0).all()
    dist, radius, s, gated = (v[reach] for v in (dist, radius, s, gated))
    oracle = ncx2_disc_probability(dist, radius, s)
    np.testing.assert_allclose(gated, oracle, rtol=0, atol=1e-12)
    skipped = dist / s - radius / s > TAIL_CUT
    assert (gated[skipped] == 0.0).all()
    assert np.array_equal(gated[~skipped], ungated_disc_probability(
        dist, radius, s)[~skipped])
    np.testing.assert_allclose(gated[~skipped], oracle[~skipped],
                               rtol=1e-13, atol=0)
    # the gate and the exact CDF both take part on the victims' elements
    assert 0.0 < (terms.dists[:, :-1] / terms.sigma[:-1, :, None]
                  - terms.radii[:-1, None, None] / terms.sigma[:-1, :, None]
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
    # the boundary row is exercised
    assert terms.risks[:, -1].max() > 0.0


def test_gate_skips_pair_probabilities(model, monkeypatch):
    scn = generate_scenario("merge", 8, seed=1)
    jp, _ = model.predict(scn)
    sizes, infs = [], []

    def counted(dist, radius, sigma):
        sizes.append(np.size(dist))
        infs.append(np.isinf(dist).sum())
        return disc_probability(dist, radius, sigma)

    monkeypatch.setattr(risk, "disc_probability", counted)
    rank_trajectories(jp, scn)
    k, n, t, _ = jp.trajectories.shape
    # one call over the rows of the n - 1 victims and of the boundary; it
    # takes each mode's boundary row at least once, [clearance, inf, inf]
    assert len(sizes) == 1 and infs[0] >= 2 * k and infs[0] % 2 == 0
    assert 0 < sizes[0] < 0.1 * k * n * t * 3


@pytest.mark.parametrize("template,n,seed", PARITY_SCENES)
def test_kernel_keeps_delta_v_and_struck_region(model, template, n, seed):
    scn = generate_scenario(template, n, seed)
    jp = with_truth_mode(model.predict(scn)[0], scn)
    cfg = RiskConfig()
    batch, terms = kernel_terms(jp, scn, cfg)
    e = batch.agent_ids.index(scn.ego_id)
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
    # the boundary row: the ego speed and a side impact at every step
    np.testing.assert_allclose(terms.delta_v[:, -1], speeds[:, e],
                               rtol=1e-12, atol=1e-12)
    assert (terms.region[:, -1] == REGIONS.index(CollisionRegion.SIDE)).all()


@pytest.mark.parametrize("template,n,seed", PARITY_SCENES)
def test_every_step_matches_per_step_reference(model, template, n, seed):
    scn = generate_scenario(template, n, seed)
    jp = with_truth_mode(model.predict(scn)[0], scn)
    cfg = RiskConfig()
    batch, terms = kernel_terms(jp, scn, cfg)
    e = batch.agent_ids.index(scn.ego_id)
    probs, harms = np.empty_like(terms.probs), np.empty_like(terms.harms)
    for k, m, t in np.ndindex(probs[:, :-1].shape):
        probs[k, m, t], harms[k, m, t] = reference_pair(
            batch, k, terms.victims[m], e, t, cfg)
    assert np.array_equal(probs[:, :-1], terms.probs[:, :-1])
    np.testing.assert_allclose(harms[:, :-1], terms.harms[:, :-1],
                               rtol=1e-12, atol=0)
    # the boundary row, as reference_mode computes R_b
    road = scn.map.of_kind("road_boundary")
    boundaries = [w[:n] for w, n in zip(road.waypoints, road.counts)]
    for k, t in np.ndindex(probs.shape[0], probs.shape[2]):
        probs[k, -1, t] = disc_probability(
            loop_clearance(batch.positions[k, e, t], boundaries),
            0.5 * batch.widths[e], cfg.uncertainty.sigma(t + 1))
        harms[k, -1, t] = harm(np.linalg.norm(batch.velocities[k, e, t]),
                               CollisionRegion.SIDE, cfg.harm)
    np.testing.assert_allclose(probs[:, -1], terms.probs[:, -1], rtol=1e-12,
                               atol=0)
    np.testing.assert_allclose(harms[:, -1], terms.harms[:, -1], rtol=1e-12,
                               atol=0)
    assert terms.probs[:, -1].max() > 1e-3


def beside_the_wall(n):
    """A straight scene of n agents and a future [n, T, 2] whose ego is
    moved until its point nearest a road boundary lies 1.5 m from it, and
    whose other agents, if any, are moved 1 km away: the boundary is the
    only row with a risk."""
    scn = generate_scenario("straight", n, seed=2)
    trajs = scn.future[:, :, :2].copy()
    e = scn.ego_index
    dist, nearest = risk._clearance(trajs[e],
                                    *_road_boundaries(scn).segments())
    t = dist.argmin()
    trajs[e] += (nearest[t] - trajs[e, t]) * (1.0 - 1.5 / dist[t])
    trajs[np.arange(n) != e] += 1000.0
    return scn, trajs


@pytest.mark.parametrize("n", [1, 3], ids=["ego_only", "victims_away"])
def test_boundary_gradient_matches_finite_difference(n):
    """The boundary row's share of the gradient alone, with m = 0 victims
    (d l_risk / d R_b = w_s / 2) and with m = 2 out of reach (w_s / 4).
    Harm factors are constants of the gradient, so the harm slope is
    near-flat, as in test_gradient_matches_finite_difference, and the
    absolute tolerance is the differences' rounding, ~1e-15 / h."""
    scn, trajs = beside_the_wall(n)
    cfg = RiskConfig(harm=HarmCoefficients(mu0=0.5, mu1=1e-12))
    terms = risk_kernel(batch_from_prediction([scn], trajs[None]),
                        [scn.ego_index], [_road_boundaries(scn)], cfg)
    assert (terms.risks[0, :-1] == 0.0).all() and terms.risks[0, -1] > 1e-3
    loss, grad = scene_risk_loss(trajs, scn, cfg)
    assert loss == pytest.approx(cfg.weights[0] * terms.risks[0, -1]
                                 / (2 * max(n - 1, 1)), rel=1e-12)
    live = np.argwhere(grad != 0.0)
    assert (live[:, 0] == scn.ego_index).all()
    assert (live[:, 1] == terms.steps[0, -1]).all() and len(live) == 2
    h = 1e-6
    for idx in np.ndindex(grad[scn.ego_index].shape):
        idx = (scn.ego_index,) + idx
        orig = trajs[idx]
        trajs[idx] = orig + h
        lp, _ = scene_risk_loss(trajs, scn, cfg)
        trajs[idx] = orig - h
        lm, _ = scene_risk_loss(trajs, scn, cfg)
        trajs[idx] = orig
        assert grad[idx] == pytest.approx((lp - lm) / (2 * h), rel=1e-3,
                                          abs=1e-9)


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


# --------------------------------------------------------------------------
# The rewritten kernel paths against the forms they replaced, bit for bit
# --------------------------------------------------------------------------

def test_kernel_heading_of_a_stopped_ego_and_victim():
    # ego 0 stands still at step 2 and crawls below SPEED_EPS at step 3,
    # victim 1 crawls at step 3 and stands still at step 4, victim 2 moves;
    # every yaw points away from the velocity, so a crawl's heading shows in
    # the bits of its delta-v
    rng = np.random.default_rng(40)
    k, n, t = 2, 3, 6
    vel = rng.normal(scale=3.0, size=(k, n, t, 2))
    vel[:, 0, 2] = 0.0
    vel[:, 0, 3] = (4e-7, -3e-7)
    vel[:, 1, 3] = (-2e-7, 5e-7)
    vel[:, 1, 4] = 0.0
    yaws = np.arctan2(vel[..., 1], vel[..., 0]) + 1.0
    batch = risk.MotionBatch(["ego", "a", "b"],
                             rng.normal(scale=4.0, size=(k, n, t, 2)), vel,
                             yaws, np.array([4.5, 4.5, 0.5]),
                             np.array([1.8, 1.8, 0.5]),
                             np.array([1500.0, 1500.0, 75.0]),
                             ["car", "car", "pedestrian"], [slice(0, n)])
    terms = risk_kernel(batch, [0], [RoadMap.padded([], [])], RiskConfig())
    # the heading as the kernel wrote it before: np.where over [K, N, T, 2]
    speeds = norm2(vel)
    with np.errstate(divide="ignore", invalid="ignore"):
        heading = np.where((speeds < SPEED_EPS)[..., None],
                           np.stack([np.cos(yaws), np.sin(yaws)], axis=-1),
                           vel / speeds[..., None])
    cos_theta = np.clip(dot2(heading[:, [1, 2]], heading[:, [0, 0]]),
                        -1.0, 1.0)
    v_vic, v_ego = speeds[:, [1, 2]], speeds[:, [0, 0]]
    m_vic, m_ego = batch.masses[[1, 2], None], batch.masses[[0, 0], None]
    rel = np.sqrt(np.maximum(v_vic * v_vic + v_ego * v_ego
                             - 2.0 * v_vic * v_ego * cos_theta, 0.0))
    assert np.array_equal(terms.delta_v[:, :2], m_ego / (m_vic + m_ego) * rel)
    # a stopped agent moves along its yaw, as AgentState.direction has it
    # (math.cos against np.cos, so to within an ulp)
    for kk in range(k):
        for i in range(n):
            for tt in range(t):
                np.testing.assert_allclose(
                    heading[kk, i, tt], batch.state(kk, i, tt).direction(),
                    rtol=0, atol=2.3e-16)
    assert (speeds[:, 0, 2:4] < SPEED_EPS).all()
    assert (speeds[:, 1, 3:5] < SPEED_EPS).all()


def test_clearance_takes_the_first_of_two_equidistant_segments():
    # the origin lies 1 m from both segments; (0, 0.5) is nearer the first
    points = np.array([[0.0, 0.0], [0.0, 0.5]])
    upper = np.array([[-1.0, 1.0], [1.0, 1.0]])
    lower = np.array([[-1.0, -1.0], [1.0, -1.0]])
    for first, second in ((upper, lower), (lower, upper)):
        a, b = np.array([first[0], second[0]]), np.array([first[1], second[1]])
        dist, nearest = risk._clearance(points, a, b)
        assert dist.tolist()[0] == 1.0
        assert nearest[0].tolist() == [0.0, first[0, 1]]
        assert nearest[1].tolist() == [0.0, 1.0]
    # leading axes [K, B, T] against segments [B, 1, S], as the kernel asks
    pts = np.broadcast_to(points[0], (3, 2, 4, 2))
    a = np.broadcast_to(np.array([upper[0], lower[0]]), (2, 1, 2, 2))
    b = np.broadcast_to(np.array([upper[1], lower[1]]), (2, 1, 2, 2))
    dist, nearest = risk._clearance(pts, a, b)
    assert dist.shape == (3, 2, 4) and nearest.shape == (3, 2, 4, 2)
    assert (dist == 1.0).all() and (nearest == [0.0, 1.0]).all()


def test_struck_region_equals_the_wrapped_bearing_classes():
    # bearings at and about the region edges, a turn or more away, beyond
    # three turns, and not finite, against |wrap_angle(bearing)| classed as
    # the kernel classed it before
    edges = np.array([math.pi / 4, 3 * math.pi / 4, math.pi, 0.0])
    near_edges = np.concatenate([edges + d for d in
                                 (0.0, 1e-15, -1e-15, 1e-10, -1e-10, 1e-8)])
    turns = np.concatenate([near_edges + 2 * math.pi * j
                            for j in range(-3, 4)])
    bearing = np.concatenate([turns, -turns, np.nextafter(turns, 10.0),
                              np.random.default_rng(41).uniform(-30, 30, 500),
                              [np.nan, np.inf, -np.inf, 1e6]])
    dist = np.where(np.arange(bearing.size) % 7 == 0, 0.0, 1.0)
    with np.errstate(invalid="ignore"):      # sin and cos of inf
        wrapped = np.abs(wrap_angle(bearing))
        got = risk._struck_region(bearing, dist)
    want = np.where(dist < DIST_EPS, REGIONS.index(CollisionRegion.FRONT),
                    np.where(wrapped <= math.pi / 4,
                             REGIONS.index(CollisionRegion.FRONT),
                             np.where(wrapped >= 3 * math.pi / 4,
                                      REGIONS.index(CollisionRegion.REAR),
                                      REGIONS.index(CollisionRegion.SIDE))))
    assert np.array_equal(got, want)
    finite = np.isfinite(bearing)
    assert np.array_equal(
        risk._struck_region(bearing[finite][None], dist[finite][None]),
        want[finite][None])
