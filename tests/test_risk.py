"""Risk formula tests: Monte-Carlo validation of the collision probability,
delta-v and harm identities, cost-term enumeration oracles, trajectory
ranking, and the differentiable risk path."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskcast.geometry import CollisionRegion, body_points
from riskcast.intention import JointPrediction
from riskcast.risk import (HarmCoefficients, MotionBatch, RiskConfig,
                           UncertaintyModel, boundary_risk,
                           care_cost, collision_probability,
                           delta_v, disc_probability,
                           disc_probability_ddist, harm, pair_harm,
                           rank_trajectories, responsiveness_cost,
                           risk_kernel, risk_loss_and_grad, safety_cost,
                           total_risk_cost)
from riskcast.scene import POLYLINE_KINDS, RoadMap, generate_scenario

NO_BOUNDARIES = RoadMap.padded([], [])


def make_track(positions, width=1.8, length=4.5, mass=1500.0,
               agent_class="car", dt=0.1, agent_id="x"):
    """One mode of one agent through the positions [T, 2]."""
    positions = np.asarray(positions, dtype=float)
    vel = np.zeros_like(positions)
    if len(positions) > 1:
        vel[:-1] = (positions[1:] - positions[:-1]) / dt
        vel[-1] = vel[-2]
    yaws = np.arctan2(vel[:, 1], vel[:, 0])
    return MotionBatch([agent_id], positions[None, None], vel[None, None],
                       yaws[None, None], np.array([length]),
                       np.array([width]), np.array([mass]), [agent_class],
                       [slice(0, 1)])


def joined(*tracks):
    """One mode of the given one-agent tracks, in that order."""
    def cat(name, axis):
        return np.concatenate([getattr(tr, name) for tr in tracks], axis=axis)

    return MotionBatch([tr.agent_ids[0] for tr in tracks],
                       cat("positions", 1), cat("velocities", 1),
                       cat("yaws", 1), cat("lengths", 0), cat("widths", 0),
                       cat("masses", 0),
                       [tr.agent_classes[0] for tr in tracks],
                       [slice(0, len(tracks))])


def scene_risk_loss(trajs, scn, cfg):
    """risk_loss_and_grad of one mode [N, T, 2] of one scene."""
    losses, grad = risk_loss_and_grad(trajs[None], [scn], np.array([0]), cfg)
    return losses[0], grad


def at(track, t):
    """The state of a one-agent track at step t."""
    return track.state(0, 0, t)


def straight_track(start, velocity, steps, dt=0.1, **kw):
    start = np.asarray(start, float)
    velocity = np.asarray(velocity, float)
    pos = start + velocity * dt * np.arange(1, steps + 1)[:, None]
    return make_track(pos, dt=dt, **kw)


# --------------------------------------------------------------------------
# Disc integral
# --------------------------------------------------------------------------

def mc_disc_probability(dist, radius, sigma, n=1_000_000, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.normal(0.0, sigma, size=(n, 2))
    pts[:, 0] += dist
    hits = np.hypot(pts[:, 0], pts[:, 1]) < radius
    p = hits.mean()
    se = math.sqrt(max(p * (1 - p), 1e-12) / n)
    return p, se


class TestDiscProbability:
    @pytest.mark.parametrize("dist,radius,sigma", [
        (0.0, 1.8, 0.7), (2.0, 1.8, 1.0), (4.0, 1.2, 1.5), (1.0, 0.6, 0.5),
    ])
    def test_matches_monte_carlo(self, dist, radius, sigma):
        p = float(disc_probability(dist, radius, sigma))
        mc, se = mc_disc_probability(dist, radius, sigma)
        assert abs(p - mc) < 3 * se + 1e-9

    def test_far_tail(self):
        assert disc_probability(100.0, 1.8, 1.0) < 1e-12

    def test_coincident_closed_form(self):
        # centered disc: 1 - exp(-r^2 / (2 sigma^2))
        r, s = 1.3, 0.9
        expected = 1.0 - math.exp(-r * r / (2 * s * s))
        assert float(disc_probability(0.0, r, s)) == \
            pytest.approx(expected, abs=1e-12)

    def test_derivative_matches_finite_difference(self):
        for dist in (0.5, 1.0, 2.5, 5.0):
            h = 1e-6
            num = (disc_probability(dist + h, 1.5, 0.8)
                   - disc_probability(dist - h, 1.5, 0.8)) / (2 * h)
            ana = float(disc_probability_ddist(dist, 1.5, 0.8))
            assert ana == pytest.approx(float(num), rel=1e-5, abs=1e-12)

    def test_monotone_decreasing(self):
        d = np.linspace(0.0, 12.0, 200)
        p = disc_probability(d, 1.8, 1.0)
        assert np.all(np.diff(p) <= 1e-15)


# --------------------------------------------------------------------------
# Pair collision probability
# --------------------------------------------------------------------------

class TestCollisionProbability:
    def test_far_apart_negligible(self):
        a = straight_track([0, 0], [1, 0], 5)
        b = straight_track([100, 0], [1, 0], 5, agent_id="y")
        u = UncertaintyModel(sigma0=1.0, growth=0.0)
        assert collision_probability(at(a, 0), at(b, 0), u.sigma(1)) < 1e-12

    def test_coincident_matches_monte_carlo(self):
        u = UncertaintyModel(sigma0=0.8, growth=0.0)
        a = straight_track([0, 0], [2, 0], 3)
        b = straight_track([0, 0], [2, 0], 3, agent_id="y")
        p = collision_probability(at(a, 1), at(b, 1), u.sigma(2))

        sigma = math.sqrt(2.0) * u.sigma(2)
        radius = 0.5 * (at(a, 1).width + at(b, 1).width)
        total, var = 0.0, 0.0
        for bp, center in zip(body_points(at(a, 1)),
                              [at(b, 1).position] * 3):
            d = float(np.linalg.norm(bp - center))
            mc, se = mc_disc_probability(d, radius, sigma, seed=7)
            total += mc
            var += se * se
        assert abs(p - min(total, 1.0)) < 3 * math.sqrt(var) + 1e-9

    def test_monotone_along_ray(self):
        u = UncertaintyModel(sigma0=0.6, growth=0.0)
        a = straight_track([0, 0], [1, 0], 1)
        last = None
        for sep in np.linspace(3.0, 25.0, 40):
            b = straight_track([sep, 0], [1, 0], 1, agent_id="y")
            p = collision_probability(at(a, 0), at(b, 0), u.sigma(1))
            if last is not None:
                assert p <= last + 1e-12
            last = p

    def test_swap_symmetric_for_aligned_shared_dims(self):
        u = UncertaintyModel()
        for heading in ([1.0, 0.0], [-1.0, 0.0]):
            a = straight_track([0, 0], [5, 0], 10)
            b = straight_track([8, 1.5], heading and [5 * heading[0],
                                                      5 * heading[1]], 10,
                               agent_id="y")
            for t in (0, 4, 9):
                pab = collision_probability(at(a, t), at(b, t),
                                            u.sigma(t + 1))
                pba = collision_probability(at(b, t), at(a, t),
                                            u.sigma(t + 1))
                assert abs(pab - pba) < 1e-6

    def test_in_unit_interval(self):
        u = UncertaintyModel(sigma0=0.3, growth=0.0)
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = straight_track(rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2),
                               4)
            b = straight_track(rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2),
                               4, agent_id="y")
            p = collision_probability(at(a, 2), at(b, 2), u.sigma(3))
            assert 0.0 <= p <= 1.0


# --------------------------------------------------------------------------
# Delta-v and harm
# --------------------------------------------------------------------------

class TestDeltaV:
    def test_head_on_equal_masses(self):
        for v in (3.0, 7.5, 13.0):
            assert delta_v(1500, 1500, v, v, math.pi) == \
                pytest.approx(v, abs=1e-12)

    def test_same_direction_equal_speeds(self):
        assert delta_v(1500, 1200, 8.0, 8.0, 0.0) == \
            pytest.approx(0.0, abs=1e-9)

    def test_massless_partner(self):
        assert delta_v(1500, 1e-9, 10.0, 10.0, math.pi) == \
            pytest.approx(0.0, abs=1e-9)

    @given(st.floats(100, 1e5), st.floats(100, 1e5), st.floats(0, 40),
           st.floats(0, 40), st.floats(0, math.pi))
    @settings(max_examples=200, deadline=None)
    def test_momentum_consistency(self, ma, mb, va, vb, theta):
        dva = delta_v(ma, mb, va, vb, theta)
        dvb = delta_v(mb, ma, vb, va, theta)
        assert abs(dva * ma - dvb * mb) <= 1e-12 * max(dva * ma, 1.0)

    def test_positive_masses_required(self):
        with pytest.raises(ValueError):
            delta_v(0.0, 100.0, 1.0, 1.0, 0.0)


class TestHarm:
    def test_midpoint_exactly_half(self):
        coeffs = HarmCoefficients(mu0=-2.0, mu1=0.5,
                                  mu_area={r: 0.0 for r in CollisionRegion})
        assert harm(4.0, CollisionRegion.FRONT, coeffs) == 0.5

    def test_logistic_value(self):
        coeffs = HarmCoefficients(mu0=-5.0, mu1=0.4,
                                  mu_area={r: 0.0 for r in CollisionRegion})
        assert harm(0.0, CollisionRegion.SIDE, coeffs) == \
            pytest.approx(1.0 / (1.0 + math.exp(5.0)), abs=1e-12)
        assert harm(0.0, CollisionRegion.SIDE, coeffs) == \
            pytest.approx(0.00669, abs=1e-5)

    def test_strictly_increasing_in_delta_v(self):
        coeffs = HarmCoefficients()
        vals = [harm(dv, CollisionRegion.FRONT, coeffs)
                for dv in np.linspace(0, 60, 200)]
        assert all(b > a for a, b in zip(vals[:-1], vals[1:]))

    def test_open_unit_interval(self):
        # over the physically plausible delta-v range (the logistic only
        # saturates to 1.0 in float64 beyond z ~ 37)
        coeffs = HarmCoefficients()
        for dv in (0.0, 5.0, 30.0, 80.0):
            h = harm(dv, CollisionRegion.REAR, coeffs)
            assert 0.0 < h < 1.0

    def test_mu1_must_be_positive(self):
        with pytest.raises(ValueError):
            HarmCoefficients(mu1=-0.1)


# --------------------------------------------------------------------------
# Trajectory risk
# --------------------------------------------------------------------------

class TestTrajectoryRisk:
    def test_zero_when_far(self):
        cfg = RiskConfig(uncertainty=UncertaintyModel(sigma0=0.5, growth=0.0))
        a = straight_track([0, 0], [5, 0], 10)
        b = straight_track([0, 500], [5, 0], 10, agent_id="y")
        assert risk_kernel(joined(a, b), [1], [NO_BOUNDARIES],
                           cfg).risks[0, 0] == 0.0

    def test_matches_exhaustive_scan(self):
        u = UncertaintyModel()
        coeffs = HarmCoefficients()
        victim = straight_track([0, 6], [0, -1.5], 30, agent_id="v")
        ego = straight_track([-10, 0], [4, 0], 30, agent_id="e")
        r = risk_kernel(joined(victim, ego), [1], [NO_BOUNDARIES],
                        RiskConfig(uncertainty=u, harm=coeffs)).risks[0, 0]
        brute = max(pair_harm(at(victim, t), at(ego, t), coeffs)
                    * collision_probability(at(victim, t), at(ego, t),
                                            u.sigma(t + 1))
                    for t in range(30))
        assert r == pytest.approx(brute, abs=1e-15)
        assert r > 0

    def test_single_peak(self):
        cfg = RiskConfig(uncertainty=UncertaintyModel(sigma0=0.4, growth=0.0))
        # paths intersect at exactly one step
        victim = straight_track([5, -5], [0, 5], 10, agent_id="v")
        ego = straight_track([0, 0], [5, 0], 10, agent_id="e")
        r = risk_kernel(joined(victim, ego), [1], [NO_BOUNDARIES],
                        cfg).risks[0, 0]
        assert r > 0


# --------------------------------------------------------------------------
# Cost terms
# --------------------------------------------------------------------------

def enumerate_costs(risks, r_b, scale=1.0):
    """Independent loop-based evaluation of all three cost terms."""
    n = len(risks)
    c_s = (sum(risks) + r_b) / (2 * n) if n else r_b / 2
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += abs(risks[i] - risks[j])
    c_c = total / n if n else 0.0
    c_r = sum(scale * r for r in risks)
    return c_s, c_c, c_r


class TestCosts:
    def test_safety_examples(self):
        assert safety_cost(np.array([0.0]), 0.0) == 0.0
        assert safety_cost(np.array([0.4]), 0.2) == pytest.approx(0.3)
        assert safety_cost(np.array([0.2, 0.4]), 0.0) == pytest.approx(0.15)

    def test_safety_empty_scene(self):
        assert safety_cost(np.array([]), 0.4) == pytest.approx(0.2)

    def test_care_examples(self):
        assert care_cost(np.array([0.3, 0.3, 0.3])) == 0.0
        assert care_cost(np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_care_absolute_homogeneity(self):
        risks = np.array([0.1, 0.5, 0.2])
        for lam in (0.5, 2.0, 7.0):
            assert care_cost(lam * risks) == \
                pytest.approx(lam * care_cost(risks), abs=1e-12)

    def test_responsiveness_examples(self):
        assert responsiveness_cost(np.array([0.0, 0.0])) == 0.0
        assert responsiveness_cost(np.array([0.1, 0.3])) == pytest.approx(0.4)
        assert responsiveness_cost(np.array([0.1, 0.3]), scale=2.0) == \
            pytest.approx(0.8)

    def test_total_examples(self):
        assert total_risk_cost(0.0, 0.0, 0.0) == 0.0
        assert total_risk_cost(0.01, 0.01, 0.01) == pytest.approx(0.999)
        assert total_risk_cost(0.02, 0.02, 0.02) == \
            pytest.approx(2 * total_risk_cost(0.01, 0.01, 0.01))

    def test_total_linear_in_each_term(self):
        base = total_risk_cost(0.1, 0.2, 0.3)
        assert total_risk_cost(0.2, 0.2, 0.3) - base == \
            pytest.approx(33.3 * 0.1, abs=1e-12)
        assert total_risk_cost(0.1, 0.4, 0.3) - base == \
            pytest.approx(33.3 * 0.2, abs=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(4)
        for n in range(1, 5):
            for _ in range(25):
                risks = rng.uniform(0, 1, n)
                r_b = rng.uniform(0, 1)
                c_s, c_c, c_r = enumerate_costs(list(risks), r_b)
                assert safety_cost(risks, r_b) == pytest.approx(c_s,
                                                                abs=1e-12)
                assert care_cost(risks) == pytest.approx(c_c, abs=1e-12)
                assert responsiveness_cost(risks) == pytest.approx(c_r,
                                                                   abs=1e-12)
                l = total_risk_cost(c_s, c_c, c_r)
                assert l == pytest.approx(33.3 * (c_s + c_c + c_r),
                                          abs=1e-9)

    def test_care_zero_iff_equal(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = rng.integers(1, 6)
            risks = rng.uniform(0, 1, n)
            c = care_cost(risks)
            if np.all(risks == risks[0]):
                assert c == 0.0
            else:
                assert c > 0.0
        assert care_cost(np.full(4, 0.37)) == 0.0


# --------------------------------------------------------------------------
# Boundary risk and ranking
# --------------------------------------------------------------------------

class TestBoundary:
    def test_no_boundaries_zero(self):
        ego = straight_track([0, 0], [5, 0], 10)
        assert boundary_risk(ego, 0, NO_BOUNDARIES, RiskConfig())[0] == 0.0

    def test_nearby_boundary_raises_risk(self):
        cfg = RiskConfig()
        wall = RoadMap.padded([np.array([[-50.0, 1.0], [50.0, 1.0]])],
                              ["road_boundary"])
        near = straight_track([0, 0], [8, 0], 20)
        far_wall = RoadMap.padded([np.array([[-50.0, 40.0], [50.0, 40.0]])],
                                  ["road_boundary"])
        assert boundary_risk(near, 0, wall, cfg)[0] > \
            boundary_risk(near, 0, far_wall, cfg)[0]


def synthetic_conflict_prediction(seed=0, k_near=1, n_modes=4):
    """A crossing-conflict scenario with hand-built candidate modes: mode
    k_near grazes the pedestrian, the rest keep well clear."""
    scn = generate_scenario("crossing_conflict", 3, seed)
    ped = scn.agent_classes.tolist().index("pedestrian")
    t_len = scn.horizon_future
    n = len(scn.agent_ids)
    trajs = np.zeros((n_modes, n, t_len, 2))
    for i, future in enumerate(scn.future):
        truth = future[:, :2]
        trajs[:, i] = truth[None, :, :]

    ego_i = scn.ego_index
    ped_future = scn.future[ped, :, :2]
    mid = t_len // 2
    for k in range(n_modes):
        if k == k_near:
            # pass within 0.5 m of the pedestrian at mid-horizon
            target = ped_future[mid] + np.array([0.3, 0.0])
        else:
            # detour with > 5 m clearance from the pedestrian at all times
            direction = scn.state(ego_i).position - ped_future[mid]
            direction = direction / np.linalg.norm(direction)
            target = ped_future[mid] + 30.0 * direction
        start = scn.state(ego_i).position
        frac = np.minimum(np.arange(1, t_len + 1) / mid, 1.0)[:, None]
        trajs[k, ego_i] = start + frac * (target - start)
    jp = JointPrediction(trajs, np.full(n_modes, 1.0 / n_modes),
                         scn.agent_ids.tolist(), scn.scenario_id)
    return scn, jp, k_near


class TestRanking:
    def test_near_miss_mode_ranks_last(self):
        scn, jp, k_near = synthetic_conflict_prediction(seed=1)
        order, reports = rank_trajectories(jp, scn)
        assert order[-1] == k_near
        assert reports[k_near].rank == len(order) - 1

    def test_risk_free_ranking_by_probability(self):
        scn = generate_scenario("straight", 1, seed=2)
        t_len = scn.horizon_future
        trajs = np.zeros((3, 1, t_len, 2))
        truth = scn.future[scn.ego_index, :, :2]
        trajs[:, 0] = truth[None]
        jp = JointPrediction(trajs, np.array([0.2, 0.5, 0.3]), ["ego"],
                             scn.scenario_id)
        scn.map = scn.map.select(
            scn.map.kinds != POLYLINE_KINDS.index("road_boundary"))
        order, reports = rank_trajectories(jp, scn)
        assert order == [1, 2, 0]
        assert all(r.l_risk == 0.0 for r in reports)

    def test_prediction_of_another_scene_rejected(self):
        scn, jp, _ = synthetic_conflict_prediction(seed=1)
        other = replace(jp, scenario_id="other-7")
        with pytest.raises(ValueError,
                           match=f"'other-7'.*{scn.scenario_id!r}"):
            rank_trajectories(other, scn)

    @pytest.mark.parametrize("side", ["prediction", "scene"])
    def test_an_empty_scenario_id_is_accepted(self, side):
        scn, jp, _ = synthetic_conflict_prediction(seed=1)
        want = rank_trajectories(jp, scn)[0]
        if side == "prediction":
            jp = replace(jp, scenario_id="")
        else:
            scn = replace(scn, scenario_id="")
        assert rank_trajectories(jp, scn)[0] == want

    def test_matches_brute_force_scores(self):
        scn, jp, _ = synthetic_conflict_prediction(seed=3)
        cfg = RiskConfig()
        order, reports = rank_trajectories(jp, scn, cfg)
        scores = [r.score for r in reports]
        brute = sorted(range(len(scores)), key=lambda k: scores[k])
        assert order == brute
        for r in reports:
            assert r.l_risk == pytest.approx(
                total_risk_cost(r.c_s, r.c_c, r.c_r, cfg.weights),
                abs=1e-12)

    def test_report_json_fields(self):
        scn, jp, _ = synthetic_conflict_prediction(seed=4)
        _, reports = rank_trajectories(jp, scn)
        doc = reports[0].to_json()
        assert set(doc) == {"k", "p", "R", "R_b", "c_s", "c_c", "c_r",
                            "L_risk", "rank"}

    def test_no_boundary_polylines_means_zero_rb(self):
        scn, jp, _ = synthetic_conflict_prediction(seed=5)
        scn.map = scn.map.select(
            scn.map.kinds != POLYLINE_KINDS.index("road_boundary"))
        _, reports = rank_trajectories(jp, scn)
        assert all(r.boundary == 0.0 for r in reports)

    # velocities of about 1e299 m/s overflow their squares: the check of
    # the scores reports it, not a numpy warning (an error in this suite)
    @pytest.mark.parametrize("dt", [1e-300, 1e-200, 1e-160])
    def test_overflowing_kinematics_raise_value_error(self, dt):
        scn = generate_scenario("straight", 3, seed=0, dt=dt)
        jp = JointPrediction(scn.future[None, :, :, :2], np.array([1.0]),
                             scn.agent_ids.tolist(), scn.scenario_id)
        with pytest.raises(ValueError, match=(
                "^scenario 'straight-0': mode 0 has a non-finite risk "
                "score nan$")):
            rank_trajectories(jp, scn)


class TestRiskGradient:
    @pytest.mark.parametrize("dt", [1e-300, 1e-200, 1e-160])
    def test_overflowing_kinematics_raise_value_error(self, dt):
        scn = generate_scenario("straight", 3, seed=0, dt=dt)
        with pytest.raises(ValueError, match=(
                "^scenario 'straight-0': the risk loss nan or its gradient "
                "is not finite$")):
            scene_risk_loss(scn.future[:, :, :2], scn, RiskConfig())

    def test_gradient_matches_finite_difference(self):
        # the implemented gradient flows through the collision probabilities
        # only (harm factors are treated as constants), so validate against
        # finite differences with a near-flat harm slope
        scn = generate_scenario("crossing_conflict", 3, seed=6)
        cfg = RiskConfig(harm=HarmCoefficients(mu0=0.5, mu1=1e-9))
        trajs = scn.future[:, :, :2].copy()
        # spread the others to moderate clearance so the collision
        # probabilities sit in the smooth (unclamped) regime
        for i in range(trajs.shape[0]):
            if i != scn.ego_index:
                trajs[i] += np.array([3.0, 2.5])
        base, grad = scene_risk_loss(trajs, scn, cfg)
        assert base > 0
        active = np.argwhere(np.abs(grad) > 1e-8)
        assert len(active) >= 4
        h = 1e-6

        # ego entries: plain per-coordinate probes (the ego contributes
        # through its center position only)
        ego_probes = [tuple(idx) for idx in active
                      if idx[0] == scn.ego_index][:10]
        assert ego_probes
        for idx in ego_probes:
            orig = trajs[idx]
            trajs[idx] = orig + h
            lp, _ = scene_risk_loss(trajs, scn, cfg)
            trajs[idx] = orig - h
            lm, _ = scene_risk_loss(trajs, scn, cfg)
            trajs[idx] = orig
            num = (lp - lm) / (2 * h)
            assert grad[idx] == pytest.approx(num, rel=1e-3, abs=1e-10)

        # other agents: probe by translating the whole trajectory, which
        # keeps the finite-difference yaws (treated as constants by the
        # analytic gradient) unchanged
        for i in range(trajs.shape[0]):
            if i == scn.ego_index or np.abs(grad[i]).max() < 1e-8:
                continue
            for axis in (0, 1):
                trajs[i, :, axis] += h
                lp, _ = scene_risk_loss(trajs, scn, cfg)
                trajs[i, :, axis] -= 2 * h
                lm, _ = scene_risk_loss(trajs, scn, cfg)
                trajs[i, :, axis] += h
                num = (lp - lm) / (2 * h)
                assert grad[i, :, axis].sum() == \
                    pytest.approx(num, rel=1e-3, abs=1e-10)
