"""A plan's set-up against its scalar and former forms, bit for bit: the
one-pass costs of every mode (`mode_costs`, read by `rank_trajectories`)
against `safety_cost`, `care_cost`, `responsiveness_cost`,
`total_risk_cost` and `math.log`; `batch_from_prediction` of a union,
`Scenario.take` and `Scenario.replaced` against the forms they replaced;
and the CDF gate's bounds, `pair_bound` above and `_risk_floor` below the
full evaluation."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from riskcast.geometry import SPEED_EPS, norm2
from riskcast.model import JointPredictor, ModelConfig
from riskcast.risk import (BOUND_SLACK, TAIL_CUT, RiskConfig,
                           _risk_floor, _road_boundaries,
                           batch_from_prediction, care_cost,
                           disc_probability, mode_costs,
                           pair_bound, rank_trajectories,
                           responsiveness_cost, risk_kernel, safety_cost,
                           total_risk_cost)
from riskcast.scene import AGENT_FIELDS, TEMPLATES, generate_scenario

# every weight, scale and trade-off other than 1, so that each product of
# the costs is exercised
CONFIGS = [RiskConfig(),
           RiskConfig(weights=(1.0, 2.5, 0.7), responsiveness_scale=1.7,
                      prob_tradeoff=0.3)]


@pytest.fixture(scope="module")
def model():
    return JointPredictor(ModelConfig())


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def scalar_costs(risks, r_b, mode_prob, cfg):
    """(c_s, c_c, c_r, l_risk, score) of one mode by the scalar
    references."""
    c_s = safety_cost(risks, r_b)
    c_c = care_cost(risks)
    c_r = responsiveness_cost(risks, cfg.responsiveness_scale)
    l_risk = total_risk_cost(c_s, c_c, c_r, cfg.weights)
    return (c_s, c_c, c_r, l_risk,
            l_risk - cfg.prob_tradeoff * math.log(max(mode_prob, 1e-12)))


def assert_reports_are_scalar(order, reports, cfg):
    scores = []
    for report in reports:
        want = scalar_costs(report.risks, report.boundary, report.mode_prob,
                            cfg)
        got = (report.c_s, report.c_c, report.c_r, report.l_risk,
               report.score)
        assert [bits(v) for v in got] == [bits(v) for v in want]
        assert all(type(v) is float for v in got)
        scores.append(want[-1])
    assert order == sorted(range(len(scores)), key=scores.__getitem__)
    assert [r.rank for r in reports] == [order.index(k)
                                         for k in range(len(reports))]


@pytest.mark.parametrize("cfg", CONFIGS, ids=["default", "weighted"])
@pytest.mark.parametrize("n", (3, 8, 16))
@pytest.mark.parametrize("template", TEMPLATES)
def test_one_pass_costs_are_the_scalar_costs(model, template, n, cfg):
    # N = 16 has M = 15 victims: numpy sums the [K, M] rows pairwise and
    # the [K, M * M] care rows in blocks
    scn = generate_scenario(template, n, seed=4)
    jp, _ = model.predict(scn)
    order, reports = rank_trajectories(jp, scn, cfg)
    assert_reports_are_scalar(order, reports, cfg)


def test_one_pass_costs_of_an_ego_alone(model):
    scn = generate_scenario("merge", 3, seed=1)
    jp, _ = model.predict(scn)
    alone = replace(jp, trajectories=jp.trajectories[:, :1],
                    agent_ids=jp.agent_ids[:1])
    for cfg in CONFIGS:
        order, reports = rank_trajectories(alone, scn, cfg)
        assert all(r.risks.size == 0 and r.c_c == 0.0 for r in reports)
        assert_reports_are_scalar(order, reports, cfg)


@pytest.mark.parametrize("m", (0, 1, 2, 7, 8, 9, 15, 16, 17, 64, 129, 300))
def test_one_pass_costs_of_every_row_length(m):
    # the row sums are pairwise from 8 elements and blocked past 128, for
    # the [K, M] sums and the [K, M * M] care sums alike
    rng = np.random.default_rng(m)
    risks = rng.random((5, m + 1)) ** 3
    risks[1, :-1] = 0.0
    risks[2, ::2] = 1e-300
    probs = [0.0, 1e-13, 0.25, 0.5, 1.0]
    for cfg in CONFIGS:
        costs = mode_costs(SimpleNamespace(risks=risks), probs, cfg)
        assert costs.shape == (5, 5)
        for k, row in enumerate(costs.tolist()):
            want = scalar_costs(risks[k, :-1], float(risks[k, -1]),
                                probs[k], cfg)
            assert [bits(v) for v in row] == [bits(v) for v in want]


def test_a_tie_in_score_goes_to_the_lower_mode(model):
    scn = generate_scenario("left_turn", 8, seed=2)
    jp, _ = model.predict(scn)
    k = len(jp.mode_probs)
    # mode k repeats mode 1 with the same probability, so their scores tie
    probs = np.append(jp.mode_probs, jp.mode_probs[1])
    twin = replace(jp, trajectories=np.concatenate(
        [jp.trajectories, jp.trajectories[1:2]]), mode_probs=probs)
    order, reports = rank_trajectories(twin, scn)
    assert reports[1].score == reports[k].score
    assert order.index(k) == order.index(1) + 1
    assert reports[k].rank == reports[1].rank + 1
    assert_reports_are_scalar(order, reports, RiskConfig())


def former_batch(scenes, positions):
    """batch_from_prediction as it was written before the gate's one call:
    the time steps by np.repeat of a list, the yaws by np.where."""
    sizes = [len(scn.agent_ids) for scn in scenes]
    cur = np.concatenate([scn.past[:, -1] for scn in scenes])
    dt = np.repeat([scn.dt for scn in scenes], sizes)[:, None, None]
    vel = np.empty(positions.shape)
    np.subtract(positions[:, :, :1], cur[:, None, :2], out=vel[:, :, :1])
    np.subtract(positions[:, :, 1:], positions[:, :, :-1], out=vel[:, :, 1:])
    vel /= dt
    yaws = np.where(norm2(vel) > SPEED_EPS,
                    np.arctan2(vel[..., 1], vel[..., 0]),
                    cur[None, :, None, 2])
    return vel, yaws


def test_batch_of_a_union_is_the_former_batch():
    scenes = [generate_scenario(t, n, seed=s) for t, n, s in
              (("merge", 3, 0), ("straight", 8, 1), ("crossing_conflict", 5,
                                                     2))]
    scenes[1] = replace(scenes[1], dt=0.05)
    rng = np.random.default_rng(0)
    n = sum(len(scn.agent_ids) for scn in scenes)
    positions = rng.normal(0.0, 20.0, (4, n, 12, 2))
    # agent 0 stands still at its current position for its first steps, and
    # a NaN position gives a NaN velocity: both take the current yaw
    positions[:, 0, :5] = scenes[0].past[0, -1, :2]
    positions[2, 4, 7] = np.nan
    batch = batch_from_prediction(scenes, positions)
    vel, yaws = former_batch(scenes, positions)
    assert np.array_equal(batch.velocities, vel, equal_nan=True)
    assert np.array_equal(batch.yaws, yaws, equal_nan=True)
    assert (batch.yaws[:, 0, :5] == scenes[0].past[0, -1, 2]).all()
    assert [(s.start, s.stop) for s in batch.slices] == [(0, 3), (3, 11),
                                                         (11, 16)]


def test_take_and_replaced_are_dataclass_replace():
    scn = generate_scenario("right_turn", 8, seed=3)
    scn = replace(scn, has_future=np.arange(8) % 3 > 0)
    rows = np.array([5, 2, scn.ego_index, 7, 1])
    taken = scn.take(rows)
    want = replace(scn, ego_index=int(np.flatnonzero(
        rows == scn.ego_index)[0]), **{f: getattr(scn, f)[rows]
                                       for f in AGENT_FIELDS})
    assert type(taken) is type(want)
    assert vars(taken).keys() == vars(want).keys()
    for name, value in vars(want).items():
        got = getattr(taken, name)
        if isinstance(value, np.ndarray):
            assert got.dtype == value.dtype
            assert np.array_equal(got, value)
        else:
            assert got == value
    copy = scn.replaced(dt=0.2, scenario_id="other")
    assert copy == replace(scn, dt=0.2, scenario_id="other")
    assert copy is not scn and scn.dt != 0.2
    with pytest.raises(TypeError, match="speed"):
        scn.replaced(speed=1.0)


def former_pair_bound(dists, radii, sigma):
    """pair_bound with its first exponential alone."""
    beta = radii[:, None] / sigma
    gap = dists / sigma[..., None] - beta[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(-0.5 * np.maximum(gap, 0.0) ** 2)
    e[gap > TAIL_CUT] = 0.0
    return np.minimum(e.sum(axis=-1) * np.minimum(0.5 * beta * beta, 1.0),
                      1.0)


@pytest.mark.parametrize("template,n", [(t, n) for t in TEMPLATES
                                        for n in (3, 8, 16)])
def test_gate_bounds_hold_at_every_step(model, template, n):
    scn = generate_scenario(template, n, seed=5)
    jp, _ = model.predict(scn)
    predicted = scn.take(scn.prediction_rows(jp.agent_ids))
    terms = risk_kernel(batch_from_prediction([predicted], jp.trajectories),
                        [predicted.ego_index], [_road_boundaries(scn)],
                        RiskConfig())
    bound, beyond = pair_bound(terms.dists, terms.radii, terms.sigma)
    assert (bound <= former_pair_bound(terms.dists, terms.radii,
                                       terms.sigma)).all()
    assert (terms.prob_sums[~beyond]
            <= bound[~beyond] * (1.0 + BOUND_SLACK)).all()
    weighted = terms.harms * terms.probs
    k, r, t = weighted.shape
    floor = _risk_floor(terms.dists.reshape(-1, 3),
                        np.broadcast_to(terms.radii[:, None], (k, r, t)
                                        ).ravel(),
                        np.broadcast_to(terms.sigma, (k, r, t)).ravel(),
                        terms.harms.ravel()).reshape(k, r, t)
    assert (floor <= weighted).all()
    # the floor is not trivial where the harm is positive
    assert (floor[weighted > 1e-12] > 0.0).all()


def test_risk_floor_holds_on_a_grid():
    """_risk_floor <= harm * disc_probability of one disc, the other two
    body points out of reach, with beta from 1e-8 to past WIDE_Y's beta of
    8, alpha from 0 to past TAIL_CUT; a harm h <= 0 gives h and a NaN
    harm NaN."""
    beta = np.logspace(-8.0, 1.7, 80)[:, None]
    alpha = np.concatenate([beta * np.linspace(0.0, 1.0, 21),
                            beta + np.linspace(0.0, TAIL_CUT + 0.5, 120)],
                           axis=1)
    beta = np.broadcast_to(beta, alpha.shape).ravel()
    alpha = alpha.ravel()
    dists = np.full((alpha.size, 3), np.inf)
    dists[:, 0] = alpha
    ones = np.ones(alpha.size)
    harms = np.full(alpha.size, 0.3)
    floor = _risk_floor(dists, beta, ones, harms)
    p = np.minimum(disc_probability(alpha, beta, 1.0), 1.0)
    assert (floor <= harms * p).all()
    assert (floor[alpha - beta > TAIL_CUT] == 0.0).all()
    # within the series' range the floor does not underflow
    assert (floor[(beta <= 8.0) & ~(alpha - beta > TAIL_CUT)] > 0.0).all()
    odd = np.array([0.0, -0.5, np.nan])
    got = _risk_floor(dists[:3], beta[:3], ones[:3], odd)
    assert np.array_equal(got, odd, equal_nan=True)
