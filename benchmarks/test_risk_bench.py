"""Per-layer benchmarks of the risk layer: `rank_trajectories`,
`risk_kernel` and `risk_loss_and_grad` on one fixed `merge` scene per
N in {3, 8, 16}, with the predictions of a seeded, untrained model, and
`disc_probability` alone on the inputs of the one call that the CDF gate
makes in an N = 8 and an N = 16 rank.

    python -m pytest benchmarks --benchmark-enable \
        --benchmark-json=BENCH_<n>.json

The pytest configuration passes --benchmark-disable, so the test suite runs
each case once, as a smoke test, and --benchmark-enable turns the timing
on. Run the parent and the change in alternation on the same machine and
compare per-case medians.
"""

import numpy as np
import pytest

from riskcast import risk
from riskcast.intention import select_mode
from riskcast.model import JointPredictor, ModelConfig
from riskcast.risk import (RiskConfig, _road_boundaries,
                           batch_from_prediction, disc_probability,
                           rank_trajectories, risk_kernel,
                           risk_loss_and_grad)
from riskcast.scene import generate_scenario

N_AGENTS = (3, 8, 16)


@pytest.fixture(scope="module")
def model():
    return JointPredictor(ModelConfig())


@pytest.fixture(scope="module", params=N_AGENTS, ids=lambda n: f"N{n}")
def planned(request, model):
    """A scene, the model's prediction and the predicted agents' scene."""
    scn = generate_scenario("merge", request.param, seed=3)
    jp, _ = model.predict(scn)
    return scn, jp, scn.take(scn.prediction_rows(jp.agent_ids))


def test_rank_trajectories(benchmark, planned):
    scn, jp, _ = planned
    order, reports = benchmark(rank_trajectories, jp, scn, RiskConfig())
    assert sorted(order) == list(range(len(reports)))


def test_risk_kernel(benchmark, planned):
    scn, jp, predicted = planned
    batch = batch_from_prediction([predicted], jp.trajectories)
    terms = benchmark(risk_kernel, batch, [predicted.ego_index],
                      [_road_boundaries(scn)], RiskConfig())
    # a row per victim and one for the road boundary
    assert terms.risks.shape == (len(jp.mode_probs), len(jp.agent_ids))


def test_risk_loss_and_grad(benchmark, planned):
    _, jp, predicted = planned
    modes = np.array([select_mode(jp)])
    losses, grad = benchmark(risk_loss_and_grad, jp.trajectories,
                             [predicted], modes, RiskConfig())
    assert grad.shape == jp.trajectories.shape[1:]


@pytest.mark.parametrize("n", (8, 16), ids=lambda n: f"N{n}")
def test_disc_probability(benchmark, model, monkeypatch, n):
    scn = generate_scenario("merge", n, seed=3)
    jp, _ = model.predict(scn)
    calls = []

    def recorded(dist, radius, sigma):
        calls.append((dist, radius, sigma))
        return disc_probability(dist, radius, sigma)

    monkeypatch.setattr(risk, "disc_probability", recorded)
    rank_trajectories(jp, scn, RiskConfig())
    monkeypatch.undo()
    assert len(calls) == 1

    def run():
        return [disc_probability(*call) for call in calls]

    for p, (dist, _, _) in zip(benchmark(run), calls):
        assert p.shape == dist.shape
