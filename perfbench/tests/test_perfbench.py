"""Tests of the benchmark itself, on scene counts far below a real run.

    python3 -m pytest perfbench/tests -q
"""

import json
import os

import pytest

import riskcast.interaction
import riskcast.model
import riskcast.risk
from perfbench import bench, speed, tracing

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

TINY = bench.Sizes(tail_beyond=0, plan_min_per_n=1, plan_scenes=3,
                   setup_repeats=2, eval_scenes=2, eval_batch=1, eval_rounds=2,
                   train_scenes=6, train_s1_epochs=1, train_s2_epochs=1,
                   train_s1_calls=1, train_s2_calls=1)


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def _digest(result):
    return next(n for n in result.notes if n.startswith("digest "))


@pytest.fixture(scope="module")
def runs():
    return {trace: bench.run("normal", 3, trace, TINY)
            for trace in (False, True)}


def test_untraced_run_emits_every_end_to_end_metric(runs):
    result = runs[False]
    assert result.correct, result.notes
    assert result.units == _declared("end_to_end")
    assert set(result.metrics) == set(result.units)
    assert all(v > 0 for v in result.metrics.values())


def test_traced_run_emits_every_per_layer_metric(runs):
    result = runs[True]
    assert result.correct, result.notes
    assert result.units == _declared("per_layer")
    assert set(result.metrics) == set(result.units)
    assert result.metrics["risk.rank_ms"] > 0
    assert result.metrics["interaction.subgraph_runs"] > 0


def test_traced_and_untraced_runs_agree_on_outputs(runs):
    assert _digest(runs[False]) == _digest(runs[True])


def test_wrappers_are_gone_after_traced_run(runs):
    assert tracing.installed_wrappers() == []


def test_remove_restores_the_original_objects():
    targets = [
        (riskcast.risk, "rank_trajectories"),
        (riskcast.model, "history_feature_matrix"),
    ]
    classes = [
        (riskcast.interaction.AgentAgentEncoder, "forward"),
        (riskcast.model.JointPredictor, "load"),
    ]
    before = [getattr(m, a) for m, a in targets] + \
        [vars(c)[a] for c, a in classes]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert len(tracing.installed_wrappers()) == \
            len(tracing.SPAN_TARGETS) + len(tracing.COUNT_TARGETS)
    finally:
        tracer.remove()
    after = [getattr(m, a) for m, a in targets] + \
        [vars(c)[a] for c, a in classes]
    assert all(x is y for x, y in zip(before, after))
    assert tracing.installed_wrappers() == []


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [["outer", "plan", 1, -1, 0.0, 1.0],
                    ["inner", "plan", 1, 0, 0.2, 0.5],
                    ["inner", "plan", 1, 0, 0.6, 0.7]]
    out = tracer.self_ms()
    assert out["plan", "outer"] == pytest.approx(600.0)
    assert out["plan", "inner"] == pytest.approx(400.0)


def test_install_refuses_a_missing_target(monkeypatch):
    monkeypatch.setattr(tracing, "COUNT_TARGETS", tracing.COUNT_TARGETS + [
        ("riskcast.risk", None, "no_such_function", "risk.none")])
    with pytest.raises(LookupError, match="no_such_function"):
        tracing.Tracer().install()
    assert tracing.installed_wrappers() == []


def test_plan_gives_up_an_n_whose_scenes_all_fail():
    class Failing:
        def predict(self, scn):
            raise IndexError("agent dropped")

    scenes = bench.make_scenes("normal", 3, TINY)["plan"]
    plan = bench.PlanStage(scenes, TINY)
    ctx = bench.Context(speed.Meter())
    while not plan.finished:
        plan.cycle(ctx, Failing())
    assert plan.attempted == len(scenes)
    assert plan.given_up() == list(bench.PLAN_N)
    assert plan.failures == {"IndexError": len(scenes)}
    assert plan.spans == []


def test_meter_scales_by_the_readings_near_a_span(monkeypatch):
    monkeypatch.setattr(speed, "reading", lambda: 0.0)
    meter = speed.Meter()
    result, span = meter.time(lambda x: x + 1, 1)
    assert result == 2 and len(meter.readings) == 2
    t0, t1 = span
    w = speed.WINDOW_S
    meter.readings = [(t0 - 0.001, 0.01), (t1 + 0.001, 0.03),
                      (t1 + w - 0.001, 0.02), (t1 + w + 1.0, 1.0),
                      (t0 - w - 1.0, 1.0)]
    assert meter.seconds(span, scaled=False) == t1 - t0
    assert meter.seconds(span) == pytest.approx(
        (t1 - t0) * speed.NOMINAL_S / 0.02)
