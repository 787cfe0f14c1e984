"""The benchmark's tracer (perfbench/tracing.py) wraps riskcast functions and
methods by name and refuses to run when one is gone. These tests make a
rename fail here instead of at benchmark time, check that a traced union
run passes through every model layer, and check that the benchmark's own
kinds of operation still call every target, so that a change which stops
calling one cannot make its per-layer metric read 0 unnoticed."""

import importlib
import os
import sys

import numpy as np

import riskcast.evaluation as evaluation
import riskcast.risk as risk
import riskcast.scene as scene
import riskcast.training as training
from riskcast.model import JointPredictor, ModelConfig
from riskcast.scene import generate_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import tracing  # noqa: E402


def test_every_trace_target_resolves():
    missing = []
    for module, cls, attr, _ in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls, None)
        if not hasattr(owner, attr):
            missing.append(f"{module}.{cls + '.' if cls else ''}{attr}")
    assert missing == []


def test_a_traced_union_run_reads_every_model_layer():
    # a layer that production stops calling would read 0 in the benchmark,
    # like a perfect speed-up
    model = JointPredictor(ModelConfig(embed_dim=8, attention_heads=2,
                                       transformer_layers=1, n_modes=2,
                                       future_steps=5))
    scns = [generate_scenario("merge", 3, seed=1, H=3, T=5),
            generate_scenario("straight", 4, seed=2, H=3, T=5)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = model.forward([model.prepare(scn) for scn in scns])
        model.backward(res, np.zeros_like(res.trajectories),
                       np.zeros_like(res.mode_probs),
                       np.zeros_like(res.lat_probs),
                       np.zeros_like(res.lon_probs))
        model.predict(scns[0])
    finally:
        tracer.remove()
    recorded = {span[0] for span in tracer.spans}
    for layer in ("interaction.history_lstm", "interaction.agent_agent",
                  "interaction.agent_map", "intention.heads",
                  "intention.decoder", "model.forward", "model.backward"):
        assert layer in recorded, layer
    assert tracing.installed_wrappers() == []


# targets that production no longer calls: the boundary risk is a row of
# risk_kernel, and collision_probability is a per-step reference
DEAD_LAYERS = {"risk.boundary", "risk.collision_prob"}


def test_the_benchmark_operations_call_every_live_target(tmp_path):
    # one of each kind of operation perfbench times, called through the
    # module attributes the tracer wraps, as perfbench calls them: set-up
    # (load a scene file and a checkpoint), plan (predict, then rank), eval,
    # and a stage-2 train() that writes its checkpoints
    cfg = ModelConfig(embed_dim=8, attention_heads=2, transformer_layers=1,
                      n_modes=2, future_steps=10)
    scns = [generate_scenario(template, 4, seed=seed, H=3, T=10)
            for seed, template in enumerate(("merge", "straight",
                                             "left_turn"))]
    path = str(tmp_path / "model.npz")
    JointPredictor(cfg).save(path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        scn = scene.load_scenario(scene.dump_scenario(scns[0]))
        model = JointPredictor.load(path)
        risk.rank_trajectories(model.predict(scn)[0], scn)
        evaluation.evaluate(lambda s: model.predict(s)[0], scns)
        training.train(scns, cfg, training.TrainConfig(
            epochs=1, stage1_epochs=0, seed=0), out_dir=str(tmp_path))
    finally:
        tracer.remove()
    recorded = {span[0] for span in tracer.spans}
    recorded |= {layer for (_, layer), n in tracer.counts.items() if n}
    layers = {target[3]
              for target in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS}
    assert DEAD_LAYERS <= layers
    assert sorted(layers - DEAD_LAYERS - recorded) == []
    assert tracing.installed_wrappers() == []
