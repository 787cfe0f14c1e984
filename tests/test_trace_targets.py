"""The benchmark's tracer (perfbench/tracing.py) wraps riskcast functions and
methods by name and refuses to run when one is gone. These tests make a
rename fail here instead of at benchmark time, and check that a traced
union run passes through every model layer."""

import importlib
import os
import sys

import numpy as np

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
