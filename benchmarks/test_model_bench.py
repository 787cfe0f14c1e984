"""Per-layer benchmarks of the model: `JointPredictor.predict` (the call
perfbench's plan and eval stages repeat), the history LSTM, the agent-agent
encoder and the decoder (each forward and backward), the agent-map
attention (forward), on one fixed `merge` scene per N in {3, 8, 16} with a
seeded, untrained model, and checkpoint save and load. The union cases time
one 32-scene training minibatch, the five templates with N from 3 to 8,
through `training._union_losses` (forward, losses and backward) in stage 1
and in stage 2, and one inference forward (no backward) over 24 eval scenes,
the four normal templates with N = 16. The evaluate case times `evaluate`
alone on those 24 scenes, their predictions made beforehand, so a change
to the evaluation has a reading that `predict` does not swamp. The
train-call cases time one whole `train()` call sized as perfbench's train
stage: six scenes of the five templates with N from 3 to 8, one epoch in
stage 1 or in stage 2, with its validation and its checkpoint save. The
union and train-call cases then run one more call, untimed, under
tracemalloc, and store its traced peak in MB (2**20 bytes) as
``extra_info["traced_peak_mb"]``, so the JSON carries a memory reading next
to each time.

    python -m pytest benchmarks --benchmark-enable \
        --benchmark-json=BENCH_<n>.json

As with the risk cases, the test suite runs each case once and
--benchmark-enable turns the timing on. A layer's inputs are what
`JointPredictor.forward` hands it for the scene; its backward takes an
all-ones output gradient.
"""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from riskcast.evaluation import evaluate
from riskcast.interaction import (history_feature_matrix, map_feature_matrix,
                                  map_visibility, neighbor_mask)
from riskcast.model import JointPredictor, ModelConfig
from riskcast.scene import TEMPLATES, generate_scenario
from riskcast.training import TrainConfig, _TrainScene, _union_losses, train

N_AGENTS = (3, 8, 16)
UNION_SCENES = 32
EVAL_TEMPLATES = ("straight", "left_turn", "right_turn", "merge")
EVAL_SCENES = 24
TRAIN_CALL_SCENES = 6


def record_traced_peak(benchmark, run):
    """Runs `run` once, untimed, under tracemalloc, and stores the peak of
    what it allocated in the benchmark's extra_info."""
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    benchmark.extra_info["traced_peak_mb"] = peak / 2 ** 20


@pytest.fixture(scope="module")
def model():
    return JointPredictor(ModelConfig())


@pytest.fixture(scope="module", params=N_AGENTS, ids=lambda n: f"N{n}")
def scene(request):
    """The fixed scene of the per-N cases."""
    return generate_scenario("merge", request.param, seed=3)


@pytest.fixture(scope="module")
def inputs(model, scene):
    """The local scene's inputs to each layer, from one forward."""
    cfg = model.cfg
    local = model.prepare(scene)
    res = model.forward([local])
    feats = history_feature_matrix(local)
    hist, _ = model.history.forward(feats)
    masks = [neighbor_mask(local, cfg.context_radius_m)]
    base, _ = model.agent_agent.forward(hist, masks)
    map_embeds, _ = model.map_enc.forward(
        map_feature_matrix(local.map, cfg.map_pad))
    return SimpleNamespace(
        feats=feats, hist=hist, base=base, map_embeds=map_embeds,
        masks=masks, vis=[map_visibility(local, cfg.context_radius_m)],
        dec_in=np.concatenate([res.features, res.intention_feature], axis=1),
        pos0=local.past[:, -1, :2], slices=res.slices)


def test_predict(benchmark, model, scene):
    jp, _ = benchmark(model.predict, scene)
    assert jp.trajectories.shape[:2] == (model.cfg.n_modes,
                                         len(scene.agent_ids))


def test_history_lstm(benchmark, model, inputs):
    def run():
        h, ctx = model.history.forward(inputs.feats)
        return model.history.backward(ctx, np.ones_like(h))

    assert benchmark(run).shape == inputs.feats.shape


def test_agent_agent_encoder(benchmark, model, inputs):
    def run():
        out, ctx = model.agent_agent.forward(inputs.hist, inputs.masks)
        return model.agent_agent.backward(ctx, np.ones_like(out))

    assert benchmark(run).shape == inputs.hist.shape


def test_agent_map_attention(benchmark, model, inputs):
    out, _ = benchmark(model.agent_map.forward, inputs.base,
                       inputs.map_embeds, inputs.vis)
    assert out.shape == inputs.base.shape


def test_decoder(benchmark, model, inputs):
    def run():
        (trajs, probs), ctx = model.decoder.forward(
            inputs.dec_in, inputs.pos0, inputs.slices)
        return model.decoder.backward(ctx, np.ones_like(trajs),
                                      np.ones_like(probs))

    assert benchmark(run).shape == inputs.dec_in.shape


def test_checkpoint_save(benchmark, model, tmp_path):
    path = tmp_path / "model.npz"
    benchmark(model.save, str(path))
    assert path.stat().st_size > 0


def test_checkpoint_load(benchmark, model, tmp_path):
    path = str(tmp_path / "model.npz")
    model.save(path)
    loaded = benchmark(JointPredictor.load, path)
    assert [p.name for p in loaded.params()] == \
        [p.name for p in model.params()]


@pytest.fixture(scope="module")
def minibatch(model):
    """A training minibatch of the five templates in turn, N from 3 to 8."""
    return [_TrainScene.of(model.prepare(generate_scenario(
        TEMPLATES[i % len(TEMPLATES)], 3 + i % 6, seed=i)))
        for i in range(UNION_SCENES)]


@pytest.mark.parametrize("epoch", (1, 2), ids=("stage1", "stage2"))
def test_minibatch_union(benchmark, model, minibatch, epoch):
    cfg = TrainConfig(epochs=2, stage1_epochs=1)

    def run():
        model.zero_grad()
        return _union_losses(model, minibatch, epoch, cfg)

    losses = benchmark(run)
    record_traced_peak(benchmark, run)
    assert len(losses) == UNION_SCENES
    assert all(math.isfinite(v) for row in losses for v in row)
    assert any(l_risk > 0 for _, _, l_risk in losses) == (epoch == 2)


@pytest.fixture(scope="module")
def eval_scenes():
    """Eval scenes of the four normal templates in turn, N = 16."""
    return [generate_scenario(EVAL_TEMPLATES[i % len(EVAL_TEMPLATES)], 16,
                              seed=i) for i in range(EVAL_SCENES)]


def test_eval_union(benchmark, model, eval_scenes):
    res = benchmark(model.forward, [model.prepare(s) for s in eval_scenes])
    assert res.mode_probs.shape == (EVAL_SCENES, model.cfg.n_modes)
    assert np.isfinite(res.trajectories).all()


@pytest.fixture(scope="module")
def eval_predictions(model, eval_scenes):
    """The model's prediction of each eval scene, by scenario id."""
    return {s.scenario_id: model.predict(s)[0] for s in eval_scenes}


def test_evaluate(benchmark, eval_scenes, eval_predictions):
    report = benchmark(evaluate, lambda s: eval_predictions[s.scenario_id],
                       eval_scenes)
    assert report.count("normal") == EVAL_SCENES
    assert np.isfinite(report.mean("all", "model_selected", "ego",
                                   "ade")).all()


@pytest.fixture(scope="module")
def train_call_scenes():
    """perfbench's train-stage mix: the five templates in turn, N 3 to 8."""
    return [generate_scenario(TEMPLATES[i % len(TEMPLATES)], 3 + i % 6,
                              seed=i) for i in range(TRAIN_CALL_SCENES)]


@pytest.mark.parametrize("stage1_epochs", (1, 0), ids=("stage1", "stage2"))
def test_train_call(benchmark, train_call_scenes, stage1_epochs, tmp_path):
    cfg = TrainConfig(epochs=1, stage1_epochs=stage1_epochs, seed=0)

    def run():
        return train(train_call_scenes, ModelConfig(), cfg,
                     out_dir=str(tmp_path))

    _, report = benchmark(run)
    record_traced_peak(benchmark, run)
    assert all(math.isfinite(v) for v in report.l_total)
    assert (report.l_risk[0] > 0) == (stage1_epochs == 0)
    assert (tmp_path / "model_final.npz").exists()
