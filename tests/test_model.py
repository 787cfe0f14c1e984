"""End-to-end model tests: full-network gradient check, checkpoint
round-trips, prediction determinism, and export formats."""

import io
import json
import os
import zipfile
from dataclasses import replace

import numpy as np
import pytest

from riskcast import nn
from riskcast.evaluation import evaluate
from riskcast.intention import label_indices
from riskcast.interaction import history_feature_matrix, neighbor_mask
from riskcast.model import (JointPredictor, ModelConfig, prediction_from_json,
                            prediction_to_csv_rows, prediction_to_json)
from riskcast.risk import rank_trajectories
from riskcast.scene import RoadMap, ScenarioError, generate_scenario
from riskcast.training import (TrainConfig, _TrainScene, _truth_matrix,
                               _union_losses, intention_loss, prediction_loss)

TINY = ModelConfig(embed_dim=8, attention_heads=2, transformer_layers=2,
                   ff_mult=2, map_pad=20, n_modes=2, future_steps=5,
                   init_seed=3)


@pytest.fixture
def tiny_setup():
    scn = generate_scenario("crossing_conflict", 3, seed=11, H=3, T=5)
    model = JointPredictor(TINY)
    local = model.prepare(scn)
    return model, scn, local


class TestForward:
    def test_shapes(self, tiny_setup):
        model, _, local = tiny_setup
        res = model.forward([local])
        n = len(local.agent_ids)
        assert res.trajectories.shape == (2, n, 5, 2)
        assert res.mode_probs[0].shape == (2,)
        assert res.mode_probs[0].sum() == pytest.approx(1.0, abs=1e-9)
        assert res.lat_probs.shape == (n, 3)
        assert np.allclose(res.lat_probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(res.intention_feature.sum(axis=1), 1.0,
                           atol=1e-9)

    def test_unique_parameter_names(self):
        model = JointPredictor(TINY)
        names = [p.name for p in model.params()]
        assert len(names) == len(set(names))

    def test_full_model_gradient_check(self, tiny_setup):
        model, _, local = tiny_setup
        truth = _truth_matrix(local)
        labels = label_indices(local.future)

        def loss_fn():
            res = model.forward([local])
            [l_pre], [k_star], dtrajs = prediction_loss(
                res.trajectories, truth, res.slices)
            [l_man], dlat, dlon = intention_loss(
                res.lat_probs, res.lon_probs, labels, res.slices)
            l_mode = nn.cross_entropy(res.mode_probs[0], k_star)
            dp = nn.cross_entropy_grad(res.mode_probs[0], k_star)
            model.backward(res, dtrajs, dp, 0.5 * dlat, 0.5 * dlon)
            return l_pre + 0.5 * l_man + l_mode

        params = model.params()
        for p in params:
            p.grad[...] = 0.0
        loss_fn()
        analytic = {p.name: p.grad.copy() for p in params}
        rng = np.random.default_rng(0)
        h = 1e-5
        worst = 0.0
        for p in params:
            flat = p.value.reshape(-1)
            aflat = analytic[p.name].reshape(-1)
            for idx in rng.choice(flat.size, size=min(3, flat.size),
                                  replace=False):
                orig = flat[idx]
                flat[idx] = orig + h
                lp = loss_fn()
                flat[idx] = orig - h
                lm = loss_fn()
                flat[idx] = orig
                num = (lp - lm) / (2 * h)
                rel = abs(aflat[idx] - num) / max(abs(aflat[idx]), abs(num),
                                                  1e-8)
                worst = max(worst, rel)
        assert worst < 1e-5

    def test_predict_deterministic(self, tiny_setup):
        model, scn, _ = tiny_setup
        jp1, d1 = model.predict(scn)
        jp2, d2 = model.predict(scn)
        assert np.array_equal(jp1.trajectories, jp2.trajectories)
        assert np.array_equal(jp1.mode_probs, jp2.mode_probs)

    def test_predict_leaves_no_backward_cache(self, tiny_setup):
        # every list attribute of a module that holds no sub-modules is a
        # backward cache; predict must leave all of them empty
        model, scn, _ = tiny_setup
        model.predict(scn)
        model.predict(scn)
        left, seen = [], set()

        def walk(module, path):
            seen.add(type(module).__name__)
            for name, attr in vars(module).items():
                items = attr if isinstance(attr, list) else [attr]
                subs = [x for x in items if isinstance(x, nn.Module)]
                for i, sub in enumerate(subs):
                    walk(sub, f"{path}.{name}[{i}]")
                if isinstance(attr, list) and attr and not subs:
                    left.append(f"{path}.{name}")

        walk(model, "model")
        assert {"SelfAttentionBlock", "LayerNorm", "MultiHeadAttention",
                "MLP", "Linear", "HistoryEncoder"} <= seen
        assert left == []

    def test_forward_leaves_only_parameters_and_config(self, tiny_setup):
        # a module holds parameters, sub-modules and config values; what a
        # forward computes for its backward goes into the returned context
        model, _, local = tiny_setup
        model.forward([local])
        bad = []

        def walk(module, path):
            for name, attr in vars(module).items():
                subs = attr if isinstance(attr, list) else [attr]
                if subs and all(isinstance(x, nn.Module) for x in subs):
                    for i, sub in enumerate(subs):
                        walk(sub, f"{path}.{name}[{i}]")
                elif not isinstance(attr, (nn.Parameter, ModelConfig, int,
                                           float, str, type(None))):
                    bad.append(f"{path}.{name}")

        walk(model, "model")
        assert bad == []

    def test_interleaved_backwards_match_separate_passes(self):
        model = JointPredictor(TINY)
        locals_ = [model.prepare(generate_scenario(t, n, seed=s, H=3, T=5))
                   for t, n, s in (("crossing_conflict", 3, 11),
                                   ("merge", 4, 2))]

        def backward(res, local):
            _, [k_star], dtrajs = prediction_loss(
                res.trajectories, _truth_matrix(local), res.slices)
            _, dlat, dlon = intention_loss(res.lat_probs, res.lon_probs,
                                           label_indices(local.future),
                                           res.slices)
            model.backward(res, dtrajs,
                           nn.cross_entropy_grad(res.mode_probs[0], k_star),
                           dlat, dlon)

        model.zero_grad()
        for local in locals_:
            backward(model.forward([local]), local)
        separate = [p.grad.copy() for p in model.params()]

        model.zero_grad()
        results = [model.forward([local]) for local in locals_]
        for res, local in zip(results, locals_):
            backward(res, local)
        for p, want in zip(model.params(), separate):
            assert p.grad.tobytes() == want.tobytes(), p.name

    def test_prediction_in_global_frame(self, tiny_setup):
        model, scn, _ = tiny_setup
        jp, _ = model.predict(scn)
        ego_pos = scn.state(scn.ego_index).position
        first = jp.trajectories[0, jp.agent_ids.index("ego"), 0]
        # decoded points start near the ego's current global position
        assert np.linalg.norm(first - ego_pos) < 30.0


def union_scenes(model):
    """Three local scenes with N = 3, 5 and 8, the second without a map."""
    scns = [generate_scenario("merge", 3, seed=21, H=3, T=5),
            generate_scenario("left_turn", 5, seed=22, H=3, T=5),
            generate_scenario("straight", 8, seed=23, H=3, T=5)]
    scns[1] = replace(scns[1], map=RoadMap.padded([], []))
    locals_ = [model.prepare(scn) for scn in scns]
    assert [len(local.agent_ids) for local in locals_] == [3, 5, 8]
    assert [len(local.map) > 0 for local in locals_] == [True, False, True]
    return locals_


def batch_loss(model, locals_):
    """Forward, backward and loss of a batch: per scene, the trajectory,
    half the intention and the mode cross-entropy losses."""
    res = model.forward(locals_)
    dtrajs = np.zeros_like(res.trajectories)
    dprobs = np.zeros_like(res.mode_probs)
    dlat = np.zeros_like(res.lat_probs)
    dlon = np.zeros_like(res.lon_probs)
    loss = 0.0
    for b, (local, rows) in enumerate(zip(locals_, res.slices)):
        one = [slice(0, rows.stop - rows.start)]
        [l_pre], [k_star], dtrajs[:, rows] = prediction_loss(
            res.trajectories[:, rows], _truth_matrix(local), one)
        [l_man], dlat[rows], dlon[rows] = intention_loss(
            res.lat_probs[rows], res.lon_probs[rows],
            label_indices(local.future), one)
        dprobs[b] = nn.cross_entropy_grad(res.mode_probs[b], k_star)
        loss += l_pre + 0.5 * l_man + nn.cross_entropy(res.mode_probs[b],
                                                       k_star)
    model.backward(res, dtrajs, dprobs, 0.5 * dlat, 0.5 * dlon)
    return loss


def assert_scenes_match_alone(model, locals_, res):
    """Each scene's rows of the union forward `res` are its batch of one."""
    for b, local in enumerate(locals_):
        alone = model.forward([local])
        rows = res.slices[b]
        for got, want in ((res.trajectories[:, rows], alone.trajectories),
                          (res.mode_probs[b], alone.mode_probs[0]),
                          (res.lat_probs[rows], alone.lat_probs),
                          (res.lon_probs[rows], alone.lon_probs),
                          (res.features[rows], alone.features)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def agent_agent_output(model, locals_):
    """The agent-agent encoder's output over the scenes' history LSTM
    states, the features a union without map context has."""
    h, _ = model.history.forward(
        np.concatenate([history_feature_matrix(local) for local in locals_]))
    out, _ = model.agent_agent.forward(
        h, [neighbor_mask(local, model.cfg.context_radius_m)
            for local in locals_])
    return out


class TestUnion:
    """A batch of scenes runs as one disjoint union of their agents."""

    def test_each_scene_matches_its_batch_of_one(self):
        model = JointPredictor(TINY)
        locals_ = union_scenes(model)
        res = model.forward(locals_)
        assert [(s.start, s.stop) for s in res.slices] == \
            [(0, 3), (3, 8), (8, 16)]
        assert res.mode_probs.shape == (3, TINY.n_modes)
        # the scene without a map gets no map context
        np.testing.assert_allclose(res.features[res.slices[1]],
                                   agent_agent_output(model, locals_[1:2]),
                                   rtol=1e-12, atol=0)
        assert_scenes_match_alone(model, locals_, res)

    def test_a_union_without_maps(self):
        # the map encoder runs on no polylines and the agent-map attention
        # on visibility blocks without columns: no row attends, and the map
        # layers get no gradient
        model = JointPredictor(TINY)
        scns = [replace(generate_scenario(t, n, seed=s, H=3, T=5),
                        map=RoadMap.padded([], []))
                for t, n, s in (("merge", 3, 21), ("left_turn", 5, 22),
                                ("straight", 8, 23))]
        locals_ = [model.prepare(scn) for scn in scns]
        res = model.forward(locals_)
        assert np.array_equal(res.features,
                              agent_agent_output(model, locals_))
        assert_scenes_match_alone(model, locals_, res)

        model.zero_grad()
        batch_loss(model, locals_)
        map_params = [p for p in model.params()
                      if p.name.startswith(("map.", "amap."))]
        assert map_params
        for p in map_params:
            assert not p.grad.any(), p.name
        assert all(p.grad.any() for p in model.params()
                   if p.name.startswith("hist."))

    def test_minibatch_gradient_is_the_sum_of_scene_gradients(self):
        # stage 2, so that the risk gradient is written back too
        model = JointPredictor(TINY)
        scenes = [_TrainScene.of(local) for local in union_scenes(model)]
        cfg = TrainConfig(epochs=2, stage1_epochs=1)
        model.zero_grad()
        alone = [_union_losses(model, [scene], 2, cfg)[0]
                 for scene in scenes]
        want = [p.grad.copy() for p in model.params()]
        model.zero_grad()
        together = _union_losses(model, scenes, 2, cfg)
        np.testing.assert_allclose(together, alone, rtol=1e-12, atol=0)
        assert any(l_risk > 0 for _, _, l_risk in together)
        for p, w in zip(model.params(), want):
            assert np.linalg.norm(p.grad - w) <= 1e-12 * np.linalg.norm(w), \
                p.name

    def test_gradient_check_over_two_scenes(self):
        model = JointPredictor(TINY)
        locals_ = [model.prepare(generate_scenario(t, n, seed=s, H=3, T=5))
                   for t, n, s in (("crossing_conflict", 3, 11),
                                   ("merge", 4, 2))]
        biases = [p for p in model.params() if p.name.endswith(".b")]
        assert nn.grad_check(lambda: batch_loss(model, locals_),
                             biases) < 1e-5

    def test_a_union_of_two_history_lengths(self):
        # the LSTM runs once per history length, the rest once per union
        model = JointPredictor(TINY)
        locals_ = [model.prepare(generate_scenario(t, n, seed=s, H=h, T=5))
                   for t, n, s, h in (("crossing_conflict", 3, 11, 5),
                                      ("merge", 4, 2, 3),
                                      ("straight", 2, 3, 5))]
        res = model.forward(locals_)
        assert len(res.ctx[0]) == 2
        assert_scenes_match_alone(model, locals_, res)
        biases = [p for p in model.params() if p.name.endswith(".b")]
        assert nn.grad_check(lambda: batch_loss(model, locals_),
                             biases) < 1e-5


class TestConfig:
    @pytest.mark.parametrize("field,value", [
        ("n_modes", 0), ("embed_dim", -8), ("future_steps", 0),
        ("context_radius_m", float("nan")), ("context_radius_m", 0.0),
        ("init_seed", -1)])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}:"):
            ModelConfig(**{field: value})

    def test_heads_must_divide_embedding(self):
        with pytest.raises(ValueError, match="^embed_dim:"):
            ModelConfig(embed_dim=30, attention_heads=4)

    @pytest.mark.parametrize("field", ["embed_dim", "context_radius_m"])
    def test_an_integer_beyond_the_float_range_is_out_of_range(self, field):
        with pytest.raises(ValueError, match=f"^{field}: 1000"):
            ModelConfig(**{field: 10 ** 400})

    def test_seed_zero_accepted(self):
        assert ModelConfig(init_seed=0).init_seed == 0


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, tiny_setup):
        model, scn, _ = tiny_setup
        path = tmp_path / "ckpt.json"
        model.save(str(path))
        again = JointPredictor.load(str(path))
        for p, q in zip(model.params(), again.params()):
            assert p.name == q.name
            assert np.array_equal(p.value, q.value)
        jp1, _ = model.predict(scn)
        jp2, _ = again.predict(scn)
        assert np.array_equal(jp1.trajectories, jp2.trajectories)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="not a riskcast-checkpoint"):
            JointPredictor.load(str(path))

    def test_rejects_shape_mismatch(self, tmp_path, tiny_setup):
        model, _, _ = tiny_setup
        path = tmp_path / "ckpt.npz"
        model.save(str(path))
        name = model.params()[0].name
        rewrite_npz(path, lambda meta, arrays: set_shape(meta, name, [1, 1]))
        with pytest.raises(ValueError, match="shape"):
            JointPredictor.load(str(path))

    def test_rejects_missing_tensor(self, tmp_path, tiny_setup):
        model, _, _ = tiny_setup
        path = tmp_path / "ckpt.npz"
        model.save(str(path))
        name = model.params()[0].name
        rewrite_npz(path, lambda meta, arrays: drop_tensor(meta, arrays,
                                                           name))
        with pytest.raises(ValueError, match="missing tensor"):
            JointPredictor.load(str(path))

    def test_rejects_wrong_dtype(self, tmp_path, tiny_setup):
        model, _, _ = tiny_setup
        path = tmp_path / "ckpt.npz"
        model.save(str(path))
        rewrite_npz(path, lambda meta, arrays: arrays.update(
            params=arrays["params"].astype(np.float32)))
        with pytest.raises(ValueError, match="float64"):
            JointPredictor.load(str(path))

    def test_rejects_version_1_json(self, tmp_path, tiny_setup):
        model, _, _ = tiny_setup
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({
            "format": "riskcast-checkpoint", "version": 1, "tensors": {
                p.name: {"shape": list(p.shape),
                         "data": p.value.reshape(-1).tolist()}
                for p in model.params()}}))
        with pytest.raises(ValueError, match="not a riskcast-checkpoint"):
            JointPredictor.load(str(path))

    @pytest.mark.parametrize("version", [2, 3, 5])
    def test_rejects_another_version(self, tmp_path, tiny_setup, version):
        model, _, _ = tiny_setup
        path = tmp_path / "ckpt.npz"
        model.save(str(path))
        # version 3 in its own layout, one entry per parameter
        rewrite_npz(path, split_params if version == 3 else None,
                    version=version)
        with pytest.raises(ValueError,
                           match=f"unsupported checkpoint version {version}"):
            JointPredictor.load(str(path))

    @pytest.mark.parametrize("name", ["dec.heads.0.W", "emb.lon.b",
                                      "int.1.W", "aa.1.mha.qkv.W"])
    def test_checks_each_stacked_parameter(self, tmp_path, tiny_setup, name):
        # one member's shape is not the stacked parameter's
        model, _, _ = tiny_setup
        path = tmp_path / "ckpt.npz"
        model.save(str(path))
        shape = {p.name: p.shape for p in model.params()}[name]
        rewrite_npz(path, lambda meta, arrays: set_shape(meta, name,
                                                         list(shape[1:])))
        with pytest.raises(ValueError, match=f"{name}.*shape"):
            JointPredictor.load(str(path))
        model.save(str(path))
        rewrite_npz(path, lambda meta, arrays: drop_tensor(meta, arrays,
                                                           name))
        with pytest.raises(ValueError, match=f"missing tensor '{name}'"):
            JointPredictor.load(str(path))

    def test_entries_are_the_parameters_in_order(self, tmp_path):
        # version 4: the meta's index names and shapes every parameter as
        # params() lists them, and one vector holds them in that order; a
        # stack is one index entry
        model = JointPredictor(TINY)
        path = tmp_path / "ckpt.npz"
        model.save(str(path))
        with np.load(path) as npz:
            assert npz.files == ["__meta__", "params"]
            index = json.loads(str(npz["__meta__"]))["index"]
            vector = npz["params"]
        assert index == [[p.name, list(p.shape)] for p in model.params()]
        assert len(set(n for n, _ in index)) == len(index)
        assert vector.dtype == np.float64
        assert np.array_equal(vector, np.concatenate(
            [p.value.reshape(-1) for p in model.params()]))
        d, k, t = TINY.embed_dim, TINY.n_modes, TINY.future_steps
        shapes = {n: tuple(shape) for n, shape in index}
        assert {n: shapes[n] for n in [
            "dec.heads.0.W", "dec.heads.1.b", "emb.lat.W", "emb.lon.b",
            "int.0.W", "int.1.b", "aa.0.mha.qkv.W", "amap.qkv.W"]} == {
            "dec.heads.0.W": (k, 2 * d, 2 * d), "dec.heads.1.b": (k, 2 * t),
            "emb.lat.W": (3, d, d), "emb.lon.b": (3, d),
            "int.0.W": (2, d, d), "int.1.b": (2, 3),
            "aa.0.mha.qkv.W": (3, d, d), "amap.qkv.W": (3, d, d)}

    def test_default_index_is_pinned(self):
        # the checkpoint order is the order __init__ assigns the parameters;
        # this literal pins it, so a reordered __init__ fails here
        d, d2 = 64, 128
        block = [("ln1.gamma", (d,)), ("ln1.beta", (d,)),
                 ("mha.qkv.W", (3, d, d)), ("mha.q.b", (d,)),
                 ("mha.v.b", (d,)), ("mha.o.W", (d, d)), ("mha.o.b", (d,)),
                 ("ln2.gamma", (d,)), ("ln2.beta", (d,)),
                 ("ff.0.W", (d, d2)), ("ff.0.b", (d2,)),
                 ("ff.1.W", (d2, d)), ("ff.1.b", (d,))]
        assert [(p.name, p.shape)
                for p in JointPredictor(ModelConfig()).params()] == [
            ("hist.Wx", (14, 4 * d)), ("hist.Wh", (d, 4 * d)),
            ("hist.b", (4 * d,)),
            ("map.0.W", (63, d)), ("map.0.b", (d,)),
            ("map.1.W", (d, d)), ("map.1.b", (d,)),
            *[(f"aa.{i}.{name}", shape) for i in range(2)
              for name, shape in block],
            ("amap.qkv.W", (3, d, d)), ("amap.q.b", (d,)),
            ("amap.v.b", (d,)), ("amap.o.W", (d, d)), ("amap.o.b", (d,)),
            ("int.0.W", (2, d, d)), ("int.0.b", (2, d)),
            ("int.1.W", (2, d, 3)), ("int.1.b", (2, 3)),
            ("emb.lat.W", (3, d, d)), ("emb.lat.b", (3, d)),
            ("emb.lon.W", (3, d, d)), ("emb.lon.b", (3, d)),
            ("fuse.0.W", (d2, d)), ("fuse.0.b", (d,)),
            ("dec.heads.0.W", (6, d2, d2)), ("dec.heads.0.b", (6, d2)),
            ("dec.heads.1.W", (6, d2, 100)), ("dec.heads.1.b", (6, 100)),
            ("dec.pool.0.W", (d2, d)), ("dec.pool.0.b", (d,)),
            ("dec.prob.0.W", (d, d)), ("dec.prob.0.b", (d,)),
            ("dec.prob.1.W", (d, 6)), ("dec.prob.1.b", (6,))]

    def test_rejects_a_truncated_vector(self, tmp_path, tiny_setup):
        model, _, _ = tiny_setup
        path = tmp_path / "ckpt.npz"
        model.save(str(path))
        rewrite_npz(path, lambda meta, arrays: arrays.update(
            params=arrays["params"][:-1]))
        with pytest.raises(ValueError, match="'params'.*shape"):
            JointPredictor.load(str(path))

    @pytest.mark.parametrize("extra, match", [(-8, "ends early"),
                                              (8, "runs past")])
    def test_rejects_a_vector_unlike_its_header(self, tmp_path, tiny_setup,
                                                extra, match):
        # the npy header says the index's size; the bytes after it differ
        model, _, _ = tiny_setup
        path = tmp_path / "ckpt.npz"
        model.save(str(path))
        with zipfile.ZipFile(path) as zf:
            meta = zf.read("__meta__.npy")
            data = zf.read("params.npy")
        data = data[:extra] if extra < 0 else data + bytes(extra)
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("__meta__.npy", meta)
            zf.writestr("params.npy", data)
        with pytest.raises(ValueError, match=match):
            JointPredictor.load(str(path))

    def test_rejects_an_index_out_of_order(self, tmp_path, tiny_setup):
        model, _, _ = tiny_setup
        path = tmp_path / "ckpt.npz"
        model.save(str(path))
        rewrite_npz(path, lambda meta, arrays: meta["index"].reverse())
        with pytest.raises(ValueError, match="in order"):
            JointPredictor.load(str(path))

    def test_rejects_an_index_that_repeats_a_name(self, tmp_path,
                                                  tiny_setup):
        # the last entry listed twice: as a dict, the index reads in order
        model, _, _ = tiny_setup
        path = tmp_path / "ckpt.npz"
        model.save(str(path))
        last = model.params()[-1].name
        rewrite_npz(path, lambda meta, arrays: meta["index"].append(
            meta["index"][-1]))
        with pytest.raises(ValueError, match=(
                f"^checkpoint index lists tensor '{last}' twice")):
            JointPredictor.load(str(path))

    @pytest.mark.parametrize("index", [None, "dec", [["a"]], [["a", 2]],
                                       [[["a"], [2]]]])
    def test_rejects_a_malformed_index(self, tmp_path, tiny_setup, index):
        model, _, _ = tiny_setup
        path = tmp_path / "ckpt.npz"
        model.save(str(path))
        rewrite_npz(path, lambda meta, arrays: meta.update(index=index))
        with pytest.raises(ScenarioError,
                           match=r"^schema violation at \$\.index"):
            JointPredictor.load(str(path))

    # the integer field passes the walk and fails ModelConfig's range; the
    # float field fails the walk, as a number no float holds
    @pytest.mark.parametrize("field, fault", [
        ("embed_dim", "^checkpoint config embed_dim: 1000"),
        ("context_radius_m", r"^schema violation at \$\.config\."
                             r"context_radius_m: non-finite number")])
    def test_rejects_a_config_integer_beyond_the_float_range(
            self, tmp_path, tiny_setup, field, fault):
        model, _, _ = tiny_setup
        path = tmp_path / "ckpt.npz"
        model.save(str(path))
        rewrite_npz(path, lambda meta, arrays: meta["config"].update(
            {field: 10 ** 400}))
        with pytest.raises(ValueError, match=fault):
            JointPredictor.load(str(path))

    def test_rejects_an_index_dimension_given_as_a_float(self, tmp_path,
                                                         tiny_setup):
        model, _, _ = tiny_setup
        path = tmp_path / "ckpt.npz"
        model.save(str(path))
        first = model.params()[0]
        rewrite_npz(path, lambda meta, arrays: set_shape(
            meta, first.name, [float(d) for d in first.shape]))
        with pytest.raises(ScenarioError, match=(
                r"^schema violation at \$\.index\[0\]\[1\]\[0\]: "
                r"expected an integer, got 14\.0")):
            JointPredictor.load(str(path))

    def test_rejects_an_npy_2_params_entry(self, tmp_path, tiny_setup):
        # save writes npy 1.0; the same vector under a 2.0 header is refused
        model, _, _ = tiny_setup
        path = tmp_path / "ckpt.npz"
        model.save(str(path))
        with zipfile.ZipFile(path) as zf:
            meta = zf.read("__meta__.npy")
            vector = np.load(io.BytesIO(zf.read("params.npy")))
        data = io.BytesIO()
        np.lib.format.write_array(data, vector, version=(2, 0))
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("__meta__.npy", meta)
            zf.writestr("params.npy", data.getvalue())
        with pytest.raises(ValueError, match="unsupported npy format version"):
            JointPredictor.load(str(path))

    def test_saves_to_exactly_the_path_deterministically(self, tmp_path,
                                                         tiny_setup):
        model, _, _ = tiny_setup
        model.save(str(tmp_path / "x.json.tmp1"))
        model.save(str(tmp_path / "y"))
        assert sorted(os.listdir(tmp_path)) == ["x.json.tmp1", "y"]
        assert (tmp_path / "x.json.tmp1").read_bytes() == \
            (tmp_path / "y").read_bytes()
        again = JointPredictor.load(str(tmp_path / "x.json.tmp1"))
        assert all(np.array_equal(p.value, q.value)
                   for p, q in zip(model.params(), again.params()))

    def test_a_failed_save_keeps_the_previous_checkpoint(
            self, tmp_path, tiny_setup, monkeypatch):
        model, _, _ = tiny_setup
        path = tmp_path / "ckpt.npz"
        model.save(str(path))
        before = path.read_bytes()
        other = JointPredictor(replace(model.cfg, init_seed=5))

        def fail(f, header):   # after the meta entry, before the params
            raise OSError("disk gone")

        monkeypatch.setattr(np.lib.format, "write_array_header_1_0", fail)
        with pytest.raises(OSError, match="disk gone"):
            other.save(str(path))
        assert os.listdir(tmp_path) == ["ckpt.npz"]
        assert path.read_bytes() == before
        again = JointPredictor.load(str(path))
        assert all(np.array_equal(p.value, q.value)
                   for p, q in zip(model.params(), again.params()))


def rewrite_npz(path, edit=None, version=None):
    """Apply `edit` to the meta and the arrays of a saved checkpoint and
    write them back, with `version` in the meta if given."""
    with np.load(path, allow_pickle=False) as npz:
        arrays = {k: npz[k] for k in npz.files}
    meta = json.loads(str(arrays["__meta__"]))
    if edit is not None:
        edit(meta, arrays)
    if version is not None:
        meta["version"] = version
    arrays["__meta__"] = np.array(json.dumps(meta))
    with open(path, "wb") as f:
        np.savez(f, **arrays)


def _index_slices(meta):
    """Each index entry's name, shape and slice of the params vector."""
    bounds = np.cumsum([0] + [int(np.prod(shape)) for _, shape
                              in meta["index"]]).tolist()
    return [(name, shape, slice(lo, hi)) for (name, shape), lo, hi
            in zip(meta["index"], bounds[:-1], bounds[1:])]


def set_shape(meta, name, shape):
    """Give `name` another shape in the index."""
    for entry in meta["index"]:
        if entry[0] == name:
            entry[1] = shape


def drop_tensor(meta, arrays, name):
    """Take `name` out of the index and its values out of the vector."""
    [(_, _, s)] = [e for e in _index_slices(meta) if e[0] == name]
    arrays["params"] = np.delete(arrays["params"], s)
    meta["index"] = [e for e in meta["index"] if e[0] != name]


def split_params(meta, arrays):
    """The version-3 layout: one entry per parameter, named as it is."""
    vector = arrays.pop("params")
    arrays.update({name: vector[s].reshape(shape)
                   for name, shape, s in _index_slices(meta)})
    del meta["index"]


class TestGradientsOnFirstUse:
    def test_a_loaded_model_that_predicts_holds_no_gradient(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        JointPredictor(TINY).save(str(path))
        model = JointPredictor.load(str(path))
        scn = generate_scenario("crossing_conflict", 3, seed=11, H=3, T=5)
        jp, _ = model.predict(scn)
        rank_trajectories(jp, scn)
        evaluate(lambda s: model.predict(s)[0], [scn])
        assert not any(p.has_grad for p in model.params())
        model.zero_grad()
        assert not any(p.has_grad for p in model.params())


class TestExport:
    def test_prediction_json_round_trip(self, tiny_setup):
        model, scn, _ = tiny_setup
        jp, dists = model.predict(scn)
        doc = prediction_to_json(jp, dists)
        assert doc["scenario_id"] == scn.scenario_id
        assert {m["k"] for m in doc["modes"]} == {0, 1}
        for entry in doc["intentions"]:
            assert set(entry["lateral"]) == {"LT", "ST", "RT"}
            assert set(entry["longitudinal"]) == {"ACC", "CON", "DEC"}
        again = prediction_from_json(doc)
        assert np.array_equal(again.trajectories, jp.trajectories)
        assert np.array_equal(again.mode_probs, jp.mode_probs)
        assert again.agent_ids == jp.agent_ids

    # the first fault of each document, at its JSON path
    @pytest.mark.parametrize("p, points, fault", [
        ("1", [["1.5", True], [2, "3e0"]],
         r"\$\.modes\[0\]\.p: expected a number, got '1'"),
        (1, [[1.5, 2.0], ["2", 3.0]],
         r"\$\.modes\[0\]\.agents\[0\]\.points\[1\]\[0\]: expected a "
         r"number, got '2'"),
        (1, [[1.5, 2.0], [2.0, False]],
         r"\$\.modes\[0\]\.agents\[0\]\.points\[1\]\[1\]: expected a "
         r"number, got False"),
        (True, [[1.5, 2.0], [2.0, 3.0]],
         r"\$\.modes\[0\]\.p: expected a number, got True"),
        (1, [[1.5, 2.0], [2.0, 10 ** 400]],
         r"\$\.modes\[0\]\.agents\[0\]\.points\[1\]\[1\]: non-finite "
         r"number .* \(beyond the float range\)"),
    ], ids=["strings_and_bool", "string_point", "bool_point", "bool_p",
            "int_beyond_float"])
    def test_prediction_needs_json_numbers(self, p, points, fault):
        doc = {"modes": [{"k": 0, "p": p,
                          "agents": [{"id": "a", "points": points}]}]}
        with pytest.raises(ValueError, match=fault):
            prediction_from_json(doc)

    # one agent "a"; its points in each mode
    @pytest.mark.parametrize("mode_points, fault", [
        ([[[1.5, 1], [2]]],
         r"\$\.modes\[0\]\.agents\[0\]\.points\[1\]: needs at least 2 "
         r"items, got 1"),
        ([[[1.5, 1], [2, 3]], [[1.5, 1]]],
         r"points must form one \[K, N, T, 2\] array.*agent 'a' in mode "
         r"k=1"),
    ], ids=["short_point", "modes_differ_in_T"])
    def test_ragged_points_are_a_shape_fault(self, mode_points, fault):
        doc = {"modes": [{"k": i, "p": 1.0 / len(mode_points),
                          "agents": [{"id": "a", "points": points}]}
                         for i, points in enumerate(mode_points)]}
        with pytest.raises(ValueError, match=fault):
            prediction_from_json(doc)

    def test_csv_rows(self, tiny_setup):
        model, scn, _ = tiny_setup
        jp, _ = model.predict(scn)
        rows = prediction_to_csv_rows(jp)
        k, n, t, _ = jp.trajectories.shape
        assert len(rows) == k * n * t
        sid, aid, mode, step, x, y, p = rows[0]
        assert sid == scn.scenario_id and mode == 0 and step == 1
        assert float(x) == jp.trajectories[0, 0, 0, 0]
