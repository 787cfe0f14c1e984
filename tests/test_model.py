"""End-to-end model tests: full-network gradient check, checkpoint
round-trips, prediction determinism, and export formats."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from riskcast import nn
from riskcast.intention import label_indices
from riskcast.model import (JointPredictor, ModelConfig, prediction_from_json,
                            prediction_to_csv_rows, prediction_to_json)
from riskcast.scene import RoadMap, generate_scenario
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
        n = len(local.agents)
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
        labels = [label_indices(a.future) for a in local.agents]

        def loss_fn():
            res = model.forward([local])
            l_pre, k_star, dtrajs = prediction_loss(res.trajectories, truth)
            l_man, dlat, dlon = intention_loss(res.lat_probs, res.lon_probs,
                                               labels)
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
                "MLP", "Linear", "HistoryEncoder", "LSTMCell"} <= seen
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
            _, k_star, dtrajs = prediction_loss(res.trajectories,
                                                _truth_matrix(local))
            labels = [label_indices(a.future) for a in local.agents]
            _, dlat, dlon = intention_loss(res.lat_probs, res.lon_probs,
                                           labels)
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
        ego_pos = scn.ego.current.position
        first = jp.trajectories[0, jp.agent_ids.index("ego"), 0]
        # decoded points start near the ego's current global position
        assert np.linalg.norm(first - ego_pos) < 30.0


def union_scenes(model):
    """Three local scenes with N = 3, 5 and 8, the second without a map."""
    scns = [generate_scenario("merge", 3, seed=21, H=3, T=5),
            generate_scenario("left_turn", 5, seed=22, H=3, T=5),
            generate_scenario("straight", 8, seed=23, H=3, T=5)]
    scns[1] = replace(scns[1], map=RoadMap.from_polylines([]))
    locals_ = [model.prepare(scn) for scn in scns]
    assert [len(local.agents) for local in locals_] == [3, 5, 8]
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
        l_pre, k_star, dtrajs[:, rows] = prediction_loss(
            res.trajectories[:, rows], _truth_matrix(local))
        l_man, dlat[rows], dlon[rows] = intention_loss(
            res.lat_probs[rows], res.lon_probs[rows],
            [label_indices(a.future) for a in local.agents])
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


class TestUnion:
    """A batch of scenes runs as one disjoint union of their agents."""

    def test_each_scene_matches_its_batch_of_one(self):
        model = JointPredictor(TINY)
        locals_ = union_scenes(model)
        res = model.forward(locals_)
        assert [(s.start, s.stop) for s in res.slices] == \
            [(0, 3), (3, 8), (8, 16)]
        assert res.mode_probs.shape == (3, TINY.n_modes)
        assert not res.att_rows[res.slices[1]].any()
        assert_scenes_match_alone(model, locals_, res)

    def test_a_union_without_maps(self):
        # the map encoder runs on no polylines and the agent-map attention
        # on visibility blocks without columns: no row attends, and the map
        # layers get no gradient
        model = JointPredictor(TINY)
        scns = [replace(generate_scenario(t, n, seed=s, H=3, T=5),
                        map=RoadMap.from_polylines([]))
                for t, n, s in (("merge", 3, 21), ("left_turn", 5, 22),
                                ("straight", 8, 23))]
        locals_ = [model.prepare(scn) for scn in scns]
        res = model.forward(locals_)
        assert not res.att_rows.any()
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

    def test_history_lengths_must_agree(self):
        model = JointPredictor(TINY)
        locals_ = [model.prepare(generate_scenario("merge", 3, seed=1, H=h,
                                                   T=5)) for h in (3, 4)]
        with pytest.raises(nn.DimensionError, match="history lengths"):
            model.forward(locals_)


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
        rewrite_npz(path, lambda arrays: arrays.update({name: np.zeros(
            (1, 1))}))
        with pytest.raises(ValueError, match="shape"):
            JointPredictor.load(str(path))

    def test_rejects_missing_tensor(self, tmp_path, tiny_setup):
        model, _, _ = tiny_setup
        path = tmp_path / "ckpt.npz"
        model.save(str(path))
        name = model.params()[0].name
        rewrite_npz(path, lambda arrays: arrays.pop(name))
        with pytest.raises(ValueError, match="missing tensor"):
            JointPredictor.load(str(path))

    def test_rejects_wrong_dtype(self, tmp_path, tiny_setup):
        model, _, _ = tiny_setup
        path = tmp_path / "ckpt.npz"
        model.save(str(path))
        p = model.params()[0]
        rewrite_npz(path, lambda arrays: arrays.update(
            {p.name: p.value.astype(np.float32)}))
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

    @pytest.mark.parametrize("name", ["dec.k1.0.W", "emb.lon.2.b",
                                      "int.lat.1.W", "aa.1.mha.k.W"])
    def test_checks_each_stacked_member(self, tmp_path, tiny_setup, name):
        model, _, _ = tiny_setup
        path = tmp_path / "ckpt.npz"
        model.save(str(path))
        rewrite_npz(path, lambda arrays: arrays.update({name: np.zeros(1)}))
        with pytest.raises(ValueError, match=f"{name}.*shape"):
            JointPredictor.load(str(path))
        rewrite_npz(path, lambda arrays: arrays.pop(name))
        with pytest.raises(ValueError, match=f"missing tensor '{name}'"):
            JointPredictor.load(str(path))

    def test_members_keep_per_head_names_and_order(self, tmp_path):
        # each stacked member is saved under the name, with the shape and
        # at the place, its own layer's parameter had before stacking
        model = JointPredictor(TINY)
        path = tmp_path / "ckpt.npz"
        model.save(str(path))
        with np.load(path) as npz:
            shapes = {n: npz[n].shape for n in npz.files if n != "__meta__"}
        d, t = TINY.embed_dim, TINY.future_steps
        want = {}
        for k in range(TINY.n_modes):
            want.update({f"dec.k{k}.0.W": (2 * d, 2 * d),
                         f"dec.k{k}.0.b": (2 * d,),
                         f"dec.k{k}.1.W": (2 * d, 2 * t),
                         f"dec.k{k}.1.b": (2 * t,)})
        for side in ("lat", "lon"):
            for c in range(3):
                want.update({f"emb.{side}.{c}.W": (d, d),
                             f"emb.{side}.{c}.b": (d,)})
            want.update({f"int.{side}.0.W": (d, d), f"int.{side}.0.b": (d,),
                         f"int.{side}.1.W": (d, 3), f"int.{side}.1.b": (3,)})
        mhas = [f"aa.{i}.mha" for i in range(TINY.transformer_layers)]
        for mha in mhas + ["amap"]:
            want.update({f"{mha}.{x}.W": (d, d) for x in "qkv"})
        assert {n: shapes.get(n) for n in want} == want
        plain = {p.name: p.shape for p in model.params() if p.names is None}
        assert set(shapes) == set(want) | set(plain)

        names = list(shapes)
        for group in (["dec.k0.1.b", "dec.k1.0.W"],
                      ["emb.lat.0.W", "emb.lat.0.b", "emb.lat.1.W"],
                      ["int.lat.1.b", "int.lon.0.W"],
                      ["amap.q.W", "amap.q.b", "amap.k.W", "amap.v.W",
                       "amap.v.b", "amap.o.W", "amap.o.b"]):
            i = names.index(group[0])
            assert names[i:i + len(group)] == group

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


def rewrite_npz(path, edit):
    """Apply `edit` to the arrays of a saved checkpoint and write them back."""
    with np.load(path, allow_pickle=False) as npz:
        arrays = {k: npz[k] for k in npz.files}
    edit(arrays)
    with open(path, "wb") as f:
        np.savez(f, **arrays)


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

    def test_csv_rows(self, tiny_setup):
        model, scn, _ = tiny_setup
        jp, _ = model.predict(scn)
        rows = prediction_to_csv_rows(jp)
        k, n, t, _ = jp.trajectories.shape
        assert len(rows) == k * n * t
        sid, aid, mode, step, x, y, p = rows[0]
        assert sid == scn.scenario_id and mode == 0 and step == 1
        assert float(x) == jp.trajectories[0, 0, 0, 0]
