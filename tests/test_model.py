"""End-to-end model tests: full-network gradient check, checkpoint
round-trips, prediction determinism, and export formats."""

import json
import os
from dataclasses import asdict

import numpy as np
import pytest

from riskcast import nn
from riskcast.intention import label_indices
from riskcast.model import (JointPredictor, ModelConfig, prediction_from_json,
                            prediction_to_csv_rows, prediction_to_json)
from riskcast.scene import generate_scenario
from riskcast.training import _truth_matrix, intention_loss, prediction_loss

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
        res = model.forward(local)
        n = len(local.agents)
        assert res.trajectories.shape == (2, n, 5, 2)
        assert res.mode_probs.shape == (2,)
        assert res.mode_probs.sum() == pytest.approx(1.0, abs=1e-9)
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
            model.clear_cache()
            res = model.forward(local)
            l_pre, k_star, dtrajs = prediction_loss(res.trajectories, truth)
            l_man, dlat, dlon = intention_loss(res.lat_probs, res.lon_probs,
                                               labels)
            l_mode = nn.cross_entropy(res.mode_probs, k_star)
            dp = nn.cross_entropy_grad(res.mode_probs, k_star)
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
                "MLP", "Linear", "LSTM", "LSTMCell"} <= seen
        assert left == []

    def test_prediction_in_global_frame(self, tiny_setup):
        model, scn, _ = tiny_setup
        jp, _ = model.predict(scn)
        ego_pos = scn.ego.current.position
        first = jp.trajectories[0, jp.agent_ids.index("ego"), 0]
        # decoded points start near the ego's current global position
        assert np.linalg.norm(first - ego_pos) < 30.0


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


def save_v1(model, path):
    """Write `model` in the version-1 JSON checkpoint layout."""
    path.write_text(json.dumps({
        "format": "riskcast-checkpoint",
        "version": 1,
        "config": asdict(model.cfg),
        "tensors": {p.name: {"shape": list(p.shape),
                             "data": p.value.reshape(-1).tolist()}
                    for p in model.params()},
    }, sort_keys=True))


class TestCheckpointV1:
    def test_round_trip_bit_exact(self, tmp_path, tiny_setup):
        model, scn, _ = tiny_setup
        path = tmp_path / "ckpt.json"
        save_v1(model, path)
        again = JointPredictor.load(str(path))
        for p, q in zip(model.params(), again.params()):
            assert np.array_equal(p.value, q.value)
        jp1, _ = model.predict(scn)
        jp2, _ = again.predict(scn)
        assert np.array_equal(jp1.trajectories, jp2.trajectories)

    def test_rejects_shape_mismatch(self, tmp_path, tiny_setup):
        model, _, _ = tiny_setup
        path = tmp_path / "ckpt.json"
        save_v1(model, path)
        doc = json.loads(path.read_text())
        name = next(iter(doc["tensors"]))
        doc["tensors"][name] = {"shape": [1, 1], "data": [0.0]}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="shape"):
            JointPredictor.load(str(path))

    def test_rejects_missing_tensor(self, tmp_path, tiny_setup):
        model, _, _ = tiny_setup
        path = tmp_path / "ckpt.json"
        save_v1(model, path)
        doc = json.loads(path.read_text())
        del doc["tensors"][next(iter(doc["tensors"]))]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="missing tensor"):
            JointPredictor.load(str(path))


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
