"""Intention head, fusion, decoder, labeling, and mode-selection tests."""

import math
import warnings

import numpy as np
import pytest

from riskcast import nn
from riskcast.intention import (ClassEmbeddings, IntentionFuser,
                                IntentionHead, JointDecoder, JointPrediction,
                                label_intentions, select_mode)

DIM = 12


def zero_params(module):
    for p in module.params():
        p.value[...] = 0.0


class TestIntentionHead:
    def test_distributions_sum_to_one(self):
        head = IntentionHead(DIM, nn.seeded_rng(0))
        feats = nn.seeded_rng(1).normal(size=(4, DIM))
        (lat, lon), _ = head.forward(feats)
        assert lat.shape == lon.shape == (4, 3)
        for d_lat, d_lon in zip(lat, lon):
            assert d_lat.sum() == pytest.approx(1.0, abs=1e-9)
            assert d_lon.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(d_lat >= 0) and np.all(d_lon >= 0)

    def test_zero_params_uniform(self):
        head = IntentionHead(DIM, nn.seeded_rng(0))
        zero_params(head)
        (lat, lon), _ = head.forward(np.ones((2, DIM)))
        assert lat.shape == lon.shape == (2, 3)
        assert np.allclose(lat, 1 / 3, atol=1e-12)
        assert np.allclose(lon, 1 / 3, atol=1e-12)

    def test_identical_rows_identical_distributions(self):
        head = IntentionHead(DIM, nn.seeded_rng(2))
        row = nn.seeded_rng(3).normal(size=DIM)
        feats = np.stack([row, row])
        (lat, lon), _ = head.forward(feats)
        assert np.array_equal(lat[0], lat[1])
        assert np.array_equal(lon[0], lon[1])


class TestFusion:
    def test_rows_softmax_normalized(self):
        fuser = IntentionFuser(DIM, nn.seeded_rng(4))
        e = nn.seeded_rng(5).normal(size=(3, DIM))
        z, _ = fuser.forward(e, e * 0.5)
        assert np.allclose(z.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(z > 0)

    def test_zero_params_uniform(self):
        fuser = IntentionFuser(DIM, nn.seeded_rng(6))
        zero_params(fuser)
        z, _ = fuser.forward(np.ones((2, DIM)), np.ones((2, DIM)))
        assert np.allclose(z, 1.0 / DIM, atol=1e-12)

    def test_matches_oracle_composition(self):
        fuser = IntentionFuser(DIM, nn.seeded_rng(7))
        rng = nn.seeded_rng(8)
        e_lat = rng.normal(size=(3, DIM))
        e_lon = rng.normal(size=(3, DIM))
        z, _ = fuser.forward(e_lat, e_lon)
        expected = nn.softmax(
            fuser.mlp.forward(np.concatenate([e_lat, e_lon], axis=1))[0])
        assert np.allclose(z, expected, atol=1e-12)

    def test_class_embedding_mixture(self):
        emb = ClassEmbeddings(DIM, 3, nn.seeded_rng(9))
        rng = nn.seeded_rng(10)
        feats = rng.normal(size=(2, DIM))
        probs = nn.softmax(rng.normal(size=(2, 3)))
        out, _ = emb.forward(feats, probs)
        W, b = emb.heads.W.value, emb.heads.b.value
        expected = sum(probs[:, c:c + 1] * (feats @ W[c] + b[c])
                       for c in range(3))
        assert np.allclose(out, expected, atol=1e-12)


class TestJointDecoder:
    def test_shapes_and_probability(self):
        dec = JointDecoder(DIM, n_modes=4, horizon=6, rng=nn.seeded_rng(11))
        x = nn.seeded_rng(12).normal(size=(3, 2 * DIM))
        pos0 = nn.seeded_rng(13).normal(size=(3, 2))
        (trajs, [p]), _ = dec.forward(x, pos0, [slice(0, 3)])
        assert trajs.shape == (4, 3, 6, 2)
        assert p.shape == (4,)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)

    def test_zero_params_standstill(self):
        dec = JointDecoder(DIM, n_modes=3, horizon=5, rng=nn.seeded_rng(14))
        zero_params(dec)
        pos0 = np.array([[1.5, -2.0], [0.0, 4.0]])
        (trajs, [p]), _ = dec.forward(np.ones((2, 2 * DIM)), pos0,
                                     [slice(0, 2)])
        for k in range(3):
            for i in range(2):
                assert np.allclose(trajs[k, i], pos0[i], atol=1e-12)
        assert np.allclose(p, 1 / 3, atol=1e-12)

    def test_trajectories_anchor_at_current_position(self):
        # the first decoded point is the current position plus the first
        # offset, so shrinking the offsets pins the path to the anchor
        dec = JointDecoder(DIM, n_modes=2, horizon=4, rng=nn.seeded_rng(15))
        x = nn.seeded_rng(16).normal(size=(2, 2 * DIM))
        pos0 = np.array([[3.0, 1.0], [-1.0, 2.0]])
        (trajs, _), _ = dec.forward(x, pos0, [slice(0, 2)])
        offsets0 = trajs[:, :, 0, :] - pos0[None, :, :]
        assert np.all(np.isfinite(offsets0))
        for p in dec.params():
            p.value *= 1e-12
        (trajs2, _), _ = dec.forward(x, pos0, [slice(0, 2)])
        assert np.allclose(trajs2[:, :, 0, :], pos0[None], atol=1e-9)

    def test_permuting_non_ego_agents(self):
        dec = JointDecoder(DIM, n_modes=3, horizon=5, rng=nn.seeded_rng(17))
        rng = nn.seeded_rng(18)
        x = rng.normal(size=(4, 2 * DIM))
        pos0 = rng.normal(size=(4, 2))
        perm = np.array([0, 2, 3, 1])  # keep agent 0 in place
        (trajs, [p]), _ = dec.forward(x, pos0, [slice(0, 4)])
        (trajs_p, [p_p]), _ = dec.forward(x[perm], pos0[perm],
                                          [slice(0, 4)])
        assert np.allclose(trajs_p, trajs[:, perm], atol=1e-12)
        assert np.allclose(p_p, p, atol=1e-12)


class TestSelectMode:
    def test_argmax(self):
        jp = JointPrediction(np.zeros((3, 1, 1, 2)),
                             np.array([0.1, 0.7, 0.2]), ["a"])
        assert select_mode(jp) == 1

    def test_tie_goes_low(self):
        jp = JointPrediction(np.zeros((3, 1, 1, 2)),
                             np.full(3, 1 / 3), ["a"])
        assert select_mode(jp) == 0

    def test_logit_scaling_preserves_argmax(self):
        logits = np.array([0.2, 1.4, -0.5, 0.9])
        for scale in (0.1, 1.0, 7.5):
            p = nn.softmax(scale * logits)
            jp = JointPrediction(np.zeros((4, 1, 1, 2)), p, ["a"])
            assert select_mode(jp) == 1

    def test_empty_raises(self):
        jp = JointPrediction(np.zeros((0, 1, 1, 2)), np.array([]), ["a"])
        with pytest.raises(ValueError):
            select_mode(jp)


def make_future(yaw_total=0.0, v0=5.0, v1=5.0, steps=20, dt=0.1):
    """A [steps, 5] future of (x, y, yaw, vx, vy) rows."""
    states = []
    yaw = 0.0
    x = y = 0.0
    for t in range(steps):
        frac = t / max(steps - 1, 1)
        yaw = yaw_total * frac
        speed = v0 + (v1 - v0) * frac
        vx, vy = speed * math.cos(yaw), speed * math.sin(yaw)
        states.append((x, y, yaw, vx, vy))
        x += vx * dt
        y += vy * dt
    return np.array(states)


class TestLabeling:
    def test_constant_velocity_straight(self):
        assert label_intentions(make_future()) == ("ST", "CON")

    def test_left_turn_30_degrees(self):
        fut = make_future(yaw_total=math.radians(30.0))
        assert label_intentions(fut) == ("LT", "CON")

    def test_right_turn(self):
        fut = make_future(yaw_total=-math.radians(30.0))
        assert label_intentions(fut) == ("RT", "CON")

    def test_acceleration(self):
        fut = make_future(v0=5.0, v1=9.0)
        assert label_intentions(fut) == ("ST", "ACC")

    def test_deceleration(self):
        fut = make_future(v0=9.0, v1=5.0)
        assert label_intentions(fut) == ("ST", "DEC")

    def test_empty_future_raises(self):
        with pytest.raises(ValueError):
            label_intentions([])

    def test_below_threshold_stays_straight(self):
        fut = make_future(yaw_total=math.radians(10.0))
        assert label_intentions(fut)[0] == "ST"

    def test_deterministic(self):
        fut = make_future(yaw_total=0.5, v0=4, v1=8)
        assert label_intentions(fut) == label_intentions(fut)

    def test_overflowing_speed_labels_without_a_warning(self):
        # a scene of time step 1e-300 has velocities near 1e300 m/s
        fut = make_future(yaw_total=math.radians(30.0), v0=1e300, v1=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert label_intentions(fut)[0] == "LT"
