"""Loss structure and training-loop tests."""

import math

import numpy as np
import pytest

from riskcast import nn
from riskcast.model import ModelConfig
from riskcast.scene import generate_scenario
from riskcast.training import (TrainConfig, intention_loss, prediction_loss,
                               split_dataset, total_loss, train)


class TestIntentionLoss:
    def test_perfect_prediction_zero(self):
        lat = np.array([[1.0, 0.0, 0.0]])
        lon = np.array([[0.0, 1.0, 0.0]])
        loss, dlat, dlon = intention_loss(lat, lon, [(0, 1)])
        assert loss == 0.0

    def test_uniform_is_two_log_three(self):
        lat = np.full((2, 3), 1 / 3)
        lon = np.full((2, 3), 1 / 3)
        loss, _, _ = intention_loss(lat, lon, [(0, 0), (2, 1)])
        assert loss == pytest.approx(2 * math.log(3.0), abs=1e-12)
        assert loss == pytest.approx(2.197, abs=1e-3)

    def test_matches_cross_entropy_composition(self):
        rng = nn.seeded_rng(0)
        lat = nn.softmax(rng.normal(size=(3, 3)), axis=-1)
        lon = nn.softmax(rng.normal(size=(3, 3)), axis=-1)
        labels = [(0, 2), (1, 1), (2, 0)]
        loss, _, _ = intention_loss(lat, lon, labels)
        expected = np.mean([
            nn.cross_entropy(lat[i], la) + nn.cross_entropy(lon[i], lo)
            for i, (la, lo) in enumerate(labels)
        ])
        assert loss == pytest.approx(expected, abs=1e-12)


class TestPredictionLoss:
    def test_exact_mode_gives_zero(self):
        truth = nn.seeded_rng(1).normal(size=(2, 4, 2))
        trajs = np.stack([truth + 3.0, truth])
        loss, k_star, grad = prediction_loss(trajs, truth)
        assert loss == 0.0
        assert k_star == 1
        assert np.array_equal(grad[1], np.zeros_like(truth))

    def test_half_meter_offset_single_mode(self):
        truth = np.zeros((1, 6, 2))
        trajs = np.full((1, 1, 6, 2), 0.5)
        loss, _, _ = prediction_loss(trajs, truth)
        assert loss == pytest.approx(0.125, abs=1e-12)

    def test_adding_worse_mode_keeps_loss(self):
        rng = nn.seeded_rng(2)
        truth = rng.normal(size=(2, 5, 2))
        good = truth + rng.normal(scale=0.1, size=truth.shape)
        base_trajs = good[None]
        base_loss, _, _ = prediction_loss(base_trajs, truth)
        worse = np.concatenate([base_trajs, (truth + 50.0)[None]])
        new_loss, k_star, _ = prediction_loss(worse, truth)
        assert new_loss == pytest.approx(base_loss, abs=1e-12)
        assert k_star == 0

    def test_min_over_modes_monotone_in_k(self):
        rng = nn.seeded_rng(3)
        truth = rng.normal(size=(2, 4, 2))
        losses = []
        trajs = rng.normal(size=(1, 2, 4, 2))
        for _ in range(6):
            loss, _, _ = prediction_loss(trajs, truth)
            losses.append(loss)
            extra = rng.normal(size=(1, 2, 4, 2))
            trajs = np.concatenate([trajs, extra])
        assert all(b <= a + 1e-12 for a, b in zip(losses[:-1], losses[1:]))

    def test_gradient_on_winner_only(self):
        rng = nn.seeded_rng(4)
        truth = rng.normal(size=(1, 3, 2))
        trajs = np.stack([truth + 0.2, truth + 5.0])
        _, k_star, grad = prediction_loss(trajs, truth)
        assert k_star == 0
        assert np.abs(grad[0]).max() > 0
        assert np.array_equal(grad[1], np.zeros_like(truth))

    def test_shape_mismatch(self):
        with pytest.raises(nn.DimensionError):
            prediction_loss(np.zeros((2, 1, 4, 2)), np.zeros((1, 5, 2)))


class TestTotalLoss:
    def cfg(self, tau=0.5):
        return TrainConfig(epochs=10, stage1_epochs=5, tau=tau)

    def test_stage1_ignores_risk(self):
        assert total_loss(1.0, 2.0, 100.0, epoch=3, cfg=self.cfg()) == \
            pytest.approx(2.0)

    def test_stage2_weights_risk(self):
        assert total_loss(1.0, 2.0, 100.0, epoch=6, cfg=self.cfg()) == \
            pytest.approx(52.0)

    def test_tau_near_one_shrinks_risk_term(self):
        hi = self.cfg(tau=0.999)
        val = total_loss(1.0, 0.0, 100.0, epoch=6, cfg=hi)
        assert val == pytest.approx(1.0 + 0.001 * 100.0, abs=1e-9)

    def test_boundary_epoch_is_stage1(self):
        assert total_loss(0.0, 0.0, 7.0, epoch=5, cfg=self.cfg()) == 0.0
        assert total_loss(0.0, 0.0, 7.0, epoch=6, cfg=self.cfg()) == \
            pytest.approx(3.5)

    def test_epoch_must_be_positive(self):
        with pytest.raises(ValueError):
            total_loss(0.0, 0.0, 0.0, epoch=0, cfg=self.cfg())

    def test_invalid_tau_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(tau=1.0)
        with pytest.raises(ValueError):
            TrainConfig(tau=0.0)

    def test_stage1_cannot_exceed_epochs(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=3, stage1_epochs=5)


class TestSplit:
    def test_disjoint_and_complete(self):
        scns = [generate_scenario("straight", 1, s, H=2, T=3)
                for s in range(20)]
        cfg = TrainConfig(seed=5)
        tr, va, te = split_dataset(scns, cfg)
        assert sorted(tr + va + te) == list(range(20))
        assert len(tr) == 14 and len(va) == 3 and len(te) == 3

    def test_deterministic(self):
        scns = [generate_scenario("straight", 1, s, H=2, T=3)
                for s in range(10)]
        cfg = TrainConfig(seed=5)
        assert split_dataset(scns, cfg) == split_dataset(scns, cfg)


def tiny_model_cfg(future_steps=8):
    return ModelConfig(embed_dim=8, attention_heads=2, transformer_layers=1,
                       ff_mult=2, n_modes=2, future_steps=future_steps)


def tiny_dataset(n=6):
    return [generate_scenario("straight" if s % 2 else "left_turn", 2, s,
                              H=4, T=8) for s in range(n)]


class TestTrainLoop:
    def test_deterministic_given_seed(self):
        data = tiny_dataset()
        cfg = TrainConfig(batch_size=3, lr=1e-3, epochs=3, stage1_epochs=2,
                          seed=7, split=(1.0, 0.0, 0.0), val_every=10)
        _, rep1 = train(data, tiny_model_cfg(), cfg)
        _, rep2 = train(data, tiny_model_cfg(), cfg)
        assert rep1.l_pre == rep2.l_pre
        assert rep1.l_man == rep2.l_man
        assert rep1.l_total == rep2.l_total

    def test_stage_transition_visible_in_total(self):
        data = [generate_scenario("crossing_conflict", 3, s, H=4, T=10)
                for s in range(3)]
        cfg = TrainConfig(batch_size=3, lr=1e-4, epochs=3, stage1_epochs=2,
                          seed=1, split=(1.0, 0.0, 0.0), val_every=10)
        _, rep = train(data, tiny_model_cfg(future_steps=10), cfg)
        assert rep.l_risk[0] == 0.0 and rep.l_risk[1] == 0.0
        # stage 2 reports the risk term and folds it into the total
        assert rep.l_total[2] == pytest.approx(
            rep.l_pre[2] + 0.5 * rep.l_man[2] + 0.5 * rep.l_risk[2],
            abs=1e-12)

    def test_loss_decreases_with_training(self):
        data = tiny_dataset(4)
        cfg = TrainConfig(batch_size=2, lr=3e-3, epochs=12, stage1_epochs=12,
                          weight_decay=0.0, seed=3, split=(1.0, 0.0, 0.0),
                          val_every=12)
        _, rep = train(data, tiny_model_cfg(), cfg)
        assert rep.l_pre[-1] < rep.l_pre[0]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train([], tiny_model_cfg(), TrainConfig())

    def test_log_csv_written(self, tmp_path):
        data = tiny_dataset(3)
        cfg = TrainConfig(batch_size=3, epochs=2, stage1_epochs=1, seed=0,
                          split=(1.0, 0.0, 0.0), val_every=1)
        train(data, tiny_model_cfg(), cfg, out_dir=str(tmp_path))
        log = (tmp_path / "train_log.csv").read_text().splitlines()
        assert log[0] == "epoch,L_pre,L_man,L_risk,L,val_ADE,val_FDE"
        assert len(log) == 3
        assert (tmp_path / "checkpoint.npz").exists()
        assert (tmp_path / "model_final.npz").exists()
