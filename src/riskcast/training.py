"""Loss assembly, the staged training schedule, and the training loop.

Stage 1 (the first stage1_epochs epochs) optimizes the trajectory loss plus
the weighted intention loss; stage 2 adds the risk cost with weight (1 - tau).
A winner-take-all cross-entropy on the mode probabilities (toward the mode
closest to the ground truth) is optimized alongside so that the mode
probabilities are informative. Only its gradient, weighted by
mode_loss_weight, enters the backward pass: the staged total leaves it out
and no report field holds it.

A minibatch runs as one forward and one backward: its scenes go through
``JointPredictor.forward`` together, as one disjoint union of their agents,
whatever their history lengths. Every loss then runs once over the whole
union, with no loop over its scenes: the intention cross-entropies as one
indexed pass over its [sum N, 3] rows, the smooth-L1 loss as one pass over
[K, sum N, T, 2] with each scene's winning mode, the mode cross-entropy as
one pass over [B, K], and the risk term as one `risk_loss_and_grad` call,
one risk kernel run, over every scene at its selected mode. Each scene's
loss is the sum over its own slice of the union's rows, in agent order as
a per-scene loop adds it (the last element of a cumsum over the slice),
and its gradients land in that slice of one upstream gradient per output.
Every scene's loss is checked for divergence, and the reported losses add
up in minibatch order. The truth matrices and intention labels are
computed once per scene, before the first epoch, the labels in one pass
over the scene's agents.
"""

from __future__ import annotations

import csv
import math
import os
import shutil
from dataclasses import dataclass, field, replace

import numpy as np

from . import nn
from .evaluation import ade, fde
from .intention import label_indices, select_mode
from .model import ForwardResult, JointPredictor, ModelConfig
from .risk import RiskConfig, risk_loss_and_grad
from .scene import Scenario

CLIP_NORM = 5.0  # the global gradient norm is clipped to this


@dataclass
class TrainConfig:
    batch_size: int = 32
    lr: float = 2e-4
    weight_decay: float = 3e-4
    epochs: int = 20
    stage1_epochs: int = 5
    tau: float = 0.5
    seed: int = 0
    mode_loss_weight: float = 0.5
    split: tuple[float, float, float] = (0.7, 0.15, 0.15)
    val_every: int = 1
    risk: RiskConfig = field(default_factory=RiskConfig)

    def __post_init__(self):
        """A message starts with "<field>:"."""
        for name in ("batch_size", "epochs", "val_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: {getattr(self, name)!r} is not "
                                 f"positive")
        if not 0 <= self.stage1_epochs <= self.epochs:
            raise ValueError(f"stage1_epochs: {self.stage1_epochs!r} does "
                             f"not lie in 0..epochs ({self.epochs})")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau: {self.tau!r} does not lie strictly "
                             f"between 0 and 1")
        # the test fraction is what the others leave, so they must add up
        if min(self.split) < 0 or not math.isclose(sum(self.split), 1.0):
            raise ValueError(f"split: fractions {self.split} are not "
                             f"non-negative with sum 1")


@dataclass
class TrainReport:
    epochs: list[int] = field(default_factory=list)
    l_pre: list[float] = field(default_factory=list)
    l_man: list[float] = field(default_factory=list)
    l_risk: list[float] = field(default_factory=list)
    l_total: list[float] = field(default_factory=list)
    val_ade: list[float] = field(default_factory=list)
    val_fde: list[float] = field(default_factory=list)
    final_val_ade: float = math.nan
    final_val_fde: float = math.nan

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["epoch", "L_pre", "L_man", "L_risk", "L",
                        "val_ADE", "val_FDE"])
            for i, ep in enumerate(self.epochs):
                w.writerow([ep, repr(self.l_pre[i]), repr(self.l_man[i]),
                            repr(self.l_risk[i]), repr(self.l_total[i]),
                            repr(self.val_ade[i]), repr(self.val_fde[i])])


def _ordered_sums(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """[..., B] sums of the consecutive runs of the given sizes along the
    last axis of values, each added in order, as a loop adds them: the
    last element of a cumsum over each run."""
    filled = np.arange(sizes.max()) < sizes[:, None]
    runs = np.zeros(values.shape[:-1] + filled.shape)
    runs[..., filled] = values
    return np.cumsum(runs, axis=-1)[..., np.arange(len(sizes)), sizes - 1]


def _sizes(slices: list[slice]) -> np.ndarray:
    return np.array([rows.stop - rows.start for rows in slices])


def intention_loss(lat_probs: np.ndarray, lon_probs: np.ndarray,
                   labels: np.ndarray, slices: list[slice]
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each scene's mean over its agents of the lateral plus longitudinal
    cross-entropies, for the (lateral, longitudinal) label indices [N, 2]
    of the union's rows, scene b's rows being slices[b]; and the
    gradients. Returns ([B] losses, dlat, dlon). A scene adds its agents'
    terms in agent order, lateral before longitudinal."""
    labels = np.asarray(labels)
    sizes = _sizes(slices)
    count = np.repeat(sizes, sizes)[:, None]
    losses = _ordered_sums(np.stack([
        nn.cross_entropy(lat_probs, labels[:, 0]),
        nn.cross_entropy(lon_probs, labels[:, 1])], axis=1).reshape(-1),
        2 * sizes) / sizes
    return (losses, nn.cross_entropy_grad(lat_probs, labels[:, 0]) / count,
            nn.cross_entropy_grad(lon_probs, labels[:, 1]) / count)


def prediction_loss(trajs: np.ndarray, truth: np.ndarray,
                    slices: list[slice]
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scene-level winner-take-all over a union of scenes, scene b's rows
    being slices[b]: each scene's best mode's summed per-agent smooth-L1
    against the ground truth, with the gradient flowing into that mode
    only. Returns ([B] losses, [B] winner indices, d loss / d trajs)."""
    if trajs.shape[1:] != truth.shape:
        raise nn.DimensionError(
            f"prediction_loss: trajectories {trajs.shape} vs truth "
            f"{truth.shape}")
    k_count, n = trajs.shape[0], trajs.shape[1]
    sizes = _sizes(slices)
    # nn.smooth_l1 and nn.smooth_l1_grad (beta 1) for every (mode, agent)
    # pair at once; a scene adds its agents in agent order
    d = trajs - truth
    ad = np.abs(d)
    per = np.where(ad < 1.0, 0.5 * d * d, ad - 0.5)
    losses = _ordered_sums(per.reshape(k_count, n, -1).mean(axis=-1), sizes)
    winners = losses.argmin(axis=0)
    rows, row_winners = np.arange(n), np.repeat(winners, sizes)
    grad = np.zeros_like(trajs)
    grad[row_winners, rows] = np.clip(d[row_winners, rows], -1.0, 1.0) \
        / truth[0].size
    return losses[winners, np.arange(len(sizes))], winners, grad


def total_loss(l_pre: float, l_man: float, l_risk: float, epoch: int,
               cfg: TrainConfig) -> float:
    """Staged total: the risk term only enters after stage1_epochs."""
    if epoch < 1:
        raise ValueError("epochs are 1-indexed")
    l = l_pre + cfg.tau * l_man
    if epoch > cfg.stage1_epochs:
        l += (1.0 - cfg.tau) * l_risk
    return l


def split_dataset(scenarios: list[Scenario], cfg: TrainConfig
                  ) -> tuple[list[int], list[int], list[int]]:
    rng = nn.seeded_rng(cfg.seed)
    idx = rng.permutation(len(scenarios))
    n_train = int(round(cfg.split[0] * len(idx)))
    n_val = int(round(cfg.split[1] * len(idx)))
    train = idx[:n_train].tolist()
    val = idx[n_train:n_train + n_val].tolist()
    test = idx[n_train + n_val:].tolist()
    return train, val, test


def _truth_matrix(local: Scenario) -> np.ndarray:
    missing = local.agent_ids[~local.has_future]
    if missing.size:
        raise ValueError(f"scenario {local.scenario_id!r}: agent "
                         f"{missing[0]!r} has no ground-truth future")
    return local.future[..., :2]


@dataclass
class _TrainScene:
    """A training scene in the model's local frame with its targets."""
    local: Scenario
    truth: np.ndarray                # [N, T, 2]
    labels: np.ndarray               # [N, 2] (lateral, longitudinal) indices

    @classmethod
    def of(cls, local: Scenario) -> "_TrainScene":
        return cls(local, _truth_matrix(local), label_indices(local.future))


def _union_losses(model: JointPredictor, scenes: list[_TrainScene],
                  epoch: int, cfg: TrainConfig
                  ) -> list[tuple[float, float, float]]:
    """One forward and one backward over the scenes, run as one union;
    gradients accumulate into the model parameters. Every loss runs once
    over the union. Returns each scene's (l_pre, l_man, l_risk), in the
    given order."""
    locals_ = [s.local for s in scenes]
    res: ForwardResult = model.forward(locals_)
    l_pre, winners, dtrajs = prediction_loss(
        res.trajectories, np.concatenate([s.truth for s in scenes]),
        res.slices)
    l_man, dlat, dlon = intention_loss(
        res.lat_probs, res.lon_probs,
        np.concatenate([s.labels for s in scenes]), res.slices)
    dprobs = cfg.mode_loss_weight * nn.cross_entropy_grad(res.mode_probs,
                                                         winners)
    l_risk = np.zeros(len(scenes))
    if epoch > cfg.stage1_epochs:
        selected = res.mode_probs.argmax(axis=1)
        l_risk, drisk = risk_loss_and_grad(res.trajectories, locals_,
                                           selected, cfg.risk)
        rows = np.arange(len(drisk))
        dtrajs[np.repeat(selected, _sizes(res.slices)), rows] += \
            (1.0 - cfg.tau) * drisk

    model.backward(res, dtrajs, dprobs, cfg.tau * dlat, cfg.tau * dlon)
    return list(zip(l_pre.tolist(), l_man.tolist(), l_risk.tolist()))


def _validate(model: JointPredictor, scenarios: list[Scenario]
              ) -> tuple[float, float]:
    """Mode-selected, full-horizon ego ADE/FDE over the given scenarios."""
    ades, fdes = [], []
    for scn in scenarios:
        jp, _ = model.predict(scn)
        k = select_mode(jp)
        ego_pos = jp.agent_ids.index(scn.ego_id)
        truth = scn.future[scn.ego_index, :, :2]
        horizon = truth.shape[0]
        ades.append(ade(jp.trajectories[k, ego_pos], truth, horizon))
        fdes.append(fde(jp.trajectories[k, ego_pos], truth, horizon))
    return float(np.mean(ades)), float(np.mean(fdes))


@np.errstate(over="ignore", invalid="ignore")
def train(scenarios: list[Scenario], model_cfg: ModelConfig,
          cfg: TrainConfig, out_dir: str | None = None
          ) -> tuple[JointPredictor, TrainReport]:
    """Train a fresh model; deterministic given the configs and data. A
    training scene whose future is not future_steps long, a validation
    scene whose future is longer, and a diverging loss raise ValueError."""
    if not scenarios:
        raise ValueError("training dataset is empty")
    model = JointPredictor(replace(model_cfg, init_seed=cfg.seed))
    params = model.params()
    opt = nn.Adam(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    train_idx, val_idx, _ = split_dataset(scenarios, cfg)
    if not train_idx:
        raise ValueError(f"split: a training fraction of {cfg.split[0]!r} "
                         f"leaves none of {len(scenarios)} scenes")
    steps = model_cfg.future_steps
    for scn in [scenarios[i] for i in train_idx]:
        if scn.horizon_future != steps:
            raise ValueError(f"scenario {scn.scenario_id!r}: a training "
                             f"future of {scn.horizon_future} steps, not "
                             f"future_steps ({steps})")
    scenes_train = {i: _TrainScene.of(model.prepare(scenarios[i]))
                    for i in train_idx}
    val_scns = [scenarios[i] for i in val_idx] or \
        [scenarios[i] for i in train_idx[:20]]
    for scn in val_scns:
        if not scn.has_future[scn.ego_index]:
            raise ValueError(f"scenario {scn.scenario_id!r}: the ego "
                             f"{scn.ego_id!r} has no ground-truth future")
        if scn.horizon_future > steps:
            raise ValueError(f"scenario {scn.scenario_id!r}: a validation "
                             f"future of {scn.horizon_future} steps, more "
                             f"than future_steps ({steps})")

    rng = nn.seeded_rng(cfg.seed + 1)
    report = TrainReport()
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(train_idx)
        sums = np.zeros(3)
        count = 0
        for lo in range(0, len(order), cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            model.zero_grad()
            for l_pre, l_man, l_risk in _union_losses(
                    model, [scenes_train[int(i)] for i in batch], epoch, cfg):
                l_tot = total_loss(l_pre, l_man, l_risk, epoch, cfg)
                if not math.isfinite(l_tot):
                    raise ValueError(
                        f"training diverged at epoch {epoch}, "
                        f"batch {lo // cfg.batch_size}: loss {l_tot}")
                sums += (l_pre, l_man, l_risk)
                count += 1
            for p in params:
                p.grad /= len(batch)
            total = math.sqrt(sum(float((p.grad * p.grad).sum())
                                  for p in params))
            if total > CLIP_NORM:
                scale = CLIP_NORM / total
                for p in params:
                    p.grad *= scale
            opt.step()
        mean_pre, mean_man, mean_risk = sums / count
        mean_total = total_loss(mean_pre, mean_man, mean_risk, epoch, cfg)

        if epoch % cfg.val_every == 0 or epoch == cfg.epochs:
            val_ade, val_fde = _validate(model, val_scns)
        else:
            val_ade, val_fde = math.nan, math.nan
        report.epochs.append(epoch)
        report.l_pre.append(float(mean_pre))
        report.l_man.append(float(mean_man))
        report.l_risk.append(float(mean_risk))
        report.l_total.append(float(mean_total))
        report.val_ade.append(val_ade)
        report.val_fde.append(val_fde)
        if out_dir is not None:
            model.save(os.path.join(out_dir, "checkpoint.npz"))

    report.final_val_ade = report.val_ade[-1]
    report.final_val_fde = report.val_fde[-1]
    if out_dir is not None:
        # the last epoch's checkpoint is the final model, byte for byte
        shutil.copyfile(os.path.join(out_dir, "checkpoint.npz"),
                        os.path.join(out_dir, "model_final.npz"))
        report.write_csv(os.path.join(out_dir, "train_log.csv"))
    return model, report
