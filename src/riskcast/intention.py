"""Driving-intention heads, intention-feature fusion, joint trajectory
decoding, and ground-truth intention labeling.

Lateral classes are left turn / straight / right turn; longitudinal classes
are accelerate / constant / decelerate. Intention-specific embeddings use one
linear head per class, mixed by the predicted class probabilities; the fused
intention feature is a feature-axis softmax of an MLP over the concatenated
lateral and longitudinal embeddings.

Sibling heads over one input run stacked, as an ``nn.MLP`` with
``members`` or an ``nn.Linear`` with a stacked weight: the lateral and
longitudinal MLPs, the class heads of each embedding, and the decoder's K
trajectory heads each run as one batched matmul per layer. Each stack is one
parameter per weight and bias, its heads along the leading axis: ``int.0.W``
is [2, D, D] (lateral, longitudinal), ``emb.lon.W`` is [3, D, D] and
``dec.heads.1.W`` is [K, 2D, 2T].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .geometry import norm2, wrap_angle

LATERAL_CLASSES = ("LT", "ST", "RT")
LONGITUDINAL_CLASSES = ("ACC", "CON", "DEC")

YAW_CHANGE_THRESHOLD = 0.26   # rad over the future horizon (about 15 deg)
SPEED_CHANGE_THRESHOLD = 1.0  # m/s over the future horizon
_THRESHOLDS = np.array([YAW_CHANGE_THRESHOLD, SPEED_CHANGE_THRESHOLD])


@dataclass
class IntentionDistribution:
    lateral: np.ndarray       # probs over LATERAL_CLASSES
    longitudinal: np.ndarray  # probs over LONGITUDINAL_CLASSES


@dataclass
class JointPrediction:
    trajectories: np.ndarray  # [K, N, T, 2]
    mode_probs: np.ndarray    # [K]
    agent_ids: list[str]
    scenario_id: str = ""


class IntentionHead(nn.Module):
    """Two softmax heads over interaction features: the lateral and
    longitudinal MLPs, stacked in that order (both have three classes)."""

    def __init__(self, dim: int, rng: np.random.Generator,
                 name: str = "int"):
        self.mlps = nn.MLP([dim, dim, len(LATERAL_CLASSES)], rng, name=name,
                           members=2)

    def forward(self, features: np.ndarray
                ) -> tuple[tuple[np.ndarray, np.ndarray], tuple]:
        logits, mlp_ctx = self.mlps.forward(features)
        lat, lon = nn.softmax(logits)        # row by row, so both at once
        return (lat, lon), (mlp_ctx, lat, lon)

    def backward(self, ctx: tuple, dlat: np.ndarray,
                 dlon: np.ndarray) -> np.ndarray:
        mlp_ctx, lat, lon = ctx
        dfeat = self.mlps.backward(mlp_ctx, np.stack([
            nn.softmax_backward(lat, dlat), nn.softmax_backward(lon, dlon)]))
        return dfeat.sum(axis=0)


class ClassEmbeddings(nn.Module):
    """One linear embedding head per intention class, the heads stacked in
    class order; the class-specific embeddings are mixed by the predicted
    class probabilities."""

    def __init__(self, dim: int, n_classes: int, rng: np.random.Generator,
                 name: str = "emb"):
        [W] = nn.stacked_glorot(rng, n_classes, [(dim, dim)])
        self.heads = nn.Linear(W, name)

    def forward(self, features: np.ndarray, probs: np.ndarray
                ) -> tuple[np.ndarray, tuple]:
        outs, heads_ctx = self.heads.forward(features)      # [C, N, D]
        mixed = np.add.reduce(probs.T[:, :, None] * outs, axis=0)
        return mixed, (probs, outs, heads_ctx)

    def backward(self, ctx: tuple, g: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        probs, outs, heads_ctx = ctx
        dprobs = (g * outs).sum(axis=2).T
        dheads = self.heads.backward(heads_ctx, probs.T[:, :, None] * g)
        return dheads.sum(axis=0), dprobs


class IntentionFuser(nn.Module):
    """Z = softmax(MLP(e_lat (+) e_lon)) applied along the feature axis, so
    every row of the intention feature is a distribution over features."""

    def __init__(self, dim: int, rng: np.random.Generator,
                 name: str = "fuse"):
        self.mlp = nn.MLP([2 * dim, dim], rng, name=name)
        self.dim = dim

    def forward(self, e_lat: np.ndarray, e_lon: np.ndarray
                ) -> tuple[np.ndarray, tuple]:
        logits, mlp_ctx = self.mlp.forward(
            np.concatenate([e_lat, e_lon], axis=1))
        z = nn.softmax(logits)
        return z, (mlp_ctx, z)

    def backward(self, ctx: tuple, dz: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        mlp_ctx, z = ctx
        dcat = self.mlp.backward(mlp_ctx, nn.softmax_backward(z, dz))
        return dcat[:, :self.dim], dcat[:, self.dim:]


class JointDecoder(nn.Module):
    """K trajectory heads emitting per-step offsets that are integrated from
    each agent's current position, plus a max-pooled scene feature that is
    decoded into mode probabilities. The K heads are one MLP with K members,
    whose two layers are [K, 2D, 2D] and [K, 2D, 2T] weights.

    The rows hold one or more scenes: ``slices[b]`` are scene b's rows, and
    its max-pool runs over those rows only, so the mode probabilities come
    out as one row per scene, [B, K].
    """

    def __init__(self, dim: int, n_modes: int, horizon: int,
                 rng: np.random.Generator, name: str = "dec"):
        in_dim = 2 * dim
        self.n_modes = n_modes
        self.horizon = horizon
        self.heads = nn.MLP([in_dim, in_dim, horizon * 2], rng,
                            name=f"{name}.heads", members=n_modes)
        self.pool_mlp = nn.MLP([in_dim, dim], rng, name=f"{name}.pool")
        self.prob_mlp = nn.MLP([dim, dim, n_modes], rng, name=f"{name}.prob")

    def forward(self, dec_in: np.ndarray, pos0: np.ndarray,
                slices: list[slice]
                ) -> tuple[tuple[np.ndarray, np.ndarray], tuple]:
        """((trajectories [K, N, T, 2], mode probabilities [B, K]), ctx)."""
        n = dec_in.shape[0]
        offsets, heads_ctx = self.heads.forward(dec_in)     # [K, N, 2T]
        trajs = np.cumsum(offsets.reshape(self.n_modes, n, self.horizon, 2),
                          axis=2)
        trajs += pos0[:, None, :]
        feat, pool_ctx = self.pool_mlp.forward(dec_in)
        # arg[b, j]: the row holding scene b's largest feature j
        arg = np.empty((len(slices), feat.shape[1]), dtype=np.intp)
        for b, s in enumerate(slices):
            np.add(feat[s].argmax(axis=0), s.start, out=arg[b])
        pooled = feat[arg, np.arange(feat.shape[1])]
        logits, prob_ctx = self.prob_mlp.forward(pooled)
        probs = nn.softmax(logits)
        return (trajs, probs), (heads_ctx, pool_ctx, prob_ctx, arg,
                                feat.shape, probs)

    def backward(self, ctx: tuple, dtrajs: np.ndarray,
                 dprobs: np.ndarray) -> np.ndarray:
        heads_ctx, pool_ctx, prob_ctx, arg, feat_shape, probs = ctx
        n = feat_shape[0]
        dlogits = nn.softmax_backward(probs, dprobs)
        dpooled = self.prob_mlp.backward(prob_ctx, dlogits)
        dfeat = np.zeros(feat_shape)
        dfeat[arg, np.arange(feat_shape[1])] = dpooled
        ddec = self.pool_mlp.backward(pool_ctx, dfeat)
        # integrate backwards: offset t influences all steps >= t
        dofs = np.cumsum(dtrajs[:, :, ::-1, :], axis=2)[:, :, ::-1, :]
        dheads = self.heads.backward(
            heads_ctx, np.ascontiguousarray(dofs).reshape(self.n_modes, n, -1))
        return ddec + dheads.sum(axis=0)


def select_mode(jp: JointPrediction) -> int:
    """Highest-probability mode; ties resolve to the lowest index."""
    if jp.mode_probs.size == 0:
        raise ValueError("no modes to select from")
    return int(np.argmax(jp.mode_probs))


def label_intentions(future: np.ndarray) -> tuple[str, str]:
    """(lateral, longitudinal) labels of one ground-truth future [T, 5] of
    (x, y, yaw, vx, vy) rows, by the rule of `label_indices`."""
    future = np.asarray(future, dtype=np.float64)
    if len(future) == 0:
        raise ValueError("cannot label an empty future")
    lateral, longitudinal = label_indices(future[None])[0]
    return LATERAL_CLASSES[lateral], LONGITUDINAL_CLASSES[longitudinal]


def label_indices(futures: np.ndarray) -> np.ndarray:
    """[N, 2] (lateral, longitudinal) class indices of N ground-truth
    futures [N, T, 5], in one pass over the agents.

    Lateral uses the net yaw change accumulated over the horizon;
    longitudinal uses the speed change between the start and the end,
    each averaged over a fifth of the horizon to suppress jitter. Both are
    sums in step order, the last elements of cumsums.
    """
    futures = np.asarray(futures, dtype=np.float64)
    n, steps = futures.shape[:2]
    if steps == 0:
        raise ValueError("cannot label an empty future")
    change = np.zeros((n, 2))             # net yaw change, speed change
    if steps > 1:
        yaw = futures[..., 2]
        change[:, 0] = wrap_angle(yaw[:, 1:] - yaw[:, :-1]).cumsum(
            axis=1)[:, -1]
    w = max(steps // 5, 1)
    # a speed past 1.3e154 m/s is inf, and a change of inf speeds NaN, as
    # Python floats have them, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        speeds = norm2(futures[..., 3:5])                      # [N, T]
        change[:, 1] = speeds[:, -w:].cumsum(axis=1)[:, -1] / w \
            - speeds[:, :w].cumsum(axis=1)[:, -1] / w
    # index 0 above the threshold, 2 below minus it and 1 between, in
    # both class orders: LT, ST, RT and ACC, CON, DEC
    labels = np.ones((n, 2), dtype=np.intp)
    labels[change > _THRESHOLDS] = 0
    labels[change < -_THRESHOLDS] = 2
    return labels
