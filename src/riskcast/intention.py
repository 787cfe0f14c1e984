"""Driving-intention heads, intention-feature fusion, joint trajectory
decoding, and ground-truth intention labeling.

Lateral classes are left turn / straight / right turn; longitudinal classes
are accelerate / constant / decelerate. Intention-specific embeddings use one
linear head per class, mixed by the predicted class probabilities; the fused
intention feature is a feature-axis softmax of an MLP over the concatenated
lateral and longitudinal embeddings.

Sibling heads over one input run stacked (``nn.StackedMLP``,
``nn.StackedLinear``): the lateral and longitudinal MLPs, the class heads of
each embedding, and the decoder's K trajectory heads each run as one batched
matmul per layer, and each head keeps its own checkpoint names
(``int.lat.0.W``, ``emb.lon.2.b``, ``dec.k3.1.W``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .geometry import wrap_angle

LATERAL_CLASSES = ("LT", "ST", "RT")
LONGITUDINAL_CLASSES = ("ACC", "CON", "DEC")

YAW_CHANGE_THRESHOLD = 0.26   # rad over the future horizon (about 15 deg)
SPEED_CHANGE_THRESHOLD = 1.0  # m/s over the future horizon


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
        self.mlps = nn.StackedMLP([dim, dim, len(LATERAL_CLASSES)],
                                  [f"{name}.lat", f"{name}.lon"], rng,
                                  name=name)

    def parts(self):
        return [self.mlps]

    def forward(self, features: np.ndarray
                ) -> tuple[tuple[np.ndarray, np.ndarray], tuple]:
        logits, mlp_ctx = self.mlps.forward(features)
        lat = nn.softmax(logits[0], axis=-1)
        lon = nn.softmax(logits[1], axis=-1)
        return (lat, lon), (mlp_ctx, lat, lon)

    def backward(self, ctx: tuple, dlat: np.ndarray,
                 dlon: np.ndarray) -> np.ndarray:
        mlp_ctx, lat, lon = ctx
        dfeat = self.mlps.backward(mlp_ctx, np.stack([
            nn.softmax_backward(lat, dlat), nn.softmax_backward(lon, dlon)]))
        return dfeat[0] + dfeat[1]


class ClassEmbeddings(nn.Module):
    """One linear embedding head per intention class, the heads stacked in
    class order; the class-specific embeddings are mixed by the predicted
    class probabilities."""

    def __init__(self, dim: int, n_classes: int, rng: np.random.Generator,
                 name: str = "emb"):
        [W] = nn.stacked_glorot(rng, n_classes, [(dim, dim)])
        self.heads = nn.StackedLinear(
            W, [f"{name}.{c}" for c in range(n_classes)], name=name)

    def parts(self):
        return [self.heads]

    def forward(self, features: np.ndarray, probs: np.ndarray
                ) -> tuple[np.ndarray, tuple]:
        outs, heads_ctx = self.heads.forward(features)      # [C, N, D]
        mixed = sum(probs[:, c:c + 1] * outs[c] for c in range(len(outs)))
        return mixed, (probs, outs, heads_ctx)

    def backward(self, ctx: tuple, g: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        probs, outs, heads_ctx = ctx
        dprobs = (g * outs).sum(axis=2).T
        dheads = self.heads.backward(heads_ctx, probs.T[:, :, None] * g)
        dfeat = np.zeros_like(g)
        for c in reversed(range(len(outs))):
            dfeat += dheads[c]
        return dfeat, dprobs


class IntentionFuser(nn.Module):
    """Z = softmax(MLP(e_lat (+) e_lon)) applied along the feature axis, so
    every row of the intention feature is a distribution over features."""

    def __init__(self, dim: int, rng: np.random.Generator,
                 name: str = "fuse"):
        self.mlp = nn.MLP([2 * dim, dim], rng, name=name)
        self.dim = dim

    def parts(self):
        return [self.mlp]

    def forward(self, e_lat: np.ndarray, e_lon: np.ndarray
                ) -> tuple[np.ndarray, tuple]:
        logits, mlp_ctx = self.mlp.forward(
            np.concatenate([e_lat, e_lon], axis=1))
        z = nn.softmax(logits, axis=-1)
        return z, (mlp_ctx, z)

    def backward(self, ctx: tuple, dz: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        mlp_ctx, z = ctx
        dcat = self.mlp.backward(mlp_ctx, nn.softmax_backward(z, dz))
        return dcat[:, :self.dim], dcat[:, self.dim:]


class JointDecoder(nn.Module):
    """K trajectory heads emitting per-step offsets that are integrated from
    each agent's current position, plus a max-pooled scene feature that is
    decoded into mode probabilities. The K heads are one StackedMLP, whose
    two layers are [K, 2D, 2D] and [K, 2D, 2T] weights.

    The rows hold one or more scenes: ``slices[b]`` are scene b's rows, and
    its max-pool runs over those rows only, so the mode probabilities come
    out as one row per scene, [B, K].
    """

    def __init__(self, dim: int, n_modes: int, horizon: int,
                 rng: np.random.Generator, name: str = "dec"):
        in_dim = 2 * dim
        self.n_modes = n_modes
        self.horizon = horizon
        self.heads = nn.StackedMLP([in_dim, in_dim, horizon * 2],
                                   [f"{name}.k{k}" for k in range(n_modes)],
                                   rng, name=f"{name}.heads")
        self.pool_mlp = nn.MLP([in_dim, dim], rng, name=f"{name}.pool")
        self.prob_mlp = nn.MLP([dim, dim, n_modes], rng, name=f"{name}.prob")

    def parts(self):
        return [self.heads, self.pool_mlp, self.prob_mlp]

    def forward(self, dec_in: np.ndarray, pos0: np.ndarray,
                slices: list[slice]
                ) -> tuple[tuple[np.ndarray, np.ndarray], tuple]:
        """((trajectories [K, N, T, 2], mode probabilities [B, K]), ctx)."""
        n = dec_in.shape[0]
        offsets, heads_ctx = self.heads.forward(dec_in)     # [K, N, 2T]
        trajs = pos0[:, None, :] + np.cumsum(
            offsets.reshape(self.n_modes, n, self.horizon, 2), axis=2)
        feat, pool_ctx = self.pool_mlp.forward(dec_in)
        # arg[b, j]: the row holding scene b's largest feature j
        arg = np.stack([feat[s].argmax(axis=0) + s.start for s in slices])
        pooled = feat[arg, np.arange(feat.shape[1])]
        logits, prob_ctx = self.prob_mlp.forward(pooled)
        probs = nn.softmax(logits, axis=-1)
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
        for k in reversed(range(self.n_modes)):
            ddec += dheads[k]
        return ddec


def select_mode(jp: JointPrediction) -> int:
    """Highest-probability mode; ties resolve to the lowest index."""
    if jp.mode_probs.size == 0:
        raise ValueError("no modes to select from")
    return int(np.argmax(jp.mode_probs))


def label_intentions(future: np.ndarray,
                     yaw_threshold: float = YAW_CHANGE_THRESHOLD,
                     speed_threshold: float = SPEED_CHANGE_THRESHOLD
                     ) -> tuple[str, str]:
    """Derive (lateral, longitudinal) labels from a ground-truth future
    [T, 5] of (x, y, yaw, vx, vy) rows.

    Lateral uses the net yaw change accumulated over the horizon;
    longitudinal uses the speed change between the start and the end,
    each averaged over a fifth of the horizon to suppress jitter. Both are
    scalar sums, in step order, of ``wrap_angle`` and ``math.hypot``.
    """
    future = np.asarray(future, dtype=np.float64)
    if len(future) == 0:
        raise ValueError("cannot label an empty future")
    yaws = future[:, 2].tolist()
    speeds = [math.hypot(vx, vy) for vx, vy in future[:, 3:].tolist()]
    net_yaw = sum(wrap_angle(b - a) for a, b in zip(yaws[:-1], yaws[1:]))
    if net_yaw > yaw_threshold:
        lateral = "LT"
    elif net_yaw < -yaw_threshold:
        lateral = "RT"
    else:
        lateral = "ST"
    w = max(len(future) // 5, 1)
    dv = sum(speeds[-w:]) / w - sum(speeds[:w]) / w
    if dv > speed_threshold:
        longitudinal = "ACC"
    elif dv < -speed_threshold:
        longitudinal = "DEC"
    else:
        longitudinal = "CON"
    return lateral, longitudinal


def label_indices(future: np.ndarray) -> tuple[int, int]:
    la, lo = label_intentions(future)
    return LATERAL_CLASSES.index(la), LONGITUDINAL_CLASSES.index(lo)
