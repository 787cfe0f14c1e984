"""Driving-intention heads, intention-feature fusion, joint trajectory
decoding, and ground-truth intention labeling.

Lateral classes are left turn / straight / right turn; longitudinal classes
are accelerate / constant / decelerate. Intention-specific embeddings use one
linear head per class, mixed by the predicted class probabilities; the fused
intention feature is a feature-axis softmax of an MLP over the concatenated
lateral and longitudinal embeddings.
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
    """Two softmax heads over interaction features."""

    def __init__(self, dim: int, rng: np.random.Generator,
                 name: str = "int"):
        self.lat_mlp = nn.MLP([dim, dim, len(LATERAL_CLASSES)], rng,
                              name=f"{name}.lat")
        self.lon_mlp = nn.MLP([dim, dim, len(LONGITUDINAL_CLASSES)], rng,
                              name=f"{name}.lon")

    def params(self):
        return self.lat_mlp.params() + self.lon_mlp.params()

    def forward(self, features: np.ndarray
                ) -> tuple[tuple[np.ndarray, np.ndarray], tuple]:
        lat_logits, lat_ctx = self.lat_mlp.forward(features)
        lon_logits, lon_ctx = self.lon_mlp.forward(features)
        lat = nn.softmax(lat_logits, axis=-1)
        lon = nn.softmax(lon_logits, axis=-1)
        return (lat, lon), (lat_ctx, lon_ctx, lat, lon)

    def backward(self, ctx: tuple, dlat: np.ndarray,
                 dlon: np.ndarray) -> np.ndarray:
        lat_ctx, lon_ctx, lat, lon = ctx
        dfeat = self.lat_mlp.backward(lat_ctx, nn.softmax_backward(lat, dlat))
        dfeat += self.lon_mlp.backward(lon_ctx,
                                       nn.softmax_backward(lon, dlon))
        return dfeat


class ClassEmbeddings(nn.Module):
    """One linear embedding head per intention class; the class-specific
    embeddings are mixed by the predicted class probabilities."""

    def __init__(self, dim: int, n_classes: int, rng: np.random.Generator,
                 name: str = "emb"):
        self.heads = [nn.Linear(dim, dim, rng, name=f"{name}.{c}")
                      for c in range(n_classes)]

    def params(self):
        return [p for h in self.heads for p in h.params()]

    def forward(self, features: np.ndarray, probs: np.ndarray
                ) -> tuple[np.ndarray, tuple]:
        outs, head_ctxs = zip(*(h.forward(features) for h in self.heads))
        mixed = sum(probs[:, c:c + 1] * outs[c] for c in range(len(outs)))
        return mixed, (probs, outs, head_ctxs)

    def backward(self, ctx: tuple, g: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        probs, outs, head_ctxs = ctx
        dprobs = np.stack([(g * outs[c]).sum(axis=1)
                           for c in range(len(outs))], axis=1)
        dfeat = np.zeros_like(g)
        for c in reversed(range(len(self.heads))):
            dfeat += self.heads[c].backward(head_ctxs[c],
                                            probs[:, c:c + 1] * g)
        return dfeat, dprobs


class IntentionFuser(nn.Module):
    """Z = softmax(MLP(e_lat (+) e_lon)) applied along the feature axis, so
    every row of the intention feature is a distribution over features."""

    def __init__(self, dim: int, rng: np.random.Generator,
                 name: str = "fuse"):
        self.mlp = nn.MLP([2 * dim, dim], rng, name=name)
        self.dim = dim

    def params(self):
        return self.mlp.params()

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
    decoded into mode probabilities.

    The rows may hold several scenes: ``slices[b]`` are scene b's rows, and
    its max-pool runs over those rows only, so the mode probabilities come
    out as one row per scene, [B, K]. Without slices all rows are one
    scene.
    """

    def __init__(self, dim: int, n_modes: int, horizon: int,
                 rng: np.random.Generator, name: str = "dec"):
        in_dim = 2 * dim
        self.n_modes = n_modes
        self.horizon = horizon
        self.heads = [
            nn.MLP([in_dim, in_dim, horizon * 2], rng, name=f"{name}.k{k}")
            for k in range(n_modes)
        ]
        self.pool_mlp = nn.MLP([in_dim, dim], rng, name=f"{name}.pool")
        self.prob_mlp = nn.MLP([dim, dim, n_modes], rng, name=f"{name}.prob")

    def params(self):
        out = [p for h in self.heads for p in h.params()]
        return out + self.pool_mlp.params() + self.prob_mlp.params()

    def forward(self, dec_in: np.ndarray, pos0: np.ndarray,
                slices: list[slice] | None = None
                ) -> tuple[tuple[np.ndarray, np.ndarray], tuple]:
        """((trajectories [K, N, T, 2], mode probabilities [B, K]), ctx)."""
        n = dec_in.shape[0]
        if slices is None:
            slices = [slice(0, n)]
        offsets, head_ctxs = zip(*(h.forward(dec_in) for h in self.heads))
        trajs = pos0[:, None, :] + np.cumsum(
            np.reshape(offsets, (self.n_modes, n, self.horizon, 2)), axis=2)
        feat, pool_ctx = self.pool_mlp.forward(dec_in)
        # arg[b, j]: the row holding scene b's largest feature j
        arg = np.stack([feat[s].argmax(axis=0) + s.start for s in slices])
        pooled = feat[arg, np.arange(feat.shape[1])]
        logits, prob_ctx = self.prob_mlp.forward(pooled)
        probs = nn.softmax(logits, axis=-1)
        return (trajs, probs), (head_ctxs, pool_ctx, prob_ctx, arg,
                                feat.shape, probs)

    def backward(self, ctx: tuple, dtrajs: np.ndarray,
                 dprobs: np.ndarray) -> np.ndarray:
        head_ctxs, pool_ctx, prob_ctx, arg, feat_shape, probs = ctx
        n = feat_shape[0]
        dlogits = nn.softmax_backward(probs, dprobs)
        dpooled = self.prob_mlp.backward(prob_ctx, dlogits)
        dfeat = np.zeros(feat_shape)
        dfeat[arg, np.arange(feat_shape[1])] = dpooled
        ddec = self.pool_mlp.backward(pool_ctx, dfeat)
        for k in reversed(range(self.n_modes)):
            # integrate backwards: offset t influences all steps >= t
            dofs = np.cumsum(dtrajs[k][:, ::-1, :], axis=1)[:, ::-1, :]
            ddec += self.heads[k].backward(
                head_ctxs[k], np.ascontiguousarray(dofs).reshape(n, -1))
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
