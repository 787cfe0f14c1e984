"""Interaction encoding: per-agent history LSTM, map polyline MLP, stacked
agent-agent self-attention, and agent-map cross attention.

Locality is taken literally: each agent's interaction features are computed
on the subgraph of agents within its context radius, so agents outside the
radius cannot influence a row even through intermediate hops. The subgraph
transformer runs once per distinct context set, not once per agent: agents
with the same set share that run, which computes exactly what each of their
own runs would. In a scene where every agent sees every other it runs once.
The history features are built for all agents and steps, and the map
features and visibility for all polylines, as array operations on the
scene's arrays; the history features round as the scalar
``relative_encoding`` does. The agent-map
attention replaces a row by its attended map context (no internal residual);
rows with no visible polyline, or an entirely empty map, pass through
unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .geometry import AGENT_CLASSES, DIST_EPS, SPEED_EPS
from .scene import POLYLINE_KINDS, RoadMap, Scenario

POS_SCALE = 50.0
VEL_SCALE = 15.0
YAW_SCALE = np.pi
KINEMATIC_SCALE = np.array([POS_SCALE, POS_SCALE, YAW_SCALE, VEL_SCALE,
                            VEL_SCALE])  # x, y, yaw, vx, vy

HISTORY_FEATURES = 10 + len(AGENT_CLASSES)  # kinematics + rel encoding + class


@dataclass
class InteractionConfig:
    embed_dim: int = 64
    attention_heads: int = 4
    context_radius_m: float = 50.0
    transformer_layers: int = 2
    ff_mult: int = 2
    map_pad: int = 20

    def __post_init__(self):
        if self.embed_dim % self.attention_heads != 0:
            raise ValueError("embed_dim must be divisible by attention_heads")


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a batched matmul rounds as relative_encoding's 2-vector `a @ b` does
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def history_feature_matrix(scn: Scenario) -> np.ndarray:
    """Per-step inputs [N, H+1, F]: normalized kinematics, relative encoding
    to the ego at the same step, and the class one-hot.

    The relative encoding is ``relative_encoding(ego state, agent state)``
    for all agents and steps at once, with its fallbacks: a stopped agent
    moves along its yaw, and coincident positions have bearing
    (sin, cos) = (0, 1).
    """
    kin = np.array([a.past for a in scn.agents])
    n, steps = kin.shape[:2]
    # AgentState.speed is math.hypot, which np.hypot does not always match
    speed = np.array([math.hypot(vx, vy) for vx, vy
                      in kin[..., 3:].reshape(-1, 2).tolist()]
                     ).reshape(n, steps)
    stopped = speed < SPEED_EPS
    # AgentState.direction of every state
    u = np.where(stopped[..., None],
                 np.stack([np.cos(kin[..., 2]), np.sin(kin[..., 2])], axis=-1),
                 kin[..., 3:5] / np.where(stopped, 1.0, speed)[..., None])
    u_ego = u[scn.ego_index]
    d = kin[..., :2] - kin[scn.ego_index, :, :2]
    dist = np.hypot(d[..., 0], d[..., 1])
    near = dist < DIST_EPS
    dn = d / np.where(near, 1.0, dist)[..., None]
    rel = np.stack([_cross(u_ego, u), _dot(u_ego, u),
                    np.where(near, 0.0, _cross(dn, u)),
                    np.where(near, 1.0, _dot(dn, u)),
                    dist / POS_SCALE], axis=-1)
    classes = [AGENT_CLASSES.index(a.agent_class) for a in scn.agents]
    onehot = np.broadcast_to(np.eye(len(AGENT_CLASSES))[classes][:, None],
                             (n, steps, len(AGENT_CLASSES)))
    return np.concatenate([kin[..., :5] / KINEMATIC_SCALE, rel, onehot],
                          axis=-1)


def map_feature_matrix(road_map: RoadMap, pad: int = 20) -> np.ndarray:
    """Flattened, padded waypoints plus a validity flag per slot and the
    polyline-kind one-hot: [P, pad*3 + 3]. Waypoints beyond `pad` are
    dropped."""
    n = min(road_map.waypoints.shape[1], pad)
    slots = np.zeros((len(road_map), pad, 3))
    slots[:, :n, :2] = road_map.waypoints[:, :n] / POS_SCALE
    slots[:, :n, 2] = road_map.valid[:, :n]
    kinds = np.eye(len(POLYLINE_KINDS))[road_map.kinds]
    return np.concatenate([slots.reshape(len(road_map), pad * 3), kinds],
                          axis=1)


def neighbor_mask(scn: Scenario, radius: float) -> np.ndarray:
    """mask[i, j] is True when agent j's current position lies within
    agent i's context radius (diagonal always True)."""
    pos = scn.current_kinematics()[:, :2]
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    mask = d <= radius
    np.fill_diagonal(mask, True)
    return mask


def map_visibility(scn: Scenario, radius: float) -> np.ndarray:
    """vis[i, m] is True when polyline m has a waypoint within agent i's
    context radius."""
    pos = scn.current_kinematics()[:, :2]
    d = np.linalg.norm(pos[:, None, None, :] - scn.map.waypoints[None],
                       axis=-1)                               # [N, P, W]
    d = np.where(scn.map.valid, d, np.inf)
    return d.min(axis=-1, initial=np.inf) <= radius


class HistoryEncoder(nn.Module):
    """LSTM over each agent's past states; the final hidden state is the
    agent's trajectory embedding."""

    def __init__(self, cfg: InteractionConfig, rng: np.random.Generator,
                 name: str = "hist"):
        self.lstm = nn.LSTM(HISTORY_FEATURES, cfg.embed_dim, rng, name=name)

    def params(self):
        return self.lstm.params()

    def forward(self, seq: np.ndarray) -> np.ndarray:
        return self.lstm.forward(seq)

    def backward(self, g: np.ndarray) -> np.ndarray:
        return self.lstm.backward(g)


class MapEncoder(nn.Module):
    def __init__(self, cfg: InteractionConfig, rng: np.random.Generator,
                 name: str = "map"):
        in_dim = cfg.map_pad * 3 + 3
        self.pad = cfg.map_pad
        self.mlp = nn.MLP([in_dim, cfg.embed_dim, cfg.embed_dim], rng,
                          name=name)

    def params(self):
        return self.mlp.params()

    def forward(self, feats: np.ndarray) -> np.ndarray:
        return self.mlp.forward(feats)

    def backward(self, g: np.ndarray) -> np.ndarray:
        return self.mlp.backward(g)


class SelfAttentionBlock(nn.Module):
    """Pre-norm residual block: x + MHA(LN(x)) followed by x + FF(LN(x))."""

    def __init__(self, dim: int, heads: int, ff_mult: int,
                 rng: np.random.Generator, name: str):
        self.ln1 = nn.LayerNorm(dim, name=f"{name}.ln1")
        self.mha = nn.MultiHeadAttention(dim, heads, rng, name=f"{name}.mha")
        self.ln2 = nn.LayerNorm(dim, name=f"{name}.ln2")
        self.ff = nn.MLP([dim, ff_mult * dim, dim], rng, name=f"{name}.ff")

    def params(self):
        return (self.ln1.params() + self.mha.params() + self.ln2.params()
                + self.ff.params())

    def forward(self, x: np.ndarray,
                mask: np.ndarray | None = None) -> np.ndarray:
        h = self.ln1.forward(x)
        y = x + self.mha.forward(h, h, h, mask)
        z = y + self.ff.forward(self.ln2.forward(y))
        return z

    def backward(self, g: np.ndarray) -> np.ndarray:
        dy = g + self.ln2.backward(self.ff.backward(g))
        dq, dk, dv = self.mha.backward(dy)
        return dy + self.ln1.backward(dq + dk + dv)


class AgentAgentEncoder(nn.Module):
    """Stacked self-attention applied per agent on its local subgraph.

    Row i of the output is computed by running the blocks over the agents
    inside agent i's context set only, so out-of-radius agents cannot leak
    in through multi-hop attention. Agents whose context sets are equal
    (equal mask rows) share one run of the blocks over that set, and each
    takes the output row at its own position. This is exact, not an
    approximation: a run depends only on the set, so the shared run is the
    very computation each member's own run would be. The blocks run once
    per distinct context set, once per scene when every agent sees every
    other.
    """

    def __init__(self, cfg: InteractionConfig, rng: np.random.Generator,
                 name: str = "aa"):
        self.blocks = [
            SelfAttentionBlock(cfg.embed_dim, cfg.attention_heads,
                               cfg.ff_mult, rng, name=f"{name}.{i}")
            for i in range(cfg.transformer_layers)
        ]
        self._cache: list[list[tuple[np.ndarray, np.ndarray,
                                     np.ndarray]]] = []

    def params(self):
        return [p for b in self.blocks for p in b.params()]

    def forward(self, embeds: np.ndarray, mask: np.ndarray) -> np.ndarray:
        mask = np.asarray(mask, dtype=bool)
        empty = np.flatnonzero(~mask.any(axis=1))
        if empty.size:
            raise ValueError(f"agent {empty[0]} has an empty context set")
        outside = np.flatnonzero(~np.diagonal(mask))
        if outside.size:
            raise ValueError(
                f"agent {outside[0]} is not in its own context set")
        sets, which = np.unique(mask, axis=0, return_inverse=True)
        which = which.reshape(-1)
        out = np.empty_like(embeds)
        runs = []
        for s, row in enumerate(sets):
            idx = np.flatnonzero(row)
            members = np.flatnonzero(which == s)
            x = embeds[idx]
            for block in self.blocks:
                x = block.forward(x)
            pos = np.searchsorted(idx, members)
            out[members] = x[pos]
            runs.append((idx, members, pos))
        self._cache.append(runs)
        return out

    def backward(self, g: np.ndarray) -> np.ndarray:
        runs = self._cache.pop()
        dembeds = np.zeros_like(g)
        for idx, members, pos in reversed(runs):
            gx = np.zeros((idx.size, g.shape[1]))
            gx[pos] = g[members]
            for block in reversed(self.blocks):
                gx = block.backward(gx)
            dembeds[idx] += gx
        return dembeds


class AgentMapAttention(nn.Module):
    """Cross attention from agent features (queries) to polyline embeddings
    (keys and values). Output rows are the attended map context; rows with
    nothing visible, or an empty map, pass through unchanged."""

    def __init__(self, cfg: InteractionConfig, rng: np.random.Generator,
                 name: str = "amap"):
        self.mha = nn.MultiHeadAttention(cfg.embed_dim, cfg.attention_heads,
                                         rng, name=name)
        self._cache: list[tuple | None] = []

    def params(self):
        return self.mha.params()

    def forward(self, features: np.ndarray, map_embeds: np.ndarray,
                vis: np.ndarray | None = None) -> np.ndarray:
        n, m = features.shape[0], map_embeds.shape[0]
        if m == 0:
            self._cache.append(None)
            return features
        if vis is None:
            vis = np.ones((n, m), dtype=bool)
        rows = np.flatnonzero(vis.any(axis=1))
        out = features.copy()
        if rows.size:
            out[rows] = self.mha.forward(features[rows], map_embeds,
                                         map_embeds, vis[rows])
        self._cache.append((rows, n, m))
        return out

    def backward(self, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ctx = self._cache.pop()
        if ctx is None:
            return g, np.zeros((0, g.shape[1]))
        rows, n, m = ctx
        dfeat = g.copy()
        dmap = np.zeros((m, g.shape[1]))
        if rows.size:
            dq, dk, dv = self.mha.backward(g[rows])
            dfeat[rows] = dq
            dmap = dk + dv
        return dfeat, dmap
