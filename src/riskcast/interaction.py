"""Interaction encoding: per-agent history LSTM, map polyline MLP, stacked
agent-agent self-attention, and agent-map cross attention.

Locality is taken literally: each agent's interaction features are computed
on the subgraph of agents within its context radius, so agents outside the
radius cannot influence a row even through intermediate hops. The subgraph
transformer runs once per distinct context set, not once per agent: agents
with the same set share that run, which computes exactly what each of their
own runs would. In a scene where every agent sees every other it runs once.
The history features are built for all agents and steps from the scene's
``past`` [N, H+1, 5], and the map features and visibility for all
polylines, as array operations; the history features round as the scalar
``relative_encoding`` does. The agent-map attention replaces a row by its
attended map context (no internal residual); rows with no visible polyline,
or an entirely empty map, pass through unchanged.

Every layer takes the disjoint union of one or more scenes' rows (see
``riskcast.model``). The agent-agent encoder and the agent-map attention
take one mask or visibility block per scene, and a scene's rows (and
polylines) follow the previous scene's, so no row sees another scene's
agents or polylines.
"""

from __future__ import annotations

import math

import numpy as np

from . import nn
from .geometry import AGENT_CLASSES, DIST_EPS, SPEED_EPS, norm2
from .scene import POLYLINE_KINDS, RoadMap, Scenario

POS_SCALE = 50.0
VEL_SCALE = 15.0
YAW_SCALE = np.pi
KINEMATIC_SCALE = np.array([POS_SCALE, POS_SCALE, YAW_SCALE, VEL_SCALE,
                            VEL_SCALE])  # x, y, yaw, vx, vy

HISTORY_FEATURES = 10 + len(AGENT_CLASSES)  # kinematics + rel encoding + class


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
    kin = scn.past
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
    classes = [AGENT_CLASSES.index(c) for c in scn.agent_classes]
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
    pos = scn.past[:, -1, :2]
    mask = norm2(pos[:, None, :] - pos[None, :, :]) <= radius
    np.fill_diagonal(mask, True)
    return mask


def map_visibility(scn: Scenario, radius: float) -> np.ndarray:
    """vis[i, m] is True when polyline m has a waypoint within agent i's
    context radius."""
    pos = scn.past[:, -1, :2]
    d = norm2(pos[:, None, None, :] - scn.map.waypoints[None])  # [N, P, W]
    d = np.where(scn.map.valid, d, np.inf)
    return d.min(axis=-1, initial=np.inf) <= radius


class HistoryEncoder(nn.LSTM):
    """LSTM over each agent's past states; the final hidden state is the
    agent's trajectory embedding."""

    def __init__(self, dim: int, rng: np.random.Generator,
                 name: str = "hist"):
        super().__init__(HISTORY_FEATURES, dim, rng, name=name)


class MapEncoder(nn.MLP):
    """MLP over each polyline's `map_feature_matrix` row, of `map_pad`
    waypoints."""

    def __init__(self, map_pad: int, dim: int, rng: np.random.Generator,
                 name: str = "map"):
        super().__init__([map_pad * 3 + 3, dim, dim], rng, name=name)


class SelfAttentionBlock(nn.Module):
    """Pre-norm residual block: x + MHA(LN(x)) followed by x + FF(LN(x))."""

    def __init__(self, dim: int, heads: int, ff_mult: int,
                 rng: np.random.Generator, name: str):
        self.ln1 = nn.LayerNorm(dim, name=f"{name}.ln1")
        self.mha = nn.MultiHeadAttention(dim, heads, rng, name=f"{name}.mha")
        self.ln2 = nn.LayerNorm(dim, name=f"{name}.ln2")
        self.ff = nn.MLP([dim, ff_mult * dim, dim], rng, name=f"{name}.ff")

    def parts(self):
        return [self.ln1, self.mha, self.ln2, self.ff]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        h, ln1_ctx = self.ln1.forward(x)
        att, mha_ctx = self.mha.forward(h, h, h)
        y = x + att
        hy, ln2_ctx = self.ln2.forward(y)
        ff, ff_ctx = self.ff.forward(hy)
        return y + ff, (ln1_ctx, mha_ctx, ln2_ctx, ff_ctx)

    def backward(self, ctx: tuple, g: np.ndarray) -> np.ndarray:
        ln1_ctx, mha_ctx, ln2_ctx, ff_ctx = ctx
        dy = g + self.ln2.backward(ln2_ctx, self.ff.backward(ff_ctx, g))
        dq, dk, dv = self.mha.backward(mha_ctx, dy)
        return dy + self.ln1.backward(ln1_ctx, dq + dk + dv)


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

    Each scene of a union is its own square mask, whose context sets are
    found on their own, since none crosses a scene; a mask that is all True
    is one set, found without a sort.
    """

    def __init__(self, dim: int, heads: int, ff_mult: int, layers: int,
                 rng: np.random.Generator, name: str = "aa"):
        self.blocks = [
            SelfAttentionBlock(dim, heads, ff_mult, rng, name=f"{name}.{i}")
            for i in range(layers)
        ]

    def parts(self):
        return self.blocks

    def forward(self, embeds: np.ndarray, masks: list[np.ndarray]
                ) -> tuple[np.ndarray, list]:
        """(output, ctx). masks[b] is scene b's square mask, whose rows
        follow scene b-1's. The context lists, per context set, its agents,
        their members and positions, and the block contexts."""
        starts = np.cumsum([0] + [len(mask) for mask in masks]).tolist()
        out = np.empty_like(embeds)
        runs = []
        # the last scene first: the order np.unique gives the sets of the
        # whole union, which the gradient sums of the backward keep
        for start, mask in reversed(list(zip(starts, masks))):
            mask = np.asarray(mask, dtype=bool)
            empty = np.flatnonzero(~mask.any(axis=1))
            if empty.size:
                raise ValueError(
                    f"agent {start + empty[0]} has an empty context set")
            outside = np.flatnonzero(~np.diagonal(mask))
            if outside.size:
                raise ValueError(f"agent {start + outside[0]} is not in its "
                                 f"own context set")
            for idx, members in _context_sets(mask):
                idx, members = idx + start, members + start
                x = embeds[idx]
                block_ctxs = []
                for block in self.blocks:
                    x, bctx = block.forward(x)
                    block_ctxs.append(bctx)
                pos = np.searchsorted(idx, members)
                out[members] = x[pos]
                runs.append((idx, members, pos, block_ctxs))
        return out, runs

    def backward(self, runs: list, g: np.ndarray) -> np.ndarray:
        dembeds = np.zeros_like(g)
        for idx, members, pos, block_ctxs in reversed(runs):
            gx = np.zeros((idx.size, g.shape[1]))
            gx[pos] = g[members]
            for block, bctx in zip(reversed(self.blocks),
                                   reversed(block_ctxs)):
                gx = block.backward(bctx, gx)
            dembeds[idx] += gx
        return dembeds


def _context_sets(mask: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(agents, members) of each distinct row of a square mask, in the
    order np.unique sorts the rows: the agents the row marks, and the rows
    equal to it."""
    if mask.all():
        everyone = np.arange(len(mask))
        return [(everyone, everyone)]
    sets, which = np.unique(mask, axis=0, return_inverse=True)
    which = which.reshape(-1)
    return [(np.flatnonzero(row), np.flatnonzero(which == s))
            for s, row in enumerate(sets)]


class AgentMapAttention(nn.Module):
    """Cross attention from agent features (queries) to polyline embeddings
    (keys and values). Output rows are the attended map context; rows with
    nothing visible, or an empty map, pass through unchanged.

    Each scene of a union is its own [N_b, P_b] visibility block, and the
    attention runs once per scene, so that its cost grows with the scenes'
    own sizes, not with the square of the union's.
    """

    def __init__(self, dim: int, heads: int, rng: np.random.Generator,
                 name: str = "amap"):
        self.mha = nn.MultiHeadAttention(dim, heads, rng, name=name)

    def parts(self):
        return [self.mha]

    def forward(self, features: np.ndarray, map_embeds: np.ndarray,
                vis: list[np.ndarray]) -> tuple[np.ndarray, tuple]:
        """(output, ctx). vis[b] is scene b's visibility, whose rows and
        polylines follow scene b-1's. The context is the polyline count
        and, per scene, its attending rows, its keys and the attention
        context (None when no row attends)."""
        out = features.copy()
        runs = []
        row0 = key0 = 0
        for v in vis:
            keys = slice(key0, key0 + v.shape[1])
            attending = np.flatnonzero(v.any(axis=1))
            rows = row0 + attending
            mha_ctx = None
            if rows.size:
                kv = map_embeds[keys]
                att, mha_ctx = self.mha.forward(features[rows], kv, kv,
                                                v[attending])
                out[rows] = att
            runs.append((rows, keys, mha_ctx))
            row0, key0 = row0 + v.shape[0], keys.stop
        return out, (len(map_embeds), runs)

    def backward(self, ctx: tuple, g: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        m, runs = ctx
        dfeat = g.copy()
        dmap = np.zeros((m, g.shape[1]))
        for rows, keys, mha_ctx in runs:
            if rows.size:
                dq, dk, dv = self.mha.backward(mha_ctx, g[rows])
                dfeat[rows] = dq
                dmap[keys] = dk + dv
        return dfeat, dmap
