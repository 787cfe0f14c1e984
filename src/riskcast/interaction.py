"""Interaction encoding: per-agent history LSTM, map polyline MLP, stacked
agent-agent self-attention, and agent-map cross attention.

Locality is taken literally: each agent's interaction features are computed
on the subgraph of agents within its context radius, so agents outside the
radius cannot influence a row even through intermediate hops. The subgraph
transformer runs over each distinct context set, not once per agent: agents
with the same set share that run, which computes exactly what each of their
own runs would. The distinct sets of every scene of a union are stacked,
padded to the largest with masked keys, and run as one padded stack; in a
single scene where every agent sees every other, the stack is that one set,
unpadded, and computes its bits.
The history features are built for all agents and steps from the scene's
``past`` [N, H+1, 5], and the map features and visibility for all
polylines, as array operations; the history features round as the scalar
``relative_encoding`` does. The history features and the visibility work
on x and y arrays, in place where they can, writing the rules of
``norm2``, ``dot2`` and ``cross2`` inline, and the history features fill
one preallocated array. The agent-map attention adds its attended map
context to a row as a residual; rows with no visible polyline, or an
entirely empty map, pass through unchanged.

Every layer takes the disjoint union of one or more scenes' rows (see
``riskcast.model``). The agent-agent encoder and the agent-map attention
take one mask or visibility block per scene, and a scene's rows (and
polylines) follow the previous scene's, so no row sees another scene's
agents or polylines. The agent-map attention, too, runs its scenes as one
padded stack, each scene's attending rows against its own polylines.
"""

from __future__ import annotations

from itertools import accumulate

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
# the one-hot rows of the agent classes and of the polyline kinds
_CLASS_ONE_HOT = np.eye(len(AGENT_CLASSES))
_KIND_ONE_HOT = np.eye(len(POLYLINE_KINDS))
_CLASS_ONE_HOT.flags.writeable = _KIND_ONE_HOT.flags.writeable = False


def history_feature_matrix(scn: Scenario) -> np.ndarray:
    """Per-step inputs [N, H+1, F]: normalized kinematics, relative encoding
    to the ego at the same step, and the class one-hot.

    The relative encoding is ``relative_encoding(ego state, agent state)``
    for all agents and steps at once, with its fallbacks: a stopped agent
    moves along its yaw, and coincident positions have bearing
    (sin, cos) = (0, 1). It works on x and y arrays and writes the rules
    of ``norm2``, ``dot2`` and ``cross2`` inline, straight into the
    columns of the one output array.
    """
    kin = scn.past
    n, steps = kin.shape[:2]
    out = np.empty((n, steps, HISTORY_FEATURES))
    np.divide(kin[..., :5], KINEMATIC_SCALE, out=out[..., :5])
    x, y, yaw, vx, vy = kin.transpose(2, 0, 1)
    speed = np.sqrt(vx * vx + vy * vy)
    # AgentState.direction of every state: the velocity over the speed,
    # the yaw direction where stopped
    with np.errstate(divide="ignore", invalid="ignore"):
        ux, uy = vx / speed, vy / speed
        stopped = speed < SPEED_EPS
        if np.logical_or.reduce(stopped, axis=None):
            ux[stopped], uy[stopped] = (np.cos(yaw[stopped]),
                                        np.sin(yaw[stopped]))
        ex, ey = ux[scn.ego_index], uy[scn.ego_index]
        np.subtract(ex * uy, ey * ux, out=out[..., 5])       # cross2(u_ego, u)
        np.add(ex * ux, ey * uy, out=out[..., 6])            # dot2(u_ego, u)
        dx, dy = x - x[scn.ego_index], y - y[scn.ego_index]
        dist = np.sqrt(dx * dx + dy * dy)
        dx /= dist
        dy /= dist
        np.subtract(dx * uy, dy * ux, out=out[..., 7])       # cross2(dn, u)
        np.add(dx * ux, dy * uy, out=out[..., 8])            # dot2(dn, u)
    near = dist < DIST_EPS                     # the ego's own row among them
    out[..., 7][near], out[..., 8][near] = 0.0, 1.0
    np.divide(dist, POS_SCALE, out=out[..., 9])
    classes = [AGENT_CLASSES.index(c) for c in scn.agent_classes]
    out[..., 10:] = _CLASS_ONE_HOT[classes][:, None]
    return out


def map_feature_matrix(road_map: RoadMap, pad: int = 20) -> np.ndarray:
    """Flattened, padded waypoints plus a validity flag per slot and the
    polyline-kind one-hot: [P, pad*3 + 3]. Waypoints beyond `pad` are
    dropped."""
    n = min(road_map.waypoints.shape[1], pad)
    out = np.zeros((len(road_map), pad * 3 + len(POLYLINE_KINDS)))
    slots = out[:, :pad * 3].reshape(len(road_map), pad, 3)
    np.divide(road_map.waypoints[:, :n], POS_SCALE, out=slots[:, :n, :2])
    slots[:, :n, 2] = road_map.valid[:, :n]
    out[:, pad * 3:] = _KIND_ONE_HOT[road_map.kinds]
    return out


def neighbor_mask(scn: Scenario, radius: float) -> np.ndarray:
    """mask[i, j] is True when agent j's current position lies within
    agent i's context radius (diagonal always True)."""
    pos = scn.past[:, -1, :2]
    mask = norm2(pos[:, None, :] - pos[None, :, :]) <= radius
    np.fill_diagonal(mask, True)
    return mask


def map_visibility(scn: Scenario, radius: float) -> np.ndarray:
    """vis[i, m] is True when polyline m has a waypoint within agent i's
    context radius. The distances [N, P, W] are computed on contiguous x
    and y arrays, in place, by the rule of ``norm2``; a padding waypoint
    lies at x = inf, beyond every radius."""
    pos = scn.past[:, -1, :2]
    wx = np.where(scn.map.valid, scn.map.waypoints[..., 0], np.inf)
    d = np.subtract(pos[:, 0, None, None], wx)                  # [N, P, W]
    dy = np.subtract(pos[:, 1, None, None], scn.map.waypoints[..., 1])
    np.multiply(d, d, out=d)
    d += np.multiply(dy, dy, out=dy)
    np.sqrt(d, out=d)
    return np.minimum.reduce(d, axis=-1, initial=np.inf) <= radius


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
    """Pre-norm residual block: x + MHA(LN(x)) followed by x + FF(LN(x)).

    x is one set [n, D] or a stack of sets [S, n, D], attended set by set
    under the per-set key mask [S, n, n] (None: every key visible). The
    layer norms and the feed-forward run on the rows of every set at
    once."""

    def __init__(self, dim: int, heads: int, ff_mult: int,
                 rng: np.random.Generator, name: str):
        self.ln1 = nn.LayerNorm(dim, name=f"{name}.ln1")
        self.mha = nn.MultiHeadAttention(dim, heads, rng, name=f"{name}.mha")
        self.ln2 = nn.LayerNorm(dim, name=f"{name}.ln2")
        self.ff = nn.MLP([dim, ff_mult * dim, dim], rng, name=f"{name}.ff")

    def forward(self, x: np.ndarray, mask: np.ndarray | None = None
                ) -> tuple[np.ndarray, tuple]:
        rows = x.reshape(-1, x.shape[-1])
        h, ln1_ctx = self.ln1.forward(rows)
        h = h.reshape(x.shape)
        y, mha_ctx = self.mha.forward(h, h, h, mask)
        y = y.reshape(rows.shape)
        y += rows
        hy, ln2_ctx = self.ln2.forward(y)
        ff, ff_ctx = self.ff.forward(hy)
        ff += y
        return ff.reshape(x.shape), (ln1_ctx, mha_ctx, ln2_ctx, ff_ctx)

    def backward(self, ctx: tuple, g: np.ndarray) -> np.ndarray:
        ln1_ctx, mha_ctx, ln2_ctx, ff_ctx = ctx
        g_rows = g.reshape(-1, g.shape[-1])
        dy = g_rows + self.ln2.backward(ln2_ctx,
                                        self.ff.backward(ff_ctx, g_rows))
        dq, dk, dv = self.mha.backward(mha_ctx, dy.reshape(g.shape))
        dh = (dq + dk + dv).reshape(dy.shape)
        return (dy + self.ln1.backward(ln1_ctx, dh)).reshape(g.shape)


class AgentAgentEncoder(nn.Module):
    """Stacked self-attention applied per agent on its local subgraph.

    Row i of the output is computed by running the blocks over the agents
    inside agent i's context set only, so out-of-radius agents cannot leak
    in through multi-hop attention. Agents whose context sets are equal
    (equal mask rows) share the run over that set, and each takes the
    output row at its own position. This is exact, not an approximation: a
    run depends only on the set, so the shared run is the very computation
    each member's own run would be.

    The distinct context sets of every scene are stacked, padded to the
    largest, [S, n, D], and the blocks run once over the stack. Padded
    keys are masked, so a set's rows see only its own agents; padded query
    rows are dropped, and their gradient is zero. A stack of one unpadded
    set, a scene where every agent sees every other, computes what the
    blocks compute on its rows alone, bit for bit.

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

    def forward(self, embeds: np.ndarray, masks: list[np.ndarray]
                ) -> tuple[np.ndarray, tuple]:
        """(output, ctx). masks[b] is scene b's square mask, whose rows
        follow scene b-1's. The context is the stack's agents [S, n] (an
        agent's row, 0 in a padded slot) and whether each slot holds one,
        the members and their flat slots in the stack, and the block
        contexts."""
        starts = list(accumulate(map(len, masks), initial=0))
        sets, members, positions = [], [], []
        # the last scene first: the order np.unique gives the sets of the
        # whole union
        for start, mask in reversed(list(zip(starts, masks))):
            mask = np.asarray(mask, dtype=bool)
            for idx, group, pos in _context_sets(mask, start):
                sets.append(idx + start)
                members.append(group + start)
                positions.append(pos)
        agents, filled = _stack(sets)                          # [S, n]
        members = np.concatenate(members)
        # each member's flat slot in the stack
        slots = np.concatenate([s * agents.shape[1] + pos
                                for s, pos in enumerate(positions)])
        # a padded key is masked; a padded query row is dropped
        key_mask = None
        if not np.logical_and.reduce(filled, axis=None):
            key_mask = np.repeat(filled[:, None, :], filled.shape[1], axis=1)
        x = embeds[agents]
        block_ctxs = []
        for block in self.blocks:
            x, bctx = block.forward(x, key_mask)
            block_ctxs.append(bctx)
        out = np.empty_like(embeds)
        out[members] = x.reshape(-1, x.shape[-1])[slots]
        return out, (agents, filled, members, slots, block_ctxs)

    def backward(self, ctx: tuple, g: np.ndarray) -> np.ndarray:
        agents, filled, members, slots, block_ctxs = ctx
        gx = np.zeros((agents.size, g.shape[1]))
        gx[slots] = g[members]
        gx = gx.reshape(agents.shape + (g.shape[1],))
        for block, bctx in zip(reversed(self.blocks), reversed(block_ctxs)):
            gx = block.backward(bctx, gx)
        dembeds = np.zeros_like(g)
        np.add.at(dembeds, agents[filled], gx[filled])
        return dembeds


def _stack(groups: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The index arrays of the groups as the rows of one [S, n] array,
    padded with 0 to the longest, and whether each slot holds an index."""
    index = np.zeros((len(groups), max(map(len, groups))), dtype=np.intp)
    filled = np.zeros(index.shape, dtype=bool)
    for s, group in enumerate(groups):
        index[s, :len(group)] = group
        filled[s, :len(group)] = True
    return index, filled


def _context_sets(mask: np.ndarray, start: int
                  ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(agents, members, positions) of each distinct row of a square mask,
    in the order np.unique sorts the rows: the agents the row marks, the
    rows equal to it, and the members' positions among the agents. Raises
    ValueError, naming the agent by its row plus start, where a row is
    empty or leaves out its own agent."""
    if np.logical_and.reduce(mask, axis=None):
        everyone = np.arange(len(mask))
        return [(everyone, everyone, everyone)]
    empty = np.flatnonzero(~mask.any(axis=1))
    if empty.size:
        raise ValueError(f"agent {start + empty[0]} has an empty context set")
    outside = np.flatnonzero(~np.diagonal(mask))
    if outside.size:
        raise ValueError(f"agent {start + outside[0]} is not in its own "
                         f"context set")
    sets, which = np.unique(mask, axis=0, return_inverse=True)
    which = which.reshape(-1)
    out = []
    for s, row in enumerate(sets):
        agents, members = np.flatnonzero(row), np.flatnonzero(which == s)
        out.append((agents, members, np.searchsorted(agents, members)))
    return out


class AgentMapAttention(nn.Module):
    """Cross attention from agent features (queries) to polyline embeddings
    (keys and values), added to the features as a residual: an output row
    is its input plus its attended map context, and rows with nothing
    visible, or an empty map, pass through unchanged.

    Each scene of a union is its own [N_b, P_b] visibility block. The
    scenes with an attending row are stacked, their attending rows and
    their polylines each padded to the largest, and the attention runs
    once over the stack: a padded key is masked, a padded query row sees
    its scene's keys and is dropped. So a row sees only its own scene's
    polylines, and the cost grows with the scenes' own sizes, not with the
    square of the union's.
    """

    def __init__(self, dim: int, heads: int, rng: np.random.Generator,
                 name: str = "amap"):
        self.mha = nn.MultiHeadAttention(dim, heads, rng, name=name)

    def forward(self, features: np.ndarray, map_embeds: np.ndarray,
                vis: list[np.ndarray]) -> tuple[np.ndarray, tuple]:
        """(output, ctx). vis[b] is scene b's visibility, whose rows and
        polylines follow scene b-1's. The context is the polyline count
        and, when some row attends, the attending rows, the stack's query
        rows and keys (0 in a padded slot), whether each slot holds one,
        and the attention context."""
        out = features.copy()
        rows, keys, blocks = [], [], []
        row0 = key0 = 0
        for v in vis:
            attending = np.logical_or.reduce(v, axis=1).nonzero()[0]
            if attending.size:
                rows.append(row0 + attending)
                keys.append(np.arange(key0, key0 + v.shape[1]))
                blocks.append(v[attending])
            row0, key0 = row0 + v.shape[0], key0 + v.shape[1]
        if not rows:
            return out, (len(map_embeds), None)
        queries, row_filled = _stack(rows)
        keys, key_filled = _stack(keys)
        # a padded key is masked; a padded query row sees its scene's keys
        mask = np.zeros(row_filled.shape + key_filled.shape[1:], dtype=bool)
        for s, block in enumerate(blocks):
            n_rows, n_keys = block.shape
            mask[s, :n_rows, :n_keys] = block
            if n_rows < mask.shape[1]:
                mask[s, n_rows:, :n_keys] = True
        kv = map_embeds[keys]
        q = features[queries]
        att, mha_ctx = self.mha.forward(q, kv, kv, mask)
        # each query row plus its attended map context; the attention's
        # output is its own, so the residual adds into it
        att += q
        rows = queries[row_filled]
        out[rows] = att[row_filled]
        return out, (len(map_embeds),
                     (rows, row_filled, keys, key_filled, mha_ctx))

    def backward(self, ctx: tuple, g: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        m, run = ctx
        dfeat = g.copy()
        dmap = np.zeros((m, g.shape[1]))
        if run is not None:
            rows, row_filled, keys, key_filled, mha_ctx = run
            gq = np.zeros(row_filled.shape + g.shape[1:])
            gq[row_filled] = g[rows]
            dq, dk, dv = self.mha.backward(mha_ctx, gq)
            dfeat[rows] += dq[row_filled]
            dmap[keys[key_filled]] = (dk + dv)[key_filled]
        return dfeat, dmap
