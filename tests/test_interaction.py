"""Interaction encoder tests: history/map encoding, locality, permutation
behavior, the agent-map attention contract, and the array forms of the
subgraph attention, local frame and history features against the per-agent
and per-state references they replace."""

from dataclasses import replace

import numpy as np
import pytest

from riskcast import nn
from riskcast.geometry import (AGENT_CLASSES, DIST_EPS, SPEED_EPS,
                               AgentState, cross2, dot2, norm2,
                               relative_encoding, transform_state)
from riskcast.interaction import (KINEMATIC_SCALE, POS_SCALE, VEL_SCALE,
                                  YAW_SCALE,
                                  AgentAgentEncoder, AgentMapAttention,
                                  HistoryEncoder, MapEncoder,
                                  SelfAttentionBlock,
                                  history_feature_matrix, map_feature_matrix,
                                  map_visibility, neighbor_mask)
from riskcast.model import ModelConfig
from riskcast.scene import (TEMPLATES, RoadMap, generate_scenario,
                            local_frame, pose_frame)


CFG = ModelConfig(embed_dim=16, attention_heads=2, map_pad=20)


@pytest.fixture
def local():
    scn = generate_scenario("crossing_conflict", 4, seed=9)
    return local_frame(scn, "ego", CFG.context_radius_m)


class TestHistoryEncoder:
    def test_output_shape_finite(self):
        scn = generate_scenario("straight", 1, seed=0)
        enc = HistoryEncoder(CFG.embed_dim, nn.seeded_rng(0))
        out, _ = enc.forward(history_feature_matrix(local_frame(scn, "ego")))
        assert out.shape == (1, CFG.embed_dim)
        assert np.all(np.isfinite(out))

    def test_identical_histories_identical_rows(self, local):
        enc = HistoryEncoder(CFG.embed_dim, nn.seeded_rng(1))
        feats = history_feature_matrix(local)
        doubled = np.concatenate([feats, feats[:1]], axis=0)
        out, _ = enc.forward(doubled)
        assert np.allclose(out[0], out[-1], atol=0)

    def test_matches_stepwise_lstm_oracle(self, local):
        enc = HistoryEncoder(CFG.embed_dim, nn.seeded_rng(7))
        feats = history_feature_matrix(local)
        out, _ = enc.forward(feats)
        h = np.zeros((feats.shape[0], CFG.embed_dim))
        c = np.zeros_like(h)
        wx, wh, b = enc.gate_weights()
        for t in range(feats.shape[1]):
            (h, c), _ = enc.step(feats[:, t, :] @ wx, h, c, wh, b)
        assert np.allclose(out, h, atol=1e-10)


class TestMapEncoder:
    def test_empty_map(self):
        enc = MapEncoder(CFG.map_pad, CFG.embed_dim, nn.seeded_rng(2))
        out, _ = enc.forward(map_feature_matrix(RoadMap.padded([], []),
                                                CFG.map_pad))
        assert out.shape == (0, CFG.embed_dim)

    def test_identical_polylines_identical_embeddings(self):
        enc = MapEncoder(CFG.map_pad, CFG.embed_dim, nn.seeded_rng(3))
        poly = np.array([[0.0, 0.0], [5.0, 1.0], [10.0, 3.0]])
        out, _ = enc.forward(map_feature_matrix(
            RoadMap.padded([poly, poly], ["lane_center"] * 2), CFG.map_pad))
        assert np.array_equal(out[0], out[1])

    def test_local_frame_pipeline_invariance(self):
        # translating the whole scene changes nothing after local framing
        scn = generate_scenario("left_turn", 2, seed=4)
        from riskcast.scene import _apply_rigid
        moved = _apply_rigid(scn, np.array([123.0, -77.0]), 0.0)
        enc = MapEncoder(CFG.map_pad, CFG.embed_dim, nn.seeded_rng(4))
        a, _ = enc.forward(map_feature_matrix(local_frame(scn, "ego").map,
                                              CFG.map_pad))
        b, _ = enc.forward(map_feature_matrix(local_frame(moved, "ego").map,
                                              CFG.map_pad))
        assert np.allclose(a, b, atol=1e-9)

    def test_long_polylines_padded(self):
        enc = MapEncoder(CFG.map_pad, CFG.embed_dim, nn.seeded_rng(5))
        poly = np.arange(30).reshape(15, 2).astype(float)
        feats = map_feature_matrix(RoadMap.padded([poly], ["lane_center"]),
                                   CFG.map_pad)
        assert feats.shape == (1, CFG.map_pad * 3 + 3)
        assert feats[0, 14 * 3 + 2] == 1.0   # last real slot valid
        assert feats[0, 15 * 3 + 2] == 0.0   # first padded slot masked


class TestAgentAgentAttention:
    def test_single_agent_depends_on_self(self):
        enc = AgentAgentEncoder(CFG.embed_dim, CFG.attention_heads,
                                CFG.ff_mult, CFG.transformer_layers,
                                nn.seeded_rng(6))
        x = nn.seeded_rng(7).normal(size=(1, CFG.embed_dim))
        out1, _ = enc.forward(x, [np.ones((1, 1), dtype=bool)])
        out2, _ = enc.forward(x.copy(), [np.ones((1, 1), dtype=bool)])
        assert np.array_equal(out1, out2)

    def test_permutation_equivariance(self):
        rng = nn.seeded_rng(8)
        enc = AgentAgentEncoder(CFG.embed_dim, CFG.attention_heads,
                                CFG.ff_mult, CFG.transformer_layers, rng)
        x = rng.normal(size=(5, CFG.embed_dim))
        mask = np.ones((5, 5), dtype=bool)
        perm = np.array([0, 3, 1, 4, 2])
        out, _ = enc.forward(x, [mask])
        out_p, _ = enc.forward(x[perm], [mask[np.ix_(perm, perm)]])
        assert np.allclose(out_p, out[perm], atol=1e-12)

    def test_masked_agent_equals_deletion(self):
        rng = nn.seeded_rng(9)
        enc = AgentAgentEncoder(CFG.embed_dim, CFG.attention_heads,
                                CFG.ff_mult, CFG.transformer_layers, rng)
        x = rng.normal(size=(4, CFG.embed_dim))
        mask = np.ones((4, 4), dtype=bool)
        mask[:3, 3] = False  # agent 3 invisible to everyone else
        out, _ = enc.forward(x, [mask])
        out_del, _ = enc.forward(x[:3], [np.ones((3, 3), dtype=bool)])
        assert np.allclose(out[:3], out_del, atol=1e-9)

    def test_empty_context_raises(self):
        enc = AgentAgentEncoder(CFG.embed_dim, CFG.attention_heads,
                                CFG.ff_mult, CFG.transformer_layers,
                                nn.seeded_rng(10))
        x = np.zeros((2, CFG.embed_dim))
        mask = np.ones((2, 2), dtype=bool)
        mask[1, :] = False
        with pytest.raises(ValueError, match="empty context"):
            enc.forward(x, [mask])

    def test_radius_locality_end_to_end(self, local):
        # an agent outside everyone's radius never affects any row
        rng = nn.seeded_rng(11)
        enc = AgentAgentEncoder(CFG.embed_dim, CFG.attention_heads,
                                CFG.ff_mult, CFG.transformer_layers, rng)
        feats = rng.normal(size=(len(local.agent_ids), CFG.embed_dim))
        mask = neighbor_mask(local, CFG.context_radius_m)
        base, _ = enc.forward(feats, [mask])

        far_feat = rng.normal(size=(1, CFG.embed_dim))
        feats2 = np.concatenate([feats, far_feat])
        n = feats2.shape[0]
        mask2 = np.zeros((n, n), dtype=bool)
        mask2[:n - 1, :n - 1] = mask
        mask2[n - 1, n - 1] = True  # far agent sees only itself
        out, _ = enc.forward(feats2, [mask2])
        assert np.allclose(out[:n - 1], base, atol=1e-9)


class TestAgentMapAttention:
    def test_empty_map_pass_through(self):
        att = AgentMapAttention(CFG.embed_dim, CFG.attention_heads,
                                nn.seeded_rng(12))
        x = nn.seeded_rng(13).normal(size=(3, CFG.embed_dim))
        out, _ = att.forward(x, np.zeros((0, CFG.embed_dim)),
                             [np.zeros((3, 0), dtype=bool)])
        assert np.array_equal(out, x)

    def test_single_polyline_identity_projection(self):
        att = AgentMapAttention(CFG.embed_dim, CFG.attention_heads,
                                nn.seeded_rng(14))
        mha = att.mha
        mha.Wqkv.value[...] = np.eye(CFG.embed_dim)
        mha.Wo.W.value[...] = np.eye(CFG.embed_dim)
        for b in (mha.bq, mha.bv, mha.Wo.b):
            b.value[...] = 0.0
        x = nn.seeded_rng(15).normal(size=(3, CFG.embed_dim))
        value = nn.seeded_rng(16).normal(size=(1, CFG.embed_dim))
        out, _ = att.forward(x, value, [np.ones((3, 1), dtype=bool)])
        assert np.allclose(out, x + value, atol=1e-12)

    def test_polyline_permutation_invariance(self):
        rng = nn.seeded_rng(17)
        att = AgentMapAttention(CFG.embed_dim, CFG.attention_heads, rng)
        x = rng.normal(size=(2, CFG.embed_dim))
        m = rng.normal(size=(5, CFG.embed_dim))
        perm = np.array([4, 2, 0, 1, 3])
        vis = [np.ones((2, 5), dtype=bool)]
        assert np.allclose(att.forward(x, m, vis)[0],
                           att.forward(x, m[perm], vis)[0], atol=1e-12)

    def test_invisible_rows_pass_through(self):
        rng = nn.seeded_rng(18)
        att = AgentMapAttention(CFG.embed_dim, CFG.attention_heads, rng)
        x = rng.normal(size=(3, CFG.embed_dim))
        m = rng.normal(size=(2, CFG.embed_dim))
        vis = np.array([[True, True], [False, False], [True, False]])
        out, _ = att.forward(x, m, [vis])
        assert np.array_equal(out[1], x[1])
        assert not np.allclose(out[0], x[0])


def test_masks_from_scenario(local):
    mask = neighbor_mask(local, radius=1.0)
    assert np.array_equal(np.diag(mask), np.ones(len(local.agent_ids),
                                                 dtype=bool))
    vis = map_visibility(local, radius=CFG.context_radius_m)
    assert vis.shape == (len(local.agent_ids), len(local.map))
    assert vis.any()


def test_all_finite_over_generator_scenarios():
    rng = nn.seeded_rng(19)
    hist = HistoryEncoder(CFG.embed_dim, rng)
    menc = MapEncoder(CFG.map_pad, CFG.embed_dim, rng)
    aa = AgentAgentEncoder(CFG.embed_dim, CFG.attention_heads,
                           CFG.ff_mult, CFG.transformer_layers, rng)
    amap = AgentMapAttention(CFG.embed_dim, CFG.attention_heads, rng)
    for seed in range(20):
        scn = generate_scenario("crossing_conflict", 3, seed)
        local = local_frame(scn, "ego", CFG.context_radius_m)
        h, _ = hist.forward(history_feature_matrix(local))
        base, _ = aa.forward(h, [neighbor_mask(local, CFG.context_radius_m)])
        m, _ = menc.forward(map_feature_matrix(local.map, CFG.map_pad))
        out, _ = amap.forward(base, m,
                              [map_visibility(local, CFG.context_radius_m)])
        assert np.all(np.isfinite(h))
        assert np.all(np.isfinite(base))
        assert np.all(np.isfinite(out))


# --------------------------------------------------------------------------
# Array forms against the per-agent and per-state code they replaced
# --------------------------------------------------------------------------

class PerAgentReference:
    """The loop AgentAgentEncoder used to run: the blocks once per agent,
    over that agent's context set, keeping the row at the agent's own
    position."""

    def __init__(self, blocks):
        self.blocks = blocks
        self.runs = []

    def forward(self, embeds, mask):
        out = np.empty_like(embeds)
        self.runs = []
        for i in range(embeds.shape[0]):
            idx = np.flatnonzero(mask[i])
            x = embeds[idx]
            ctxs = []
            for block in self.blocks:
                x, ctx = block.forward(x)
                ctxs.append(ctx)
            pos = int(np.flatnonzero(idx == i)[0])
            out[i] = x[pos]
            self.runs.append((idx, pos, ctxs))
        return out

    def backward(self, g):
        dembeds = np.zeros_like(g)
        for i in reversed(range(len(self.runs))):
            idx, pos, ctxs = self.runs[i]
            gx = np.zeros((idx.size, g.shape[1]))
            gx[pos] = g[i]
            for block, ctx in zip(reversed(self.blocks), reversed(ctxs)):
                gx = block.backward(ctx, gx)
            dembeds[idx] += gx
        return dembeds


def as_states(scn, i, kin):
    """The rows of kin [n, 5] as AgentStates with agent i's attributes."""
    return [AgentState(*row, *scn.dims[i].tolist(), scn.agent_classes[i])
            for row in kin.tolist()]


def reference_history_features(scn):
    """The per-step loop history_feature_matrix used to run over
    relative_encoding."""
    rows = []
    ego_states = as_states(scn, scn.ego_index, scn.past[scn.ego_index])
    for i, past in enumerate(scn.past):
        onehot = np.zeros(len(AGENT_CLASSES))
        onehot[AGENT_CLASSES.index(scn.state(i).agent_class)] = 1.0
        steps = []
        for st, ego_st in zip(as_states(scn, i, past), ego_states):
            rel = relative_encoding(ego_st, st)
            steps.append(np.concatenate([
                [st.x / POS_SCALE, st.y / POS_SCALE, st.yaw / YAW_SCALE,
                 st.vx / VEL_SCALE, st.vy / VEL_SCALE],
                rel.as_array() / [1.0, 1.0, 1.0, 1.0, POS_SCALE],
                onehot,
            ]))
        rows.append(np.stack(steps))
    return np.stack(rows)


def _band_mask(n):
    i = np.arange(n)
    return np.abs(i[:, None] - i[None, :]) <= 1


def _real_mask():
    # radius 12 m splits this 8-agent scene into several context sets
    scn = local_frame(generate_scenario("straight", 8, seed=3), "ego")
    return neighbor_mask(scn, 12.0)


def _masked_agent_mask():
    mask = np.ones((4, 4), dtype=bool)
    mask[:3, 3] = False  # as in test_masked_agent_equals_deletion
    return mask


MASKS = {
    "one_set": np.ones((5, 5), dtype=bool),
    "two_sets_masked_agent": _masked_agent_mask(),
    "n_sets_band": _band_mask(5),
    "neighbor_mask": _real_mask(),
}


def _distinct_sets(mask):
    return len(np.unique(mask, axis=0))


def test_mask_cases_cover_one_two_and_n_sets():
    assert _distinct_sets(MASKS["one_set"]) == 1
    assert _distinct_sets(MASKS["two_sets_masked_agent"]) == 2
    assert _distinct_sets(MASKS["n_sets_band"]) == 5
    real = MASKS["neighbor_mask"]
    assert 1 < _distinct_sets(real) < len(real)


class TestGroupedSubgraphAttention:
    @pytest.mark.parametrize("name", sorted(MASKS))
    def test_matches_per_agent_loop(self, name):
        mask = MASKS[name]
        n = len(mask)
        rng = nn.seeded_rng(30)
        enc = AgentAgentEncoder(CFG.embed_dim, CFG.attention_heads,
                                CFG.ff_mult, CFG.transformer_layers, rng)
        x = rng.normal(size=(n, CFG.embed_dim))
        g = rng.normal(size=(n, CFG.embed_dim))

        ref = PerAgentReference(enc.blocks)
        enc.zero_grad()
        ref_out = ref.forward(x, mask)
        ref_dx = ref.backward(g)
        ref_grads = [p.grad.copy() for p in enc.params()]

        enc.zero_grad()
        out, ctx = enc.forward(x, [mask])
        dx = enc.backward(ctx, g)
        assert np.max(np.abs(out - ref_out)) <= 1e-12
        assert np.max(np.abs(dx - ref_dx)) <= 1e-12
        for p, ref_grad in zip(enc.params(), ref_grads):
            assert np.max(np.abs(p.grad - ref_grad)) <= 1e-12, p.name

    @pytest.mark.parametrize("name", sorted(MASKS))
    def test_blocks_run_once_per_distinct_set(self, name, monkeypatch):
        mask = MASKS[name]
        calls = []
        original = SelfAttentionBlock.forward

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(SelfAttentionBlock, "forward", counting)
        enc = AgentAgentEncoder(CFG.embed_dim, CFG.attention_heads,
                                CFG.ff_mult, CFG.transformer_layers,
                                nn.seeded_rng(31))
        x = nn.seeded_rng(32).normal(size=(len(mask), CFG.embed_dim))
        _, (agents, _, _, _, _) = enc.forward(x, [mask])
        # each block runs once, over a stack of one slot per distinct set
        assert len(calls) == CFG.transformer_layers
        assert len(agents) == _distinct_sets(mask)

    def test_grad_check_with_several_sets(self):
        small = ModelConfig(embed_dim=4, attention_heads=2)
        rng = nn.seeded_rng(33)
        enc = AgentAgentEncoder(small.embed_dim, small.attention_heads,
                                small.ff_mult, small.transformer_layers, rng)
        mask = MASKS["two_sets_masked_agent"]
        x = nn.Parameter("x", rng.normal(size=(4, small.embed_dim)))
        w = rng.normal(size=(4, small.embed_dim))

        def loss():
            out, ctx = enc.forward(x.value, [mask])
            x.grad += enc.backward(ctx, w)
            return float((out * w).sum())

        assert nn.grad_check(loss, enc.params() + [x]) < 1e-5

    def test_blocks_group_as_the_whole_union_does(self):
        # a union of every mask case, grouped block by block, runs the same
        # sets in the same order as grouping the whole union mask, so its
        # outputs and gradients are bit-identical
        masks = [MASKS[name] for name in sorted(MASKS)]
        bounds = np.cumsum([0] + [len(m) for m in masks])
        slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        union = np.zeros((bounds[-1], bounds[-1]), dtype=bool)
        for m, rows in zip(masks, slices):
            union[rows, rows] = m
        rng = nn.seeded_rng(35)
        enc = AgentAgentEncoder(CFG.embed_dim, CFG.attention_heads,
                                CFG.ff_mult, CFG.transformer_layers, rng)
        x = rng.normal(size=(len(union), CFG.embed_dim))
        g = rng.normal(size=(len(union), CFG.embed_dim))
        results = []
        for blocks in ([union], masks):
            enc.zero_grad()
            out, ctx = enc.forward(x, blocks)
            dx = enc.backward(ctx, g)
            agents, filled, members, slots, _ = ctx
            results.append([out, dx] + [p.grad.copy() for p in enc.params()]
                           + [agents, filled, members, slots])
        whole, per_block = results
        assert len(whole) == len(per_block)
        for a, b in zip(whole, per_block):
            assert np.array_equal(a, b)

    def test_a_full_block_is_one_set_without_a_sort(self, monkeypatch):
        def no_sort(*args, **kwargs):
            raise AssertionError("np.unique called")

        monkeypatch.setattr(np, "unique", no_sort)
        enc = AgentAgentEncoder(CFG.embed_dim, CFG.attention_heads,
                                CFG.ff_mult, CFG.transformer_layers,
                                nn.seeded_rng(36))
        x = nn.seeded_rng(37).normal(size=(5, CFG.embed_dim))
        _, (agents, filled, _, _, _) = enc.forward(x, [MASKS["one_set"]])
        assert agents.shape == (1, 5) and filled.all()

    def test_agent_outside_its_own_set_raises(self):
        enc = AgentAgentEncoder(CFG.embed_dim, CFG.attention_heads,
                                CFG.ff_mult, CFG.transformer_layers,
                                nn.seeded_rng(34))
        x = np.zeros((3, CFG.embed_dim))
        mask = np.ones((3, 3), dtype=bool)
        mask[1, 1] = False
        with pytest.raises(ValueError, match="agent 1 is not in its own"):
            enc.forward(x, [mask])


def _degenerate_scene(ego_index=0):
    """A 4-agent scene where agent 1 stands still over its whole history,
    the ego crawls below SPEED_EPS at step 0, and agent 2 sits on the ego's
    position at every other step."""
    scn = generate_scenario("straight", 4, seed=21)
    past = scn.past.copy()
    past[0, 0, 3:] = (1e-7, 0.0)
    past[1, :, 3:] = 0.0
    past[2, ::2, :2] = past[0, ::2, :2]
    return replace(scn, past=past, ego_index=ego_index)


def _kinematics(states):
    return np.array([(s.x, s.y, s.yaw, s.vx, s.vy) for s in states])


class TestArrayFrameAndFeatures:
    @pytest.mark.parametrize("template,n,seed", [
        ("crossing_conflict", 8, 5), ("left_turn", 16, 6), ("merge", 3, 7)])
    def test_local_frame_matches_transform_state(self, template, n, seed):
        scn = generate_scenario(template, n, seed)
        self._check_local_frame(scn, "ego")

    def test_local_frame_degenerate_states(self):
        scn = _degenerate_scene()
        for agent_id in scn.agent_ids:
            self._check_local_frame(scn, agent_id)

    @staticmethod
    def _check_local_frame(scn, agent_id):
        frame = pose_frame(scn, agent_id)
        local = local_frame(scn, agent_id)
        for j, aid in enumerate(local.agent_ids):
            i = scn.row(aid)
            for got, orig in ((local.past[j], scn.past[i]),
                              (local.future[j], scn.future[i])):
                want = [transform_state(s, frame.origin, frame.angle)
                        for s in as_states(scn, i, orig)]
                assert len(got) == len(want)
                assert np.max(np.abs(got - _kinematics(want))) <= 1e-12
            assert (*local.dims[j].tolist(), local.agent_classes[j]) == \
                (*scn.dims[i].tolist(), scn.agent_classes[i])

    @pytest.mark.parametrize("ego_index", [0, 2])
    def test_history_features_match_relative_encoding(self, ego_index):
        scn = _degenerate_scene(ego_index)
        for s in (scn, local_frame(scn, scn.ego_id, radius=1e9)):
            got = history_feature_matrix(s)
            want = reference_history_features(s)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_history_features_generated_scenes(self):
        for seed, template in enumerate(("straight", "right_turn",
                                         "crossing_conflict")):
            local = local_frame(generate_scenario(template, 8, seed), "ego")
            assert np.max(np.abs(history_feature_matrix(local)
                                 - reference_history_features(local))
                          ) <= 1e-12


# --------------------------------------------------------------------------
# The rewritten array paths against the forms they replaced, bit for bit
# --------------------------------------------------------------------------

def stacked_history_features(scn):
    """history_feature_matrix as it was before it filled one array: the
    directions by np.where over np.stack, the encoding by np.stack and the
    rows by np.concatenate."""
    kin = scn.past
    n, steps = kin.shape[:2]
    speed = norm2(kin[..., 3:5])
    stopped = speed < SPEED_EPS
    u = np.where(stopped[..., None],
                 np.stack([np.cos(kin[..., 2]), np.sin(kin[..., 2])], axis=-1),
                 kin[..., 3:5] / np.where(stopped, 1.0, speed)[..., None])
    u_ego = u[scn.ego_index]
    d = kin[..., :2] - kin[scn.ego_index, :, :2]
    dist = norm2(d)
    near = dist < DIST_EPS
    dn = d / np.where(near, 1.0, dist)[..., None]
    rel = np.stack([cross2(u_ego, u), dot2(u_ego, u),
                    np.where(near, 0.0, cross2(dn, u)),
                    np.where(near, 1.0, dot2(dn, u)),
                    dist / POS_SCALE], axis=-1)
    classes = [AGENT_CLASSES.index(c) for c in scn.agent_classes]
    onehot = np.broadcast_to(np.eye(len(AGENT_CLASSES))[classes][:, None],
                             (n, steps, len(AGENT_CLASSES)))
    return np.concatenate([kin[..., :5] / KINEMATIC_SCALE, rel, onehot],
                          axis=-1)


@pytest.mark.parametrize("ego_index", [0, 1])
def test_history_features_of_a_stopped_ego_and_victim(ego_index):
    # the ego stands still at steps 3 to 5 and crawls below SPEED_EPS at
    # step 0; agent 1 stands still over its whole history; agent 2 sits on
    # the ego at every other step
    scn = _degenerate_scene(ego_index)
    past = scn.past.copy()
    past[0, 3:6, 3:] = 0.0
    scn = replace(scn, past=past)
    for s in (scn, local_frame(scn, scn.ego_id, radius=1e9)):
        got = history_feature_matrix(s)
        assert np.array_equal(got, stacked_history_features(s))
        # a stopped state moves along its yaw, as AgentState.direction has
        # it (math.cos against np.cos, so to within an ulp)
        e = s.ego_index
        for i in range(len(s.agent_ids)):
            for t in range(s.past.shape[1]):
                u_ego = s.state(e, t).direction()
                u = s.state(i, t).direction()
                np.testing.assert_allclose(
                    got[i, t, 5:7], [cross2(u_ego, u), dot2(u_ego, u)],
                    rtol=0, atol=4e-16)


def norm2_visibility(scn, radius):
    """map_visibility as it was before it worked on x and y arrays: norm2
    over [N, P, W, 2] offsets, the padding set to inf by np.where."""
    pos = scn.past[:, -1, :2]
    d = norm2(pos[:, None, None, :] - scn.map.waypoints[None])
    d = np.where(scn.map.valid, d, np.inf)
    return d.min(axis=-1, initial=np.inf) <= radius


@pytest.mark.parametrize("template", TEMPLATES)
@pytest.mark.parametrize("n", [3, 8, 16])
def test_map_visibility_equals_the_norm2_form(template, n):
    scn = generate_scenario(template, n, seed=n)
    for s in (scn, local_frame(scn, "ego")):
        for radius in (5.0, 20.0, 50.0):
            got = map_visibility(s, radius)
            assert got.dtype == bool
            assert np.array_equal(got, norm2_visibility(s, radius))


def test_map_visibility_of_an_empty_map_and_at_the_radius():
    scn = generate_scenario("merge", 3, seed=2)
    empty = replace(scn, map=RoadMap.padded([], []))
    assert map_visibility(empty, 50.0).shape == (3, 0)
    # a waypoint exactly 50 m from agent 0 (a 3-4-5 triangle) is within the
    # radius; one a little further is not
    x, y = scn.past[0, -1, :2]
    road = RoadMap.padded([np.array([[x + 30.0, y + 40.0], [x + 90.0, y]]),
                           np.array([[x + 30.0, y + 40.000001],
                                     [x + 99.0, y + 99.0]])],
                          ["lane_center", "road_boundary"])
    s = replace(scn, map=road)
    offsets = s.map.waypoints[:, 0] - s.past[0, -1, :2]
    assert norm2(offsets).tolist()[0] == 50.0 < norm2(offsets).tolist()[1]
    got = map_visibility(s, 50.0)
    assert got[0].tolist() == [True, False]
    assert np.array_equal(got, norm2_visibility(s, 50.0))
