"""The one-pass minibatch against the per-scene and per-set forms it
replaced: intention labels, the intention, prediction and mode losses, the
stage-2 risk loss and gradient over a union of scenes, and attention over a
stack of padded sets."""

from dataclasses import replace

import numpy as np
import pytest

from riskcast import nn
from riskcast.geometry import norm2, wrap_angle
from riskcast.intention import (LATERAL_CLASSES, LONGITUDINAL_CLASSES,
                                SPEED_CHANGE_THRESHOLD, YAW_CHANGE_THRESHOLD,
                                label_indices)
from riskcast.interaction import AgentAgentEncoder, SelfAttentionBlock
from riskcast.risk import RiskConfig, risk_loss_and_grad
from riskcast.scene import RoadMap, generate_scenario
from riskcast.training import intention_loss, prediction_loss

# --------------------------------------------------------------------------
# Labels and losses
# --------------------------------------------------------------------------


def reference_labels(future):
    """The per-agent labelling of one future [T, 5], Python sums in step
    order."""
    with np.errstate(over="ignore"):
        speeds = norm2(future[:, 3:5]).tolist()
    turns = np.cumsum(wrap_angle(np.diff(future[:, 2])))
    net_yaw = turns[-1] if len(turns) else 0.0
    lateral = "LT" if net_yaw > YAW_CHANGE_THRESHOLD else \
        "RT" if net_yaw < -YAW_CHANGE_THRESHOLD else "ST"
    w = max(len(future) // 5, 1)
    dv = sum(speeds[-w:]) / w - sum(speeds[:w]) / w
    longitudinal = "ACC" if dv > SPEED_CHANGE_THRESHOLD else \
        "DEC" if dv < -SPEED_CHANGE_THRESHOLD else "CON"
    return (LATERAL_CLASSES.index(lateral),
            LONGITUDINAL_CLASSES.index(longitudinal))


def reference_intention_loss(lat, lon, labels):
    """The per-agent loop of one scene's intention loss."""
    n = len(labels)
    loss = 0.0
    dlat, dlon = np.zeros_like(lat), np.zeros_like(lon)
    for i, (la, lo) in enumerate(labels):
        loss += float(-np.log(max(lat[i, la], nn.PROB_FLOOR)))
        loss += float(-np.log(max(lon[i, lo], nn.PROB_FLOOR)))
        for d, p, k in ((dlat, lat, la), (dlon, lon, lo)):
            if p[i, k] > nn.PROB_FLOOR:
                d[i, k] = -1.0 / p[i, k] / n
    return loss / n, dlat, dlon


def reference_prediction_loss(trajs, truth):
    """The per-(mode, agent) smooth-L1 loop of one scene."""
    losses = np.array([sum(nn.smooth_l1(trajs[k, i], truth[i])
                           for i in range(trajs.shape[1]))
                       for k in range(trajs.shape[0])])
    k_star = int(np.argmin(losses))
    grad = np.zeros_like(trajs)
    for i in range(trajs.shape[1]):
        grad[k_star, i] = nn.smooth_l1_grad(trajs[k_star, i], truth[i])
    return float(losses[k_star]), k_star, grad


def union_slices(sizes):
    bounds = np.cumsum([0] + list(sizes))
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


# scene sizes of a union: one agent, a pairwise-sum length (8 and more) and
# small ones
SIZES = [3, 1, 9, 5, 16, 2]


def test_labels_of_a_scene_match_the_per_agent_rule():
    rng = nn.seeded_rng(40)
    for template, n, seed in [("left_turn", 8, 1), ("right_turn", 5, 2),
                              ("merge", 16, 3), ("straight", 1, 4)]:
        future = generate_scenario(template, n, seed).future
        assert label_indices(future).tolist() == \
            [list(reference_labels(f)) for f in future]
    # speed changes and turns around the thresholds, one step, overflow
    seen = set()
    for steps in (1, 2, 5, 12, 50):
        future = rng.normal(scale=[1.0, 1.0, 0.2, 1.0, 1.0],
                            size=(40, steps, 5))
        future[:5, :, 3] = 1e300
        future[5:10, :, 3:5] *= 1e-3
        got = label_indices(future)
        assert got.tolist() == [list(reference_labels(f)) for f in future]
        seen.update(tuple(r) for r in got.tolist())
    assert len(seen) >= 8


def test_intention_loss_of_a_union_is_each_scenes_bit_for_bit():
    rng = nn.seeded_rng(41)
    n = sum(SIZES)
    lat = nn.softmax(rng.normal(scale=3.0, size=(n, 3)))
    lon = nn.softmax(rng.normal(scale=3.0, size=(n, 3)))
    lat[0, 1] = 0.0   # clamped at PROB_FLOOR, zero gradient
    labels = rng.integers(0, 3, size=(n, 2))
    labels[0, 0] = 1
    losses, dlat, dlon = intention_loss(lat, lon, labels,
                                        union_slices(SIZES))
    for b, rows in enumerate(union_slices(SIZES)):
        want, want_lat, want_lon = reference_intention_loss(
            lat[rows], lon[rows], labels[rows])
        assert losses[b] == want
        assert dlat[rows].tobytes() == want_lat.tobytes()
        assert dlon[rows].tobytes() == want_lon.tobytes()


def test_prediction_loss_of_a_union_is_each_scenes_bit_for_bit():
    rng = nn.seeded_rng(42)
    n = sum(SIZES)
    truth = rng.normal(scale=3.0, size=(n, 7, 2))
    trajs = truth + rng.normal(scale=1.0, size=(4, n, 7, 2))
    losses, winners, grad = prediction_loss(trajs, truth,
                                            union_slices(SIZES))
    for b, rows in enumerate(union_slices(SIZES)):
        want, want_k, want_grad = reference_prediction_loss(trajs[:, rows],
                                                            truth[rows])
        assert (losses[b], winners[b]) == (want, want_k)
        assert grad[:, rows].tobytes() == want_grad.tobytes()
    assert len(set(winners.tolist())) > 1


def test_mode_cross_entropy_gradient_is_each_rows():
    rng = nn.seeded_rng(43)
    probs = nn.softmax(rng.normal(size=(6, 4)))
    probs[2, 1] = 1e-13
    targets = np.array([0, 3, 1, 2, 2, 0])
    got = nn.cross_entropy_grad(probs, targets)
    for b in range(6):
        want = np.zeros(4)
        if probs[b, targets[b]] > nn.PROB_FLOOR:
            want[targets[b]] = -1.0 / probs[b, targets[b]]
        assert got[b].tobytes() == want.tobytes()
        assert nn.cross_entropy(probs, targets)[b] == \
            nn.cross_entropy(probs[b], targets[b])


# --------------------------------------------------------------------------
# The risk term over a union
# --------------------------------------------------------------------------

NO_ROAD = RoadMap.padded([], [])


def risk_scenes():
    """Scenes of every kind a union must keep apart: (name, scene)."""
    near = generate_scenario("crossing_conflict", 4, seed=6, H=4, T=8)
    merge = generate_scenario("merge", 8, seed=1, H=4, T=8)
    far = generate_scenario("straight", 3, seed=2, H=4, T=8)
    # no live row: the agents far apart, and no road boundary
    past = far.past.copy()
    future = far.future.copy()
    for i in range(len(past)):
        past[i, :, :2] += 500.0 * i
        future[i, :, :2] += 500.0 * i
    last = merge.take([i for i in range(8) if i != merge.ego_index]
                      + [merge.ego_index])
    return [
        ("crossing", near),
        ("no road boundary", replace(merge, map=NO_ROAD,
                                     scenario_id="no-road")),
        ("one agent", merge.take([merge.ego_index])),
        ("no live row", replace(far, past=past, future=future, map=NO_ROAD,
                                scenario_id="far")),
        ("ego in the last row", last),
    ]


def risk_modes(scenes, seed):
    """Three modes of every scene's agents, the truth and two moved off it,
    and a mode per scene."""
    rng = np.random.default_rng(seed)
    truth = np.concatenate([s.future[:, :, :2] for s in scenes])
    trajs = np.stack([truth, truth + rng.normal(scale=0.8, size=truth.shape),
                      truth + rng.normal(scale=2.0, size=truth.shape)])
    return trajs, rng.integers(0, 3, size=len(scenes))


def test_risk_of_a_union_is_each_scenes_batch_of_one():
    named = risk_scenes()
    scenes = [s for _, s in named]
    assert scenes[-1].ego_index == len(scenes[-1].agent_ids) - 1
    trajs, modes = risk_modes(scenes, 0)
    cfg = RiskConfig()
    losses, grad = risk_loss_and_grad(trajs, scenes, modes, cfg)
    singles = []
    for b, rows in enumerate(union_slices([len(s.agent_ids)
                                           for s in scenes])):
        loss, g = risk_loss_and_grad(trajs[:, rows], [scenes[b]],
                                     modes[b:b + 1], cfg)
        singles.append((loss[0], g))
        assert abs(losses[b] - loss[0]) <= 1e-12 * max(1.0, abs(loss[0]))
        assert np.linalg.norm(grad[rows] - g) <= 1e-12 * np.linalg.norm(g)
    by_name = dict(zip([name for name, _ in named], singles))
    # the crossing has a victim risk, the one-agent scene only its
    # boundary (w_s / 2 of it), the far scene none
    assert by_name["crossing"][0] > 0.0
    assert np.abs(by_name["crossing"][1]).max() > 0.0
    assert by_name["one agent"][0] > 0.0
    assert by_name["no live row"][0] == 0.0
    assert not by_name["no live row"][1].any()


def test_risk_rows_do_not_change_when_scenes_are_added_dropped_or_moved():
    scenes = [s for _, s in risk_scenes()]
    trajs, modes = risk_modes(scenes, 1)
    cfg = RiskConfig()
    slices = union_slices([len(s.agent_ids) for s in scenes])
    losses, grad = risk_loss_and_grad(trajs, scenes, modes, cfg)
    for order in ([4, 2, 0, 3, 1], [1, 3], [0, 2, 4, 1, 3, 0]):
        rows = np.concatenate([np.arange(slices[b].start, slices[b].stop)
                               for b in order])
        got, g = risk_loss_and_grad(trajs[:, rows],
                                    [scenes[b] for b in order],
                                    modes[order], cfg)
        for i, b in enumerate(order):
            assert abs(got[i] - losses[b]) <= 1e-12 * max(1.0, losses[b])
        assert np.linalg.norm(g - grad[rows]) <= \
            1e-12 * np.linalg.norm(grad[rows])


def test_non_finite_risk_names_its_scene():
    scenes = [s for _, s in risk_scenes()]
    trajs, modes = risk_modes(scenes, 2)
    start = len(scenes[0].agent_ids)
    trajs[:, start, 3] = np.nan
    with pytest.raises(ValueError, match="^scenario 'no-road': the risk"):
        risk_loss_and_grad(trajs, scenes, modes, RiskConfig())


# --------------------------------------------------------------------------
# Attention over a stack of padded sets
# --------------------------------------------------------------------------

DIM, HEADS = 8, 2


def attention_block():
    return SelfAttentionBlock(DIM, HEADS, 2, nn.seeded_rng(50), "b")


def test_a_padded_stack_runs_each_set_as_alone():
    """Sets of sizes 1 to 6 in one stack, padded to 6 with masked keys,
    against each set run alone: outputs, input gradients and parameter
    gradients within 1e-12."""
    block = attention_block()
    rng = nn.seeded_rng(51)
    sizes = [1, 2, 3, 4, 5, 6]
    x = rng.normal(size=(len(sizes), 6, DIM))
    g = rng.normal(size=x.shape)
    filled = np.arange(6) < np.array(sizes)[:, None]
    g[~filled] = 0.0
    mask = np.broadcast_to(filled[:, None, :], (len(sizes), 6, 6))

    block.zero_grad()
    out, ctx = block.forward(x, mask)
    dx = block.backward(ctx, g)
    stacked = [p.grad.copy() for p in block.params()]

    block.zero_grad()
    for s, n in enumerate(sizes):
        alone, actx = block.forward(x[s, :n])
        assert np.abs(out[s, :n] - alone).max() <= 1e-12
        assert np.abs(dx[s, :n] - block.backward(actx, g[s, :n])).max() \
            <= 1e-12
    assert not dx[~filled].any()
    for p, want in zip(block.params(), stacked):
        assert np.abs(p.grad - want).max() <= 1e-12 * max(
            1.0, np.abs(want).max()), p.name


def test_a_set_of_one():
    block = attention_block()
    x = nn.seeded_rng(52).normal(size=(1, 1, DIM))
    out, _ = block.forward(x, np.ones((1, 1, 1), dtype=bool))
    alone, _ = block.forward(x[0])
    assert out[0].tobytes() == alone.tobytes()


def test_a_stack_of_one_unpadded_set_computes_the_sets_bits():
    block = attention_block()
    rng = nn.seeded_rng(53)
    x = rng.normal(size=(5, DIM))
    g = rng.normal(size=x.shape)
    results = []
    for rows, mask in ((x, None), (x[None], None),
                       (x[None], np.ones((1, 5, 5), dtype=bool))):
        block.zero_grad()
        out, ctx = block.forward(rows, mask)
        dx = block.backward(ctx, g.reshape(rows.shape))
        results.append([out.reshape(x.shape), dx.reshape(x.shape)]
                       + [p.grad.copy() for p in block.params()])
    for got in results[1:]:
        for a, b in zip(got, results[0]):
            assert a.tobytes() == b.tobytes()


def test_one_scene_of_one_set_is_its_blocks_bit_for_bit():
    enc = AgentAgentEncoder(DIM, HEADS, 2, 2, nn.seeded_rng(54))
    rng = nn.seeded_rng(55)
    x = rng.normal(size=(6, DIM))
    g = rng.normal(size=x.shape)
    enc.zero_grad()
    out, ctx = enc.forward(x, [np.ones((6, 6), dtype=bool)])
    dx = enc.backward(ctx, g)
    got = [out, dx] + [p.grad.copy() for p in enc.params()]

    enc.zero_grad()
    y, ctxs = x, []
    for block in enc.blocks:
        y, bctx = block.forward(y)
        ctxs.append(bctx)
    gy = g
    for block, bctx in zip(reversed(enc.blocks), reversed(ctxs)):
        gy = block.backward(bctx, gy)
    want = [y, gy] + [p.grad.copy() for p in enc.params()]
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
