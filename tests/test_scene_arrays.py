"""The array-backed scene core against the per-state and per-polyline code
it replaced, and golden hashes of generated scenes.

The golden hashes are sha256 digests of ``dump_scenario(generate_scenario(
template, n, seed))``, so a change to the data model cannot silently change
generated or benchmark scenes. They were recorded before kinematics and map
polylines became arrays, and re-recorded when ``rotate2`` and the array
``wrap_angle`` became the one rotation and angle wrap, which moved generated
scenes in their last bits (every entry within 1e-12 relative)."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from riskcast.geometry import (AgentState, relative_encoding, rotate2,
                               transform_state)
from riskcast.interaction import (POS_SCALE, history_feature_matrix,
                                  map_feature_matrix, map_visibility)
from riskcast.model import JointPredictor, ModelConfig
from riskcast.risk import _clearance
from riskcast.scene import (AGENT_FIELDS, POLYLINE_KINDS, RoadMap,
                            ScenarioError, _agent_arrays, dump_scenario,
                            generate_scenario, load_scenario, local_frame,
                            pose_frame)

GOLDEN = {
    ("straight", 3, 11):
        "3da5ced07e29585d6b44309b7bea327d93f9a6b69ba7a0507d89085ff9adaf24",
    ("straight", 3, 2027):
        "4ff10a4548aec75a8f18a2a1139c2668d5a4c8b3754c6b92abbcbec1c2794a66",
    ("straight", 8, 11):
        "37d3ac2fbfd441f6d5d85dd90cf791d8a29ccd27239e452b99eec5a90ec6fcbc",
    ("straight", 8, 2027):
        "1d7b3c3a2ce1dd1b8200c78eef021f1d356506014bb9b83e21eeba6766cef8e9",
    ("straight", 16, 11):
        "0b055269e708ee6a662c48861c529ff67d5cbec4d2ef8793ec0acef5b3efe75e",
    ("straight", 16, 2027):
        "35fc7a8f3ebbf366da0a5720c9796a62f6e89ed807e0399a50958ad4e0d5ba66",
    ("left_turn", 3, 11):
        "0fb661553162d0348c3901cfdbc482f12fa4dbdc22df2eeebc6f3bd74d754f6f",
    ("left_turn", 3, 2027):
        "2094698da2e90d1603d1f1f229bc6265ea289d8814596b78b9c3f080d9370ea6",
    ("left_turn", 8, 11):
        "dc162d403697f23fc974445cd465c9dc0a657fec196a4fc3a7c8184aa8fc543d",
    ("left_turn", 8, 2027):
        "5f66635dc5176c90ddba2719548dbd92c9894e30ed403d7319d27be2c85ad572",
    ("left_turn", 16, 11):
        "52bcc7f17649b17665bde68347f9727aaeda6af68e9b1d44327e3e6b02e33735",
    ("left_turn", 16, 2027):
        "c1e3d7b6527599df4e250ea161276873fd29805fd4780af1f368dc6994496eda",
    ("right_turn", 3, 11):
        "2f87dc7dddc2637b1cb6b858058eedec9173a19ef4e635938ad954666af42467",
    ("right_turn", 3, 2027):
        "397923ec6a9f3cda472170b5a553fc79220e34845a21a34eeb40cec9a5d7e86a",
    ("right_turn", 8, 11):
        "f18559fbc4270ad439ad0dfd3aea892d5e9dc12e7447ec73839c9f01151fc409",
    ("right_turn", 8, 2027):
        "ac3d90a5b34e71206b4eacb8b0a82a8a1356355c342efe14217222106c7f42fe",
    ("right_turn", 16, 11):
        "e12b66a11e9ee37618dea11e2fb705c1efa8232fd242445d15d568682a8133f8",
    ("right_turn", 16, 2027):
        "8c61fc8583097cf67c285cef97cc4621bc8ed9d56eeb4a6b2851fa0ac0919120",
    ("merge", 3, 11):
        "3d9d6f739c719ee39342ba7bf1046bfc02961288487df92381fbb8393e15017b",
    ("merge", 3, 2027):
        "686f64e5a14b40f7c48ad8f1bccbfb796497a88bc7986d10f37212e6afb87d8b",
    ("merge", 8, 11):
        "9c16e524da99f03d8335e7a6264e2b3ddb382c87b95ddc2da5473953f769851a",
    ("merge", 8, 2027):
        "6300883723d7daa178eb2373544f0a07443b1c397e36de157933b2db675a38c3",
    ("merge", 16, 11):
        "1fa147e5e4d17daabb28a01f2db49c2d0dd275abefe52bd58e9c692428e450d4",
    ("merge", 16, 2027):
        "996cf4996e844e5d4adc7f626cfae06bad90258e0f80b5dcb52955d8f17a2631",
    ("crossing_conflict", 3, 11):
        "f2e7db560a5f5f8bdb7a5280bb0b61b3a799c712e4b9594def0bb53b2f7a9728",
    ("crossing_conflict", 3, 2027):
        "fce7225ca5235c76a211a2fe5e6e0d43ab72c1cfd31d5baa6a1dc985a19f022b",
    ("crossing_conflict", 8, 11):
        "5175d5249b4189b385fe69ffe9d6827263a9e4a62911ff3d3caa1bf4e08bf1d2",
    ("crossing_conflict", 8, 2027):
        "c180537510053f59cb635b2d0b128b1b6110fe215d26a6af2294898ff035e4ce",
    ("crossing_conflict", 16, 11):
        "886d69463cf698789351a779272f13531ee31d72bd9beb48b7921f5ab9871177",
    ("crossing_conflict", 16, 2027):
        "371a365e2a650f40839de388c195ce05fd8a2e2d6cac4c9c0c2d547893fe27f0",
}


@pytest.mark.parametrize("key", GOLDEN, ids=lambda k: f"{k[0]}-{k[1]}-{k[2]}")
def test_generated_scene_bytes_unchanged(key):
    text = dump_scenario(generate_scenario(*key))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[key]


# --------------------------------------------------------------------------
# Per-state and per-polyline references
# --------------------------------------------------------------------------

def as_states(scn, i, kin):
    """The rows of kin [n, 5] as AgentStates with agent i's attributes."""
    return [AgentState(*row, *scn.dims[i].tolist(), scn.agent_classes[i])
            for row in kin.tolist()]


def kinematics(states):
    return np.array([(s.x, s.y, s.yaw, s.vx, s.vy) for s in states])


def loop_visibility(scn, radius):
    pos = np.array([scn.state(i).position for i in range(len(scn.agent_ids))])
    vis = np.zeros((len(scn.agent_ids), len(scn.map)), dtype=bool)
    for m, n in enumerate(scn.map.counts):
        waypoints = scn.map.waypoints[m, :n]
        d = np.linalg.norm(pos[:, None, :] - waypoints[None, :, :], axis=-1)
        vis[:, m] = d.min(axis=1) <= radius
    return vis


def loop_map_features(road, pad):
    feats = []
    for waypoints, count, k in zip(road.waypoints, road.counts, road.kinds):
        slots = np.zeros((pad, 3))
        n = min(count, pad)
        slots[:n, :2] = waypoints[:n] / POS_SCALE
        slots[:n, 2] = 1.0
        kind = np.zeros(len(POLYLINE_KINDS))
        kind[k] = 1.0
        feats.append(np.concatenate([slots.reshape(-1), kind]))
    return np.stack(feats) if feats else np.zeros((0, pad * 3 + 3))


def loop_clearance(points, polylines):
    """The nearest-segment search over polylines of [n, 2] waypoints."""
    a = np.concatenate([w[:-1] for w in polylines])
    ab = np.concatenate([w[1:] for w in polylines]) - a
    denom = (ab * ab).sum(axis=-1)
    rel = points[..., None, :] - a
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(denom > 0.0,
                     np.clip((rel * ab).sum(axis=-1) / denom, 0.0, 1.0), 0.0)
    closest = a + s[..., None] * ab
    dist = np.linalg.norm(points[..., None, :] - closest, axis=-1)
    j = dist.argmin(axis=-1)[..., None]
    return (np.take_along_axis(dist, j, axis=-1)[..., 0],
            np.take_along_axis(closest, j[..., None], axis=-2)[..., 0, :])


def loop_local_map(scn, agent_id, radius):
    """The waypoints [n, 2] and kinds of the polylines within radius, in
    the agent's frame."""
    frame = pose_frame(scn, agent_id)
    kept = [(frame.to_local(w[:n]), k) for w, n, k in zip(
        scn.map.waypoints, scn.map.counts, scn.map.kinds)
        if np.linalg.norm(w[:n] - frame.origin, axis=1).min() <= radius]
    return [w for w, _ in kept], [k for _, k in kept]


def same_polylines(road, waypoints, kinds):
    """Whether road holds these polylines, [n, 2] waypoints and kind
    indices, in this order."""
    return (road.kinds.tolist() == list(kinds)
            and road.counts.tolist() == [len(w) for w in waypoints]
            and all(np.array_equal(row[:len(w)], w)
                    for row, w in zip(road.waypoints, waypoints)))


def degenerate_scene():
    """Agent 1 stands still, the ego crawls below SPEED_EPS at step 0,
    agent 2 sits on the ego's position at every other step, and agent 3
    has no future."""
    scn = generate_scenario("merge", 5, seed=8)
    past, future = scn.past.copy(), scn.future.copy()
    past[0, 0, 3:] = (1e-7, 0.0)
    past[1, :, 3:] = 0.0
    past[2, ::2, :2] = past[0, ::2, :2]
    future[3] = 0.0
    has_future = scn.has_future.copy()
    has_future[3] = False
    return replace(scn, past=past, future=future, has_future=has_future)


def agent_rows(scn):
    """The scene's agents as per-row (id, class, length, width, mass, past,
    future or None) tuples of plain lists, the input of _agent_arrays."""
    return [(aid, cls, *dims, past, future if has else None)
            for aid, cls, dims, past, future, has in zip(
                scn.agent_ids.tolist(), scn.agent_classes.tolist(),
                scn.dims.tolist(), scn.past.tolist(), scn.future.tolist(),
                scn.has_future.tolist())]


def rebuilt(scn, agents):
    """The scene with other agents, given as agent_rows tuples."""
    return replace(scn, **dict(zip(AGENT_FIELDS, _agent_arrays(
        agents, scn.horizon_future))))


SCENES = [generate_scenario(t, n, seed) for t, n, seed in [
    ("straight", 3, 1), ("left_turn", 8, 2), ("right_turn", 16, 3),
    ("merge", 8, 4), ("crossing_conflict", 16, 5)]] + [degenerate_scene()]


# --------------------------------------------------------------------------
# Agents
# --------------------------------------------------------------------------

@pytest.mark.parametrize("scn", SCENES, ids=lambda s: s.scenario_id)
@pytest.mark.parametrize("radius", [1e9, 50.0, 20.0])
def test_local_frame_matches_transform_state(scn, radius):
    for agent_id in scn.agent_ids.tolist()[:4]:
        frame = pose_frame(scn, agent_id)
        local = local_frame(scn, agent_id, radius)
        kept = [aid for i, aid in enumerate(scn.agent_ids)
                if np.linalg.norm(scn.state(i).position - frame.origin)
                <= radius]
        assert local.agent_ids.tolist() == kept
        assert local.ego_id == agent_id
        for j, aid in enumerate(local.agent_ids):
            i = scn.row(aid)
            assert (local.agent_classes[j], *local.dims[j].tolist()) == \
                (scn.agent_classes[i], *scn.dims[i].tolist())
            assert local.has_future[j] == scn.has_future[i]
            for got, orig, has in ((local.past[j], scn.past[i], True),
                                   (local.future[j], scn.future[i],
                                    scn.has_future[i])):
                if not has:
                    continue
                want = kinematics([
                    transform_state(s, frame.origin, frame.angle)
                    for s in as_states(scn, i, orig)])
                assert np.array_equal(got, want)


@pytest.mark.parametrize("scn", SCENES, ids=lambda s: s.scenario_id)
def test_history_features_match_relative_encoding(scn):
    for s in (scn, local_frame(scn, "ego", radius=1e9)):
        got = history_feature_matrix(s)
        ego = as_states(s, s.ego_index, s.past[s.ego_index])
        for i, past in enumerate(s.past):
            for t, (st, ego_st) in enumerate(zip(as_states(s, i, past),
                                                 ego)):
                rel = relative_encoding(ego_st, st).as_array()
                assert np.array_equal(got[i, t, 5:10],
                                      rel / [1, 1, 1, 1, POS_SCALE])


@pytest.mark.parametrize("scn", SCENES, ids=lambda s: s.scenario_id)
def test_row_selection_matches_per_agent_selection(scn):
    agents, n = agent_rows(scn), len(scn.agent_ids)
    assert agents == [agents[scn.row(a[0])] for a in agents]
    others = [i for i in range(n) if i != scn.ego_index]
    perm = np.random.default_rng(n).permutation(others).tolist()
    for rows in (list(range(n)), perm[::2] + [scn.ego_index],
                 [scn.ego_index] + perm, list(reversed(range(n)))):
        taken = scn.take(rows)
        assert agent_rows(taken) == [agents[i] for i in rows]
        assert taken.ego_id == scn.ego_id
        assert taken == rebuilt(replace(scn, ego_index=rows.index(
            scn.ego_index)), [agents[i] for i in rows])
        ids = [agents[i][0] for i in rows]
        assert scn.prediction_rows(ids).tolist() == rows
    with pytest.raises(ValueError, match="ego"):
        scn.take(others)
    with pytest.raises(ValueError, match="ego"):
        scn.prediction_rows([agents[i][0] for i in others])
    with pytest.raises(ValueError, match="nobody"):
        scn.prediction_rows([scn.ego_id, "nobody"])

    bare = replace(scn, has_future=np.zeros(n, bool))
    per_agent = rebuilt(scn, [(*a[:-1], None) for a in agents])
    assert bare == per_agent and bare != scn
    assert agent_rows(bare) == agent_rows(per_agent)
    assert dump_scenario(bare) == dump_scenario(per_agent)
    assert local_frame(bare, scn.ego_id) == local_frame(per_agent,
                                                        scn.ego_id)


def test_predict_reads_only_the_past():
    model = JointPredictor(ModelConfig(embed_dim=16, attention_heads=2))
    scn = SCENES[2]
    bare = rebuilt(scn, [(*a[:-1], None) for a in agent_rows(scn)])
    (jp, dists), (jp2, dists2) = model.predict(scn), model.predict(bare)
    assert np.array_equal(jp.trajectories, jp2.trajectories)
    assert np.array_equal(jp.mode_probs, jp2.mode_probs)
    assert all(np.array_equal(a.lateral, b.lateral)
               for a, b in zip(dists, dists2))


# --------------------------------------------------------------------------
# Map
# --------------------------------------------------------------------------

def odd_map():
    """Polylines of 2, 7 and 25 waypoints (beyond the default pad of 20)
    of every kind."""
    rng = np.random.default_rng(0)
    sizes, kinds = zip((2, "road_boundary"), (7, "crosswalk"),
                       (25, "lane_center"), (3, "road_boundary"))
    return RoadMap.padded([rng.normal(scale=30.0, size=(n, 2))
                           for n in sizes], kinds)


@pytest.mark.parametrize("scn", SCENES[:5] + [replace(SCENES[0],
                                                       map=odd_map())],
                         ids=lambda s: f"{s.scenario_id}-{len(s.map)}")
@pytest.mark.parametrize("radius", [1e9, 50.0, 15.0, 1e-3])
def test_map_stages_match_per_polyline_loops(scn, radius):
    local = local_frame(scn, "ego", radius)
    want = loop_local_map(scn, "ego", radius)
    assert same_polylines(local.map, *want)
    assert (local.map.waypoints[~local.map.valid] == 0.0).all()
    for s in (scn, local):
        assert np.array_equal(map_visibility(s, radius),
                              loop_visibility(s, radius))
        for pad in (20, 5, 30):
            assert np.array_equal(map_feature_matrix(s.map, pad),
                                  loop_map_features(s.map, pad))
    boundaries = [w[:n] for w, n, k in zip(scn.map.waypoints, scn.map.counts,
                                           scn.map.kinds)
                  if POLYLINE_KINDS[k] == "road_boundary"]
    if boundaries:
        points = np.random.default_rng(1).normal(scale=40.0, size=(3, 7, 2))
        for got, ref in zip(_clearance(points, *scn.map.of_kind(
                "road_boundary").segments()),
                            loop_clearance(points, boundaries)):
            assert np.array_equal(got, ref)


def test_clearance_tie_takes_first_segment():
    # the point is 1 m from both walls; the first polyline's segment wins
    walls = RoadMap.padded([np.array([[-5.0, 1.0], [5.0, 1.0]]),
                            np.array([[-5.0, -1.0], [0.0, -1.0], [5.0, -1.0]])],
                           ["road_boundary"] * 2)
    point = np.array([[0.0, 0.0]])
    dist, nearest = _clearance(point, *walls.segments())
    assert dist[0] == 1.0 and np.array_equal(nearest[0], [0.0, 1.0])
    dist, nearest = _clearance(point, *walls.select(
        np.array([False, True])).segments())
    assert np.array_equal(nearest[0], [0.0, -1.0])


def test_road_map_segments_in_polyline_order():
    road_map = odd_map()
    a, b = road_map.segments()
    polys = [w[:n] for w, n in zip(road_map.waypoints, road_map.counts)]
    assert np.array_equal(a, np.concatenate([w[:-1] for w in polys]))
    assert np.array_equal(b, np.concatenate([w[1:] for w in polys]))
    assert [POLYLINE_KINDS[k] for k in road_map.of_kind(
        "road_boundary").kinds] == ["road_boundary"] * 2


def test_empty_road_map():
    empty = RoadMap.padded([], [])
    assert len(empty) == 0 and empty.waypoints.size == 0
    scn = replace(SCENES[1], map=empty)
    assert map_visibility(scn, 50.0).shape == (len(scn.agent_ids), 0)
    assert map_feature_matrix(empty, 20).shape == (0, 63)
    assert len(local_frame(scn, "ego").map) == 0
    assert load_scenario(dump_scenario(scn)) == scn


# --------------------------------------------------------------------------
# Files
# --------------------------------------------------------------------------

@pytest.mark.parametrize("scn", SCENES, ids=lambda s: s.scenario_id)
def test_load_dump_round_trip_is_byte_identical(scn):
    text = dump_scenario(scn)
    again = load_scenario(text)
    assert again == scn
    assert dump_scenario(again) == text


def test_integral_numbers_load_as_floats():
    doc = json.loads(dump_scenario(SCENES[0]))
    doc["agents"][0]["states"][0]["x"] = 3
    doc["map"][0]["waypoints"][0] = [1, 2]
    scn = load_scenario(json.dumps(doc))
    assert scn.past[0].dtype == np.float64
    assert scn.past[0, 0, 0] == 3.0
    assert np.array_equal(scn.map.waypoints[0, 0], [1.0, 2.0])


def test_integer_beyond_float_range_reports_path():
    doc = json.loads(dump_scenario(SCENES[0]))
    doc["agents"][1]["future"][3]["vy"] = 10 ** 400
    with pytest.raises(ScenarioError,
                       match=r"at \$\.agents\[1\]\.future\[3\]\.vy: "
                             r"non-finite"):
        load_scenario(json.dumps(doc))


def test_rigid_move_rounds_as_per_state_rotation():
    from riskcast.scene import _apply_rigid
    scn = SCENES[3]
    origin, angle = np.array([12.5, -3.25]), 0.7
    moved = _apply_rigid(scn, origin, angle)
    for i in range(len(scn.agent_ids)):
        for got, orig in ((moved.past[i], scn.past[i]),
                          (moved.future[i], scn.future[i])):
            for row, o in zip(got, orig):
                assert np.array_equal(row[:2], rotate2(o[:2], angle) + origin)
                assert np.array_equal(row[3:], rotate2(o[3:], angle))
    assert same_polylines(moved.map, [
        rotate2(w[:n], angle) + origin
        for w, n in zip(scn.map.waypoints, scn.map.counts)], scn.map.kinds)
