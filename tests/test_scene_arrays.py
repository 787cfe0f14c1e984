"""The array-backed scene core against the per-state and per-polyline code
it replaced, and golden hashes of generated scenes.

The golden hashes are sha256 digests of ``dump_scenario(generate_scenario(
template, n, seed))`` recorded before kinematics and map polylines became
arrays, so a change to the data model cannot silently change generated or
benchmark scenes."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from riskcast.geometry import (AgentState, relative_encoding, rotation,
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
        "43bb2d4e1b92c79dc9cb17417590f8fe8f3fcd7387215204363e9f24cfc60f6d",
    ("straight", 3, 2027):
        "963bb5a6b3a3ac0e8a1e139bd337316e47494a24a2f0367603cac6d453053071",
    ("straight", 8, 11):
        "56b86224a890a9b06ab155ede3e013d0a64091e9f3bc572720c87bdd29cc1ffd",
    ("straight", 8, 2027):
        "cbfeb6e326e031c9077d2d718721c4f30c515f0cc0feeb8e227bc197d15f74b9",
    ("straight", 16, 11):
        "b4e646ff267a1ac205fb4e9d17f89d4b4e456236db2ff08202b868ac114e0814",
    ("straight", 16, 2027):
        "de68951b95dd011d3f09ec669101baab0b8192e3cdfe449d5e912b56da7c6387",
    ("left_turn", 3, 11):
        "0f400f35b18d68e195cea3ec4f3ba360ae8928ac80849eeecac322bb6b8283b8",
    ("left_turn", 3, 2027):
        "5a703a5e4bd0dc1b7a150dc4b81b36c05fc017c737b816d9e5bb42236571349b",
    ("left_turn", 8, 11):
        "280a49b5457882e72b5691736d6f1144db969bfc048984886f420415ef9b0535",
    ("left_turn", 8, 2027):
        "5980b56881427ce71682d22663031687c13c29d0d2645e8056cab7fc29e6b0f1",
    ("left_turn", 16, 11):
        "86144c2698049c34e84ee8f6766634c0d4bc8ace5bfeaae6c191b67677975079",
    ("left_turn", 16, 2027):
        "897a3f8ca0998ad9d73e3f540a6b0a18b08041eb97799c540ee8c0d1ffe6814b",
    ("right_turn", 3, 11):
        "021b53c0403f6d8ea3de57ec0e274ce69fb7f1260f9f9e17c85d00b5a1c39941",
    ("right_turn", 3, 2027):
        "c74ba9a17415d6043b6f78d6a3ff82db51c1f07574b141e21099a29a1705582f",
    ("right_turn", 8, 11):
        "fdbcd5e207817f046c4a7feef220cbfb3026ae53150bf3add4412c2d387126a9",
    ("right_turn", 8, 2027):
        "6a1fe82541826658ccfffeb198ef46073edd4f6991963e1de882bfbab50f78da",
    ("right_turn", 16, 11):
        "b08235bd11e953ab03c3e32099232ba4a840dbec4bd8ff81ac18bfa8337b4994",
    ("right_turn", 16, 2027):
        "b4d10a9d95955b4aa0a15dd59bbd8ddf36ca6c0658f3649906f1161f896c523a",
    ("merge", 3, 11):
        "663243940086029ab68a8a73f607c195c5fc6a4a6b59a7f8c4032bb018919495",
    ("merge", 3, 2027):
        "e94d8df4f70ce733068a897934821647ab71276c84229d6120c7194c92c04bea",
    ("merge", 8, 11):
        "33f1486c1504f64df5c34403d6fcac95f3ccad0d10504d10d32186d6134a3999",
    ("merge", 8, 2027):
        "a72c2acca00968eff467666ba0d84d6673a79f9adc4dd6ecb4acc5b9707938ec",
    ("merge", 16, 11):
        "594a11036078d92561e027aa14fa6ea0236b2f8ab8c41dd24d33b1f46647fe77",
    ("merge", 16, 2027):
        "03229e15d8d2b4845c83bb2a3f87da03ab2e1eb329d69cc1f116189721a1c1dd",
    ("crossing_conflict", 3, 11):
        "e17b783364181759cf592809ff0c5e8cfcfd6eef87bfa2f6af3c2059bb7c2891",
    ("crossing_conflict", 3, 2027):
        "24ed1d9598d807bbcfab5d6d2f2471132d6b1d1115dc414512a13143354d83bb",
    ("crossing_conflict", 8, 11):
        "2245c8a98686998168bca2c8c8c9161e782683f64089df9b17619e5e9595ad12",
    ("crossing_conflict", 8, 2027):
        "b003bae24b2eb0632c1b9e8caacf0793a1516ba24d22f705d89c6682fa6d69ef",
    ("crossing_conflict", 16, 11):
        "2918d4b5e3527b969a5cc58c59c46f39dacd76e820e0d7e06b7e9361fc915fd0",
    ("crossing_conflict", 16, 2027):
        "1806510e628b0f43edea03228d3f2fde05fa5d1ee254c4c5888705f3275ca149",
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
        for got, ref in zip(_clearance(points, scn.map.of_kind(
                "road_boundary")), loop_clearance(points, boundaries)):
            assert np.array_equal(got, ref)


def test_clearance_tie_takes_first_segment():
    # the point is 1 m from both walls; the first polyline's segment wins
    walls = RoadMap.padded([np.array([[-5.0, 1.0], [5.0, 1.0]]),
                            np.array([[-5.0, -1.0], [0.0, -1.0], [5.0, -1.0]])],
                           ["road_boundary"] * 2)
    dist, nearest = _clearance(np.array([[0.0, 0.0]]), walls)
    assert dist[0] == 1.0 and np.array_equal(nearest[0], [0.0, 1.0])
    dist, nearest = _clearance(np.array([[0.0, 0.0]]), walls.select(
        np.array([False, True])))
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
    R = rotation(angle)
    for i in range(len(scn.agent_ids)):
        for got, orig in ((moved.past[i], scn.past[i]),
                          (moved.future[i], scn.future[i])):
            for row, o in zip(got, orig):
                assert np.array_equal(row[:2], R @ o[:2] + origin)
                assert np.array_equal(row[3:], R @ o[3:])
    assert same_polylines(moved.map, [
        w[:n] @ R.T + origin for w, n in zip(scn.map.waypoints,
                                             scn.map.counts)], scn.map.kinds)
