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
from riskcast.scene import (POLYLINE_KINDS, AgentHistory, MapPolyline,
                            RoadMap, Scenario, ScenarioError, dump_scenario,
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

def as_states(agent, kin):
    return [AgentState(*row, agent.length, agent.width, agent.mass,
                       agent.agent_class) for row in kin.tolist()]


def kinematics(states):
    return np.array([(s.x, s.y, s.yaw, s.vx, s.vy) for s in states])


def loop_visibility(scn, radius):
    pos = np.array([a.current.position for a in scn.agents])
    vis = np.zeros((len(scn.agents), len(scn.map)), dtype=bool)
    for m, p in enumerate(scn.map):
        d = np.linalg.norm(pos[:, None, :] - p.waypoints[None, :, :], axis=-1)
        vis[:, m] = d.min(axis=1) <= radius
    return vis


def loop_map_features(polylines, pad):
    feats = []
    for p in polylines:
        slots = np.zeros((pad, 3))
        n = min(len(p.waypoints), pad)
        slots[:n, :2] = p.waypoints[:n] / POS_SCALE
        slots[:n, 2] = 1.0
        kind = np.zeros(len(POLYLINE_KINDS))
        kind[POLYLINE_KINDS.index(p.kind)] = 1.0
        feats.append(np.concatenate([slots.reshape(-1), kind]))
    return np.stack(feats) if feats else np.zeros((0, pad * 3 + 3))


def loop_clearance(points, polylines):
    a = np.concatenate([p.waypoints[:-1] for p in polylines])
    ab = np.concatenate([p.waypoints[1:] for p in polylines]) - a
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
    frame = pose_frame(scn, agent_id)
    return [MapPolyline(frame.to_local(p.waypoints), p.kind) for p in scn.map
            if np.linalg.norm(p.waypoints - frame.origin, axis=1).min()
            <= radius]


def degenerate_scene():
    """Agent 1 stands still, the ego crawls below SPEED_EPS at step 0,
    agent 2 sits on the ego's position at every other step, and agent 3
    has no future."""
    scn = generate_scenario("merge", 5, seed=8)
    ego, a1, a2, a3, a4 = scn.agents
    ego_past = ego.past.copy()
    ego_past[0, 3:] = (1e-7, 0.0)
    a1_past = a1.past.copy()
    a1_past[:, 3:] = 0.0
    a2_past = a2.past.copy()
    a2_past[::2, :2] = ego_past[::2, :2]
    agents = [replace(ego, past=ego_past), replace(a1, past=a1_past),
              replace(a2, past=a2_past), replace(a3, future=None), a4]
    return rebuilt(scn, agents)


def rebuilt(scn, agents):
    """The scene with other agents, through the boundary constructor."""
    return Scenario.from_agents(agents, scn.map, scn.horizon_past,
                                scn.horizon_future, scn.dt, scn.ego_index,
                                scn.scenario_id, scn.template)


SCENES = [generate_scenario(t, n, seed) for t, n, seed in [
    ("straight", 3, 1), ("left_turn", 8, 2), ("right_turn", 16, 3),
    ("merge", 8, 4), ("crossing_conflict", 16, 5)]] + [degenerate_scene()]


# --------------------------------------------------------------------------
# Agents
# --------------------------------------------------------------------------

@pytest.mark.parametrize("scn", SCENES, ids=lambda s: s.scenario_id)
@pytest.mark.parametrize("radius", [1e9, 50.0, 20.0])
def test_local_frame_matches_transform_state(scn, radius):
    for agent_id in [a.agent_id for a in scn.agents][:4]:
        frame = pose_frame(scn, agent_id)
        local = local_frame(scn, agent_id, radius)
        kept = [a.agent_id for a in scn.agents
                if np.linalg.norm(a.current.position - frame.origin)
                <= radius]
        assert [a.agent_id for a in local.agents] == kept
        assert local.ego.agent_id == agent_id
        for a in local.agents:
            src = scn.agent_by_id(a.agent_id)
            assert (a.agent_class, a.length, a.width, a.mass) == \
                (src.agent_class, src.length, src.width, src.mass)
            assert (a.future is None) == (src.future is None)
            for got, orig in ((a.past, src.past), (a.future, src.future)):
                if orig is None:
                    continue
                want = kinematics([
                    transform_state(s, frame.origin, frame.angle)
                    for s in as_states(src, orig)])
                assert np.array_equal(got, want)


@pytest.mark.parametrize("scn", SCENES, ids=lambda s: s.scenario_id)
def test_history_features_match_relative_encoding(scn):
    for s in (scn, local_frame(scn, "ego", radius=1e9)):
        got = history_feature_matrix(s)
        ego = as_states(s.ego, s.ego.past)
        for i, agent in enumerate(s.agents):
            for t, (st, ego_st) in enumerate(zip(as_states(agent, agent.past),
                                                 ego)):
                rel = relative_encoding(ego_st, st).as_array()
                assert np.array_equal(got[i, t, 5:10],
                                      rel / [1, 1, 1, 1, POS_SCALE])


def test_agent_history_boundary_constructor():
    scn = SCENES[1]
    for a in scn.agents:
        again = AgentHistory.from_states(a.agent_id, as_states(a, a.past),
                                         as_states(a, a.future))
        assert again == a
        assert again.current == as_states(a, a.past)[-1]
    no_future = AgentHistory.from_states("x", as_states(a, a.past))
    assert no_future.future is None and no_future != replace(a, agent_id="x")


@pytest.mark.parametrize("scn", SCENES, ids=lambda s: s.scenario_id)
def test_row_selection_matches_per_agent_selection(scn):
    agents, n = scn.agents, len(scn.agents)
    assert agents == [scn.agent_by_id(a.agent_id) for a in agents]
    others = [i for i in range(n) if i != scn.ego_index]
    perm = np.random.default_rng(n).permutation(others).tolist()
    for rows in (list(range(n)), perm[::2] + [scn.ego_index],
                 [scn.ego_index] + perm, list(reversed(range(n)))):
        taken = scn.take(rows)
        assert taken.agents == [agents[i] for i in rows]
        assert taken.ego_id == scn.ego_id
        assert taken == rebuilt(replace(scn, ego_index=rows.index(
            scn.ego_index)), [agents[i] for i in rows])
        ids = [agents[i].agent_id for i in rows]
        assert scn.prediction_rows(ids).tolist() == rows
    with pytest.raises(ValueError, match="ego"):
        scn.take(others)
    with pytest.raises(ValueError, match="ego"):
        scn.prediction_rows([agents[i].agent_id for i in others])
    with pytest.raises(ValueError, match="nobody"):
        scn.prediction_rows([scn.ego_id, "nobody"])

    bare = replace(scn, has_future=np.zeros(n, bool))
    per_agent = rebuilt(scn, [replace(a, future=None) for a in agents])
    assert bare == per_agent and bare != scn
    assert bare.agents == per_agent.agents
    assert dump_scenario(bare) == dump_scenario(per_agent)
    assert local_frame(bare, scn.ego_id) == local_frame(per_agent,
                                                        scn.ego_id)


@pytest.mark.parametrize("past", [np.zeros((0, 5)), np.zeros((3, 4)),
                                  np.zeros(5)])
def test_agent_history_rejects_bad_shapes(past):
    with pytest.raises(ScenarioError):
        AgentHistory("a", "car", 4.5, 1.8, 1500.0, past)


def test_predict_reads_only_the_past():
    model = JointPredictor(ModelConfig(embed_dim=16, attention_heads=2))
    scn = SCENES[2]
    bare = rebuilt(scn, [replace(a, future=None) for a in scn.agents])
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
    return RoadMap.from_polylines([
        MapPolyline(rng.normal(scale=30.0, size=(n, 2)), kind)
        for n, kind in [(2, "road_boundary"), (7, "crosswalk"),
                        (25, "lane_center"), (3, "road_boundary")]])


@pytest.mark.parametrize("scn", SCENES[:5] + [replace(SCENES[0],
                                                       map=odd_map())],
                         ids=lambda s: f"{s.scenario_id}-{len(s.map)}")
@pytest.mark.parametrize("radius", [1e9, 50.0, 15.0, 1e-3])
def test_map_stages_match_per_polyline_loops(scn, radius):
    local = local_frame(scn, "ego", radius)
    want = loop_local_map(scn, "ego", radius)
    assert list(local.map) == want
    assert (local.map.waypoints[~local.map.valid] == 0.0).all()
    for s in (scn, local):
        assert np.array_equal(map_visibility(s, radius),
                              loop_visibility(s, radius))
        for pad in (20, 5, 30):
            assert np.array_equal(map_feature_matrix(s.map, pad),
                                  loop_map_features(list(s.map), pad))
    boundaries = [p for p in scn.map if p.kind == "road_boundary"]
    if boundaries:
        points = np.random.default_rng(1).normal(scale=40.0, size=(3, 7, 2))
        for got, ref in zip(_clearance(points, scn.map.of_kind(
                "road_boundary")), loop_clearance(points, boundaries)):
            assert np.array_equal(got, ref)


def test_clearance_tie_takes_first_segment():
    # the point is 1 m from both walls; the first polyline's segment wins
    walls = RoadMap.from_polylines([
        MapPolyline(np.array([[-5.0, 1.0], [5.0, 1.0]]), "road_boundary"),
        MapPolyline(np.array([[-5.0, -1.0], [0.0, -1.0], [5.0, -1.0]]),
                    "road_boundary")])
    dist, nearest = _clearance(np.array([[0.0, 0.0]]), walls)
    assert dist[0] == 1.0 and np.array_equal(nearest[0], [0.0, 1.0])
    dist, nearest = _clearance(np.array([[0.0, 0.0]]), walls.select(
        np.array([False, True])))
    assert np.array_equal(nearest[0], [0.0, -1.0])


def test_road_map_segments_in_polyline_order():
    road_map = odd_map()
    a, b = road_map.segments()
    polys = list(road_map)
    assert np.array_equal(a, np.concatenate([p.waypoints[:-1]
                                             for p in polys]))
    assert np.array_equal(b, np.concatenate([p.waypoints[1:]
                                             for p in polys]))
    assert [p.kind for p in road_map.of_kind("road_boundary")] == \
        ["road_boundary"] * 2


def test_empty_road_map():
    empty = RoadMap.from_polylines([])
    assert len(empty) == 0 and list(empty) == []
    scn = replace(SCENES[1], map=empty)
    assert map_visibility(scn, 50.0).shape == (len(scn.agents), 0)
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
    assert scn.agents[0].past.dtype == np.float64
    assert scn.agents[0].past[0, 0] == 3.0
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
    for a, src in zip(moved.agents, scn.agents):
        for got, orig in ((a.past, src.past), (a.future, src.future)):
            for row, o in zip(got, orig):
                assert np.array_equal(row[:2], R @ o[:2] + origin)
                assert np.array_equal(row[3:], R @ o[3:])
    assert list(moved.map) == [MapPolyline(p.waypoints @ R.T + origin,
                                           p.kind) for p in scn.map]
