"""Scenario serialization, validation, generator, and local-frame tests."""

import json
import math
import re

import numpy as np
import pytest

from riskcast import scene
from riskcast.geometry import relative_encoding
from riskcast.intention import label_intentions
from riskcast.scene import (MapPolyline, ScenarioError, dump_scenario,
                            generate_scenario, load_scenario, local_frame,
                            min_future_separation, pose_frame)


@pytest.fixture
def scenario():
    return generate_scenario("crossing_conflict", 4, seed=3)


class TestSerialization:
    def test_round_trip(self, scenario):
        text = dump_scenario(scenario)
        again = load_scenario(text)
        assert again == scenario
        assert dump_scenario(again) == text

    def test_history_length_error_names_agent(self, scenario):
        doc = json.loads(dump_scenario(scenario))
        doc["agents"][1]["states"] = doc["agents"][1]["states"][:-1]
        with pytest.raises(ScenarioError, match=doc["agents"][1]["id"]):
            load_scenario(json.dumps(doc))

    def test_future_length_error_names_agent(self, scenario):
        doc = json.loads(dump_scenario(scenario))
        doc["agents"][0]["future"].append(doc["agents"][0]["future"][-1])
        with pytest.raises(ScenarioError, match="ego"):
            load_scenario(json.dumps(doc))

    def test_non_finite_coordinate_reports_path(self, scenario):
        doc = json.loads(dump_scenario(scenario))
        doc["agents"][0]["states"][2]["x"] = float("nan")
        text = json.dumps(doc)
        with pytest.raises(ScenarioError,
                           match=r"\$\.agents\[0\]\.states\[2\]\.x"):
            load_scenario(text)

    def test_schema_violation_reports_path(self, scenario):
        doc = json.loads(dump_scenario(scenario))
        doc["agents"][0]["class"] = "hovercraft"
        with pytest.raises(ScenarioError, match=r"\$\.agents\[0\]\.class"):
            load_scenario(json.dumps(doc))

    def test_missing_required_field(self):
        with pytest.raises(ScenarioError, match="schema violation"):
            load_scenario(json.dumps({"dt": 0.1}))

    def test_invalid_json(self):
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario("{not json")

    @pytest.mark.parametrize("key", ["H", "T", "ego_index"])
    def test_integer_field_given_as_float(self, scenario, key):
        doc = json.loads(dump_scenario(scenario))
        doc[key] = float(doc[key])
        with pytest.raises(ScenarioError,
                           match=rf"schema violation at \$\.{key}:"):
            load_scenario(json.dumps(doc))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("keys", [
        ("dt",), ("agents", 1, "length"), ("agents", 1, "width"),
        ("agents", 1, "mass"), ("map", 0, "waypoints", 1, 0)])
    def test_non_finite_number_reports_path(self, scenario, keys, value):
        doc = json.loads(dump_scenario(scenario))
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        path = "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                             for k in keys)
        with pytest.raises(ScenarioError, match=re.escape(f"at {path}:")):
            load_scenario(json.dumps(doc))

    def test_bad_ego_index(self, scenario):
        doc = json.loads(dump_scenario(scenario))
        doc["ego_index"] = 99
        with pytest.raises(ScenarioError, match="ego_index"):
            load_scenario(json.dumps(doc))

    def test_repeated_agent_id(self):
        doc = json.loads(dump_scenario(generate_scenario("straight", 3, 1)))
        doc["agents"][2]["id"] = "ego"
        with pytest.raises(ScenarioError, match="'ego': the id is repeated"):
            load_scenario(json.dumps(doc))

    def test_unhandled_schema_keyword_raises(self):
        with pytest.raises(NotImplementedError, match="maximum"):
            scene._walk(3, {"type": "integer", "maximum": 2}, "$")


class TestGenerator:
    def test_deterministic_bytes(self):
        a = dump_scenario(generate_scenario("merge", 3, seed=42))
        b = dump_scenario(generate_scenario("merge", 3, seed=42))
        assert a == b

    def test_seed_changes_output(self):
        a = dump_scenario(generate_scenario("merge", 3, seed=42))
        b = dump_scenario(generate_scenario("merge", 3, seed=43))
        assert a != b

    def test_kinematic_consistency(self):
        for seed in range(10):
            scn = generate_scenario("straight", 3, seed)
            for agent in scn.agents:
                seq = np.concatenate([agent.past, agent.future])
                for prev, nxt in zip(seq[:-1], seq[1:]):
                    err = math.hypot(nxt[0] - (prev[0] + prev[3] * scn.dt),
                                     nxt[1] - (prev[1] + prev[4] * scn.dt))
                    assert err < 1e-6

    def test_constant_speed_spacing(self):
        scn = generate_scenario("straight", 1, seed=5, jitter=0.0)
        ego = scn.ego
        seq = np.concatenate([ego.past, ego.future])
        for prev, nxt in zip(seq[:-1], seq[1:]):
            step = math.hypot(nxt[0] - prev[0], nxt[1] - prev[1])
            speed = math.hypot(prev[3], prev[4])
            assert step == pytest.approx(speed * scn.dt, abs=1e-9)

    def test_shapes(self):
        scn = generate_scenario("left_turn", 4, seed=0)
        assert len(scn.agents) == 4
        for agent in scn.agents:
            assert agent.past.shape == (scn.horizon_past + 1, 5)
            assert agent.future.shape == (scn.horizon_future, 5)
        assert all(len(p.waypoints) <= 20 for p in scn.map)
        assert (scn.map.counts <= 20).all()
        kinds = {p.kind for p in scn.map}
        assert "lane_center" in kinds and "road_boundary" in kinds

    def test_template_labels(self):
        expected = {"straight": "ST", "left_turn": "LT", "right_turn": "RT"}
        for template, want in expected.items():
            for seed in range(25):
                scn = generate_scenario(template, 2, seed)
                lateral, _ = label_intentions(scn.ego.future)
                assert lateral == want, (template, seed)

    def test_conflict_has_close_pair_and_pedestrian(self):
        for seed in range(25):
            scn = generate_scenario("crossing_conflict", 3, seed)
            assert min_future_separation(scn) < 2.0
            classes = {a.current.agent_class for a in scn.agents}
            assert "pedestrian" in classes

    def test_conflict_pedestrian_crosses_before_the_ego_arrives(self):
        beyond_radius = 0
        for n in (3, 8):
            for seed in range(20):
                scn = generate_scenario("crossing_conflict", n, seed)
                ped, ego = scn.agent_by_id("ped"), scn.ego
                middle = scn.map.of_kind("crosswalk").waypoints[0, 1]
                gaps = np.linalg.norm(ped.future[:, :2] - middle, axis=1)
                t = int(gaps.argmin())
                assert gaps[t] < 0.5, (n, seed)
                heading = ego.future[t, 3:] / np.linalg.norm(ego.future[t, 3:])
                assert (middle - ego.future[t, :2]) @ heading > 0, (n, seed)
                beyond_radius += np.linalg.norm(
                    ped.past[-1, :2] - ego.past[-1, :2]) > 50.0
        # at t=0 the pedestrian is often out of a 50 m context radius
        assert beyond_radius >= 10

    def test_unknown_template(self):
        with pytest.raises(ValueError, match="unknown template"):
            generate_scenario("u_turn", 2, seed=0)

    def test_n_agents_positive(self):
        with pytest.raises(ValueError):
            generate_scenario("straight", 0, seed=0)


class TestLocalFrame:
    def test_target_at_origin(self, scenario):
        local = local_frame(scenario, "ego")
        cur = local.ego.current
        assert cur.x == pytest.approx(0.0, abs=1e-9)
        assert cur.y == pytest.approx(0.0, abs=1e-9)
        assert cur.yaw == pytest.approx(0.0, abs=1e-9)

    def test_pairwise_distances_preserved(self, scenario):
        local = local_frame(scenario, "ego", radius=1e9)
        for i in range(len(scenario.agents)):
            for j in range(i + 1, len(scenario.agents)):
                d0 = np.linalg.norm(
                    scenario.agents[i].current.position
                    - scenario.agents[j].current.position)
                d1 = np.linalg.norm(
                    local.agents[i].current.position
                    - local.agents[j].current.position)
                assert d1 == pytest.approx(d0, abs=1e-9)

    def test_relative_encodings_preserved(self, scenario):
        local = local_frame(scenario, "ego", radius=1e9)
        for i in range(len(scenario.agents)):
            for j in range(len(scenario.agents)):
                r0 = relative_encoding(scenario.agents[i].current,
                                       scenario.agents[j].current).as_array()
                r1 = relative_encoding(local.agents[i].current,
                                       local.agents[j].current).as_array()
                assert np.allclose(r0, r1, atol=1e-9)

    def test_far_agent_excluded(self, scenario):
        far = scenario.agents[1]
        frame = pose_frame(scenario, "ego")
        offset = frame.origin + np.array([80.0, 0.0])
        moved = far.past.copy()
        moved[:, :2] = offset
        moved[:, 3:] = 0.0
        scenario.past[1] = moved
        local = local_frame(scenario, "ego", radius=50.0)
        assert all(a.agent_id != far.agent_id for a in local.agents)

    def test_unknown_agent(self, scenario):
        with pytest.raises(KeyError):
            local_frame(scenario, "nope")

    def test_map_filtered_by_radius(self, scenario):
        local_all = local_frame(scenario, "ego", radius=1e9)
        local_none = local_frame(scenario, "ego", radius=1e-3)
        assert len(local_all.map) == len(scenario.map)
        assert len(local_none.map) < len(scenario.map)

    def test_frame_round_trip(self, scenario):
        frame = pose_frame(scenario, "ego")
        pts = np.array([[1.0, 2.0], [-3.0, 4.5]])
        back = frame.to_global(frame.to_local(pts))
        assert np.allclose(back, pts, atol=1e-9)


def test_polyline_needs_two_waypoints():
    with pytest.raises(ScenarioError):
        MapPolyline(np.array([[0.0, 0.0]]))


def test_polyline_unknown_kind():
    with pytest.raises(ScenarioError):
        MapPolyline(np.zeros((2, 2)), kind="sidewalk")
