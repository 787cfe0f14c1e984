"""Relative-encoding, body-point, and collision-angle geometry tests."""

import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskcast
from riskcast.geometry import (SPEED_EPS, AgentState, CollisionRegion,
                               body_points, collision_angle, collision_region,
                               dot2, norm2, relative_encoding, rotate2,
                               transform_state, wrap_angle)


def agent(x=0.0, y=0.0, yaw=0.0, vx=0.0, vy=0.0, cls="car"):
    return AgentState(x, y, yaw, vx, vy, agent_class=cls)


class TestRelativeEncoding:
    def test_parallel_headings(self):
        r = relative_encoding(agent(vx=1.0), agent(x=3.0, vx=1.0))
        assert r.sin_heading_diff == pytest.approx(0.0, abs=1e-12)
        assert r.cos_heading_diff == pytest.approx(1.0, abs=1e-12)

    def test_perpendicular_headings(self):
        r = relative_encoding(agent(vx=1.0), agent(x=3.0, vy=1.0))
        assert r.sin_heading_diff == pytest.approx(1.0, abs=1e-12)
        assert r.cos_heading_diff == pytest.approx(0.0, abs=1e-12)

    def test_three_four_five_distance(self):
        r = relative_encoding(agent(vx=1.0), agent(x=3.0, y=4.0, vx=1.0))
        assert r.distance == pytest.approx(5.0, abs=1e-12)

    def test_unit_circle_identities(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = agent(*rng.normal(size=2), rng.uniform(-3, 3),
                      *rng.normal(size=2))
            b = agent(*rng.normal(size=2), rng.uniform(-3, 3),
                      *rng.normal(size=2))
            r = relative_encoding(a, b)
            assert r.sin_heading_diff ** 2 + r.cos_heading_diff ** 2 == \
                pytest.approx(1.0, abs=1e-9)
            assert r.sin_bearing ** 2 + r.cos_bearing ** 2 == \
                pytest.approx(1.0, abs=1e-9)
            assert r.distance >= 0.0

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = agent(*rng.uniform(-20, 20, 2), rng.uniform(-3, 3),
                      *rng.uniform(-10, 10, 2))
            b = agent(*rng.uniform(-20, 20, 2), rng.uniform(-3, 3),
                      *rng.uniform(-10, 10, 2))
            origin = rng.uniform(-100, 100, 2)
            angle = rng.uniform(-np.pi, np.pi)
            r0 = relative_encoding(a, b).as_array()
            r1 = relative_encoding(transform_state(a, origin, angle),
                                   transform_state(b, origin, angle)
                                   ).as_array()
            assert np.allclose(r0, r1, atol=1e-9)

    def test_distance_symmetry_and_angle_antisymmetry(self):
        a = agent(1.0, 2.0, 0.3, 4.0, 1.0)
        b = agent(-3.0, 5.0, 1.1, -2.0, 2.0)
        rab = relative_encoding(a, b)
        rba = relative_encoding(b, a)
        assert rab.distance == pytest.approx(rba.distance, abs=1e-12)
        assert rab.sin_heading_diff == pytest.approx(-rba.sin_heading_diff,
                                                     abs=1e-12)
        assert rab.cos_heading_diff == pytest.approx(rba.cos_heading_diff,
                                                     abs=1e-12)

    def test_degenerate_inputs_no_nan(self):
        stopped = agent(yaw=0.7)  # zero velocity
        r = relative_encoding(stopped, stopped)  # also coincident
        assert np.all(np.isfinite(r.as_array()))
        assert r.sin_bearing == 0.0 and r.cos_bearing == 1.0
        assert r.distance == 0.0


class TestBodyPoints:
    def test_yaw_zero(self):
        f, c, r = body_points(AgentState(0, 0, 0.0, 0, 0, length=4.0))
        assert np.allclose(f, [2.0, 0.0])
        assert np.allclose(r, [-2.0, 0.0])

    def test_yaw_quarter_turn(self):
        f, _, _ = body_points(AgentState(0, 0, math.pi / 2, 0, 0, length=4.0))
        assert np.allclose(f, [0.0, 2.0], atol=1e-12)

    def test_yaw_half_turn(self):
        f, _, _ = body_points(AgentState(0, 0, math.pi, 0, 0, length=4.0))
        assert np.allclose(f, [-2.0, 0.0], atol=1e-12)

    @given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-4, 4),
           st.floats(0.5, 12))
    @settings(max_examples=100, deadline=None)
    def test_span_and_midpoint(self, x, y, yaw, length):
        a = AgentState(x, y, yaw, 0, 0, length=length)
        f, c, r = body_points(a)
        assert np.linalg.norm(f - r) == pytest.approx(length, abs=1e-12)
        assert np.allclose((f + r) / 2, c, atol=1e-12)


class TestCollisionAngle:
    def test_same_direction(self):
        assert collision_angle(agent(vx=3.0), agent(vx=5.0)) == 0.0

    def test_head_on(self):
        assert collision_angle(agent(vx=3.0), agent(vx=-5.0)) == math.pi

    def test_perpendicular(self):
        assert collision_angle(agent(vx=3.0), agent(vy=2.0)) == math.pi / 2

    def test_stopped_agent_uses_yaw(self):
        stopped = agent(yaw=math.pi)
        assert collision_angle(agent(vx=1.0), stopped) == math.pi

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = agent(vx=rng.normal(), vy=rng.normal())
            b = agent(vx=rng.normal(), vy=rng.normal())
            th = collision_angle(a, b)
            assert 0.0 <= th <= math.pi


class TestCollisionRegion:
    def test_ahead_is_front(self):
        v = agent(yaw=0.0)
        assert collision_region(v, agent(x=5.0)) == CollisionRegion.FRONT

    def test_behind_is_rear(self):
        v = agent(yaw=0.0)
        assert collision_region(v, agent(x=-5.0)) == CollisionRegion.REAR

    def test_beside_is_side(self):
        v = agent(yaw=0.0)
        assert collision_region(v, agent(y=5.0)) == CollisionRegion.SIDE
        assert collision_region(v, agent(y=-5.0)) == CollisionRegion.SIDE

    def test_symmetric_folding(self):
        v = agent(yaw=0.3)
        left = collision_region(v, agent(x=math.cos(0.3 + 1.0) * 4,
                                         y=math.sin(0.3 + 1.0) * 4))
        right = collision_region(v, agent(x=math.cos(0.3 - 1.0) * 4,
                                          y=math.sin(0.3 - 1.0) * 4))
        assert left == right == CollisionRegion.SIDE


class TestAgentState:
    def test_protected_flags(self):
        assert agent(cls="car").protected_flag
        assert agent(cls="truck").protected_flag
        assert not agent(cls="pedestrian").protected_flag
        assert not agent(cls="cyclist").protected_flag

    def test_positive_dims_required(self):
        with pytest.raises(ValueError):
            AgentState(0, 0, 0, 0, 0, length=-1.0)

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            AgentState(0, 0, 0, 0, 0, agent_class="tank")


class TestNorm2:
    def test_rounds_as_linalg_norm(self):
        rng = np.random.default_rng(0)
        d = rng.normal(size=(6, 16, 50, 2)) * 10.0 ** rng.uniform(
            -5, 5, size=(6, 16, 50, 1))
        special = np.array([[0.0, 0.0], [-0.0, 3.0], [np.inf, 1.0],
                            [-np.inf, np.nan], [np.nan, 2.0], [1e200, 1e200],
                            [-1e155, 1e-300], [1e-170, 1e-170], [5e-324, 0.0]])
        for x in (d, special):
            with np.errstate(over="ignore", invalid="ignore"):
                want = np.linalg.norm(x, axis=-1)
                got = norm2(x)
            assert np.array_equal(got, want, equal_nan=True)


class TestOneRule:
    """norm2 and dot2 are the package's one 2-vector length and dot
    product: the per-state references round as the array forms do."""

    def test_states_round_as_norm2_and_dot2(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(10_000, 2)) * 10.0 ** rng.uniform(
            -7, 3, size=(10_000, 1))
        v[:50] = 0.0
        v[50:100, 0] = 0.0
        v[100:150, 1] = -0.0
        yaws = rng.uniform(-math.pi, math.pi, size=len(v))
        speeds = norm2(v)
        stopped = speeds < SPEED_EPS
        u = np.where(stopped[:, None],
                     np.stack([np.cos(yaws), np.sin(yaws)], axis=-1),
                     v / np.where(stopped, 1.0, speeds)[:, None])
        states = [agent(yaw=yaw, vx=vx, vy=vy)
                  for yaw, (vx, vy) in zip(yaws.tolist(), v.tolist())]
        assert [s.speed for s in states] == speeds.tolist()
        moving = ~stopped
        assert moving.sum() > 8000
        got = np.array([s.direction() for s in states])
        assert np.array_equal(got[moving], u[moving])
        # the yaw direction of a stopped state is math.cos/math.sin
        assert np.allclose(got[stopped], u[stopped], rtol=0, atol=1e-15)
        cos_a = dot2(got[:-1], got[1:]).tolist()
        for a, b, c in zip(states[:-1], states[1:], cos_a):
            assert relative_encoding(a, b).cos_heading_diff == c
            assert collision_angle(a, b) == math.acos(min(max(c, -1.0), 1.0))

    def test_dot2(self):
        a = np.array([[3.0, 4.0], [1e200, 1.0], [0.0, -0.0]])
        b = np.array([[-4.0, 3.0], [1e200, 0.0], [2.0, 5.0]])
        with np.errstate(over="ignore"):
            assert dot2(a, b).tolist() == [0.0, math.inf, 0.0]

    def test_no_other_length_or_dot_formula_in_the_package(self):
        for path in sorted(Path(riskcast.__file__).parent.glob("*.py")):
            text = path.read_text()
            for formula in ("hypot(", "linalg.norm(", "cos(np.arccos("):
                assert formula not in text, (path.name, formula)


class TestOneRotation:
    """rotate2 and wrap_angle are the package's one rotation and angle wrap:
    a row or an element alone rounds as it does within an array."""

    def test_rows_round_as_the_array(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=(10_000, 2)) * 10.0 ** rng.uniform(
            -3, 4, size=(10_000, 1))
        v[:20] = 0.0
        angles = rng.uniform(-4 * math.pi, 4 * math.pi, size=100)
        for angle, block in zip(angles.tolist(), np.split(v, 100)):
            got = rotate2(block, angle)
            assert np.array_equal(got, [rotate2(row, angle) for row in block])
            assert np.array_equal(rotate2(block[None], angle)[0], got)

    def test_elements_wrap_as_the_array(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(-50.0, 50.0, size=10_000)
        a[:8] = [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, 1e-300, 7e5, -1e9]
        wrapped = wrap_angle(a)
        assert np.array_equal(wrapped, [wrap_angle(x) for x in a.tolist()])
        assert np.all(np.abs(wrapped) <= math.pi)
        assert np.allclose(np.cos(wrapped), np.cos(a), rtol=0, atol=1e-9)
        assert np.allclose(np.sin(wrapped), np.sin(a), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("shape", [(2,), (5, 2), (3, 4, 2), (2, 3, 1, 2)])
    def test_rotate2_is_its_formula_on_any_leading_axes(self, shape):
        # (x c - y s, x s + y c) in Python floats, which round as float64
        rng = np.random.default_rng(len(shape))
        v = rng.normal(scale=30.0, size=shape)
        angle = 2.1
        c, s = math.cos(angle), math.sin(angle)
        got = rotate2(v, angle)
        assert got.shape == shape and got.dtype == np.float64
        want = [[x * c - y * s, x * s + y * c]
                for x, y in v.reshape(-1, 2).tolist()]
        assert got.reshape(-1, 2).tolist() == want

    def test_rotate2_turns_counterclockwise(self):
        got = rotate2(np.array([[1.0, 0.0], [0.0, 2.0]]), math.pi / 2)
        assert np.allclose(got, [[0.0, 1.0], [-2.0, 0.0]], rtol=0,
                           atol=1e-15)

    def test_no_other_rotation_or_wrap_formula_in_the_package(self):
        wraps = 0
        for path in sorted(Path(riskcast.__file__).parent.glob("*.py")):
            text = path.read_text()
            for formula in ("def rotation", "rotation(", "math.atan2("):
                assert formula not in text, (path.name, formula)
            wraps += text.count("np.arctan2(np.sin(")
        assert wraps == 1
        assert "np.arctan2(np.sin(" in inspect.getsource(wrap_angle)
