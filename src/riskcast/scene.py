"""Scenario data model, JSON (de)serialization with validation, a seeded
synthetic scenario generator, and local-frame extraction.

A scenario holds, per agent, H+1 past states (the last one is "now") and
optionally T ground-truth future states, plus map polylines. Both are stored
as arrays:

- ``AgentHistory.past`` is float64 ``[H+1, 5]`` and ``AgentHistory.future``
  ``[T, 5]`` or None, columns ``KINEMATICS`` = (x, y, yaw, vx, vy); the class,
  length, width and mass are per-agent attributes.
- ``RoadMap`` holds every polyline once: ``waypoints`` ``[P, W, 2]`` padded
  with zeros past each polyline's ``counts[p]`` waypoints, and ``kinds``
  ``[P]`` as indices into ``POLYLINE_KINDS``. Its segments, in polyline then
  waypoint order, are the nearest-boundary search space of the risk kernel.

``AgentState`` and ``MapPolyline`` appear only at the boundary: the JSON
schema, ``AgentHistory.from_states`` and ``RoadMap.from_polylines`` for
fixtures, ``AgentHistory.current`` (built from ``past[-1]`` on demand), and
iterating a ``RoadMap``. Every stage reads and transforms scenes as array
operations that round as the per-state code they replaced did.

The generator produces kinematically consistent trajectories: velocities are
recomputed from the jittered positions, so position(t+1) = position(t) +
v(t)*dt holds exactly; yaw is taken from the noiseless path heading.

``SCENARIO_SCHEMA`` documents the file format as a JSON Schema.
``load_scenario`` enforces it with one walk of the parsed document that
checks types, required keys, enums and item counts in the order a JSON
Schema validator visits them, reports the first violation at the same JSON
path, and builds the agents' arrays as it goes. The walk is stricter than
the schema in two ways: every number must be finite (an integer too large
for a float counts as non-finite), and integer fields (``H``, ``T``,
``ego_index``) must be JSON integers, not floats such as ``0.0``. Numbers
are stored as float64, so a load and dump writes an integral kinematic value
such as ``3`` as ``3.0``.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (AGENT_CLASSES, PROTECTED_CLASSES, AgentState, rotation,
                       wrap_angle)

POLYLINE_KINDS = ("lane_center", "road_boundary", "crosswalk")
TEMPLATES = ("straight", "left_turn", "right_turn", "merge",
             "crossing_conflict")
KINEMATICS = ("x", "y", "yaw", "vx", "vy")  # columns of past / future

DEFAULT_H = 10          # past steps (history has H+1 states)
DEFAULT_T = 50          # future steps
DEFAULT_DT = 0.1        # seconds, 10 Hz
JITTER_STD = 0.05       # meters of position noise after integration
LANE_WIDTH = 3.5
ROAD_HALF_WIDTH = 5.25  # boundary offset from the ego centerline
MAX_POLYLINE_POINTS = 20

AGENT_DIMS = {
    # class: (length, width, mass)
    "car": (4.5, 1.8, 1500.0),
    "truck": (8.0, 2.5, 8000.0),
    "pedestrian": (0.5, 0.5, 75.0),
    "cyclist": (1.8, 0.6, 90.0),
}


class ScenarioError(ValueError):
    """Raised when a scenario document violates the schema or invariants."""


@dataclass
class MapPolyline:
    """One polyline at the boundary: input of ``RoadMap.from_polylines``
    and what iterating a ``RoadMap`` yields."""
    waypoints: np.ndarray  # [n, 2]
    kind: str = "lane_center"

    def __post_init__(self):
        self.waypoints = np.asarray(self.waypoints, dtype=np.float64)
        if self.waypoints.ndim != 2 or self.waypoints.shape[1] != 2:
            raise ScenarioError("polyline waypoints must be an [n, 2] array")
        if self.waypoints.shape[0] < 2:
            raise ScenarioError("polyline needs at least 2 waypoints")
        if self.kind not in POLYLINE_KINDS:
            raise ScenarioError(f"unknown polyline kind {self.kind!r}")

    def __eq__(self, other):
        return (isinstance(other, MapPolyline) and self.kind == other.kind
                and np.array_equal(self.waypoints, other.waypoints))


@dataclass
class RoadMap:
    """All polylines of a scene as one zero-padded waypoint array."""
    waypoints: np.ndarray  # [P, W, 2], zero past each count
    counts: np.ndarray     # [P] waypoints per polyline, each >= 2
    kinds: np.ndarray      # [P] indices into POLYLINE_KINDS

    @classmethod
    def from_polylines(cls, polylines: list[MapPolyline]) -> "RoadMap":
        counts = np.array([len(p.waypoints) for p in polylines], dtype=int)
        waypoints = np.zeros((len(polylines), counts.max(initial=0), 2))
        for wp, p in zip(waypoints, polylines):
            wp[:len(p.waypoints)] = p.waypoints
        kinds = np.array([POLYLINE_KINDS.index(p.kind) for p in polylines],
                         dtype=int)
        return cls(waypoints, counts, kinds)

    @property
    def valid(self) -> np.ndarray:
        """[P, W] True at real (unpadded) waypoints."""
        return np.arange(self.waypoints.shape[1]) < self.counts[:, None]

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self):
        for wp, n, k in zip(self.waypoints, self.counts, self.kinds):
            yield MapPolyline(wp[:n], POLYLINE_KINDS[k])

    def __eq__(self, other):
        return (isinstance(other, RoadMap)
                and np.array_equal(self.counts, other.counts)
                and np.array_equal(self.kinds, other.kinds)
                and np.array_equal(self.waypoints, other.waypoints))

    def select(self, keep: np.ndarray) -> "RoadMap":
        """The polylines where the boolean `keep` [P] is True, in order."""
        return RoadMap(self.waypoints[keep], self.counts[keep],
                       self.kinds[keep])

    def of_kind(self, kind: str) -> "RoadMap":
        return self.select(self.kinds == POLYLINE_KINDS.index(kind))

    def moved(self, waypoints: np.ndarray) -> "RoadMap":
        """The same polylines with transformed waypoints, padding zeroed."""
        return RoadMap(np.where(self.valid[..., None], waypoints, 0.0),
                       self.counts, self.kinds)

    def segments(self) -> tuple[np.ndarray, np.ndarray]:
        """Start and end points [S, 2] of every segment, polyline by
        polyline."""
        real = np.arange(self.waypoints.shape[1] - 1) < \
            self.counts[:, None] - 1
        return self.waypoints[:, :-1][real], self.waypoints[:, 1:][real]


def _kinematics(kin, what: str) -> np.ndarray:
    kin = np.asarray(kin, dtype=np.float64)
    if kin.ndim != 2 or kin.shape[1] != len(KINEMATICS) or len(kin) < 1:
        raise ScenarioError(f"{what} must be a non-empty [n, 5] array")
    return kin


@dataclass
class AgentHistory:
    """One agent: static attributes plus past [H+1, 5] and future [T, 5]
    kinematics (x, y, yaw, vx, vy); the last past row is "now"."""
    agent_id: str
    agent_class: str
    length: float
    width: float
    mass: float
    past: np.ndarray
    future: np.ndarray | None = None

    def __post_init__(self):
        if self.agent_class not in AGENT_CLASSES:
            raise ScenarioError(f"unknown agent class {self.agent_class!r}")
        if self.length <= 0 or self.width <= 0 or self.mass <= 0:
            raise ScenarioError("length, width and mass must be positive")
        self.past = _kinematics(self.past, "past")
        if self.future is not None:
            self.future = _kinematics(self.future, "future")

    @classmethod
    def from_states(cls, agent_id: str, states: list[AgentState],
                    future: list[AgentState] | None = None
                    ) -> "AgentHistory":
        """An agent from AgentState lists; the static attributes are the
        last past state's."""
        def rows(seq):
            return [(s.x, s.y, s.yaw, s.vx, s.vy) for s in seq]

        cur = states[-1]
        return cls(agent_id, cur.agent_class, cur.length, cur.width,
                   cur.mass, rows(states), rows(future) if future else None)

    @property
    def current(self) -> AgentState:
        return AgentState(*self.past[-1].tolist(), self.length, self.width,
                          self.mass, self.agent_class)

    @property
    def protected_flag(self) -> bool:
        return self.agent_class in PROTECTED_CLASSES

    def __eq__(self, other):
        def static(a):
            return a.agent_id, a.agent_class, a.length, a.width, a.mass

        # np.array_equal(None, None) holds, None against an array does not
        return (isinstance(other, AgentHistory)
                and static(self) == static(other)
                and np.array_equal(self.past, other.past)
                and np.array_equal(self.future, other.future))


@dataclass
class Scenario:
    agents: list[AgentHistory]
    map: RoadMap
    horizon_past: int
    horizon_future: int
    dt: float
    ego_index: int = 0
    scenario_id: str = ""
    template: str = ""

    @property
    def ego(self) -> AgentHistory:
        return self.agents[self.ego_index]

    def agent_by_id(self, agent_id: str) -> AgentHistory:
        for a in self.agents:
            if a.agent_id == agent_id:
                return a
        raise KeyError(f"unknown agent_id {agent_id!r}")

    def current_kinematics(self) -> np.ndarray:
        """[N, 5] every agent's current (last past) row."""
        return np.array([a.past[-1] for a in self.agents])


# --------------------------------------------------------------------------
# JSON schema and (de)serialization
# --------------------------------------------------------------------------

_STATE_SCHEMA = {
    "type": "object",
    "required": list(KINEMATICS),
    "properties": {k: {"type": "number"} for k in KINEMATICS},
}

# The scenario file format. load_scenario's walk below enforces it; the
# tests check the walk against a JSON Schema validator of this schema.
SCENARIO_SCHEMA = {
    "type": "object",
    "required": ["dt", "H", "T", "ego_index", "agents", "map"],
    "properties": {
        "dt": {"type": "number", "exclusiveMinimum": 0},
        "H": {"type": "integer", "minimum": 1},
        "T": {"type": "integer", "minimum": 1},
        "ego_index": {"type": "integer", "minimum": 0},
        "scenario_id": {"type": "string"},
        "template": {"type": "string"},
        "agents": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["id", "class", "length", "width", "mass",
                             "states"],
                "properties": {
                    "id": {"type": "string"},
                    "class": {"enum": list(AGENT_DIMS)},
                    "length": {"type": "number", "exclusiveMinimum": 0},
                    "width": {"type": "number", "exclusiveMinimum": 0},
                    "mass": {"type": "number", "exclusiveMinimum": 0},
                    "states": {"type": "array", "items": _STATE_SCHEMA},
                    "future": {"type": "array", "items": _STATE_SCHEMA},
                },
            },
        },
        "map": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["kind", "waypoints"],
                "properties": {
                    "kind": {"enum": list(POLYLINE_KINDS)},
                    "waypoints": {
                        "type": "array",
                        "minItems": 2,
                        "items": {
                            "type": "array",
                            "items": {"type": "number"},
                            "minItems": 2,
                            "maxItems": 2,
                        },
                    },
                },
            },
        },
    },
}

_SCENARIO_KEYS = tuple(SCENARIO_SCHEMA["required"])
_AGENT_KEYS = tuple(SCENARIO_SCHEMA["properties"]["agents"]["items"]
                    ["required"])
_STATE_KEY_SET = frozenset(KINEMATICS)
_STATE_ROW = operator.itemgetter(*KINEMATICS)
_POLYLINE_KEYS = tuple(SCENARIO_SCHEMA["properties"]["map"]["items"]
                       ["required"])


_FLOAT_MAX = sys.float_info.max


def _fail(path: str, message: str):
    raise ScenarioError(f"schema violation at {path}: {message}")


def _describe(value) -> str:
    if isinstance(value, dict):
        return "an object"
    if isinstance(value, list):
        return "an array"
    return repr(value)


def _object(value, required: tuple[str, ...], path: str) -> dict:
    if type(value) is not dict:
        _fail(path, f"expected an object, got {_describe(value)}")
    for key in required:
        if key not in value:
            _fail(path, f"missing required property {key!r}")
    return value


def _array(value, path: str, min_items: int = 0) -> list:
    if type(value) is not list:
        _fail(path, f"expected an array, got {_describe(value)}")
    if len(value) < min_items:
        _fail(path, f"needs at least {min_items} items, got {len(value)}")
    return value


def _number(value, path: str) -> float:
    if type(value) is float:
        if not math.isfinite(value):
            _fail(path, f"non-finite number {value!r}")
    elif type(value) is not int:
        _fail(path, f"expected a number, got {_describe(value)}")
    elif not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        _fail(path, f"non-finite number {value!r} (beyond the float range)")
    return value


def _positive(value, path: str) -> float:
    if _number(value, path) <= 0:
        _fail(path, f"{value!r} is not greater than 0")
    return value


def _integer(value, path: str, minimum: int) -> int:
    if type(value) is not int:
        _fail(path, f"expected an integer, got {_describe(value)}")
    if value < minimum:
        _fail(path, f"{value!r} is less than the minimum of {minimum}")
    return value


def _string(value, path: str) -> str:
    if type(value) is not str:
        _fail(path, f"expected a string, got {_describe(value)}")
    return value


def _enum(value, allowed, path: str) -> str:
    if type(value) is not str or value not in allowed:
        _fail(path, f"{_describe(value)} is not one of {list(allowed)}")
    return value


def _finite(rows: list) -> np.ndarray | None:
    """rows as a float64 array if every item is a finite float, else None.
    Well-formed documents take this path; any other input is walked again
    item by item, so that the first violation is reported at its path."""
    if all(type(v) is float for row in rows for v in row):
        kin = np.array(rows, dtype=np.float64)
        if np.isfinite(kin).all():
            return kin
    return None


def _states(value, path: str) -> np.ndarray:
    """[n, 5] rows of (x, y, yaw, vx, vy)."""
    states = _array(value, path)
    if all(type(s) is dict and s.keys() >= _STATE_KEY_SET for s in states):
        kin = _finite([_STATE_ROW(s) for s in states])
        if kin is not None:
            return kin.reshape(-1, len(KINEMATICS))
    rows = []
    for i, s in enumerate(states):
        spath = f"{path}[{i}]"
        _object(s, KINEMATICS, spath)
        rows.append([_number(s[k], f"{spath}.{k}") for k in KINEMATICS])
    return np.array(rows, dtype=np.float64).reshape(-1, len(KINEMATICS))


def _agent(value, path: str) -> tuple:
    """The AgentHistory fields of an agent object; an empty future is
    None."""
    a = _object(value, _AGENT_KEYS, path)
    agent_id = _string(a["id"], f"{path}.id")
    agent_class = _enum(a["class"], AGENT_DIMS, f"{path}.class")
    dims = [_positive(a[k], f"{path}.{k}") for k in ("length", "width",
                                                     "mass")]
    past = _states(a["states"], f"{path}.states")
    future = _states(a["future"], f"{path}.future") if "future" in a \
        else np.empty((0, len(KINEMATICS)))
    return agent_id, agent_class, *dims, past, (future if len(future)
                                                else None)


def _polyline(value, path: str) -> MapPolyline:
    m = _object(value, _POLYLINE_KEYS, path)
    kind = _enum(m["kind"], POLYLINE_KINDS, f"{path}.kind")
    waypoints = _array(m["waypoints"], f"{path}.waypoints", min_items=2)
    if all(type(w) is list and len(w) == 2 for w in waypoints):
        points = _finite(waypoints)
        if points is not None:
            return MapPolyline(points, kind)
    for i, w in enumerate(waypoints):
        wpath = f"{path}.waypoints[{i}]"
        for j, v in enumerate(_array(w, wpath)):
            _number(v, f"{wpath}[{j}]")
        if len(w) != 2:
            _fail(wpath, f"needs exactly 2 items, got {len(w)}")
    return MapPolyline(np.array(waypoints, dtype=np.float64), kind)


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario JSON document.

    Schema violations report the JSON path of the offending element; history
    or future length mismatches report the agent id.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"invalid JSON: {e}") from e
    _object(doc, _SCENARIO_KEYS, "$")
    dt = _positive(doc["dt"], "$.dt")
    H = _integer(doc["H"], "$.H", 1)
    T = _integer(doc["T"], "$.T", 1)
    ego_index = _integer(doc["ego_index"], "$.ego_index", 0)
    scenario_id = _string(doc.get("scenario_id", ""), "$.scenario_id")
    template = _string(doc.get("template", ""), "$.template")
    walked = [_agent(a, f"$.agents[{i}]")
              for i, a in enumerate(_array(doc["agents"], "$.agents", 1))]
    polylines = [_polyline(m, f"$.map[{i}]")
                 for i, m in enumerate(_array(doc["map"], "$.map"))]

    for agent_id, *_, past, future in walked:
        if len(past) != H + 1:
            raise ScenarioError(
                f"agent {agent_id!r}: expected H+1 = {H + 1} past states, "
                f"got {len(past)}")
        if future is not None and len(future) != T:
            raise ScenarioError(
                f"agent {agent_id!r}: expected T = {T} future states, "
                f"got {len(future)}")
    if ego_index >= len(walked):
        raise ScenarioError(f"ego_index {ego_index} out of range")
    agents = [AgentHistory(*fields) for fields in walked]
    return Scenario(agents, RoadMap.from_polylines(polylines), H, T, dt,
                    ego_index, scenario_id, template)


def _kinematics_to_json(kin: np.ndarray | None) -> list[dict]:
    if kin is None:
        return []
    return [dict(zip(KINEMATICS, row)) for row in kin.tolist()]


def dump_scenario(scn: Scenario) -> str:
    """Serialize to deterministic JSON (sorted keys, fixed separators)."""
    doc = {
        "dt": scn.dt,
        "H": scn.horizon_past,
        "T": scn.horizon_future,
        "ego_index": scn.ego_index,
        "scenario_id": scn.scenario_id,
        "template": scn.template,
        "agents": [
            {
                "id": a.agent_id,
                "class": a.agent_class,
                "length": a.length,
                "width": a.width,
                "mass": a.mass,
                "states": _kinematics_to_json(a.past),
                "future": _kinematics_to_json(a.future),
            }
            for a in scn.agents
        ],
        "map": [
            {"kind": p.kind, "waypoints": p.waypoints.tolist()}
            for p in scn.map
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=1)


# --------------------------------------------------------------------------
# Synthetic generator
# --------------------------------------------------------------------------

class _Path:
    """Arc-length parameterized centerline."""

    def pos(self, s: float) -> np.ndarray:
        raise NotImplementedError

    def heading(self, s: float) -> float:
        raise NotImplementedError

    def normal(self, s: float) -> np.ndarray:
        h = self.heading(s)
        return np.array([-math.sin(h), math.cos(h)])


class _Line(_Path):
    def __init__(self, start, theta):
        self.start = np.asarray(start, dtype=float)
        self.theta = theta
        self.u = np.array([math.cos(theta), math.sin(theta)])

    def pos(self, s):
        return self.start + s * self.u

    def heading(self, s):
        return self.theta


class _TurnPath(_Path):
    """Straight until s_turn, then a constant-curvature arc."""

    def __init__(self, start, theta, s_turn, curvature):
        self.line = _Line(start, theta)
        self.s_turn = s_turn
        self.kappa = curvature
        self.anchor = self.line.pos(s_turn)

    def pos(self, s):
        if s <= self.s_turn or self.kappa == 0.0:
            return self.line.pos(s)
        ds = s - self.s_turn
        th0, k = self.line.theta, self.kappa
        th = th0 + k * ds
        dx = (math.sin(th) - math.sin(th0)) / k
        dy = -(math.cos(th) - math.cos(th0)) / k
        return self.anchor + np.array([dx, dy])

    def heading(self, s):
        if s <= self.s_turn:
            return self.line.theta
        return self.line.theta + self.kappa * (s - self.s_turn)


class _LaneChangePath(_Path):
    """Straight path with a smooth lateral shift of `delta` meters starting
    at arc length s0 over `length` meters."""

    def __init__(self, start, theta, s0, length, delta):
        self.line = _Line(start, theta)
        self.s0 = s0
        self.length = length
        self.delta = delta

    def _offset(self, s):
        u = np.clip((s - self.s0) / self.length, 0.0, 1.0)
        return self.delta * (3 * u * u - 2 * u ** 3)

    def pos(self, s):
        n = np.array([-math.sin(self.line.theta), math.cos(self.line.theta)])
        return self.line.pos(s) + self._offset(s) * n

    def heading(self, s):
        u = np.clip((s - self.s0) / self.length, 0.0, 1.0)
        slope = self.delta * 6 * (u - u * u) / self.length
        return self.line.theta + math.atan(slope)


def _roll_accel(rng: np.random.Generator, v0: float,
                total_time: float) -> float:
    """0 half the time, otherwise a mild acceleration or deceleration that
    keeps the speed above 1 m/s."""
    roll = rng.uniform()
    if roll < 0.5:
        return 0.0
    mag = rng.uniform(0.3, 0.8)
    if roll < 0.75:
        return mag
    return -min(mag, max(v0 - 1.0, 0.0) / total_time)


@dataclass
class _AgentSpec:
    agent_id: str
    agent_class: str
    path: _Path
    v0: float
    accel: float = 0.0


def _roll_agent(spec: _AgentSpec, H: int, T: int, dt: float,
                rng: np.random.Generator, jitter: float) -> AgentHistory:
    steps = H + 1 + T
    speeds = np.maximum(spec.v0 + spec.accel * dt * np.arange(steps), 0.3)
    s = np.concatenate([[0.0], np.cumsum(speeds[:-1] * dt)])
    pts = np.array([spec.path.pos(si) for si in s])
    yaws = np.array([spec.path.heading(si) for si in s])
    pts = pts + rng.normal(0.0, jitter, size=pts.shape)

    vel = np.empty_like(pts)
    vel[:-1] = (pts[1:] - pts[:-1]) / dt
    vel[-1] = vel[-2]

    kin = np.column_stack([pts, yaws, vel])
    return AgentHistory(spec.agent_id, spec.agent_class,
                        *AGENT_DIMS[spec.agent_class], kin[:H + 1],
                        kin[H + 1:])


def _sample_polyline(path: _Path, s_lo: float, s_hi: float, kind: str,
                     offset: float = 0.0, spacing: float = 3.0
                     ) -> list[MapPolyline]:
    n = max(int(math.ceil((s_hi - s_lo) / spacing)) + 1, 2)
    ss = np.linspace(s_lo, s_hi, n)
    pts = np.array([path.pos(s) + offset * path.normal(s) for s in ss])
    out = []
    for lo in range(0, len(pts) - 1, MAX_POLYLINE_POINTS - 1):
        chunk = pts[lo:lo + MAX_POLYLINE_POINTS]
        if len(chunk) >= 2:
            out.append(MapPolyline(chunk, kind))
    return out


def _rotated_rows(kin: np.ndarray, angle: float) -> np.ndarray:
    """Rows [S, 5] rotated by angle about the origin. Positions and
    velocities go through a batched 2x2 matmul, which rounds as ``R @ p``
    on one vector does, and yaws through the scalar ``wrap_angle``."""
    R = rotation(angle)
    out = np.empty_like(kin)
    out[:, :2] = (R @ kin[:, :2, None])[:, :, 0]
    out[:, 3:] = (R @ kin[:, 3:, None])[:, :, 0]
    out[:, 2] = [wrap_angle(yaw + angle) for yaw in kin[:, 2].tolist()]
    return out


def _blocks(agents: list[AgentHistory]) -> list[np.ndarray]:
    return [kin for a in agents for kin in (a.past, a.future)
            if kin is not None]


def _stack_rows(agents: list[AgentHistory]) -> np.ndarray:
    """Every past and future row of the agents, agent by agent: [S, 5]."""
    return np.concatenate(_blocks(agents))


def _split_rows(agents: list[AgentHistory], kin: np.ndarray
                ) -> list[AgentHistory]:
    """The agents with their rows replaced by those of kin, which is laid
    out as ``_stack_rows`` lays them out."""
    parts = iter(np.split(kin, np.cumsum([len(b) for b in
                                          _blocks(agents)])[:-1]))
    return [replace(a, past=next(parts),
                    future=None if a.future is None else next(parts))
            for a in agents]


def _apply_rigid(scn: Scenario, origin: np.ndarray, angle: float) -> Scenario:
    """Rotate by angle then translate by origin (scene augmentation)."""
    kin = _rotated_rows(_stack_rows(scn.agents), angle)
    kin[:, :2] += origin
    waypoints = scn.map.waypoints @ rotation(angle).T + origin
    return replace(scn, agents=_split_rows(scn.agents, kin),
                   map=scn.map.moved(waypoints))


def generate_scenario(template: str, n_agents: int, seed: int,
                      H: int = DEFAULT_H, T: int = DEFAULT_T,
                      dt: float = DEFAULT_DT,
                      jitter: float = JITTER_STD) -> Scenario:
    """Build one seeded scenario of the given template.

    The scene is constructed with the ego heading +x through the origin and
    then rotated/translated by a random rigid transform. crossing_conflict
    always contains at least three agents: the ego, a crossing vehicle timed
    to a sub-2 m encounter with it t_star seconds (2-4 s) after t=0, and a
    pedestrian that walks across the ego's lane on a crosswalk, reaching the
    crosswalk's middle within the horizon, t_star seconds before the ego
    gets there. At t=0 the pedestrian is thus far ahead of the ego, often
    beyond a 50 m context radius, in which case `predict` drops it.

    An unknown template, n_agents, H or T below 1, or dt <= 0 raises
    ValueError; the message starts with "<parameter>:".
    """
    if template not in TEMPLATES:
        raise ValueError(f"template: unknown template {template!r}; "
                         f"expected one of {TEMPLATES}")
    for name, value in (("n_agents", n_agents), ("H", H), ("T", T)):
        if value < 1:
            raise ValueError(f"{name}: {value!r} is not >= 1")
    if not dt > 0:
        raise ValueError(f"dt: {dt!r} is not positive")
    rng = np.random.default_rng(seed)
    total_time = (H + T) * dt
    specs: list[_AgentSpec] = []
    polys: list[MapPolyline] = []

    def lane_neighbor(idx: int, theta: float = 0.0) -> _AgentSpec:
        lat = rng.choice([-LANE_WIDTH, LANE_WIDTH, 2 * LANE_WIDTH])
        lon = rng.uniform(8.0, 25.0) * rng.choice([-1.0, 1.0])
        v0 = rng.uniform(4.0, 12.0)
        cls = "truck" if rng.uniform() < 0.15 else "car"
        u = np.array([math.cos(theta), math.sin(theta)])
        n = np.array([-math.sin(theta), math.cos(theta)])
        start = lon * u + lat * n - v0 * H * dt * u
        return _AgentSpec(f"a{idx}", cls, _Line(start, theta), v0,
                          _roll_accel(rng, v0, total_time))

    if template in ("straight", "left_turn", "right_turn", "merge"):
        v0 = rng.uniform(5.0, 13.0)
        ego_start = np.array([-v0 * H * dt, 0.0])
        s_now = v0 * H * dt  # ego arc length at t = 0 (pre-acceleration)
        if template == "straight":
            ego_path: _Path = _Line(ego_start, 0.0)
            accel = _roll_accel(rng, v0, total_time)
        elif template == "merge":
            delta = LANE_WIDTH * rng.choice([-1.0, 1.0])
            ego_path = _LaneChangePath(ego_start, 0.0,
                                       s_now + rng.uniform(0.0, 5.0),
                                       rng.uniform(25.0, 40.0), delta)
            accel = _roll_accel(rng, v0, total_time)
        else:
            sign = 1.0 if template == "left_turn" else -1.0
            dpsi = sign * rng.uniform(0.6, 1.1)
            arc_len = v0 * T * dt
            ego_path = _TurnPath(ego_start, 0.0,
                                 s_now + rng.uniform(0.0, 0.2) * arc_len,
                                 dpsi / arc_len)
            accel = 0.0
        specs.append(_AgentSpec("ego", "car", ego_path, v0, accel))
        for k in range(1, n_agents):
            specs.append(lane_neighbor(k))
        s_end = v0 * (H + T) * dt + 0.5 * abs(accel) * total_time ** 2
        polys += _sample_polyline(ego_path, -5.0, s_end + 8.0, "lane_center")
        for side in (-1.0, 1.0):
            polys += _sample_polyline(ego_path, -5.0, s_end + 8.0,
                                      "road_boundary",
                                      offset=side * ROAD_HALF_WIDTH)
        for spec in specs[1:]:
            if spec.agent_class in ("car", "truck"):
                polys += _sample_polyline(
                    spec.path, -5.0, spec.v0 * (H + T) * dt + 8.0,
                    "lane_center")
    else:  # crossing_conflict
        n_agents = max(n_agents, 3)
        v_e = rng.uniform(6.0, 11.0)
        t_star = rng.uniform(2.0, 4.0)   # seconds after t=0
        ego_path = _Line(np.array([-v_e * (t_star + H * dt), 0.0]), 0.0)
        specs.append(_AgentSpec("ego", "car", ego_path, v_e, 0.0))

        v_c = rng.uniform(6.0, 11.0)
        miss = rng.uniform(-1.0, 1.0)
        c_dir = rng.choice([1.0, -1.0])
        cross_path = _Line(
            np.array([miss, -c_dir * v_c * (t_star + H * dt)]),
            c_dir * math.pi / 2)
        specs.append(_AgentSpec("crosser", "car", cross_path, v_c, 0.0))

        v_p = rng.uniform(0.9, 1.6)
        t_ped = rng.uniform(1.0, 4.5)
        p_dir = rng.choice([1.0, -1.0])
        ped_gap = rng.uniform(-0.5, 0.5)
        x_ped = v_e * t_ped
        ped_path = _Line(
            np.array([x_ped, -p_dir * v_p * (t_ped + H * dt) + ped_gap]),
            p_dir * math.pi / 2)
        specs.append(_AgentSpec("ped", "pedestrian", ped_path, v_p, 0.0))
        for k in range(3, n_agents):
            specs.append(lane_neighbor(k))

        s_end = v_e * (t_star + 2.0 + H * dt)
        polys += _sample_polyline(ego_path, -5.0, s_end + 8.0, "lane_center")
        for side in (-1.0, 1.0):
            polys += _sample_polyline(ego_path, -5.0, s_end + 8.0,
                                      "road_boundary",
                                      offset=side * ROAD_HALF_WIDTH)
        polys += _sample_polyline(cross_path, -5.0,
                                  v_c * (t_star + 2.0 + H * dt) + 8.0,
                                  "lane_center")
        polys.append(MapPolyline(
            np.array([[x_ped, -4.5], [x_ped, 0.0], [x_ped, 4.5]]),
            "crosswalk"))

    agents = [_roll_agent(spec, H, T, dt, rng, jitter) for spec in specs]
    scn = Scenario(agents, RoadMap.from_polylines(polys), H, T, dt,
                   ego_index=0,
                   scenario_id=f"{template}-{seed}", template=template)
    angle = rng.uniform(0.0, 2 * math.pi)
    origin = rng.uniform(-30.0, 30.0, size=2)
    return _apply_rigid(scn, origin, angle)


def min_future_separation(scn: Scenario) -> float:
    """Smallest center distance between any agent pair over the future."""
    tracks = [a.future[:, :2] for a in scn.agents if a.future is not None]
    best = math.inf
    for i in range(len(tracks)):
        for j in range(i + 1, len(tracks)):
            d = np.linalg.norm(tracks[i] - tracks[j], axis=1).min()
            best = min(best, float(d))
    return best


# --------------------------------------------------------------------------
# Local frames
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Frame:
    """Pose (origin, heading) defining a local coordinate frame."""
    origin: np.ndarray
    angle: float

    def to_local(self, pts: np.ndarray) -> np.ndarray:
        return (np.asarray(pts) - self.origin) @ rotation(-self.angle).T

    def to_global(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(pts) @ rotation(self.angle).T + self.origin


def pose_frame(scn: Scenario, agent_id: str) -> Frame:
    cur = scn.agent_by_id(agent_id).current
    return Frame(cur.position, cur.yaw)


def local_frame(scn: Scenario, agent_id: str,
                radius: float = 50.0) -> Scenario:
    """Re-express the scenario in the given agent's current pose, keeping
    only agents (by current position) and polylines (by any waypoint)
    within `radius` of that agent."""
    frame = pose_frame(scn, agent_id)

    d = scn.current_kinematics()[:, :2] - frame.origin
    # sqrt of a batched-matmul dot rounds as np.linalg.norm of one 2-vector
    near = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0]) <= radius
    kept = [a for a, keep in zip(scn.agents, near) if keep]
    ego_index = next(i for i, a in enumerate(kept)
                     if a.agent_id == agent_id)

    # every kept row, past and future, in one array op, rounding as
    # transform_state does (subtracting 0 from yaw and velocity is exact)
    shift = np.concatenate([frame.origin, np.zeros(3)])
    moved = _rotated_rows(_stack_rows(kept) - shift, -frame.angle)

    # waypoints as one matmul, which rounds as per-polyline to_local does
    dists = np.linalg.norm(scn.map.waypoints - frame.origin, axis=-1)
    reach = np.where(scn.map.valid, dists, np.inf).min(axis=1,
                                                        initial=np.inf)
    polys = scn.map.select(reach <= radius)
    return replace(scn, agents=_split_rows(kept, moved),
                   map=polys.moved(frame.to_local(polys.waypoints)),
                   ego_index=ego_index)
