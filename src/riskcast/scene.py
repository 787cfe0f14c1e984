"""Scenario data model, JSON (de)serialization with validation, a seeded
synthetic scenario generator, and local-frame extraction.

A scenario holds, per agent, H+1 past states (the last one is "now") and
optionally T ground-truth future states, plus map polylines. The scene owns
them as arrays whose row i is agent i (``AGENT_FIELDS``):

- ``past`` is float64 ``[N, H+1, 5]`` and ``future`` ``[N, T, 5]``, columns
  ``KINEMATICS`` = (x, y, yaw, vx, vy); ``has_future`` ``[N]`` marks the
  agents that have a future (a file may give an agent none), and the future
  rows of the others are ignored. ``agent_ids``, ``agent_classes`` and
  ``dims`` (columns ``DIMS`` = length, width, mass) complete the agents.
- ``RoadMap`` holds every polyline once: ``waypoints`` ``[P, W, 2]`` padded
  with zeros past each polyline's ``counts[p]`` waypoints, and ``kinds``
  ``[P]`` as indices into ``POLYLINE_KINDS``. Its segments, in polyline then
  waypoint order, are the nearest-boundary search space of the risk kernel.

Every stage reads slices of these arrays: ``Scenario.take`` selects and
reorders agents, ``Scenario.prediction_rows`` joins a prediction to rows by
agent id, and clearing ``has_future`` drops the futures. ``AgentHistory``,
``AgentState`` and ``MapPolyline`` appear only at the boundary, for fixtures
and tests: ``Scenario.from_agents``, ``AgentHistory.from_states`` and
``RoadMap.from_polylines`` build scenes from them, and ``Scenario.agents``,
``AgentHistory.current`` and iterating a ``RoadMap`` build them on demand.
Every stage transforms scenes as array operations that round as the
per-state code they replaced did.

The generator produces kinematically consistent trajectories: velocities are
recomputed from the jittered positions, so position(t+1) = position(t) +
v(t)*dt holds exactly; yaw is taken from the noiseless path heading.

``SCENARIO_SCHEMA`` states the file format as a JSON Schema, and
``load_scenario`` enforces it by walking the schema itself: keyword by
keyword in the schema's order, as a JSON Schema validator visits them, it
reports the first violation at the validator's JSON path. The walk is
stricter than the schema in two ways: every number must be finite (an
integer too large for a float counts as non-finite), and integer fields
(``H``, ``T``, ``ego_index``) must be JSON integers, not floats such as
``0.0``. After the walk, agent ids must be distinct and every history and
future must have its declared length. Arrays of states and of waypoints
come out of the walk as float64 arrays, from which the scene's arrays and
``RoadMap`` are built, and ``dump_scenario`` writes straight from those
arrays. Kinematics and dimensions are stored as float64, so a load and dump
writes an integral value such as ``3`` as ``3.0``.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import sys
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .geometry import AGENT_CLASSES, AgentState, norm2, rotation, wrap_angle

POLYLINE_KINDS = ("lane_center", "road_boundary", "crosswalk")
TEMPLATES = ("straight", "left_turn", "right_turn", "merge",
             "crossing_conflict")
KINEMATICS = ("x", "y", "yaw", "vx", "vy")  # columns of past / future
DIMS = ("length", "width", "mass")            # columns of dims
# the Scenario fields whose row i is agent i
AGENT_FIELDS = ("agent_ids", "agent_classes", "dims", "past", "future",
                "has_future")

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
        return cls.padded([p.waypoints for p in polylines],
                          [p.kind for p in polylines])

    @classmethod
    def padded(cls, waypoints: list[np.ndarray], kinds: list[str]
               ) -> "RoadMap":
        """Polylines of [n, 2] waypoints, n >= 2, and their kind names."""
        counts = np.array([len(w) for w in waypoints], dtype=int)
        padded = np.zeros((len(waypoints), counts.max(initial=0), 2))
        for row, w in zip(padded, waypoints):
            row[:len(w)] = w
        return cls(padded, counts,
                   np.array([POLYLINE_KINDS.index(k) for k in kinds],
                            dtype=int))

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
    """One agent at the boundary: static attributes plus past [H+1, 5] and
    future [T, 5] or None kinematics (x, y, yaw, vx, vy); the last past row
    is "now"."""
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
    """A scene's agents, as the arrays of AGENT_FIELDS, and its map."""
    agent_ids: np.ndarray      # [N] str, object dtype
    agent_classes: np.ndarray  # [N] str, object dtype
    dims: np.ndarray           # [N, 3] columns DIMS
    past: np.ndarray           # [N, H+1, 5] columns KINEMATICS
    future: np.ndarray         # [N, T, 5], rows without has_future ignored
    has_future: np.ndarray     # [N] bool
    map: RoadMap
    horizon_past: int
    horizon_future: int
    dt: float
    ego_index: int = 0
    scenario_id: str = ""
    template: str = ""

    @classmethod
    def from_agents(cls, agents: list[AgentHistory], road_map: RoadMap,
                    horizon_past: int, horizon_future: int, *args
                    ) -> "Scenario":
        """A scene of AgentHistory objects, pasts of H+1 rows and futures of
        T rows or None; `args` are the fields after horizon_future."""
        return cls(*_agent_arrays([astuple(a) for a in agents],
                                  horizon_future),
                   road_map, horizon_past, horizon_future, *args)

    @property
    def agents(self) -> list[AgentHistory]:
        """Every row as an AgentHistory, whose arrays are views of the
        scene's."""
        return [AgentHistory(*static, *dims, past, future if has else None)
                for *static, dims, past, future, has in zip(
                    self.agent_ids, self.agent_classes, self.dims.tolist(),
                    self.past, self.future, self.has_future)]

    @property
    def ego(self) -> AgentHistory:
        return self.agents[self.ego_index]

    @property
    def ego_id(self) -> str:
        return self.agent_ids[self.ego_index]

    def row(self, agent_id: str) -> int:
        """The first row of the agent with this id; KeyError if none."""
        hits = np.flatnonzero(self.agent_ids == agent_id)
        if not hits.size:
            raise KeyError(f"unknown agent_id {agent_id!r}")
        return int(hits[0])

    def agent_by_id(self, agent_id: str) -> AgentHistory:
        return self.agents[self.row(agent_id)]

    def prediction_rows(self, agent_ids: list[str]) -> np.ndarray:
        """The rows a prediction covers, in its order, joined by agent id.
        Agents without a prediction (dropped by the model's context radius)
        are left out; an unknown id or a missing ego raises ValueError."""
        rows = {aid: i for i, aid in enumerate(self.agent_ids)}
        unknown = [aid for aid in agent_ids if aid not in rows]
        if unknown:
            raise ValueError(f"predicted agents not in scenario "
                             f"{self.scenario_id!r}: {unknown}")
        if self.ego_id not in agent_ids:
            raise ValueError(f"scenario {self.scenario_id!r}: no prediction "
                             f"for the ego {self.ego_id!r}")
        return np.array([rows[aid] for aid in agent_ids], dtype=int)

    def take(self, rows) -> "Scenario":
        """The agents of `rows`, in that order; the ego must be among them
        and stays the ego."""
        rows = np.asarray(rows, dtype=int)
        ego = np.flatnonzero(rows == self.ego_index)
        if not ego.size:
            raise ValueError(f"scenario {self.scenario_id!r}: the ego "
                             f"{self.ego_id!r} is not among the rows taken")
        return replace(self, ego_index=int(ego[0]),
                       **{f: getattr(self, f)[rows] for f in AGENT_FIELDS})

    def __eq__(self, other):
        def same(name):
            a, b = getattr(self, name), getattr(other, name)
            if name == "future":
                a, b = a[self.has_future], b[other.has_future]
            return np.array_equal(a, b) if name in AGENT_FIELDS else a == b

        return isinstance(other, Scenario) and all(same(f.name)
                                                   for f in fields(self))


def _agent_arrays(agents: list[tuple], horizon_future: int) -> tuple:
    """The AGENT_FIELDS of a scene of per-agent (id, class, length, width,
    mass, past, future or None) tuples."""
    ids, classes, length, width, mass, pasts, futures = zip(*agents)
    empty = np.zeros((horizon_future, len(KINEMATICS)))
    return (np.array(ids, dtype=object), np.array(classes, dtype=object),
            np.array(list(zip(length, width, mass)), dtype=np.float64),
            np.array(pasts, dtype=np.float64),
            np.array([empty if f is None else f for f in futures],
                     dtype=np.float64),
            np.array([f is not None for f in futures]))


# --------------------------------------------------------------------------
# JSON schema and (de)serialization
# --------------------------------------------------------------------------

_NUMBER = {"type": "number"}
_STATE_SCHEMA = {
    "type": "object",
    "required": list(KINEMATICS),
    "properties": {k: _NUMBER for k in KINEMATICS},
}
_WAYPOINT_SCHEMA = {"type": "array", "items": _NUMBER, "minItems": 2,
                    "maxItems": 2}

# The scenario file format; load_scenario enforces it by walking it.
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
                    "class": {"enum": list(AGENT_CLASSES)},
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
                        "items": _WAYPOINT_SCHEMA,
                    },
                },
            },
        },
    },
}

# JSON Schema type -> the types json.loads gives it (a bool is not an int)
_TYPES = {"object": ((dict,), "an object"), "array": ((list,), "an array"),
          "string": ((str,), "a string"), "integer": ((int,), "an integer"),
          "number": ((int, float), "a number")}
_FLOAT_MAX = sys.float_info.max


def _pair(waypoint) -> list:
    if type(waypoint) is not list or len(waypoint) != 2:
        raise TypeError("not a waypoint")
    return waypoint


# the item schemas (by identity) whose arrays load as one float64 array of
# rows, and the reader of one item's row; it raises KeyError or TypeError
# for an item of another shape
_ROW_READERS = {id(_STATE_SCHEMA): operator.itemgetter(*KINEMATICS),
                id(_WAYPOINT_SCHEMA): _pair}


def _fail(path: str, message: str):
    raise ScenarioError(f"schema violation at {path}: {message}")


def _describe(value) -> str:
    if isinstance(value, dict):
        return "an object"
    if isinstance(value, list):
        return "an array"
    return repr(value)


def _walk(value, schema: dict, path: str):
    """`value` checked against `schema` as a JSON Schema validator checks
    it, keyword by keyword in the schema's order; the first violation
    raises ScenarioError at its JSON path. Two rules are stricter than JSON
    Schema: a number must be finite, and an integer a JSON integer. Returns
    the value with every array of rows (states, waypoints) as a float64
    array."""
    for keyword, arg in schema.items():
        if keyword == "type":
            types, what = _TYPES[arg]
            if type(value) not in types:
                _fail(path, f"expected {what}, got {_describe(value)}")
            if arg == "number" and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
                beyond = " (beyond the float range)" \
                    if type(value) is int else ""
                _fail(path, f"non-finite number {value!r}{beyond}")
        elif keyword == "required":
            for key in arg:
                if key not in value:
                    _fail(path, f"missing required property {key!r}")
        elif keyword == "properties":
            value = value | {key: _walk(value[key], sub, f"{path}.{key}")
                             for key, sub in arg.items() if key in value}
        elif keyword == "items":
            value = _items(value, arg, path)
        elif keyword == "minItems":
            if len(value) < arg:
                _fail(path, f"needs at least {arg} items, got {len(value)}")
        elif keyword == "maxItems":
            if len(value) > arg:
                _fail(path, f"needs at most {arg} items, got {len(value)}")
        elif keyword == "minimum":
            if value < arg:
                _fail(path, f"{value!r} is less than the minimum of {arg}")
        elif keyword == "exclusiveMinimum":
            if value <= arg:
                _fail(path, f"{value!r} is not greater than {arg}")
        elif keyword == "enum":
            if value not in arg:
                _fail(path, f"{_describe(value)} is not one of {arg}")
        else:
            raise NotImplementedError(f"schema keyword {keyword!r}")
    return value


def _items(value: list, items: dict, path: str):
    """The array's items walked; the rows of _ROW_READERS come back as one
    float64 array, at once when every number is a finite float. Other
    arrays are walked item by item, so that the first violation is
    reported at its path."""
    read = _ROW_READERS.get(id(items))
    if read is not None:
        try:
            rows = list(map(read, value))
        except (KeyError, TypeError):
            rows = None
        if rows is not None and set(map(
                type, itertools.chain.from_iterable(rows))) <= {float}:
            kin = np.array(rows, dtype=np.float64)
            if np.isfinite(kin).all():
                return kin
    walked = [_walk(item, items, f"{path}[{i}]")
              for i, item in enumerate(value)]
    if read is None:
        return walked
    return np.array([read(item) for item in walked], dtype=np.float64)


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario JSON document.

    Schema violations report the JSON path of the offending element; history
    or future length mismatches and a repeated id report the agent id.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"invalid JSON: {e}") from e
    doc = _walk(doc, SCENARIO_SCHEMA, "$")
    H, T, ego_index = doc["H"], doc["T"], doc["ego_index"]
    agents = []
    for a in doc["agents"]:
        future = a.get("future", ())
        agents.append((a["id"], a["class"], *(a[k] for k in DIMS),
                       a["states"], future if len(future) else None))

    for agent_id, *_, past, future in agents:
        if len(past) != H + 1:
            raise ScenarioError(
                f"agent {agent_id!r}: expected H+1 = {H + 1} past states, "
                f"got {len(past)}")
        if future is not None and len(future) != T:
            raise ScenarioError(
                f"agent {agent_id!r}: expected T = {T} future states, "
                f"got {len(future)}")
    ids = [a[0] for a in agents]
    if len(set(ids)) < len(ids):
        repeated = next(aid for i, aid in enumerate(ids) if aid in ids[:i])
        raise ScenarioError(f"agent {repeated!r}: the id is repeated")
    if ego_index >= len(agents):
        raise ScenarioError(f"ego_index {ego_index} out of range")
    road = RoadMap.padded([m["waypoints"] for m in doc["map"]],
                          [m["kind"] for m in doc["map"]])
    return Scenario(*_agent_arrays(agents, T), road, H, T, doc["dt"],
                    ego_index, doc.get("scenario_id", ""),
                    doc.get("template", ""))


def _rows_to_json(rows: list) -> list[dict]:
    return [dict(zip(KINEMATICS, row)) for row in rows]


def dump_scenario(scn: Scenario) -> str:
    """Serialize to deterministic JSON (sorted keys, fixed separators)."""
    road = scn.map
    doc = {
        "dt": scn.dt,
        "H": scn.horizon_past,
        "T": scn.horizon_future,
        "ego_index": scn.ego_index,
        "scenario_id": scn.scenario_id,
        "template": scn.template,
        "agents": [
            {"id": agent_id, "class": agent_class, **dict(zip(DIMS, dims)),
             "states": _rows_to_json(past),
             "future": _rows_to_json(future) if has else []}
            for agent_id, agent_class, dims, past, future, has in zip(
                scn.agent_ids.tolist(), scn.agent_classes.tolist(),
                scn.dims.tolist(), scn.past.tolist(), scn.future.tolist(),
                scn.has_future.tolist())
        ],
        "map": [
            {"kind": POLYLINE_KINDS[kind], "waypoints": waypoints[:n]}
            for waypoints, n, kind in zip(road.waypoints.tolist(),
                                          road.counts.tolist(),
                                          road.kinds.tolist())
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=1, allow_nan=False)


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
        th0, k, th = self.line.theta, self.kappa, self.heading(s)
        dx = (math.sin(th) - math.sin(th0)) / k
        dy = -(math.cos(th) - math.cos(th0)) / k
        return self.anchor + np.array([dx, dy])

    def heading(self, s):
        """The heading at arc length s; NaN where the turn angle overflows
        (a curvature from a vanishing time step), which math.sin and
        math.cos pass through."""
        if s <= self.s_turn:
            return self.line.theta
        th = self.line.theta + self.kappa * (s - self.s_turn)
        return th if math.isfinite(th) else math.nan


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
                rng: np.random.Generator, jitter: float) -> tuple:
    """The agent as an ``_agent_arrays`` tuple."""
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
    return (spec.agent_id, spec.agent_class, *AGENT_DIMS[spec.agent_class],
            kin[:H + 1], kin[H + 1:])


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


def _moved_rows(scn: Scenario, move) -> Scenario:
    """The scene with `move`, [S, 5] rows to [S, 5] rows, applied to every
    past row and every future row of the agents that have one, in one
    call; the other future rows are zero."""
    past = scn.past.reshape(-1, len(KINEMATICS))
    kin = move(np.concatenate([past, scn.future[scn.has_future].reshape(
        -1, len(KINEMATICS))]))
    future = np.zeros_like(scn.future)
    future[scn.has_future] = kin[len(past):].reshape(
        -1, *scn.future.shape[1:])
    return replace(scn, past=kin[:len(past)].reshape(scn.past.shape),
                   future=future)


def _apply_rigid(scn: Scenario, origin: np.ndarray, angle: float) -> Scenario:
    """Rotate by angle then translate by origin (scene augmentation)."""
    def move(kin):
        kin = _rotated_rows(kin, angle)
        kin[:, :2] += origin
        return kin

    waypoints = scn.map.waypoints @ rotation(angle).T + origin
    return replace(_moved_rows(scn, move), map=scn.map.moved(waypoints))


# a time step small enough to overflow the kinematics is reported by the
# finiteness check at the end, not by numpy's warnings on the way
@np.errstate(over="ignore", invalid="ignore")
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

    An unknown template, a negative seed, n_agents, H or T below 1,
    dt <= 0, or a dt so small that the kinematics or the map are not finite
    raises ValueError; the message starts with "<parameter>:".
    """
    if template not in TEMPLATES:
        raise ValueError(f"template: unknown template {template!r}; "
                         f"expected one of {TEMPLATES}")
    for name, value, low in (("seed", seed, 0), ("n_agents", n_agents, 1),
                             ("H", H, 1), ("T", T, 1)):
        if value < low:
            raise ValueError(f"{name}: {value!r} is not >= {low}")
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
    scn = Scenario(*_agent_arrays(agents, T), RoadMap.from_polylines(polys),
                   H, T, dt, ego_index=0, scenario_id=f"{template}-{seed}",
                   template=template)
    angle = rng.uniform(0.0, 2 * math.pi)
    origin = rng.uniform(-30.0, 30.0, size=2)
    scn = _apply_rigid(scn, origin, angle)
    if not all(np.isfinite(a).all()
               for a in (scn.past, scn.future, scn.map.waypoints)):
        raise ValueError(f"dt: {dt!r} gives non-finite kinematics")
    return scn


def min_future_separation(scn: Scenario) -> float:
    """Smallest center distance between any agent pair over the future."""
    tracks = scn.future[scn.has_future, :, :2]
    i, j = np.triu_indices(len(tracks), 1)
    return float(norm2(tracks[i] - tracks[j]).min(initial=math.inf))


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
    x, y, yaw = scn.past[scn.row(agent_id), -1, :3].tolist()
    return Frame(np.array([x, y]), yaw)


def local_frame(scn: Scenario, agent_id: str,
                radius: float = 50.0) -> Scenario:
    """Re-express the scenario in the given agent's current pose, keeping
    only agents (by current position) and polylines (by any waypoint)
    within `radius` of that agent."""
    frame = pose_frame(scn, agent_id)

    d = scn.past[:, -1, :2] - frame.origin
    # sqrt of a batched-matmul dot rounds as np.linalg.norm of one 2-vector
    near = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0]) <= radius
    # the agent whose frame this is becomes the ego
    kept = replace(scn, ego_index=scn.row(agent_id)).take(
        np.flatnonzero(near))

    # every kept row, past and future, in one array op, rounding as
    # transform_state does (subtracting 0 from yaw and velocity is exact)
    shift = np.concatenate([frame.origin, np.zeros(3)])
    moved = _moved_rows(kept, lambda kin: _rotated_rows(kin - shift,
                                                        -frame.angle))

    # waypoints as one matmul, which rounds as per-polyline to_local does
    dists = norm2(scn.map.waypoints - frame.origin)
    reach = np.where(scn.map.valid, dists, np.inf).min(axis=1,
                                                        initial=np.inf)
    polys = scn.map.select(reach <= radius)
    return replace(moved, map=polys.moved(frame.to_local(polys.waypoints)))
