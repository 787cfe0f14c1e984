"""Agent-pair spatial encodings and body-point geometry.

All functions are pure. Angles are radians, positions meters, velocities m/s.
Degenerate inputs (stopped agents, coincident positions) fall back to the yaw
direction / a fixed bearing instead of producing NaN.

The package's 2-vector lengths, dot and cross products, rotations and angle
wraps are ``norm2``, ``dot2``, ``cross2``, ``rotate2`` and ``wrap_angle``,
so array code and per-state references round alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

SPEED_EPS = 1e-6   # below this an agent counts as stationary
DIST_EPS = 1e-6    # below this two positions count as coincident

PROTECTED_CLASSES = frozenset({"car", "truck"})
AGENT_CLASSES = ("car", "truck", "pedestrian", "cyclist")


class CollisionRegion(str, Enum):
    FRONT = "front"
    SIDE = "side"
    REAR = "rear"


@dataclass
class AgentState:
    x: float
    y: float
    yaw: float
    vx: float
    vy: float
    length: float = 4.5
    width: float = 1.8
    mass: float = 1500.0
    agent_class: str = "car"

    def __post_init__(self):
        if self.length <= 0 or self.width <= 0 or self.mass <= 0:
            raise ValueError("length, width and mass must be positive")
        if self.agent_class not in AGENT_CLASSES:
            raise ValueError(f"unknown agent class {self.agent_class!r}")

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])

    @property
    def velocity(self) -> np.ndarray:
        return np.array([self.vx, self.vy])

    @property
    def speed(self) -> float:
        return float(norm2(self.velocity))

    @property
    def protected_flag(self) -> bool:
        return self.agent_class in PROTECTED_CLASSES

    def direction(self) -> np.ndarray:
        """Unit motion direction; yaw direction when (nearly) stopped."""
        s = self.speed
        if s < SPEED_EPS:
            return np.array([math.cos(self.yaw), math.sin(self.yaw)])
        return self.velocity / s


@dataclass(frozen=True)
class RelEncoding:
    sin_heading_diff: float
    cos_heading_diff: float
    sin_bearing: float
    cos_bearing: float
    distance: float

    def as_array(self) -> np.ndarray:
        return np.array([self.sin_heading_diff, self.cos_heading_diff,
                         self.sin_bearing, self.cos_bearing, self.distance])


def relative_encoding(i: AgentState, j: AgentState) -> RelEncoding:
    """Five-number relative pose of j as seen against i: sine/cosine of the
    heading difference, sine/cosine of the bearing of the displacement against
    j's direction, and the center distance."""
    ui = i.direction()
    uj = j.direction()
    sin_a = float(cross2(ui, uj))
    cos_a = float(dot2(ui, uj))

    d = j.position - i.position
    dist = float(norm2(d))
    if dist < DIST_EPS:
        sin_b, cos_b = 0.0, 1.0
    else:
        dn = d / dist
        sin_b = float(cross2(dn, uj))
        cos_b = float(dot2(dn, uj))
    return RelEncoding(sin_a, cos_a, sin_b, cos_b, dist)


def body_points(a: AgentState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(front, center, rear) positions along the agent's yaw axis."""
    u = np.array([math.cos(a.yaw), math.sin(a.yaw)])
    half = 0.5 * a.length
    c = a.position
    return c + half * u, c, c - half * u


def collision_angle(i: AgentState, j: AgentState) -> float:
    """Angle between the two motion directions, folded to [0, pi]."""
    ui = i.direction()
    uj = j.direction()
    return math.acos(float(np.clip(dot2(ui, uj), -1.0, 1.0)))


def collision_region(victim: AgentState, other: AgentState) -> CollisionRegion:
    """Which part of the victim is struck, from the bearing of the other
    agent in the victim's frame, folded symmetrically about the axis."""
    d = other.position - victim.position
    if norm2(d) < DIST_EPS:
        return CollisionRegion.FRONT
    bearing = abs(wrap_angle(np.arctan2(d[1], d[0]) - victim.yaw))
    if bearing <= math.pi / 4:
        return CollisionRegion.FRONT
    if bearing >= 3 * math.pi / 4:
        return CollisionRegion.REAR
    return CollisionRegion.SIDE


def transform_state(a: AgentState, origin: np.ndarray,
                    angle: float) -> AgentState:
    """Express a state in the frame anchored at origin with heading angle
    (rigid transform: rotate by -angle after translating)."""
    p = rotate2(a.position - origin, -angle)
    v = rotate2(a.velocity, -angle)
    return AgentState(p[0], p[1], wrap_angle(a.yaw - angle), v[0], v[1],
                      a.length, a.width, a.mass, a.agent_class)


def norm2(d: np.ndarray) -> np.ndarray:
    """Length of each 2-vector along the last axis, sqrt(x*x + y*y), with no
    scaling against overflow: a component of 1.3e154 or more gives inf."""
    return np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1])


def dot2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x*x' + y*y' of the 2-vectors along the last axis."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def cross2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x*y' - y*x' of the 2-vectors along the last axis."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def rotate2(v: np.ndarray, angle: float) -> np.ndarray:
    """The 2-vectors along the last axis rotated by the scalar angle,
    (x c - y s, x s + y c) with c = cos(angle) and s = sin(angle)."""
    c, s = math.cos(angle), math.sin(angle)
    x, y = v[..., 0], v[..., 1]
    xc = x * c
    out = np.empty(xc.shape + (2,), xc.dtype)
    np.subtract(xc, y * s, out=out[..., 0])
    np.add(x * s, y * c, out=out[..., 1])
    return out


def wrap_angle(angle: np.ndarray) -> np.ndarray:
    """Each angle wrapped to [-pi, pi] as atan2(sin a, cos a)."""
    return np.arctan2(np.sin(angle), np.cos(angle))
