"""Collision-probability, harm and risk-ethics costs, and risk-based ranking
of candidate joint trajectories.

The production path is one array kernel, `risk_kernel`, over a `MotionBatch`
of K candidate modes x N agents x T future steps. Every agent other than the
ego is a potential victim of the ego; the M = N - 1 victims keep their batch
order.

Pair risk. For each (mode, victim, step) the kernel takes the offsets from
the victim's three body points (front, center, rear) to the ego's center,
[K, M, T, 3, 2], and their lengths [K, M, T, 3]. `disc_probability` gives
the chance that an isotropic Gaussian (the position uncertainty of both
agents combined, sqrt(2) sigma_t) lands within (width_victim +
width_ego)/2 of a body point. The disc integral is the noncentral
chi-square CDF, set to 0 where a Rayleigh tail bound proves it below
6.2e-14, with a closed-form derivative in the distance. The three
probabilities are summed and clamped to [0, 1], giving the collision
probability [K, M, T]. Harm [K, M, T] maps the victim's post-collision
speed change (delta-v from the masses, speeds and collision angle) and the
struck region (front, side or rear, from the bearing of the ego in the
victim's frame) through the numerically stable logistic `nn.sigmoid`,
times the victim's harm scale; the kernel keeps delta-v and the region too.
A victim's risk is the maximum over T of harm x probability; the kernel
keeps the argmax step and the summed probabilities there.

The CDF gate. The CDF is most of the kernel's cost, and most steps cannot
set a victim's risk. With alpha = dist / sigma and beta = radius / sigma,
each disc probability is at most min(1, beta^2 / 2) exp(-max(alpha - beta,
0)^2 / 2): the disc area times the peak Gaussian density on the disc,
capped by the Rayleigh tail. Harm times the clamped sum of the three bounds,
times (1 + BOUND_SLACK), bounds harm x probability at a step (`pair_bound`).
The kernel evaluates `disc_probability` at each (mode, victim)'s
largest-bound step, which gives a lower bound L on its risk, and then only
at the steps whose bound is not below L; a step whose body points all lie
beyond the tail cut has probability exactly 0 and needs no call. Every
skipped step lies strictly below the maximum, so `risks`, `steps`, the
boundary, the loss and the gradient are those of the full evaluation, bit
for bit. `RiskTerms.prob_sums` and `probs`, at every step, are computed on
first read by the full `disc_probability` call; ranking and training do not
read them.

Boundary risk. The ego's clearance to the nearest road-boundary segment,
[K, T] from one point-to-all-segments op over [K, T, S] (the segments of the
scene's `RoadMap` of boundaries, in polyline order), goes through a
`disc_probability` call of its own (radius half the ego width, sigma_t); harm
takes the ego speed as delta-v with a side impact.

The safety, care and responsiveness costs then aggregate each mode's victim
risks and boundary risk. `rank_trajectories` runs the kernel once for all K
modes and reads each mode through `mode_risk_report`. `risk_loss_and_grad`
runs it on the selected mode and differentiates through the collision
probabilities and the boundary clearance only: harm factors, struck regions
and argmax steps are constants, so the gradient reuses the forward's argmax
and evaluates `disc_probability_ddist` only at the argmax step of each
victim and of the boundary.

The scalar functions (`collision_probability`, `pair_harm`, `delta_v`,
`harm`) take one pair of `AgentState`s at one step and are the per-step
reference the tests compare the kernel against; `MotionBatch.state` reads
such a state out of the kernel's arrays, and the body points, collision
angle and struck region come from `geometry`. The region coefficients and
the logistic intercept/slope are config placeholders (the formulas, not
these values, are what the tests pin down).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import chdtr, chndtr, i1e

from . import nn
from .geometry import (DIST_EPS, PROTECTED_CLASSES, SPEED_EPS, AgentState,
                       CollisionRegion, body_points, collision_angle,
                       collision_region, norm2)
from .intention import JointPrediction
from .scene import RoadMap, Scenario


@dataclass
class UncertaintyModel:
    """Isotropic position uncertainty growing linearly with the step."""
    sigma0: float = 0.5   # meters at the first future step's horizon start
    growth: float = 0.05  # meters per future step

    def sigma(self, step: int) -> float:
        s = self.sigma0 + self.growth * step
        if s <= 0:
            raise ValueError("uncertainty sigma must stay positive")
        return s

    def sigma_array(self, horizon: int) -> np.ndarray:
        """sigma(1), ..., sigma(horizon)."""
        s = self.sigma0 + self.growth * np.arange(1, horizon + 1)
        if (s <= 0).any():
            raise ValueError("uncertainty sigma must stay positive")
        return s


@dataclass
class HarmCoefficients:
    mu0: float = -6.0
    mu1: float = 0.4   # per m/s of delta-v; must be positive
    mu_area: dict = field(default_factory=lambda: {
        CollisionRegion.FRONT: 0.2,
        CollisionRegion.SIDE: 0.8,
        CollisionRegion.REAR: 0.0,
    })

    def __post_init__(self):
        if self.mu1 <= 0:
            raise ValueError(f"mu1: {self.mu1!r} is not positive (harm "
                             f"grows with delta-v)")


@dataclass
class RiskConfig:
    uncertainty: UncertaintyModel = field(default_factory=UncertaintyModel)
    harm: HarmCoefficients = field(default_factory=HarmCoefficients)
    weights: tuple[float, float, float] = (33.3, 33.3, 33.3)
    responsiveness_scale: float = 1.0
    prob_tradeoff: float = 1.0        # lambda on -log p_k in the mode score
    protected_harm_scale: float = 1.0
    unprotected_harm_scale: float = 2.0

    def harm_scale(self, protected_flag: bool) -> float:
        return (self.protected_harm_scale if protected_flag
                else self.unprotected_harm_scale)


# --------------------------------------------------------------------------
# Geometry-level probability pieces
# --------------------------------------------------------------------------

# alpha - beta past which `disc_probability` returns 0; the probabilities it
# drops are at most exp(-TAIL_CUT**2 / 2) = 6.2e-14
TAIL_CUT = 7.8


def disc_probability(dist: float | np.ndarray, radius: float | np.ndarray,
                     sigma: float | np.ndarray) -> np.ndarray:
    """P(|X - b| < radius) for X ~ N(c, sigma^2 I) in the plane, with
    dist = |c - b|: the noncentral chi-square CDF with 2 degrees of freedom
    at (radius / sigma)^2 with noncentrality (dist / sigma)^2, by
    `scipy.special.chndtr` (`chdtr`, the central CDF, where dist = 0).

    Tail gate. Let alpha = dist / sigma and beta = radius / sigma. When
    alpha > beta, every point X of the disc has
    |X - c| >= |c - b| - |X - b| > dist - radius, so the disc lies outside
    the circle of radius dist - radius around c. |X - c| / sigma is Rayleigh
    distributed, hence
        P <= P(|X - c| > dist - radius) = exp(-(alpha - beta)^2 / 2).
    Elements with alpha - beta > TAIL_CUT = 7.8 are returned as exactly 0,
    off by at most exp(-7.8^2 / 2) = 6.2e-14 each, without evaluating the
    CDF series, whose cost grows with the noncentrality. A NaN distance
    stays NaN.
    """
    alpha = np.asarray(dist, dtype=np.float64) / sigma
    beta = np.asarray(radius, dtype=np.float64) / sigma
    if alpha.shape != beta.shape:
        alpha, beta = np.broadcast_arrays(alpha, beta)
    near = ~(alpha - beta > TAIL_CUT)
    x, nc = beta[near] ** 2, alpha[near] ** 2
    p_near = chndtr(x, 2.0, nc)
    central = nc == 0.0
    if central.any():
        p_near[central] = chdtr(2.0, x[central])
    p = np.zeros(alpha.shape)
    p[near] = np.clip(p_near, 0.0, 1.0)
    return p


def disc_probability_ddist(dist: float | np.ndarray, radius: float,
                           sigma: float | np.ndarray) -> np.ndarray:
    """d disc_probability / d dist (closed form via the Marcum Q identity:
    dQ1(a,b)/da = b * exp(-(a^2+b^2)/2) * I1(ab))."""
    dist = np.asarray(dist, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    a = dist / sigma
    b = radius / sigma
    return -(b / sigma) * np.exp(-0.5 * (a - b) ** 2) * i1e(a * b)


# --------------------------------------------------------------------------
# Scalar reference formulas (one pair, one step)
# --------------------------------------------------------------------------

def collision_probability(victim: AgentState, other: AgentState,
                          sigma: float) -> float:
    """Collision probability of the pair at a step whose position
    uncertainty is sigma: the disc integrals around the victim's three body
    points against the other's center, summed and clamped to [0, 1]."""
    pair_sigma = math.sqrt(2.0) * sigma  # both positions uncertain
    radius = 0.5 * (victim.width + other.width)
    dists = np.linalg.norm(np.stack(body_points(victim)) - other.position,
                           axis=1)
    return float(min(disc_probability(dists, radius, pair_sigma).sum(), 1.0))


def delta_v(m_a: float, m_b: float, v_a: float, v_b: float,
            theta: float) -> float:
    """Post-collision speed change of party A against party B with the
    given masses, speeds, and collision angle."""
    if m_a <= 0 or m_b <= 0:
        raise ValueError("masses must be positive")
    rel = math.sqrt(max(v_a * v_a + v_b * v_b
                        - 2.0 * v_a * v_b * math.cos(theta), 0.0))
    return m_b / (m_a + m_b) * rel


def harm(dv: float, region: CollisionRegion,
         coeffs: HarmCoefficients) -> float:
    """Logistic injury severity for the given delta-v and struck region."""
    z = coeffs.mu0 + coeffs.mu1 * dv + coeffs.mu_area[region]
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def pair_harm(victim: AgentState, other: AgentState,
              coeffs: HarmCoefficients, harm_scale: float = 1.0) -> float:
    """Harm borne by the victim in a collision with the other."""
    # sqrt(vx*vx + vy*vy) rounds as the kernel's speeds do; hypot
    # (AgentState.speed) does not, which moves the harm where the two
    # speeds nearly cancel in delta-v
    v_victim = math.sqrt(victim.vx * victim.vx + victim.vy * victim.vy)
    v_other = math.sqrt(other.vx * other.vx + other.vy * other.vy)
    dv = delta_v(victim.mass, other.mass, v_victim, v_other,
                 collision_angle(victim, other))
    return harm(dv, collision_region(victim, other), coeffs) * harm_scale


# --------------------------------------------------------------------------
# Batched kernel over [K modes, N agents, T steps]
# --------------------------------------------------------------------------

@dataclass
class MotionBatch:
    """K candidate futures of N agents: the input of `risk_kernel`."""
    agent_ids: list[str]
    positions: np.ndarray    # [K, N, T, 2]
    velocities: np.ndarray   # [K, N, T, 2]
    yaws: np.ndarray         # [K, N, T]
    lengths: np.ndarray      # [N]
    widths: np.ndarray       # [N]
    masses: np.ndarray       # [N]
    agent_classes: list[str]  # [N]

    def state(self, k: int, i: int, t: int) -> AgentState:
        """Agent i at step t of mode k, as the per-step references take
        it."""
        (x, y), (vx, vy) = self.positions[k, i, t], self.velocities[k, i, t]
        return AgentState(x, y, self.yaws[k, i, t], vx, vy, self.lengths[i],
                          self.widths[i], self.masses[i],
                          self.agent_classes[i])


def batch_from_prediction(scn: Scenario, positions: np.ndarray
                          ) -> MotionBatch:
    """Decoded positions [K, N, T, 2] of the scene's agents, in row order.
    Velocities are finite differences anchored at each agent's current
    position; yaws follow the velocity (the current yaw while stopped)."""
    positions = np.asarray(positions, dtype=np.float64)
    n = len(scn.agent_ids)
    if positions.ndim != 4 or positions.shape[1] != n \
            or positions.shape[3] != 2:
        raise ValueError(f"positions {positions.shape} do not match "
                         f"[K, {n}, T, 2]")
    cur = scn.past[:, -1]                                   # [N, 5]
    start = cur[None, :, None, :2]
    anchored = np.concatenate([
        np.broadcast_to(start, positions.shape[:2] + (1, 2)), positions],
        axis=2)
    vel = np.diff(anchored, axis=2) / scn.dt
    speeds = norm2(vel)
    yaws = np.where(speeds > SPEED_EPS, np.arctan2(vel[..., 1], vel[..., 0]),
                    cur[None, :, None, 2])
    return MotionBatch(scn.agent_ids.tolist(), positions, vel, yaws,
                       *scn.dims.T, scn.agent_classes.tolist())


@dataclass
class RiskTerms:
    """What `risk_kernel` computes for K modes. The M victims are the
    agents other than the ego, in batch order. `prob_sums` and `probs`, at
    every step, are computed on first read; the kernel itself evaluates
    the probabilities only where they can set a risk."""
    victim_ids: list[str]
    victims: np.ndarray        # [M] batch indices
    offsets: np.ndarray        # [K, M, T, 3, 2] ego center minus body point
    dists: np.ndarray          # [K, M, T, 3] their lengths
    radii: np.ndarray          # [M] disc radius of each pair
    pair_sigma: np.ndarray     # [T] uncertainty of the pair
    delta_v: np.ndarray        # [K, M, T] victim's speed change in a collision
    region: np.ndarray         # [K, M, T] struck region, list(CollisionRegion)
    harms: np.ndarray          # [K, M, T] scaled harm borne by the victim
    risks: np.ndarray          # [K, M] max over T of harm * probability
    steps: np.ndarray          # [K, M] the step of that maximum
    step_sums: np.ndarray      # [K, M] the summed probabilities at that step
    clearance: np.ndarray      # [K, T] ego distance to the nearest boundary
    nearest: np.ndarray        # [K, T, 2] nearest boundary point
    boundary_harm: np.ndarray  # [K, T]
    boundary: np.ndarray       # [K] boundary risk
    boundary_step: np.ndarray  # [K] the step of that maximum

    @cached_property
    def prob_sums(self) -> np.ndarray:
        """[K, M, T] summed body-point probabilities."""
        return disc_probability(self.dists, self.radii[:, None, None],
                                self.pair_sigma[:, None]).sum(axis=-1)

    @cached_property
    def probs(self) -> np.ndarray:
        """[K, M, T] the sums clamped to [0, 1]."""
        return np.minimum(self.prob_sums, 1.0)


# RiskTerms.region indexes this list
REGIONS = list(CollisionRegion)
_FRONT, _SIDE, _REAR = (REGIONS.index(r) for r in
                        (CollisionRegion.FRONT, CollisionRegion.SIDE,
                         CollisionRegion.REAR))


def _clearance(points: np.ndarray, polylines: RoadMap
               ) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each point [..., 2] to the nearest segment of the
    polylines, and the nearest point on that segment (the first in segment
    order on a tie). Works on x and y separately: for two components
    x*x + y*y rounds as a norm or sum over a trailing axis of length 2."""
    a, b = polylines.segments()                                 # [S, 2]
    ax, ay = a[:, 0], a[:, 1]
    abx, aby = b[:, 0] - ax, b[:, 1] - ay
    denom = abx * abx + aby * aby
    proper = denom > 0.0
    px, py = points[..., 0, None], points[..., 1, None]
    rx, ry = px - ax, py - ay                                   # [..., S]
    # s = clip((rx * abx + ry * aby) / denom, 0, 1), 0 on a degenerate
    # segment; computed in place, each op rounding as the expression does
    with np.errstate(divide="ignore", invalid="ignore"):
        s = rx * abx
        s += np.multiply(ry, aby, out=ry)
        s /= denom
        np.clip(s, 0.0, 1.0, out=s)
    if not proper.all():
        s[..., ~proper] = 0.0
    # dx = px - (ax + s * abx), and dy alike, into rx and ry
    dx = np.subtract(px, np.add(ax, np.multiply(s, abx, out=rx), out=rx),
                     out=rx)
    dy = np.subtract(py, np.add(ay, np.multiply(s, aby, out=ry), out=ry),
                     out=ry)
    dist = np.multiply(dx, dx, out=dx)
    dist += np.multiply(dy, dy, out=dy)
    np.sqrt(dist, out=dist)
    j = dist.argmin(axis=-1)
    d_j, s_j = (np.take_along_axis(v, j[..., None], axis=-1)[..., 0]
                for v in (dist, s))
    # the nearest point, computed at the picked segment alone
    return d_j, np.stack([ax[j] + s_j * abx[j], ay[j] + s_j * aby[j]],
                         axis=-1)


# relative slack on the pair probability bound of `_gated_risks`, far above
# the rounding of the bound's few operations and the CDF's relative error
# (where the bound is tight, beta -> 0 with alpha <= beta, the CDF exceeds
# it by a few 1e-15)
BOUND_SLACK = 1e-9


def pair_bound(dists: np.ndarray, radii: np.ndarray, pair_sigma: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """[K, M, T] upper bound on the summed body-point probabilities, clamped
    to 1, and [K, M, T] whether all three body points lie beyond TAIL_CUT.

    With alpha = dist / sigma and beta = radius / sigma, each disc
    probability is at most its area times the largest Gaussian density on
    the disc, (beta^2 / 2) exp(-max(alpha - beta, 0)^2 / 2), and at most the
    Rayleigh tail exp(-max(alpha - beta, 0)^2 / 2) that `disc_probability`
    already uses; so at most min(1, beta^2 / 2) exp(-max(alpha - beta, 0)^2
    / 2). Where alpha - beta > TAIL_CUT, rounded as `disc_probability`
    rounds it, that function returns exactly 0, and so does the bound. A
    NaN distance gives a NaN bound."""
    with np.errstate(over="ignore", invalid="ignore"):
        beta = radii[:, None] / pair_sigma                          # [M, T]
        gap = dists / pair_sigma[:, None]
        gap -= beta[..., None]
        beyond = gap > TAIL_CUT
        np.maximum(gap, 0.0, out=gap)
        np.copyto(gap, np.inf, where=beyond)
        gap *= gap
        gap *= -0.5
        np.exp(gap, out=gap)
        # by slices: reductions over a trailing axis of 3 are slow
        bound = gap[..., 0] + gap[..., 1]
        bound += gap[..., 2]
        bound *= np.minimum(0.5 * beta * beta, 1.0)
        return (np.minimum(bound, 1.0, out=bound),
                beyond[..., 0] & beyond[..., 1] & beyond[..., 2])


def _gated_risks(dists: np.ndarray, radii: np.ndarray,
                 pair_sigma: np.ndarray, harms: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """[K, M] max over T of harm * probability, its first argmax step and
    the summed probabilities there, evaluating `disc_probability` only
    where it can set the maximum.

    A step whose body points all lie beyond TAIL_CUT has a probability sum
    of exactly 0, so its harm * probability is harm * 0.0 without the CDF.
    At every other step, U = max(harm, 0) * pair_bound * (1 + BOUND_SLACK)
    is at least harm * probability. The first call evaluates each
    (mode, victim) at its largest-U step, which gives a lower bound L on
    its risk; the second evaluates the other steps whose U is not below L
    (a NaN U is evaluated). Every skipped step lies strictly below the
    maximum, so the maximum and its first argmax are those of the full
    [K, M, T] array, bit for bit."""
    bound, beyond = pair_bound(dists, radii, pair_sigma)
    upper = np.maximum(harms, 0.0) * bound
    upper *= 1.0 + BOUND_SLACK
    k_count, m_count, t_count = upper.shape
    # flat C-order (mode, victim, step) rows of the [K, M, T] arrays
    flat_dists, flat_harms = dists.reshape(-1, 3), harms.reshape(-1)
    weighted = np.full(upper.size, -np.inf)
    np.copyto(weighted, flat_harms * 0.0, where=beyond.reshape(-1))
    sums = np.zeros(upper.size)

    def evaluate(rows):
        # one flat element per body point, so that no operand broadcasts
        p = disc_probability(
            flat_dists[rows].ravel(),
            np.repeat(radii[rows // t_count % m_count], 3),
            np.repeat(pair_sigma[rows % t_count], 3)).reshape(-1, 3)
        p = p[:, 0] + p[:, 1] + p[:, 2]   # as sum(axis=-1) adds them
        sums[rows] = p
        weighted[rows] = flat_harms[rows] * np.minimum(p, 1.0)

    starts = np.arange(0, upper.size, t_count)     # step 0 of each row
    top = starts + upper.argmax(axis=-1).ravel()
    evaluate(top)
    rest = np.flatnonzero(~(upper < weighted[top].reshape(k_count, m_count, 1))
                          & ~beyond)
    evaluate(rest[rest != top[rest // t_count]])
    weighted = weighted.reshape(upper.shape)
    steps = weighted.argmax(axis=-1)
    return (weighted.max(axis=-1), steps,
            sums[starts + steps.ravel()].reshape(steps.shape))


def risk_kernel(batch: MotionBatch, ego: int, boundaries: RoadMap,
                cfg: RiskConfig) -> RiskTerms:
    """Victim and boundary risks of every mode in one pass; see the module
    docstring for the layout. Positions and offsets are handled as separate
    x and y arrays, which round as the [..., 2] forms do."""
    k_count, n, t_count = batch.yaws.shape
    if t_count < 1:
        raise ValueError("risk needs at least one future step")
    if (batch.masses <= 0).any():
        raise ValueError("masses must be positive")
    sigma = cfg.uncertainty.sigma_array(t_count)
    coeffs = cfg.harm
    mu_area = np.array([coeffs.mu_area[r] for r in REGIONS])
    victims = np.delete(np.arange(n), ego)

    px, py = batch.positions[..., 0], batch.positions[..., 1]   # [K, N, T]
    vx, vy = batch.velocities[..., 0], batch.velocities[..., 1]
    speeds = np.sqrt(vx * vx + vy * vy)
    cos_yaw, sin_yaw = np.cos(batch.yaws), np.sin(batch.yaws)
    # unit motion direction, the yaw direction when (nearly) stopped; as in
    # AgentState.direction, by hypot, which rounds unlike the speeds above
    hyp = np.hypot(vx, vy)
    with np.errstate(divide="ignore", invalid="ignore"):
        moving = batch.velocities / hyp[..., None]
    heading = np.where((hyp < SPEED_EPS)[..., None],
                       np.stack([cos_yaw, sin_yaw], axis=-1), moving)

    # collision probability against the victims' body points
    cx, cy = px[:, victims], py[:, victims]                     # [K, M, T]
    half = 0.5 * batch.lengths[victims, None]
    hx, hy = half * cos_yaw[:, victims], half * sin_yaw[:, victims]
    ox = px[:, ego, None, :, None] - np.stack([cx + hx, cx, cx - hx],
                                              axis=-1)        # [K, M, T, 3]
    oy = py[:, ego, None, :, None] - np.stack([cy + hy, cy, cy - hy],
                                              axis=-1)
    dists = np.sqrt(ox * ox + oy * oy)
    radii = 0.5 * (batch.widths[victims] + batch.widths[ego])
    pair_sigma = math.sqrt(2.0) * sigma   # both positions uncertain

    # harm borne by the victims: delta-v and the struck region
    # matmul rounds the dot product as `@` on two vectors does
    cos_theta = np.clip((heading[:, victims, :, None, :]
                         @ heading[:, ego, None, :, :, None])[..., 0, 0],
                        -1.0, 1.0)
    v_vic, v_ego = speeds[:, victims], speeds[:, ego, None]
    m_vic, m_ego = batch.masses[victims, None], batch.masses[ego]
    rel = np.sqrt(np.maximum(v_vic * v_vic + v_ego * v_ego - 2.0 * v_vic
                             * v_ego * np.cos(np.arccos(cos_theta)), 0.0))
    dv = m_ego / (m_vic + m_ego) * rel
    dx, dy = ox[..., 1], oy[..., 1]        # ego center minus victim center
    bearing = np.arctan2(dy, dx) - batch.yaws[:, victims]
    bearing = np.abs(np.arctan2(np.sin(bearing), np.cos(bearing)))
    region = np.where(bearing <= math.pi / 4, _FRONT,
                      np.where(bearing >= 3 * math.pi / 4, _REAR, _SIDE))
    region = np.where(np.hypot(dx, dy) < DIST_EPS, _FRONT, region)
    scale = np.array([cfg.harm_scale(batch.agent_classes[i]
                                     in PROTECTED_CLASSES) for i in victims])
    harms = nn.sigmoid(coeffs.mu0 + coeffs.mu1 * dv + mu_area[region]) \
        * scale[:, None]
    risks, steps, step_sums = _gated_risks(dists, radii, pair_sigma, harms)

    # boundary: an immovable partner, delta-v the ego speed, side impact
    clearance = np.full((k_count, t_count), np.inf)
    nearest = np.zeros((k_count, t_count, 2))
    boundary_harm = nn.sigmoid(coeffs.mu0 + coeffs.mu1 * speeds[:, ego]
                               + mu_area[_SIDE])
    b_weighted = np.zeros((k_count, t_count))
    if len(boundaries):
        clearance, nearest = _clearance(batch.positions[:, ego], boundaries)
        b_weighted = boundary_harm * disc_probability(
            clearance, 0.5 * batch.widths[ego], sigma)

    return RiskTerms(
        [batch.agent_ids[i] for i in victims], victims,
        np.stack([ox, oy], axis=-1), dists, radii, pair_sigma, dv, region,
        harms, risks, steps, step_sums, clearance, nearest, boundary_harm,
        b_weighted.max(axis=-1), b_weighted.argmax(axis=-1))


def boundary_risk(batch: MotionBatch, ego: int, boundaries: RoadMap,
                  cfg: RiskConfig) -> np.ndarray:
    """[K] risk of the ego leaving the road in each mode: clearance to the
    nearest boundary mapped through the collision-probability and harm
    machinery with an immovable partner (delta-v equals the ego speed, side
    impact)."""
    return risk_kernel(batch, ego, boundaries, cfg).boundary


# --------------------------------------------------------------------------
# Cost terms
# --------------------------------------------------------------------------

def safety_cost(risks: np.ndarray, boundary_risk_value: float) -> float:
    """(sum of per-agent risks + boundary risk) / (2n)."""
    risks = np.asarray(risks, dtype=np.float64)
    n = risks.size
    if n == 0:
        return 0.5 * boundary_risk_value
    return float((risks.sum() + boundary_risk_value) / (2.0 * n))


def care_cost(risks: np.ndarray) -> float:
    """Mean absolute risk difference over all ordered agent pairs. The
    protected/unprotected distinction enters upstream through the harm
    scale, not through this double sum."""
    risks = np.asarray(risks, dtype=np.float64)
    n = risks.size
    if n == 0:
        return 0.0
    diff = np.abs(risks[:, None] - risks[None, :]).sum()
    return float(diff / n)


def responsiveness_cost(risks: np.ndarray, scale: float = 1.0) -> float:
    """Summed scaled per-agent risk; the worst case over candidates is
    realized by the ranking step, which sees one value per candidate."""
    risks = np.asarray(risks, dtype=np.float64)
    return float(scale * risks.sum())


def total_risk_cost(c_s: float, c_c: float, c_r: float,
                    weights: tuple[float, float, float] = (33.3, 33.3, 33.3)
                    ) -> float:
    w_s, w_c, w_r = weights
    if min(weights) < 0:
        raise ValueError("cost weights must be nonnegative")
    return w_s * c_s + w_c * c_c + w_r * c_r


# --------------------------------------------------------------------------
# Reports and ranking
# --------------------------------------------------------------------------

@dataclass
class RiskReport:
    mode: int
    mode_prob: float
    agent_ids: list[str]
    risks: np.ndarray
    boundary: float
    c_s: float
    c_c: float
    c_r: float
    l_risk: float
    score: float
    rank: int = -1

    def to_json(self) -> dict:
        return {
            "k": self.mode,
            "p": self.mode_prob,
            "R": self.risks.tolist(),
            "R_b": self.boundary,
            "c_s": self.c_s,
            "c_c": self.c_c,
            "c_r": self.c_r,
            "L_risk": self.l_risk,
            "rank": self.rank,
        }


def mode_risk_report(terms: RiskTerms, mode: int, mode_prob: float,
                     cfg: RiskConfig) -> RiskReport:
    """One mode of the kernel's output: the risks of the ego's potential
    collisions with every victim, the boundary risk, and the three cost
    terms."""
    risks = terms.risks[mode]
    r_b = float(terms.boundary[mode])
    c_s = safety_cost(risks, r_b)
    c_c = care_cost(risks)
    c_r = responsiveness_cost(risks, cfg.responsiveness_scale)
    l_risk = total_risk_cost(c_s, c_c, c_r, cfg.weights)
    score = l_risk - cfg.prob_tradeoff * math.log(max(mode_prob, 1e-12))
    return RiskReport(mode, mode_prob, list(terms.victim_ids), risks, r_b,
                      c_s, c_c, c_r, l_risk, score)


def _road_boundaries(scn: Scenario) -> RoadMap:
    return scn.map.of_kind("road_boundary")


def rank_trajectories(jp: JointPrediction, scn: Scenario,
                      cfg: RiskConfig | None = None
                      ) -> tuple[list[int], list[RiskReport]]:
    """Score every candidate mode and return (order, reports), where order
    lists mode indices from best (lowest risk-adjusted score) to worst.
    Only the predicted agents are ranked. A mode whose score is not finite
    cannot be ranked and raises ValueError."""
    cfg = cfg or RiskConfig()
    predicted = scn.take(scn.prediction_rows(jp.agent_ids))
    terms = risk_kernel(batch_from_prediction(predicted, jp.trajectories),
                        predicted.ego_index, _road_boundaries(scn), cfg)
    reports = [mode_risk_report(terms, k, float(jp.mode_probs[k]), cfg)
               for k in range(jp.trajectories.shape[0])]
    for r in reports:
        if not math.isfinite(r.score):
            raise ValueError(f"scenario {scn.scenario_id!r}: mode {r.mode} "
                             f"has a non-finite risk score {r.score!r}")
    order = sorted(range(len(reports)), key=lambda k: reports[k].score)
    for rank, k in enumerate(order):
        reports[k].rank = rank
    return order, reports


# --------------------------------------------------------------------------
# Differentiable risk for training
# --------------------------------------------------------------------------

def risk_loss_and_grad(trajs: np.ndarray, scn: Scenario, ego_index: int,
                       cfg: RiskConfig
                       ) -> tuple[float, np.ndarray]:
    """Total risk cost of one decoded joint mode [N, T, 2] of the scene's
    agents and its gradient with respect to the decoded positions.

    Harm factors, struck regions and the argmax steps are treated as
    constants; the gradient flows through the collision probabilities at
    each victim's argmax step (where the probability sum is unclamped) and
    through the boundary clearance at its argmax step. A loss or gradient
    that is not finite raises ValueError naming the scenario.
    """
    batch = batch_from_prediction(scn, trajs[None])
    terms = risk_kernel(batch, ego_index, _road_boundaries(scn), cfg)
    l_risk = mode_risk_report(terms, 0, 1.0, cfg).l_risk
    grad = np.zeros_like(trajs)
    w_s, w_c, w_r = cfg.weights
    risks = terms.risks[0]
    m = risks.size

    if m > 0:
        sign_sum = np.sign(risks[:, None] - risks[None, :]).sum(axis=1)
        dl_drisk = (w_s / (2.0 * m) + w_c * 2.0 * sign_sum / m
                    + w_r * cfg.responsiveness_scale)
        rows, t = np.arange(m), terms.steps[0]
        live = (risks > 0.0) & (terms.step_sums[0] < 1.0)
        rows, t = rows[live], t[live]
        dists = terms.dists[0, rows, t]                           # [L, 3]
        dp = disc_probability_ddist(dists, terms.radii[rows, None],
                                    terms.pair_sigma[t, None])
        coincident = dists < 1e-9   # no direction to move along
        coef = dl_drisk[rows, None] * terms.harms[0, rows, t, None] * dp \
            / np.where(coincident, 1.0, dists)
        g = (np.where(coincident, 0.0, coef)[..., None]
             * terms.offsets[0, rows, t]).sum(axis=1)             # [L, 2]
        np.add.at(grad, (ego_index, t), g)
        np.add.at(grad, (terms.victims[rows], t), -g)

    if terms.boundary[0] > 0.0:
        # d c_s / d R_b = w_s / (2m), or w_s / 2 without victims
        dl_drb = w_s * (0.5 if m == 0 else 1.0 / (2.0 * m))
        t = terms.boundary_step[0]
        d = terms.clearance[0, t]
        if d > 1e-9:
            direction = (trajs[ego_index, t] - terms.nearest[0, t]) / d
            dp = float(disc_probability_ddist(
                d, 0.5 * batch.widths[ego_index],
                cfg.uncertainty.sigma(t + 1)))
            grad[ego_index, t] += \
                dl_drb * terms.boundary_harm[0, t] * dp * direction

    if not (math.isfinite(l_risk) and np.isfinite(grad).all()):
        raise ValueError(f"scenario {scn.scenario_id!r}: the risk loss "
                         f"{l_risk!r} or its gradient is not finite")
    return l_risk, grad
