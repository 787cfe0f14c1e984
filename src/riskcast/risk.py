"""Collision-probability, harm and risk-ethics costs, and risk-based ranking
of candidate joint trajectories.

The production path is one array kernel, `risk_kernel`, over a `MotionBatch`
of K candidate modes x N agents x T future steps. Every agent other than the
ego is a potential victim of the ego; the M = N - 1 victims keep their batch
order.

Pair risk. For each (mode, victim, step) the kernel takes the offsets from
the victim's three body points (front, center, rear) to the ego's center,
[K, M, T, 3, 2], and their lengths [K, M, T, 3], and makes one
`disc_probability` call on all of them: the chance that an isotropic
Gaussian (the position uncertainty of both agents combined, sqrt(2) sigma_t)
lands within (width_victim + width_ego)/2 of the body point. The disc
integral is exact, through the noncentral chi-square CDF, with a closed-form
derivative in the distance. The three probabilities are summed and clamped
to [0, 1], giving the collision probability [K, M, T]. Harm [K, M, T] maps
the victim's post-collision speed change (delta-v from the masses, speeds
and collision angle) and the struck region (front, side or rear, from the
bearing of the ego in the victim's frame) through the numerically stable
logistic `nn.sigmoid`, times the victim's harm scale. A victim's risk is the
maximum over T of harm x probability; the kernel keeps the argmax step.

Boundary risk. The ego's clearance to the nearest road-boundary segment,
[K, T] from one point-to-all-segments op over [K, T, S] (the segments of the
scene's `RoadMap` of boundaries, in polyline order), goes through a
second `disc_probability` call (radius half the ego width, sigma_t); harm
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
`harm`) on `AgentTrack`s are the per-step reference the tests compare the
kernel against. The region coefficients and the logistic intercept/slope
are config placeholders (the formulas, not these values, are what the tests
pin down).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import i1e
from scipy.stats import ncx2

from . import nn
from .geometry import (DIST_EPS, SPEED_EPS, AgentState, CollisionRegion,
                       collision_region)
from .intention import JointPrediction
from .scene import AgentHistory, RoadMap, Scenario


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
            raise ValueError("mu1 must be positive (harm grows with delta-v)")


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

def disc_probability(dist: float | np.ndarray, radius: float,
                     sigma: float | np.ndarray) -> np.ndarray:
    """P(|X - b| < radius) for X ~ N(c, sigma^2 I) in the plane, with
    dist = |c - b|. Exact via the noncentral chi-square CDF."""
    dist = np.asarray(dist, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    p = ncx2.cdf((radius / sigma) ** 2, 2, (dist / sigma) ** 2)
    return np.clip(p, 0.0, 1.0)


def disc_probability_ddist(dist: float | np.ndarray, radius: float,
                           sigma: float | np.ndarray) -> np.ndarray:
    """d disc_probability / d dist (closed form via the Marcum Q identity:
    dQ1(a,b)/da = b * exp(-(a^2+b^2)/2) * I1(ab))."""
    dist = np.asarray(dist, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    a = dist / sigma
    b = radius / sigma
    return -(b / sigma) * np.exp(-0.5 * (a - b) ** 2) * i1e(a * b)


class AgentTrack:
    """A future trajectory with the metadata needed for risk evaluation.

    Velocities/yaws are taken from the states when built from ground truth,
    or derived by finite differences when built from a decoded trajectory.
    """

    def __init__(self, agent_id: str, agent_class: str, length: float,
                 width: float, mass: float, protected_flag: bool,
                 positions: np.ndarray, velocities: np.ndarray,
                 yaws: np.ndarray, dt: float):
        self.agent_id = agent_id
        self.agent_class = agent_class
        self.length = length
        self.width = width
        self.mass = mass
        self.protected_flag = protected_flag
        self.positions = np.asarray(positions, dtype=np.float64)
        self.velocities = np.asarray(velocities, dtype=np.float64)
        self.speeds = np.linalg.norm(self.velocities, axis=1)
        self.yaws = np.asarray(yaws, dtype=np.float64)
        self.dt = dt

    @property
    def horizon(self) -> int:
        return self.positions.shape[0]

    def state_at(self, t: int) -> AgentState:
        return AgentState(self.positions[t, 0], self.positions[t, 1],
                          self.yaws[t], self.velocities[t, 0],
                          self.velocities[t, 1], self.length, self.width,
                          self.mass, self.agent_class)

    def body_points_at(self, t: int) -> np.ndarray:
        """[3, 2] front/center/rear points at step t."""
        u = np.array([math.cos(self.yaws[t]), math.sin(self.yaws[t])])
        c = self.positions[t]
        half = 0.5 * self.length
        return np.stack([c + half * u, c, c - half * u])


def track_from_truth(agent: AgentHistory, dt: float) -> AgentTrack:
    fut = agent.future
    if fut is None:
        raise ValueError(f"agent {agent.agent_id!r} has no future truth")
    return AgentTrack(agent.agent_id, agent.agent_class, agent.length,
                      agent.width, agent.mass, agent.protected_flag,
                      fut[:, :2], fut[:, 3:], fut[:, 2], dt)


def track_from_prediction(agent: AgentHistory, positions: np.ndarray,
                          dt: float) -> AgentTrack:
    """The agent's decoded positions [T, 2] with velocities and yaws
    derived as in `batch_from_prediction`."""
    b = batch_from_prediction([agent], np.asarray(positions)[None, None], dt)
    return AgentTrack(agent.agent_id, agent.agent_class, agent.length,
                      agent.width, agent.mass, agent.protected_flag,
                      b.positions[0, 0], b.velocities[0, 0], b.yaws[0, 0], dt)


# --------------------------------------------------------------------------
# Scalar reference formulas (one pair, one step)
# --------------------------------------------------------------------------

def collision_probability(track_i: AgentTrack, track_j: AgentTrack, t: int,
                          u: UncertaintyModel) -> float:
    """Overall collision probability of the pair at future step index t
    (0-based): the disc integrals around i's three body points against j's
    center, summed and clamped to [0, 1]."""
    sigma = math.sqrt(2.0) * u.sigma(t + 1)  # both positions uncertain
    radius = 0.5 * (track_i.width + track_j.width)
    dists = np.linalg.norm(track_i.body_points_at(t) - track_j.positions[t],
                           axis=1)
    return float(min(disc_probability(dists, radius, sigma).sum(), 1.0))


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


def _pair_angle(track_i: AgentTrack, track_j: AgentTrack, t: int) -> float:
    ui = track_i.state_at(t).direction()
    uj = track_j.state_at(t).direction()
    return math.acos(float(np.clip(ui @ uj, -1.0, 1.0)))


def pair_harm(victim: AgentTrack, other: AgentTrack, t: int,
              coeffs: HarmCoefficients, harm_scale: float = 1.0) -> float:
    """Harm borne by the victim at step t in a collision with the other."""
    theta = _pair_angle(victim, other, t)
    dv = delta_v(victim.mass, other.mass, victim.speeds[t], other.speeds[t],
                 theta)
    region = collision_region(victim.state_at(t), other.state_at(t))
    return harm(dv, region, coeffs) * harm_scale


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
    protected: np.ndarray    # [N] bool


def batch_from_prediction(agents: list[AgentHistory], positions: np.ndarray,
                          dt: float) -> MotionBatch:
    """Decoded positions [K, N, T, 2] of the given agents, in that order.
    Velocities are finite differences anchored at each agent's current
    position; yaws follow the velocity (the current yaw while stopped)."""
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 4 or positions.shape[1] != len(agents) \
            or positions.shape[3] != 2:
        raise ValueError(f"positions {positions.shape} do not match "
                         f"[K, {len(agents)}, T, 2]")
    cur = np.array([a.past[-1] for a in agents])          # [N, 5]
    start = cur[None, :, None, :2]
    anchored = np.concatenate([
        np.broadcast_to(start, positions.shape[:2] + (1, 2)), positions],
        axis=2)
    vel = np.diff(anchored, axis=2) / dt
    speeds = np.linalg.norm(vel, axis=-1)
    yaws = np.where(speeds > SPEED_EPS, np.arctan2(vel[..., 1], vel[..., 0]),
                    cur[None, :, None, 2])
    return MotionBatch([a.agent_id for a in agents], positions, vel, yaws,
                       np.array([a.length for a in agents]),
                       np.array([a.width for a in agents]),
                       np.array([a.mass for a in agents]),
                       np.array([a.protected_flag for a in agents]))


def batch_from_tracks(tracks: list[AgentTrack]) -> MotionBatch:
    """One mode made of the given tracks (equal horizons)."""
    return MotionBatch(
        [tr.agent_id for tr in tracks],
        np.stack([tr.positions for tr in tracks])[None],
        np.stack([tr.velocities for tr in tracks])[None],
        np.stack([tr.yaws for tr in tracks])[None],
        np.array([tr.length for tr in tracks]),
        np.array([tr.width for tr in tracks]),
        np.array([tr.mass for tr in tracks]),
        np.array([tr.protected_flag for tr in tracks]))


@dataclass
class RiskTerms:
    """What `risk_kernel` computes for K modes. The M victims are the
    agents other than the ego, in batch order."""
    victim_ids: list[str]
    victims: np.ndarray        # [M] batch indices
    offsets: np.ndarray        # [K, M, T, 3, 2] ego center minus body point
    dists: np.ndarray          # [K, M, T, 3] their lengths
    radii: np.ndarray          # [M] disc radius of each pair
    pair_sigma: np.ndarray     # [T] uncertainty of the pair
    prob_sums: np.ndarray      # [K, M, T] summed body-point probabilities
    probs: np.ndarray          # [K, M, T] the sums clamped to [0, 1]
    harms: np.ndarray          # [K, M, T] scaled harm borne by the victim
    risks: np.ndarray          # [K, M] max over T of harm * probability
    steps: np.ndarray          # [K, M] the step of that maximum
    clearance: np.ndarray      # [K, T] ego distance to the nearest boundary
    nearest: np.ndarray        # [K, T, 2] nearest boundary point
    boundary_harm: np.ndarray  # [K, T]
    boundary: np.ndarray       # [K] boundary risk
    boundary_step: np.ndarray  # [K] the step of that maximum


def _clearance(points: np.ndarray, polylines: RoadMap
               ) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each point [..., 2] to the nearest segment of the
    polylines, and the nearest point on that segment (the first in segment
    order on a tie)."""
    a, b = polylines.segments()                                 # [S, 2]
    ab = b - a
    denom = (ab * ab).sum(axis=-1)
    rel = points[..., None, :] - a                              # [..., S, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(denom > 0.0,
                     np.clip((rel * ab).sum(axis=-1) / denom, 0.0, 1.0), 0.0)
    closest = a + s[..., None] * ab
    dist = np.linalg.norm(points[..., None, :] - closest, axis=-1)
    j = dist.argmin(axis=-1)[..., None]
    return (np.take_along_axis(dist, j, axis=-1)[..., 0],
            np.take_along_axis(closest, j[..., None], axis=-2)[..., 0, :])


def risk_kernel(batch: MotionBatch, ego: int, boundaries: RoadMap,
                cfg: RiskConfig) -> RiskTerms:
    """Victim and boundary risks of every mode in one pass; see the module
    docstring for the layout."""
    k_count, n, t_count = batch.yaws.shape
    if t_count < 1:
        raise ValueError("risk needs at least one future step")
    if (batch.masses <= 0).any():
        raise ValueError("masses must be positive")
    sigma = cfg.uncertainty.sigma_array(t_count)
    coeffs = cfg.harm
    mu = coeffs.mu_area
    victims = np.delete(np.arange(n), ego)

    pos = batch.positions
    speeds = np.linalg.norm(batch.velocities, axis=-1)    # [K, N, T]
    facing = np.stack([np.cos(batch.yaws), np.sin(batch.yaws)], axis=-1)
    # unit motion direction, the yaw direction when (nearly) stopped; as in
    # AgentState.direction, by hypot, which rounds unlike the norm above
    hyp = np.hypot(batch.velocities[..., 0], batch.velocities[..., 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        moving = batch.velocities / hyp[..., None]
    heading = np.where((hyp < SPEED_EPS)[..., None], facing, moving)

    # collision probability against the victims' body points
    center = pos[:, victims]                              # [K, M, T, 2]
    half = 0.5 * batch.lengths[victims, None, None]
    axis = facing[:, victims]
    body = np.stack([center + half * axis, center, center - half * axis],
                    axis=3)                               # [K, M, T, 3, 2]
    offsets = pos[:, ego, None, :, None, :] - body
    dists = np.linalg.norm(offsets, axis=-1)
    radii = 0.5 * (batch.widths[victims] + batch.widths[ego])
    pair_sigma = math.sqrt(2.0) * sigma   # both positions uncertain
    prob_sums = disc_probability(dists, radii[:, None, None],
                                 pair_sigma[:, None]).sum(axis=-1)
    probs = np.minimum(prob_sums, 1.0)

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
    d = offsets[:, :, :, 1]                # ego center minus victim center
    bearing = np.arctan2(d[..., 1], d[..., 0]) - batch.yaws[:, victims]
    bearing = np.abs(np.arctan2(np.sin(bearing), np.cos(bearing)))
    area = np.where(bearing <= math.pi / 4, mu[CollisionRegion.FRONT],
                    np.where(bearing >= 3 * math.pi / 4,
                             mu[CollisionRegion.REAR],
                             mu[CollisionRegion.SIDE]))
    area = np.where(np.hypot(d[..., 0], d[..., 1]) < DIST_EPS,
                    mu[CollisionRegion.FRONT], area)
    scale = np.array([cfg.harm_scale(batch.protected[i]) for i in victims])
    harms = nn.sigmoid(coeffs.mu0 + coeffs.mu1 * dv + area) * scale[:, None]
    weighted = harms * probs
    steps = weighted.argmax(axis=-1)

    # boundary: an immovable partner, delta-v the ego speed, side impact
    clearance = np.full((k_count, t_count), np.inf)
    nearest = np.zeros((k_count, t_count, 2))
    boundary_harm = nn.sigmoid(coeffs.mu0 + coeffs.mu1 * speeds[:, ego]
                               + mu[CollisionRegion.SIDE])
    b_weighted = np.zeros((k_count, t_count))
    if len(boundaries):
        clearance, nearest = _clearance(pos[:, ego], boundaries)
        b_weighted = boundary_harm * disc_probability(
            clearance, 0.5 * batch.widths[ego], sigma)

    return RiskTerms(
        [batch.agent_ids[i] for i in victims], victims, offsets, dists, radii,
        pair_sigma, prob_sums, probs, harms, weighted.max(axis=-1), steps,
        clearance, nearest, boundary_harm, b_weighted.max(axis=-1),
        b_weighted.argmax(axis=-1))


def trajectory_risk(victim: AgentTrack, other: AgentTrack,
                    u: UncertaintyModel, coeffs: HarmCoefficients,
                    harm_scale: float = 1.0) -> float:
    """max over future steps of harm(t) * collision_probability(t): the
    kernel's risk of the victim against the other."""
    cfg = RiskConfig(uncertainty=u, harm=coeffs,
                     protected_harm_scale=harm_scale,
                     unprotected_harm_scale=harm_scale)
    terms = risk_kernel(batch_from_tracks([victim, other]), 1, [], cfg)
    return float(terms.risks[0, 0])


def boundary_risk(ego: AgentTrack, boundaries: RoadMap,
                  u: UncertaintyModel, coeffs: HarmCoefficients) -> float:
    """Risk of the ego leaving the road: clearance to the nearest boundary
    mapped through the collision-probability and harm machinery with an
    immovable partner (delta-v equals the ego speed, side impact)."""
    cfg = RiskConfig(uncertainty=u, harm=coeffs)
    terms = risk_kernel(batch_from_tracks([ego]), 0, boundaries, cfg)
    return float(terms.boundary[0])


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


def care_cost(risks: np.ndarray,
              protected_flags: list[bool] | None = None) -> float:
    """Mean absolute risk difference over all ordered agent pairs. The
    protected/unprotected distinction enters upstream through the harm
    scale, not through this double sum."""
    risks = np.asarray(risks, dtype=np.float64)
    n = risks.size
    if protected_flags is not None and len(protected_flags) != n:
        raise ValueError("protected_flags length must match risks")
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
    collision_probs: dict[str, np.ndarray] = field(default_factory=dict)

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
                      c_s, c_c, c_r, l_risk, score,
                      collision_probs=dict(zip(terms.victim_ids,
                                               terms.probs[mode])))


def _road_boundaries(scn: Scenario) -> RoadMap:
    return scn.map.of_kind("road_boundary")


def _predicted_agents(jp: JointPrediction, scn: Scenario
                      ) -> list[AgentHistory]:
    """The scene agents of the prediction, in prediction order, joined by
    agent id. Scene agents without a prediction (dropped by the model's
    context radius) are left out."""
    by_id = {a.agent_id: a for a in scn.agents}
    unknown = [aid for aid in jp.agent_ids if aid not in by_id]
    if unknown:
        raise ValueError(f"predicted agents not in the scenario: {unknown}")
    if scn.ego.agent_id not in jp.agent_ids:
        raise ValueError(f"no prediction for the ego {scn.ego.agent_id!r}")
    return [by_id[aid] for aid in jp.agent_ids]


def rank_trajectories(jp: JointPrediction, scn: Scenario,
                      cfg: RiskConfig | None = None
                      ) -> tuple[list[int], list[RiskReport]]:
    """Score every candidate mode and return (order, reports), where order
    lists mode indices from best (lowest risk-adjusted score) to worst.
    Only the predicted agents are ranked."""
    cfg = cfg or RiskConfig()
    batch = batch_from_prediction(_predicted_agents(jp, scn),
                                  jp.trajectories, scn.dt)
    terms = risk_kernel(batch, batch.agent_ids.index(scn.ego.agent_id),
                        _road_boundaries(scn), cfg)
    reports = [mode_risk_report(terms, k, float(jp.mode_probs[k]), cfg)
               for k in range(jp.trajectories.shape[0])]
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
    through the boundary clearance at its argmax step.
    """
    batch = batch_from_prediction(scn.agents, trajs[None], scn.dt)
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
        live = (risks > 0.0) & (terms.prob_sums[0, rows, t] < 1.0)
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

    return l_risk, grad
