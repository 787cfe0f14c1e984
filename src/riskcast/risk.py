"""Collision-probability, harm and risk-ethics costs, and risk-based ranking
of candidate joint trajectories.

The production path is one array kernel, `risk_kernel`, over a `MotionBatch`
of K mode rows x N agents x T future steps. The agents may be those of
several scenes, each a consecutive run of them; every agent of a scene
other than its ego is a potential victim of that ego. Ranking runs the
kernel on one scene with its K modes as the mode rows; training runs it
once per minibatch, on every scene with its selected mode as the one mode
row.

Rows. For each mode row the kernel scores R = M + B flat rows over the T
steps: the M victims of every scene, scene after scene and each in batch
order, then one road boundary row per scene, an immovable partner (for one
scene, its M victims and then its boundary). Each row has three body
points: a victim's front, center and rear; for a boundary, the point
nearest the ego's center on its scene's road boundaries (one
point-to-all-segments op over [K, B, T, S], each scene's segments of its
`RoadMap` of boundaries in polyline order, padded to the most with
segments far from every point) and two points out of reach (distance inf).
The kernel keeps the lengths of the offsets from the body points to the
ego's center, [K, R, T, 3], and each scene's nearest boundary point; the
offsets themselves it does not keep. A row's disc radius [R] is
(width_victim + width_ego)/2, or half the ego width for a boundary, and
its position uncertainty [R, T] is sqrt(2) sigma_t, both positions being
uncertain, or sigma_t for a boundary.
`disc_probability` gives the chance that an isotropic Gaussian of that
uncertainty lands within the radius of a body point. The disc integral is
the noncentral chi-square CDF (1 - Marcum Q_1), set to 0 where a Rayleigh
tail bound proves it below 6.2e-14. With y = beta^2 / 2 and
mu = alpha^2 / 2 it is P(N_y > N_mu) for independent Poisson counts, a
numpy series of positive terms; its derivative in the distance is a second
sum of the same recurrence. scipy.special takes over only for discs wider
than 8 sigma (y > WIDE_Y), which no default scene has, so ranking and
training do not import it. The three probabilities are summed and clamped
to [0, 1], giving the collision probability [K, R, T]. Harm [K, R, T] maps
the delta-v, the partner's post-collision speed change, and the struck
region through the numerically stable logistic `nn.sigmoid`, times the
row's harm scale. For a victim, delta-v comes from the masses, speeds and
collision angle, the region (front, side or rear) from the bearing of the
ego in the victim's frame, and the scale from its class; the boundary
takes the ego speed, a side impact and a scale of 1. The kernel keeps
delta-v and the region too. A row's risk is the maximum over T of
harm x probability; the kernel keeps the argmax step and the summed
probabilities there.

Passes. The kernel's cost is numpy calls and passes over small arrays, so
it makes few of each. It works on positions, velocities, headings and
body-point offsets coordinate first, [2, K, N, T], and body point first,
[3, K, M, T], so that each operation runs over contiguous rows and x and y
share one call; `RiskTerms` keeps the layouts listed on it. A heading is
the velocity over the speed, with cos and sin of the yaw written only at
the stopped cells. The struck region needs only which of three ranges the
wrapped bearing lies in, so `_struck_region` folds the bearing by one turn
and leaves sin, cos and `wrap_angle`, the dearest ufuncs here, to the few
bearings near a range's edge. Its reductions and tests call the ufuncs'
own `reduce`, not the Python wrappers of `ndarray.all`, `any` and `sum`.
Every value is the one the per-step formulas give, bit for bit.

The CDF gate. The CDF is most of the kernel's cost, and most steps cannot
set a risk. With alpha = dist / sigma and beta = radius / sigma, each disc
probability is at most min(1, beta^2 / 2) exp(-max(alpha - beta, 0)^2 / 2),
the disc area times the peak Gaussian density on the disc capped by the
Rayleigh tail, and, for beta^2 / 2 <= 1, at most
(beta^2 / 2) exp(-(alpha^2 / 2) (1 - beta^2 / 4)), which is far tighter for
a disc far from the Gaussian's center. Harm times the clamped sum of the
three bounds, times (1 + BOUND_SLACK), bounds harm x probability at a step
(`pair_bound`). A lower bound on the disc probability, from Jensen's
inequality, at each (mode, row)'s largest-bound step gives a lower bound L
on its risk without the CDF (`_risk_floor`), and the kernel evaluates
`disc_probability` once, at the steps whose bound is not below L; a step
whose body points all lie beyond the tail cut has probability exactly 0 and
needs no call. Every skipped step lies strictly below the maximum, and the
series gives an element the value it has in a call of its own, so `risks`,
`steps`, the loss and the gradient are those of the full evaluation, bit
for bit.
`RiskTerms.prob_sums` and `probs`, at every step, are computed on first read
by the full `disc_probability` call; ranking and training do not read them.

The safety, care and responsiveness costs then aggregate each mode's victim
risks and boundary risk. `rank_trajectories` runs the kernel once for all
K modes of a scene, computes every mode's costs and score in one pass over
the kernel's [K, R] risks (`mode_costs`, bit for bit the scalar cost
functions of each mode) and reads each mode through `mode_risk_report`.
`risk_loss_and_grad` runs it once over a minibatch's scenes, each at its
selected mode, and differentiates through the collision probabilities
only: harm factors, struck regions and argmax steps are constants, so the
gradient reuses the forward's argmax and evaluates `disc_probability_ddist`
once, at the argmax step of each live row, by one rule for the victims and
the boundaries. It recomputes the body-point offsets at those live
(row, step) pairs alone and scatters them into the [N, T, 2] gradient.

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
from itertools import accumulate

import numpy as np

from . import nn
from .geometry import (DIST_EPS, PROTECTED_CLASSES, SPEED_EPS, AgentState,
                       CollisionRegion, body_points, collision_angle,
                       collision_region, norm2, wrap_angle)
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
        if np.logical_or.reduce(s <= 0):
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
# y = beta^2 / 2 past which the disc functions take scipy.special instead of
# their series: a disc wider than 8 sigma, where the series would need more
# than ~120 terms. The widest pair of the default config, two trucks at the
# first step, has y ~ 5.2
WIDE_Y = 32.0
# an element's series stops once the terms left are below this share of each
# of its sums, a quarter of the unit roundoff
_SERIES_RTOL = 2.0 ** -55
# alpha - beta past which exp(-(alpha - beta)^2 / 2) underflows to 0
_DDIST_CUT = 38.7
# terms between two stopping tests, the first after term _FIRST_TEST. The
# schedule is fixed, so an element's sums do not depend on the other
# elements of the call, nor on the schedule: a done element's later terms
# leave its sums as they are. On the kernel's inputs few elements (~1%)
# would pass a test before term 13, and no call of ranking or training
# ended before term 17 (the benchmark's plan scenes, both workloads, seeds
# 1 to 5, and a stage-2 training run), so the first test comes there
_TEST_EVERY = 4
_FIRST_TEST = 17
# row n - 1: the factors 1 / (n + 1), 1 / (n + 1) and 1 / (n (n + 1)) of the
# step from term n to n + 1 of the tail bound and the terms of p and s in
# `_poisson_sums`. For y <= WIDE_Y the stopping test passes by n = 460, where
# y t_n / _SERIES_RTOL underflows to 0
_STEPS = np.array([[[1.0 / (n + 1)], [1.0 / (n + 1)], [1.0 / (n * (n + 1))]]
                   for n in range(1, 513)])                       # [512, 3, 1]


def _poisson_sums(y: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """[2, E] sums p = sum_{n >= 1} Pois(n; y) P(N_mu <= n - 1) and
    s = sum_{n >= 1} Pois(n; y) Pois(n - 1; mu), N_mu a Poisson count of
    mean mu; NaN where y > WIDE_Y or y or mu is NaN.

    With t_n = Pois(n; y), q_k = Pois(k; mu) and C_k = q_0 + ... + q_k,
    term n of the sums is t_n C_{n-1} and t_n q_{n-1}. From n to n + 1 the
    second is multiplied by y mu / (n (n + 1)), and the first by y / (n + 1)
    and then increased by the second. Every term is positive, so nothing
    cancels. As C, q <= 1, the terms after n of either sum add up to at most
    P(N_y > n) <= t_n y / (n + 1 - y) (for n + 1 > y). An element is done
    at the first test where that bound is at most _SERIES_RTOL times its s,
    the smaller sum (C >= q), and the call ends when all are. A done
    element's later terms are each below half an ulp of its sums, so they
    leave them as they are: its value does not depend on how long the
    other elements run. Where the first term y exp(-(y + mu)) is 0 (y = 0,
    or it underflows), so is every term."""
    ok = y <= WIDE_Y                            # False for a NaN y
    if not np.logical_and.reduce(ok):
        y = np.where(ok, y, 0.0)
    first = y * np.exp(-(y + mu))               # t_1 C_0 = t_1 q_0
    nan_mu = first * 0.0                        # 0, or NaN from a NaN mu
    # an element whose terms are all 0 runs as y = 0: zero terms and tail,
    # done at the first test
    live = first > 0.0
    if not np.logical_and.reduce(live):
        y, mu, first = (np.where(live, v, 0.0) for v in (y, mu, first))
    # rows: y t_n / _SERIES_RTOL, term n of p and of s; the partial sums
    state = np.empty((5, y.size))
    terms, pair, partial = state[0:3], state[1:3], state[3:5]
    tail, p_term, s_term = state[0], state[1], state[2]
    state[1:] = first
    np.multiply(y, y, out=tail)
    tail *= np.exp(-y)
    tail /= _SERIES_RTOL
    factors = np.empty(terms.shape)                           # y, y, y mu
    factors[:2] = y
    np.multiply(y, mu, out=factors[2])
    steps = np.empty((_TEST_EVERY,) + terms.shape)
    each_step = list(steps)
    n = 1
    while True:
        np.multiply(_STEPS[n - 1:n - 1 + _TEST_EVERY], factors, out=steps)
        for step in each_step:
            np.multiply(terms, step, out=terms)
            np.add(p_term, s_term, out=p_term)
            np.add(partial, pair, out=partial)
        n += _TEST_EVERY
        if n >= _FIRST_TEST:
            bound = (n + 1) - y
            bound *= partial[1]
            if np.logical_and.reduce(tail <= bound):
                partial += nan_mu
                if not np.logical_and.reduce(ok):
                    partial[:, ~ok] = np.nan
                return partial


def _scaled(dist, radius, sigma) -> tuple[np.ndarray, np.ndarray]:
    """alpha = dist / sigma and beta = radius / sigma, of one shape."""
    alpha = np.asarray(dist, dtype=np.float64) / sigma
    beta = np.asarray(radius, dtype=np.float64) / sigma
    if alpha.shape != beta.shape:
        alpha, beta = np.broadcast_arrays(alpha, beta)
    return alpha, beta


def disc_probability(dist: float | np.ndarray, radius: float | np.ndarray,
                     sigma: float | np.ndarray) -> np.ndarray:
    """P(|X - b| < radius) for X ~ N(c, sigma^2 I) in the plane, with
    dist = |c - b|: the noncentral chi-square CDF with 2 degrees of freedom
    at beta^2 with noncentrality alpha^2, where alpha = dist / sigma and
    beta = radius / sigma, clipped to [0, 1].

    The CDF is a Poisson mixture of central ones: with y = beta^2 / 2 and
    mu = alpha^2 / 2 it is P(N_y > N_mu) for independent Poisson counts
    N_y and N_mu of means y and mu, the sum p of `_poisson_sums`. (It is
    1 - Q_1(alpha, beta), Q_1 the Marcum Q function; Gil, Segura and
    Temme, ACM TOMS 2014.) An element's value does not depend on the other
    elements of the call. Where y > WIDE_Y, `scipy.special.chndtr`
    (`chdtr` where dist = 0) computes it instead.

    Tail gate. When alpha > beta, every point X of the disc has
    |X - c| >= |c - b| - |X - b| > dist - radius, so the disc lies outside
    the circle of radius dist - radius around c. |X - c| / sigma is Rayleigh
    distributed, hence
        P <= P(|X - c| > dist - radius) = exp(-(alpha - beta)^2 / 2).
    Elements with alpha - beta > TAIL_CUT = 7.8 are returned as exactly 0,
    off by at most exp(-7.8^2 / 2) = 6.2e-14 each, without evaluating the
    series, whose length grows with mu. A NaN distance stays NaN.
    """
    alpha, beta = _scaled(dist, radius, sigma)
    near = ~(alpha - beta > TAIL_CUT)
    x, nc = beta[near] ** 2, alpha[near] ** 2
    p_near = _poisson_sums(0.5 * x, 0.5 * nc)[0]
    wide = x > 2.0 * WIDE_Y
    if np.logical_or.reduce(wide):
        from scipy.special import chdtr, chndtr
        x, nc = x[wide], nc[wide]
        p_near[wide] = np.where(nc == 0.0, chdtr(2.0, x), chndtr(x, 2.0, nc))
    np.maximum(p_near, 0.0, out=p_near)
    p = np.zeros(alpha.shape)
    p[near] = np.minimum(p_near, 1.0, out=p_near)
    return p


def disc_probability_ddist(dist: float | np.ndarray,
                           radius: float | np.ndarray,
                           sigma: float | np.ndarray) -> np.ndarray:
    """d disc_probability / d dist, of the CDF without its tail gate:
    -(alpha / sigma) times the sum s of `_poisson_sums`, which equals
    -(beta / sigma) exp(-(alpha^2 + beta^2) / 2) I_1(alpha beta), as
    dQ_1(a, b) / da = b exp(-(a^2 + b^2) / 2) I_1(a b); by
    `scipy.special.i1e` where y > WIDE_Y. Its size is below
    (beta / sigma) exp(-(alpha - beta)^2 / 2), so it is 0 past
    alpha - beta = _DDIST_CUT, where that exponential underflows. A NaN
    distance gives NaN."""
    alpha, beta = _scaled(dist, radius, sigma)
    sigma = np.broadcast_to(sigma, alpha.shape)
    reach = ~(alpha - beta > _DDIST_CUT)
    a, b, s = alpha[reach], beta[reach], sigma[reach]
    d_reach = -(a / s) * _poisson_sums(0.5 * b * b, 0.5 * a * a)[1]
    wide = b * b > 2.0 * WIDE_Y
    if wide.any():
        from scipy.special import i1e
        a, b, s = a[wide], b[wide], s[wide]
        d_reach[wide] = -(b / s) * np.exp(-0.5 * (a - b) ** 2) * i1e(a * b)
    d = np.zeros(alpha.shape)
    d[reach] = d_reach
    return d


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
    dists = norm2(np.stack(body_points(victim)) - other.position)
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
    dv = delta_v(victim.mass, other.mass, victim.speed, other.speed,
                 collision_angle(victim, other))
    return harm(dv, collision_region(victim, other), coeffs) * harm_scale


# --------------------------------------------------------------------------
# Batched kernel over [K modes, N agents, T steps]
# --------------------------------------------------------------------------

@dataclass
class MotionBatch:
    """K candidate futures of the N agents of one or more scenes: the input
    of `risk_kernel`. Scene b's agents are the rows slices[b]."""
    agent_ids: list[str]
    positions: np.ndarray    # [K, N, T, 2]
    velocities: np.ndarray   # [K, N, T, 2]
    yaws: np.ndarray         # [K, N, T]
    lengths: np.ndarray      # [N]
    widths: np.ndarray       # [N]
    masses: np.ndarray       # [N]
    agent_classes: list[str]  # [N]
    slices: list[slice]       # [B] each scene's agents

    def state(self, k: int, i: int, t: int) -> AgentState:
        """Agent i at step t of mode k, as the per-step references take
        it."""
        (x, y), (vx, vy) = self.positions[k, i, t], self.velocities[k, i, t]
        return AgentState(x, y, self.yaws[k, i, t], vx, vy, self.lengths[i],
                          self.widths[i], self.masses[i],
                          self.agent_classes[i])


def batch_from_prediction(scenes: list[Scenario], positions: np.ndarray
                          ) -> MotionBatch:
    """Decoded positions [K, N, T, 2] of the scenes' agents, scene after
    scene, each in row order. Velocities are finite differences anchored
    at each agent's current position; yaws follow the velocity (the
    current yaw while stopped)."""
    positions = np.asarray(positions, dtype=np.float64)
    sizes = [len(scn.agent_ids) for scn in scenes]
    n = sum(sizes)
    if positions.ndim != 4 or positions.shape[1] != n \
            or positions.shape[3] != 2:
        raise ValueError(f"positions {positions.shape} do not match "
                         f"[K, {n}, T, 2]")
    cur = np.concatenate([scn.past[:, -1] for scn in scenes])     # [N, 5]
    dt = np.array([scn.dt for scn in scenes]).repeat(sizes)[:, None, None]
    # the steps' differences, the first from the current position
    vel = np.empty(positions.shape)
    np.subtract(positions[:, :, :1], cur[:, None, :2], out=vel[:, :, :1])
    np.subtract(positions[:, :, 1:], positions[:, :, :-1], out=vel[:, :, 1:])
    vel /= dt
    moving = norm2(vel) > SPEED_EPS
    yaws = np.arctan2(vel[..., 1], vel[..., 0])
    if not np.logical_and.reduce(moving, axis=None):
        np.copyto(yaws, cur[None, :, None, 2], where=~moving)
    bounds = list(accumulate(sizes, initial=0))
    return MotionBatch(
        [aid for scn in scenes for aid in scn.agent_ids.tolist()], positions,
        vel, yaws, *np.concatenate([scn.dims for scn in scenes]).T,
        [c for scn in scenes for c in scn.agent_classes.tolist()],
        [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])])


@dataclass
class RiskTerms:
    """What `risk_kernel` computes for K mode rows, by row. The R = M + B
    rows are flat: the M victims of every scene, the agents other than
    its ego, scene after scene in batch order, then the road boundary of
    each of the B scenes (see the module docstring). The offsets from the
    body points to the ego center are not kept: the gradient recomputes
    them at its live rows. `prob_sums` and `probs`, at every step, are
    computed on first read; the kernel itself evaluates the probabilities
    only where they can set a risk."""
    victim_ids: list[str]      # [M] the victims, the first M rows
    victims: np.ndarray        # [M] their batch indices
    egos: np.ndarray           # [R] the ego of each row, a batch index
    nearest: np.ndarray        # [K, B, T, 2] each scene's boundary point
    #                            nearest its ego, of boundary row M + b
    dists: np.ndarray          # [K, R, T, 3] body point to ego center
    radii: np.ndarray          # [R] disc radius of each row
    sigma: np.ndarray          # [R, T] position uncertainty of each row
    delta_v: np.ndarray        # [K, R, T] partner's speed change in a crash
    region: np.ndarray         # [K, R, T] struck region, list(CollisionRegion)
    harms: np.ndarray          # [K, R, T] scaled harm borne by the partner
    risks: np.ndarray          # [K, R] max over T of harm * probability
    steps: np.ndarray          # [K, R] the step of that maximum
    step_sums: np.ndarray      # [K, R] the summed probabilities at that step

    @cached_property
    def prob_sums(self) -> np.ndarray:
        """[K, R, T] summed body-point probabilities."""
        return disc_probability(self.dists, self.radii[:, None, None],
                                self.sigma[..., None]).sum(axis=-1)

    @cached_property
    def probs(self) -> np.ndarray:
        """[K, R, T] the sums clamped to [0, 1]."""
        return np.minimum(self.prob_sums, 1.0)


# RiskTerms.region indexes this list
REGIONS = list(CollisionRegion)
_FRONT, _SIDE, _REAR = (REGIONS.index(r) for r in
                        (CollisionRegion.FRONT, CollisionRegion.SIDE,
                         CollisionRegion.REAR))
# a coordinate of the segments that pad a scene's road boundaries to the
# batch's most: farther from any point than a real segment
_FAR = 1e30


def _clearance(points: np.ndarray, a: np.ndarray, b: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each point [..., 2] to the nearest of the segments
    from a to b [..., S, 2], whose leading axes broadcast against the
    points', and the nearest point on that segment (the first in segment
    order on a tie). Works on x and y separately, and writes the rules of
    `norm2` and `dot2` inline, in place. The distances and the nearest
    points' x and y are the rows of one array, which one flat gather reads
    at each point's nearest segment."""
    ax, ay = a[..., 0], a[..., 1]
    abx, aby = b[..., 0] - ax, b[..., 1] - ay
    denom = abx * abx + aby * aby
    proper = denom > 0.0
    px, py = points[..., 0, None], points[..., 1, None]
    found = np.empty((3,) + np.broadcast_shapes(px.shape, ax.shape))
    dist, nx, ny = found                                        # [..., S]
    rx, ry = np.subtract(px, ax, out=nx), np.subtract(py, ay, out=ny)
    # s = clip((rx * abx + ry * aby) / denom, 0, 1), 0 on a degenerate
    # segment; computed in place, each op rounding as the expression does
    with np.errstate(divide="ignore", invalid="ignore"):
        s = rx * abx
        s += np.multiply(ry, aby, out=ry)
        s /= denom
        np.clip(s, 0.0, 1.0, out=s)
    if not np.logical_and.reduce(proper, axis=None):
        np.copyto(s, 0.0, where=~proper)
    # each segment's nearest point, (ax + s * abx, ay + s * aby), and its
    # distance, sqrt(dx * dx + dy * dy) of its offset
    np.add(ax, np.multiply(s, abx, out=nx), out=nx)
    np.add(ay, np.multiply(s, aby, out=ny), out=ny)
    dx, dy = np.subtract(px, nx, out=dist), np.subtract(py, ny, out=s)
    np.multiply(dx, dx, out=dist)
    dist += np.multiply(dy, dy, out=dy)
    np.sqrt(dist, out=dist)
    j = dist.argmin(axis=-1)
    seg = dist.shape[-1]
    picked = found.reshape(3, -1)[:, np.arange(0, dist.size, seg)
                                  + j.reshape(-1)]            # [3, points]
    return picked[0].reshape(j.shape), picked[1:].T.reshape(j.shape + (2,))


# how far from a region's edge, pi/4 or 3 pi/4, a bearing folded into
# [0, pi] by one turn must lie to be classed without `wrap_angle`: far
# above the few 1e-16 by which the fold and wrap_angle's sin, cos and
# arctan2 round on angles below 10
_EDGE_MARGIN = 1e-9


def _struck_region(bearing: np.ndarray, center_dist: np.ndarray
                   ) -> np.ndarray:
    """The struck region of each victim (indices into REGIONS), as
    `collision_region` classes it, from the bearing of the other agent's
    center minus the victim's yaw, unwrapped, and the centers' distance:
    front where |wrap_angle(bearing)| <= pi/4 or the centers coincide,
    rear where it is >= 3 pi/4, side between.

    The class needs only where |wrap_angle(bearing)| lies against pi/4
    and 3 pi/4. One turn folds |bearing| <= 3 pi into [0, pi] to within
    a few 1e-16 of it, so the folded value decides the class wherever it
    lies farther than _EDGE_MARGIN from both edges and not beyond
    pi + _EDGE_MARGIN. Only the other bearings, none on most calls, go
    through `wrap_angle`, whose sin and cos are the dearest ufuncs of the
    kernel. A NaN bearing is side, as `collision_region` has it."""
    folded = np.abs(bearing)
    np.minimum(folded, 2.0 * math.pi - folded, out=folded)
    np.abs(folded, out=folded)
    edge = np.abs(folded - math.pi / 2)
    edge -= math.pi / 4
    unsure = np.abs(edge, out=edge) <= _EDGE_MARGIN
    unsure |= folded > math.pi + _EDGE_MARGIN
    if np.logical_or.reduce(unsure, axis=None):
        folded[unsure] = np.abs(wrap_angle(bearing[unsure]))
    region = np.where(folded >= 3 * math.pi / 4, _REAR, _SIDE)
    front = folded <= math.pi / 4
    front |= center_dist < DIST_EPS
    np.putmask(region, front, _FRONT)
    return region


def _body_offsets(ego: np.ndarray, center: np.ndarray, along: np.ndarray
                  ) -> np.ndarray:
    """[2, 3, ...] x and y offsets from a victim's front, center and rear to
    the ego center ego [2, ...]: the victim's center [2, ...] plus, minus
    and not its half length along its yaw [2, ...]. Coordinate first and
    body point second, so that every operation runs on contiguous runs."""
    offsets = np.empty((2, 3) + center.shape[1:])
    np.add(center, along, out=offsets[:, 0])
    offsets[:, 1] = center
    np.subtract(center, along, out=offsets[:, 2])
    np.subtract(ego[:, None], offsets, out=offsets)
    return offsets


# relative slack on the pair probability bound of `_gated_risks`, far above
# the rounding of the bound's few operations and the CDF's relative error
# (where the bound is tight, beta -> 0 with alpha <= beta, the CDF exceeds
# it by a few 1e-15)
BOUND_SLACK = 1e-9
def pair_bound(dists: np.ndarray, radii: np.ndarray, sigma: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """[K, R, T] upper bound on the summed body-point probabilities of
    dists [K, R, T, 3] with radii [R] and sigma [R, T], clamped to 1, and
    [K, R, T] whether all three body points lie beyond TAIL_CUT.

    With alpha = dist / sigma and beta = radius / sigma, each disc
    probability is at most its area times the largest Gaussian density on
    the disc, (beta^2 / 2) exp(-max(alpha - beta, 0)^2 / 2), and at most the
    Rayleigh tail exp(-max(alpha - beta, 0)^2 / 2) that `disc_probability`
    already uses; so at most min(1, beta^2 / 2) exp(-max(alpha - beta, 0)^2
    / 2). In polar coordinates about the disc's center the probability is
    exp(-alpha^2 / 2) times the integral over rho < beta of
    exp(-rho^2 / 2) I_0(alpha rho) rho, and I_0(z) <= exp(z^2 / 4)
    termwise, so it is also at most
    (beta^2 / 2) exp(-(alpha^2 / 2) (1 - beta^2 / 4)); where beta^2 / 2
    <= 1 the bound takes the smaller of the two exponentials, which for a
    disc far from the center is the second, by about exp(alpha beta). Where
    alpha - beta > TAIL_CUT, rounded as `disc_probability` rounds it, that
    function returns exactly 0, and so does the bound. A NaN distance gives
    a NaN bound."""
    with np.errstate(over="ignore", invalid="ignore"):
        beta = radii[:, None] / sigma                               # [R, T]
        area = 0.5 * beta * beta
        # alpha^2 times the second exponent's factor, 1 - beta^2 / 4 where
        # the area is at most 1 and 0 (the first exponent) elsewhere
        factor = 1.0 - 0.5 * area
        np.putmask(factor, ~(area <= 1.0), 0.0)
        # body point first, [3, K, R, T], so that the sum over the three
        # adds contiguous rows
        alpha = np.divide(dists.transpose(3, 0, 1, 2), sigma, order="C")
        gap = alpha - beta
        beyond = gap > TAIL_CUT
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        alpha *= alpha
        alpha *= factor
        np.maximum(gap, alpha, out=gap)
        np.putmask(gap, beyond, np.inf)
        gap *= -0.5
        np.exp(gap, out=gap)
        bound = gap[0] + gap[1]
        bound += gap[2]
        bound *= np.minimum(area, 1.0)
        return (np.minimum(bound, 1.0, out=bound),
                beyond[0] & beyond[1] & beyond[2])


def _risk_floor(dists: np.ndarray, radii: np.ndarray, sigma: np.ndarray,
                harms: np.ndarray) -> np.ndarray:
    """[E] a lower bound on harm x the clamped sum of the three disc
    probabilities at E cells, dists [E, 3] with radii, sigma and harms [E],
    without the CDF.

    A disc probability is the disc's area times the Gaussian's density
    averaged over the disc. exp is convex, so by Jensen's inequality that
    average is at least the density at the mean squared distance from the
    Gaussian's center over the disc, dist^2 + radius^2 / 2: with
    alpha = dist / sigma and beta = radius / sigma, the probability is at
    least (beta^2 / 2) exp(-(alpha^2 + beta^2 / 2) / 2). Where
    alpha - beta > TAIL_CUT, rounded as `disc_probability` rounds it, that
    function returns exactly 0, and so does the bound. Elsewhere, for
    y = beta^2 / 2 <= WIDE_Y, alpha <= beta + TAIL_CUT keeps y + alpha^2 / 2
    below 160, so the series' first term, and with it the computed
    probability, is positive wherever the bound is. The clamped sum of the
    three bounds times (1 - BOUND_SLACK) is below the computed clamped sum,
    whose relative error is a few 1e-15; times a positive harm, it stays
    below harm x probability. A harm h <= 0 gives h, as
    h x min(p, 1) >= h. A NaN distance or harm gives NaN."""
    alpha = dists / sigma[:, None]
    beta = (radii / sigma)[:, None]
    area = 0.5 * (beta * beta)                  # beta^2 / 2
    low = alpha * alpha
    low += area
    low *= -0.5
    np.exp(low, out=low)
    low *= area
    np.putmask(low, alpha - beta > TAIL_CUT, 0.0)
    total = low[:, 0] + low[:, 1]
    total += low[:, 2]
    np.minimum(total, 1.0, out=total)
    total *= 1.0 - BOUND_SLACK
    total *= harms
    return np.where(harms > 0.0, total, harms)


def _gated_risks(dists: np.ndarray, radii: np.ndarray, sigma: np.ndarray,
                 harms: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """[K, R] max over T of harm * probability, its first argmax step and
    the summed probabilities there, for dists [K, R, T, 3], radii [R],
    sigma [R, T] and harms [K, R, T], evaluating `disc_probability` only
    where it can set the maximum, in one call.

    A step whose body points all lie beyond TAIL_CUT has a probability sum
    of exactly 0, so its harm * probability is harm * 0.0 without the CDF.
    At every other step, U = max(harm, 0) * pair_bound * (1 + BOUND_SLACK)
    is at least harm * probability. `_risk_floor` at each (mode, row)'s
    largest-U step gives a lower bound L on its risk, and the call
    evaluates the steps whose U is not below L (a NaN U is evaluated);
    the largest-U step is among them. Every skipped step lies strictly
    below the maximum, and `disc_probability` gives each element the value
    it has in a call of its own, so the maximum and its first argmax are
    those of the full [K, R, T] array, bit for bit."""
    bound, beyond = pair_bound(dists, radii, sigma)
    upper = np.maximum(harms, 0.0) * bound
    upper *= 1.0 + BOUND_SLACK
    k_count, r_count, t_count = upper.shape
    # flat C-order (mode, row, step) cells of the [K, R, T] arrays
    flat_dists, flat_harms = dists.reshape(-1, 3), harms.reshape(-1)
    flat_sigma = sigma.reshape(-1)
    starts = np.arange(0, upper.size, t_count)     # step 0 of each row
    top = upper.argmax(axis=-1).ravel()
    row_of = np.arange(k_count * r_count) % r_count
    floor = _risk_floor(flat_dists[starts + top], radii[row_of],
                        sigma[row_of, top], flat_harms[starts + top])
    cells = np.flatnonzero(~(upper < floor.reshape(k_count, r_count, 1))
                           & ~beyond)
    # one flat element per body point, so that no operand broadcasts
    rows = cells // t_count % r_count
    p = disc_probability(flat_dists[cells].ravel(), radii[rows].repeat(3),
                         flat_sigma[cells % (r_count * t_count)].repeat(3)
                         ).reshape(-1, 3)
    p = p[:, 0] + p[:, 1] + p[:, 2]   # as sum(axis=-1) adds them
    weighted = np.full(upper.size, -np.inf)
    np.putmask(weighted, beyond.reshape(-1), flat_harms * 0.0)
    weighted[cells] = flat_harms[cells] * np.minimum(p, 1.0)
    weighted = weighted.reshape(upper.shape)
    steps = weighted.argmax(axis=-1)
    sums = np.zeros(upper.size)
    sums[cells] = p
    return (weighted.max(axis=-1), steps,
            sums[starts + steps.ravel()].reshape(steps.shape))


def risk_kernel(batch: MotionBatch, egos: list[int],
                boundaries: list[RoadMap], cfg: RiskConfig) -> RiskTerms:
    """The risks of every mode row's rows, the victims and the boundaries
    of every scene of the batch, in one pass; scene b's ego is the batch
    index egos[b] and its road boundaries are boundaries[b]. See the
    module docstring for the layout. Positions, velocities, headings and
    offsets are handled coordinate first, [2, ...]; the speeds and
    distances write `norm2`'s rule on them inline."""
    k_count, n, t_count = batch.yaws.shape
    if t_count < 1:
        raise ValueError("risk needs at least one future step")
    if np.logical_or.reduce(batch.masses <= 0):
        raise ValueError("masses must be positive")
    sigma = cfg.uncertainty.sigma_array(t_count)
    coeffs = cfg.harm
    mu_area = np.array([coeffs.mu_area[r] for r in REGIONS])
    scene_egos = np.asarray(egos, dtype=np.intp)                  # [B]
    of_scene = scene_egos.repeat([rows.stop - rows.start
                                  for rows in batch.slices])
    victims = (np.arange(n) != of_scene).nonzero()[0]
    ego = of_scene[victims]                       # each victim's ego
    m = len(victims)
    shape = (k_count, m + len(scene_egos), t_count)

    # positions and velocities coordinate first, [2, K, N, T]
    pos = batch.positions.transpose(3, 0, 1, 2)
    vel = batch.velocities.transpose(3, 0, 1, 2)
    speeds = np.square(vel, order="C")
    speeds = np.add(speeds[0], speeds[1], out=speeds[0])
    np.sqrt(speeds, out=speeds)
    # unit motion direction, the yaw direction when (nearly) stopped, as
    # AgentState.direction defines it
    with np.errstate(divide="ignore", invalid="ignore"):
        heading = np.divide(vel, speeds, order="C")
    stopped = speeds < SPEED_EPS
    if np.logical_or.reduce(stopped, axis=None):
        yaw = batch.yaws[stopped]
        heading[0][stopped], heading[1][stopped] = np.cos(yaw), np.sin(yaw)

    # the rows' body points: the victims', then each boundary's point
    # nearest the ego and two out of reach
    dists = np.empty(shape + (3,))
    dists[:, m:] = np.inf
    yaw = batch.yaws[:, victims]                                  # [K, M, T]
    along = np.empty((2,) + yaw.shape)         # half the length along the yaw
    np.cos(yaw, out=along[0])
    np.sin(yaw, out=along[1])
    along *= 0.5 * batch.lengths[victims, None]
    offsets = _body_offsets(pos[:, :, ego], pos[:, :, victims],
                            along)                       # [2, 3, K, M, T]
    # the bearing of the ego center from the victim center, against the
    # victim's yaw, before the offsets are squared in place
    bearing = np.arctan2(offsets[1, 1], offsets[0, 1])
    bearing -= yaw
    np.square(offsets, out=offsets)
    body = np.add(offsets[0], offsets[1], out=offsets[0])    # [3, K, M, T]
    np.sqrt(body, out=body)
    dists[:, :m] = body.transpose(1, 2, 3, 0)
    # each scene's boundary segments, padded to the most with segments
    # far from every point
    segments = [road.segments() for road in boundaries]
    width = max(len(a) for a, _ in segments)
    if not width:
        nearest = np.zeros((k_count, len(segments), t_count, 2))
    else:
        ends = np.full((2, len(segments), width, 2), _FAR)
        ends[1, ..., 0] = 2.0 * _FAR
        for s, (sa, sb) in enumerate(segments):
            ends[0, s, :len(sa)], ends[1, s, :len(sb)] = sa, sb
        dists[:, m:, :, 0], nearest = _clearance(
            batch.positions[:, scene_egos], ends[0, :, None],
            ends[1, :, None])
        roadless = [not len(sa) for sa, _ in segments]
        if any(roadless):
            dists[:, m:, :, 0][:, roadless] = np.inf
    radii = np.empty(shape[1])
    np.add(batch.widths[victims], batch.widths[ego], out=radii[:m])
    radii[:m] *= 0.5
    np.multiply(0.5, batch.widths[scene_egos], out=radii[m:])
    row_sigma = np.empty(shape[1:])
    row_sigma[:m] = math.sqrt(2.0) * sigma   # both positions uncertain
    row_sigma[m:] = sigma

    # delta-v and the struck region: the victims' from the pair, the
    # boundaries' the ego speed and a side impact
    dv, region = np.empty(shape), np.empty(shape, dtype=int)
    region[:, m:] = _SIDE
    # the cosine of the collision angle, dot2 of the two headings, clamped
    cos_theta = heading[:, :, victims] * heading[:, :, ego]
    cos_theta = np.add(cos_theta[0], cos_theta[1], out=cos_theta[0])
    np.maximum(cos_theta, -1.0, out=cos_theta)
    np.minimum(cos_theta, 1.0, out=cos_theta)
    v_vic, v_ego = speeds[:, victims], speeds[:, ego]
    m_vic, m_ego = batch.masses[victims, None], batch.masses[ego, None]
    rel = np.sqrt(np.maximum(v_vic * v_vic + v_ego * v_ego
                             - 2.0 * v_vic * v_ego * cos_theta, 0.0))
    np.multiply(m_ego / (m_vic + m_ego), rel, out=dv[:, :m])
    dv[:, m:] = speeds[:, scene_egos]
    region[:, :m] = _struck_region(bearing, body[1])
    # each row's harm scale, by the victim's class; 1 for a boundary
    by_flag = (cfg.harm_scale(False), cfg.harm_scale(True))
    scale = np.ones(shape[1])
    scale[:m] = [by_flag[batch.agent_classes[i] in PROTECTED_CLASSES]
                 for i in victims.tolist()]
    harms = nn.sigmoid(coeffs.mu0 + coeffs.mu1 * dv + mu_area[region])
    harms *= scale[:, None]

    return RiskTerms([batch.agent_ids[i] for i in victims.tolist()], victims,
                     np.concatenate((ego, scene_egos)), nearest, dists, radii,
                     row_sigma, dv, region, harms,
                     *_gated_risks(dists, radii, row_sigma, harms))


def boundary_risk(batch: MotionBatch, ego: int, boundaries: RoadMap,
                  cfg: RiskConfig) -> np.ndarray:
    """[K] risk of the ego leaving the road in each mode, the kernel's
    boundary row for a batch of one scene: clearance to the nearest
    boundary mapped through the collision-probability and harm machinery
    with an immovable partner (delta-v equals the ego speed, side
    impact)."""
    return risk_kernel(batch, [ego], [boundaries], cfg).risks[:, -1]


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


def mode_costs(terms: RiskTerms, mode_probs: list[float], cfg: RiskConfig
               ) -> np.ndarray:
    """[K, 5] c_s, c_c, c_r, l_risk and score of every mode of the kernel's
    output, in one pass over its [K, R] risks: the victims' risks are the
    first M columns and the boundary's the last.

    Each mode's values are those of `safety_cost`, `care_cost`,
    `responsiveness_cost` and `total_risk_cost` of its row, bit for bit:
    a sum runs over the last axis of a [K, M] or [K, M * M] array, so each
    row is summed as that row alone is, pairwise from M = 8 on, and every
    other operation is the same IEEE operation on each element. The
    score's log is `math.log` of each mode's probability."""
    risks, r_b = terms.risks[:, :-1], terms.risks[:, -1]
    k_count, m = risks.shape
    total = np.add.reduce(risks, axis=-1)
    costs = np.empty((5, k_count))
    c_s, c_c, c_r, l_risk, score = costs
    if m:
        np.add(total, r_b, out=c_s)
        c_s /= 2.0 * m
        spread = np.subtract(risks[:, :, None], risks[:, None, :])
        np.abs(spread, out=spread)
        np.add.reduce(spread.reshape(k_count, m * m), axis=-1, out=c_c)
        c_c /= m
    else:
        np.multiply(0.5, r_b, out=c_s)
        c_c.fill(0.0)
    np.multiply(cfg.responsiveness_scale, total, out=c_r)
    l_risk[:] = total_risk_cost(c_s, c_c, c_r, cfg.weights)
    np.multiply(cfg.prob_tradeoff,
                [math.log(max(p, 1e-12)) for p in mode_probs], out=score)
    np.subtract(l_risk, score, out=score)
    return costs.T


def mode_risk_report(terms: RiskTerms, mode: int, mode_prob: float,
                     costs: list[float]) -> RiskReport:
    """One mode of the kernel's output: the risks of the ego's potential
    collisions with every victim and the boundary risk, with the mode's
    row of `mode_costs` (c_s, c_c, c_r, l_risk and score), which
    `rank_trajectories` computes for every mode in one pass."""
    return RiskReport(mode, mode_prob, list(terms.victim_ids),
                      terms.risks[mode, :-1], float(terms.risks[mode, -1]),
                      *costs)


def _road_boundaries(scn: Scenario) -> RoadMap:
    return scn.map.of_kind("road_boundary")


# overflowing kinematics fail the finiteness check, not numpy's warnings
@np.errstate(over="ignore", invalid="ignore")
def rank_trajectories(jp: JointPrediction, scn: Scenario,
                      cfg: RiskConfig | None = None
                      ) -> tuple[list[int], list[RiskReport]]:
    """Score every candidate mode and return (order, reports), where order
    lists mode indices from best (lowest risk-adjusted score) to worst; a
    tie goes to the lower mode. Only the predicted agents are ranked. One
    `risk_kernel` call scores every mode's rows, one `mode_costs` pass
    gives every mode's costs and score, and `mode_risk_report` reads each
    mode's report out of them. A prediction of another scenario (both ids
    non-empty and different) or a mode whose score is not finite cannot be
    ranked and raises ValueError, naming the first such mode."""
    if (jp.scenario_id and scn.scenario_id
            and jp.scenario_id != scn.scenario_id):
        raise ValueError(f"the prediction is of scenario {jp.scenario_id!r}, "
                         f"not of {scn.scenario_id!r}")
    cfg = cfg or RiskConfig()
    predicted = scn.take(scn.prediction_rows(jp.agent_ids))
    terms = risk_kernel(batch_from_prediction([predicted], jp.trajectories),
                        [predicted.ego_index], [_road_boundaries(scn)], cfg)
    probs = [float(jp.mode_probs[k]) for k in range(len(terms.risks))]
    costs = mode_costs(terms, probs, cfg)
    bad = np.flatnonzero(~np.isfinite(costs[:, -1]))
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"scenario {scn.scenario_id!r}: mode {k} has a "
                         f"non-finite risk score {float(costs[k, -1])!r}")
    reports = [mode_risk_report(terms, k, p, row)
               for k, (p, row) in enumerate(zip(probs, costs.tolist()))]
    scores = costs[:, -1].tolist()
    order = sorted(range(len(reports)), key=scores.__getitem__)
    for rank, k in enumerate(order):
        reports[k].rank = rank
    return order, reports


# --------------------------------------------------------------------------
# Differentiable risk for training
# --------------------------------------------------------------------------

# overflowing kinematics fail the finiteness check, not numpy's warnings
@np.errstate(over="ignore", invalid="ignore")
def risk_loss_and_grad(trajs: np.ndarray, scenes: list[Scenario],
                       modes: np.ndarray, cfg: RiskConfig
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Total risk cost of one decoded joint mode of each scene of a union,
    and its gradient with respect to those decoded positions. trajs
    [K, N, T, 2] holds the K modes of the scenes' agents, scene after
    scene, each scene's ego at its ``ego_index``; modes [B] is each
    scene's mode. Returns the [B] losses and the [N, T, 2] gradient, each
    row's of its scene's mode. One `risk_kernel` call scores every scene.

    Harm factors, struck regions and the argmax steps are treated as
    constants; the gradient flows through the collision probabilities at
    the argmax step of each row, victim or boundary, whose risk is positive
    and whose probability sum there is unclamped. Each scene's costs are
    `safety_cost`, `care_cost` and `responsiveness_cost` with their sums
    taken in row order. A loss or gradient that is not finite raises
    ValueError naming the first such scenario.
    """
    sizes = np.array([len(scn.agent_ids) for scn in scenes])
    starts = np.cumsum(sizes) - sizes
    selected = trajs[np.repeat(modes, sizes), np.arange(sizes.sum())]
    batch = batch_from_prediction(scenes, selected[None])
    terms = risk_kernel(batch, starts + [scn.ego_index for scn in scenes],
                        [_road_boundaries(scn) for scn in scenes], cfg)
    w_s, w_c, w_r = cfg.weights
    risks = terms.risks[0]                                        # [R]
    # each scene's victim risks [B, max(M_b, 1)], padded with zeros, and
    # their differences, zero at a padded pair
    m = sizes - 1
    filled = np.arange(max(m.max(), 1)) < m[:, None]
    victim_risks = np.zeros(filled.shape)
    victim_risks[filled] = risks[:-len(m)]
    pairs = victim_risks[:, :, None] - victim_risks[:, None, :]
    pairs *= filled[:, :, None] & filled[:, None, :]
    # the costs, each sum in row order (zeros past a scene's rows add
    # nothing)
    risk_sum = np.cumsum(victim_risks, axis=1)[:, -1]
    spread = np.cumsum(np.abs(pairs).reshape(len(m), -1), axis=1)[:, -1]
    boundary = risks[-len(m):]
    per = np.maximum(m, 1)
    c_s = np.where(m > 0, (risk_sum + boundary) / (2.0 * per),
                   0.5 * boundary)
    losses = total_risk_cost(c_s, spread / per,
                             cfg.responsiveness_scale * risk_sum,
                             cfg.weights)

    # d l_risk / d risk: each row's share of c_s, w_s / (2 M_b) or w_s / 2
    # without victims, and the victims' shares of c_c and c_r
    share = w_s / (2.0 * per)
    dl = np.append(np.repeat(share, m), share)
    sign_sum = np.sign(pairs).sum(axis=2)[filled]
    dl[:-len(m)] = dl[:-len(m)] + w_c * 2.0 * sign_sum / np.repeat(per, m) \
        + w_r * cfg.responsiveness_scale
    rows = np.flatnonzero((risks > 0.0) & (terms.step_sums[0] < 1.0))
    t = terms.steps[0, rows]
    dists = terms.dists[0, rows, t]                               # [L, 3]
    dp = disc_probability_ddist(dists, terms.radii[rows, None],
                                terms.sigma[rows, t, None])
    coincident = dists < 1e-9   # no direction to move along
    coef = dl[rows, None] * terms.harms[0, rows, t, None] * dp \
        / np.where(coincident, 1.0, dists)
    # the ego center minus each body point, at the live (row, step) pairs:
    # a victim's three, or a boundary's nearest point and two out of reach
    ego = terms.egos[rows]
    pos = selected[ego, t]                                        # [L, 2]
    offsets = np.zeros((2, len(rows), 3))
    victim = rows < len(terms.victims)
    v, tv = terms.victims[rows[victim]], t[victim]
    half, yaw = 0.5 * batch.lengths[v], batch.yaws[0, v, tv]
    offsets[:, victim] = _body_offsets(
        pos[victim].T, selected[v, tv].T,
        half * np.array([np.cos(yaw), np.sin(yaw)])).transpose(0, 2, 1)
    edge = ~victim
    offsets[:, edge, 0] = (pos[edge] - terms.nearest[
        0, rows[edge] - len(terms.victims), t[edge]]).T
    g = (np.where(coincident, 0.0, coef) * offsets).sum(axis=-1).T  # [L, 2]
    grad = np.zeros_like(selected)
    np.add.at(grad, (ego, t), g)
    np.add.at(grad, (v, tv), -g[victim])

    bad = ~np.isfinite(losses) | ~np.logical_and.reduceat(
        np.isfinite(grad).all(axis=(1, 2)), starts)
    if bad.any():
        b = int(np.argmax(bad))
        raise ValueError(f"scenario {scenes[b].scenario_id!r}: the risk "
                         f"loss {float(losses[b])!r} or its gradient is not "
                         f"finite")
    return losses, grad
