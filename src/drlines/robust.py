"""Perturbed DR iterations and the robust geometric decay bound.

The admissible disturbance radius

    sigma(x) = ((1+eps)^(1/(2(1+alpha))) - 1) * d(x, {p1, p2})

is calibrated so that V inflates by at most (1+eps) over the closed ball
B[x, sigma(x)].  A perturbed step (pre-offset, one operator branch,
post-offset) therefore inflates V by at most (1+eps)^2 * gamma, and as long
as that product stays below 1 every perturbed trajectory obeys the distance
bound beta(omega2(x0), n) with beta geometric in n.
"""
from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dr import _lane_clear, _lane_gap, dr_multivalued
from .geometry import ProblemConfig, checked_start, cos_sin
from .lyapunov import _V_ZERO, _log_v, _v_many, v_global, v_local

# The V searches below screen many points at once with _v_many and
# confirm with scalar v_global, which alone decides.  np.log may differ
# from math.log by an ulp, and |log v| <= 745 for every positive finite
# double, so a screened log V is within about 1e-12 * (1 + alpha) of the
# scalar one; np.exp and math.exp then differ by an ulp, or by one unit
# of the smallest subnormal where V is subnormal.  The screens widen every
# comparison by _SCREEN_REL * (1 + alpha) relative, a thousand times that
# error, plus _SCREEN_ABS, sixteen subnormal units.  A V too large for a
# double screens as inf (np.exp warns) and passes, and v_global raises
# OverflowError on it as before.
#
# The adversary screens boundary points x + sigma (cos a, sin a) built
# from np.cos and np.sin, taken to be within tau = _TRIG_TOL = 2^-40 of
# math's (a test checks it), and builds only its candidates from math's.
# A component x_k of x moves neither point if sigma (1 + tau) <
# spacing(|x_k|)/8, as both sums round back to x_k; else the points
# differ there by at most sigma (tau + 2^-50) plus one spacing of
# |x_k| + sigma.  The sum E of these bounds the gap between the points,
# and D = d(x) - sigma - 2E bounds their distance from {p1, p2} below, so
# V at either point is within a factor g = ((D+E)/(D-E))^(2 alpha + 2)
# of V at the other, and the lane's screen floor is divided by g^2.  A
# lane with E > 0 and D <= E, or whose ball crosses the circle of radius
# sqrt(_V_ZERO) about p1, inside which V_1 counts as an exact 0, or with
# g - 1 > _TRIG_SLACK builds all its points from math's trig.  A lane
# whose screened V reaches _V_BIG, a quarter of the largest double, takes
# every point as a candidate.
_SCREEN_REL = 1e-9
_SCREEN_ABS = 16 * math.ulp(0.0)
_TRIG_TOL = 2.0 ** -40
_TRIG_SLACK = 1e-9
_V_CUT = math.sqrt(_V_ZERO)
_LOG_DBL_MAX = math.log(sys.float_info.max)
_V_BIG = sys.float_info.max / 4.0
_TWO_PI = 2.0 * math.pi
# rate_ratio's bound on the rounding of a point, in ulps of 1 + its norm
_RATE_ULPS = 8
# boundary angles the adversary tries per disturbance ball
_K_BOUNDARY = 64


@dataclass(frozen=True)
class PerturbationSpec:
    """Disturbance level eps tied to the certificate pair (alpha, gamma).

    Requires (1+eps)^2 * gamma < 1; eps = 0 is the degenerate nominal case
    and is allowed for testing only.
    """

    epsilon: float
    alpha: float
    gamma: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        rate = (1.0 + self.epsilon) ** 2 * self.gamma
        if not rate < 1.0:
            raise ValueError(
                f"(1+eps)^2 * gamma = {rate} >= 1; no robust rate at this eps")

    @classmethod
    def from_certificate(cls, cert, epsilon: float = 0.05) -> "PerturbationSpec":
        return cls(epsilon=epsilon, alpha=cert.alpha, gamma=cert.gamma)

    @property
    def rate(self) -> float:
        """The certified per-step inflation bound (1+eps)^2 * gamma."""
        return (1.0 + self.epsilon) ** 2 * self.gamma

    @property
    def kappa(self) -> float:
        """sigma(x) / d(x, {p1, p2})."""
        return math.expm1(math.log1p(self.epsilon) / (2.0 * (1.0 + self.alpha)))


class StepSample(NamedTuple):
    point: tuple[float, float]
    pre_offset: tuple[float, float]
    post_offset: tuple[float, float]


@dataclass(frozen=True)
class PerturbedTrace:
    """Points of one perturbed trajectory plus the offsets actually applied.

    ``disturbances[n]`` holds the (pre, post) offset pair consumed between
    ``points[n]`` and ``points[n+1]``; every recorded offset has norm at
    most sigma of the point it was applied at.
    """

    points: tuple[tuple[float, float], ...]
    disturbances: tuple[tuple[tuple[float, float], tuple[float, float]], ...]
    seed: int


def _anchor_distances(cfg: ProblemConfig, points) -> list[float]:
    """d(p, {p1, p2}) for each point (x, y) by math.hypot, whose bits the
    printed margins carry; np.hypot may round differently."""
    (p1x, p1y), (p2x, p2y), hypot = cfg.p1, cfg.p2, math.hypot
    return [min(hypot(x - p1x, y - p1y), hypot(x - p2x, y - p2y))
            for x, y in points]


def sigma(spec: PerturbationSpec, cfg: ProblemConfig, x) -> float:
    """Admissible perturbation radius at x.

    Vanishes exactly on {p1, p2}, is positive and 1-Lipschitz-continuous
    (up to the constant factor) everywhere else.
    """
    return spec.kappa * _anchor_distances(cfg, [x])[0]


def kl_beta(spec: PerturbationSpec, s: float, t: float) -> float:
    """beta(s, t) = s * ((1+eps)^2 gamma)^(t / (2 alpha + 2)).

    Class-KL in (s, t): increasing in s, decreasing to 0 in t.
    """
    return s * spec.rate ** (t / (2.0 * spec.alpha + 2.0))


def _screen_floor(spec: PerturbationSpec, v: float) -> float:
    """The least screened V that a scalar V of at least v can have; a V
    of exactly 0 screens as -1.0, below every floor for v >= 0."""
    return v * (1.0 - _SCREEN_REL * (1.0 + spec.alpha)) - _SCREEN_ABS


def _directions(angles: np.ndarray) -> np.ndarray:
    """(cos, sin) at the angles, shape (2, *angles.shape), by math.cos and
    math.sin: np.cos may round differently, and near p_i the rounding of
    x + offset can turn that ulp into a large change in V."""
    a = angles.ravel().tolist()
    return np.concatenate([np.fromiter(map(f, a), float, len(a))
                           for f in (math.cos, math.sin)]
                          ).reshape(2, *angles.shape)


def _np_directions(angles: np.ndarray) -> np.ndarray:
    """(cos, sin) at the angles by np.cos and np.sin, for the screen."""
    return np.stack((np.cos(angles), np.sin(angles)))


def _trig_slack(spec: PerturbationSpec, cfg: ProblemConfig, x: np.ndarray,
                radius: np.ndarray) -> np.ndarray:
    """Per lane (column of x), the g of the screen comment above: V at a
    boundary point built from NumPy's trig is within a factor g of V at
    the one built from math's.  inf where no such g is at hand."""
    ax = np.abs(x)
    e = np.where(radius * (1.0 + _TRIG_TOL) < np.spacing(ax) / 8.0, 0.0,
                 radius * (_TRIG_TOL + 2.0 ** -50) + np.spacing(ax + radius)
                 ).sum(axis=0)
    (p1x, p1y), (p2x, p2y) = cfg.p1, cfg.p2
    d1 = np.hypot(x[0] - p1x, x[1] - p1y)
    reach = radius + 2.0 * e
    lo = np.minimum(d1, np.hypot(x[0] - p2x, x[1] - p2y)) - reach
    # q = E / D, at most 1e-6 (where g is out of use anyway) and 0 for E = 0
    q = e / np.maximum(lo, 1e6 * e + math.ulp(0.0))
    g = ((1.0 + q) / (1.0 - q)) ** (2.0 * spec.alpha + 2.0)
    # V_1 is an exact 0 within sqrt(_V_ZERO) of p1: a ball on both sides
    across = (d1 - reach < _V_CUT * 2.0) & (d1 + reach > _V_CUT / 2.0)
    return np.where((e == 0.0) | ((lo > e) & ~across), g, np.inf)


def _worst_offsets(spec: PerturbationSpec, cfg: ProblemConfig, x: np.ndarray,
                   radius: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Per lane (column of x), the first boundary offset at its row of
    angles of maximal V, if that beats V(x), else (0.0, 0.0): V has no
    interior local max, so the sup over the ball sits on the boundary.
    Only points near the lane's screened maximum can be it; they are
    built from math's trig, and scalar v_global decides."""
    g = _trig_slack(spec, cfg, x, radius)
    dirs = _np_directions(angles)
    exact = ~(g <= 1.0 + _TRIG_SLACK)
    if exact.any():
        dirs[:, exact] = _directions(angles[exact])
        g[exact] = 1.0
    z = radius[:, None] * dirs + x[..., None]
    w = _v_many(spec.alpha, cfg, z.reshape(2, -1)).reshape(angles.shape)
    top = w.max(axis=1, initial=-1.0)
    # near overflow every point is a candidate, so that v_global raises
    # OverflowError wherever it would at the points built from math's trig
    floor = np.where(top < _V_BIG, _screen_floor(spec, top / (g * g)),
                     -np.inf)
    lanes, cols = (w >= floor[:, None]).nonzero()
    best_v = [v_global(spec, cfg, p) for p in x.T.tolist()]
    best = np.zeros_like(x)
    points, radii = x.T.tolist(), radius.tolist()
    for i, a in zip(lanes.tolist(), angles[lanes, cols].tolist()):
        off = (radii[i] * math.cos(a), radii[i] * math.sin(a))
        v = v_global(spec, cfg, (points[i][0] + off[0], points[i][1] + off[1]))
        if v > best_v[i]:
            best_v[i] = v
            best[:, i] = off
    return best


def _step_lanes(spec: PerturbationSpec, cfg: ProblemConfig, x: np.ndarray,
                u: np.ndarray, adversarial: bool):
    """One step of each lane (column of x) with its draws (row of u, the
    pre-ball's first): (points, pre, post), each (2, L).  Lanes on the
    tie band, those dr._lane_clear finds not clear, step through
    dr_multivalued; there random lanes take A1, adversarial lanes the
    larger V (A1 on equal V)."""
    def offsets(x, u):
        radius = spec.kappa * np.array(_anchor_distances(cfg, x.T.tolist()))
        if adversarial:
            return _worst_offsets(spec, cfg, x, radius, _TWO_PI * u)
        # radius * sqrt(u) makes the point uniform over the disc
        return radius * np.sqrt(u[:, 1]) * _directions(_TWO_PI * u[:, 0])

    pre = offsets(x, u[:, :u.shape[1] // 2])
    x = x + pre
    (c1, s1), (c2, s2) = cos_sin(cfg.theta1), cos_sin(cfg.theta2)
    gap, bx, by = _lane_gap(c1, s1, c2, s2, x[0], x[1])
    clear = _lane_clear(gap, x[0], x[1])
    y = np.array((bx, by + 0.0))
    for i in (~clear).nonzero()[0].tolist():
        outs = dr_multivalued(cfg, x[:, i].tolist()).outputs
        y[:, i] = outs[0]
        if adversarial and len(outs) > 1:
            y[:, i] = max(outs, key=lambda q: v_global(spec, cfg, q))
    post = offsets(y, u[:, u.shape[1] // 2:])
    return y + post, pre, post


def _draws_per_step(mode: str) -> int:
    """Doubles a step draws: an angle and a radius per ball (random), or
    _K_BOUNDARY angles per ball (adversarial); any other mode raises."""
    if mode not in ("random", "adversarial"):
        raise ValueError(f"mode must be 'random' or 'adversarial', got {mode!r}")
    return 2 * _K_BOUNDARY if mode == "adversarial" else 4


def perturbed_step(spec: PerturbationSpec, cfg: ProblemConfig, x,
                   rng: np.random.Generator, mode: str = "random"
                   ) -> StepSample:
    """One step of the inflated operator: pre-ball, branch, post-ball.

    ``mode="random"`` samples both balls uniformly and takes the first
    branch on ties; ``mode="adversarial"`` takes V-maximizing boundary
    offsets and the V-maximizing branch, approximating the sup over all
    admissible disturbance selections.  One lane of run_perturbed_many.
    """
    u = rng.random((1, _draws_per_step(mode)))
    x = np.array([[x[0]], [x[1]]], float)
    return StepSample(*(tuple(a[:, 0].tolist()) for a in _step_lanes(
        spec, cfg, x, u, mode == "adversarial")))


class PerturbedLanes(NamedTuple):
    """The traces of one run_perturbed_many call, lane j at index j:
    ``points`` (L, n_steps + 1, 2) and ``disturbances`` (L, n_steps, 2, 2),
    the (pre, post) offsets of each step."""

    points: np.ndarray
    disturbances: np.ndarray
    seed: int

    def trace(self, j: int) -> PerturbedTrace:
        return PerturbedTrace(tuple(map(tuple, self.points[j].tolist())),
                              tuple((tuple(a), tuple(b)) for a, b
                                    in self.disturbances[j].tolist()),
                              self.seed)


def run_perturbed_many(spec: PerturbationSpec, cfg: ProblemConfig, starts,
                       n_steps: int, seed: int, trace_ids,
                       mode: str = "random") -> PerturbedLanes:
    """Perturbed trajectories from ``starts[j]`` on independent
    (seed, trace_ids[j]) streams, advanced together as NumPy lanes; a lane
    does not depend on the lanes beside it.  Raises, before any draw, for
    a seed that is not an integer >= 0 (TypeError for a non-integer), and
    ValueError for an unknown mode, a negative step count, starts and
    trace_ids of different lengths, and starts that are not finite or
    whose V is too large for a double."""
    if operator.index(seed) < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    per_step = _draws_per_step(mode)
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    trace_ids = list(trace_ids)
    if len(starts) != len(trace_ids):
        raise ValueError(f"{len(starts)} starts for {len(trace_ids)} "
                         "trace ids")
    x0s = [checked_start(x0) for x0 in starts]
    for start in x0s:
        # V along the trace stays below (1+eps) V(x0), its sup over the
        # first disturbance ball; one more factor (1+eps) is kept as slack
        lv = _log_v(spec.alpha, v_local(cfg, 1, start), v_local(cfg, 2, start))
        if not lv + 2.0 * math.log1p(spec.epsilon) < _LOG_DBL_MAX:
            raise ValueError(f"V at the start ({start[0]!r}, {start[1]!r}) is "
                             f"about exp({lv:.6g}); (1+eps)^2 V overflows a "
                             "double")
    points = np.empty((len(x0s), n_steps + 1, 2))
    points[:, 0] = np.reshape(x0s, (-1, 2))
    disturbances = np.empty((len(x0s), n_steps, 2, 2))
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, t]))
            for t in trace_ids]
    # draws do not depend on the points, so each lane draws as many whole
    # steps ahead as fit in 64 doubles, at least one; memory bounds this
    # (whole traces would take 6 MB at 30 adversarial lanes)
    chunk = max(1, 64 // per_step)
    for n in range(n_steps):
        if n % chunk == 0:
            u = np.empty((len(rngs), min(chunk, n_steps - n), per_step))
            for rng, row in zip(rngs, u):
                rng.random(out=row)
        x, pre, post = _step_lanes(spec, cfg, points[:, n].T, u[:, n % chunk],
                                   mode == "adversarial")
        points[:, n + 1] = x.T
        disturbances[:, n] = np.stack((pre.T, post.T), axis=1)
    return PerturbedLanes(points, disturbances, seed)


def run_perturbed(spec: PerturbationSpec, cfg: ProblemConfig, x0,
                  n_steps: int, seed: int, trace_id: int = 0,
                  mode: str = "random") -> PerturbedTrace:
    """One perturbed trajectory on an independent (seed, trace_id) stream,
    so concurrent traces never share PRNG state: the one-lane
    run_perturbed_many, raising ValueError as it does."""
    return run_perturbed_many(spec, cfg, [x0], n_steps, seed, [trace_id],
                              mode).trace(0)


def check_lemma_sigma(spec: PerturbationSpec, cfg: ProblemConfig, x,
                      n_samples: int = 256, seed: int = 0) -> bool:
    """Sampled check that sup V over B[x, sigma(x)] is at most (1+eps)V(x).

    The sup is attained on the sphere, so seven of every eight samples sit
    there; the rest audit the interior.
    """
    if n_samples < 0:
        raise ValueError(f"n_samples must be >= 0, got {n_samples}")
    s = sigma(spec, cfg, x)
    vx = v_global(spec, cfg, x)
    bound = (1.0 + spec.epsilon) * vx * (1.0 + 1e-9)
    # sample i takes one double for its angle, preceded by one for its
    # radius when i % 8 == 0; u holds them in that order
    i = np.arange(n_samples)
    u = np.random.default_rng(seed).random(n_samples + len(i[::8]))
    r = np.full(n_samples, s)
    r[::8] = s * np.sqrt(u[i[::8] + i[::8] // 8])
    z = r * _directions(_TWO_PI * u[i + i // 8 + 1]) + np.asarray(x)[:, None]
    over = _v_many(spec.alpha, cfg, z) >= _screen_floor(spec, bound)
    return not any(v_global(spec, cfg, zj) > bound
                   for zj in z.T[over].tolist())


def check_kl_bound(spec: PerturbationSpec, cfg: ProblemConfig,
                   trace) -> tuple[bool, float]:
    """Audit one trace, a PerturbedTrace or the sequence of its points,
    against d(x_n, {p1,p2}) <= beta(omega2(x0), n).

    Returns (ok, worst_margin) with worst_margin = min over n of
    (bound - actual).  A pass is sampled evidence for the bound, not a
    proof: the trace explores only one disturbance selection.
    """
    points = trace.points if isinstance(trace, PerturbedTrace) else trace
    (p1x, p1y), (p2x, p2y), hypot = cfg.p1, cfg.p2, math.hypot
    x0 = points[0]
    w2 = max(hypot(x0[0] - p1x, x0[1] - p1y), hypot(x0[0] - p2x, x0[1] - p2y))
    # the bound is kl_beta(spec, w2, n), its operations in its order
    rate, e = spec.rate, 2.0 * spec.alpha + 2.0
    ok = True
    worst = math.inf
    for n, (x, y) in enumerate(points):
        actual = min(hypot(x - p1x, y - p1y), hypot(x - p2x, y - p2y))
        bound = w2 * rate ** (float(n) / e)
        if bound - actual < worst:
            worst = bound - actual
        if actual > bound * (1.0 + 1e-9):
            ok = False
    return ok, worst


def rate_ratio(spec: PerturbationSpec, cfg: ProblemConfig,
               trace: PerturbedTrace) -> float:
    """Largest V(x_{n+1}) / V(x_n) over the trace's steps from V(x_n) > 0,
    divided by the certified rate (1+eps)^2 gamma; 0.0 without such steps.

    A computed point is off by up to e, _RATE_ULPS ulps of 1 + its norm,
    and moving it by e scales V = |x - p1|^(2 alpha) |x - p2|^2 by at most
    ((d+e)/d)^(2 alpha + 2) at distance d from {p1, p2}.  So each ratio is
    divided by ((d+e)/(d-e))^(2 alpha + 2), d the smaller distance of the
    step's points, and a step with d <= e, where rounding alone can give
    any ratio, is left out.
    """
    worst = 0.0
    for x, y in zip(trace.points, trace.points[1:]):
        vx = v_global(spec, cfg, x)
        d = min(_anchor_distances(cfg, (x, y)))
        e = _RATE_ULPS * math.ulp(1.0 + max(math.hypot(*x), math.hypot(*y)))
        if vx > 0.0 and d > e:
            slack = ((d + e) / (d - e)) ** (2.0 * spec.alpha + 2.0)
            worst = max(worst, v_global(spec, cfg, y) / vx / slack)
    return worst / spec.rate
