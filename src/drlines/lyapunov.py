"""Lyapunov machinery for the two-lines/one-line DR iteration.

Local functions V_i(x) = |x - p_i|^2 decay exactly at rate cos^2(theta_i)
under their own branch.  The global candidate V = V_1^alpha * V_2 decays at
a uniform rate gamma < 1 on every branch whenever

    (log P)^2 < log(cos^2 theta1) * log(cos^2 theta2),
    P = (1 + sin theta1)(1 + sin theta2),

and this module computes the witness (alpha, gamma), the admissible alpha
interval, and the increase-ball geometry that makes the certificate work:
the set where the "wrong" branch inflates V_i by more than rho is an open
ball, and for rho >= P that ball sits inside the region where the wrong
branch is never taken.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dr import _gap, dr_multivalued, dr_two_lines
from .geometry import ProblemConfig, cos_sin, omegas

# V_1 below this is treated as exactly zero to keep powers out of subnormals
_V_ZERO = 1e-300


@dataclass(frozen=True)
class LyapunovCertificate:
    """A verified (alpha, gamma) pair for V = V_1^alpha * V_2.

    ``alpha_min``/``alpha_max`` bound the admissible exponent interval;
    ``condition_margin`` = log(cos^2 t1) log(cos^2 t2) - (log P)^2 > 0.
    ``special_case`` marks a vertical line: the margin is then +inf, and
    alpha_min is 0 (theta1 = pi/2) or alpha_max is +inf (theta2 = pi/2).
    """

    theta1: float
    theta2: float
    alpha: float
    gamma: float
    alpha_min: float
    alpha_max: float
    condition_margin: float
    special_case: bool


@dataclass(frozen=True)
class Infeasible:
    """Certificate construction failed: the feasibility margin is not > 0
    (NaN included), or it is so small that gamma rounds to 1."""

    theta1: float
    theta2: float
    condition_margin: float


@dataclass(frozen=True)
class IncreaseBall:
    """Open ball where the wrong branch inflates V_index by a factor > rho."""

    center: tuple[float, float]
    radius: float
    index: int
    rho: float


@dataclass(frozen=True)
class BallReport:
    """Brute-force membership audit of an increase ball."""

    n_samples: int
    n_disagree: int
    max_disagreement_distance: float


class SandwichBounds(NamedTuple):
    omega1: float
    omega2: float
    phi_omega1: float
    phi_omega2: float


def v_local(cfg: ProblemConfig, i: int, x) -> float:
    """Squared distance to the intersection point p_i."""
    if i == 1:
        px, py = cfg.p1
    elif i == 2:
        px, py = cfg.p2
    else:
        raise ValueError(f"index must be 1 or 2, got {i}")
    dx = x[0] - px
    dy = x[1] - py
    return float(dx * dx + dy * dy)


def _log_v(alpha: float, v1: float, v2: float) -> float:
    """log of V_1^alpha * V_2, with -inf standing for an exact zero."""
    if v1 < _V_ZERO or v2 <= 0.0:
        return -math.inf
    return alpha * math.log(v1) + math.log(v2)


def _v_many(alpha: float, cfg: ProblemConfig, z: np.ndarray) -> np.ndarray:
    """V at the columns of z (shape (2, n)) in NumPy, to screen points
    before v_global decides among them.

    V_1 and V_2 repeat v_local's arithmetic bit for bit, and the log-space
    expression is _log_v's; np.log and np.exp may differ from math's by an
    ulp.  Where _log_v gives -inf, V is exactly 0 and the result is -1.0.
    """
    d = z - np.array((cfg.p1, cfg.p2))[:, :, None]
    d *= d
    v = d[:, 0] + d[:, 1]
    # exact zeros would make np.log warn; they are marked below anyway
    lv = np.log(np.maximum(v, math.ulp(0.0)))
    w = np.exp(alpha * lv[0] + lv[1])
    w[(v[0] < _V_ZERO) | (v[1] <= 0.0)] = -1.0
    return w


def v_global(cert, cfg: ProblemConfig, x) -> float:
    """V_1(x)^alpha * V_2(x), evaluated in log space.

    ``cert`` is anything carrying the exponent as ``.alpha``.  The value is
    0 exactly when x is one of the intersection points.
    """
    lv = _log_v(cert.alpha, v_local(cfg, 1, x), v_local(cfg, 2, x))
    return 0.0 if lv == -math.inf else math.exp(lv)


def sandwich_bounds(cert, cfg: ProblemConfig, x) -> SandwichBounds:
    """Distances to the attractor pair and their comparison-function values.

    phi(r) = r^(2*alpha + 2) sandwiches V: phi(omega1) <= V(x) <= phi(omega2).
    """
    (lo,), (hi,) = omegas(cfg, [x])
    e = 2.0 * cert.alpha + 2.0
    return SandwichBounds(lo, hi, lo**e, hi**e)


def certify(cfg: ProblemConfig) -> LyapunovCertificate | Infeasible:
    """Construct the decay certificate (alpha, gamma), or report Infeasible.

    With l_i = log(1/cos^2 t_i), +inf for a vertical line, the margin is
    l1 l2 - (log P)^2; alpha is the midpoint of the admissible interval
    [log P / l1, l2 / log P], or 2 alpha_min when theta2 = pi/2 leaves it
    no upper end, and gamma the larger of the two condition values at
    alpha, the tightest certified rate.  Infeasible unless margin > 0 and
    gamma < 1; the margin is NaN (inf * 0) where the other cosine of a
    vertical pair rounds to +-1.
    """
    t1, t2 = cfg.theta1, cfg.theta2
    c1, s1 = cos_sin(t1)
    c2, s2 = cos_sin(t2)
    lp = math.log((1.0 + s1) * (1.0 + s2))
    l1 = -2.0 * math.log(abs(c1)) if c1 != 0.0 else math.inf
    l2 = -2.0 * math.log(abs(c2)) if c2 != 0.0 else math.inf
    margin = l1 * l2 - lp * lp
    if not margin > 0.0:
        return Infeasible(t1, t2, margin)
    alpha_min = lp / l1
    alpha_max = l2 / lp
    alpha = (0.5 * (alpha_min + alpha_max) if l2 < math.inf
             else 2.0 * alpha_min)
    gamma = max(math.exp(lp - alpha * l1), math.exp(alpha * lp - l2))
    if not gamma < 1.0:
        # margin so tiny the rate rounds to 1; no usable certificate
        return Infeasible(t1, t2, margin)
    return LyapunovCertificate(t1, t2, alpha, gamma, alpha_min, alpha_max,
                               margin, margin == math.inf)


def decrease_check(cert: LyapunovCertificate, cfg: ProblemConfig, x) -> bool:
    """True iff V decays by gamma at x along every branch of the operator.

    The comparison runs in log space: V(y) <= gamma * V(x) * (1 + 1e-9) for
    every branch value y.
    """
    lvx = _log_v(cert.alpha, v_local(cfg, 1, x), v_local(cfg, 2, x))
    bound = lvx + math.log(cert.gamma) + math.log1p(1e-9)
    return all(_log_v(cert.alpha, v_local(cfg, 1, y), v_local(cfg, 2, y))
               <= bound for y in dr_multivalued(cfg, x).outputs)


def increase_ball(cfg: ProblemConfig, index: int, rho: float) -> IncreaseBall:
    """The ball where the wrong branch inflates V_index by more than rho.

    Requires a finite rho > cos^2 of the *other* angle (ValueError
    otherwise, NaN included).  For index 1 the center is
    p1 + (cos t2 sin t2 / (rho - cos^2 t2)) e2 with radius
    sqrt(rho) sin t2 / (rho - cos^2 t2); index 2 mirrors with t1 and -e2.
    """
    if index == 1:
        cj, sj = cos_sin(cfg.theta2)
        px, py = cfg.p1
        sign = 1.0
    elif index == 2:
        cj, sj = cos_sin(cfg.theta1)
        px, py = cfg.p2
        sign = -1.0
    else:
        raise ValueError(f"index must be 1 or 2, got {index}")
    denom = rho - cj * cj
    # not denom > 0.0 also rejects a NaN rho
    if not denom > 0.0:
        raise ValueError(f"rho = {rho} must exceed cos^2 of the other angle")
    if not math.isfinite(rho):
        raise ValueError(f"rho = {rho} is not finite")
    center = (px, py + sign * cj * sj / denom)
    radius = math.sqrt(rho) * sj / denom
    return IncreaseBall(center=center, radius=radius, index=index, rho=rho)


def verify_ball_bruteforce(cfg: ProblemConfig, index: int, rho: float,
                           n_samples: int = 10000,
                           seed: int = 0) -> BallReport:
    """Audit the analytic ball against its defining inequality.

    Samples a box 1.5 radii around the center and classifies each point two
    ways: inside the analytic ball, and V_index(wrong-branch image) >
    rho * V_index(x).  Reports how many samples disagree and the largest
    distance of a disagreeing sample from the bounding sphere (disagreement
    is expected only within float noise of the sphere itself).  Raises
    ValueError for a rho that ``increase_ball`` rejects.
    """
    ball = increase_ball(cfg, index, rho)
    rng = np.random.default_rng(seed)
    cx, cy = ball.center
    half = 1.5 * ball.radius
    pts = rng.uniform(-half, half, size=(n_samples, 2)) + np.array([cx, cy])

    if index == 1:
        p_own, p_other, t_other = cfg.p1, cfg.p2, cfg.theta2
    else:
        p_own, p_other, t_other = cfg.p2, cfg.p1, cfg.theta1
    img_x, img_y = dr_two_lines(p_other, t_other, pts.T)

    v_here = (pts[:, 0] - p_own[0]) ** 2 + (pts[:, 1] - p_own[1]) ** 2
    v_img = (img_x - p_own[0]) ** 2 + (img_y - p_own[1]) ** 2
    defining = v_img > rho * v_here
    dist_center = np.hypot(pts[:, 0] - cx, pts[:, 1] - cy)
    analytic = dist_center < ball.radius

    disagree = defining != analytic
    n_bad = int(np.count_nonzero(disagree))
    worst = 0.0
    if n_bad:
        worst = float(np.max(np.abs(dist_center[disagree] - ball.radius)))
    return BallReport(n_samples=n_samples, n_disagree=n_bad,
                      max_disagreement_distance=worst)


def verify_containment(cfg: ProblemConfig, index: int,
                       rho: float) -> tuple[bool, float]:
    """Check the increase ball stays inside its own region.

    Returns (contained, margin) with margin = d(center, D3) - radius,
    evaluated in a cancellation-free form so that margin is exactly 0.0 at
    the critical rho = (1+sin t1)(1+sin t2) instead of float noise.
    Requires a finite rho >= that critical value (ValueError otherwise,
    NaN included).
    """
    c1, s1 = cos_sin(cfg.theta1)
    c2, s2 = cos_sin(cfg.theta2)
    crit = (1.0 + s1) * (1.0 + s2)
    if not rho >= crit:
        raise ValueError(f"rho = {rho} is not at least the containment "
                         f"threshold {crit}")
    ball = increase_ball(cfg, index, rho)
    sj = s2 if index == 1 else s1
    cj = c2 if index == 1 else c1
    denom = rho - cj * cj
    u = 0.5 * (cfg.theta2 - cfg.theta1)
    cu, su = math.cos(u), math.sin(u)
    cc = c1 * c2
    # distances from the ball center to the two branches of D3, and the
    # squared-difference numerators in factored form: e^2 - r^2 reduces to
    # sj^2 * q(rho) / (4 trig^2 denom^2) with q a quadratic whose larger
    # root is the critical rho, so the subtraction never cancels
    e_a = sj * (rho + cc) / (2.0 * cu * denom)
    e_b = sj * (rho - cc) / (2.0 * su * denom)
    q_a = (rho - (1.0 - s1) * (1.0 - s2)) * (rho - (1.0 + s1) * (1.0 + s2))
    q_b = (rho - (1.0 - s1) * (1.0 + s2)) * (rho - (1.0 + s1) * (1.0 - s2))
    margin_a = sj * sj * q_a / (4.0 * cu * cu * denom * denom) / (e_a + ball.radius)
    margin_b = sj * sj * q_b / (4.0 * su * su * denom * denom) / (e_b + ball.radius)
    margin = min(margin_a, margin_b)

    # the centre lies strictly on its own line's side of D3
    gap = _gap(c1, s1, c2, s2, *ball.center)
    center_ok = gap < 0.0 if index == 1 else gap > 0.0
    return (margin >= 0.0 and center_ok, margin)

