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
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# perturbed_step no longer calls dr_multivalued; the name stays importable
# here because bench/run.py's traced run counts calls through it
from .dr import branch_values, dr_multivalued  # noqa: F401
from .geometry import ProblemConfig, checked_start
from .lyapunov import _log_v, _v_many, v_global, v_local

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
_SCREEN_REL = 1e-9
_SCREEN_ABS = 16 * math.ulp(0.0)
_LOG_DBL_MAX = math.log(sys.float_info.max)


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


def sigma(spec: PerturbationSpec, cfg: ProblemConfig, x) -> float:
    """Admissible perturbation radius at x.

    Vanishes exactly on {p1, p2}, is positive and 1-Lipschitz-continuous
    (up to the constant factor) everywhere else.
    """
    kappa = math.expm1(math.log1p(spec.epsilon) / (2.0 * (1.0 + spec.alpha)))
    d1 = math.hypot(x[0] - cfg.p1[0], x[1] - cfg.p1[1])
    d2 = math.hypot(x[0] - cfg.p2[0], x[1] - cfg.p2[1])
    return kappa * min(d1, d2)


def kl_beta(spec: PerturbationSpec, s: float, t: float) -> float:
    """beta(s, t) = s * ((1+eps)^2 gamma)^(t / (2 alpha + 2)).

    Class-KL in (s, t): increasing in s, decreasing to 0 in t.
    """
    return s * spec.rate ** (t / (2.0 * spec.alpha + 2.0))


def _offset_in_ball(rng: np.random.Generator, radius: float) -> tuple[float, float]:
    # radius * sqrt(u) makes the point uniform over the disc
    ang = rng.uniform(0.0, 2.0 * math.pi)
    r = radius * math.sqrt(rng.random())
    return (r * math.cos(ang), r * math.sin(ang))


def _screen_floor(spec: PerturbationSpec, v: float) -> float:
    """The least screened V that a scalar V of at least v can have; a V
    of exactly 0 screens as -1.0, below every floor for v >= 0."""
    return v * (1.0 - _SCREEN_REL * (1.0 + spec.alpha)) - _SCREEN_ABS


def _boundary_points(x, radius, angles: np.ndarray):
    """Offsets radius * (cos, sin) at the angles and the points x + offset,
    each as a (2, n) array; radius is one float or one per angle.

    math.cos/math.sin give the bits the scalar code used; np.cos may round
    differently, and near p_i the rounding of x + offset can turn that ulp
    into a large change in V.
    """
    a = angles.tolist()
    off = radius * np.fromiter([*map(math.cos, a), *map(math.sin, a)], float,
                               2 * len(a)).reshape(2, -1)
    return off, off + ((x[0],), (x[1],))


def _worst_boundary_offset(spec: PerturbationSpec, cfg: ProblemConfig, x,
                           radius: float, rng: np.random.Generator,
                           k: int) -> tuple[float, float]:
    # V has no interior local max, so the sup over the ball sits on the
    # boundary; sample k directions and keep the first one of maximal V,
    # if that V beats V(x).  Only points near the screened maximum can be it.
    off, z = _boundary_points(x, radius,
                              rng.uniform(0.0, 2.0 * math.pi, size=k))
    w = _v_many(spec.alpha, cfg, z)
    near = (w >= _screen_floor(spec, w.max(initial=-1.0))).nonzero()[0]
    best = (0.0, 0.0)
    best_v = v_global(spec, cfg, x)
    for j in near.tolist():
        v = v_global(spec, cfg, (float(z[0, j]), float(z[1, j])))
        if v > best_v:
            best_v = v
            best = (float(off[0, j]), float(off[1, j]))
    return best


def perturbed_step(spec: PerturbationSpec, cfg: ProblemConfig, x,
                   rng: np.random.Generator, mode: str = "random",
                   k_boundary: int = 64) -> StepSample:
    """One step of the inflated operator: pre-ball, branch, post-ball.

    ``mode="random"`` samples both balls uniformly and takes the first
    branch on ties; ``mode="adversarial"`` takes V-maximizing boundary
    offsets and the V-maximizing branch, approximating the sup over all
    admissible disturbance selections.
    """
    if mode not in ("random", "adversarial"):
        raise ValueError(f"mode must be 'random' or 'adversarial', got {mode!r}")
    adversarial = mode == "adversarial"
    s_pre = sigma(spec, cfg, x)
    if adversarial:
        pre = _worst_boundary_offset(spec, cfg, x, s_pre, rng, k_boundary)
    else:
        pre = _offset_in_ball(rng, s_pre)
    outputs = branch_values(cfg, float(x[0] + pre[0]), float(x[1] + pre[1]))
    y = outputs[0]
    if adversarial and len(outputs) > 1:
        y = max(outputs, key=lambda q: v_global(spec, cfg, q))

    s_post = sigma(spec, cfg, y)
    if adversarial:
        post = _worst_boundary_offset(spec, cfg, y, s_post, rng, k_boundary)
    else:
        post = _offset_in_ball(rng, s_post)
    return StepSample((y[0] + post[0], y[1] + post[1]), pre, post)


def run_perturbed(spec: PerturbationSpec, cfg: ProblemConfig, x0,
                  n_steps: int, seed: int, trace_id: int = 0,
                  mode: str = "random", k_boundary: int = 64) -> PerturbedTrace:
    """Generate one perturbed trajectory on an independent (seed, trace_id)
    stream, so concurrent traces never share PRNG state.  Raises
    ValueError for a start whose norm is not finite, a start whose V is
    too large for a double, or a negative step count."""
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    x = checked_start(x0)
    # V along the trace stays below (1+eps) V(x0), its sup over the first
    # disturbance ball; one more factor (1+eps) is kept as slack
    lv = _log_v(spec.alpha, v_local(cfg, 1, x), v_local(cfg, 2, x))
    if not lv + 2.0 * math.log1p(spec.epsilon) < _LOG_DBL_MAX:
        raise ValueError(f"V at the start ({x[0]!r}, {x[1]!r}) is about "
                         f"exp({lv:.6g}); (1+eps)^2 V overflows a double")
    rng = np.random.default_rng(np.random.SeedSequence([seed, trace_id]))
    points = [x]
    disturbances = []
    for _ in range(n_steps):
        x, pre, post = perturbed_step(spec, cfg, x, rng, mode=mode,
                                      k_boundary=k_boundary)
        points.append(x)
        disturbances.append((pre, post))
    return PerturbedTrace(points=tuple(points),
                          disturbances=tuple(disturbances), seed=seed)


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
    _, z = _boundary_points(x, r, 2.0 * math.pi * u[i + i // 8 + 1])
    over = _v_many(spec.alpha, cfg, z) >= _screen_floor(spec, bound)
    return not any(v_global(spec, cfg, zj) > bound
                   for zj in z.T[over].tolist())


def check_kl_bound(spec: PerturbationSpec, cfg: ProblemConfig,
                   trace: PerturbedTrace) -> tuple[bool, float]:
    """Audit one trace against d(x_n, {p1,p2}) <= beta(omega2(x0), n).

    Returns (ok, worst_margin) with worst_margin = min over n of
    (bound - actual).  A pass is sampled evidence for the bound, not a
    proof: the trace explores only one disturbance selection.
    """
    x0 = trace.points[0]
    w2 = max(math.hypot(x0[0] - cfg.p1[0], x0[1] - cfg.p1[1]),
             math.hypot(x0[0] - cfg.p2[0], x0[1] - cfg.p2[1]))
    ok = True
    worst = math.inf
    for n, x in enumerate(trace.points):
        actual = min(math.hypot(x[0] - cfg.p1[0], x[1] - cfg.p1[1]),
                     math.hypot(x[0] - cfg.p2[0], x[1] - cfg.p2[1]))
        bound = kl_beta(spec, w2, float(n))
        worst = min(worst, bound - actual)
        if actual > bound * (1.0 + 1e-9):
            ok = False
    return ok, worst
