"""The perturbed step and trace as they were written before the traces ran
in NumPy lanes: one trace at a time, one scalar step at a time, and the
adversary as first written, one ``v_global`` call per sampled direction,
and the KL audit that called ``kl_beta`` at every point.  Tests compare
``perturbed_step``, ``run_perturbed``, ``run_perturbed_many`` and
``check_kl_bound`` against these, bit for bit, PRNG states included."""
import math

import numpy as np

from drlines.dr import branch_values
from drlines.lyapunov import v_global
from drlines.robust import PerturbedTrace, kl_beta


def sigma_reference(spec, cfg, x):
    kappa = math.expm1(math.log1p(spec.epsilon) / (2.0 * (1.0 + spec.alpha)))
    d1 = math.hypot(x[0] - cfg.p1[0], x[1] - cfg.p1[1])
    d2 = math.hypot(x[0] - cfg.p2[0], x[1] - cfg.p2[1])
    return kappa * min(d1, d2)


def offset_in_ball_reference(rng, radius):
    # radius * sqrt(u) makes the point uniform over the disc
    ang = rng.uniform(0.0, 2.0 * math.pi)
    r = radius * math.sqrt(rng.random())
    return (r * math.cos(ang), r * math.sin(ang))


def worst_offset_reference(spec, cfg, x, radius, rng, k):
    # the first of k boundary directions with maximal V, strictly above V(x)
    best = (0.0, 0.0)
    best_v = v_global(spec, cfg, x)
    for ang in rng.uniform(0.0, 2.0 * math.pi, size=k):
        off = (radius * math.cos(ang), radius * math.sin(ang))
        v = v_global(spec, cfg, (x[0] + off[0], x[1] + off[1]))
        if v > best_v:
            best_v = v
            best = off
    return best


def perturbed_step_reference(spec, cfg, x, rng, mode="random", k_boundary=64):
    """(point, pre, post) of one step: pre-ball, branch, post-ball."""
    adversarial = mode == "adversarial"

    def offset(p):
        s = sigma_reference(spec, cfg, p)
        if adversarial:
            return worst_offset_reference(spec, cfg, p, s, rng, k_boundary)
        return offset_in_ball_reference(rng, s)

    pre = offset(x)
    outputs = branch_values(cfg, float(x[0] + pre[0]), float(x[1] + pre[1]))
    y = outputs[0]
    if adversarial and len(outputs) > 1:
        y = max(outputs, key=lambda q: v_global(spec, cfg, q))
    post = offset(y)
    return (y[0] + post[0], y[1] + post[1]), pre, post


def run_perturbed_reference(spec, cfg, x0, n_steps, seed, trace_id=0,
                            mode="random", k_boundary=64):
    """(points, disturbances, generator) of one trace on the
    (seed, trace_id) stream; the start is not checked."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, trace_id]))
    x = (float(x0[0]), float(x0[1]))
    points = [x]
    disturbances = []
    for _ in range(n_steps):
        x, pre, post = perturbed_step_reference(spec, cfg, x, rng, mode,
                                                k_boundary)
        points.append(x)
        disturbances.append((pre, post))
    return tuple(points), tuple(disturbances), rng


def check_kl_bound_reference(spec, cfg, trace):
    """(ok, worst_margin) of the trace against beta(omega2(x0), n)."""
    points = trace.points if isinstance(trace, PerturbedTrace) else trace
    x0 = points[0]
    w2 = max(math.hypot(x0[0] - cfg.p1[0], x0[1] - cfg.p1[1]),
             math.hypot(x0[0] - cfg.p2[0], x0[1] - cfg.p2[1]))
    ok = True
    worst = math.inf
    for n, x in enumerate(points):
        actual = min(math.hypot(x[0] - cfg.p1[0], x[1] - cfg.p1[1]),
                     math.hypot(x[0] - cfg.p2[0], x[1] - cfg.p2[1]))
        bound = kl_beta(spec, w2, float(n))
        worst = min(worst, bound - actual)
        if actual > bound * (1.0 + 1e-9):
            ok = False
    return ok, worst
