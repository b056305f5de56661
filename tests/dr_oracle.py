"""The DR operator as it was written before it ran on ``dr._gap`` and
``dr._branch``: the region from ``geometry_oracle.classify_region``
(distances to the lines) and each branch from the closed form written
out.  Tests compare the library's operator, its float step and the
``iterate`` command against these, bit for bit."""
import math

import numpy as np

from drlines.dr import DrStep
from drlines.geometry import Region, bisector_data, cos_sin
from geometry_oracle import classify_region


def dr_two_lines_reference(p, theta, x):
    if not 0.0 < theta < math.pi:
        raise ValueError(f"theta = {theta} outside ]0, pi[")
    c, s = cos_sin(theta)
    dx = x[0] - p[0]
    dy = x[1] - p[1]
    return np.array([p[0] + c * (c * dx + s * dy),
                     p[1] + c * (-s * dx + c * dy)])


def dr_multivalued_reference(cfg, x):
    x = np.asarray(x, dtype=float)
    region = classify_region(cfg, x)

    def branch(p, theta):
        out = dr_two_lines_reference(p, theta, x)
        return (float(out[0]), float(out[1]))

    if region is Region.D1:
        outputs = (branch(cfg.p1, cfg.theta1),)
    elif region is Region.D2:
        outputs = (branch(cfg.p2, cfg.theta2),)
    else:
        outputs = (branch(cfg.p1, cfg.theta1), branch(cfg.p2, cfg.theta2))
    return DrStep(input=(float(x[0]), float(x[1])), outputs=outputs,
                  region=region)


def iterate_reference(cfg, x0, steps, random_policy, seed):
    """The points ``drlines iterate`` prints: one branch per step, the
    first or, with the random policy, a draw from the [seed] stream at
    each tie."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    x = x0
    points = [x]
    for _ in range(steps):
        outs = dr_multivalued_reference(cfg, x).outputs
        if len(outs) > 1 and random_policy:
            x = outs[int(rng.integers(0, len(outs)))]
        else:
            x = outs[0]
        points.append(x)
    return points


def step_points(cfg):
    """Points on D3 (both branches returned), on the x-axis with both
    signs of zero, and on each line A_i (mapped onto the x-axis)."""
    bd = bisector_data(cfg)
    pts = []
    for n in (bd.n1, bd.n2):
        for t in (-3.0, -0.7, 0.0, 0.3, 2.0):
            pts.append((bd.c[0] - t * n[1], bd.c[1] + t * n[0]))
    for t in (-2.0, -0.5, 0.0, 0.25, 1.5):
        pts += [(t, 0.0), (t, -0.0)]
        for p, th in ((cfg.p1, cfg.theta1), (cfg.p2, cfg.theta2)):
            c, s = cos_sin(th)
            pts.append((p[0] + t * c, p[1] + t * s))
    return pts
