"""The DR operator as it was written before it ran on ``dr._gap`` and
``dr._branch``: the region from ``geometry_oracle.classify_region``
(distances to the lines) and each branch from the closed form written
out.  Tests compare the library's operator, its float step and the
``iterate`` command against these, bit for bit.  ``gap_branch_steps`` is
the step loop ``dr._steps`` unrolls, written with ``dr._gap``,
``dr._branch`` and the band test on every step."""
import math

import numpy as np

from drlines import dr
from drlines.dr import DrStep
from drlines.geometry import TIE_TOL, Region, bisector_data, cos_sin
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


def on_tie_band(x, y, gap):
    """The band test at a finite point: |gap| <= TIE_TOL (1 + max(|x|,
    |y|))."""
    return abs(gap) <= TIE_TOL * (1.0 + max(abs(x), abs(y)))


def band_edge(cfg, base, normal):
    """Adjacent points base + s * normal, the first on the tie band and the
    second off it, from base on D3 outward."""
    c1, s1 = cos_sin(cfg.theta1)
    c2, s2 = cos_sin(cfg.theta2)

    def at(s):
        x, y = base[0] + s * normal[0], base[1] + s * normal[1]
        return (x, y), on_tie_band(x, y, dr._gap(c1, s1, c2, s2, x, y))

    lo, hi = 0.0, TIE_TOL * (1.0 + max(map(abs, base)))
    assert at(lo)[1]
    while at(hi)[1]:
        lo, hi = hi, 2.0 * hi
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if at(mid)[1] else (lo, mid)
    return at(lo)[0], at(hi)[0]


def band_screen(x, y, gap):
    """Whether ``dr._steps``' screen clears gap at (x, y) of the band test,
    in the loop's own expressions."""
    dx1, dx2 = x + 0.5, x - 0.5
    yy = y * y
    q1, q2 = dx1 * dx1 + yy, dx2 * dx2 + yy
    return gap * gap > dr._SCREEN * (1.0 + q1 + q2)


def gap_branch_steps(consts, x, y, n):
    """n steps through dr._gap and dr._branch, with _steps' tie and ball
    tests: (code, x, y, k, pushed coordinates)."""
    c1, s1, c2, s2, r1sq, r2sq = consts
    pushed = []
    for k in range(n):
        gap = dr._gap(c1, s1, c2, s2, x, y)
        if on_tie_band(x, y, gap):
            return 0, x, y, k, pushed
        x, y = (dr._branch(-0.5, c1, s1, x, y) if gap < 0.0
                else dr._branch(0.5, c2, s2, x, y))
        pushed += [x, y]
        for code, a, rsq in ((1, -0.5, r1sq), (2, 0.5, r2sq)):
            if (x - a) * (x - a) + y * y < rsq:
                return code, x, y, k + 1, pushed
    return -1, x, y, n, pushed
