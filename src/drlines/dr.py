"""Douglas-Rachford operators for the two-lines/one-line geometry.

For a single line A through p at angle theta and the x-axis B, the DR
operator (I + R_B R_A)/2 collapses to the affine map
x -> p + cos(theta) * M_theta (x - p), where M_theta rotates by -theta in
the usual orientation (M_theta maps (1,0) to (cos theta, -sin theta)).
For the union A1 ∪ A2 the operator acts through whichever line is closer
and is two-valued on the equidistance set D3.  The reversed-order
operator (I + R_A R_B)/2 is R_B T R_B, with R_B(x, y) = (x, -y).

``_gap``, ``_band`` and ``_branch`` are the operator's arithmetic, written
once for floats and NumPy lanes alike: the closed form, ``dr_multivalued``
(the one step at a point), the lanes and the cycle proof run them.  D3 is
the tie band |gap| <= ``_band`` = TIE_TOL (1 + max(|x|, |y|)): NumPy and
Python round it alike, and it is finite at every finite point.  Every
scalar trajectory runs ``_steps``, one loop with the same expressions in
the same order, but with no call on a step clear of the band: a distance
term is negated where abs would flip it, and a screen on squares calls
``_band`` only near the band.  A test pins the loop to ``_gap`` and
``_branch`` bit for bit, so the lanes reproduce the scalar iterates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import TIE_TOL, ProblemConfig, Region, cos_sin


@dataclass(frozen=True)
class DrStep:
    """One application of the multi-valued operator.

    ``outputs`` holds one branch value on D1/D2 and two on D3 (the A1
    branch first); ``region`` is the classification that produced them.
    """

    input: tuple[float, float]
    outputs: tuple[tuple[float, float], ...]
    region: Region


def _gap(c1, s1, c2, s2, x, y):
    """d(x, A1) - d(x, A2): the step goes through A1 when negative."""
    return abs(s1 * (x + 0.5) - c1 * y) - abs(s2 * (x - 0.5) - c2 * y)


def _band(x, y):
    """The tie band's half-width TIE_TOL (1 + max(|x|, |y|)) at (x, y)."""
    return TIE_TOL * (1.0 + np.maximum(abs(x), abs(y)))


def _branch(a, c, s, x, y):
    """The DR step through the line anchored at (a, 0) with direction
    (c, s): a = -0.5 with A1's constants, a = 0.5 with A2's."""
    dx = x - a
    return a + c * (c * dx + s * y), c * (-s * dx + c * y)


_SCREEN = 2.0 * TIE_TOL ** 2 * (1.0 + 1e-6)


def _steps(c1, s1, c2, s2, r1sq, r2sq, x, y, n, buf):
    """Up to n steps from the float point (x, y) through the branch each
    gap picks, with every new point's x and y appended to the array('d')
    ``buf`` (once, on return): (code, x, y, k) after k steps, code 0 at a
    point on the tie band |gap| <= _band(x, y), not stepped, 1 or 2 once a
    step enters the open ball of squared radius r1sq about (-0.5, 0) or
    r2sq about (0.5, 0), else -1.

    A step clear of the band makes no call.  Each distance term is
    negated when negative, which differs from abs only in the sign of a
    zero, and a gap of +-0 lies on the band either way.  The band test
    runs only where gap^2 > _SCREEN (1 + q1 + q2) fails, with q1 and q2
    the squared distances to (-0.5, 0) and (0.5, 0) that the ball test
    takes: h = max(|x|, |y|) has h^2 <= q1 + q2 and (1 + h)^2 <= 2 (1 +
    h^2), so a gap that passes the screen has gap^2 > (TIE_TOL (1 +
    h))^2, the factor 1 + 1e-6 covering the rounding of both sides.  An
    underflowed gap^2, an overflowed right side and a NaN fail the screen
    and meet the band test itself."""
    band, kk = _band, _SCREEN
    pts = []
    dx1, dx2 = x + 0.5, x - 0.5
    yy = y * y
    q1, q2 = dx1 * dx1 + yy, dx2 * dx2 + yy
    for k in range(n):
        g1 = s1 * dx1 - c1 * y
        if g1 < 0.0:
            g1 = -g1
        g2 = s2 * dx2 - c2 * y
        if g2 < 0.0:
            g2 = -g2
        gap = g1 - g2
        if not gap * gap > kk * (1.0 + q1 + q2):
            if abs(gap) <= band(x, y):
                buf.fromlist(pts)
                return 0, x, y, k
        if gap < 0.0:
            x, y = -0.5 + c1 * (c1 * dx1 + s1 * y), c1 * (-s1 * dx1 + c1 * y)
        else:
            x, y = 0.5 + c2 * (c2 * dx2 + s2 * y), c2 * (-s2 * dx2 + c2 * y)
        pts.append(x)
        pts.append(y)
        dx1, dx2 = x + 0.5, x - 0.5
        yy = y * y
        q1, q2 = dx1 * dx1 + yy, dx2 * dx2 + yy
        if q1 < r1sq:
            buf.fromlist(pts)
            return 1, x, y, k + 1
        if q2 < r2sq:
            buf.fromlist(pts)
            return 2, x, y, k + 1
    buf.fromlist(pts)
    return -1, x, y, n


def _lane_gap(c1, s1, c2, s2, x, y):
    """The stepping half of a lane step: each NumPy lane's gap at (x, y),
    and (x, y) stepped through the branch the gap picks: (gap, x', y')."""
    gap = _gap(c1, s1, c2, s2, x, y)
    first = gap < 0.0
    bx, by = _branch(np.where(first, -0.5, 0.5), np.where(first, c1, c2),
                     np.where(first, s1, s2), x, y)
    return gap, bx, by


def _lane_clear(gap, x, y):
    """The tie-band half of a lane visit: whether each lane at (x, y) with
    its gap is clear of the band.  A lane is not clear where ``_steps``
    stops and ``dr_multivalued`` finds D3, and where its gap is NaN."""
    return abs(gap) > _band(x, y)


def dr_two_lines(p, theta: float, x) -> np.ndarray:
    """Closed-form DR step for the line through p at ``theta`` and the
    x-axis, at one point x or at the columns of a (2, n) array."""
    if not 0.0 < theta < math.pi:
        raise ValueError(f"theta = {theta} outside ]0, pi[")
    bx, by = _branch(p[0], *cos_sin(theta), x[0], x[1] - p[1])
    return np.array([bx, by + p[1]])


def dr_multivalued(cfg: ProblemConfig, x) -> DrStep:
    """Apply the operator of A1 ∪ A2 versus the x-axis at x.

    The point is on D3 when its gap lies on the tie band |gap| <=
    _band(x, y); there both branch values are reported, A1 first, and
    callers that iterate pick one via a branch policy.
    """
    x, y = pt = (float(x[0]), float(x[1]))
    c1, s1 = cos_sin(cfg.theta1)
    c2, s2 = cos_sin(cfg.theta2)
    gap = _gap(c1, s1, c2, s2, x, y)
    if abs(gap) <= _band(x, y):
        region = Region.D3
        outs = (_branch(-0.5, c1, s1, x, y), _branch(0.5, c2, s2, x, y))
    elif gap < 0.0:
        region, outs = Region.D1, (_branch(-0.5, c1, s1, x, y),)
    else:
        region, outs = Region.D2, (_branch(0.5, c2, s2, x, y),)
    # dr_two_lines adds the anchor's y of 0.0, which turns -0.0 into 0.0
    return DrStep(input=pt, region=region,
                  outputs=tuple((bx, by + 0.0) for bx, by in outs))


def dr_reversed(cfg: ProblemConfig, x) -> DrStep:
    """The reversed-order operator (x + R_A R_B x) / 2 = R_B T R_B x, branch
    by branch: ``region`` classifies R_B x."""
    step = dr_multivalued(cfg, (x[0], -x[1]))
    return DrStep(input=(float(x[0]), float(x[1])), region=step.region,
                  outputs=tuple((bx, -by) for bx, by in step.outputs))
