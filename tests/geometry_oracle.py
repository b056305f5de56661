"""The problem's definitions by reflections: lines, projections,
reflections, distances, the closer-line classification and the DR step
(x + R_B R_A x) / 2, forward and in reversed order.  The library runs the
closed form ``dr._gap``/``dr._branch``; tests check it against these."""
import math
from dataclasses import dataclass, field

import numpy as np

from drlines.dr import DrStep
from drlines.geometry import TIE_TOL, Region, _snap_angle, cos_sin


@dataclass(frozen=True)
class Line:
    """The line through ``anchor`` at ``angle`` with unit ``direction``
    (cos, sin) and ``normal`` (sin, -cos), exact when vertical."""

    anchor: tuple[float, float]
    angle: float
    direction: tuple[float, float] = field(init=False)
    normal: tuple[float, float] = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.angle <= math.pi:
            raise ValueError(f"line angle {self.angle} outside [0, pi]")
        object.__setattr__(self, "angle", _snap_angle(self.angle))
        c, s = cos_sin(self.angle)
        object.__setattr__(self, "direction", (c, s))
        object.__setattr__(self, "normal", (s, -c))


AXIS = Line((0.0, 0.0), 0.0)


def lines(cfg):
    """A1, A2 and the x-axis B."""
    return Line(cfg.p1, cfg.theta1), Line(cfg.p2, cfg.theta2), AXIS


def _offset(line, p):
    return (p[0] - line.anchor[0]) * line.normal[0] + \
        (p[1] - line.anchor[1]) * line.normal[1]


def project(line, x, scale=1.0):
    """Nearest point on the line; with scale 2, the mirror image."""
    p = np.asarray(x, dtype=float)
    t = scale * _offset(line, p)
    return np.array([p[0] - t * line.normal[0], p[1] - t * line.normal[1]])


def reflect(line, x):
    return project(line, x, 2.0)


def distance_to_line(line, x):
    return abs(_offset(line, np.asarray(x, dtype=float)))


def classify_region(cfg, x, tol=TIE_TOL):
    """D1/D2 by strictly closer line; D3 when |d1 - d2| <= tol (1 +
    max(|x|, |y|))."""
    p = np.asarray(x, dtype=float)
    d1, d2 = (distance_to_line(a, p) for a in lines(cfg)[:2])
    if abs(d1 - d2) <= tol * (1.0 + max(abs(p[0]), abs(p[1]))):
        return Region.D3
    return Region.D1 if d1 < d2 else Region.D2


def dr_two_lines_compose(line_a, line_b, x):
    x = np.asarray(x, dtype=float)
    return 0.5 * (x + reflect(line_b, reflect(line_a, x)))


def dr_reversed_reference(cfg, x):
    """(x + R_A R_B x) / 2, the A-branch picked by the region of R_B x."""
    x = np.asarray(x, dtype=float)
    a1, a2, b = lines(cfg)
    y = reflect(b, x)
    region = classify_region(cfg, y)
    picked = {Region.D1: (a1,), Region.D2: (a2,), Region.D3: (a1, a2)}
    outputs = tuple(tuple(0.5 * (x + reflect(a, y))) for a in picked[region])
    return DrStep(input=(float(x[0]), float(x[1])), region=region,
                  outputs=tuple((float(u), float(v)) for u, v in outputs))
