"""The problem instance and its geometry.

The problem lives in the plane: a union of two lines A1, A2 crossing the
x-axis B at the anchors p1 = (-1/2, 0) and p2 = (1/2, 0), with inclination
angles 0 < theta1 <= pi/2 and theta1 < theta2 < pi.  This module owns the
config, the region labels D1/D2 (closer to A1/A2) and D3 (the tie band),
the closed forms for the equidistance set D3 (the two angle bisectors
through the intersection of A1 and A2) and the check on starts.  Points
are classified by the DR step's own tie test, ``dr._gap``.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

# width of the relative tie band around D3 (dr._band); floats never tie exactly
TIE_TOL = 1e-9

# angles this close to pi/2 are treated as exactly vertical
_VERTICAL_SNAP = 1e-9

_HALF_PI = 0.5 * math.pi


def _snap_angle(angle: float) -> float:
    """Snap angles within 1e-9 of pi/2 to exact pi/2."""
    if abs(angle - _HALF_PI) <= _VERTICAL_SNAP:
        return _HALF_PI
    return float(angle)


def cos_sin(angle: float) -> tuple[float, float]:
    """(cos, sin) of a line angle, exact at snapped pi/2."""
    if angle == _HALF_PI:
        return 0.0, 1.0
    return math.cos(angle), math.sin(angle)


class Region(enum.Enum):
    """Which of the two lines is closer: D1/D2 strictly, D3 the tie band."""

    D1 = 1
    D2 = 2
    D3 = 3


@dataclass(frozen=True)
class ProblemConfig:
    """The full problem instance: the two angles and the anchors.

    Raises ValueError unless 0 < theta1 <= pi/2 and theta1 < theta2 < pi.
    Angles within 1e-9 of pi/2 are snapped to exact pi/2 first.
    """

    theta1: float
    theta2: float
    p1: tuple[float, float] = field(init=False, default=(-0.5, 0.0))
    p2: tuple[float, float] = field(init=False, default=(0.5, 0.0))

    def __post_init__(self) -> None:
        t1 = _snap_angle(self.theta1)
        t2 = _snap_angle(self.theta2)
        if not 0.0 < t1 <= _HALF_PI:
            raise ValueError(f"theta1 = {t1} violates 0 < theta1 <= pi/2")
        if not t1 < t2 < math.pi:
            raise ValueError(f"theta2 = {t2} violates theta1 < theta2 < pi")
        object.__setattr__(self, "theta1", t1)
        object.__setattr__(self, "theta2", t2)


@dataclass(frozen=True)
class BisectorData:
    """The equidistance set D3: two perpendicular lines through c.

    ``c`` is the intersection of A1 and A2; ``n1``/``n2`` are unit normals of
    the two bisector lines.
    """

    c: tuple[float, float]
    n1: tuple[float, float]
    n2: tuple[float, float]


def checked_start(x0) -> tuple[float, float]:
    """x0 as two floats; raises ValueError unless their norm is finite.

    A finite norm means finite coordinates and bounds every intermediate
    of a DR step from x0, so the step stays finite; from a start whose
    norm overflows, such as (1.7e308, -1.7e308), it need not.
    """
    x, y = float(x0[0]), float(x0[1])
    if not math.isfinite(math.hypot(x, y)):
        raise ValueError(f"start ({x}, {y}) is not finite or its norm "
                         "overflows a double")
    return x, y


def bisector_data(cfg: ProblemConfig) -> BisectorData:
    """Closed-form description of D3.

    c = (sin(t1+t2) / (2 sin(t2-t1)), sin t1 sin t2 / sin(t2-t1)); the two
    bisector normals are (cos h, sin h) and (sin h, -cos h) with
    h = (t1+t2)/2.
    """
    t1, t2 = cfg.theta1, cfg.theta2
    denom = math.sin(t2 - t1)
    cx = math.sin(t1 + t2) / (2.0 * denom)
    cy = math.sin(t1) * math.sin(t2) / denom
    h = 0.5 * (t1 + t2)
    ch, sh = math.cos(h), math.sin(h)
    return BisectorData(c=(cx, cy), n1=(ch, sh), n2=(sh, -ch))


def distance_to_D3(cfg: ProblemConfig, x) -> float:
    """Distance from x to the equidistance set D3."""
    p = np.asarray(x, dtype=float)
    bd = bisector_data(cfg)
    dx = bd.c[0] - p[0]
    dy = bd.c[1] - p[1]
    return min(abs(dx * bd.n1[0] + dy * bd.n1[1]),
               abs(dx * bd.n2[0] + dy * bd.n2[1]))
