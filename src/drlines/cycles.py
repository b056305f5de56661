"""Cycle certificates: a float proof that an orbit never converges.

Every branch map of the DR step is an affine contraction, so an orbit that
has settled on a word of branches can be proven, from its own float
points, to follow that word forever: it then meets no tie and enters no
termination ball.  ``_prove_cycle`` is that proof on K + 1 consecutive
points, vectorised over them.  ``_proof`` steps the K + 1 points from a
point through dr._steps and runs the proof on them, in one place for
``certify_cycle`` and for the window-free walk, which proposes K where a
max-norm screen finds the orbit back within _COARSE of a reference point.
"""
from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dr import _branch, _constants, _gap, _steps
from .geometry import TIE_TOL, ProblemConfig, checked_start

# the relative max-norm distance at which a lag is worth a proof, and the
# bound _ETA (1 + |x|) on the rounding of one float step or gap at x
_COARSE = 1e-3
_ETA = 2.0 ** -49
# the K from which a proof is not tried: its K + 1 points and temporaries
# take about 260 B a point, 270 MB at 2^20; the product bound holds to 2^40
_MAX_K = 2 ** 20
# the steps of one dr._steps call in _proof, which lists a call's points
_CHUNK = 512


@dataclass(frozen=True)
class CycleCertificate:
    """A proof that the float iteration from ``points[0]`` follows
    ``word`` forever, so it never converges.

    ``word`` holds the branch (1 or 2) taken at each of the K points,
    ``contraction`` bounds the composed branch maps' Lipschitz constant
    from above, every iterate from step K on stays within ``error`` of the
    point of its phase, and the discs of radius ``margin`` > ``error``
    about the points clear the tie band and both termination balls.
    ``period`` is the word's primitive root: the cycle's period.
    """

    period: int
    word: tuple[int, ...]
    points: tuple[tuple[float, float], ...]
    contraction: float
    error: float
    margin: float


def _up(v: float) -> float:
    """An upper bound on the exact value of v >= 0 computed from upper
    bounds in a few float operations with no cancellation, each rounding
    off by at most 2^-53 relative."""
    return math.nextafter(v * (1.0 + 1e-13), math.inf)


def _root(word: np.ndarray) -> int:
    """The length of the word's primitive root."""
    k, b = len(word), word.tobytes()
    return next(d for d in range(1, k + 1) if k % d == 0 and b[d:] == b[:-d])


def _prove_cycle(consts: Sequence[float], p: np.ndarray):
    """Prove that the float iteration from the last of the K + 1 points p
    (a (K + 1, 2) array, K >= 1) follows their branch word forever:
    (first, contraction, error, margin), ``first`` the K-vector of A1
    branches, or None.

    The branch w_i at p_i is the one the gap's sign picks there.  Take the
    float constants c_b, s_b of ``consts`` as exact reals.  The branch map
    T_b is affine, and its linear part is the complex factor z_b = c_b (c_b
    - i s_b), of modulus lam_b = |c_b| h_b, h_b = hypot(c_b, s_b); the gap
    d(x, A1) - d(x, A2) is (h_1 + h_2)-Lipschitz.  dr._steps computes a
    step through the line anchored at (a, 0) from x - a, rounding each
    output's linear part at most four times along any path and x' once more
    as it adds a, so by Higham's gamma_4, with u = 2^-53, its error is at
    most 2 gamma_4 lam |x - a| + u (1/2 + lam |x - a|) <= 9u (1 + |x|) <
    _ETA (1 + |x|) for lam < 1, which the proof requires of both branches;
    the gap's error is at most 8u (1 + |x|), and the bound's 1 absorbs
    underflow.  The proof checks that p_{i+1} is T_{w_i}(p_i) computed in
    that order (``_branch`` on the lanes), so it lies within _ETA (1 +
    |p_i|) of the exact value.

    The word's map F is affine with linear part z = prod z_{w_i}, of
    modulus L < 1, so it has one fixed point x*.  Let r = |p_K - p_0|, a
    >= every |p_i|, delta = _ETA (3 + 2a) and kappa = min((1 + L) / |1 -
    z|, 1 / (1 - L)).  The exact orbit of p_0 under the word then keeps
    within kappa (r + K delta) of p_i at phase i, since F^j(p_0) - p_0 =
    (z^j - 1)(p_0 - x*) and F(p_0) - p_0 = (z - 1)(p_0 - x*), and the
    float iterates from x_K = p_K keep within K delta (3 + 1 / (1 - L)) of
    that orbit, by induction over periods, while they follow the word.
    Their distance from p_i is thus at most ``error`` E.  They do follow it
    if E <= 1 and every disc B(p_i, E) keeps the branch w_i: where |gap(p_i)|
    > (h_1 + h_2) E + tau (1 + |p_i| + E), tau = TIE_TOL (1 + 1e-6) + 2
    _ETA, which covers the gap's error at both points and the tie band
    dr._band, at most TIE_TOL (1 + |x|) at x before its two roundings; and
    where |p_i -+ (1/2, 0)| - E exceeds the ball radius r_b by a relative
    1e-13 and 1e-150, as the float squared distance to the centre loses at
    most four roundings and an underflow.  ``margin`` is the largest E
    these allow, and the proof holds where it exceeds ``error``.

    Every scalar is rounded outward (``_up``, ``math.nextafter``).  The
    float product of the K factors z_b is within 8 K u |z| of z, as each
    complex multiplication errs by at most sqrt(2) gamma_2; that holds
    for K below 2^40, but memory binds first, so callers stop at _MAX_K =
    2^20.  The vector terms carry relative errors far below the 1e-13 that
    is taken off each margin.  Assumes binary64 arithmetic rounded to
    nearest; fused multiply-adds only tighten these bounds.
    """
    c1, s1, c2, s2, r1sq, r2sq = consts
    h1, h2 = math.sqrt(c1 * c1 + s1 * s1), math.sqrt(c2 * c2 + s2 * s2)
    if max(_up(abs(c1) * h1), _up(abs(c2) * h2)) >= 1.0:
        return None
    k = len(p) - 1
    q = p[:k]
    # a bound on every |p_i| that keeps each square below about 1e200
    a = 2.0 * float(abs(q).max())
    if not a <= 1e100:
        return None
    x, y = q.T
    gap = _gap(c1, s1, c2, s2, x, y)
    first = gap < 0.0
    z = complex(np.prod(np.where(first, complex(c1 * c1, -c1 * s1),
                                 complex(c2 * c2, -c2 * s2))))
    mod = math.sqrt(z.real * z.real + z.imag * z.imag)
    slip = _up(8.0 * k * 2.0 ** -53 * mod + k * 1e-300)
    contraction = _up(mod + slip)
    if not contraction < 1.0:
        return None
    # lower bounds on 1 - L and |1 - z|
    gain = math.nextafter(1.0 - contraction, 0.0)
    turn = (math.sqrt((1.0 - z.real) * (1.0 - z.real) + z.imag * z.imag)
            * (1.0 - 1e-13) - slip)
    kappa = 1.0 / gain
    if turn > 0.0:
        kappa = min(kappa, (1.0 + contraction) / turn)
    dx, dy = float(p[k, 0]) - float(p[0, 0]), float(p[k, 1]) - float(p[0, 1])
    kd = k * _up(_ETA * (3.0 + 2.0 * a))
    error = _up(kappa * (math.sqrt(dx * dx + dy * dy) + kd)
                + kd * (3.0 + 1.0 / gain))
    tau = _up(TIE_TOL * (1.0 + 1e-6) + 2.0 * _ETA)
    tie = (float(abs(gap).min()) - _up(tau * (1.0 + a))) / _up(h1 + h2 + tau)
    if not (error <= 1.0 and error < tie * (1.0 - 1e-13)):
        return None
    yy = y * y
    balls = [math.sqrt(float((d * d + yy).min())) * (1.0 - 1e-13)
             - _up(math.sqrt(rsq) + 1e-150)
             for d, rsq in ((x + 0.5, r1sq), (x - 0.5, r2sq))]
    margin = math.nextafter(min(tie, *balls) * (1.0 - 1e-13), -math.inf)
    if not error < margin:
        return None
    bx, by = _branch(np.where(first, -0.5, 0.5), np.where(first, c1, c2),
                     np.where(first, s1, s2), x, y)
    if not (np.array_equal(bx, p[1:, 0]) and np.array_equal(by, p[1:, 1])):
        return None
    return first, contraction, error, margin


def _proof(consts: Sequence[float], x: float, y: float, k: int):
    """``_prove_cycle`` on the k + 1 points of the orbit from (x, y), run
    through dr._steps at most _CHUNK steps a call: (first, contraction,
    error, margin, points), or None where a step meets the tie band or a
    ball or the proof fails, and at once for k >= _MAX_K = 2^20, whose
    points and the proof's temporaries would take more than 270 MB."""
    if k >= _MAX_K:
        return None
    buf = array("d", (x, y))
    for done in range(0, k, _CHUNK):
        code, x, y, _ = _steps(*consts, x, y, min(_CHUNK, k - done), buf)
        if code >= 0:
            return None
    p = np.frombuffer(buf).reshape(-1, 2)
    proof = _prove_cycle(consts, p)
    return None if proof is None else (*proof, p)


def certify_cycle(cfg: ProblemConfig, point, period: int
                  ) -> Optional[CycleCertificate]:
    """Prove that the float iteration from ``point`` never converges, from
    its first ``period`` steps (``_proof``): the certificate, or None where
    a step meets the tie band or a ball or the proof fails.  A multiple of
    the cycle's period certifies too, with the primitive period.  Raises
    ValueError before any step for a start whose norm is not finite or a
    period outside [1, _MAX_K) = [1, 2^20), whose points the proof could
    not hold in memory (TypeError for a non-integer).
    """
    if not 1 <= operator.index(period) < _MAX_K:
        raise ValueError(f"period must be in [1, 2**20), got {period}")
    proof = _proof(_constants(cfg), *checked_start(point), period)
    if proof is None:
        return None
    first, contraction, error, margin, p = proof
    return CycleCertificate(
        period=_root(first), word=tuple(np.where(first, 1, 2).tolist()),
        points=tuple(map(tuple, p[:-1].tolist())), contraction=contraction,
        error=error, margin=margin)
