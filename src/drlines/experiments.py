"""The drivers: trace simulation, cycle detection, basin rasters, and
parameter sweeps.

The step and its decisions (the branch, the tie band, the termination
balls and the step constants) are ``dr``'s, and the cycle certificate,
with the stepping it proves on, is ``cycles``'.  A trajectory terminates
as soon as it enters a termination ball.  Everything else is bookkeeping
around that criterion: branch policies resolving ties on D3, a period
detector run on the last 4096 points at every 512th step and at the
budget (a fixed schedule), and the two grid drivers (basin raster over
starting points, sweep over angle pairs).  Grid cells are independent
work items; every cell derives its PRNG stream from the root seed and its
own index, so results do not depend on how cells are grouped.  The grid
drivers step their cells as NumPy lanes in one pool (``_pool``), which
hands each lane back at a ball, on the tie band, or at a step that each
driver chooses; once every lane is drawn, it steps the lanes left
several visits a pass, through the block kernel (``dr._lane_block``)
that ``_lockstep`` runs too.  ``rasterize`` resumes its hand-offs as
windowed lanes (``_lockstep``), and ``sweep`` in the window-free walk that
``find_period_brent`` runs too (``_proven_walk``), which stops at a ball,
at the budget, or at a cycle proof.
"""
from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .cycles import _COARSE, _proof, _root
from .dr import (BALL_SAFETY, _ball, _branch, _constants, _lane_block,
                 _lane_gap, _lane_visit, _steps)
from .geometry import ProblemConfig, checked_start, distance_to_D3, omegas
from .lyapunov import LyapunovCertificate, certify

WINDOW = 4096
CHECK_EVERY = 512
MATCH_TOL = 1e-8
# the most lanes live at once in the lane pool, and the lane count below
# which lanes stop paying: a lane set running to its verdicts finishes
# them in the scalar walk
_LANE_BLOCK = 4096
_LANE_FLOOR = 32
# the lane passes' codes for a lane they leave unsettled: one on the tie
# band, which the scalar walks get past, and one the pool hands on at its
# driver's hand-off step or _lockstep leaves undecided
_TIE_HANDOFF, _HANDOFF = 254, 255
# _cycles' answer where a window lacks points it needs
_UNDECIDED = -1
# points per lane set that runs to its verdicts (16 MB)
_HIST_POINTS = 1 << 20
# the steps after which _proven_walk's reference point first jumps
_SPAN = 16


@dataclass(frozen=True)
class FirstBranch:
    """Deterministic tie policy: prefer the A1 branch on D3."""


@dataclass(frozen=True)
class SeededRandom:
    """Fair coin per tie, reproducible from the seed key.

    ``seed`` may be a single integer or a tuple of integers (a derived
    stream key such as (root_seed, cell_index, start_index)), each >= 0,
    checked here without importing numpy.random, as the stream itself is
    built only at a first tie.
    """

    seed: Union[int, tuple[int, ...]] = 0

    def __post_init__(self) -> None:
        for s in self.seed if isinstance(self.seed, tuple) else (self.seed,):
            if operator.index(s) < 0:
                raise ValueError(f"seeds must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class EnumerateTree:
    """Bounded exploration of all tie branchings, capped at max_leaves."""

    max_leaves: int = 64

    def __post_init__(self) -> None:
        if operator.index(self.max_leaves) < 1:
            raise ValueError(f"max_leaves must be >= 1, got {self.max_leaves}")


BranchPolicy = Union[FirstBranch, SeededRandom, EnumerateTree]


def _check_run(max_steps: int, policy=FirstBranch()) -> None:
    """Raise TypeError for a max_steps operator.index rejects (NumPy's
    integers pass), ValueError for one below 1 or any policy but the
    three (it would run as FirstBranch)."""
    if operator.index(max_steps) < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    if not isinstance(policy, (FirstBranch, SeededRandom, EnumerateTree)):
        raise ValueError("policy must be FirstBranch, SeededRandom or "
                         f"EnumerateTree, got {policy!r}")


def _coins(policy: BranchPolicy):
    """A policy's branch at each tie, True for A1: a SeededRandom fair coin,
    its stream built at the first draw (few walks meet a tie), else A1."""
    if isinstance(policy, SeededRandom):
        rng = np.random.default_rng(np.random.SeedSequence(policy.seed))
        while True:
            yield bool(rng.integers(0, 2) == 0)
    while True:
        yield True


@dataclass(frozen=True)
class ConvergedTo:
    """Entered the invariant termination ball around p_target."""

    target: int


@dataclass(frozen=True)
class Cycle:
    """The tail repeats with this period (> 1).  A cycle proof's period is
    the primitive root of its branch word, so minimal; the window's
    (``detect_cycle``) is the smallest lag whose last 2K points match,
    which may be a multiple of the minimal one."""

    period: int


@dataclass(frozen=True)
class Budget:
    """Step budget exhausted without convergence or a detected cycle."""


Verdict = Union[ConvergedTo, Cycle, Budget]


@dataclass(frozen=True)
class Trace:
    """One simulated trajectory.

    With record=False only the final point is kept, so ``points[-1]`` is
    always the state the verdict was pronounced on.
    """

    start: tuple[float, float]
    points: tuple[tuple[float, float], ...]
    verdict: Verdict
    steps_used: int


@dataclass(frozen=True)
class RasterGrid:
    """Per-cell verdicts over a rectangle of starting points.

    ``cells`` and ``steps`` have shape (ny, nx) with row 0 at ymax (image
    orientation); codes are 0 = Budget, 1 = ConvergedTo(p1),
    2 = ConvergedTo(p2), 3 = Cycle.
    """

    bounds: tuple[float, float, float, float]
    resolution: tuple[int, int]
    cells: np.ndarray
    steps: np.ndarray
    seed: int


@dataclass(frozen=True)
class PairOutcome:
    """Sweep result for one (theta1, theta2) pair.

    ``worst_seed`` is the index of the first nonconvergent start within the
    pair's stream, -1 when every sampled start converged.
    """

    theta1: float
    theta2: float
    eq26_holds: bool
    eq26_margin: float
    nonconvergent_found: bool
    worst_seed: int


@dataclass(frozen=True)
class SweepGrid:
    pairs: tuple[PairOutcome, ...]
    samples_per_pair: int
    seed: int
    max_steps: int


def detect_cycle(points_window: Sequence) -> Optional[int]:
    """Smallest period K > 1 such that the last 2K points repeat, or None.

    A pair (x_n, x_{n+K}) matches when |x_{n+K} - x_n| <= MATCH_TOL *
    (1 + |x_n|).  K is the smallest lag that matches, not always the
    orbit's minimal period: on an orbit still closing in on its cycle the
    gaps at the period can exceed MATCH_TOL where those at a multiple of it,
    one more period on, match first.  A full K = 1 match is a constant
    tail, which is the convergence criterion's business, not a cycle:
    None, as for an empty window.  Raises ValueError for a window that is
    not (m, 2) points.
    """
    w = np.asarray(points_window, dtype=float)
    if w.size and (w.ndim != 2 or w.shape[1] != 2):
        raise ValueError(f"points_window must be (m, 2) points, got {w.shape}")
    return _cycles(w.reshape(-1, 2), 0)[0] or None


# the screen may overflow, or meet a NaN, where math.hypot does not
@np.errstate(over="ignore", invalid="ignore")
def _cycles(w: np.ndarray, span: int) -> list[int]:
    """detect_cycle on each lane of w, an (m, 2) window or (m, 2, lanes)
    of them, lane j's last m points w[:, :, j], each of a window of
    max(span, m): per lane its K, 0 where detect_cycle gives None, or
    _UNDECIDED if that needs a point w lacks: for the K = 1 test m >= 2,
    the near screen span // 2 < m, a full check of K, 2K <= m.  One NumPy
    pass screens every lane's window, then each lane's candidates are
    confirmed in K order."""
    m = len(w)
    n = w.shape[2] if w.ndim == 3 else 1
    span = max(span, m)
    if m < 2:
        return [0 if span < 2 else _UNDECIDED] * n
    # a max-norm pass keeps the K whose last pair may match, as |e| <= |ex|
    # + |ey| (the slack covers rounding; a NaN keeps its K), and the exact
    # test decides; rows are lanes (one lane runs faster 1-D), columns K
    x, y = w[m - 1, ..., None]
    e = w[m - 1 - min(span // 2, m - 1):m - 1][::-1]
    ex, ey = e[:, 0].T, e[:, 1].T
    dist = np.maximum(abs(ex - x), abs(ey - y))
    near = ~(dist > MATCH_TOL * ((1.0 + abs(ex) + abs(ey)) * (1.0 + 1e-12)))
    found = [_UNDECIDED if span // 2 > m - 1 else 0] * n
    done = -1
    for c in np.flatnonzero(near).tolist():
        j, k = divmod(c, len(e))
        k += 1
        if j == done:
            continue
        lane = w[:, :, j] if w.ndim == 3 else w
        (x1, y1), (x0, y0) = lane[m - 1].tolist(), lane[m - 1 - k].tolist()
        if not math.hypot(x1 - x0, y1 - y0) <= MATCH_TOL * (
                1.0 + math.hypot(x0, y0)):
            continue
        if k == 1:
            # a constant tail is the convergence criterion's business
            found[j], done = 0, j
        elif 2 * k > m:
            found[j], done = _UNDECIDED, j
        else:
            a, b = lane[m - k:], lane[m - 2 * k:m - k]
            gaps = np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1])
            lims = MATCH_TOL * (1.0 + np.hypot(b[:, 0], b[:, 1]))
            if np.all(gaps <= lims):
                found[j], done = k, j
    return found


def _code(v: Verdict) -> int:
    """A verdict's raster code: 0 Budget, 1 or 2 the ball, 3 Cycle."""
    return v.target if isinstance(v, ConvergedTo) else (
        3 if isinstance(v, Cycle) else 0)


def simulate(cfg: ProblemConfig, x0, policy: BranchPolicy = FirstBranch(),
             max_steps: int = 20000, record: bool = True) -> Trace:
    """Iterate the operator from x0 until a verdict is reached.

    Termination order per visit: the open balls around p1/p2 first, then a
    cycle check over the last 4096 points every 512 steps and at the budget
    (once at a step that is both), then the budget.  An EnumerateTree
    policy explores every tie branching and this returns the worst leaf:
    Budget over Cycle over ConvergedTo.  Raises for any input
    ``simulate_tree`` rejects.
    """
    leaves = simulate_tree(cfg, x0, policy, max_steps=max_steps,
                           record=record)
    rank = {Budget: 2, Cycle: 1, ConvergedTo: 0}
    return max(leaves, key=lambda t: rank[type(t.verdict)])


def simulate_tree(cfg: ProblemConfig, x0,
                  policy: BranchPolicy = EnumerateTree(),
                  max_steps: int = 20000, record: bool = True
                  ) -> tuple[Trace, ...]:
    """Follow every branch choice at ties, up to policy.max_leaves leaves.

    Within the leaf budget each tie forks the trajectory (A1 branch
    explored first); once the budget is committed, further ties fall back
    to the A1 branch.  Returns one terminated Trace per leaf.  Any other
    policy has a budget of one leaf and takes its coin (``_coins``) at each
    tie.  Each leaf runs in the scalar walk, with simulate's cycle checks,
    which stops at ties for the branch choice and resumes from the chosen
    point.  Raises ValueError for a policy that is none of the
    three, a start whose norm is not finite, or max_steps below 1
    (TypeError for a non-integer).
    """
    _check_run(max_steps, policy)
    start = checked_start(x0)
    consts = _constants(cfg)
    c1, s1, c2, s2 = consts[:4]
    max_leaves = policy.max_leaves if isinstance(policy, EnumerateTree) else 1
    coins = _coins(policy)
    leaves: list[Trace] = []
    # stack entries: (x, y, steps, points or None, window); a fork pushes
    # its A2 leaf and goes on through A1, so A1 is explored first
    stack = [(*start, 0, [start] if record else None, array("d", start))]
    committed = 1
    while stack:
        x, y, steps, pts, win = stack.pop()
        while True:
            verdict, x, y, steps = _walk(consts, x, y, steps, win, pts,
                                         max_steps)
            if verdict is not None:
                break
            # a tie: fork within the leaf budget, going on through A1,
            # else the policy's coin
            first = committed < max_leaves or next(coins)
            if committed < max_leaves:
                committed += 1
                bp = _branch(0.5, c2, s2, x, y)
                bw = array("d", win)
                bw.extend(bp)
                stack.append((*bp, steps + 1,
                              None if pts is None else pts + [bp], bw))
            x, y = (_branch(-0.5, c1, s1, x, y) if first
                    else _branch(0.5, c2, s2, x, y))
            steps += 1
            win.extend((x, y))
            if pts is not None:
                pts.append((x, y))
        leaves.append(Trace(start=start,
                            points=((x, y),) if pts is None else tuple(pts),
                            verdict=verdict, steps_used=steps))
    return tuple(leaves)


def _walk(consts: Sequence[float], x: float, y: float, steps: int, win: array,
          pts: Optional[list], max_steps: int
          ) -> tuple[Optional[Verdict], float, float, int]:
    """Run one trajectory from its state at ``steps`` until a verdict or a
    tie.  ``win`` is a flat x, y buffer of the trajectory's last points up
    to (x, y), its last WINDOW or all it has; ``pts``, if not None,
    collects the points, copied from ``win``.  Each visit tests the balls,
    then, at every CHECK_EVERY steps and at the budget, one cycle check,
    then the budget; dr._steps runs the steps in between.  Returns
    (verdict, x, y, steps), or (None, x, y, steps) at a point on the tie
    band, visited but not stepped, or at an undecided check."""
    if ball := _ball(consts, x, y):
        return ConvergedTo(ball), x, y, steps
    while True:
        # a boundary: the buffer drops all but the last window points, and
        # detect_cycle reads them as an (m, 2) view, gone before the next
        # append
        if len(win) > 2 * WINDOW:
            del win[:len(win) - 2 * WINDOW]
        if steps >= max_steps or (steps and steps % CHECK_EVERY == 0):
            # detect_cycle, or _cycles on a window that starts after step 0
            w, span = np.frombuffer(win).reshape(-1, 2), min(steps + 1, WINDOW)
            period = (detect_cycle(w) if len(w) >= span
                      else _cycles(w, span)[0] or None)
            del w
            if period is not None or steps >= max_steps:
                return (None if period == _UNDECIDED else Budget()
                        if period is None else Cycle(period), x, y, steps)
        stop = min(max_steps, (steps // CHECK_EVERY + 1) * CHECK_EVERY)
        code, x, y, k = _steps(*consts, x, y, stop - steps, win)
        if pts is not None and k:
            tail = win[len(win) - 2 * k:]
            pts.extend(zip(tail[::2], tail[1::2]))
        steps += k
        if code >= 0:
            return ConvergedTo(code) if code else None, x, y, steps


# the screen may overflow near 1e308, where the proof fails
@np.errstate(over="ignore")
def _proven_walk(consts: Sequence[float], x: float, y: float, steps: int,
                 max_steps: int, coins) -> tuple[Verdict, float, float, int]:
    """Run one trajectory from its point (x, y) at ``steps`` until a ball,
    a cycle proof or the budget, keeping no window: (verdict, x, y, steps)
    at the point the verdict is pronounced on.  At a point on the tie band
    it steps through the branch of next(coins), A1 for True (``_coins``),
    and goes on from there as from a start.

    A reference point r jumps to the current point after _SPAN, then 2
    _SPAN, 4 _SPAN, ... steps (Brent's teleporting tortoise).  dr._steps
    runs the steps in chunks of at most CHECK_EVERY that end at each jump
    and at the budget, and a max-norm screen marks the chunk's points back
    within _COARSE (1 + |r|_1) of r.  At each, K >= 2 steps after r,
    ``_proof`` tries the cycle proof on the K + 1 points from r, as long
    as r's tries cost at most its span in all: so the proofs' steps stay
    below about twice the walk's, even on an orbit that keeps coming back
    where none holds.  The first proof that holds ends the walk with Cycle
    of its period at that point, as the orbit then follows its word
    forever."""
    ball = _ball(consts, x, y)
    rx, ry, ref, span, spent = x, y, steps, _SPAN, 0
    while not ball and steps < max_steps:
        buf = array("d")
        code, x, y, k = _steps(*consts, x, y, min(
            CHECK_EVERY, ref + span - steps, max_steps - steps), buf)
        w = np.frombuffer(buf).reshape(-1, 2)
        near = (np.maximum(abs(w[:, 0] - rx), abs(w[:, 1] - ry))
                <= _COARSE * (1.0 + abs(rx) + abs(ry)))
        for i in np.flatnonzero(near).tolist():
            lag = steps + i + 1 - ref
            if lag >= 2 and spent + lag <= span:
                spent += lag
                proof = _proof(consts, rx, ry, lag)
                if proof is not None:
                    return Cycle(_root(proof[0])), *w[i].tolist(), ref + lag
        steps += k
        if code == 0:
            x, y = (_branch(-0.5, *consts[:2], x, y) if next(coins)
                    else _branch(0.5, *consts[2:4], x, y))
            steps += 1
            ball = _ball(consts, x, y)
            rx, ry, ref, span, spent = x, y, steps, _SPAN, 0
        elif code > 0:
            ball = code
        elif steps == ref + span:
            rx, ry, ref, span, spent = x, y, steps, 2 * span, 0
    return ConvergedTo(ball) if ball else Budget(), x, y, steps


def find_period_brent(cfg: ProblemConfig, x0, max_steps: int = 200000
                      ) -> Optional[int]:
    """The proven period of the first-branch orbit from x0, or None.

    One call of ``_proven_walk``, which keeps no window, under FirstBranch's
    coins.  Returns the period of the first cycle proof that holds, or None
    where the orbit enters a termination ball or no proof holds within
    max_steps.  Raises ValueError for a start whose norm is not finite or
    max_steps < 1 (TypeError for a non-integer).
    """
    _check_run(max_steps)
    v = _proven_walk(_constants(cfg), *checked_start(x0), 0, max_steps,
                     _coins(FirstBranch()))[0]
    return v.period if isinstance(v, Cycle) else None


def _lanes(consts, x, y) -> np.ndarray:
    """Lane array: rows x, y and one ``_constants`` row, or one per lane."""
    out = np.empty((8, len(x)))
    out[0], out[1], out[2:] = x, y, np.asarray(consts).T.reshape(6, -1)
    return out


def _checkpoint(max_steps: int) -> int:
    """The raster's hand-off step n/2, n = min(max_steps, CHECK_EVERY)."""
    return min(max_steps, CHECK_EVERY) // 2


# the lane arithmetic may overflow where the scalar walk's does too: a
# point of norm near 1e200 squares to inf and lies in no ball, and a NaN
# gap (inf - inf) is not clear of the tie band
@np.errstate(over="ignore", invalid="ignore")
def _pool(lanes_at, n: int, mark: int) -> tuple[np.ndarray, ...]:
    """Run lanes 0, ..., n-1, at most _LANE_BLOCK at a time: a lane that
    finishes makes room for the next one, so the pool stays full while
    lanes are left.  ``lanes_at(lo, hi)`` builds lanes lo, ..., hi-1 as
    one lane array (rows x, y, c1, s1, c2, s2, r1^2, r2^2), asked for at
    most _LANE_BLOCK at a time.  A lane leaves at the first visit, as
    ``_walk`` visits, that finds it in a termination ball, on the tie band
    or at step ``mark``, which each grid driver chooses, and otherwise
    steps through the branch its gap picks.  While lanes are left to
    draw, a pass visits every lane once, so a finished lane's place is
    refilled at once; after that a pass steps every lane k times through
    ``_lane_block`` and tests the k visits at once, with k = min(32,
    4 _LANE_BLOCK // lanes, mark + 1 - the least step count), so a pass
    of a few lanes does about four full pool steps' work and no lane
    steps past the mark.  Returns (codes, steps, points) over all n lanes, for
    the visit at which each lane left: code 1 or 2 where it entered a
    termination ball, _TIE_HANDOFF where it was on the tie band, and
    _HANDOFF where it was still running at the mark; ``steps`` and the
    (n, 2) ``points`` hold each lane's step count and point at that
    visit, before it steps, so a lane may go on from there."""
    codes = np.empty(n, dtype=np.uint8)
    steps = np.empty(n, dtype=np.int32)
    points = np.empty((n, 2))
    buf, built, drawn = np.empty((8, 0)), 0, 0

    def draw(k):
        # the next k lanes and their ids, fewer once all n are out; as k
        # is at most _LANE_BLOCK, one block always tops the buffer up
        nonlocal buf, built, drawn
        if buf.shape[1] < k and built < n:
            hi = min(n, built + _LANE_BLOCK)
            buf = np.concatenate([buf, lanes_at(built, hi)], axis=1)
            built = hi
        new, buf = buf[:, :k], buf[:, k:]
        drawn += new.shape[1]
        return np.arange(drawn - new.shape[1], drawn), new

    def leaves(in1, in2, clear, count):
        # the one exit rule, at visits whose step counts are ``count``
        return ~clear | in1 | in2 | (count == mark)

    def leave(out, in1, in2, clear, count, point):
        # lanes ``out`` leave at visits with these flags, counts and points
        codes[out] = np.where(clear, _HANDOFF, _TIE_HANDOFF)
        codes[out[in1]] = 1
        codes[out[in2]] = 2
        steps[out], points[out] = count, point

    ids, lanes = draw(_LANE_BLOCK)
    count = np.zeros(len(ids), dtype=np.int32)
    while drawn < n:
        x, y, c1, s1, c2, s2, r1sq, r2sq = lanes
        gap, bx, by = _lane_gap(c1, s1, c2, s2, x, y)
        in1, in2, clear = _lane_visit(x, y, gap, r1sq, r2sq)
        gone = np.flatnonzero(leaves(in1, in2, clear, count))
        if len(gone):
            leave(ids[gone], in1[gone], in2[gone], clear[gone], count[gone],
                  lanes[:2, gone].T)
        lanes[0], lanes[1] = bx, by
        count += 1
        if len(gone):
            # fresh lanes take the finished lanes' places; once all n are
            # out the places left over are dropped
            new_ids, new = draw(len(gone))
            fill = gone[:len(new_ids)]
            lanes[:, fill], ids[fill], count[fill] = new, new_ids, 0
            if len(fill) < len(gone):
                keep = np.delete(np.arange(len(ids)), gone[len(fill):])
                lanes, ids, count = (a.take(keep, axis=-1)
                                     for a in (lanes, ids, count))
    while len(ids):
        # up to four full pool steps' lane-visits a pass: on the sweep's
        # and the basin's pools one was slower, as the passes' own work
        # repeats too often, and so was 32 visits at any lane count, as
        # it steps lanes far past their exits
        k = min(32, 4 * _LANE_BLOCK // len(ids),
                mark + 1 - int(count.min()))
        pts = np.empty((k + 1, 2, len(ids)))
        pts[0] = lanes[:2]
        in1, in2, clear = _lane_block(pts, lanes[2:])
        event = leaves(in1, in2, clear, count + np.arange(k)[:, None])
        # each lane's first event, if it has one in the block
        at = event.argmax(axis=0)
        left = event[at, np.arange(len(ids))]
        gone, a = np.flatnonzero(left), at[left]
        leave(ids[gone], in1[a, gone], in2[a, gone], clear[a, gone],
              count[gone] + a, pts[a, :, gone])
        lanes[:2] = pts[k]
        keep = np.flatnonzero(~left)
        lanes, ids, count = lanes[:, keep], ids[keep], count[keep] + k
    return codes, steps, points


def _room(rows: np.ndarray, idx: np.ndarray, more: int) -> np.ndarray:
    """The lanes idx (last axis) of the (r, 2, lanes) points rows, in a new
    buffer with room for ``more`` rows after them."""
    out = np.empty((len(rows) + more, 2, len(idx)))
    # idx is in range: "clip" only spares take its buffered copy
    np.take(rows, idx, axis=2, out=out[:len(rows)], mode="clip")
    return out


# the lane arithmetic may overflow, as in _pool
@np.errstate(over="ignore", invalid="ignore")
def _lockstep(lanes: np.ndarray, max_steps: int, start: int = 0
              ) -> tuple[np.ndarray, np.ndarray]:
    """Step lanes (rows x, y, c1, s1, c2, s2, r1^2, r2^2) together to
    simulate's verdicts from their points at step ``start`` (the raster's
    hand-off step ``_checkpoint``), each with a one-point window.  Per
    lane: (code, simulate's step count), code 1 or 2 once it enters a
    termination ball, 3 for a cycle, 0 for the budget.

    The lanes run in sets, in lane order, whose windows, one interval's
    points and its gaps (half a point each) fit in _HIST_POINTS.  A set
    runs an interval at a time, up to the next cycle check step (every
    CHECK_EVERY steps and the budget): ``_lane_block``, the kernel the
    pool's tail runs too, steps its lanes through ``_lane_gap`` alone,
    keeping each visit's point, and one ``_lane_visit`` pass over the
    interval's visits then finds each lane's first visit in a ball or on
    the tie band.  At the check step the balls come first, then one
    ``_cycles`` pass over each remaining lane's last WINDOW points, then
    the band, as in ``_walk``; lanes stepped past their verdict are
    dropped.  Codes _TIE_HANDOFF (on the band) and _HANDOFF (at an
    undecided check) leave a lane to a scalar re-run from its start.  A
    set with fewer than _LANE_FLOOR lanes at an interval's start goes on
    in the scalar walk, each lane from its point, step count and window;
    one the walk returns undecided or at a tie gets _HANDOFF."""
    n = lanes.shape[1]
    codes = np.full(n, _HANDOFF, dtype=np.uint8)
    steps = np.zeros(n, dtype=np.int32)
    per_set = 2 * _HIST_POINTS // (2 * min(max_steps + 2, WINDOW + 1)
                                   + 3 * (min(max_steps, CHECK_EVERY) + 1))
    for live in np.array_split(np.arange(n), max(1, -(-n // per_set))):
        # hist[r, :, j] is live lane j's point at step s + 1 + r - kept:
        # its window up to the interval's first step s, then the
        # interval's points
        consts = lanes[2:, live]
        s, e = start, min(max_steps, max(1, -(-start // CHECK_EVERY))
                          * CHECK_EVERY)
        hist, kept = _room(lanes[:2][None], live, e + 1 - s), 1
        while len(live):
            if len(live) < _LANE_FLOOR:
                for j, lane in enumerate(consts.T.tolist()):
                    v, _, _, used = _walk(
                        lane, *hist[kept - 1, :, j].tolist(), s,
                        array("d", hist[max(0, kept - WINDOW):kept, :, j]
                              .tobytes()), None, max_steps)
                    if v is not None:
                        codes[live[j]], steps[live[j]] = _code(v), used
                break
            k = e + 1 - s
            in1, in2, clear = _lane_block(hist[kept - 1:kept + k], consts)
            # each lane's first visit in a ball or on the band settles it,
            # unless that is the band at the check step e
            event = in1 | in2 | ~clear
            at = event.argmax(axis=0)
            idx = np.arange(len(live))
            first = np.where(in1[at, idx], 1,
                             np.where(in2[at, idx], 2, _TIE_HANDOFF))
            stop = event[at, idx] & ((first != _TIE_HANDOFF) | (at < k - 1))
            codes[live[stop]], steps[live[stop]] = first[stop], s + at[stop]
            # the others' windows at e, and their points at e + 1, with
            # room for the next interval's
            check = np.flatnonzero(~stop)
            if not len(check):
                break
            m = min(WINDOW, kept + k - 1)
            ahead = min(max_steps, e + CHECK_EVERY)
            hist = _room(hist[kept + k - 1 - m:kept + k], check, ahead - e)
            kept, live, consts = m + 1, live[check], consts[:, check]
            found = np.array(_cycles(hist[:m], min(e + 1, WINDOW)))
            over = (found != 0) | (e == max_steps)
            codes[live[over]] = np.where(found[over] > 0, 3, np.where(
                found[over] == 0, 0, _HANDOFF))
            steps[live[over]] = e
            clear = clear[k - 1, check]
            codes[live[~over & ~clear]] = _TIE_HANDOFF
            if not (keep := ~over & clear).all():
                keep = np.flatnonzero(keep)
                hist, live, consts = _room(hist[:kept], keep, ahead - e), \
                    live[keep], consts[:, keep]
            s, e = e + 1, ahead
    return codes, steps


def _cell_centres(bounds: tuple[float, float, float, float],
                  resolution: tuple[int, int], cell):
    """Centres of the row-major cells (an index or an index array)."""
    nx, ny = resolution
    xmin, xmax, ymin, ymax = bounds
    j, i = np.divmod(cell, nx)
    return (xmin + (i + 0.5) * (xmax - xmin) / nx,
            ymax - (j + 0.5) * (ymax - ymin) / ny)


def rasterize(cfg: ProblemConfig, bounds: tuple[float, float, float, float],
              resolution: tuple[int, int], policy: BranchPolicy = FirstBranch(),
              max_steps: int = 2000, seed: int = 0,
              threads: Optional[int] = None) -> RasterGrid:
    """Verdict raster over cell centers of the bounds rectangle.

    resolution is (nx, ny); row 0 of the result sits at the top (ymax).
    Cells run through one lane pool in row-major order, at most
    _LANE_BLOCK at a time, which returns each cell's code, step and
    point.  A cell leaves it at a ball, on the tie band, or at the
    raster's own hand-off step n/2, n = min(max_steps, 512), as the cycle
    check at step n reads only points n/2..n but for a long period.  From
    that point it runs on to its verdict as a lane, the last few of a
    lane set in the scalar walk; only cells at a tie or an undecided
    cycle check re-run through ``simulate``.  Cell streams are keyed by
    (seed, cell_index), so the picture equals per-cell ``simulate``
    calls.  ``threads`` is accepted and ignored.  Raises, before any
    step, for a resolution that is not two integers (TypeError; NumPy's
    integers pass) or is empty, a policy or max_steps that ``simulate``
    rejects, a max_steps of 2**31 or more (int32 step counts), a seed
    that is not an integer >= 0, or bounds that are not increasing or
    where a double overflows: a corner norm, or a width or height times
    the cell count that the centres' formula forms (the norm peaks at a
    corner, so every cell centre is then a start that ``simulate``
    takes).
    """
    nx, ny = map(operator.index, resolution)
    if nx < 1 or ny < 1:
        raise ValueError(f"resolution must be >= 1x1, got {nx}x{ny}")
    xmin, xmax, ymin, ymax = bounds
    if not (xmin < xmax and ymin < ymax):
        raise ValueError(f"degenerate bounds {bounds}")
    if not (math.isfinite((nx - 0.5) * (xmax - xmin))
            and math.isfinite((ny - 0.5) * (ymax - ymin))
            and all(math.isfinite(math.hypot(x, y))
                    for x in (xmin, xmax) for y in (ymin, ymax))):
        raise ValueError(f"bounds {bounds} overflow a double")
    _check_run(max_steps, policy)
    if max_steps >= 2 ** 31:
        raise ValueError(f"max_steps must be below 2**31, got {max_steps}")
    if operator.index(seed) < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")

    consts, mark = _constants(cfg), _checkpoint(max_steps)
    codes, steps, points = _pool(lambda lo, hi: _lanes(consts, *_cell_centres(
        bounds, (nx, ny), np.arange(lo, hi))), nx * ny, mark)
    # hand-offs at the mark run on as lanes; those at a tie or an
    # undecided check re-run through scalar simulate
    cell = np.flatnonzero(codes == _HANDOFF)
    codes[cell], steps[cell] = _lockstep(
        _lanes(consts, *points[cell].T), max_steps, start=mark)
    for h in np.flatnonzero(codes >= _TIE_HANDOFF).tolist():
        # SeededRandom policies are re-keyed onto per-cell streams
        tr = simulate(cfg, _cell_centres(bounds, (nx, ny), h),
                      SeededRandom((seed, h))
                      if isinstance(policy, SeededRandom) else policy,
                      max_steps=max_steps, record=False)
        codes[h], steps[h] = _code(tr.verdict), tr.steps_used
    cells, steps = codes.reshape(ny, nx), steps.reshape(ny, nx)
    return RasterGrid(bounds=tuple(bounds), resolution=(nx, ny), cells=cells,
                      steps=steps, seed=seed)


def certified_budget(cfg: ProblemConfig, cert: LyapunovCertificate, x0,
                     max_steps: int) -> int:
    """Step budget that provably suffices for a certified configuration.

    V decays by gamma per step and the sandwich converts the V level of the
    termination balls into a step count, to a radius of BALL_SAFETY r =
    0.9801 min d(p_i, D3): r already carries one factor BALL_SAFETY, and
    the second is slack beside the 64 steps that absorb the float edges.
    The returned budget is never below max_steps.  The log ratio is
    negative for every start: D3 crosses the segment p1p2, so r < 1/2,
    while the anchors are 1 apart, so omega2 = w2 >= 1/2.
    """
    r = BALL_SAFETY * min(distance_to_D3(cfg, cfg.p1),
                          distance_to_D3(cfg, cfg.p2))
    e = 2.0 * cert.alpha + 2.0
    w2 = omegas(cfg, [x0])[1][0]
    need = e * (math.log(BALL_SAFETY * r) - math.log(w2)) / math.log(cert.gamma)
    return max(max_steps, int(math.ceil(need)) + 64)


def sweep(theta_grid: Sequence[tuple[float, float]],
          samples_per_pair: int = 20, max_steps: int = 20000,
          seed: int = 0) -> SweepGrid:
    """Probe every (theta1, theta2) pair for nonconvergent behavior.

    Each pair gets samples_per_pair starts drawn from the (seed,
    pair_index) stream, uniform over [-2, 2]^2, which take the coins of
    SeededRandom((seed, pair_index, start_index)) at their ties.
    Certified pairs run with the certificate-backed step budget, so a
    nonconvergent verdict there is a genuine counterexample, not a budget
    artifact.  It runs in three phases, as ``rasterize`` does.  Every
    pair's config and step constants are built and all starts drawn; the
    starts run through one lane pool in pair order, which returns each
    start's code, step and point, and one leaves it at a ball, or on the
    tie band or at the sweep's own hand-off step min(max_steps, 1024)
    carrying its point and step (the sweep keeps no window, so it has no
    cycle check to hand off before); then each pair in turn is certified
    and its unsettled starts resumed from there, in start order up to its
    first nonconvergent one, in the window-free walk of
    ``find_period_brent``.  That walk, not ``simulate``, ends at a ball,
    at the budget, or as soon as ``certify_cycle``'s proof holds from its
    reference point: the start is then nonconvergent, as its ``simulate``
    verdict would be, and the sweep reports no step counts.  Raises,
    before any start runs, for a samples_per_pair or a seed that is not
    an integer (TypeError; NumPy's integers pass), samples_per_pair below
    1 or a negative seed, a max_steps that ``simulate`` rejects or a pair
    that ``ProblemConfig`` rejects.
    """
    samples = operator.index(samples_per_pair)
    if samples < 1:
        raise ValueError(f"samples_per_pair must be >= 1, got {samples}")
    if operator.index(seed) < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    _check_run(max_steps)
    # a bad pair raises here, before any start runs
    cfgs = [ProblemConfig(float(t1), float(t2)) for t1, t2 in theta_grid]
    rows = np.array([_constants(cfg) for cfg in cfgs]).reshape(-1, 6)
    starts = np.empty((len(rows), samples, 2))
    for k in range(len(rows)):
        starts[k] = np.random.default_rng(np.random.SeedSequence(
            [seed, k])).uniform(-2.0, 2.0, size=(samples, 2))
    flat = starts.reshape(-1, 2)
    codes, steps, points = _pool(
        lambda lo, hi: _lanes(rows[np.arange(lo, hi) // samples],
                              *flat[lo:hi].T),
        len(flat), min(max_steps, 2 * CHECK_EVERY))
    outcomes = []
    for k, cfg in enumerate(cfgs):
        res = certify(cfg)
        certified = isinstance(res, LyapunovCertificate)
        worst = -1
        handed = codes[k * samples:(k + 1) * samples] >= _TIE_HANDOFF
        for i in np.flatnonzero(handed).tolist():
            budget = (certified_budget(cfg, res, starts[k, i], max_steps)
                      if certified else max_steps)
            h = k * samples + i
            v = _proven_walk(rows[k].tolist(), *points[h].tolist(),
                             int(steps[h]), budget,
                             _coins(SeededRandom((seed, k, i))))[0]
            if not isinstance(v, ConvergedTo):
                worst = i
                break
        outcomes.append(PairOutcome(
            theta1=res.theta1, theta2=res.theta2, eq26_holds=certified,
            eq26_margin=res.condition_margin, nonconvergent_found=worst >= 0,
            worst_seed=worst))
    return SweepGrid(pairs=tuple(outcomes), samples_per_pair=samples,
                     seed=seed, max_steps=max_steps)


def make_theta_grid(n1: int = 40, n2: int = 40
                    ) -> tuple[tuple[float, float], ...]:
    """Admissible (theta1, theta2) pairs covering the parameter wedge.

    theta1 runs over [0.02, pi/2]; for each theta1, theta2 takes n2
    values strictly inside ]theta1, pi - 0.02[.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError(f"grid must be >= 1x1, got {n1}x{n2}")
    pairs = []
    for t1 in np.linspace(0.02, 0.5 * math.pi, n1):
        top = math.pi - 0.02
        for k in range(1, n2 + 1):
            t2 = t1 + (top - t1) * k / (n2 + 1)
            pairs.append((float(t1), float(t2)))
    return tuple(pairs)
