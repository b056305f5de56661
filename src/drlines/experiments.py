"""Trace simulation, cycle detection, basin rasters, and parameter sweeps.

A trajectory terminates as soon as it enters one of the open balls
B(p_i, 0.99 * d(p_i, D3)): each ball lies in its own strict region, so from
inside the iteration contracts toward p_i at rate cos^2(theta_i) and never
leaves.  Everything else is bookkeeping around that criterion: branch
policies resolving ties on D3, a sliding-window period detector, and the
two grid drivers (basin raster over starting points, sweep over angle
pairs).  Grid cells are independent work items; every cell derives its PRNG
stream from the root seed and its own index, so results do not depend on
how cells are grouped.  The grid drivers step cells as NumPy lanes in one
pool of at most _LANE_BLOCK lanes, refilled in cell order as lanes finish,
that keeps each lane's point at step 256.  Cells still running at the
first cycle check resume from there, as lanes with cycle windows in
``rasterize`` and in the scalar walk in ``sweep``; a check that needs
earlier points, or a tie, sends a cell back to a re-run from its start.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .dr import _branch, _gap, _lane_branch
from .geometry import (TIE_TOL, ProblemConfig, bisector_data, checked_start,
                       checked_tolerance, cos_sin, distance_to_D3)
from .lyapunov import LyapunovCertificate, certify

DEFAULT_WINDOW = 4096
DEFAULT_MATCH_TOL = 1e-8
DEFAULT_CHECK_EVERY = 512
BALL_SAFETY = 0.99
# the most lanes live at once in the lane pool, and the lane count below
# which lanes stop paying: the pool, once its source is empty, hands the
# rest of its lanes on, and a lane set running to its verdicts finishes
# them in the scalar walk
_LANE_BLOCK = 4096
_LANE_FLOOR = 32
# the lane passes' codes for a lane left to a scalar re-run: one that
# stopped at the tie screen, which only simulate's re-run from its start
# gets past, and one handed off for any other reason
_TIE_HANDOFF, _HANDOFF = 254, 255
# _cycle's answer where its window lacks points it needs, and the step
# whose point each pool lane keeps, for a hand-off to resume from
_UNDECIDED, _CHECKPOINT = -1, DEFAULT_CHECK_EVERY // 2
# window points per lane set that runs to its verdicts (16 MB)
_HIST_POINTS = 1 << 20


@dataclass(frozen=True)
class FirstBranch:
    """Deterministic tie policy: prefer the A1 branch on D3."""


@dataclass(frozen=True)
class SeededRandom:
    """Fair coin per tie, reproducible from the seed key.

    ``seed`` may be a single integer or a tuple of integers (a derived
    stream key such as (root_seed, cell_index, start_index)).
    """

    seed: Union[int, tuple[int, ...]] = 0


@dataclass(frozen=True)
class EnumerateTree:
    """Bounded exploration of all tie branchings, capped at max_leaves."""

    max_leaves: int = 64

    def __post_init__(self) -> None:
        if self.max_leaves < 1:
            raise ValueError(f"max_leaves must be >= 1, got {self.max_leaves}")


BranchPolicy = Union[FirstBranch, SeededRandom, EnumerateTree]


@dataclass(frozen=True)
class ConvergedTo:
    """Entered the invariant termination ball around p_target."""

    target: int


@dataclass(frozen=True)
class Cycle:
    """The tail repeats with this minimal period (> 1)."""

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


def detect_cycle(points_window: Sequence, match_tol: float = DEFAULT_MATCH_TOL
                 ) -> Optional[int]:
    """Smallest period K > 1 such that the last 2K points repeat, or None.

    A pair (x_n, x_{n+K}) matches when |x_{n+K} - x_n| <= tol * (1 + |x_n|).
    Scanning K in ascending order makes the returned period minimal (no
    proper divisor can also match, it would have been found first).  A full
    K = 1 match is a constant tail, which is the convergence criterion's
    business, not a cycle: None.
    """
    return _cycle(np.asarray(points_window, dtype=float), 0, match_tol)


def _cycle(w: np.ndarray, span: int, match_tol: float) -> Optional[int]:
    """detect_cycle on a window of max(span, m) points of which w holds the
    last m, or _UNDECIDED if that needs a point w lacks: for the K = 1 test
    m >= 2, the near screen span // 2 < m, a full check of K, 2K <= m."""
    m, span = len(w), max(span, len(w))
    if m < 2:
        return None if span < 2 else _UNDECIDED

    def pair_ok(later: int, earlier: int) -> bool:
        dx = w[later, 0] - w[earlier, 0]
        dy = w[later, 1] - w[earlier, 1]
        lim = match_tol * (1.0 + math.hypot(w[earlier, 0], w[earlier, 1]))
        return math.hypot(dx, dy) <= lim

    if pair_ok(m - 1, m - 2):
        return None
    # a vectorised pass keeps the K whose last pair may match (the slack
    # covers np.hypot rounding unlike math.hypot); pair_ok decides exactly
    ks = np.arange(2, min(span // 2, m - 1) + 1)
    e = w[m - 1 - ks]
    near = (np.hypot(w[m - 1, 0] - e[:, 0], w[m - 1, 1] - e[:, 1])
            <= match_tol * (1.0 + np.hypot(e[:, 0], e[:, 1])) * (1.0 + 1e-12))
    for k in ks[near].tolist():
        if not pair_ok(m - 1, m - 1 - k):
            continue
        if 2 * k > m:
            return _UNDECIDED
        a = w[m - k:]
        b = w[m - 2 * k:m - k]
        gaps = np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1])
        lims = match_tol * (1.0 + np.hypot(b[:, 0], b[:, 1]))
        if np.all(gaps <= lims):
            return k
    return _UNDECIDED if span // 2 > m - 1 else None


def _window_cycle(w: np.ndarray, steps: int, window: int,
                  match_tol: float = DEFAULT_MATCH_TOL):
    """The check at ``steps``: detect_cycle, or _cycle on a partial window."""
    span = min(steps + 1, window)
    return (detect_cycle(w, match_tol) if len(w) >= span
            else _cycle(w, span, match_tol))


def _constants(cfg: ProblemConfig) -> tuple[float, ...]:
    """Per-config step constants (c1, s1, c2, s2, r1^2, r2^2): the line
    directions and the squared termination-ball radii (distance_to_D3's
    arithmetic on one bisector_data)."""
    c1, s1 = cos_sin(cfg.theta1)
    c2, s2 = cos_sin(cfg.theta2)
    bd = bisector_data(cfg)
    r1, r2 = (BALL_SAFETY * min(abs((bd.c[0] - px) * nx + (bd.c[1] - py) * ny)
                                for nx, ny in (bd.n1, bd.n2))
              for px, py in (cfg.p1, cfg.p2))
    return c1, s1, c2, s2, r1 * r1, r2 * r2


def _code(v: Verdict) -> int:
    """A verdict's raster code: 0 Budget, 1 or 2 the ball, 3 Cycle."""
    return v.target if isinstance(v, ConvergedTo) else (
        3 if isinstance(v, Cycle) else 0)


def simulate(cfg: ProblemConfig, x0, policy: BranchPolicy = FirstBranch(),
             max_steps: int = 20000, tol: float = TIE_TOL,
             record: bool = True, window: int = DEFAULT_WINDOW,
             match_tol: float = DEFAULT_MATCH_TOL,
             check_every: int = DEFAULT_CHECK_EVERY) -> Trace:
    """Iterate the operator from x0 until a verdict is reached.

    Termination order per visit: the open balls around p1/p2 first, then a
    cycle check every ``check_every`` steps, then the budget (with a final
    cycle check).  An EnumerateTree policy explores every tie branching and
    this returns the worst leaf: Budget over Cycle over ConvergedTo.
    Raises ValueError for any input ``simulate_tree`` rejects.
    """
    leaves = simulate_tree(cfg, x0, policy, max_steps=max_steps, tol=tol,
                           record=record, window=window, match_tol=match_tol,
                           check_every=check_every)
    rank = {Budget: 2, Cycle: 1, ConvergedTo: 0}
    return max(leaves, key=lambda t: rank[type(t.verdict)])


def simulate_tree(cfg: ProblemConfig, x0,
                  policy: BranchPolicy = EnumerateTree(),
                  max_steps: int = 20000, tol: float = TIE_TOL,
                  record: bool = True, window: int = DEFAULT_WINDOW,
                  match_tol: float = DEFAULT_MATCH_TOL,
                  check_every: int = DEFAULT_CHECK_EVERY) -> tuple[Trace, ...]:
    """Follow every branch choice at ties, up to policy.max_leaves leaves.

    Within the leaf budget each tie forks the trajectory (A1 branch
    explored first); once the budget is committed, further ties fall back
    to the A1 branch.  Returns one terminated Trace per leaf.  Any other
    policy has a budget of one leaf and picks the branch at each tie; a
    SeededRandom stream is built at the first tie, as most trajectories
    meet none.  Each leaf runs in the scalar walk, which stops at ties for
    the branch choice and resumes from the chosen point.  Raises
    ValueError for a start whose norm is not finite, max_steps or
    check_every below 1, a negative window, or a tolerance that is not
    finite and >= 0.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    if check_every < 1:
        raise ValueError(f"check_every must be >= 1, got {check_every}")
    checked_tolerance("tol", tol)
    checked_tolerance("match_tol", match_tol)
    start = checked_start(x0)
    consts = _constants(cfg)
    c1, s1, c2, s2 = consts[:4]
    max_leaves = policy.max_leaves if isinstance(policy, EnumerateTree) else 1
    rng = None
    leaves: list[Trace] = []
    # stack entries: (x, y, steps, points or None, window); a fork pushes
    # its A2 leaf and goes on through A1, so A1 is explored first
    stack = [(*start, 0, [start] if record else None, array("d", start))]
    committed = 1
    while stack:
        x, y, steps, pts, win = stack.pop()
        while True:
            verdict, x, y, steps = _walk(consts, x, y, steps, win, pts,
                                         max_steps, tol, window, match_tol,
                                         check_every)
            if verdict is not None:
                break
            # a tie: fork within the leaf budget, else A1 or the coin
            first = True
            if committed < max_leaves:
                committed += 1
                bp = _branch(0.5, c2, s2, x, y)
                bw = array("d", win)
                bw.extend(bp)
                stack.append((*bp, steps + 1,
                              None if pts is None else pts + [bp], bw))
            elif isinstance(policy, SeededRandom):
                if rng is None:
                    rng = np.random.default_rng(
                        np.random.SeedSequence(policy.seed))
                first = bool(rng.integers(0, 2) == 0)
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
          pts: Optional[list], max_steps: int, tol: float,
          window: int = DEFAULT_WINDOW, match_tol: float = DEFAULT_MATCH_TOL,
          check_every: int = DEFAULT_CHECK_EVERY
          ) -> tuple[Optional[Verdict], float, float, int]:
    """Run one trajectory from its state at ``steps`` until a verdict or a
    tie.  ``win`` is a flat x, y buffer of the trajectory's last points up
    to (x, y), its last ``window`` or all it has; ``pts``, if not None,
    collects the points.  Each visit tests the balls, then the cycle check
    every ``check_every`` steps, then the budget (with a final check).
    Returns (verdict, x, y, steps), or (None, x, y, steps) at a point in the
    tie band, visited but not stepped, or at an undecided check."""
    c1, s1, c2, s2, r1sq, r2sq = consts
    gap_of, branch, hypot = _gap, _branch, math.hypot
    push, add = win.append, None if pts is None else pts.append
    keep = 2 * window
    dx1, dx2 = x + 0.5, x - 0.5
    if dx1 * dx1 + y * y < r1sq:
        return ConvergedTo(1), x, y, steps
    if dx2 * dx2 + y * y < r2sq:
        return ConvergedTo(2), x, y, steps
    while True:
        # a boundary: the buffer drops all but the last window points, and
        # detect_cycle reads them as an (m, 2) view, gone before the next
        # append; runs between boundaries test no counter
        if len(win) > keep:
            del win[:len(win) - keep]
        if steps and steps % check_every == 0:
            period = _window_cycle(np.frombuffer(win).reshape(-1, 2), steps,
                                   window, match_tol)
            if period is not None:
                return (None if period == _UNDECIDED else Cycle(period),
                        x, y, steps)
        if steps >= max_steps:
            period = _window_cycle(np.frombuffer(win).reshape(-1, 2), steps,
                                   window, match_tol)
            return (Budget() if period is None else None
                    if period == _UNDECIDED else Cycle(period), x, y, steps)
        # the next boundary is a cycle check, the budget or, with sparse
        # checks, a trim that bounds the buffer
        stop = min(max_steps, (steps // check_every + 1) * check_every,
                   steps + DEFAULT_WINDOW)
        for steps in range(steps + 1, stop + 1):
            gap = gap_of(c1, s1, c2, s2, x, y)
            if abs(gap) <= tol * (1.0 + hypot(x, y)):
                return None, x, y, steps - 1
            if gap < 0.0:
                x, y = branch(-0.5, c1, s1, x, y)
            else:
                x, y = branch(0.5, c2, s2, x, y)
            push(x)
            push(y)
            if add is not None:
                add((x, y))
            dx1 = x + 0.5
            if dx1 * dx1 + y * y < r1sq:
                return ConvergedTo(1), x, y, steps
            dx2 = x - 0.5
            if dx2 * dx2 + y * y < r2sq:
                return ConvergedTo(2), x, y, steps


def find_period_brent(cfg: ProblemConfig, x0, max_steps: int = 200000,
                      match_tol: float = DEFAULT_MATCH_TOL,
                      tol: float = TIE_TOL) -> Optional[int]:
    """Low-memory period search along the deterministic first-branch orbit.

    Brent's teleporting-tortoise scheme with tolerance-based equality: the
    reference point jumps forward at powers of two, which also rides out
    the transient toward the limit cycle.  The meeting distance is then
    reduced to the minimal period by divisor checks.  Returns None when no
    recurrence is found within max_steps; raises ValueError for a start
    whose norm is not finite, max_steps < 1 or a tolerance that is not
    finite and >= 0.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    checked_tolerance("tol", tol)
    checked_tolerance("match_tol", match_tol)
    c1, s1, c2, s2, _, _ = _constants(cfg)
    gap_of, branch, hypot = _gap, _branch, math.hypot

    def step(p: tuple[float, float]) -> tuple[float, float]:
        # FirstBranch: ties go through A1, so A1 whenever gap <= the band
        x, y = p
        if gap_of(c1, s1, c2, s2, x, y) <= tol * (1.0 + hypot(x, y)):
            return branch(-0.5, c1, s1, x, y)
        return branch(0.5, c2, s2, x, y)

    def close(a: tuple[float, float], b: tuple[float, float]) -> bool:
        return (hypot(a[0] - b[0], a[1] - b[1])
                <= match_tol * (1.0 + hypot(b[0], b[1])))

    tx, ty = checked_start(x0)
    x, y = step((tx, ty))
    total = 1
    power = 1
    lam = 1
    # the tortoise's match limit changes only when it teleports; the
    # negated test keeps a NaN distance unmatched
    lim = match_tol * (1.0 + hypot(tx, ty))
    while not (hypot(x - tx, y - ty) <= lim):
        if total >= max_steps:
            return None
        if power == lam:
            tx, ty = x, y
            lim = match_tol * (1.0 + hypot(tx, ty))
            power *= 2
            lam = 0
        if gap_of(c1, s1, c2, s2, x, y) <= tol * (1.0 + hypot(x, y)):
            x, y = branch(-0.5, c1, s1, x, y)
        else:
            x, y = branch(0.5, c2, s2, x, y)
        total += 1
        lam += 1
    if lam == 1:
        return None
    # confirm on a fresh 2*lam segment, reject constant tails (those belong
    # to the convergence criterion), then reduce to the minimal period
    seg = []
    p = (x, y)
    for _ in range(2 * lam):
        seg.append(p)
        p = step(p)

    def shift_ok(d: int) -> bool:
        return all(close(seg[i + d], seg[i]) for i in range(2 * lam - d))

    if not shift_ok(lam) or shift_ok(1):
        return None
    for d in range(2, lam):
        if lam % d == 0 and shift_ok(d):
            return d
    return lam


def _lanes(cfg: ProblemConfig, x, y) -> np.ndarray:
    """Lane array: rows x, y and the config's constants."""
    out = np.empty((8, len(x)))
    out[0], out[1], out[2:] = x, y, np.array(_constants(cfg))[:, None]
    return out


# the lane arithmetic may overflow where the scalar walk's does too: a
# point of norm near 1e200 squares to inf and lies in no ball, and a NaN
# tie band (0 * inf) is not clear of the screen
@np.errstate(over="ignore", invalid="ignore")
def _lane_step(lanes: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    """Visit each lane (rows x, y, c1, s1, c2, s2, r1^2, r2^2) as ``_walk``
    does, then step it in place through the branch its gap picks.  Returns
    whether each lane lay in p1's and in p2's termination ball and whether
    it was clear of dr._lane_branch's tie screen."""
    x, y, c1, s1, c2, s2, r1sq, r2sq = lanes
    dx1 = x + 0.5
    dx2 = x - 0.5
    yy = y * y
    in1 = dx1 * dx1 + yy < r1sq
    in2 = dx2 * dx2 + yy < r2sq  # the balls are disjoint
    lanes[0], lanes[1], clear = _lane_branch(c1, s1, c2, s2, x, y, tol)
    return in1, in2, clear


def _take(idx: np.ndarray, *arrays: np.ndarray) -> list[np.ndarray]:
    """The arrays' lanes (last axis) at the indices idx."""
    return [a.take(idx, axis=-1) for a in arrays]


def _pool(source, max_steps: int, tol: float, saved: list):
    """Run the lanes of ``source``, lane arrays whose columns are lanes 0,
    1, 2, ... in order, at most _LANE_BLOCK at a time: a lane that
    finishes makes room for the next one, so the pool stays full while the
    source lasts.  Each lane counts its own steps.  Yields (ids, codes,
    steps) for the lanes that finish at each step: code 1 or 2 for a lane
    that enters a termination ball, at simulate's step count,
    _TIE_HANDOFF for a lane at the tie screen, and _HANDOFF for a lane
    still running at its step min(max_steps, 512), the first cycle check.
    Once fewer than _LANE_FLOOR lanes are live, they all leave at their
    next visit, those outside the balls handed off, cheaper to finish one
    by one.  Each lane keeps its point at step _CHECKPOINT if max_steps >=
    512, and the _HANDOFF lanes that leave after it append (ids, those
    points (m, 2)) to ``saved``; a lane resumed from its checkpoint would
    meet a tie again, so _TIE_HANDOFF lanes keep none."""
    limit = min(max_steps, DEFAULT_CHECK_EVERY)
    resume = limit == DEFAULT_CHECK_EVERY
    chunks, buf, drawn = iter(source), np.empty((8, 0)), 0

    def draw(n):
        # the source's next n lanes and their ids, fewer once it runs dry
        nonlocal buf, drawn
        parts, have = [buf], buf.shape[1]
        while have < n and (more := next(chunks, None)) is not None:
            parts.append(more)
            have += more.shape[1]
        if len(parts) > 1:
            buf = np.concatenate(parts, axis=1)
        new, buf = buf[:, :n], buf[:, n:]
        drawn += new.shape[1]
        return np.arange(drawn - new.shape[1], drawn), new

    ids, lanes = draw(_LANE_BLOCK)
    steps = np.zeros(len(ids), dtype=np.int32)
    mid = np.empty((2, len(ids)))
    while len(ids):
        if resume:
            np.copyto(mid, lanes[:2], where=steps == _CHECKPOINT)
        in1, in2, clear = _lane_step(lanes, tol)
        gone = np.flatnonzero(~clear | in1 | in2 | (steps == limit)
                              | (len(ids) < _LANE_FLOOR))
        if len(gone):
            codes = np.full(len(gone), _HANDOFF, dtype=np.uint8)
            codes[~clear[gone]] = _TIE_HANDOFF
            codes[in1[gone]] = 1
            codes[in2[gone]] = 2
            late = gone[(codes == _HANDOFF) & (steps[gone] > _CHECKPOINT)]
            if len(late) and resume:
                saved.append((ids[late], mid[:, late].T))
            yield ids[gone], codes, steps[gone]
        steps += 1
        if len(gone):
            # fresh lanes take the finished lanes' places; once the source
            # is empty the places left over are dropped
            new_ids, new = draw(len(gone))
            fill = gone[:len(new_ids)]
            lanes[:, fill], ids[fill], steps[fill] = new, new_ids, 0
            if len(fill) < len(gone):
                lanes, ids, steps, mid = _take(
                    np.delete(np.arange(len(ids)), gone[len(fill):]), lanes,
                    ids, steps, mid)


def _lockstep(lanes: np.ndarray, max_steps: int, tol: float,
              window: int = DEFAULT_WINDOW, start: int = 0
              ) -> tuple[np.ndarray, np.ndarray]:
    """Step lanes (rows x, y, c1, s1, c2, s2, r1^2, r2^2; overwritten)
    together from step ``start`` to simulate's verdicts.  Per lane: (code,
    simulate's step count), code 1 or 2 once it enters a termination ball,
    3 for a cycle, 0 for the budget.  Each lane keeps its last ``window``
    points in a buffer that grows by one cycle check interval at a time
    (finished lanes are dropped then), and _window_cycle reads them at
    every cycle check and at the budget.  Codes _TIE_HANDOFF, for a lane
    at the tie screen, and _HANDOFF, for one at an undecided check, leave
    it to a scalar re-run from its start.  Once fewer than _LANE_FLOOR
    lanes are live, each goes on in the scalar walk from its point, step
    count and window; one that the walk returns undecided or at a tie is
    left to the scalar re-run as _HANDOFF.
    """
    n = lanes.shape[1]
    codes = np.full(n, _HANDOFF, dtype=np.uint8)
    steps = np.zeros(n, dtype=np.int32)
    live = np.arange(n)
    every = DEFAULT_CHECK_EVERY
    # hist[r, col[j]] is live lane j's point at step base + r (a copy, as
    # the lanes step in place)
    hist, col, base = lanes[:2].T[None].copy(), live, start
    for step in range(start, max_steps + 1):
        recent = hist[max(0, step + 1 - base - window):step + 1 - base]
        if len(live) < _LANE_FLOOR:
            for j, lane in enumerate(lanes.T.tolist()):
                v, _, _, used = _walk(lane[2:], lane[0], lane[1], step,
                                      array("d", recent[:, col[j]].tobytes()),
                                      None, max_steps, tol, window)
                if v is not None:
                    codes[live[j]], steps[live[j]] = _code(v), used
            break
        in1, in2, clear = _lane_step(lanes, tol)
        codes[live[in1]] = 1
        codes[live[in2]] = 2
        done = in1 | in2
        if step and (step % every == 0 or step == max_steps):
            for j in np.flatnonzero(~done).tolist():
                k = _window_cycle(recent[:, col[j]], step, window)
                if k is not None or step == max_steps:
                    codes[live[j]] = {None: 0, _UNDECIDED: _HANDOFF}.get(k, 3)
                    done[j] = True
        steps[live[done]] = step
        keep = clear & ~done
        if not keep.all():
            codes[live[~clear & ~done]] = _TIE_HANDOFF
            lanes, live, col = _take(np.flatnonzero(keep), lanes, live, col)
        if step == max_steps:
            break
        if step % every == 0 or step == start:
            kept = len(recent)
            grown = np.empty((kept + every, len(live), 2))
            np.take(recent, col, axis=1, out=grown[:kept])
            hist, col, base = grown, np.arange(len(live)), step + 1 - kept
        hist[step + 1 - base, col] = lanes[:2].T
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
              max_steps: int = 2000, seed: int = 0, tol: float = TIE_TOL,
              threads: Optional[int] = None) -> RasterGrid:
    """Verdict raster over cell centers of the bounds rectangle.

    resolution is (nx, ny); row 0 of the result sits at the top (ymax).
    Cells run through one lane pool in row-major order, at most
    _LANE_BLOCK at a time.  The cells it hands off, those still running at
    their own first cycle check, run on to their cycle or budget verdicts
    as lanes from the pool's step-256 checkpoints, else from their starts,
    the last few of a lane set in the scalar walk; only cells that meet a
    tie re-run through scalar ``simulate``, those stopped at the tie screen
    without a further lane pass.  Cell streams are keyed by
    (seed, cell_index), so the picture equals per-cell ``simulate`` calls.
    ``threads`` is accepted and ignored.  Raises ValueError for an empty
    resolution, max_steps below 1, or bounds that are not increasing or
    where a double overflows: a corner norm, or a width or height times
    the cell count that the centres' formula forms (the norm peaks at a
    corner, so every cell centre is then a start that ``simulate`` takes).
    """
    nx, ny = resolution
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
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")

    n = nx * ny
    codes = np.empty(n, dtype=np.uint8)
    steps = np.empty(n, dtype=np.int32)
    # cell centres are made _LANE_BLOCK at a time, as the pool takes them in
    chunks = (_lanes(cfg, *_cell_centres(
        bounds, resolution, np.arange(lo, min(lo + _LANE_BLOCK, n))))
              for lo in range(0, n, _LANE_BLOCK))
    for ids, c, s in _pool(chunks, max_steps, tol, saved := []):
        codes[ids], steps[ids] = c, s
    # the pool's hand-offs run on to their verdicts as lanes in sets whose
    # windows fit in _HIST_POINTS, those with a checkpoint from there first,
    # the rest, other than tie lanes, from their starts; tie lanes re-run
    # through scalar simulate
    late = np.concatenate([np.empty(0, np.intp)] + [i for i, _ in saved])
    at = np.concatenate([np.empty((0, 2))] + [p for _, p in saved])
    per_set = _HIST_POINTS // (min(max_steps + 1, DEFAULT_WINDOW)
                               + DEFAULT_CHECK_EVERY)
    for start in (_CHECKPOINT, 0):
        cell = late if start else np.flatnonzero(codes == _HANDOFF)
        xs, ys = at.T if start else _cell_centres(bounds, resolution, cell)
        for part in np.array_split(np.arange(len(cell)),
                                   max(1, -(-len(cell) // per_set))):
            codes[cell[part]], steps[cell[part]] = _lockstep(
                _lanes(cfg, xs[part], ys[part]), max_steps, tol, start=start)
    for h in np.flatnonzero(codes >= _TIE_HANDOFF).tolist():
        # SeededRandom policies are re-keyed onto per-cell streams
        tr = simulate(cfg, _cell_centres(bounds, resolution, h),
                      SeededRandom((seed, h))
                      if isinstance(policy, SeededRandom) else policy,
                      max_steps=max_steps, tol=tol, record=False)
        codes[h], steps[h] = _code(tr.verdict), tr.steps_used
    cells, steps = codes.reshape(ny, nx), steps.reshape(ny, nx)
    return RasterGrid(bounds=tuple(bounds), resolution=(nx, ny), cells=cells,
                      steps=steps, seed=seed)


def certified_budget(cfg: ProblemConfig, cert: LyapunovCertificate, x0,
                     max_steps: int) -> int:
    """Step budget that provably suffices for a certified configuration.

    V decays by gamma per step and the sandwich converts the V level of the
    termination balls into a step count; 64 slack steps absorb the float
    edges.  The returned budget is never below max_steps.
    """
    r = BALL_SAFETY * min(distance_to_D3(cfg, cfg.p1),
                          distance_to_D3(cfg, cfg.p2))
    e = 2.0 * cert.alpha + 2.0
    w2 = max(math.hypot(x0[0] - cfg.p1[0], x0[1] - cfg.p1[1]),
             math.hypot(x0[0] - cfg.p2[0], x0[1] - cfg.p2[1]))
    if w2 <= BALL_SAFETY * r:
        return max(max_steps, 64)
    need = e * (math.log(BALL_SAFETY * r) - math.log(w2)) / math.log(cert.gamma)
    return max(max_steps, int(math.ceil(need)) + 64)


def _pair_outcome(res, starts: np.ndarray, handoffs: dict, k: int,
                  max_steps: int, seed: int, tol: float) -> PairOutcome:
    """Pair k's outcome from its ``certify`` result: its handed-off starts
    (index -> point at step _CHECKPOINT or None) in order up to the first
    nonconvergent one, resumed in the walk or else re-run by ``simulate``."""
    certified = isinstance(res, LyapunovCertificate)
    worst = -1
    cfg = ProblemConfig(res.theta1, res.theta2) if handoffs else None
    for s_idx, mark in sorted(handoffs.items()):
        budget = (certified_budget(cfg, res, starts[s_idx], max_steps)
                  if certified else max_steps)
        v = mark and _walk(_constants(cfg), *mark, _CHECKPOINT,
                           array("d", mark), None, budget, tol)[0]
        if v is None:
            v = simulate(cfg, starts[s_idx], SeededRandom((seed, k, s_idx)),
                         max_steps=budget, tol=tol, record=False).verdict
        if not isinstance(v, ConvergedTo):
            worst = s_idx
            break
    return PairOutcome(
        theta1=res.theta1, theta2=res.theta2, eq26_holds=certified,
        eq26_margin=res.condition_margin, nonconvergent_found=worst >= 0,
        worst_seed=worst)


def sweep(theta_grid: Sequence[tuple[float, float]],
          samples_per_pair: int = 20, max_steps: int = 20000, seed: int = 0,
          tol: float = TIE_TOL) -> SweepGrid:
    """Probe every (theta1, theta2) pair for nonconvergent behavior.

    Each pair gets samples_per_pair starts drawn from the (seed,
    pair_index) stream, uniform over [-2, 2]^2, simulated under a
    SeededRandom tie policy on the (seed, pair_index, start_index) stream.
    Certified pairs run with the certificate-backed step budget, so a
    nonconvergent verdict there is a genuine counterexample, not a budget
    artifact.  The starts run through one lane pool in pair order, its
    hand-offs resumed from its step-256 checkpoints; a pair is certified
    and its starts drawn as the pool takes them in, and let go once all
    have left it.  Raises ValueError for samples_per_pair or max_steps < 1.
    """
    if samples_per_pair < 1:
        raise ValueError(
            f"samples_per_pair must be >= 1, got {samples_per_pair}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    samples = samples_per_pair
    # pair index -> (certify result, starts, hand-offs by start index); the
    # config is made again only for a pair with hand-offs
    pending: dict[int, tuple] = {}

    def pairs():
        for k, (t1, t2) in enumerate(theta_grid):
            cfg = ProblemConfig(float(t1), float(t2))
            starts = np.random.default_rng(np.random.SeedSequence(
                [seed, k])).uniform(-2.0, 2.0, size=(samples, 2))
            pending[k] = (certify(cfg), starts, {})
            yield _lanes(cfg, starts[:, 0], starts[:, 1])

    outcomes = [None] * len(theta_grid)
    finished = np.zeros(len(theta_grid), dtype=np.int64)
    for ids, codes, _ in _pool(pairs(), max_steps, tol, saved := []):
        marks = dict(zip(*(a.tolist() for a in saved.pop()))) if saved else {}
        k = ids // samples
        for h in ids[codes >= _TIE_HANDOFF].tolist():
            pending[h // samples][2][h % samples] = marks.get(h)
        np.add.at(finished, k, 1)
        # a set, as np.unique would import numpy.ma (0.5 MB)
        for done in set(k[finished[k] == samples].tolist()):
            outcomes[done] = _pair_outcome(*pending.pop(done), done,
                                           max_steps, seed, tol)
    return SweepGrid(pairs=tuple(outcomes), samples_per_pair=samples_per_pair,
                     seed=seed, max_steps=max_steps)


def make_theta_grid(n1: int = 40, n2: int = 40,
                    margin: float = 0.02) -> tuple[tuple[float, float], ...]:
    """Admissible (theta1, theta2) pairs covering the parameter wedge.

    theta1 runs over [margin, pi/2]; for each theta1, theta2 takes n2
    values strictly inside ]theta1, pi - margin[.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError(f"grid must be >= 1x1, got {n1}x{n2}")
    pairs = []
    for t1 in np.linspace(margin, 0.5 * math.pi, n1):
        top = math.pi - margin
        for k in range(1, n2 + 1):
            t2 = t1 + (top - t1) * k / (n2 + 1)
            pairs.append((float(t1), float(t2)))
    return tuple(pairs)
