"""Trace simulation, cycle detection, basin rasters, and parameter sweeps.

A trajectory terminates as soon as it enters one of the open balls
B(p_i, 0.99 * d(p_i, D3)): each ball lies in its own strict region, so from
inside the iteration contracts toward p_i at rate cos^2(theta_i) and never
leaves.  Everything else is bookkeeping around that criterion: branch
policies resolving ties on D3, a sliding-window period detector, and the
two grid drivers (basin raster over starting points, sweep over angle
pairs).  Grid cells are independent work items; every cell derives its PRNG
stream from the root seed and its own index, so results do not depend on
how work is scheduled.  The grid drivers step cells together as NumPy
lanes, handing what lanes cannot settle exactly to scalar ``simulate``.
"""
from __future__ import annotations

import functools
import math
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .geometry import TIE_TOL, ProblemConfig, cos_sin, distance_to_D3
from .lyapunov import LyapunovCertificate, certify

DEFAULT_WINDOW = 4096
DEFAULT_MATCH_TOL = 1e-8
DEFAULT_CHECK_EVERY = 512
BALL_SAFETY = 0.99
# lanes per _lockstep block, and the live-lane count below which the rest
# of a block is finished by scalar re-runs
_LANE_BLOCK = 4096
_LANE_FLOOR = 32


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
    w = np.asarray(points_window, dtype=float)
    m = len(w)
    if m < 2:
        return None

    def pair_ok(later: int, earlier: int) -> bool:
        dx = w[later, 0] - w[earlier, 0]
        dy = w[later, 1] - w[earlier, 1]
        lim = match_tol * (1.0 + math.hypot(w[earlier, 0], w[earlier, 1]))
        return math.hypot(dx, dy) <= lim

    if pair_ok(m - 1, m - 2):
        return None
    # a vectorised pass keeps the K whose last pair may match (the slack
    # covers np.hypot rounding unlike math.hypot); pair_ok decides exactly
    ks = np.arange(2, m // 2 + 1)
    e = w[m - 1 - ks]
    near = (np.hypot(w[m - 1, 0] - e[:, 0], w[m - 1, 1] - e[:, 1])
            <= match_tol * (1.0 + np.hypot(e[:, 0], e[:, 1])) * (1.0 + 1e-12))
    for k in ks[near].tolist():
        if not pair_ok(m - 1, m - 1 - k):
            continue
        a = w[m - k:]
        b = w[m - 2 * k:m - k]
        gaps = np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1])
        lims = match_tol * (1.0 + np.hypot(b[:, 0], b[:, 1]))
        if np.all(gaps <= lims):
            return k
    return None


def _constants(cfg: ProblemConfig) -> tuple[float, ...]:
    """Per-config step constants (c1, s1, c2, s2, r1^2, r2^2): the line
    directions and the squared termination-ball radii."""
    c1, s1 = cos_sin(cfg.theta1)
    c2, s2 = cos_sin(cfg.theta2)
    r1 = BALL_SAFETY * distance_to_D3(cfg, cfg.p1)
    r2 = BALL_SAFETY * distance_to_D3(cfg, cfg.p2)
    return c1, s1, c2, s2, r1 * r1, r2 * r2


# The step formula, written once for floats and NumPy lanes alike: the
# lane driver must reproduce the scalar iterates bit for bit, so both run
# exactly these expressions in this order.
def _gap(c1, s1, c2, s2, x, y):
    """d(x, A1) - d(x, A2): the step goes through A1 when negative."""
    return abs(s1 * (x + 0.5) - c1 * y) - abs(s2 * (x - 0.5) - c2 * y)


def _branch(a, c, s, x, y):
    """The DR step through the line anchored at (a, 0) with direction
    (c, s): a = -0.5 with A1's constants, a = 0.5 with A2's."""
    dx = x - a
    return a + c * (c * dx + s * y), c * (-s * dx + c * y)


def _branch_values(cfg: ProblemConfig, x: float,
                   y: float) -> tuple[tuple[float, float], ...]:
    """``dr_multivalued(cfg, (x, y)).outputs`` bit for bit, on plain floats:
    one branch value off the tie band, both (A1 first) on it."""
    c1, s1 = cos_sin(cfg.theta1)
    c2, s2 = cos_sin(cfg.theta2)
    gap = _gap(c1, s1, c2, s2, x, y)
    if abs(gap) <= TIE_TOL * (1.0 + math.hypot(x, y)):
        outs = (_branch(-0.5, c1, s1, x, y), _branch(0.5, c2, s2, x, y))
    elif gap < 0.0:
        outs = (_branch(-0.5, c1, s1, x, y),)
    else:
        outs = (_branch(0.5, c2, s2, x, y),)
    # dr_two_lines adds the anchor's y of 0.0, which turns -0.0 into 0.0
    return tuple((bx, by + 0.0) for bx, by in outs)


def _finite_start(x0) -> tuple[float, float]:
    x, y = float(x0[0]), float(x0[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"start ({x}, {y}) is not finite")
    return x, y


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
    Raises ValueError for a non-finite start.
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
    meet none.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    start = _finite_start(x0)
    c1, s1, c2, s2, r1sq, r2sq = _constants(cfg)
    max_leaves = policy.max_leaves if isinstance(policy, EnumerateTree) else 1
    rng = None
    leaves: list[Trace] = []
    # stack entries: (x, y, steps, points, window); A1 continuations are
    # pushed last so they pop first
    stack = [(start[0], start[1], 0, [start], deque([start], maxlen=window))]
    committed = 1
    while stack:
        x, y, steps, pts, win = stack.pop()
        while True:
            dx1 = x + 0.5
            dx2 = x - 0.5
            if dx1 * dx1 + y * y < r1sq:
                verdict: Verdict = ConvergedTo(1)
                break
            if dx2 * dx2 + y * y < r2sq:
                verdict = ConvergedTo(2)
                break
            if steps and steps % check_every == 0:
                k = detect_cycle(win, match_tol)
                if k is not None:
                    verdict = Cycle(k)
                    break
            if steps >= max_steps:
                k = detect_cycle(win, match_tol)
                verdict = Cycle(k) if k is not None else Budget()
                break
            gap = _gap(c1, s1, c2, s2, x, y)
            first = gap < 0.0
            if abs(gap) <= tol * (1.0 + math.hypot(x, y)):
                first = True
                if committed < max_leaves:
                    committed += 1
                    bp = _branch(0.5, c2, s2, x, y)
                    bw = deque(win, maxlen=window)
                    bw.append(bp)
                    stack.append((bp[0], bp[1], steps + 1,
                                  pts + [bp] if record else [bp], bw))
                elif isinstance(policy, SeededRandom):
                    if rng is None:
                        rng = np.random.default_rng(
                            np.random.SeedSequence(policy.seed))
                    first = bool(rng.integers(0, 2) == 0)
            if first:
                x, y = _branch(-0.5, c1, s1, x, y)
            else:
                x, y = _branch(0.5, c2, s2, x, y)
            steps += 1
            p = (x, y)
            if record:
                pts.append(p)
            win.append(p)
        leaves.append(Trace(start=start,
                            points=tuple(pts) if record else ((x, y),),
                            verdict=verdict, steps_used=steps))
    return tuple(leaves)


def find_period_brent(cfg: ProblemConfig, x0, max_steps: int = 200000,
                      match_tol: float = DEFAULT_MATCH_TOL,
                      tol: float = TIE_TOL) -> Optional[int]:
    """Low-memory period search along the deterministic first-branch orbit.

    Brent's teleporting-tortoise scheme with tolerance-based equality: the
    reference point jumps forward at powers of two, which also rides out
    the transient toward the limit cycle.  The meeting distance is then
    reduced to the minimal period by divisor checks.  Returns None when no
    recurrence is found within max_steps; raises ValueError for a
    non-finite start.
    """
    c1, s1, c2, s2, _, _ = _constants(cfg)

    def step(p: tuple[float, float]) -> tuple[float, float]:
        # FirstBranch: ties go through A1, so A1 whenever gap <= the band
        x, y = p
        if _gap(c1, s1, c2, s2, x, y) <= tol * (1.0 + math.hypot(x, y)):
            return _branch(-0.5, c1, s1, x, y)
        return _branch(0.5, c2, s2, x, y)

    def close(a: tuple[float, float], b: tuple[float, float]) -> bool:
        return (math.hypot(a[0] - b[0], a[1] - b[1])
                <= match_tol * (1.0 + math.hypot(b[0], b[1])))

    tortoise = _finite_start(x0)
    hare = step(tortoise)
    total = 1
    power = 1
    lam = 1
    while not close(hare, tortoise):
        if total >= max_steps:
            return None
        if power == lam:
            tortoise = hare
            power *= 2
            lam = 0
        hare = step(hare)
        total += 1
        lam += 1
    if lam == 1:
        return None
    # confirm on a fresh 2*lam segment, reject constant tails (those belong
    # to the convergence criterion), then reduce to the minimal period
    seg = []
    p = hare
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
    """Lane array for _lockstep: rows x, y and the config's constants."""
    consts = np.array(_constants(cfg))[:, None]
    return np.vstack([x, y, np.repeat(consts, len(x), axis=1)])


def _lockstep(lanes: np.ndarray, max_steps: int, tol: float
              ) -> tuple[np.ndarray, np.ndarray]:
    """Step lanes (rows x, y, c1, s1, c2, s2, r1^2, r2^2; overwritten)
    together.  Per lane: (1 or 2, simulate's step count) once it enters a
    termination ball; code 0 hands it to a scalar re-run from its start
    when it reaches the first cycle check or the budget, comes within twice
    the tie band (tie policies; np.hypot may round unlike math.hypot), or
    is among the last few live lanes, cheaper to finish one by one.
    """
    n = lanes.shape[1]
    codes = np.zeros(n, dtype=np.uint8)
    steps = np.zeros(n, dtype=np.int32)
    live = np.arange(n)
    limit = min(max_steps, DEFAULT_CHECK_EVERY)
    for step in range(limit + 1):
        x, y, c1, s1, c2, s2, r1sq, r2sq = lanes
        dx1 = x + 0.5
        dx2 = x - 0.5
        in1 = dx1 * dx1 + y * y < r1sq
        in2 = dx2 * dx2 + y * y < r2sq  # the balls are disjoint
        codes[live[in1]] = 1
        codes[live[in2]] = 2
        steps[live[in1 | in2]] = step
        gap = _gap(c1, s1, c2, s2, x, y)
        keep = ~(in1 | in2 | (abs(gap) <= 2.0 * tol * (1.0 + np.hypot(x, y))))
        if not keep.all():
            lanes, live, gap = lanes[:, keep], live[keep], gap[keep]
            x, y, c1, s1, c2, s2 = lanes[:6]
        if step == limit or len(live) < _LANE_FLOOR:
            break
        first = gap < 0.0
        lanes[0], lanes[1] = _branch(np.where(first, -0.5, 0.5),
                                     np.where(first, c1, c2),
                                     np.where(first, s1, s2), x, y)
    return codes, steps


def _raster_block(cfg: ProblemConfig,
                  bounds: tuple[float, float, float, float],
                  resolution: tuple[int, int], policy: BranchPolicy,
                  seed: int, max_steps: int, tol: float, lo: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    nx, ny = resolution
    xmin, xmax, ymin, ymax = bounds
    cell = np.arange(lo, min(lo + _LANE_BLOCK, nx * ny))
    j, i = np.divmod(cell, nx)
    xc = xmin + (i + 0.5) * (xmax - xmin) / nx
    yc = ymax - (j + 0.5) * (ymax - ymin) / ny
    codes, nsteps = _lockstep(_lanes(cfg, xc, yc), max_steps, tol)
    for h in np.flatnonzero(codes == 0).tolist():
        # SeededRandom policies are re-keyed onto per-cell streams
        tr = simulate(cfg, (xc[h], yc[h]),
                      SeededRandom((seed, lo + h))
                      if isinstance(policy, SeededRandom) else policy,
                      max_steps=max_steps, tol=tol, record=False)
        v = tr.verdict
        codes[h] = v.target if isinstance(v, ConvergedTo) else (
            3 if isinstance(v, Cycle) else 0)
        nsteps[h] = tr.steps_used
    return codes, nsteps


def _map_blocks(work, blocks: Sequence, threads: Optional[int]) -> list:
    """work over blocks, in order; threads > 1 spreads the blocks over
    worker processes."""
    workers = threads if threads is not None else (os.cpu_count() or 1)
    if workers > 1 and len(blocks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(work, blocks))
    return [work(b) for b in blocks]


def rasterize(cfg: ProblemConfig, bounds: tuple[float, float, float, float],
              resolution: tuple[int, int], policy: BranchPolicy = FirstBranch(),
              max_steps: int = 2000, seed: int = 0, tol: float = TIE_TOL,
              threads: Optional[int] = 1) -> RasterGrid:
    """Verdict raster over cell centers of the bounds rectangle.

    resolution is (nx, ny); row 0 of the result sits at the top (ymax).
    Cells (row-major) run through the lockstep driver in fixed blocks;
    threads > 1 distributes the blocks over worker processes.  Cell
    streams are keyed by (seed, cell_index), so the picture equals
    per-cell ``simulate`` calls at any thread count.
    """
    nx, ny = resolution
    if nx < 1 or ny < 1:
        raise ValueError(f"resolution must be >= 1x1, got {nx}x{ny}")
    xmin, xmax, ymin, ymax = bounds
    if not (xmin < xmax and ymin < ymax
            and all(math.isfinite(b) for b in bounds)):
        raise ValueError(f"degenerate bounds {bounds}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    work = functools.partial(_raster_block, cfg, bounds, resolution, policy,
                             seed, max_steps, tol)
    blocks = _map_blocks(work, range(0, nx * ny, _LANE_BLOCK), threads)
    cells, steps = (np.concatenate(a).reshape(ny, nx) for a in zip(*blocks))
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


def _sweep_block(samples: int, max_steps: int, seed: int, tol: float,
                 items: list) -> list[PairOutcome]:
    pairs = []
    for k, t1, t2 in items:
        cfg = ProblemConfig(t1, t2)
        starts = np.random.default_rng(np.random.SeedSequence(
            [seed, k])).uniform(-2.0, 2.0, size=(samples, 2))
        pairs.append((k, cfg, certify(cfg), starts))
    codes, _ = _lockstep(np.concatenate(
        [_lanes(cfg, st[:, 0], st[:, 1]) for _, cfg, _, st in pairs], axis=1),
        max_steps, tol)
    outcomes = []
    for (k, cfg, res, starts), pair_codes in zip(pairs,
                                                  codes.reshape(-1, samples)):
        certified = isinstance(res, LyapunovCertificate)
        worst = -1
        for s_idx in np.flatnonzero(pair_codes == 0).tolist():
            budget = (certified_budget(cfg, res, starts[s_idx], max_steps)
                      if certified else max_steps)
            tr = simulate(cfg, starts[s_idx], SeededRandom((seed, k, s_idx)),
                          max_steps=budget, tol=tol, record=False)
            if not isinstance(tr.verdict, ConvergedTo):
                worst = s_idx
                break
        outcomes.append(PairOutcome(
            theta1=cfg.theta1, theta2=cfg.theta2, eq26_holds=certified,
            eq26_margin=res.condition_margin, nonconvergent_found=worst >= 0,
            worst_seed=worst))
    return outcomes


def sweep(theta_grid: Sequence[tuple[float, float]],
          samples_per_pair: int = 20, max_steps: int = 20000, seed: int = 0,
          tol: float = TIE_TOL, threads: Optional[int] = 1) -> SweepGrid:
    """Probe every (theta1, theta2) pair for nonconvergent behavior.

    Each pair gets samples_per_pair starts drawn up front from the
    (seed, pair_index) stream, uniform over [-2, 2]^2, simulated under a
    SeededRandom tie policy on the (seed, pair_index, start_index) stream.
    Certified pairs run with the certificate-backed step budget, so a
    nonconvergent verdict there is a genuine counterexample, not a budget
    artifact.  Consecutive pairs' starts run through the lockstep driver in
    blocks; threads > 1 distributes the blocks over worker processes.
    """
    if samples_per_pair < 1:
        raise ValueError(
            f"samples_per_pair must be >= 1, got {samples_per_pair}")
    items = [(k, float(t1), float(t2))
             for k, (t1, t2) in enumerate(theta_grid)]
    per_block = max(1, _LANE_BLOCK // samples_per_pair)
    work = functools.partial(_sweep_block, samples_per_pair, max_steps, seed,
                             tol)
    blocks = [items[i:i + per_block] for i in range(0, len(items), per_block)]
    outcomes = [o for block in _map_blocks(work, blocks, threads)
                for o in block]
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
