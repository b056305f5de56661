"""The DR operator as it was written before it ran on ``dr._gap`` and
``dr._branch``: the region from ``geometry_oracle.classify_region``
(distances to the lines) and each branch from the closed form written
out.  Tests compare the library's operator, its float step and the
``iterate`` command against these, bit for bit.  ``gap_branch_steps`` is
the step loop ``dr._steps`` unrolls, written with ``dr._gap``,
``dr._branch`` and the band test on every step; the drivers' oracles
step that way one step at a time."""
import math
from array import array
from unittest import mock

import numpy as np

from drlines import cycles, dr
from drlines.dr import BALL_SAFETY, DrStep
from drlines.experiments import (Budget, ConvergedTo, Cycle, EnumerateTree,
                                 PairOutcome, SeededRandom, Trace,
                                 certified_budget)
from drlines.geometry import (TIE_TOL, ProblemConfig, Region, bisector_data,
                              checked_start, cos_sin, distance_to_D3)
from drlines.lyapunov import LyapunovCertificate, certify
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


def _balls(consts, x, y):
    """1 or 2 where (x, y) lies in that termination ball, else 0."""
    return next((code for code, a, rsq in ((1, -0.5, consts[4]),
                                           (2, 0.5, consts[5]))
                 if (x - a) * (x - a) + y * y < rsq), 0)


def gap_branch_steps(consts, x, y, n):
    """n steps through dr._gap and dr._branch, with _steps' tie and ball
    tests: (code, x, y, k, pushed coordinates)."""
    c1, s1, c2, s2 = consts[:4]
    pushed = []
    for k in range(n):
        gap = dr._gap(c1, s1, c2, s2, x, y)
        if on_tie_band(x, y, gap):
            return 0, x, y, k, pushed
        x, y = (dr._branch(-0.5, c1, s1, x, y) if gap < 0.0
                else dr._branch(0.5, c2, s2, x, y))
        pushed += [x, y]
        if code := _balls(consts, x, y):
            return code, x, y, k + 1, pushed
    return -1, x, y, n, pushed


def pool_exit_reference(consts, x, y, mark):
    """A lane's exit from ``experiments._pool``, the lane stepped alone by
    gap_branch_steps: (code, step, point) at its first visit in a ball
    (code 1 or 2), on the tie band (_TIE_HANDOFF) or at step mark
    (_HANDOFF)."""
    from drlines.experiments import _HANDOFF, _TIE_HANDOFF
    if code := _balls(consts, x, y):
        return code, 0, (x, y)
    code, x, y, k, _ = gap_branch_steps(consts, x, y, mark)
    if code > 0:
        return code, k, (x, y)
    if code == 0 or on_tie_band(x, y, dr._gap(*consts[:4], x, y)):
        return _TIE_HANDOFF, k, (x, y)
    return _HANDOFF, k, (x, y)


def tie_point(cfg):
    """The point of D3 on the x-axis, where both line distances agree."""
    s1, s2 = cos_sin(cfg.theta1)[1], cos_sin(cfg.theta2)[1]
    return (0.5 * (s2 - s1) / (s1 + s2), 0.0)


def tie_preimage(cfg, n, end=None):
    """A start whose n-th iterate is tie_point(cfg), or end: each step back
    inverts the branch whose region, well off the tie band, holds the
    preimage."""
    (c1, s1), (c2, s2) = cos_sin(cfg.theta1), cos_sin(cfg.theta2)
    x, y = tie_point(cfg) if end is None else end
    for _ in range(n):
        for a, c, s, side in ((-0.5, c1, s1, -1.0), (0.5, c2, s2, 1.0)):
            p, q = (x - a) / c, y / c
            px, py = a + c * p - s * q, s * p + c * q
            gap = dr._gap(c1, s1, c2, s2, px, py)
            if side * gap > 1e-6 * (1.0 + math.hypot(px, py)):
                x, y = px, py
                break
        else:
            raise ValueError("no preimage off the tie band")
    return x, y


def detect_cycle_scan(w, match_tol=1e-8):
    """The period detector as a scan over K: the smallest K > 1 whose last
    2K points of the (m, 2) window w match pairwise within match_tol (1 +
    |earlier point|), or None, also for a constant tail (K = 1)."""
    w = np.asarray(w, dtype=float).reshape(-1, 2)
    m, p = len(w), w.tolist()

    def pair_ok(later, earlier):
        (x1, y1), (x0, y0) = p[later], p[earlier]
        return math.hypot(x1 - x0, y1 - y0) <= match_tol * (
            1.0 + math.hypot(x0, y0))

    if m < 2 or pair_ok(m - 1, m - 2):
        return None
    for k in range(2, m // 2 + 1):
        if not pair_ok(m - 1, m - 1 - k):
            continue
        a, b = w[m - k:], w[m - 2 * k:m - k]
        with np.errstate(over="ignore", invalid="ignore"):
            gaps = np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1])
            lims = match_tol * (1.0 + np.hypot(b[:, 0], b[:, 1]))
        if np.all(gaps <= lims):
            return k
    return None


def constants(cfg):
    """(c1, s1, c2, s2, r1^2, r2^2): the lines' directions and the squared
    radii BALL_SAFETY d(p_i, D3) of the termination balls."""
    r1, r2 = (BALL_SAFETY * float(distance_to_D3(cfg, p))
              for p in (cfg.p1, cfg.p2))
    return (*cos_sin(cfg.theta1), *cos_sin(cfg.theta2), r1 * r1, r2 * r2)


def simulate_tree_reference(cfg, x0, policy, max_steps, record=True,
                            window=4096, check_every=512,
                            detect=detect_cycle_scan):
    """simulate_tree as a loop that tests the balls, the check schedule
    (a step that is a multiple of check_every, or the budget), the budget
    and the tie band on every step, and runs ``detect`` on the last
    ``window`` points at each check."""
    start = checked_start(x0)
    consts = constants(cfg)
    c1, s1, c2, s2 = consts[:4]
    max_leaves = policy.max_leaves if isinstance(policy, EnumerateTree) else 1
    rng = (np.random.default_rng(np.random.SeedSequence(policy.seed))
           if isinstance(policy, SeededRandom) else None)
    leaves = []
    # each leaf's points, as a flat x, y buffer
    stack = [(*start, 0, array("d", start))]
    committed = 1
    while stack:
        x, y, steps, flat = stack.pop()
        while True:
            if ball := _balls(consts, x, y):
                verdict = ConvergedTo(ball)
                break
            if steps >= max_steps or (steps and steps % check_every == 0):
                k = detect(np.frombuffer(flat)[
                    max(0, len(flat) - 2 * window):].reshape(-1, 2))
                if k is not None or steps >= max_steps:
                    verdict = Budget() if k is None else Cycle(k)
                    break
            gap = dr._gap(c1, s1, c2, s2, x, y)
            first = gap < 0.0
            if on_tie_band(x, y, gap):
                first = True
                if committed < max_leaves:
                    committed += 1
                    bp = dr._branch(0.5, c2, s2, x, y)
                    stack.append((*bp, steps + 1, flat + array("d", bp)))
                elif rng is not None:
                    first = bool(rng.integers(0, 2) == 0)
            x, y = (dr._branch(-0.5, c1, s1, x, y) if first
                    else dr._branch(0.5, c2, s2, x, y))
            steps += 1
            flat.extend((x, y))
        points = tuple(zip(flat[::2], flat[1::2])) if record else ((x, y),)
        leaves.append(Trace(start=start, points=points, verdict=verdict,
                            steps_used=steps))
    return tuple(leaves)


def worst_leaf(leaves):
    """simulate's pick among the leaves: Budget over Cycle over
    ConvergedTo, the first of its kind."""
    rank = {Budget: 2, Cycle: 1, ConvergedTo: 0}
    return max(leaves, key=lambda t: rank[type(t.verdict)])


def simulate_reference(cfg, x0, policy, max_steps, record=True, window=4096,
                       check_every=512):
    """simulate: the worst leaf of simulate_tree_reference."""
    return worst_leaf(simulate_tree_reference(cfg, x0, policy, max_steps,
                                              record, window, check_every))


def verdict_code(v):
    """A verdict's raster code: 0 Budget, 1 or 2 the ball, 3 Cycle."""
    return (v.target if isinstance(v, ConvergedTo)
            else 3 if isinstance(v, Cycle) else 0)


def raster_reference(cfg, bounds, resolution, policy, seed, max_steps,
                     run=simulate_reference):
    """(cells, steps) of the raster: run (simulate's signature) at each
    cell centre, a SeededRandom policy keyed by (seed, cell index)."""
    nx, ny = resolution
    xmin, xmax, ymin, ymax = bounds
    cells = np.zeros((ny, nx), dtype=np.uint8)
    steps = np.zeros((ny, nx), dtype=np.int32)
    for j in range(ny):
        yc = ymax - (j + 0.5) * (ymax - ymin) / ny
        for i in range(nx):
            xc = xmin + (i + 0.5) * (xmax - xmin) / nx
            tr = run(cfg, (xc, yc), SeededRandom((seed, j * nx + i))
                     if isinstance(policy, SeededRandom) else policy,
                     max_steps, False)
            cells[j, i], steps[j, i] = verdict_code(tr.verdict), tr.steps_used
    return cells, steps


def sweep_reference(pairs, samples, max_steps, seed, starts=None,
                    run=simulate_reference):
    """The sweep's outcomes: run (simulate's signature) per start, in start
    order, up to the first that does not converge, with the certified
    budget on certified pairs; the starts are each pair's (seed, pair)
    draws, or ``starts`` for every pair."""
    out = []
    for k, (t1, t2) in enumerate(pairs):
        cfg = ProblemConfig(t1, t2)
        res = certify(cfg)
        certified = isinstance(res, LyapunovCertificate)
        xs = (np.random.default_rng(np.random.SeedSequence([seed, k])).uniform(
            -2.0, 2.0, size=(samples, 2)) if starts is None else starts)
        worst = -1
        for i, x0 in enumerate(xs):
            budget = (certified_budget(cfg, res, x0, max_steps) if certified
                      else max_steps)
            tr = run(cfg, x0, SeededRandom((seed, k, i)), budget, False)
            if not isinstance(tr.verdict, ConvergedTo):
                worst = i
                break
        out.append(PairOutcome(
            theta1=cfg.theta1, theta2=cfg.theta2, eq26_holds=certified,
            eq26_margin=res.condition_margin, nonconvergent_found=worst >= 0,
            worst_seed=worst))
    return tuple(out)


def planted_starts(x0, samples, seed):
    """A patch of np.random.default_rng that makes a sweep's (seed, pair)
    starts x0, and leaves the coins' (seed, pair, start) streams alone."""
    rng = np.random.default_rng

    def starts(key=None):
        if (isinstance(key, np.random.SeedSequence)
                and len(key.entropy) == 2 and key.entropy[0] == seed):
            return mock.Mock(uniform=lambda *args, size: np.tile(
                x0, (samples, 1)))
        return rng(key)

    return mock.patch.object(np.random, "default_rng", starts)


def proven_walk_reference(consts, x, y, steps, max_steps, coins, span=16):
    """The window-free walk one step at a time: (verdict, x, y, steps).
    The reference point r is the start, the point after a tie (the next
    coin's branch, A1 for True), and the point span, 2 span, ... steps
    after either.  A point within 1e-3 (1 + |r|_1) of r, K >= 2 steps
    after it and out of the balls, tries the proof on the K + 1 points
    from r while r's tries cost at most its span; one that holds ends the
    walk."""
    c1, s1, c2, s2 = consts[:4]
    ball, first_span = _balls(consts, x, y), span
    pts, ref, spent = [(x, y)], steps, 0
    while not ball and steps < max_steps:
        gap = dr._gap(c1, s1, c2, s2, x, y)
        tie = on_tie_band(x, y, gap)
        a1 = next(coins) if tie else gap < 0.0
        x, y = (dr._branch(-0.5, c1, s1, x, y) if a1
                else dr._branch(0.5, c2, s2, x, y))
        steps += 1
        ball = _balls(consts, x, y)
        if tie:
            pts, ref, span, spent = [(x, y)], steps, first_span, 0
            continue
        pts.append((x, y))
        (rx, ry), lag = pts[0], steps - ref
        if (not ball and lag >= 2 and spent + lag <= span and max(
                abs(x - rx), abs(y - ry)) <= 1e-3 * (1.0 + abs(rx) + abs(ry))):
            spent += lag
            proof = cycles._prove_cycle(consts, np.array(pts))
            if proof is not None:
                return Cycle(cycles._root(proof[0])), x, y, steps
        if not ball and steps == ref + span:
            pts, ref, span, spent = [(x, y)], steps, 2 * span, 0
    return (ConvergedTo(ball) if ball else Budget()), x, y, steps
