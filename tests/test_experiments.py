"""Simulation verdicts, cycle detection, raster and sweep drivers."""
import math

import numpy as np
import pytest

from drlines.dr import dr_multivalued
from drlines.geometry import ProblemConfig, Region, classify_region, cos_sin, distance_to_D3
from drlines.lyapunov import LyapunovCertificate, certify, v_local
from drlines.experiments import (
    Budget,
    ConvergedTo,
    Cycle,
    EnumerateTree,
    FirstBranch,
    PairOutcome,
    SeededRandom,
    certified_budget,
    detect_cycle,
    find_period_brent,
    make_theta_grid,
    rasterize,
    simulate,
    simulate_tree,
    sweep,
)

FIG_CFG = ProblemConfig(math.pi / 3, 2 * math.pi / 5)
PERIOD2_CFG = ProblemConfig(0.748491, 0.772301)
PERIOD58_CFG = ProblemConfig(0.082719, 2.064601)
PERIOD1410_CFG = ProblemConfig(0.703469, 3.138852)


def tie_point(cfg):
    # on the axis both line distances agree at this abscissa
    _, s1 = cos_sin(cfg.theta1)
    _, s2 = cos_sin(cfg.theta2)
    return (0.5 * (s2 - s1) / (s1 + s2), 0.0)


def test_detect_cycle_constant_tail_is_not_a_cycle():
    assert detect_cycle([(1.0, 1.0)] * 100) is None
    assert detect_cycle([(0.5, -0.25)] * 3) is None


def test_detect_cycle_small_periods():
    assert detect_cycle([(0.0, 0.0), (1.0, 0.0)] * 50) == 2
    a, b, c = (0.1, 0.2), (-0.4, 0.3), (0.7, -0.1)
    assert detect_cycle([a, b, c] * 40) == 3
    six = [(math.cos(k), math.sin(k)) for k in range(6)]
    assert detect_cycle(six * 30) == 6


def test_detect_cycle_needs_two_full_periods():
    ten = [(float(k), 0.0) for k in range(10)]
    assert detect_cycle(ten + ten[:5]) is None
    assert detect_cycle(ten * 2) == 10


def test_detect_cycle_tolerance_is_relative():
    rng = np.random.default_rng(5)
    base = [(0.0, 0.0), (1.0, 0.0)] * 40
    loud = [(x + rng.normal() * 1e-5, y) for x, y in base]
    assert detect_cycle(loud) is None
    quiet = [(x + rng.normal() * 1e-11, y) for x, y in base]
    assert detect_cycle(quiet) == 2
    big = [(1e6, 0.0), (1e6 + 1.0, 0.0)] * 40
    noisy_big = [(x + rng.normal() * 1e-4, y) for x, y in big]
    assert detect_cycle(noisy_big) == 2


def test_simulate_attractor_start_is_zero_steps():
    tr = simulate(FIG_CFG, FIG_CFG.p1)
    assert tr.verdict == ConvergedTo(1)
    assert tr.steps_used == 0
    assert tr.points == (FIG_CFG.p1,)
    assert simulate(FIG_CFG, FIG_CFG.p2).verdict == ConvergedTo(2)


def test_simulate_certified_config_converges():
    tr = simulate(FIG_CFG, (0.1, 0.2))
    assert isinstance(tr.verdict, ConvergedTo)
    i = tr.verdict.target
    p = FIG_CFG.p1 if i == 1 else FIG_CFG.p2
    last = tr.points[-1]
    assert math.hypot(last[0] - p[0], last[1] - p[1]) < \
        0.99 * distance_to_D3(FIG_CFG, p)
    assert len(tr.points) == tr.steps_used + 1


def test_simulate_first_step_matches_operator():
    rng = np.random.default_rng(61)
    n_checked = 0
    while n_checked < 200:
        x0 = tuple(rng.uniform(-5, 5, size=2))
        tr = simulate(FIG_CFG, x0, max_steps=1)
        if tr.steps_used == 0:
            continue
        want = dr_multivalued(FIG_CFG, x0).outputs[0]
        assert tr.points[1] == want
        n_checked += 1


def test_simulate_record_false_keeps_last_point():
    full = simulate(FIG_CFG, (1.7, -2.4))
    lean = simulate(FIG_CFG, (1.7, -2.4), record=False)
    assert lean.verdict == full.verdict
    assert lean.steps_used == full.steps_used
    assert lean.points == (full.points[-1],)


def test_simulate_detects_known_orbits():
    tr = simulate(PERIOD2_CFG, (0.101912, 0.189275))
    assert tr.verdict == Cycle(2)
    assert tr.steps_used == 512
    tr = simulate(PERIOD58_CFG, (-0.123641, -0.510395))
    assert tr.verdict == Cycle(58)
    assert tr.steps_used == 512


def test_simulate_budget_verdict():
    tr = simulate(PERIOD2_CFG, (0.101912, 0.189275), max_steps=5)
    assert tr.verdict == Budget()
    assert tr.steps_used == 5
    with pytest.raises(ValueError):
        simulate(FIG_CFG, (0.0, 0.0), max_steps=0)


def test_seeded_random_policy_reproducible_and_branching():
    xt = tie_point(FIG_CFG)
    first = simulate(FIG_CFG, xt)
    assert first.points[1] == dr_multivalued(FIG_CFG, xt).outputs[0]
    a = simulate(FIG_CFG, xt, SeededRandom((1, 2, 3)))
    b = simulate(FIG_CFG, xt, SeededRandom((1, 2, 3)))
    assert a == b
    other = simulate(FIG_CFG, xt, SeededRandom(0))
    assert other.points[1] == dr_multivalued(FIG_CFG, xt).outputs[1]


def test_simulate_tree_splits_at_ties():
    xt = tie_point(FIG_CFG)
    leaves = simulate_tree(FIG_CFG, xt, EnumerateTree(8))
    assert len(leaves) == 2
    assert all(isinstance(t.verdict, ConvergedTo) for t in leaves)
    assert leaves[0].points[1] == dr_multivalued(FIG_CFG, xt).outputs[0]
    assert leaves[1].points[1] == dr_multivalued(FIG_CFG, xt).outputs[1]


def test_simulate_tree_cap_one_is_first_branch():
    xt = tie_point(FIG_CFG)
    leaves = simulate_tree(FIG_CFG, xt, EnumerateTree(1))
    assert len(leaves) == 1
    assert leaves[0] == simulate(FIG_CFG, xt)
    generic = simulate_tree(FIG_CFG, (0.3, 1.1), EnumerateTree(16))
    assert len(generic) == 1
    assert generic[0] == simulate(FIG_CFG, (0.3, 1.1))


def test_enumerate_tree_policy_under_simulate():
    with pytest.raises(ValueError):
        EnumerateTree(0)
    xt = tie_point(FIG_CFG)
    worst = simulate(FIG_CFG, xt, EnumerateTree(8))
    assert isinstance(worst.verdict, ConvergedTo)


def test_termination_balls_are_invariant():
    # an interior point of either ball stays inside and its V_i contracts
    # at exactly cos^2 theta_i in one step
    rng = np.random.default_rng(67)
    for i, p, theta in ((1, FIG_CFG.p1, FIG_CFG.theta1),
                        (2, FIG_CFG.p2, FIG_CFG.theta2)):
        r = distance_to_D3(FIG_CFG, p)
        rate = math.cos(theta) ** 2
        want = Region.D1 if i == 1 else Region.D2
        for _ in range(10000):
            ang = rng.uniform(0, 2 * math.pi)
            rad = 0.999 * r * math.sqrt(rng.random())
            x = (p[0] + rad * math.cos(ang), p[1] + rad * math.sin(ang))
            step = dr_multivalued(FIG_CFG, x)
            assert step.region is want
            y = step.outputs[0]
            vy, vx = v_local(FIG_CFG, i, y), v_local(FIG_CFG, i, x)
            assert abs(vy - rate * vx) <= 1e-12 * (1.0 + vx)
            assert math.hypot(y[0] - p[0], y[1] - p[1]) <= rad


def test_certified_budget_is_sufficient():
    cert = certify(FIG_CFG)
    rng = np.random.default_rng(71)
    for _ in range(200):
        x0 = rng.uniform(-10, 10, size=2)
        budget = certified_budget(FIG_CFG, cert, x0, 1)
        tr = simulate(FIG_CFG, x0, max_steps=budget, record=False)
        assert isinstance(tr.verdict, ConvergedTo)
        assert tr.steps_used <= budget
    # from p1 itself, omega2 = |p1 - p2| = 1 drives the bound
    assert certified_budget(FIG_CFG, cert, FIG_CFG.p1, 1) == 72
    assert certified_budget(FIG_CFG, cert, (9.0, 9.0), 20000) == 20000


def test_brent_period_search():
    assert find_period_brent(PERIOD2_CFG, (0.101912, 0.189275)) == 2
    assert find_period_brent(PERIOD58_CFG, (-0.123641, -0.510395)) == 58
    assert find_period_brent(FIG_CFG, (1.3, 2.2), max_steps=30000) is None
    assert find_period_brent(PERIOD2_CFG, (0.101912, 0.189275),
                             max_steps=3) is None


def test_raster_smoke_and_orientation():
    grid = rasterize(FIG_CFG, (-3, 3, -3, 3), (20, 20), seed=0)
    assert grid.cells.shape == (20, 20)
    assert set(np.unique(grid.cells)) == {1, 2}
    # cell (0, 0) is the top-left center
    tl = simulate(FIG_CFG, (-3 + 0.5 * 0.3, 3 - 0.5 * 0.3), record=False)
    assert grid.cells[0, 0] == tl.verdict.target
    assert grid.steps[0, 0] == tl.steps_used


def test_raster_is_deterministic_and_thread_invariant():
    a = rasterize(FIG_CFG, (-3, 3, -3, 3), (16, 12), policy=SeededRandom(),
                  seed=9, threads=1)
    b = rasterize(FIG_CFG, (-3, 3, -3, 3), (16, 12), policy=SeededRandom(),
                  seed=9, threads=1)
    c = rasterize(FIG_CFG, (-3, 3, -3, 3), (16, 12), policy=SeededRandom(),
                  seed=9, threads=2)
    assert np.array_equal(a.cells, b.cells) and np.array_equal(a.steps, b.steps)
    assert np.array_equal(a.cells, c.cells) and np.array_equal(a.steps, c.steps)
    assert a.resolution == (16, 12)


def test_raster_sees_cycle_cells():
    grid = rasterize(PERIOD2_CFG, (-1, 1, -1, 1), (12, 12), max_steps=4000,
                     seed=0)
    assert 3 in grid.cells


def test_raster_validation():
    with pytest.raises(ValueError):
        rasterize(FIG_CFG, (-3, 3, -3, 3), (0, 5))
    with pytest.raises(ValueError):
        rasterize(FIG_CFG, (3, -3, -3, 3), (5, 5))


def test_sweep_flags_the_known_nonconvergent_pairs():
    pairs = [(0.748491, 0.772301), (0.082719, 2.064601), (0.703469, 3.138852)]
    sg = sweep(pairs, samples_per_pair=20, max_steps=20000, seed=2)
    assert [p.nonconvergent_found for p in sg.pairs] == [True, True, True]
    assert [p.eq26_holds for p in sg.pairs] == [False, False, False]
    assert [p.worst_seed for p in sg.pairs] == [13, 14, 2]
    assert all(p.eq26_margin < 0 for p in sg.pairs)


def test_sweep_certified_pair_converges_even_with_tiny_budget():
    sg = sweep([(math.pi / 3, 2 * math.pi / 5)], samples_per_pair=20,
               max_steps=5, seed=0)
    out = sg.pairs[0]
    assert out.eq26_holds
    assert not out.nonconvergent_found
    assert out.worst_seed == -1
    assert out.eq26_margin == pytest.approx(1.5862808715764862, rel=1e-12)


def test_sweep_thread_invariance():
    grid = make_theta_grid(6, 6)
    a = sweep(grid, samples_per_pair=5, max_steps=5000, seed=1, threads=1)
    b = sweep(grid, samples_per_pair=5, max_steps=5000, seed=1, threads=2)
    assert a == b


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep([(0.3, 0.9)], samples_per_pair=0)
    with pytest.raises(ValueError):
        sweep([(0.9, 0.3)])


def test_make_theta_grid_is_admissible():
    grid = make_theta_grid(10, 7)
    assert len(grid) == 70
    for t1, t2 in grid:
        assert 0.0 < t1 <= math.pi / 2 + 1e-15
        assert t1 < t2 < math.pi
        ProblemConfig(t1, t2)
    with pytest.raises(ValueError):
        make_theta_grid(0, 5)


def detect_cycle_scan(points_window, match_tol=1e-8):
    # the per-K scan detect_cycle replaced; reference for its candidate filter
    w = np.asarray(points_window, dtype=float)
    m = len(w)
    if m < 2:
        return None

    def pair_ok(later, earlier):
        dx = w[later, 0] - w[earlier, 0]
        dy = w[later, 1] - w[earlier, 1]
        lim = match_tol * (1.0 + math.hypot(w[earlier, 0], w[earlier, 1]))
        return math.hypot(dx, dy) <= lim

    if pair_ok(m - 1, m - 2):
        return None
    for k in range(2, m // 2 + 1):
        if not pair_ok(m - 1, m - 1 - k):
            continue
        a = w[m - k:]
        b = w[m - 2 * k:m - k]
        gaps = np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1])
        lims = match_tol * (1.0 + np.hypot(b[:, 0], b[:, 1]))
        if np.all(gaps <= lims):
            return k
    return None


def test_detect_cycle_matches_per_period_scan():
    windows = []
    for cfg, x0 in ((PERIOD2_CFG, (0.101912, 0.189275)),
                    (PERIOD58_CFG, (-0.123641, -0.510395)),
                    (PERIOD58_CFG, (1.7, -2.4)),
                    (FIG_CFG, (2.0, 1.0))):
        pts = simulate(cfg, x0, max_steps=1500, check_every=10 ** 6).points
        windows += [pts[max(0, end - n):end] for end in (3, 40, 300, 1501)
                    for n in (2, 5, 117, 600, 4096)]
    # periodic tails whose last pairs sit right at the match tolerance
    rng = np.random.default_rng(3)
    for period in (2, 3, 7, 58):
        base = rng.uniform(-2.0, 2.0, size=(period, 2))
        for scale in (3e-9, 5e-9, 1e-8, 2e-8):
            tail = np.tile(base, (400 // period, 1))
            windows.append(tail + rng.normal(size=tail.shape) * scale)
    # a last pair exactly at the tolerance still matches
    edge = [(1.0, 0.0), (0.0, 0.0)] * 40
    edge[-1] = (1e-8, 0.0)
    windows.append(edge)
    assert detect_cycle(edge) == 2
    found = 0
    for w in windows:
        want = detect_cycle_scan(w)
        assert detect_cycle(w) == want
        found += want is not None
    assert found >= 10


def cell_reference(cfg, bounds, resolution, policy, seed, max_steps):
    # per-cell simulate at the cell centres, the raster's definition
    nx, ny = resolution
    xmin, xmax, ymin, ymax = bounds
    cells = np.zeros((ny, nx), dtype=np.uint8)
    steps = np.zeros((ny, nx), dtype=np.int32)
    for j in range(ny):
        yc = ymax - (j + 0.5) * (ymax - ymin) / ny
        for i in range(nx):
            xc = xmin + (i + 0.5) * (xmax - xmin) / nx
            cell_policy = (SeededRandom((seed, j * nx + i))
                           if isinstance(policy, SeededRandom) else policy)
            tr = simulate(cfg, (xc, yc), cell_policy, max_steps=max_steps,
                          record=False)
            v = tr.verdict
            cells[j, i] = (v.target if isinstance(v, ConvergedTo)
                           else 3 if isinstance(v, Cycle) else 0)
            steps[j, i] = tr.steps_used
    return cells, steps


@pytest.mark.parametrize("max_steps", [3, 700])
@pytest.mark.parametrize("policy", [FirstBranch(), SeededRandom(),
                                    EnumerateTree(4)],
                         ids=["first", "random", "tree"])
@pytest.mark.parametrize("cfg", [FIG_CFG, PERIOD2_CFG, PERIOD58_CFG,
                                 PERIOD1410_CFG],
                         ids=["figure", "period2", "period58", "period1410"])
def test_rasterize_matches_per_cell_simulate(cfg, policy, max_steps):
    # the middle cell is centred on D3, so its first step is a tie
    xt, _ = tie_point(cfg)
    bounds = (xt - 1.5, xt + 1.5, -1.2, 1.2)
    nx, ny = 17, 15
    assert classify_region(cfg, (xt - 1.5 + 8.5 * 3.0 / nx,
                                 1.2 - 7.5 * 2.4 / ny)) is Region.D3
    grid = rasterize(cfg, bounds, (nx, ny), policy=policy,
                     max_steps=max_steps, seed=4)
    cells, steps = cell_reference(cfg, bounds, (nx, ny), policy, 4,
                                  max_steps)
    assert np.array_equal(grid.cells, cells)
    assert np.array_equal(grid.steps, steps)


def test_rasterize_blocks_match_per_cell_simulate_at_any_thread_count():
    # more cells than one lane block, so threads=2 runs two workers; the
    # centre of cell 4224 (row 59, column 35), in the second block, is on D3
    xt, _ = tie_point(FIG_CFG)
    bounds, res = (xt - 3.0, xt + 3.0, -0.025, 2.975), (71, 60)
    assert classify_region(FIG_CFG, (xt - 3.0 + 35.5 * 6.0 / 71,
                                     2.975 - 59.5 * 3.0 / 60)) is Region.D3
    for seed in (9, 10, 11):
        cells, steps = cell_reference(FIG_CFG, bounds, res, SeededRandom(),
                                      seed, 2000)
        for threads in (1, 2):
            grid = rasterize(FIG_CFG, bounds, res, policy=SeededRandom(),
                             seed=seed, threads=threads)
            assert np.array_equal(grid.cells, cells)
            assert np.array_equal(grid.steps, steps)


def sweep_reference(pairs, samples, max_steps, seed):
    # one scalar simulate per start, in start order, up to the first failure
    out = []
    for k, (t1, t2) in enumerate(pairs):
        cfg = ProblemConfig(t1, t2)
        res = certify(cfg)
        certified = isinstance(res, LyapunovCertificate)
        starts = np.random.default_rng(np.random.SeedSequence(
            [seed, k])).uniform(-2.0, 2.0, size=(samples, 2))
        worst = -1
        for s_idx in range(samples):
            budget = (certified_budget(cfg, res, starts[s_idx], max_steps)
                      if certified else max_steps)
            tr = simulate(cfg, starts[s_idx], SeededRandom((seed, k, s_idx)),
                          max_steps=budget, record=False)
            if not isinstance(tr.verdict, ConvergedTo):
                worst = s_idx
                break
        out.append(PairOutcome(
            theta1=cfg.theta1, theta2=cfg.theta2, eq26_holds=certified,
            eq26_margin=res.condition_margin, nonconvergent_found=worst >= 0,
            worst_seed=worst))
    return tuple(out)


@pytest.mark.parametrize("samples,max_steps", [(30, 300), (1024, 2000)])
def test_sweep_matches_per_start_simulate(samples, max_steps):
    # certified and uncertified pairs, some with a nonconvergent start;
    # 1024 samples split the pairs over two lane blocks
    pairs = list(make_theta_grid(3, 2)) + [(0.748491, 0.772301),
                                           (0.082719, 2.064601)]
    want = sweep_reference(pairs, samples, max_steps, 5)
    assert any(p.eq26_holds for p in want)
    assert any(p.nonconvergent_found for p in want)
    for threads in (1, 2):
        sg = sweep(pairs, samples_per_pair=samples, max_steps=max_steps,
                   seed=5, threads=threads)
        assert sg.pairs == want


def test_non_finite_starts_fail_loudly():
    for bad in ((math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)):
        with pytest.raises(ValueError, match="not finite"):
            simulate(FIG_CFG, bad)
        with pytest.raises(ValueError, match="not finite"):
            simulate(FIG_CFG, bad, EnumerateTree(4))
        with pytest.raises(ValueError, match="not finite"):
            find_period_brent(PERIOD2_CFG, bad)
    with pytest.raises(ValueError):
        rasterize(FIG_CFG, (-math.inf, 3, -3, 3), (5, 5))
    with pytest.raises(ValueError):
        rasterize(FIG_CFG, (-3, 3, -3, 3), (5, 5), max_steps=0)
