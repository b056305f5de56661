"""Simulation verdicts, cycle detection, raster and sweep drivers."""
import math
import warnings
from array import array
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from drlines import dr, experiments
from drlines.dr import dr_multivalued
from drlines.geometry import (
    TIE_TOL,
    ProblemConfig,
    Region,
    bisector_data,
    checked_start,
    cos_sin,
    distance_to_D3,
)
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
from geometry_oracle import classify_region

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


def test_raster_is_deterministic_and_matches_per_cell_simulate():
    a = rasterize(FIG_CFG, (-3, 3, -3, 3), (16, 12), policy=SeededRandom(),
                  seed=9)
    b = rasterize(FIG_CFG, (-3, 3, -3, 3), (16, 12), policy=SeededRandom(),
                  seed=9)
    cells, steps = cell_reference(FIG_CFG, (-3, 3, -3, 3), (16, 12),
                                  SeededRandom(), 9, 2000)
    assert np.array_equal(a.cells, b.cells) and np.array_equal(a.steps, b.steps)
    assert np.array_equal(a.cells, cells) and np.array_equal(a.steps, steps)
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


def test_sweep_is_deterministic_and_matches_per_start_simulate():
    grid = make_theta_grid(6, 6)
    a = sweep(grid, samples_per_pair=5, max_steps=5000, seed=1)
    b = sweep(grid, samples_per_pair=5, max_steps=5000, seed=1)
    assert a == b
    assert a.pairs == sweep_reference(grid, 5, 5000, 1)


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


def verdict_code(v):
    return (v.target if isinstance(v, ConvergedTo)
            else 3 if isinstance(v, Cycle) else 0)


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
            cells[j, i] = verdict_code(tr.verdict)
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


def test_rasterize_blocks_match_per_cell_simulate():
    # more cells than the lane pool holds, so it refills; the centre of
    # cell 4224 (row 59, column 35), taken in after the first 4096 cells,
    # is on D3
    xt, _ = tie_point(FIG_CFG)
    bounds, res = (xt - 3.0, xt + 3.0, -0.025, 2.975), (71, 60)
    assert classify_region(FIG_CFG, (xt - 3.0 + 35.5 * 6.0 / 71,
                                     2.975 - 59.5 * 3.0 / 60)) is Region.D3
    for seed in (9, 10, 11):
        cells, steps = cell_reference(FIG_CFG, bounds, res, SeededRandom(),
                                      seed, 2000)
        grid = rasterize(FIG_CFG, bounds, res, policy=SeededRandom(),
                         seed=seed)
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
    # 1024 samples are more starts than the lane pool holds at once
    pairs = list(make_theta_grid(3, 2)) + [(0.748491, 0.772301),
                                           (0.082719, 2.064601)]
    want = sweep_reference(pairs, samples, max_steps, 5)
    assert any(p.eq26_holds for p in want)
    assert any(p.nonconvergent_found for p in want)
    sg = sweep(pairs, samples_per_pair=samples, max_steps=max_steps, seed=5)
    assert sg.pairs == want


def test_non_finite_starts_fail_loudly():
    for bad in ((math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)):
        with pytest.raises(ValueError, match="not finite"):
            simulate(FIG_CFG, bad)
        with pytest.raises(ValueError, match="not finite"):
            simulate(FIG_CFG, bad, EnumerateTree(4))
        with pytest.raises(ValueError, match="not finite"):
            find_period_brent(PERIOD2_CFG, bad)
    # finite coordinates whose norm overflows: a step from there overflows
    # to inf and NaN; with a finite norm every step stays finite
    for f in (simulate, find_period_brent):
        with pytest.raises(ValueError, match="overflows"):
            f(FIG_CFG, (1.7e308, -1.7e308))
    tr = simulate(FIG_CFG, (1.2e308, -1.2e308))
    assert tr.verdict == ConvergedTo(1)
    assert all(math.isfinite(x) and math.isfinite(y) for x, y in tr.points)
    with pytest.raises(ValueError):
        rasterize(FIG_CFG, (-math.inf, 3, -3, 3), (5, 5))
    with pytest.raises(ValueError):
        rasterize(FIG_CFG, (-3, 3, -3, 3), (5, 5), max_steps=0)
    # a width, a height or only a corner norm that overflows
    for bounds in ((-1.7e308, 1.7e308, -1.7e308, 1.7e308),
                   (-1e308, 1e308, -1.0, 1.0), (-1.0, 1.0, -1e308, 1e308),
                   (1e308, 1.5e308, 1e308, 1.5e308)):
        with pytest.raises(ValueError, match=r"^bounds .* overflow"):
            rasterize(FIG_CFG, bounds, (4, 4))
    # finite widths and corner norms, but the centres' formula forms
    # 3.5 times the width, and 2.5 times the height
    for bounds, res in (((1e307, 1.2e308, -1.0, 1.0), (4, 1)),
                        ((-1.0, 1.0, -1.2e308, -1e307), (1, 3))):
        with pytest.raises(ValueError, match=r"^bounds .* overflow"):
            rasterize(FIG_CFG, bounds, res)
    grid = rasterize(FIG_CFG, (1e307, 1.2e308, -1.0, 1.0), (1, 3))
    assert grid.cells.shape == (3, 1)


def count_simulate_calls(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(experiments, "simulate", counted)
    return calls


@pytest.mark.parametrize("max_steps", [512, 700, 1024, 1100, 1536])
@pytest.mark.parametrize("policy", [FirstBranch(), SeededRandom()],
                         ids=["first", "random"])
def test_rasterize_settles_late_cycles_and_budgets_in_lanes(
        monkeypatch, policy, max_steps):
    # more period-58 basin cells than the lane pool holds: cells that
    # cycle at step 1024 or 1536, budgets at and between cycle checks and
    # a cycle found at a budget between them, with the centre cell on D3
    # so that one lane meets a tie
    xt, _ = tie_point(PERIOD58_CFG)
    bounds, res = (xt - 3.0, xt + 3.0, -3.0, 3.0), (65, 65)
    assert classify_region(PERIOD58_CFG, (xt - 3.0 + 32.5 * 6.0 / 65,
                                          0.0)) is Region.D3
    cells, steps = cell_reference(PERIOD58_CFG, bounds, res, policy, 4,
                                  max_steps)
    late = {(c, s) for c, s in zip(cells.ravel().tolist(),
                                   steps.ravel().tolist()) if c in (0, 3)}
    assert late == {512: {(0, 512)}, 700: {(0, 700)},
                    1024: {(0, 1024), (3, 1024)},
                    1100: {(3, 1024), (3, 1100)},
                    1536: {(3, 1024), (3, 1536)}}[max_steps]
    calls = count_simulate_calls(monkeypatch)
    grid = rasterize(PERIOD58_CFG, bounds, res, policy=policy,
                     max_steps=max_steps, seed=4)
    assert np.array_equal(grid.cells, cells)
    assert np.array_equal(grid.steps, steps)
    # only the tie lane re-ran through scalar simulate
    assert len(calls) == 1


@pytest.mark.parametrize("policy", [FirstBranch(), SeededRandom()],
                         ids=["first", "random"])
def test_rasterize_settles_a_period_1410_lane(monkeypatch, policy):
    # the cycle shows at step 49664, so the lane's window has wrapped past
    # 4096 points many times; the floor is lowered so that a single cell
    # runs through the lane passes
    monkeypatch.setattr(experiments, "_LANE_FLOOR", 1)
    x, y, h = 0.392560, -0.351588, 1e-12
    bounds = (x - h, x + h, y - h, y + h)
    cells, steps = cell_reference(PERIOD1410_CFG, bounds, (1, 1), policy, 0,
                                  60000)
    assert (cells[0, 0], steps[0, 0]) == (3, 49664)
    calls = count_simulate_calls(monkeypatch)
    grid = rasterize(PERIOD1410_CFG, bounds, (1, 1), policy=policy,
                     max_steps=60000)
    assert (grid.cells[0, 0], grid.steps[0, 0]) == (3, 49664)
    assert calls == []


def check_steps(trace, max_steps, check_every, first=1):
    # the steps at which simulate ran detect_cycle on this leaf, in order,
    # from step first (a fork leaf's first step) on
    n = trace.steps_used
    first = -(-max(first, 1) // check_every) * check_every
    if isinstance(trace.verdict, ConvergedTo):
        return list(range(first, n, check_every))
    steps = list(range(first, n + 1, check_every))
    if n >= max_steps and not (isinstance(trace.verdict, Cycle)
                               and n % check_every == 0):
        steps.append(n)
    return steps


def fork_steps(leaves):
    # each leaf's first own step: its common prefix with earlier leaves
    def common(a, b):
        return next((i for i, (p, q) in enumerate(zip(a, b)) if p != q),
                    min(len(a), len(b)))
    return [max((common(t.points, u.points) for u in leaves[:i]), default=0)
            for i, t in enumerate(leaves)]


def last_points(points, step, window):
    return np.array(points[max(0, step + 1 - window):step + 1])


@pytest.mark.parametrize("window", [1, 4, 7, 116, 4096])
def test_cycle_checks_see_exactly_the_last_window_points(monkeypatch,
                                                         window):
    seen = []

    def spy(points_window, match_tol=experiments.DEFAULT_MATCH_TOL):
        seen.append(np.array(points_window))
        return detect_cycle(points_window, match_tol)

    monkeypatch.setattr(experiments, "detect_cycle", spy)
    # the scalar walk, its leaves checked one after another, with forks at
    # step 0 and step 20
    for cfg, x0, check_every, n_leaves in (
            (PERIOD2_CFG, tie_preimage(PERIOD2_CFG, 20), 5, 2),
            (PERIOD2_CFG, tie_point(PERIOD2_CFG), 97, 2),
            (PERIOD58_CFG, (-0.123641, -0.510395), 512, 1),
            (PERIOD1410_CFG, (0.392560, -0.351588), 97, 1)):
        seen.clear()
        leaves = simulate_tree(cfg, x0, EnumerateTree(4), max_steps=1300,
                               window=window, check_every=check_every)
        assert len(leaves) == n_leaves
        want = [last_points(t.points, s, window)
                for t, f in zip(leaves, fork_steps(leaves))
                for s in check_steps(t, 1300, check_every, f)]
        assert len(seen) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(seen, want))
    # lanes, whose verdicts must be simulate's: at each check step the
    # live lanes check in order, once at a step that is both a cycle check
    # and the budget; the floor at one lane keeps all 32 in lanes
    monkeypatch.setattr(experiments, "_LANE_FLOOR", 1)
    rng = np.random.default_rng(window)
    xs = np.hstack([rng.uniform(-3.0, 3.0, size=(2, 24)),
                    rng.normal(scale=1e-3, size=(2, 8))
                    + [[-0.123641], [-0.510395]]])
    traces = [simulate(PERIOD58_CFG, xs[:, j], max_steps=1300, window=window)
              for j in range(xs.shape[1])]
    seen.clear()
    codes, steps = experiments._lockstep(
        experiments._lanes(PERIOD58_CFG, xs[0], xs[1]), 1300, TIE_TOL,
        window=window)
    assert list(zip(codes.tolist(), steps.tolist())) == [
        (verdict_code(t.verdict), t.steps_used) for t in traces]
    want = [last_points(t.points, s, window) for s in (512, 1024, 1300)
            for t in traces
            if s < t.steps_used or (s == t.steps_used
                                    and not isinstance(t.verdict,
                                                       ConvergedTo))]
    assert len(seen) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(seen, want))
    assert {type(t.verdict) for t in traces} == (
        {ConvergedTo, Cycle} if window >= 116 else {ConvergedTo, Budget})


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(t1=st.floats(0.02, math.pi / 2), t2_frac=st.floats(0.01, 0.99),
       samples=st.integers(1, 4), max_steps=st.integers(1, 2000),
       seed=st.integers(0, 2**32 - 1))
def test_sweep_never_flags_a_certified_pair(t1, t2_frac, samples, max_steps,
                                            seed):
    # the certificate-backed budgets make a flag on a certified pair a
    # counterexample to the paper's theorem, not a budget artifact
    t2 = t1 + (math.pi - t1) * t2_frac
    assume(isinstance(certify(ProblemConfig(t1, t2)), LyapunovCertificate))
    (out,) = sweep([(t1, t2)], samples_per_pair=samples, max_steps=max_steps,
                   seed=seed).pairs
    assert out.eq26_holds
    assert not out.nonconvergent_found and out.worst_seed == -1


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(t1=st.floats(0.02, math.pi / 2), t2_frac=st.floats(0.01, 0.99),
       x=st.floats(-3.0, 3.0), y=st.floats(-3.0, 3.0),
       max_steps=st.integers(1, 1600))
def test_one_cell_raster_equals_simulate(t1, t2_frac, x, y, max_steps):
    cfg = ProblemConfig(t1, t1 + (math.pi - t1) * t2_frac)
    bounds = (x - 1e-3, x + 1e-3, y - 1e-3, y + 1e-3)
    want = cell_reference(cfg, bounds, (1, 1), FirstBranch(), 0, max_steps)
    # with the floor at one lane the cell runs through both lane passes
    with mock.patch.object(experiments, "_LANE_FLOOR", 1):
        grid = rasterize(cfg, bounds, (1, 1), max_steps=max_steps)
    assert (grid.cells[0, 0], grid.steps[0, 0]) == (want[0][0, 0],
                                                     want[1][0, 0])


def simulate_tree_deque(cfg, x0, policy=EnumerateTree(), max_steps=20000,
                        tol=TIE_TOL, record=True, window=4096,
                        match_tol=1e-8, check_every=512):
    # the deque-window walk simulate_tree replaced; reference for its buffer
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    start = checked_start(x0)
    c1, s1, c2, s2, r1sq, r2sq = experiments._constants(cfg)
    gap_of, branch = dr._gap, dr._branch
    max_leaves = policy.max_leaves if isinstance(policy, EnumerateTree) else 1
    rng = None
    leaves = []
    stack = [(start[0], start[1], 0, [start], deque([start], maxlen=window))]
    committed = 1
    while stack:
        x, y, steps, pts, win = stack.pop()
        while True:
            dx1 = x + 0.5
            dx2 = x - 0.5
            if dx1 * dx1 + y * y < r1sq:
                verdict = ConvergedTo(1)
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
            gap = gap_of(c1, s1, c2, s2, x, y)
            first = gap < 0.0
            if abs(gap) <= tol * (1.0 + math.hypot(x, y)):
                first = True
                if committed < max_leaves:
                    committed += 1
                    bp = branch(0.5, c2, s2, x, y)
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
                x, y = branch(-0.5, c1, s1, x, y)
            else:
                x, y = branch(0.5, c2, s2, x, y)
            steps += 1
            p = (x, y)
            if record:
                pts.append(p)
            win.append(p)
        leaves.append(experiments.Trace(
            start=start, points=tuple(pts) if record else ((x, y),),
            verdict=verdict, steps_used=steps))
    return tuple(leaves)


def tie_preimage(cfg, n, end=None):
    # a start whose n-th iterate is tie_point(cfg), or end: each step back
    # inverts the branch whose region, well off the tie band, holds the
    # preimage
    c1, s1, c2, s2, _, _ = experiments._constants(cfg)
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


@pytest.mark.parametrize("window", [4096, 200, 7, 1, 0])
@pytest.mark.parametrize("record", [True, False], ids=["record", "last"])
def test_simulate_tree_window_buffer_matches_deque(window, record):
    cases = [(FIG_CFG, (1.7, -2.4), 3000),
             (PERIOD2_CFG, (0.101912, 0.189275), 1500),
             (PERIOD58_CFG, (-0.123641, -0.510395), 2100),
             (PERIOD58_CFG, (1.7, -2.4), 1100),
             (PERIOD1410_CFG, (0.392560, -0.351588), 5000)]
    # starts on D3 fork under EnumerateTree at once, the preimages of D3
    # after 20 steps, with a window of 21 points to copy
    cases += [(cfg, tie_point(cfg), 1500)
              for cfg in (FIG_CFG, PERIOD2_CFG, PERIOD58_CFG, PERIOD1410_CFG)]
    cases += [(cfg, tie_preimage(cfg, 20), 1500)
              for cfg in (FIG_CFG, PERIOD2_CFG)]
    verdicts = set()
    for cfg, x0, max_steps in cases:
        for policy in (EnumerateTree(8), SeededRandom((3, 1)), FirstBranch()):
            for check_every in (512, 97):
                kw = dict(max_steps=max_steps, record=record, window=window,
                          check_every=check_every)
                got = simulate_tree(cfg, x0, policy, **kw)
                assert got == simulate_tree_deque(cfg, x0, policy, **kw)
                verdicts |= {type(t.verdict) for t in got}
    assert verdicts == ({ConvergedTo, Cycle, Budget} if window >= 4
                        else {ConvergedTo, Budget})


def test_simulate_tree_late_fork_and_long_period_match_deque():
    # the period-2 pair's late fork splits into a cycle and a converging
    # leaf that share their first 21 points
    leaves = simulate_tree(PERIOD2_CFG, tie_preimage(PERIOD2_CFG, 20),
                           max_steps=1500)
    assert [type(t.verdict) for t in leaves] == [Cycle, ConvergedTo]
    assert [t.steps_used for t in leaves] == [512, 24]
    assert leaves[0].points[:21] == leaves[1].points[:21]
    # the period-1410 orbit shows at step 49664, past many window wraps
    x0 = (0.392560, -0.351588)
    got = simulate_tree(PERIOD1410_CFG, x0, FirstBranch(), max_steps=60000,
                        record=False)
    assert got == simulate_tree_deque(PERIOD1410_CFG, x0, FirstBranch(),
                                      max_steps=60000, record=False)
    assert got[0].verdict == Cycle(1410) and got[0].steps_used == 49664
    with pytest.raises(ValueError):
        simulate(FIG_CFG, (0.1, 0.2), window=-1)


def simulate_tree_per_step(cfg, x0, policy=EnumerateTree(), max_steps=20000,
                           tol=TIE_TOL, record=True, window=4096,
                           match_tol=1e-8, check_every=512):
    # the per-step loop the resumable walk replaced (step counter, budget
    # and buffer tested on every step); reference for its verdicts, points
    # and detect_cycle windows
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    start = checked_start(x0)
    c1, s1, c2, s2, r1sq, r2sq = experiments._constants(cfg)
    gap_of, branch = dr._gap, dr._branch
    max_leaves = policy.max_leaves if isinstance(policy, EnumerateTree) else 1
    rng = None
    leaves = []
    keep = 2 * window

    def view(win):
        return np.frombuffer(win)[max(0, len(win) - keep):].reshape(-1, 2)

    stack = [(start[0], start[1], 0, [start], array("d", start))]
    committed = 1
    while stack:
        x, y, steps, pts, win = stack.pop()
        while True:
            dx1 = x + 0.5
            dx2 = x - 0.5
            if dx1 * dx1 + y * y < r1sq:
                verdict = ConvergedTo(1)
                break
            if dx2 * dx2 + y * y < r2sq:
                verdict = ConvergedTo(2)
                break
            if steps and steps % check_every == 0:
                k = experiments.detect_cycle(view(win), match_tol)
                if k is not None:
                    verdict = Cycle(k)
                    break
            if steps >= max_steps:
                k = experiments.detect_cycle(view(win), match_tol)
                verdict = Cycle(k) if k is not None else Budget()
                break
            gap = gap_of(c1, s1, c2, s2, x, y)
            first = gap < 0.0
            if abs(gap) <= tol * (1.0 + math.hypot(x, y)):
                first = True
                if committed < max_leaves:
                    committed += 1
                    bp = branch(0.5, c2, s2, x, y)
                    bw = array("d", win)
                    bw.extend(bp)
                    stack.append((bp[0], bp[1], steps + 1,
                                  pts + [bp] if record else [bp], bw))
                elif isinstance(policy, SeededRandom):
                    if rng is None:
                        rng = np.random.default_rng(
                            np.random.SeedSequence(policy.seed))
                    first = bool(rng.integers(0, 2) == 0)
            if first:
                x, y = branch(-0.5, c1, s1, x, y)
            else:
                x, y = branch(0.5, c2, s2, x, y)
            steps += 1
            if record:
                pts.append((x, y))
            win.append(x)
            win.append(y)
            if len(win) > 2 * keep:
                del win[:len(win) - keep]
        leaves.append(experiments.Trace(
            start=start, points=tuple(pts) if record else ((x, y),),
            verdict=verdict, steps_used=steps))
    return tuple(leaves)


def find_period_brent_per_step(cfg, x0, max_steps=200000, match_tol=1e-8,
                               tol=TIE_TOL):
    # Brent's search as it was before its lighter loop (the match limit
    # recomputed and the step called on every step); reference for it
    c1, s1, c2, s2, _, _ = experiments._constants(cfg)
    gap_of, branch = dr._gap, dr._branch

    def step(p):
        x, y = p
        if gap_of(c1, s1, c2, s2, x, y) <= tol * (1.0 + math.hypot(x, y)):
            return branch(-0.5, c1, s1, x, y)
        return branch(0.5, c2, s2, x, y)

    def close(a, b):
        return (math.hypot(a[0] - b[0], a[1] - b[1])
                <= match_tol * (1.0 + math.hypot(b[0], b[1])))

    tortoise = checked_start(x0)
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
    seg = []
    p = hare
    for _ in range(2 * lam):
        seg.append(p)
        p = step(p)

    def shift_ok(d):
        return all(close(seg[i + d], seg[i]) for i in range(2 * lam - d))

    if not shift_ok(lam) or shift_ok(1):
        return None
    for d in range(2, lam):
        if lam % d == 0 and shift_ok(d):
            return d
    return lam


def spy_detect_cycle(monkeypatch):
    # every window detect_cycle is asked about, as bytes, with its tolerance
    seen = []

    def spy(points_window, match_tol=experiments.DEFAULT_MATCH_TOL):
        w = np.asarray(points_window, dtype=float)
        seen.append((w.shape, w.tobytes(), match_tol))
        return detect_cycle(points_window, match_tol)

    monkeypatch.setattr(experiments, "detect_cycle", spy)
    return seen


@pytest.mark.parametrize("window", [0, 1, 7, 4096])
def test_walk_matches_per_step_loop(monkeypatch, window):
    seen = spy_detect_cycle(monkeypatch)
    cases = [(FIG_CFG, (1.7, -2.4), 2000),
             (PERIOD2_CFG, (0.101912, 0.189275), 1100),
             (PERIOD58_CFG, (-0.123641, -0.510395), 1100),
             (PERIOD1410_CFG, (0.392560, -0.351588), 2100),
             (FIG_CFG, tie_point(FIG_CFG), 600),
             (PERIOD58_CFG, tie_point(PERIOD58_CFG), 1100),
             # forks at step 20, so the A2 leaf is born on step 21, a
             # check step for check_every 3, 7 and 21
             (PERIOD2_CFG, tie_preimage(PERIOD2_CFG, 20), 1100)]
    forks_on_check = 0
    for cfg, x0, max_steps in cases:
        for policy in (EnumerateTree(8), SeededRandom((3, 1)), FirstBranch()):
            for check_every in (3, 7, 21, 512):
                kw = dict(max_steps=max_steps, window=window,
                          check_every=check_every,
                          record=check_every != 7)
                seen.clear()
                got = simulate_tree(cfg, x0, policy, **kw)
                got_seen = list(seen)
                seen.clear()
                assert got == simulate_tree_per_step(cfg, x0, policy, **kw)
                assert got_seen == seen
                forks_on_check += (len(got) == 2 and check_every != 512
                                   and x0 == tie_preimage(PERIOD2_CFG, 20))
    assert forks_on_check == 3


def test_walk_matches_per_step_loop_on_the_period_1410_orbit(monkeypatch):
    seen = spy_detect_cycle(monkeypatch)
    x0 = (0.392560, -0.351588)
    got = simulate_tree(PERIOD1410_CFG, x0, FirstBranch(), max_steps=60000,
                        record=False)
    got_seen = list(seen)
    seen.clear()
    assert got == simulate_tree_per_step(PERIOD1410_CFG, x0, FirstBranch(),
                                         max_steps=60000, record=False)
    assert got_seen == seen and len(seen) == 97
    assert got[0].verdict == Cycle(1410) and got[0].steps_used == 49664
    # with no check before the budget the walk still trims its buffer, at
    # every 4096 steps, and the budget's check sees the last 7 points
    kw = dict(max_steps=20000, window=7, check_every=10 ** 6, record=False)
    seen.clear()
    got = simulate_tree(PERIOD1410_CFG, x0, FirstBranch(), **kw)
    got_seen = list(seen)
    seen.clear()
    assert got == simulate_tree_per_step(PERIOD1410_CFG, x0, FirstBranch(),
                                         **kw)
    assert got_seen == seen and len(seen) == 1 and seen[0][0] == (7, 2)


def test_brent_matches_per_step_loop():
    # the period-1410 search meets at step 66945
    meet = 66945
    cases = [(FIG_CFG, (1.3, 2.2)), (PERIOD2_CFG, (0.101912, 0.189275)),
             (PERIOD58_CFG, (-0.123641, -0.510395)),
             (PERIOD1410_CFG, (0.392560, -0.351588)),
             (PERIOD58_CFG, tie_point(PERIOD58_CFG))]
    # far preimages of the period-2 orbit: the first tortoise's limit is
    # loose enough to stop a hare still on its way in
    cases += [(PERIOD2_CFG, tie_preimage(PERIOD2_CFG, n,
                                         end=(0.101912, 0.189275)))
              for n in (10, 30)]
    found = set()
    for cfg, x0 in cases:
        for max_steps in (1, meet - 1, meet):
            want = find_period_brent_per_step(cfg, x0, max_steps)
            assert find_period_brent(cfg, x0, max_steps) == want
            found.add(want)
    assert found == {None, 2, 58, 1410}
    x0 = (0.392560, -0.351588)
    assert find_period_brent(PERIOD1410_CFG, x0, meet - 1) is None
    assert find_period_brent(PERIOD1410_CFG, x0, meet) == 1410


def test_bad_budgets_and_tolerances_fail_loudly():
    x0 = (0.101912, 0.189275)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="max_steps"):
            find_period_brent(PERIOD2_CFG, x0, max_steps=bad)
        with pytest.raises(ValueError, match="check_every"):
            simulate(PERIOD2_CFG, x0, check_every=bad)
        # a certified pair's hand-offs get certified budgets, so a bad
        # budget must fail before any start runs
        with pytest.raises(ValueError, match="max_steps"):
            sweep([(FIG_CFG.theta1, FIG_CFG.theta2)], samples_per_pair=5,
                  max_steps=bad)
    for bad in (math.nan, math.inf, -1e-8):
        with pytest.raises(ValueError, match="match_tol"):
            simulate(PERIOD2_CFG, x0, match_tol=bad)
        with pytest.raises(ValueError, match="match_tol"):
            find_period_brent(PERIOD2_CFG, x0, match_tol=bad)
        with pytest.raises(ValueError, match="tol"):
            simulate(PERIOD2_CFG, x0, tol=bad)
        with pytest.raises(ValueError, match="tol"):
            find_period_brent(PERIOD2_CFG, x0, tol=bad)
        with pytest.raises(ValueError, match="tie tolerance"):
            dr_multivalued(PERIOD2_CFG, x0, tol=bad)
    # zero is a real tolerance: exact matches (a period-6 float cycle
    # here, against 2 at 1e-8) and exact ties only
    assert simulate(PERIOD2_CFG, x0, match_tol=0.0, tol=0.0).verdict \
        == Cycle(6)


def spy_walk(monkeypatch):
    # (step, window points) of every walk started, in order
    entered = []
    walk = experiments._walk

    def spy(consts, x, y, steps, win, *args):
        entered.append((steps, np.frombuffer(win).reshape(-1, 2).copy()))
        return walk(consts, x, y, steps, win, *args)

    monkeypatch.setattr(experiments, "_walk", spy)
    return entered


def test_rasterize_finishes_a_lone_period_1410_cell_in_the_walk(monkeypatch):
    # 2x17 cells: the bottom-right one is the period-1410 start, the right
    # column's others lie in p2's ball and the left column's reach p1's
    # within 250 steps, so the long cell is soon alone
    x, y, hy = 0.392560, -0.351588, 0.035
    bounds, res = (x - 1.5, x + 0.5, y - 0.5 * hy, y + 16.5 * hy), (2, 17)
    cells, steps = cell_reference(PERIOD1410_CFG, bounds, res, FirstBranch(),
                                  0, 60000)
    assert (cells[16, 1], steps[16, 1]) == (3, 49664)
    cells[16, 1] = steps[16, 1] = 0
    assert set(cells.ravel().tolist()) == {0, 1, 2}
    assert steps.max() <= 250
    cells[16, 1], steps[16, 1] = 3, 49664
    calls = count_simulate_calls(monkeypatch)
    entered = spy_walk(monkeypatch)
    grid = rasterize(PERIOD1410_CFG, bounds, res, max_steps=60000)
    assert np.array_equal(grid.cells, cells)
    assert np.array_equal(grid.steps, steps)
    assert calls == [] and entered
    assert all(s <= experiments.DEFAULT_CHECK_EVERY for s, _ in entered)


@pytest.mark.parametrize("window", [7, 4096])
def test_lane_tails_resume_in_the_walk_with_their_windows(monkeypatch,
                                                          window):
    # 34 lanes that reach p1's ball within 330 steps and the period-1410
    # start: when the fourth lane is done, the 31 left go on in the walk
    # from their step counts and last window points
    x, y = 0.392560, -0.351588
    xs = [x - d for d in (1.0, 1.1) for _ in range(17)] + [x]
    ys = [y + 0.035 * j for _ in range(2) for j in range(17)] + [y]
    traces = [simulate(PERIOD1410_CFG, p, max_steps=60000, window=window)
              for p in zip(xs, ys)]
    entered = spy_walk(monkeypatch)
    codes, steps = experiments._lockstep(
        experiments._lanes(PERIOD1410_CFG, np.array(xs), np.array(ys)),
        60000, TIE_TOL, window=window)
    assert list(zip(codes.tolist(), steps.tolist())) == [
        (verdict_code(t.verdict), t.steps_used) for t in traces]
    assert (codes[-1], steps[-1]) == ((3, 49664) if window == 4096
                                      else (0, 60000))
    first = sorted(t.steps_used for t in traces)[3] + 1
    live = [t for t in traces if t.steps_used >= first]
    assert len(live) == len(entered) == 31
    for t, (s, win) in zip(live, entered):
        assert s == first
        assert np.array_equal(win, last_points(t.points, s, window))


def test_lane_tail_meeting_a_tie_reruns_through_simulate(monkeypatch):
    # a lone cell is walked from step 0 and meets D3 at step 20; it then
    # re-runs from its start under the cell's own policy
    x0 = tie_preimage(PERIOD2_CFG, 20)
    bounds = (x0[0] - 1e-12, x0[0] + 1e-12, x0[1] - 1e-12, x0[1] + 1e-12)
    want = set()
    entered = spy_walk(monkeypatch)
    calls = count_simulate_calls(monkeypatch)
    for policy in (FirstBranch(), SeededRandom(), EnumerateTree(4)):
        cells, steps = cell_reference(PERIOD2_CFG, bounds, (1, 1), policy, 3,
                                      2000)
        want.add((int(cells[0, 0]), int(steps[0, 0])))
        calls.clear()
        entered.clear()
        grid = rasterize(PERIOD2_CFG, bounds, (1, 1), policy=policy, seed=3)
        assert (grid.cells[0, 0], grid.steps[0, 0]) == (cells[0, 0],
                                                        steps[0, 0])
        # the walk from step 0 stops at the tie; simulate's own leaves walk
        # on from there
        assert len(calls) == 1 and entered[0][0] == 0
    assert want == {(3, 512), (2, 24)}


def spy_pool(monkeypatch):
    # every (ids, codes, steps) the lane pool yields, in order
    yields = []
    pool = experiments._pool

    def spy(*args):
        for out in pool(*args):
            yields.append(out)
            yield out

    monkeypatch.setattr(experiments, "_pool", spy)
    return yields


@pytest.mark.parametrize("max_steps", [1, 7, 300, 2000])
@pytest.mark.parametrize("policy", [FirstBranch(), SeededRandom()],
                         ids=["first", "random"])
def test_rasterize_refills_match_per_cell_simulate(monkeypatch, policy,
                                                   max_steps):
    # a 64-lane pool refills many times over 33x48 period-58 cells; the
    # centre of cell 1567 of 1584 (last row, middle column), taken in by a
    # late refill, is on D3, and nine cells cycle
    monkeypatch.setattr(experiments, "_LANE_BLOCK", 64)
    xt, _ = tie_point(PERIOD58_CFG)
    bounds, res = (xt - 3.0, xt + 3.0, -0.03125, 2.96875), (33, 48)
    tie = experiments._cell_centres(bounds, res, 47 * 33 + 16)
    assert tie[1] == 0.0
    assert classify_region(PERIOD58_CFG, tie) is Region.D3
    cells, steps = cell_reference(PERIOD58_CFG, bounds, res, policy, 4,
                                  max_steps)
    if max_steps == 2000:
        assert np.count_nonzero(cells == 3) == 9
    calls = count_simulate_calls(monkeypatch)
    yields = spy_pool(monkeypatch)
    grid = rasterize(PERIOD58_CFG, bounds, res, policy=policy,
                     max_steps=max_steps, seed=4)
    assert np.array_equal(grid.cells, cells)
    assert np.array_equal(grid.steps, steps)
    assert tie in [tuple(map(float, c)) for c in calls]
    # every cell left the pool once
    ids = np.concatenate([i for i, _, _ in yields])
    assert np.array_equal(np.sort(ids), np.arange(33 * 48))


@pytest.mark.parametrize("samples", [24, 100])
def test_sweep_refills_match_per_start_simulate(monkeypatch, samples):
    # 24 starts do not divide a 64-lane pool and 100 do not fit in it, so
    # pairs straddle refills; certified pairs and nonconvergent starts
    monkeypatch.setattr(experiments, "_LANE_BLOCK", 64)
    pairs = list(make_theta_grid(3, 2)) + [(0.748491, 0.772301),
                                           (0.082719, 2.064601)]
    want = sweep_reference(pairs, samples, 300, 5)
    assert any(p.eq26_holds for p in want)
    assert any(p.nonconvergent_found for p in want)
    sg = sweep(pairs, samples_per_pair=samples, max_steps=300, seed=5)
    assert sg.pairs == want


def test_period58_raster_hands_off_only_its_cycle_cells(monkeypatch):
    # the benchmark's basin: every lane the pool hands off is one of the
    # 176 cycle cells, as no lane is handed off for want of company while
    # the pool can still refill
    yields = spy_pool(monkeypatch)
    grid = rasterize(PERIOD58_CFG, (-3.0, 3.0, -3.0, 3.0), (200, 200))
    cycle = np.flatnonzero(grid.cells.ravel() == 3)
    assert len(cycle) == 176
    handed = np.concatenate([i[c == experiments._HANDOFF]
                             for i, c, _ in yields])
    assert np.array_equal(np.sort(handed), cycle)
    # with a 64-lane pool the last few lanes, once the source is empty,
    # leave together whatever they are; before that only cycle cells do
    monkeypatch.setattr(experiments, "_LANE_BLOCK", 64)
    yields.clear()
    small = rasterize(PERIOD58_CFG, (-3.0, 3.0, -3.0, 3.0), (200, 200))
    assert np.array_equal(small.cells, grid.cells)
    assert np.array_equal(small.steps, grid.steps)
    *early, (last, codes, _) = yields
    assert len(last) < experiments._LANE_FLOOR
    assert set(last[codes == experiments._HANDOFF].tolist()) - set(
        cycle.tolist())
    handed = np.concatenate([i[c == experiments._HANDOFF]
                             for i, c, _ in early])
    assert set(handed.tolist()) <= set(cycle.tolist())


@pytest.mark.parametrize("max_steps", [50, 700])
@pytest.mark.parametrize("bounds", [(1e200, 2e200, 1e200, 2e200),
                                    (9e307, 1.1e308, -1.1e308, -9e307)],
                         ids=["1e200", "1e308"])
def test_huge_starts_raster_quietly_as_simulate(monkeypatch, bounds,
                                                max_steps):
    # squares of these starts overflow in the lanes' ball tests, and near
    # 1e308 so does |x| + |y| in the tie screen, which then hands every
    # lane off to simulate; with the floor at one lane the 1e200 cells run
    # both lane passes
    monkeypatch.setattr(experiments, "_LANE_FLOOR", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = rasterize(FIG_CFG, bounds, (4, 4), max_steps=max_steps)
    cells, steps = cell_reference(FIG_CFG, bounds, (4, 4), FirstBranch(), 0,
                                  max_steps)
    assert np.array_equal(grid.cells, cells)
    assert np.array_equal(grid.steps, steps)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(t1=st.floats(0.02, math.pi / 2), t2_frac=st.floats(0.01, 0.99),
       anchor=st.sampled_from(["bisector1", "bisector2", "axis"]),
       log_t=st.floats(-3.0, 300.0), sign=st.sampled_from([-1.0, 1.0]),
       bands=st.floats(-4.0, 4.0), angle=st.floats(0.0, 2.0 * math.pi),
       tol=st.sampled_from([TIE_TOL, 1e-6, 1e-15, 0.0]))
def test_lane_tie_screen_covers_the_scalar_band(t1, t2_frac, anchor, log_t,
                                                sign, bands, angle, tol):
    # points on D3, 1e-3 to 1e300 from c along a bisector or from the axis
    # tie point along its bisector, moved by up to four tie bands
    cfg = ProblemConfig(t1, t1 + (math.pi - t1) * t2_frac)
    bd = bisector_data(cfg)
    if anchor == "axis":
        (ax, ay), (cx, cy) = tie_point(cfg), bd.c
        norm = math.hypot(cx - ax, cy - ay)
        d = ((cx - ax) / norm, (cy - ay) / norm)
    else:
        ax, ay = bd.c
        n = bd.n1 if anchor == "bisector1" else bd.n2
        d = (-n[1], n[0])
    t = sign * 10.0 ** log_t
    x, y = ax + t * d[0], ay + t * d[1]
    r = bands * max(tol, TIE_TOL) * (1.0 + math.hypot(x, y))
    x, y = x + r * math.cos(angle), y + r * math.sin(angle)
    c1, s1 = cos_sin(cfg.theta1)
    c2, s2 = cos_sin(cfg.theta2)
    _, _, clear = experiments._lane_step(
        experiments._lanes(cfg, np.array([x]), np.array([y])), tol)
    if abs(dr._gap(c1, s1, c2, s2, x, y)) <= tol * (1.0 + math.hypot(x, y)):
        assert not clear[0]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(t1=st.floats(1e-6, math.pi / 2), t2_frac=st.floats(1e-6, 1.0 - 1e-6),
       n=st.integers(0, 5))
@example(t1=math.pi / 2, t2_frac=0.5, n=3)
@example(t1=1e-6, t2_frac=1.0 - 1e-6, n=1)
def test_constants_match_distance_to_d3_bit_for_bit(t1, t2_frac, n):
    # the lane constants are what simulate's set-up once computed through
    # distance_to_D3, and _lanes holds them in every column
    t2 = t1 + (math.pi - t1) * t2_frac
    assume(t2 < math.pi)
    cfg = ProblemConfig(t1, t2)
    consts = experiments._constants(cfg)
    r1 = experiments.BALL_SAFETY * float(distance_to_D3(cfg, cfg.p1))
    r2 = experiments.BALL_SAFETY * float(distance_to_D3(cfg, cfg.p2))
    want = (*cos_sin(cfg.theta1), *cos_sin(cfg.theta2), r1 * r1, r2 * r2)
    assert [type(c) for c in consts] == [float] * 6
    assert [c.hex() for c in consts] == [c.hex() for c in want]
    xs, ys = np.linspace(-2.0, 2.0, n), np.linspace(3.0, -1.0, n)
    lanes = experiments._lanes(cfg, xs, ys)
    assert lanes.shape == (8, n) and lanes.dtype == np.float64
    assert np.array_equal(lanes, np.vstack(
        [xs, ys, np.repeat(np.array(want)[:, None], n, axis=1)]))


def window_pair_ok(w, later, earlier, match_tol=1e-8):
    # detect_cycle's exact test of one pair
    lim = match_tol * (1.0 + math.hypot(w[earlier, 0], w[earlier, 1]))
    return math.hypot(w[later, 0] - w[earlier, 0],
                      w[later, 1] - w[earlier, 1]) <= lim


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(period=st.integers(2, 140), span=st.integers(2, 600),
       keep=st.floats(0.0, 1.0), prefix=st.floats(0.0, 1.0),
       noise=st.sampled_from([0.0, 3e-9, 1e-8, 3e-8]),
       seed=st.integers(0, 2**32 - 1))
@example(period=200, span=513, keep=0.501, prefix=0.0, noise=0.0, seed=1)
@example(period=100, span=513, keep=0.501, prefix=0.3, noise=3e-9, seed=2)
def test_partial_window_rule_agrees_with_detect_cycle(period, span, keep,
                                                      prefix, noise, seed):
    # a window of span points whose tail repeats with a planted period,
    # after a random prefix, of which the rule sees only the last m
    rng = np.random.default_rng(seed)
    base = rng.uniform(-2.0, 2.0, size=(period, 2))
    full = (np.tile(base, (span // period + 1, 1))[:span]
            + rng.normal(size=(span, 2)) * noise)
    cut = int(prefix * span)
    full[:cut] = rng.uniform(-2.0, 2.0, size=(cut, 2))
    m = max(2, round(keep * span))
    got = experiments._cycle(full[span - m:], span, 1e-8)
    if got != experiments._UNDECIDED:
        assert got == detect_cycle(full)
    else:
        # undecided only where the near screen needs points the partial
        # window lacks, or a K too long for a full check in it matches its
        # last pair
        assert span // 2 > m - 1 or any(
            window_pair_ok(full, span - 1, span - 1 - k)
            for k in range(m // 2 + 1, span // 2 + 1))
    # a full window is always decided, and it is detect_cycle
    assert experiments._cycle(full, span, 1e-8) == detect_cycle(full)


def test_partial_window_rule_on_planted_periods():
    # at the first cycle check a lane resumed from step 256 holds points
    # 256..512 of the 513 the full window holds
    rng = np.random.default_rng(7)
    for period, want in ((100, 100), (128, 128), (129, None), (200, None),
                         (256, None)):
        full = np.tile(rng.uniform(-2.0, 2.0, size=(period, 2)), (6, 1))[:513]
        assert detect_cycle(full) == period
        got = experiments._cycle(full[-257:], 513, 1e-8)
        assert got == (experiments._UNDECIDED if want is None else want)
    # no period: the near screen decides on 257 points, not on 256
    noise = rng.uniform(-2.0, 2.0, size=(513, 2))
    assert experiments._cycle(noise[-257:], 513, 1e-8) is None
    assert experiments._cycle(noise[-256:], 513, 1e-8) == \
        experiments._UNDECIDED
    assert experiments._cycle(noise[-1:], 513, 1e-8) == experiments._UNDECIDED
    assert experiments._cycle(noise[-1:], 1, 1e-8) is None


def spy_lockstep(monkeypatch):
    # (start step, lane count) of every lane set run to its verdicts
    starts = []
    lockstep = experiments._lockstep

    def spy(lanes, *args, start=0, **kwargs):
        starts.append((start, lanes.shape[1]))
        return lockstep(lanes, *args, start=start, **kwargs)

    monkeypatch.setattr(experiments, "_lockstep", spy)
    return starts


def resumed(entered):
    # walks resumed from a pool checkpoint: one window point at step 256
    return [s for s, win in entered
            if s == experiments._CHECKPOINT and len(win) == 1]


def test_undecided_checks_fall_back_to_full_reruns(monkeypatch):
    # every check of a resumed window is made undecided: sweep starts
    # re-run through simulate and raster cells from their starts, and the
    # outputs stay those of per-start simulate
    partial = []
    cycle = experiments._cycle

    def undecided(w, span, match_tol):
        if len(w) < span:
            partial.append(len(w))
            return experiments._UNDECIDED
        return cycle(w, span, match_tol)

    monkeypatch.setattr(experiments, "_cycle", undecided)
    pairs = list(make_theta_grid(3, 2)) + [(0.748491, 0.772301),
                                           (0.082719, 2.064601)]
    want = sweep_reference(pairs, 100, 2000, 5)
    assert not partial
    calls = count_simulate_calls(monkeypatch)
    assert sweep(pairs, samples_per_pair=100, max_steps=2000,
                 seed=5).pairs == want
    assert partial and len(calls) == len(partial)
    # the 64-lane pool hands three period-58 cells off between steps 256
    # and 512 and four at step 512; all seven run again from step 0
    monkeypatch.setattr(experiments, "_LANE_BLOCK", 64)
    xt, _ = tie_point(PERIOD58_CFG)
    bounds, res = (xt - 3.0, xt + 3.0, -0.03125, 2.96875), (33, 48)
    cells, steps = cell_reference(PERIOD58_CFG, bounds, res, FirstBranch(),
                                  4, 2000)
    partial.clear()
    starts = spy_lockstep(monkeypatch)
    grid = rasterize(PERIOD58_CFG, bounds, res, seed=4)
    assert np.array_equal(grid.cells, cells)
    assert np.array_equal(grid.steps, steps)
    assert partial and starts[0] == (experiments._CHECKPOINT, 7)
    assert starts[1][0] == 0 and starts[1][1] >= 7


@pytest.mark.parametrize("n", [255, 256, 300])
@pytest.mark.parametrize("policy", [FirstBranch(), SeededRandom()],
                         ids=["first", "random"])
def test_raster_cells_meeting_a_tie_around_the_checkpoint(monkeypatch,
                                                          policy, n):
    # 36 cells around a start whose n-th iterate is on D3 leave the pool at
    # the tie screen on step n; the pool keeps no checkpoint for them, as a
    # resumed lane would meet the screen again, and a lane from the start
    # would too, so both lane sets are empty and each cell re-runs through
    # simulate
    x0 = tie_preimage(FIG_CFG, n)
    h = 1e-12 * math.hypot(*x0)
    bounds = (x0[0] - h, x0[0] + h, x0[1] - h, x0[1] + h)
    cells, steps = cell_reference(FIG_CFG, bounds, (6, 6), policy, 3, 2000)
    assert set(steps.ravel().tolist()) == {n + 1}
    assert set(cells.ravel().tolist()) == (
        {1, 2} if isinstance(policy, SeededRandom) else {1})
    yields = spy_pool(monkeypatch)
    starts = spy_lockstep(monkeypatch)
    calls = count_simulate_calls(monkeypatch)
    grid = rasterize(FIG_CFG, bounds, (6, 6), policy=policy, seed=3)
    assert np.array_equal(grid.cells, cells)
    assert np.array_equal(grid.steps, steps)
    assert {int(s) for _, _, st in yields for s in st} == {n}
    assert starts == [(experiments._CHECKPOINT, 0), (0, 0)]
    assert len(calls) == 36


@pytest.mark.parametrize("n", [513, 700])
def test_raster_cells_meeting_a_tie_after_the_first_check(monkeypatch, n):
    # the pool hands the 36 cells off at step 512 with checkpoints; resumed
    # from step 256 they stop at the tie screen on step n and go straight
    # to simulate, with no lane set from their starts
    x0 = tie_preimage(FIG_CFG, n)
    h = 1e-12 * math.hypot(*x0)
    bounds = (x0[0] - h, x0[0] + h, x0[1] - h, x0[1] + h)
    cells, steps = cell_reference(FIG_CFG, bounds, (6, 6), FirstBranch(), 3,
                                  2000)
    assert set(steps.ravel().tolist()) == {n + 1}
    yields = spy_pool(monkeypatch)
    starts = spy_lockstep(monkeypatch)
    calls = count_simulate_calls(monkeypatch)
    grid = rasterize(FIG_CFG, bounds, (6, 6), seed=3)
    assert np.array_equal(grid.cells, cells)
    assert np.array_equal(grid.steps, steps)
    assert [(set(c.tolist()), set(st.tolist())) for _, c, st in yields] == [
        ({experiments._HANDOFF}, {512})]
    assert starts == [(experiments._CHECKPOINT, 36), (0, 0)]
    assert len(calls) == 36


def test_sweep_start_meeting_its_first_tie_after_the_checkpoint(monkeypatch):
    # the walk resumed from step 256 stops at the tie on step 300, and the
    # start re-runs through simulate on its (seed, pair, start) stream with
    # its certified budget
    x0 = tie_preimage(FIG_CFG, 300)
    mark = list(simulate(FIG_CFG, x0, max_steps=2000).points[256])
    res = certify(FIG_CFG)
    assert isinstance(res, LyapunovCertificate)
    budget = certified_budget(FIG_CFG, res, x0, 2000)
    runs = []

    def counted(*args, **kwargs):
        runs.append((tuple(args[1]), args[2], kwargs["max_steps"]))
        return simulate(*args, **kwargs)

    entered = spy_walk(monkeypatch)
    monkeypatch.setattr(experiments, "simulate", counted)
    out = experiments._pair_outcome(res, np.array([x0]), {0: mark}, 7, 2000,
                                    5, TIE_TOL)
    assert (out.nonconvergent_found, out.worst_seed) == (False, -1)
    assert runs == [(x0, SeededRandom((5, 7, 0)), budget)]
    assert [s for s, _ in entered][:1] == [experiments._CHECKPOINT]
    assert len(resumed(entered)) == 1


def test_sweep_starts_meeting_a_tie_after_the_checkpoint_are_not_resumed(
        monkeypatch):
    # more starts than the lane floor, all at a point whose 300th iterate
    # is on D3, leave the pool at the tie screen on step 300 under the tie
    # code and with no checkpoint: each goes straight to simulate, not to
    # a resumed walk
    x0, n = tie_preimage(FIG_CFG, 300), experiments._LANE_FLOOR + 4
    rng = np.random.default_rng

    def starts(seed=None):
        # pair 0's starts at seed 5; other streams are left as they are
        if isinstance(seed, np.random.SeedSequence) and \
                list(seed.entropy) == [5, 0]:
            return mock.Mock(uniform=lambda *args, size: np.tile(x0, (n, 1)))
        return rng(seed)

    monkeypatch.setattr(np.random, "default_rng", starts)
    pair = [(FIG_CFG.theta1, FIG_CFG.theta2)]
    want = sweep_reference(pair, n, 2000, 5)
    yields = spy_pool(monkeypatch)
    entered = spy_walk(monkeypatch)
    calls = count_simulate_calls(monkeypatch)
    assert sweep(pair, samples_per_pair=n, max_steps=2000,
                 seed=5).pairs == want
    assert [(set(c.tolist()), set(st.tolist())) for _, c, st in yields] == [
        ({experiments._TIE_HANDOFF}, {300})]
    assert [tuple(c) for c in calls] == [x0] * n and not resumed(entered)


@pytest.mark.parametrize("max_steps", [300, 511])
def test_budgets_below_the_first_check_do_not_resume(monkeypatch, max_steps):
    # the pool's limit is the budget, so its hand-offs keep no checkpoint
    # and re-run from their starts
    pairs = list(make_theta_grid(3, 2)) + [(0.748491, 0.772301),
                                           (0.082719, 2.064601)]
    want = sweep_reference(pairs, 100, max_steps, 5)
    entered = spy_walk(monkeypatch)
    calls = count_simulate_calls(monkeypatch)
    assert sweep(pairs, samples_per_pair=100, max_steps=max_steps,
                 seed=5).pairs == want
    assert calls and not resumed(entered)
    monkeypatch.setattr(experiments, "_LANE_BLOCK", 64)
    xt, _ = tie_point(PERIOD58_CFG)
    bounds, res = (xt - 3.0, xt + 3.0, -0.03125, 2.96875), (33, 48)
    cells, steps = cell_reference(PERIOD58_CFG, bounds, res, FirstBranch(),
                                  4, max_steps)
    starts = spy_lockstep(monkeypatch)
    grid = rasterize(PERIOD58_CFG, bounds, res, max_steps=max_steps, seed=4)
    assert np.array_equal(grid.cells, cells)
    assert np.array_equal(grid.steps, steps)
    assert starts[0] == (experiments._CHECKPOINT, 0) and starts[1][1] > 0


@pytest.mark.parametrize("samples", [30, 100])
def test_sweep_resumes_only_hand_offs_past_the_checkpoint(monkeypatch,
                                                          samples):
    # a 64-lane pool: with 30 starts a pair its floor hands the last lanes
    # off before step 256, and they re-run from their starts; with 100 the
    # floor and the first cycle check hand lanes off after it, and those
    # the outcome needs resume in the walk
    monkeypatch.setattr(experiments, "_LANE_BLOCK", 64)
    pairs = list(make_theta_grid(3, 2)) + [(0.748491, 0.772301),
                                           (0.082719, 2.064601)]
    want = sweep_reference(pairs, samples, 2000, 5)
    yields = spy_pool(monkeypatch)
    entered = spy_walk(monkeypatch)
    assert sweep(pairs, samples_per_pair=samples, max_steps=2000,
                 seed=5).pairs == want
    handed = [int(s) for _, c, st in yields
              for s in st[c == experiments._HANDOFF]]
    if samples == 30:
        assert handed and max(handed) <= experiments._CHECKPOINT
        assert not resumed(entered)
    else:
        assert any(256 < s < 512 for s in handed) and 512 in handed
        assert resumed(entered)
