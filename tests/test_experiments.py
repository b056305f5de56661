"""Simulation verdicts, cycle detection, raster and sweep drivers."""
import math
import os
import subprocess
import sys
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from drlines import cycles, dr, experiments
from drlines.cli import main
from drlines.dr import dr_multivalued
from drlines.geometry import (
    TIE_TOL,
    ProblemConfig,
    Region,
    bisector_data,
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
from dr_oracle import (band_edge, band_screen, detect_cycle_scan,
                       gap_branch_steps, on_tie_band, pool_exit_reference,
                       simulate_tree_reference, tie_point, tie_preimage,
                       verdict_code)
from geometry_oracle import classify_region
from test_differential import check_raster, check_sweep, check_tree

FIG_CFG = ProblemConfig(math.pi / 3, 2 * math.pi / 5)
PERIOD2_CFG = ProblemConfig(0.748491, 0.772301)
PERIOD58_CFG = ProblemConfig(0.082719, 2.064601)
PERIOD1410_CFG = ProblemConfig(0.703469, 3.138852)


def no_steps():
    """Patches under which a lane pool or a scalar step fails the test:
    a driver must reject a bad input before either."""
    def step(*args):
        raise AssertionError("a driver stepped before rejecting its input")

    return mock.patch.multiple(experiments, _pool=step, _steps=step)


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


def test_detect_cycle_rejects_bad_tolerances_and_windows():
    w = [(0.0, 0.0), (1.0, 0.0)] * 5
    # zero is a real match tolerance: exact repeats still match
    with mock.patch.object(experiments, "MATCH_TOL", 0.0):
        assert detect_cycle(w) == 2
    # a flat list, rows of three (whose first two columns repeat with
    # period 2), single columns and a stack of windows are not (m, 2) points
    for bad in ([0.0, 1.0] * 5, [(0.0, 0.0, 7.0), (1.0, 0.0, 7.0)] * 5,
                np.zeros((6, 1)), np.zeros((2, 6, 2)), 3.0):
        with pytest.raises(ValueError, match="points_window"):
            detect_cycle(bad)
    for empty in ([], (), np.empty((0, 2)), np.empty((0, 3))):
        assert detect_cycle(empty) is None


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
    assert find_period_brent(PERIOD1410_CFG, (0.392560, -0.351588)) == 1410
    assert find_period_brent(FIG_CFG, (1.3, 2.2), max_steps=30000) is None
    # the period-2 proof holds at step 2
    assert find_period_brent(PERIOD2_CFG, (0.101912, 0.189275),
                             max_steps=1) is None


def a1_coins():
    # the coins of a walk that takes the A1 branch at every tie
    return experiments._coins(FirstBranch())


def test_proven_walk_takes_its_coin_at_a_tie_and_brent_takes_a1():
    # a tie at the start and at step 10 of an orbit whose A1 branch leads
    # to the period-2 orbit, and A2's to p2's ball: the walk draws one coin
    # there and goes on through its branch as a walk from that point would
    consts = dr._constants(PERIOD2_CFG)
    c1, s1, c2, s2 = consts[:4]
    for n in (0, 10):
        x0 = tie_preimage(PERIOD2_CFG, n)
        # a budget that ends at the tie draws no coin
        v, *xt, steps = experiments._proven_walk(consts, *x0, 0, n, iter(()))
        assert (v, steps) == (Budget(), n)
        for coin, after in ((True, dr._branch(-0.5, c1, s1, *xt)),
                            (False, dr._branch(0.5, c2, s2, *xt))):
            got = experiments._proven_walk(consts, *x0, 0, 20000,
                                           iter([coin]))
            assert got == experiments._proven_walk(consts, *after, n + 1,
                                                   20000, iter(()))
            assert isinstance(got[0], Cycle if coin else ConvergedTo)
        # nor does one that ends at the tie's next point draw a second
        v, x, y, steps = experiments._proven_walk(consts, *x0, 0, n + 1,
                                                  iter([False]))
        assert (v, (x, y), steps) == (Budget(), dr._branch(0.5, c2, s2, *xt),
                                      n + 1)
        assert find_period_brent(PERIOD2_CFG, x0) == 2
    # on PERIOD58_CFG's tie point, A1 leads into a ball
    assert find_period_brent(PERIOD58_CFG, tie_point(PERIOD58_CFG)) is None


def test_a_tie_takes_one_coin_in_simulate_the_walk_and_iterate(capsys):
    # the 10th iterate of x0 is on D3, where A1 leads to the period-2 orbit
    # and A2 into p2's ball; the first coin of SeededRandom(0) picks A2, in
    # simulate, in the proven walk and in ``drlines iterate``
    x0 = tie_preimage(PERIOD2_CFG, 10)
    consts = dr._constants(PERIOD2_CFG)
    tr = simulate(PERIOD2_CFG, x0, SeededRandom(0))
    assert (tr.verdict, tr.steps_used) == (ConvergedTo(2), 14)
    assert experiments._proven_walk(
        consts, *x0, 0, 20000, experiments._coins(SeededRandom(0))) == (
            tr.verdict, *tr.points[-1], tr.steps_used)
    assert isinstance(experiments._proven_walk(consts, *x0, 0, 20000,
                                               a1_coins())[0], Cycle)
    assert main(["iterate", "--theta1", "0.748491", "--theta2", "0.772301",
                 "--x0", f"{x0[0]!r},{x0[1]!r}", "--steps", "14",
                 "--policy", "random", "--seed", "0"]) == 0
    assert [tuple(map(float, line.split()[1:]))
            for line in capsys.readouterr().out.splitlines()] == \
        list(tr.points)


def test_proven_walk_in_a_ball_and_below_the_proof_step():
    # a start inside p1's termination ball converges at step 0
    consts = dr._constants(PERIOD2_CFG)
    r1 = math.sqrt(consts[4])
    x0 = (-0.5 + 0.5 * r1, 0.25 * r1)
    assert experiments._proven_walk(consts, *x0, 0, 20000, a1_coins()) == (
        ConvergedTo(1), *x0, 0)
    assert find_period_brent(PERIOD2_CFG, x0) is None
    # a budget one step below the step of the proof proves nothing
    for cfg, x0, period in (
            (PERIOD2_CFG, (0.101912, 0.189275), 2),
            (PERIOD58_CFG, (-0.123641, -0.510395), 58),
            (PERIOD1410_CFG, (0.392560, -0.351588), 1410),
            (ProblemConfig(0.05, 0.1),
             (1.1672003185823576, 0.701385077992045), 8)):
        consts = dr._constants(cfg)
        v, _, _, steps = experiments._proven_walk(consts, *x0, 0, 200000,
                                                  a1_coins())
        assert v == Cycle(period)
        assert experiments._proven_walk(consts, *x0, 0, steps - 1,
                                        a1_coins())[0] == Budget()
        assert find_period_brent(cfg, x0, max_steps=steps - 1) is None
        assert find_period_brent(cfg, x0, max_steps=steps) == period


def test_failed_proof_tries_cost_at_most_the_walk_steps():
    # with every proof failing, a walk on the period-2 cycle keeps coming
    # back to its reference point, yet each reference's tries cost at most
    # its span, so all of them less than twice the walk's steps
    lags = []
    consts = dr._constants(PERIOD2_CFG)
    with mock.patch.object(experiments, "_proof",
                           lambda consts, x, y, k: lags.append(k)):
        v, _, _, steps = experiments._proven_walk(consts, 0.101912, 0.189275,
                                                  0, 20000, a1_coins())
    assert (v, steps) == (Budget(), 20000)
    assert len(lags) > 100 and sum(lags) < 2 * steps


def test_window_period_is_a_multiple_of_the_proven_one():
    # seed-0 sweep pair 30, start 12: the lag-203 gaps of the window are
    # 4.8e-8, above MATCH_TOL, while the lag-406 gaps match, so the window
    # reports twice the period that the proof shows
    cfg = ProblemConfig(0.02, 2.365106640519112)
    x0 = (-1.5906472813236632, 1.0313974526974659)
    tr = simulate(cfg, x0, record=False)
    assert (tr.verdict, tr.steps_used) == (Cycle(406), 14336)
    assert find_period_brent(cfg, x0) == 203
    cert = cycles.certify_cycle(cfg, tr.points[-1], 406)
    assert cert is not None and cert.period == 203
    assert tr.verdict.period % cert.period == 0


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
    cells, steps = check_raster(FIG_CFG, (-3, 3, -3, 3), (16, 12),
                                SeededRandom(), 2000, 9, run=simulate)
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
    assert a.pairs == check_sweep(grid, 5, 5000, 1, run=simulate)


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep([(0.3, 0.9)], samples_per_pair=0)
    with pytest.raises(ValueError):
        sweep([(0.9, 0.3)])
    # sample counts and seeds fail before any start runs: each of these
    # once came back in a SweepGrid from an empty grid, and failed inside
    # NumPy on any other
    with no_steps():
        for grid in ([], [(1.0, 1.5)]):
            for kwargs in ({"samples_per_pair": 2.5}, {"seed": 2.5},
                           {"seed": np.float64(3.0)}):
                with pytest.raises(TypeError, match="integer"):
                    sweep(grid, **kwargs)
            with pytest.raises(ValueError,
                               match="seed must be a non-negative integer"):
                sweep(grid, seed=-1)
    # operator.index's integers, bools and NumPy's included, count as ints
    one = sweep([(1.0, 1.5)], samples_per_pair=1, max_steps=2000, seed=3)
    for samples in (True, np.int64(1)):
        got = sweep([(1.0, 1.5)], samples_per_pair=samples, max_steps=2000,
                    seed=np.int32(3))
        assert got == one and type(got.samples_per_pair) is int


def test_sweep_rejects_a_bad_pair_before_any_start():
    # the bad pair is the last: no pool starts
    with no_steps(), pytest.raises(ValueError, match="theta1 = 2.0 violates"):
        sweep([*make_theta_grid(4, 4), (2.0, 1.0)], samples_per_pair=3,
              max_steps=500)


def test_rasterize_rejects_budgets_past_int32_before_any_step():
    # step counts are int32: a budget of 2**31 fails before the pool
    # starts, and 2**31 - 1 from a cell centred on p1, in its ball,
    # returns at once
    bounds = (-0.6, -0.4, -0.1, 0.1)
    with no_steps(), pytest.raises(ValueError,
                                   match=r"max_steps must be below 2\*\*31"):
        rasterize(FIG_CFG, bounds, (1, 1), max_steps=2 ** 31)
    grid = rasterize(FIG_CFG, bounds, (1, 1), max_steps=2 ** 31 - 1)
    assert (grid.cells.tolist(), grid.steps.tolist()) == ([[1]], [[0]])


def test_rasterize_takes_an_integer_resolution_only():
    # a float resolution fails before the pool starts, with operator.index's
    # message, where (2.5, 2) once passed the checks and failed inside
    # np.empty; NumPy's integers pass, and the grid's resolution holds ints
    bounds = (-2.0, 2.0, -2.0, 2.0)
    for res in ((2.5, 2), (2, 2.0), (np.float64(3.0), 3)):
        with no_steps(), pytest.raises(
                TypeError, match="cannot be interpreted as an integer"):
            rasterize(FIG_CFG, bounds, res)
    want = rasterize(FIG_CFG, bounds, (3, 2))
    grid = rasterize(FIG_CFG, bounds, (np.int64(3), np.int32(2)))
    assert grid.resolution == (3, 2)
    assert [type(v) for v in grid.resolution] == [int, int]
    assert np.array_equal(grid.cells, want.cells)
    assert np.array_equal(grid.steps, want.steps)


def test_make_theta_grid_is_admissible():
    grid = make_theta_grid(10, 7)
    assert len(grid) == 70
    for t1, t2 in grid:
        assert 0.0 < t1 <= math.pi / 2 + 1e-15
        assert t1 < t2 < math.pi
        ProblemConfig(t1, t2)
    with pytest.raises(ValueError):
        make_theta_grid(0, 5)


def test_detect_cycle_matches_per_period_scan(monkeypatch):
    # no cycle check before the budget, so each trace runs all 1500 steps
    monkeypatch.setattr(experiments, "CHECK_EVERY", 10 ** 6)
    windows = []
    for cfg, x0 in ((PERIOD2_CFG, (0.101912, 0.189275)),
                    (PERIOD58_CFG, (-0.123641, -0.510395)),
                    (PERIOD58_CFG, (1.7, -2.4)),
                    (FIG_CFG, (2.0, 1.0))):
        pts = simulate(cfg, x0, max_steps=1500).points
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
    assert classify_region(cfg, (xt - 1.5 + 8.5 * 3.0 / 17,
                                 1.2 - 7.5 * 2.4 / 15)) is Region.D3
    check_raster(cfg, (xt - 1.5, xt + 1.5, -1.2, 1.2), (17, 15), policy,
                 max_steps, 4, run=simulate)


PAIRS = list(make_theta_grid(3, 2)) + [(0.748491, 0.772301),
                                       (0.082719, 2.064601)]


@pytest.mark.parametrize("samples,max_steps", [(30, 300), (1024, 2000),
                                               (30, 1), (30, 7), (30, 511),
                                               (30, 513), (30, 1023),
                                               (30, 1024), (30, 1025)])
def test_sweep_matches_per_start_simulate(samples, max_steps):
    # certified and uncertified pairs, some with a nonconvergent start;
    # 1024 samples are more starts than the lane pool holds at once, and
    # hand-offs resume from step min(max_steps, 1024): from the budget
    # itself up to 1024, one step short of it at 1025
    want = check_sweep(PAIRS, samples, max_steps, 5, run=simulate)
    assert any(p.eq26_holds for p in want)
    assert any(p.nonconvergent_found for p in want)


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


@pytest.mark.parametrize("max_steps", [512, 700, 1024, 1100, 1536])
@pytest.mark.parametrize("policy", [FirstBranch(), SeededRandom()],
                         ids=["first", "random"])
def test_rasterize_settles_late_cycles_and_budgets_in_lanes(policy,
                                                            max_steps):
    # more period-58 basin cells than the lane pool holds: cells that
    # cycle at step 1024 or 1536, budgets at and between cycle checks and
    # a cycle found at a budget between them, with the centre cell on D3
    # so that one lane meets a tie
    xt, _ = tie_point(PERIOD58_CFG)
    assert classify_region(PERIOD58_CFG, (xt - 3.0 + 32.5 * 6.0 / 65,
                                          0.0)) is Region.D3
    cells, steps = check_raster(PERIOD58_CFG, (xt - 3.0, xt + 3.0, -3.0, 3.0),
                                (65, 65), policy, max_steps, 4, run=simulate)
    late = {(c, s) for c, s in zip(cells.ravel().tolist(),
                                   steps.ravel().tolist()) if c in (0, 3)}
    assert late == {512: {(0, 512)}, 700: {(0, 700)},
                    1024: {(0, 1024), (3, 1024)},
                    1100: {(3, 1024), (3, 1100)},
                    1536: {(3, 1024), (3, 1536)}}[max_steps]


@pytest.mark.parametrize("policy", [FirstBranch(), SeededRandom()],
                         ids=["first", "random"])
def test_rasterize_settles_a_period_1410_lane(policy):
    # the cycle shows at step 49664, so the lane's window has wrapped past
    # 4096 points many times; the floor is lowered so that a single cell
    # runs through the lane passes
    x, y, h = 0.392560, -0.351588, 1e-12
    cells, steps = check_raster(PERIOD1410_CFG, (x - h, x + h, y - h, y + h),
                                (1, 1), policy, 60000, 0, pool=(4096, 1),
                                run=simulate)
    assert (cells[0, 0], steps[0, 0]) == (3, 49664)


@pytest.mark.parametrize("window", [1, 4, 7, 116, 4096])
def test_cycle_checks_see_exactly_the_last_window_points(monkeypatch,
                                                         window):
    # the per-step oracle scans exactly the last window points at each
    # check: the scalar walk, its leaves checked one after another, with
    # forks at step 0 and step 20, gives its leaves
    for cfg, x0, check_every, n_leaves in (
            (PERIOD2_CFG, tie_preimage(PERIOD2_CFG, 20), 5, 2),
            (PERIOD2_CFG, tie_point(PERIOD2_CFG), 97, 2),
            (PERIOD58_CFG, (-0.123641, -0.510395), 512, 1),
            (PERIOD1410_CFG, (0.392560, -0.351588), 97, 1)):
        assert len(check_tree(cfg, x0, EnumerateTree(4), 1300, True,
                              (check_every, window))) == n_leaves
    # and so do lanes, checked in one batch at each check step, once at a
    # step that is both a cycle check and the budget; the floor at one
    # lane keeps all 32 in lanes
    monkeypatch.setattr(experiments, "WINDOW", window)
    monkeypatch.setattr(experiments, "_LANE_FLOOR", 1)
    rng = np.random.default_rng(window)
    xs = np.hstack([rng.uniform(-3.0, 3.0, size=(2, 24)),
                    rng.normal(scale=1e-3, size=(2, 8))
                    + [[-0.123641], [-0.510395]]])
    traces = [simulate_tree_reference(PERIOD58_CFG, p, FirstBranch(), 1300,
                                      False, window)[0] for p in zip(*xs)]
    assert lockstepped(PERIOD58_CFG, *xs, 1300) == [
        (verdict_code(t.verdict), t.steps_used) for t in traces]
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


POLICIES = (EnumerateTree(8), SeededRandom((3, 1)), FirstBranch())


@pytest.mark.parametrize("window", [4096, 200, 7, 1, 0])
@pytest.mark.parametrize("record", [True, False], ids=["record", "last"])
def test_simulate_tree_window_buffer_matches_deque(window, record):
    # the per-step oracle, with detect_cycle at its checks, keeps its
    # points in a list, no window buffer; starts on D3 fork under
    # EnumerateTree at once, the preimages of D3 after 20 steps, with a
    # window of 21 points to copy
    cases = [(FIG_CFG, (1.7, -2.4), 3000),
             (PERIOD2_CFG, (0.101912, 0.189275), 1500),
             (PERIOD58_CFG, (-0.123641, -0.510395), 2100),
             (PERIOD58_CFG, (1.7, -2.4), 1100),
             (PERIOD1410_CFG, (0.392560, -0.351588), 5000)]
    cases += [(cfg, tie_point(cfg), 1500)
              for cfg in (FIG_CFG, PERIOD2_CFG, PERIOD58_CFG, PERIOD1410_CFG)]
    cases += [(cfg, tie_preimage(cfg, 20), 1500)
              for cfg in (FIG_CFG, PERIOD2_CFG)]
    verdicts = {type(t.verdict) for cfg, x0, max_steps in cases
                for policy in POLICIES for every in (512, 97)
                for t in check_tree(cfg, x0, policy, max_steps, record,
                                    (every, window), detect_cycle)}
    assert verdicts == ({ConvergedTo, Cycle, Budget} if window >= 4
                        else {ConvergedTo, Budget})


@pytest.mark.parametrize("window", [0, 1, 7, 4096])
def test_walk_matches_per_step_loop(window):
    # the record flag off at check interval 7; the start on the preimage
    # forks at step 20, so the A2 leaf is born on step 21, a check step
    # for check_every 3, 7 and 21
    cases = [(FIG_CFG, (1.7, -2.4), 2000),
             (PERIOD2_CFG, (0.101912, 0.189275), 1100),
             (PERIOD58_CFG, (-0.123641, -0.510395), 1100),
             (PERIOD1410_CFG, (0.392560, -0.351588), 2100),
             (FIG_CFG, tie_point(FIG_CFG), 600),
             (PERIOD58_CFG, tie_point(PERIOD58_CFG), 1100),
             (PERIOD2_CFG, tie_preimage(PERIOD2_CFG, 20), 1100)]
    forked = {(x0, every) for cfg, x0, max_steps in cases
              for policy in POLICIES for every in (3, 7, 21, 512)
              if len(check_tree(cfg, x0, policy, max_steps, every != 7,
                                (every, window), detect_cycle)) == 2}
    assert {(cases[-1][1], every) for every in (3, 7, 21)} <= forked
def test_walk_matches_per_step_loop_on_the_period_1410_orbit(monkeypatch):
    x0 = (0.392560, -0.351588)
    got = simulate_tree(PERIOD1410_CFG, x0, FirstBranch(), max_steps=60000,
                        record=False)
    assert got == simulate_tree_reference(PERIOD1410_CFG, x0, FirstBranch(),
                                          60000, False, detect=detect_cycle)
    assert got[0].verdict == Cycle(1410) and got[0].steps_used == 49664
    # with no check before the budget, the budget's check still sees just
    # the last 7 points
    monkeypatch.setattr(experiments, "WINDOW", 7)
    monkeypatch.setattr(experiments, "CHECK_EVERY", 10 ** 6)
    got = simulate_tree(PERIOD1410_CFG, x0, FirstBranch(), max_steps=20000,
                        record=False)
    assert got == simulate_tree_reference(PERIOD1410_CFG, x0, FirstBranch(),
                                          20000, False, 7, 10 ** 6)


def test_huge_starts_run_quietly_in_the_walk_and_brent():
    # near 1e308 the NumPy screens of _cycles and of the proven walk
    # overflow where math.hypot does not; the overflow stays quiet (a
    # RuntimeWarning fails here), simulate_tree's answers are the per-step
    # loop's, and the orbits converge, so Brent's search proves no cycle
    for cfg, x0 in ((PERIOD1410_CFG, (1.2e308, -1.2e308)),
                    (ProblemConfig(0.17068949981565193, 0.2687470063620758),
                     (1.6928910190876777e+308, 1.5530428034143124e+307)),
                    (ProblemConfig(0.10674980796552033, 0.3721763519994903),
                     (1.1335608497245421e+308, -1.266901425514969e+308))):
        for max_steps in (5, 20, 700):
            assert find_period_brent(cfg, x0, max_steps) is None
            assert simulate_tree(cfg, x0, FirstBranch(), max_steps) == \
                simulate_tree_reference(cfg, x0, FirstBranch(), max_steps)


def test_bad_budgets_and_tolerances_fail_loudly():
    x0 = (0.101912, 0.189275)
    # the drivers check their inputs before any step
    with no_steps():
        for bad in (0, -3):
            with pytest.raises(ValueError, match="max_steps"):
                find_period_brent(PERIOD2_CFG, x0, max_steps=bad)
            # a certified pair's hand-offs get certified budgets, so a bad
            # budget must fail before any start runs
            with pytest.raises(ValueError, match="max_steps"):
                sweep([(FIG_CFG.theta1, FIG_CFG.theta2)], samples_per_pair=5,
                      max_steps=bad)
        # budgets and leaf caps that are not integers; range would reject
        # a budget only at the first check or after the pool has run
        for bad in (1000.0, 600.5, np.float64(700.0)):
            for run in (lambda: simulate(PERIOD1410_CFG, (0.392560, -0.351588),
                                         max_steps=bad),
                        lambda: find_period_brent(PERIOD2_CFG, x0,
                                                  max_steps=bad),
                        lambda: rasterize(FIG_CFG, (-2, 2, -2, 2), (20, 20),
                                          max_steps=bad),
                        lambda: sweep([(1.0, 1.5)], 3, max_steps=bad),
                        lambda: EnumerateTree(bad)):
                with pytest.raises(TypeError, match="integer"):
                    run()
    # NumPy's integers are integers
    assert simulate(PERIOD2_CFG, x0, EnumerateTree(np.int64(2)),
                    max_steps=np.int32(700)).verdict == Cycle(2)
    # zero is a real match tolerance: exact matches only (a period-6 float
    # cycle here, against 2 at 1e-8), in the window; Brent's search reads
    # no tolerance and proves the period 2
    with mock.patch.object(experiments, "MATCH_TOL", 0.0):
        assert simulate(PERIOD2_CFG, x0).verdict == Cycle(6)
        assert find_period_brent(PERIOD2_CFG, x0) == 2


@pytest.mark.parametrize("policy", ["random", None, FirstBranch,
                                    (SeededRandom(1),)],
                         ids=["name", "none", "class", "tuple"])
def test_unknown_policies_fail_loudly(policy):
    # anything but the three policies would run as FirstBranch
    for run in (lambda: simulate(FIG_CFG, (2.0, 1.0), policy=policy),
                lambda: simulate_tree(FIG_CFG, (2.0, 1.0), policy=policy),
                lambda: rasterize(FIG_CFG, (-2, 2, -2, 2), (4, 4),
                                  policy=policy)):
        with no_steps(), pytest.raises(ValueError,
                                       match="policy must be FirstBranch"):
            run()


def test_seeds_numpy_rejects_fail_loudly():
    # a SeededRandom stream is built only at a first tie, and rasterize
    # uses its seed only for cells that meet one
    for bad, error in ((-1, ValueError), ((3, -1), ValueError),
                       (1.5, TypeError)):
        with pytest.raises(error):
            SeededRandom(bad)
    for bad, error in ((-1, ValueError), (np.int64(-2), ValueError),
                       (1.5, TypeError)):
        for policy in (FirstBranch(), SeededRandom()):
            with no_steps(), pytest.raises(error):
                rasterize(FIG_CFG, (-2, 2, -2, 2), (4, 4), policy=policy,
                          seed=bad)


def test_seed_checks_leave_numpy_random_unimported():
    # NumPy 2 imports numpy.random on first use; a raster that meets no tie
    # builds no stream, so its seed check must not pay for that import
    code = """if True:
        import sys
        from drlines.experiments import SeededRandom, rasterize
        from drlines.geometry import ProblemConfig
        cfg = ProblemConfig(1.0471975511965976, 1.2566370614359172)
        rasterize(cfg, (-2, 2, -2, 2), (8, 8), policy=SeededRandom(3))
        print('numpy.random' in sys.modules)
        for bad in (-1, 1.5, (1, -2)):
            try:
                SeededRandom(bad)
            except (TypeError, ValueError) as e:
                print(type(e).__name__)
        print('numpy.random' in sys.modules)
    """
    src = os.path.dirname(os.path.dirname(experiments.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "ValueError", "TypeError", "ValueError",
                           "False"]


def test_rasterize_finishes_a_lone_period_1410_cell_in_the_walk():
    # 2x17 cells: the bottom-right one is the period-1410 start, the right
    # column's others lie in p2's ball and the left column's reach p1's
    # within 250 steps, so the long cell is soon alone
    x, y, hy = 0.392560, -0.351588, 0.035
    bounds, res = (x - 1.5, x + 0.5, y - 0.5 * hy, y + 16.5 * hy), (2, 17)
    cells, steps = check_raster(PERIOD1410_CFG, bounds, res, FirstBranch(),
                                60000, 0, run=simulate)
    assert (cells[16, 1], steps[16, 1]) == (3, 49664)
    cells[16, 1] = steps[16, 1] = 0
    assert set(cells.ravel().tolist()) == {0, 1, 2}
    assert steps.max() <= 250


@pytest.mark.parametrize("window", [7, 4096])
def test_lane_tails_resume_in_the_walk_with_their_windows(monkeypatch,
                                                          window):
    # 34 lanes that reach p1's ball within 330 steps and the period-1410
    # start: the set drops below the floor when its fourth lane is done,
    # and the lanes still live at the next interval's start, step 513, go
    # on in the walk from there with their step counts and last window
    # points, to simulate's verdicts
    monkeypatch.setattr(experiments, "WINDOW", window)
    x, y = 0.392560, -0.351588
    xs = [x - d for d in (1.0, 1.1) for _ in range(17)] + [x]
    ys = [y + 0.035 * j for _ in range(2) for j in range(17)] + [y]
    traces = simulated(PERIOD1410_CFG, xs, ys, 60000)
    got = lockstepped(PERIOD1410_CFG, xs, ys, 60000)
    assert got == [(verdict_code(t.verdict), t.steps_used) for t in traces]
    assert got[-1] == ((3, 49664) if window == 4096 else (0, 60000))
    below = sorted(t.steps_used for t in traces)[3] + 1
    assert below <= experiments.CHECK_EVERY
    assert [t.steps_used > experiments.CHECK_EVERY
            for t in traces].count(True) == 1


def lockstepped(cfg, xs, ys, max_steps):
    # _lockstep's (code, steps) per lane from step 0
    codes, steps = experiments._lockstep(
        experiments._lanes(dr._constants(cfg), np.asarray(xs),
                           np.asarray(ys)), max_steps)
    return list(zip(codes.tolist(), steps.tolist()))


def simulated(cfg, xs, ys, max_steps):
    return [simulate(cfg, p, max_steps=max_steps, record=False)
            for p in zip(xs, ys)]


@pytest.mark.parametrize("thetas, max_steps", [
    ((0.02, 3.0), 3000), ((0.1, 3.1), 3000), ((0.02, 0.05), 3000),
    ((0.02, 3.0), 300), ((0.02, 3.0), 513), ((0.02, 3.0), 700)])
def test_lockstep_equals_simulate_lane_by_lane(monkeypatch, thetas,
                                               max_steps):
    # 40 lanes that enter a ball inside an interval, or end on the budget:
    # after a short interval (300), one step past a check (513) or inside
    # the second interval (700); the floor at one lane keeps them all in
    # lanes to their verdicts.  The raster's lane sets, resumed from step
    # 256 with partial windows, give per-cell simulate's picture too
    cfg = ProblemConfig(*thetas)
    check_raster(cfg, (-3.0, 3.0, -3.0, 3.0), (6, 6), FirstBranch(),
                 max_steps, 0, pool=(4096, 1), run=simulate)
    monkeypatch.setattr(experiments, "_LANE_FLOOR", 1)
    xs, ys = np.random.default_rng(5).uniform(-3.0, 3.0, size=(2, 40))
    traces = simulated(cfg, xs, ys, max_steps)
    assert lockstepped(cfg, xs, ys, max_steps) == [
        (verdict_code(t.verdict), t.steps_used) for t in traces]
    every = experiments.CHECK_EVERY
    inside = [t.steps_used for t in traces
              if isinstance(t.verdict, ConvergedTo)
              and t.steps_used % every and t.steps_used > every]
    budgets = [t for t in traces if isinstance(t.verdict, Budget)]
    assert len(inside) >= 10 if max_steps == 3000 and thetas[1] > 1.0 \
        else len(budgets) >= 10


@pytest.mark.parametrize("n, max_steps", [(300, 2000), (700, 2000),
                                          (512, 2000), (700, 700)])
def test_lockstep_stops_at_a_tie_planted_mid_interval(monkeypatch, n,
                                                      max_steps):
    # a lane whose n-th iterate is on D3 among 40 that are not: inside an
    # interval (steps 300 and 700) it stops there for a re-run from its
    # start, as it does at a check step (512), where its window is checked
    # first; at a budget of n the budget comes first, and the lane gets
    # simulate's verdict.  The others keep simulate's verdicts
    monkeypatch.setattr(experiments, "_LANE_FLOOR", 1)
    rng = np.random.default_rng(n)
    xs, ys = rng.uniform(-3.0, 3.0, size=(2, 41))
    xs[17], ys[17] = tie_preimage(FIG_CFG, n)
    traces = simulated(FIG_CFG, xs, ys, max_steps)
    want = [(verdict_code(t.verdict), t.steps_used) for t in traces]
    assert traces[17].steps_used == (n if n == max_steps else n + 1)
    got = lockstepped(FIG_CFG, xs, ys, max_steps)
    # the others are done before step 512: only the planted lane meets a
    # check, at step 512 once it lives to it, and at the budget
    assert max(t.steps_used for t in traces[:17] + traces[18:]) < 512
    if n < max_steps:
        assert got[17][0] == experiments._TIE_HANDOFF
        want[17] = got[17]
    assert got == want


def test_raster_lane_sets_split_by_their_memory_cap_match_simulate(
        monkeypatch):
    # with _HIST_POINTS at 2^18 a lane set holds at most 69 lanes at 3000
    # steps, and the floor at one lane keeps every set in lanes: the 394
    # hand-offs of the 20x20 (0.02, 3.0) raster run in 6 sets, and the
    # picture is per-cell simulate's
    monkeypatch.setattr(experiments, "_HIST_POINTS", 1 << 18)
    sets = []
    room = experiments._room

    def spy(rows, idx, more):
        # a set's first buffer holds one point a lane
        if len(rows) == 1:
            sets.append(len(idx))
        return room(rows, idx, more)

    monkeypatch.setattr(experiments, "_room", spy)
    check_raster(ProblemConfig(0.02, 3.0), (-3.0, 3.0, -3.0, 3.0), (20, 20),
                 FirstBranch(), 3000, 0, pool=(4096, 1), run=simulate)
    assert sets == [66] * 4 + [65] * 2


def lane_branch(consts, x, y):
    # one step of NumPy lanes (x, y) as the pool takes it, and whether
    # each lane is clear of the tie band: (x', y', clear)
    gap, bx, by = dr._lane_gap(*consts[:4], x, y)
    return bx, by, dr._lane_clear(gap, x, y)


def cycle(w, span):
    # _cycles on one window, None where it answers 0
    return experiments._cycles(w, span)[0] or None


@pytest.mark.parametrize("n", [0, 64, 150])
def test_pool_builds_each_lane_once_in_blocks(monkeypatch, n):
    # a 64-lane pool asks its builder for contiguous blocks of at most 64
    # lanes that cover [0, n) once; every lane leaves at the code, step and
    # point, bit for bit, at which it leaves stepped alone, in a pool of 64
    # lanes and in one that holds all n at once.  The latter steps them all
    # in its tail, from step 0 together, where at mark 150 lanes leave
    # mid-block and on a block's last visit, and at mark 20 at the mark
    bounds, res = (-3.0, 3.0, -3.0, 3.0), (15, 10)
    consts = dr._constants(PERIOD58_CFG)
    calls, blocks = [], []

    def lanes_at(lo, hi):
        calls.append((lo, hi))
        return experiments._lanes(consts, *experiments._cell_centres(
            bounds, res, np.arange(lo, hi)))

    def lane_block(pts, lane_consts):
        blocks.append(len(pts) - 1)
        return dr._lane_block(pts, lane_consts)

    monkeypatch.setattr(experiments, "_lane_block", lane_block)
    seen = set()
    for mark in (150, 20):
        x, y = experiments._cell_centres(bounds, res, np.arange(n))
        want = [pool_exit_reference(consts, *p, mark)
                for p in zip(x.tolist(), y.tolist())]
        for block in (4096, 64):
            calls.clear()
            blocks.clear()
            monkeypatch.setattr(experiments, "_LANE_BLOCK", block)
            codes, steps, points = experiments._pool(lanes_at, n, mark)
            assert list(zip(codes.tolist(), steps.tolist())) == [
                (c, s) for c, s, _ in want]
            assert points.shape == (n, 2) and points.tobytes() == np.array(
                [p for *_, p in want], dtype=float).tobytes()
            if block == 4096:
                assert calls == ([(0, n)] if n else [])
                # block b covers steps ends[b] - blocks[b] .. ends[b] - 1
                ends = np.cumsum(blocks)
                for s in steps.tolist():
                    last = s == ends[np.searchsorted(ends, s, "right")] - 1
                    seen.add("mark" if s == mark else
                             "last" if last else "mid")
        assert all(0 < hi - lo <= 64 for lo, hi in calls)
        # each block starts where the last one ended, from 0 up to n
        assert [0, *(hi for _, hi in calls)] == [*(lo for lo, _ in calls), n]
    assert seen == ({"mid", "last", "mark"} if n else set())


# 33x48 period-58 cells, whose centre 1567 of 1584 (last row, middle
# column) is on D3 and nine of which cycle, for a 64-lane pool
REFILLED = (tie_point(PERIOD58_CFG)[0] - 3.0, tie_point(PERIOD58_CFG)[0] + 3.0,
            -0.03125, 2.96875), (33, 48)


@pytest.mark.parametrize("max_steps", [1, 7, 300, 2000])
@pytest.mark.parametrize("policy", [FirstBranch(), SeededRandom()],
                         ids=["first", "random"])
def test_rasterize_refills_match_per_cell_simulate(policy, max_steps):
    # a 64-lane pool refills many times; the cell on D3 is taken in by a
    # late refill
    tie = experiments._cell_centres(*REFILLED, 47 * 33 + 16)
    assert tie[1] == 0.0
    assert classify_region(PERIOD58_CFG, tie) is Region.D3
    cells, _ = check_raster(PERIOD58_CFG, *REFILLED, policy, max_steps, 4,
                            pool=(64, 32), run=simulate)
    assert max_steps < 2000 or np.count_nonzero(cells == 3) == 9


@pytest.mark.parametrize("samples", [24, 100])
def test_sweep_refills_match_per_start_simulate(samples):
    # 24 starts do not divide a 64-lane pool and 100 do not fit in it, so
    # pairs straddle refills; certified pairs and nonconvergent starts
    want = check_sweep(PAIRS, samples, 300, 5, pool=(64, 32), run=simulate)
    assert any(p.eq26_holds for p in want)
    assert any(p.nonconvergent_found for p in want)


@pytest.mark.parametrize("max_steps", [50, 700])
@pytest.mark.parametrize("bounds", [(1e200, 2e200, 1e200, 2e200),
                                    (9e307, 1.1e308, -1.1e308, -9e307)],
                         ids=["1e200", "1e308"])
def test_huge_starts_raster_quietly_as_simulate(bounds, max_steps):
    # squares of these starts overflow in the lanes' ball tests, while the
    # tie band stays finite, quietly (a RuntimeWarning fails here); with
    # the floor at one lane the cells run through the pool and a resumed
    # lane set
    check_raster(FIG_CFG, bounds, (4, 4), FirstBranch(), max_steps, 0,
                 pool=(4096, 1))


def planted(x, y, normal, ulps):
    # (x, y) with each coordinate moved |ulps| ulps along normal's sign
    # (against it for ulps < 0)
    def move(v, d):
        for _ in range(abs(ulps)):
            v = math.nextafter(v, math.copysign(math.inf, d * ulps))
        return v

    return (move(x, normal[0]) if normal[0] else x,
            move(y, normal[1]) if normal[1] else y)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(t1=st.floats(0.02, math.pi / 2), t2_frac=st.floats(0.01, 0.99),
       anchor=st.sampled_from(["bisector1", "bisector2", "axis"]),
       log_t=st.floats(-3.0, 300.0), sign=st.sampled_from([-1.0, 1.0]),
       zero=st.booleans(), outward=st.booleans(), ulps=st.integers(-4, 4))
@example(t1=math.pi / 3, t2_frac=0.25, anchor="bisector1", log_t=0.0,
         sign=1.0, zero=False, outward=True, ulps=1)
@example(t1=math.pi / 3, t2_frac=0.25, anchor="axis", log_t=0.0,
         sign=-1.0, zero=True, outward=False, ulps=0)
@example(t1=0.703469, t2_frac=0.99, anchor="bisector2", log_t=300.0,
         sign=-1.0, zero=False, outward=True, ulps=-1)
def test_lanes_steps_and_dr_multivalued_share_the_tie_band(
        t1, t2_frac, anchor, log_t, sign, zero, outward, ulps):
    # points on either side of the tie band's edge, moved by up to four
    # ulps: from a bisector 1e-3 to 1e300 from c along it, from c, or
    # along the axis, with y = +-0.0, from the axis tie point; the scalar
    # loop stops, the lane is not clear and dr_multivalued finds D3
    # exactly where the band test holds
    cfg = ProblemConfig(t1, t1 + (math.pi - t1) * t2_frac)
    bd = bisector_data(cfg)
    if anchor == "axis":
        base = (tie_point(cfg)[0], math.copysign(0.0, sign))
        normal = (sign, 0.0)
    elif zero:
        # at c each bisector runs along the other's normal: go diagonally
        base = bd.c
        normal = ((bd.n1[0] + bd.n2[0]) * sign / math.sqrt(2.0),
                  (bd.n1[1] + bd.n2[1]) * sign / math.sqrt(2.0))
    else:
        n = bd.n1 if anchor == "bisector1" else bd.n2
        t = sign * 10.0 ** log_t
        base, normal = (bd.c[0] - t * n[1], bd.c[1] + t * n[0]), n
    inside, off = band_edge(cfg, base, normal)
    x, y = planted(*(off if outward else inside), normal, ulps)
    consts = dr._constants(cfg)
    on = on_tie_band(x, y, dr._gap(*consts[:4], x, y))
    code = dr._steps(*consts, x, y, 1, array("d"))[0]
    *_, clear = lane_branch(consts, np.array([x]), np.array([y]))
    region = dr_multivalued(cfg, (x, y)).region
    assert (code == 0, not clear[0], region is Region.D3) == (on, on, on)
    if ulps == 0:
        assert on != outward


def test_pool_hands_off_at_the_tie_band_exactly_where_steps_stops(
        monkeypatch):
    # starts planted on either side of the tie band's edge, moved by up to
    # two ulps, along both bisectors and the axis in four configs, and a
    # few off D3, run through a pool of 64 lanes, which refills: every lane
    # the pool hands off at the tie band makes _steps stop at once from
    # its point, and no other lane that leaves does
    monkeypatch.setattr(experiments, "_LANE_BLOCK", 64)
    rows, starts = [], []
    for cfg in (FIG_CFG, PERIOD2_CFG, PERIOD58_CFG, PERIOD1410_CFG):
        bd = bisector_data(cfg)
        bases = [(tie_point(cfg), (1.0, 0.0)), (tie_point(cfg), (-1.0, 0.0))]
        for n in (bd.n1, bd.n2):
            bases += [((bd.c[0] - t * n[1], bd.c[1] + t * n[0]), n)
                      for t in (-1e6, -0.7, 0.3, 2.0, 1e200)]
        points = [planted(*p, normal, ulps) for base, normal in bases
                  for p in band_edge(cfg, base, normal) for ulps in (-2, 0, 2)]
        points += [(2.0, 1.0), (-1.3, -0.4), cfg.p1]
        starts += points
        rows += [dr._constants(cfg)] * len(points)
    rows, starts = np.array(rows), np.array(starts)
    codes, _, points = experiments._pool(
        lambda lo, hi: experiments._lanes(rows[lo:hi], *starts[lo:hi].T),
        len(starts), experiments._checkpoint(40))
    assert len(codes) == len(starts)
    for i, (code, (x, y)) in enumerate(zip(codes.tolist(), points.tolist())):
        stops = dr._steps(*rows[i].tolist(), x, y, 1, array("d"))[0] == 0
        assert stops == (code == experiments._TIE_HANDOFF)
    assert {experiments._TIE_HANDOFF, experiments._HANDOFF, 1, 2} <= set(
        codes.tolist())


def test_a_nan_gap_is_not_clear_of_the_tie_band():
    consts = dr._constants(FIG_CFG)
    x = np.array([math.nan, 1.0, math.inf])
    y = np.array([0.0, math.nan, -math.inf])
    with np.errstate(invalid="ignore"):
        gap = dr._gap(*consts[:4], x, y)
        *_, clear = lane_branch(consts, x, y)
    assert np.isnan(gap).all() and not clear.any()


def hexes(*values):
    return [float(v).hex() for v in values]


def counted_steps(consts, x, y, n):
    # dr._steps, and how many times it called dr._band for its band test
    buf = array("d")
    with mock.patch.object(dr, "_band", side_effect=dr._band) as band:
        code, x, y, k = dr._steps(*consts, x, y, n, buf)
    return code, x, y, k, buf.tolist(), band.call_count


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(t1=st.floats(0.02, math.pi / 2), t2_frac=st.floats(0.01, 0.99),
       where=st.sampled_from(["tie", "ball1", "ball2", "plane", "huge",
                              "edge"]),
       u=st.floats(-1.0, 1.0), v=st.floats(-1.0, 1.0),
       log_r=st.floats(140.0, 300.0), n=st.integers(0, 6),
       inside=st.booleans())
@example(t1=math.pi / 3, t2_frac=0.25, where="tie", u=0.0, v=0.0,
         log_r=150.0, n=3, inside=True)
@example(t1=math.pi / 3, t2_frac=0.25, where="huge", u=1.0, v=-1.0,
         log_r=300.0, n=3, inside=True)
@example(t1=0.703469, t2_frac=0.99, where="edge", u=0.0, v=0.5,
         log_r=150.0, n=3, inside=True)
@example(t1=0.703469, t2_frac=0.99, where="edge", u=0.0, v=0.5,
         log_r=150.0, n=3, inside=False)
@example(t1=math.pi / 3, t2_frac=0.25, where="edge", u=-1.0, v=-0.5,
         log_r=150.0, n=3, inside=False)
def test_steps_match_gap_and_branch_bit_for_bit(t1, t2_frac, where, u, v,
                                                log_r, n, inside):
    # from the tie point moved by up to two tie bands, from inside either
    # ball, from the plane, from norms up to 1e300 and from a point an ulp
    # on either side of the tie band's edge, 1 to 1e300 from c along a
    # bisector: _steps taken one step at a time and n at a time is the
    # _gap/_branch step, it calls dr._band exactly where the screen does
    # not clear the gap, and a lane is clear of the tie band exactly where
    # _steps steps, to the same point
    cfg = ProblemConfig(t1, t1 + (math.pi - t1) * t2_frac)
    consts = dr._constants(cfg)
    if where == "tie":
        tx, ty = tie_point(cfg)
        band = TIE_TOL * (1.0 + abs(tx))
        x, y = tx + 2.0 * u * band, 2.0 * v * band
    elif where == "plane":
        x, y = 3.0 * u, 3.0 * v
    elif where == "huge":
        x, y = u * 10.0 ** log_r, v * 10.0 ** log_r
    elif where == "edge":
        bd = bisector_data(cfg)
        nrm = bd.n1 if v < 0.0 else bd.n2
        t = math.copysign(10.0 ** (300.0 * abs(u)), u)
        base = (bd.c[0] - t * nrm[1], bd.c[1] + t * nrm[0])
        x, y = band_edge(cfg, base, nrm)[0 if inside else 1]
    else:
        a, rsq = (-0.5, consts[4]) if where == "ball1" else (0.5, consts[5])
        r = 0.7 * math.sqrt(rsq)
        x, y = a + r * u, r * v
        assert (x - a) * (x - a) + y * y < rsq
    wcode, wx, wy, wk, wpushed = gap_branch_steps(consts, x, y, n)
    pushed = array("d")
    code, gx, gy, k = dr._steps(*consts, x, y, n, pushed)
    assert (code, k) == (wcode, wk)
    assert hexes(gx, gy, *pushed) == hexes(wx, wy, *wpushed)
    if where == "tie" and u == v == 0.0 and n:
        assert code == 0 and k == 0 and not pushed
    if where.startswith("ball") and n:
        assert code == int(where[-1]) and k == 1
    if where == "edge" and n:
        assert (code == 0 and k == 0) == inside
    # one step at a time, each against the lane step
    px, py = x, y
    for i in range(n):
        code1, nx, ny, k1, one, calls = counted_steps(consts, px, py, 1)
        rcode, rx, ry, rk, rpushed = gap_branch_steps(consts, px, py, 1)
        assert (code1, k1) == (rcode, rk)
        assert hexes(nx, ny, *one) == hexes(rx, ry, *rpushed)
        gap = dr._gap(*consts[:4], px, py)
        assert calls == (0 if band_screen(px, py, gap) else 1)
        if where == "edge" and i == 0:
            assert calls == 1
        bx, by, clear = lane_branch(consts, np.array([px]), np.array([py]))
        assert clear[0] == (code1 != 0)
        if clear[0]:
            assert k1 == 1 and hexes(bx[0], by[0]) == hexes(nx, ny)
        if code1 >= 0:
            break
        px, py = nx, ny


def nudged(v, ulps):
    # v moved by ulps units in the last place, away from 0 for ulps > 0
    for _ in range(abs(ulps)):
        v = math.nextafter(v, math.copysign(math.inf, v * ulps))
    return v


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(log_norm=st.floats(-300.0, 300.0), angle=st.floats(0.0, 2 * math.pi),
       anchor=st.sampled_from([0.0, -0.5, 0.5]),
       kind=st.sampled_from(["band", "screen", "free"]),
       ulps=st.integers(-4, 4), log_gap=st.floats(-330.0, 308.0),
       negative=st.booleans())
@example(log_norm=0.0, angle=1.0, anchor=0.0, kind="band", ulps=0,
         log_gap=0.0, negative=False)
@example(log_norm=0.0, angle=1.0, anchor=0.0, kind="band", ulps=1,
         log_gap=0.0, negative=True)
@example(log_norm=300.0, angle=0.7, anchor=0.0, kind="band", ulps=1,
         log_gap=0.0, negative=False)
@example(log_norm=160.0, angle=0.7, anchor=0.5, kind="screen", ulps=1,
         log_gap=0.0, negative=False)
@example(log_norm=-300.0, angle=2.0, anchor=-0.5, kind="free", ulps=0,
         log_gap=-315.0, negative=True)
@example(log_norm=-300.0, angle=0.0, anchor=0.5, kind="screen", ulps=-1,
         log_gap=0.0, negative=False)
def test_band_screen_clears_only_gaps_off_the_band(log_norm, angle, anchor,
                                                   kind, ulps, log_gap,
                                                   negative):
    # _steps skips its band test where gap^2 > _SCREEN (1 + q1 + q2): that
    # implies |gap| > TIE_TOL (1 + max(|x|, |y|)), at norms 1e-300 to 1e300
    # about the origin and the ball centres, with gaps at the band edge
    # and at the screen's edge give or take a few ulps and gaps from 0
    # through subnormals to where gap^2 and q overflow; a gap within a few
    # ulps of the band edge always meets the band test, which finds the
    # tie on its side of the edge and no tie off it
    r = 10.0 ** log_norm
    x, y = anchor + r * math.cos(angle), r * math.sin(angle)
    if kind == "band":
        gap = nudged(TIE_TOL * (1.0 + max(abs(x), abs(y))), ulps)
    elif kind == "screen":
        dx1, dx2 = x + 0.5, x - 0.5
        edge = math.sqrt(dr._SCREEN * (1.0 + (dx1 * dx1 + y * y)
                                       + (dx2 * dx2 + y * y)))
        gap = nudged(edge, ulps)
    else:
        gap = 10.0 ** log_gap
    gap = -gap if negative else gap
    if band_screen(x, y, gap):
        assert not on_tie_band(x, y, gap)
    if kind == "band":
        assert not band_screen(x, y, gap)
        assert on_tie_band(x, y, gap) == (ulps <= 0)


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
    consts = dr._constants(cfg)
    r1 = dr.BALL_SAFETY * float(distance_to_D3(cfg, cfg.p1))
    r2 = dr.BALL_SAFETY * float(distance_to_D3(cfg, cfg.p2))
    want = (*cos_sin(cfg.theta1), *cos_sin(cfg.theta2), r1 * r1, r2 * r2)
    assert [type(c) for c in consts] == [float] * 6
    assert [c.hex() for c in consts] == [c.hex() for c in want]
    xs, ys = np.linspace(-2.0, 2.0, n), np.linspace(3.0, -1.0, n)
    lanes = experiments._lanes(consts, xs, ys)
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
    got = cycle(full[span - m:], span)
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
    assert cycle(full, span) == detect_cycle(full)


def cycle_reference(w, span, match_tol=1e-8):
    # cycle with the near screen it had before its max-norm one: two
    # np.hypot passes over the shifts' last pairs; reference for the screen
    m, span = len(w), max(span, len(w))
    if m < 2:
        return None if span < 2 else experiments._UNDECIDED
    if window_pair_ok(w, m - 1, m - 2, match_tol):
        return None
    ks = np.arange(2, min(span // 2, m - 1) + 1)
    e = w[m - 1 - ks]
    with np.errstate(over="ignore", invalid="ignore"):
        near = (np.hypot(w[m - 1, 0] - e[:, 0], w[m - 1, 1] - e[:, 1])
                <= match_tol * (1.0 + np.hypot(e[:, 0], e[:, 1]))
                * (1.0 + 1e-12))
    for k in ks[near].tolist():
        if not window_pair_ok(w, m - 1, m - 1 - k, match_tol):
            continue
        if 2 * k > m:
            return experiments._UNDECIDED
        a = w[m - k:]
        b = w[m - 2 * k:m - k]
        with np.errstate(over="ignore", invalid="ignore"):
            gaps = np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1])
            lims = match_tol * (1.0 + np.hypot(b[:, 0], b[:, 1]))
        if np.all(gaps <= lims):
            return k
    return experiments._UNDECIDED if span // 2 > m - 1 else None


def planted_window(rng, m, period, log_scale, ulps, match_tol):
    # a noisy period-`period` tail of m points at norms near 10^log_scale
    # whose last pair for that shift lies at the tolerance, moved by ulps
    scale = 10.0 ** log_scale
    base = rng.uniform(-1.0, 1.0, size=(period, 2)) * scale
    w = np.resize(base, (m, 2))
    w += rng.normal(size=(m, 2)) * (scale * 1e-9 * rng.uniform(0.0, 3.0))
    if period < m:
        e = w[m - 1 - period]
        lim = match_tol * (1.0 + math.hypot(*e))
        t = rng.uniform(0.0, 2.0 * math.pi)
        last = np.array([e[0] + lim * math.cos(t), e[1] + lim * math.sin(t)])
        for _ in range(abs(ulps)):
            last = np.nextafter(last, e + (last - e) * (2.0 if ulps > 0
                                                        else -1.0))
        w[m - 1] = last
    return w


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(m=st.integers(2, 300), period=st.integers(2, 80),
       extra=st.sampled_from([0, 0, 1, 7, 150, 400]),
       log_scale=st.sampled_from([-2, 0, 1, 8, 100, 150]),
       ulps=st.integers(-2, 2), match_tol=st.sampled_from([1e-8, 1e-3, 0.0]),
       bad=st.sampled_from([None, math.inf, -math.inf, math.nan]),
       bad_at=st.integers(0, 299), strided=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(m=120, period=7, extra=0, log_scale=0, ulps=0, match_tol=1e-8,
         bad=None, bad_at=0, strided=False, seed=4)
def test_cycle_screen_agrees_with_the_hypot_screen(m, period, extra,
                                                   log_scale, ulps, match_tol,
                                                   bad, bad_at, strided, seed):
    # planted repeats at the tolerance, huge norms, inf and NaN rows,
    # partial windows (span > m) and strided column views of a lane
    # history, as _lockstep passes them
    rng = np.random.default_rng(seed)
    w = planted_window(rng, m, period, log_scale, ulps, match_tol)
    if bad is not None:
        w[bad_at % m, rng.integers(0, 2)] = bad
    if strided:
        hist = rng.uniform(-1.0, 1.0, size=(m, 3, 2))
        hist[:, 1] = w
        w = hist[:, 1]
        assert not w.flags.c_contiguous
    with mock.patch.object(experiments, "MATCH_TOL", match_tol):
        got = cycle(w, m + extra)
    assert got == cycle_reference(w, m + extra, match_tol)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(m=st.integers(0, 200), lanes=st.integers(1, 6),
       extra=st.sampled_from([0, 0, 1, 7, 150, 400]),
       log_scale=st.sampled_from([-2, 0, 8, 150]),
       match_tol=st.sampled_from([1e-8, 1e-3, 0.0]),
       bad=st.sampled_from([None, math.inf, -math.inf, math.nan]),
       seed=st.integers(0, 2**32 - 1))
def test_batched_cycle_check_equals_cycle_lane_by_lane(m, lanes, extra,
                                                       log_scale, match_tol,
                                                       bad, seed):
    # lanes holding planted repeats at the tolerance, constant tails and
    # noise, some with an inf or NaN row, in full and partial windows (a
    # span past m): each lane's answer is cycle's on its own window, and
    # the reference's, 0 standing for None
    rng = np.random.default_rng(seed)
    w = np.empty((m, 2, lanes))
    for j in range(lanes):
        kind = rng.integers(0, 3)
        if kind == 0:
            w[:, :, j] = planted_window(rng, m, int(rng.integers(2, 80)),
                                        log_scale, int(rng.integers(-2, 3)),
                                        match_tol)
        else:
            w[:, :, j] = rng.uniform(-2.0, 2.0, size=(m, 2)) * (
                10.0 ** log_scale)
            if kind == 1 and m:
                w[m // 2:, :, j] = w[m - 1, :, j]
        if bad is not None and m and rng.integers(0, 2):
            w[rng.integers(0, m), rng.integers(0, 2), j] = bad
    with mock.patch.object(experiments, "MATCH_TOL", match_tol):
        got = experiments._cycles(w, m + extra)
        one = [cycle(w[:, :, j], m + extra) for j in range(lanes)]
    assert got == [0 if k is None else k for k in one]
    assert one == [cycle_reference(w[:, :, j], m + extra, match_tol)
                   for j in range(lanes)]


def test_cycle_screen_keeps_repeats_at_the_tolerance():
    # the last pair one ulp inside or outside the tolerance, at norms from
    # 1 to 1e150: the max-norm screen keeps every shift the exact test
    # passes, so cycle finds what the hypot screen found
    rng = np.random.default_rng(11)
    found = {True: 0, False: 0}
    for log_scale in (0, 50, 150):
        for ulps in (-1, 0, 1):
            for period in (2, 3, 17, 58):
                w = planted_window(rng, 200, period, log_scale, ulps, 1e-8)
                want = cycle_reference(w, 200)
                assert cycle(w, 200) == want
                found[want == period] += 1
    assert found[True] >= 10 and found[False] >= 5


def test_partial_window_rule_on_planted_periods():
    # at the first cycle check a lane resumed from step 256 holds points
    # 256..512 of the 513 the full window holds
    rng = np.random.default_rng(7)
    for period, want in ((100, 100), (128, 128), (129, None), (200, None),
                         (256, None)):
        full = np.tile(rng.uniform(-2.0, 2.0, size=(period, 2)), (6, 1))[:513]
        assert detect_cycle(full) == period
        got = cycle(full[-257:], 513)
        assert got == (experiments._UNDECIDED if want is None else want)
    # no period: the near screen decides on 257 points, not on 256
    noise = rng.uniform(-2.0, 2.0, size=(513, 2))
    assert cycle(noise[-257:], 513) is None
    assert cycle(noise[-256:], 513) == experiments._UNDECIDED
    assert cycle(noise[-1:], 513) == experiments._UNDECIDED
    assert cycle(noise[-1:], 1) is None


def test_undecided_checks_fall_back_to_full_reruns(monkeypatch):
    # every check of a resumed window is made undecided: raster cells
    # re-run through simulate, and the outputs stay those of per-start
    # simulate; the sweep's resumed walks keep no window
    cycles = experiments._cycles

    def undecided(w, span):
        if len(w) < span:
            return [experiments._UNDECIDED] * (w.shape[2] if w.ndim == 3
                                               else 1)
        return cycles(w, span)

    monkeypatch.setattr(experiments, "_cycles", undecided)
    check_sweep(PAIRS, 100, 2000, 5, run=simulate)
    # the 64-lane pool hands the nine period-58 cycle cells off at step
    # 256; resumed from there each meets an undecided check at step 512
    # and re-runs through simulate, as does the cell on D3
    cells, _ = check_raster(PERIOD58_CFG, *REFILLED, FirstBranch(), 2000, 4,
                            pool=(64, 32), run=simulate)
    assert np.count_nonzero(cells == 3) == 9


def tie_box(n):
    # a box about a start whose n-th iterate is on D3, 1e-12 |x0| across:
    # each of its cells meets that tie
    x0 = tie_preimage(FIG_CFG, n)
    h = 1e-12 * math.hypot(*x0)
    return x0[0] - h, x0[0] + h, x0[1] - h, x0[1] + h


@pytest.mark.parametrize("n", [255, 256, 300])
@pytest.mark.parametrize("policy", [FirstBranch(), SeededRandom()],
                         ids=["first", "random"])
def test_raster_cells_meeting_a_tie_around_the_checkpoint(policy, n):
    # 36 cells around a start whose n-th iterate is on D3: up to the
    # checkpoint they leave the pool on the tie band on step n, which a
    # resumed lane would meet again, so the lane set is empty; past it they
    # leave at the checkpoint, and the resumed lanes stop at the band;
    # either way each cell re-runs through simulate
    cells, steps = check_raster(FIG_CFG, tie_box(n), (6, 6), policy, 2000, 3)
    assert set(steps.ravel().tolist()) == {n + 1}
    assert set(cells.ravel().tolist()) == (
        {1, 2} if isinstance(policy, SeededRandom) else {1})


@pytest.mark.parametrize("n", [513, 700])
def test_raster_cells_meeting_a_tie_after_the_first_check(n):
    # the pool hands the 36 cells off at step 256; resumed from there they
    # stop on the tie band on step n and go straight to simulate
    _, steps = check_raster(FIG_CFG, tie_box(n), (6, 6), FirstBranch(), 2000,
                            3)
    assert set(steps.ravel().tolist()) == {n + 1}


@pytest.mark.parametrize("n", [100, 300])
def test_sweep_starts_meeting_a_tie_resume_through_it_in_the_walk(n):
    # 36 starts, all at a point whose n-th iterate is on D3, leave the pool
    # on the tie band on step 100 or 300, before the sweep's hand-off step
    # 1024; each resumes in the walk from there and takes its coin at the
    # tie, and none runs simulate or a window
    check_sweep([(FIG_CFG.theta1, FIG_CFG.theta2)], 36, 2000, 5,
                tie_preimage(FIG_CFG, n))


@pytest.mark.parametrize("max_steps", [1, 2, 7, 300, 511])
def test_budgets_below_the_first_check_resume_from_half_the_budget(
        max_steps):
    # the raster's pool hands its lanes off at step max_steps // 2 (step 0
    # for a budget of 1), and the sweep's at the budget itself, with their
    # points there: sweep starts resume from there in the walk, certified
    # pairs' starts running on, and raster cells in one lane set
    assert experiments._checkpoint(max_steps) == max_steps // 2
    check_sweep(PAIRS, 100, max_steps, 5, run=simulate)
    check_raster(PERIOD58_CFG, *REFILLED, FirstBranch(), max_steps, 4,
                 pool=(64, 32), run=simulate)


@pytest.mark.parametrize("samples", [30, 100])
def test_sweep_resumes_only_hand_offs_past_the_checkpoint(samples):
    # a 64-lane pool, with 30 or 100 starts a pair: it hands lanes off only
    # at the sweep's hand-off step 1024, the last ones too once it runs
    # alone, and those the outcome needs resume in the walk from there
    check_sweep(PAIRS, samples, 2000, 5, pool=(64, 32), run=simulate)
