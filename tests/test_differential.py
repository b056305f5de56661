"""Each driver against its oracle in ``dr_oracle`` or ``robust_oracle``,
through one check per driver: ``check_tree``, ``check_raster``,
``check_sweep``, ``check_perturbed`` and the proven walk's test.  The
tests here run them on drawn configs, starts and budgets with the
run-shaping constants patched small, and the other modules' hand-built
cases call them too; the examples plant ties around the hand-off step,
budgets one step past a check, undecided checks, refills and lanes below
the floor."""
import contextlib
import functools
import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from dr_oracle import (constants, detect_cycle_scan, planted_starts,
                       proven_walk_reference, raster_reference,
                       simulate_reference, simulate_tree_reference,
                       step_points, sweep_reference, tie_point, tie_preimage,
                       worst_leaf)
from robust_oracle import run_perturbed_reference
from drlines import experiments, robust
from drlines.experiments import (EnumerateTree, FirstBranch, SeededRandom,
                                 rasterize, simulate, simulate_tree, sweep)
from drlines.geometry import ProblemConfig
from drlines.lyapunov import certify
from drlines.robust import PerturbationSpec, run_perturbed_many

FIG_CFG = ProblemConfig(math.pi / 3, 2 * math.pi / 5)
PERIOD2_CFG = ProblemConfig(0.748491, 0.772301)
PERIOD58_CFG = ProblemConfig(0.082719, 2.064601)
PERIOD8_CFG = ProblemConfig(0.05, 0.1)
# the period-58 orbit's point at step 512, on its cycle to 1e-8
ON_CYCLE58 = simulate(PERIOD58_CFG, (-0.123641, -0.510395),
                      record=False).points[-1]

configs = st.one_of(
    st.sampled_from([FIG_CFG, PERIOD2_CFG, PERIOD58_CFG, PERIOD8_CFG]),
    st.builds(lambda t1, f: ProblemConfig(t1, t1 + (math.pi - t1) * f),
              st.floats(0.02, math.pi / 2), st.floats(0.01, 0.99)))
coordinates = st.floats(-3.0, 3.0)
policies = st.one_of(st.just(FirstBranch()),
                     st.builds(SeededRandom, st.integers(0, 2 ** 32 - 1)),
                     st.builds(EnumerateTree, st.integers(1, 8)))
# (CHECK_EVERY, WINDOW): the oracle scans every K of a window at a check,
# so a short interval goes with a short window
schedules = st.sampled_from([(512, 4096), (128, 4096), (8, 16), (2, 5),
                             (16, 1), (7, 3)])
# (_LANE_BLOCK, _LANE_FLOOR)
pools = st.tuples(st.sampled_from([1, 7, 64, 4096]),
                  st.sampled_from([1, 2, 32]))


def shaped(schedule, pool=(4096, 32)):
    """The library's run-shaping constants patched to these values."""
    return mock.patch.multiple(experiments, CHECK_EVERY=schedule[0],
                               WINDOW=schedule[1], _LANE_BLOCK=pool[0],
                               _LANE_FLOOR=pool[1])


def oracle(schedule):
    """simulate_reference with the patched schedule."""
    return functools.partial(simulate_reference, check_every=schedule[0],
                             window=schedule[1])


def around(x0):
    """A box about x0, 1e-12 |x0| across: each cell meets x0's tie."""
    h = 1e-12 * math.hypot(*x0)
    return x0[0], x0[1], h, h


def no_window():
    """Patches under which simulate or a cycle window fails the test."""
    def windowed(*args, **kwargs):
        raise AssertionError("the sweep ran simulate or a cycle window")

    return mock.patch.multiple(experiments, simulate=windowed,
                               simulate_tree=windowed, _walk=windowed,
                               _cycles=windowed)


def check_tree(cfg, x0, policy, max_steps, record=True, schedule=(512, 4096),
               detect=detect_cycle_scan):
    """simulate_tree's leaves, the per-step oracle's under the schedule
    with ``detect`` at each check."""
    with shaped(schedule):
        got = simulate_tree(cfg, x0, policy, max_steps, record)
    assert got == simulate_tree_reference(cfg, x0, policy, max_steps, record,
                                          *schedule[::-1], detect)
    return got


# The grid drivers' checks take the per-start run, simulate's signature:
# the per-step oracle under the schedule, or, for the large hand-built
# cases with the shipped schedule, simulate itself, which takes under half
# the oracle's time and which the first test here holds to the oracle.

def check_raster(cfg, bounds, res, policy, max_steps, seed,
                 schedule=(512, 4096), pool=(4096, 32), run=None):
    """rasterize's picture, per-cell run's: (cells, steps)."""
    with shaped(schedule, pool):
        grid = rasterize(cfg, bounds, res, policy, max_steps, seed)
    cells, steps = raster_reference(cfg, bounds, res, policy, seed, max_steps,
                                    run or oracle(schedule))
    assert np.array_equal(grid.cells, cells)
    assert np.array_equal(grid.steps, steps)
    return cells, steps


def check_sweep(thetas, samples, max_steps, seed, start=None,
                schedule=(512, 4096), pool=(4096, 32), run=None):
    """The sweep's outcomes, per-start run's, with every start at
    ``start`` if given; the sweep runs no simulate and no window."""
    starts, plant = None, contextlib.nullcontext()
    if start is not None:
        starts = np.tile(start, (samples, 1))
        plant = planted_starts(start, samples, seed)
    with shaped(schedule, pool), no_window(), plant:
        got = sweep(thetas, samples, max_steps, seed).pairs
    want = sweep_reference(thetas, samples, max_steps, seed, starts,
                           run or oracle(schedule))
    assert got == want
    return want


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cfg=configs, x=coordinates, y=coordinates, policy=policies,
       max_steps=st.integers(1, 1500), record=st.booleans(),
       schedule=schedules)
# a budget of one step, whose check sees one point and decides; a budget
# that is a check step, checked once; and a fork at step 20 into a cycle
# and a converging leaf
@example(cfg=FIG_CFG, x=0.0, y=1.0, policy=FirstBranch(), max_steps=1,
         record=False, schedule=(512, 4096))
@example(cfg=PERIOD58_CFG, x=-0.123641, y=-0.510395, policy=FirstBranch(),
         max_steps=1024, record=False, schedule=(512, 4096))
@example(cfg=PERIOD2_CFG, x=tie_preimage(PERIOD2_CFG, 20)[0],
         y=tie_preimage(PERIOD2_CFG, 20)[1], policy=EnumerateTree(4),
         max_steps=1500, record=True, schedule=(512, 4096))
def test_simulate_tree_equals_its_per_step_oracle(cfg, x, y, policy,
                                                  max_steps, record,
                                                  schedule):
    leaves = check_tree(cfg, (x, y), policy, max_steps, record, schedule)
    with shaped(schedule):
        assert simulate(cfg, (x, y), policy, max_steps, record) == \
            worst_leaf(leaves)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(cfg=configs, box=st.tuples(coordinates, coordinates,
                                  st.floats(1e-3, 3.0), st.floats(1e-3, 3.0)),
       res=st.tuples(st.integers(1, 7), st.integers(1, 7)), policy=policies,
       max_steps=st.integers(1, 700), seed=st.integers(0, 2 ** 32 - 1),
       schedule=schedules, pool=pools)
# cells that meet a tie before the hand-off step 8, and after the first
# check at 16
@example(cfg=FIG_CFG, box=around(tie_preimage(FIG_CFG, 7)), res=(3, 3),
         policy=SeededRandom(), max_steps=40, seed=3, schedule=(16, 1),
         pool=(4, 1))
@example(cfg=FIG_CFG, box=around(tie_preimage(FIG_CFG, 20)), res=(3, 3),
         policy=SeededRandom(), max_steps=40, seed=3, schedule=(16, 1),
         pool=(4, 1))
# cells on the period-58 cycle: resumed at step 64, their windows are too
# short for the check at 128, which sends them back to a re-run
@example(cfg=PERIOD58_CFG, box=around(ON_CYCLE58), res=(2, 2),
         policy=FirstBranch(), max_steps=300, seed=0, schedule=(128, 4096),
         pool=(4096, 1))
# a lone cell, in the walk, that meets D3 at step 20, where A1 leads to
# the period-2 cycle and A2 into p2's ball
@example(cfg=PERIOD2_CFG, box=around(tie_preimage(PERIOD2_CFG, 20)),
         res=(1, 1), policy=EnumerateTree(4), max_steps=2000, seed=3,
         schedule=(512, 4096), pool=(4096, 32))
# cells that the walk resumes, with a three-point window that wraps at
# every check
@example(cfg=ProblemConfig(0.5, 0.5 + (math.pi - 0.5) * 0.125),
         box=(0.0, 1.0, 1.0, 2.0), res=(1, 3), policy=FirstBranch(),
         max_steps=694, seed=0, schedule=(7, 3), pool=(1, 2))
# budgets one step past a check
@example(cfg=PERIOD58_CFG, box=(0.0, 0.0, 3.0, 3.0), res=(7, 7),
         policy=FirstBranch(), max_steps=17, seed=4, schedule=(8, 16),
         pool=(7, 2))
# the middle cell, centred on D3, taken in by the pool's first refill
@example(cfg=FIG_CFG, box=(tie_point(FIG_CFG)[0], 0.0, 1.5, 1.2),
         res=(17, 15), policy=SeededRandom(), max_steps=2000, seed=9,
         schedule=(512, 4096), pool=(64, 32))
def test_rasterize_equals_per_cell_oracle(cfg, box, res, policy, max_steps,
                                          seed, schedule, pool):
    x, y, hx, hy = box
    check_raster(cfg, (x - hx, x + hx, y - hy, y + hy), res, policy,
                 max_steps, seed, schedule, pool)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(pairs=st.lists(configs, min_size=1, max_size=3),
       samples=st.integers(1, 40), max_steps=st.integers(1, 1100),
       seed=st.integers(0, 2 ** 32 - 1), schedule=schedules, pool=pools,
       tie_at=st.none())
# starts that meet a tie before and after the hand-off step 16
@example(pairs=[FIG_CFG] * 2, samples=5, max_steps=40, seed=5,
         schedule=(8, 16), pool=(4, 32), tie_at=10)
@example(pairs=[FIG_CFG] * 3, samples=1, max_steps=40, seed=5,
         schedule=(8, 16), pool=(4, 32), tie_at=20)
# and at step 300, past a budget of 256: a certified pair's walk runs on
# to it and takes pair 4's coin, A2
@example(pairs=[FIG_CFG] * 5, samples=1, max_steps=256, seed=5,
         schedule=(512, 4096), pool=(4096, 32), tie_at=300)
# a budget one step past the hand-off step, with pairs straddling refills
@example(pairs=[PERIOD8_CFG, FIG_CFG, PERIOD58_CFG], samples=30, max_steps=17,
         seed=2, schedule=(8, 16), pool=(7, 2), tie_at=None)
def test_sweep_equals_per_start_oracle(pairs, samples, max_steps, seed,
                                       schedule, pool, tie_at):
    check_sweep([(cfg.theta1, cfg.theta2) for cfg in pairs], samples,
                max_steps, seed,
                None if tie_at is None else tie_preimage(pairs[0], tie_at),
                schedule, pool)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(cfg=configs, x=coordinates, y=coordinates, steps=st.integers(0, 40),
       budget=st.integers(0, 3000), coins=st.lists(st.booleans(), max_size=3),
       chunk=st.sampled_from([1, 3, 16, 512]), span=st.sampled_from([2, 16]))
# a tie at step 10, where A2 leads into p2's ball, one step before the
# budget and inside a chunk
@example(cfg=PERIOD2_CFG, x=tie_preimage(PERIOD2_CFG, 10)[0],
         y=tie_preimage(PERIOD2_CFG, 10)[1], steps=3, budget=11,
         coins=[False], chunk=3, span=16)
def test_proven_walk_equals_its_per_step_oracle(cfg, x, y, steps, budget,
                                                coins, chunk, span):
    # the drawn coins, then A1's; both walks leave the same ones undrawn
    consts = constants(cfg)
    got_coins, want_coins = (iter(coins + [True] * 8) for _ in range(2))
    with mock.patch.multiple(experiments, CHECK_EVERY=chunk, _SPAN=span):
        got = experiments._proven_walk(consts, x, y, steps, steps + budget,
                                       got_coins)
    assert got == proven_walk_reference(consts, x, y, steps, steps + budget,
                                        want_coins, span)
    assert list(got_coins) == list(want_coins)


FIG_CERT = certify(FIG_CFG)
# on D3, the last point on the tie band and the next one off it, p1, and
# a start just inside the V-overflow check
PLANTED = [step_points(FIG_CFG)[1], step_points(FIG_CFG)[3], FIG_CFG.p1,
           (7.766554619706739e+64, 0.0)]


def check_perturbed(spec, starts, n_steps, seed, trace_ids, mode, k=64):
    """run_perturbed_many's lanes on FIG_CFG, each the per-trace oracle's,
    run alone, with the adversary's k boundary angles a ball, down to the
    generator's final state; the lanes."""
    made, plain = [], np.random.default_rng
    with mock.patch.object(robust, "_K_BOUNDARY", k), mock.patch.object(
            np.random, "default_rng",
            lambda *a: made.append(plain(*a)) or made[-1]):
        lanes = run_perturbed_many(spec, FIG_CFG, starts, n_steps, seed,
                                   trace_ids, mode)
    assert len(made) == len(starts)
    for j, (x0, tid) in enumerate(zip(starts, trace_ids)):
        points, disturbances, rng = run_perturbed_reference(
            spec, FIG_CFG, x0, n_steps, seed, tid, mode, k)
        trace = lanes.trace(j)
        assert repr(trace.points) == repr(points)
        assert repr(trace.disturbances) == repr(disturbances)
        assert made[j].bit_generator.state == rng.bit_generator.state
        assert trace.seed == seed
    return lanes


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(epsilon=st.sampled_from([0.0, 0.01, 0.05]),
       starts=st.lists(st.one_of(st.sampled_from(PLANTED),
                                 st.tuples(coordinates, coordinates)),
                       min_size=1, max_size=4),
       n_steps=st.integers(0, 40), seed=st.integers(0, 2 ** 32 - 1),
       trace_ids=st.lists(st.integers(0, 40), min_size=4, max_size=4,
                          unique=True),
       mode=st.sampled_from(["random", "adversarial"]),
       k=st.sampled_from([1, 4, 64]))
@example(epsilon=0.0, starts=PLANTED, n_steps=3, seed=0,
         trace_ids=[0, 1, 2, 3], mode="adversarial", k=1)
def test_run_perturbed_many_equals_per_trace_oracle(epsilon, starts, n_steps,
                                                    seed, trace_ids, mode, k):
    # each lane is its trace run alone, whatever its neighbours and ids
    check_perturbed(PerturbationSpec.from_certificate(FIG_CERT, epsilon),
                    starts, n_steps, seed, trace_ids[:len(starts)], mode, k)
