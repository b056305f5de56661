"""Each driver against its oracle in ``dr_oracle`` or ``robust_oracle``,
on drawn configs, starts and budgets and the run-shaping constants
patched small; the examples plant ties around the hand-off step, budgets
one step past a check, undecided checks and lanes below the floor."""
import contextlib
import functools
import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from dr_oracle import (constants, planted_starts, proven_walk_reference,
                       raster_reference, simulate_reference,
                       simulate_tree_reference, step_points, sweep_reference,
                       tie_preimage)
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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cfg=configs, x=coordinates, y=coordinates, policy=policies,
       max_steps=st.integers(1, 1500), record=st.booleans(),
       schedule=schedules)
# a budget that is a check step, checked once, and a fork at step 20 into
# a cycle and a converging leaf
@example(cfg=PERIOD58_CFG, x=-0.123641, y=-0.510395, policy=FirstBranch(),
         max_steps=1024, record=False, schedule=(512, 4096))
@example(cfg=PERIOD2_CFG, x=tie_preimage(PERIOD2_CFG, 20)[0],
         y=tie_preimage(PERIOD2_CFG, 20)[1], policy=EnumerateTree(4),
         max_steps=1500, record=True, schedule=(512, 4096))
def test_simulate_tree_equals_its_per_step_oracle(cfg, x, y, policy,
                                                  max_steps, record,
                                                  schedule):
    with shaped(schedule):
        got = simulate_tree(cfg, (x, y), policy, max_steps, record)
        worst = simulate(cfg, (x, y), policy, max_steps, record)
    assert got == simulate_tree_reference(cfg, (x, y), policy, max_steps,
                                          record, *schedule[::-1])
    assert worst == oracle(schedule)(cfg, (x, y), policy, max_steps, record)


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
# budgets one step past a check
@example(cfg=PERIOD58_CFG, box=(0.0, 0.0, 3.0, 3.0), res=(7, 7),
         policy=FirstBranch(), max_steps=17, seed=4, schedule=(8, 16),
         pool=(7, 2))
def test_rasterize_equals_per_cell_oracle(cfg, box, res, policy, max_steps,
                                          seed, schedule, pool):
    x, y, hx, hy = box
    bounds = (x - hx, x + hx, y - hy, y + hy)
    with shaped(schedule, pool):
        grid = rasterize(cfg, bounds, res, policy, max_steps, seed)
    cells, steps = raster_reference(cfg, bounds, res, policy, seed, max_steps,
                                    oracle(schedule))
    assert np.array_equal(grid.cells, cells)
    assert np.array_equal(grid.steps, steps)


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
# a budget one step past the hand-off step, with pairs straddling refills
@example(pairs=[PERIOD8_CFG, FIG_CFG, PERIOD58_CFG], samples=30, max_steps=17,
         seed=2, schedule=(8, 16), pool=(7, 2), tie_at=None)
def test_sweep_equals_per_start_oracle(pairs, samples, max_steps, seed,
                                       schedule, pool, tie_at):
    thetas = [(cfg.theta1, cfg.theta2) for cfg in pairs]
    starts, plant = None, contextlib.nullcontext()
    if tie_at is not None:
        starts = np.tile(tie_preimage(pairs[0], tie_at), (samples, 1))
        plant = planted_starts(starts[0], samples, seed)
    with shaped(schedule, pool), plant:
        got = sweep(thetas, samples, max_steps, seed).pairs
    assert got == sweep_reference(thetas, samples, max_steps, seed, starts,
                                  oracle(schedule))


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


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(epsilon=st.sampled_from([0.0, 0.01, 0.05]),
       starts=st.lists(st.one_of(st.sampled_from(PLANTED),
                                 st.tuples(coordinates, coordinates)),
                       min_size=1, max_size=4),
       n_steps=st.integers(0, 40), seed=st.integers(0, 2 ** 32 - 1),
       mode=st.sampled_from(["random", "adversarial"]),
       k=st.sampled_from([1, 4, 64]))
@example(epsilon=0.0, starts=PLANTED, n_steps=3, seed=0, mode="adversarial",
         k=1)
def test_run_perturbed_many_equals_per_trace_oracle(epsilon, starts, n_steps,
                                                    seed, mode, k):
    spec = PerturbationSpec.from_certificate(FIG_CERT, epsilon)
    with mock.patch.object(robust, "_K_BOUNDARY", k):
        lanes = run_perturbed_many(spec, FIG_CFG, starts, n_steps, seed,
                                   range(len(starts)), mode)
    for j, x0 in enumerate(starts):
        points, disturbances, _ = run_perturbed_reference(
            spec, FIG_CFG, x0, n_steps, seed, j, mode, k)
        trace = lanes.trace(j)
        assert repr(trace.points) == repr(points)
        assert repr(trace.disturbances) == repr(disturbances)
