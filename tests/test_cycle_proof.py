"""The cycle certificate: a float proof that an orbit follows one branch
word forever, and the window-free walk that stops at one, which the
sweep's resumed walks and Brent's search run."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from drlines import cycles, dr, experiments
from drlines.experiments import (
    ConvergedTo,
    Cycle,
    CycleCertificate,
    FirstBranch,
    certify_cycle,
    find_period_brent,
    make_theta_grid,
    simulate,
    sweep,
)
from drlines.geometry import ProblemConfig

FIG_CFG = ProblemConfig(math.pi / 3, 2 * math.pi / 5)
PERIOD2_CFG = ProblemConfig(0.748491, 0.772301)
PERIOD58_CFG = ProblemConfig(0.082719, 2.064601)
PERIOD1410_CFG = ProblemConfig(0.703469, 3.138852)


def on_cycle(cfg, x0, max_steps=20000):
    # the point at which simulate detects the start's cycle, and its period
    tr = simulate(cfg, x0, max_steps=max_steps, record=False)
    assert isinstance(tr.verdict, Cycle)
    return tr.points[-1], tr.verdict.period


def orbit(cfg, x0, word):
    # x0 and its images through the branches of word, as the walk steps
    c1, s1, c2, s2, _, _ = experiments._constants(cfg)
    pts = [tuple(x0)]
    for b in word:
        pts.append(dr._branch(-0.5, c1, s1, *pts[-1]) if b == 1
                   else dr._branch(0.5, c2, s2, *pts[-1]))
    return np.array(pts)


def test_the_period_58_basin_cycle_certifies():
    point, period = on_cycle(PERIOD58_CFG, (-0.123641, -0.510395))
    assert period == 58
    cert = certify_cycle(PERIOD58_CFG, point, 58)
    assert isinstance(cert, CycleCertificate)
    assert cert.period == 58 and len(cert.word) == len(cert.points) == 58
    assert cert.points[0] == point
    assert 0.0 < cert.error < cert.margin and 0.0 < cert.contraction < 1.0
    # the word is the branch each point's gap picks, and repeats no shorter
    c1, s1, c2, s2, _, _ = experiments._constants(PERIOD58_CFG)
    assert cert.word == tuple(1 if dr._gap(c1, s1, c2, s2, x, y) < 0.0 else 2
                              for x, y in cert.points)
    assert np.array_equal(orbit(PERIOD58_CFG, point, cert.word)[:-1],
                          cert.points)
    # two periods prove the same cycle, with its primitive period
    twice = certify_cycle(PERIOD58_CFG, point, 116)
    assert twice.period == 58 and twice.word == cert.word * 2
    assert twice.contraction < cert.contraction


def test_the_period_1410_orbit_certifies_from_its_start():
    # the start lies inside its capture margin at step 0, though
    # detect_cycle sees the cycle only at step 49664
    cert = certify_cycle(PERIOD1410_CFG, (0.392560, -0.351588), 1410)
    assert cert is not None and cert.period == 1410
    assert cert.error < cert.margin < 2.0 * cert.error


def test_a_wrong_period_is_rejected():
    point, _ = on_cycle(PERIOD58_CFG, (-0.123641, -0.510395))
    for period in (1, 2, 29, 57, 59, 115):
        assert certify_cycle(PERIOD58_CFG, point, period) is None, period
    point, _ = on_cycle(PERIOD2_CFG, (0.101912, 0.189275))
    assert certify_cycle(PERIOD2_CFG, point, 2).period == 2
    for period in (1, 3, 5):
        assert certify_cycle(PERIOD2_CFG, point, period) is None, period


def test_a_mutated_word_is_rejected():
    # the points of the word with one letter flipped: the proof's image
    # check at that point, or its error bound, rejects them
    point, _ = on_cycle(PERIOD58_CFG, (-0.123641, -0.510395))
    cert = certify_cycle(PERIOD58_CFG, point, 58)
    consts = experiments._constants(PERIOD58_CFG)
    assert cycles._prove_cycle(consts, orbit(PERIOD58_CFG, point,
                                             cert.word)) is not None
    for i in (0, 1, 17, 41, 57):
        word = list(cert.word)
        word[i] = 3 - word[i]
        assert cycles._prove_cycle(
            consts, orbit(PERIOD58_CFG, point, word)) is None, i
    # the same points with one coordinate moved by an ulp
    for axis in (0, 1):
        pts = orbit(PERIOD58_CFG, point, cert.word)
        pts[30, axis] = math.nextafter(pts[30, axis], math.inf)
        assert cycles._prove_cycle(consts, pts) is None


def test_a_cycle_whose_discs_reach_a_ball_is_rejected():
    # the period-58 cycle with p2's ball grown to just inside its nearest
    # point: every point lies outside the ball, but a disc about one of
    # them reaches in unless the ball stays clear by the error bound
    point, _ = on_cycle(PERIOD58_CFG, (-0.123641, -0.510395))
    cert = certify_cycle(PERIOD58_CFG, point, 58)
    pts = orbit(PERIOD58_CFG, point, cert.word)
    consts = experiments._constants(PERIOD58_CFG)
    near = min(math.hypot(x - 0.5, y) for x, y in cert.points)
    for radius, proven in ((near - 8.0 * cert.error, True),
                           (near - 0.75 * cert.error, False),
                           (near - 0.5 * cert.error, False)):
        grown = consts[:5] + (radius * radius,)
        assert (cycles._prove_cycle(grown, pts) is not None) == proven


def test_a_converging_start_is_rejected():
    for x0, period in (((2.0, 1.0), 1), ((2.0, 1.0), 2), ((2.0, 1.0), 6),
                       ((1e3, 1e3), 2), ((1e200, -1e200), 2),
                       ((-0.5, 0.0), 3)):
        assert certify_cycle(FIG_CFG, x0, period) is None, (x0, period)
    # theta1 = 0.02, where orbits zigzag between the branches as they
    # converge: every period the walk's coarse screen proposes is rejected,
    # and the walk reaches simulate's ball at simulate's step
    calls = []
    prove = experiments._prove_cycle

    def spy(consts, p):
        calls.append(len(p) - 1)
        return prove(consts, p)

    rng = np.random.default_rng(1)
    with mock.patch.object(experiments, "_prove_cycle", spy):
        for t1, t2 in make_theta_grid(40, 40)[:40]:
            cfg = ProblemConfig(t1, t2)
            consts = experiments._constants(cfg)
            for x0 in rng.uniform(-2.0, 2.0, size=(10, 2)):
                tr = simulate(cfg, x0, record=False)
                if isinstance(tr.verdict, ConvergedTo):
                    v, _, _, steps = experiments._proven_walk(
                        consts, *x0, 0, 20000,
                        experiments._coins(FirstBranch()))
                    assert (v, steps) == (tr.verdict, tr.steps_used)
    assert len(calls) >= 20


def test_every_proven_walk_cycle_reproves_with_certify_cycle():
    # Brent's search on 3 starts of each pair of the 40x40 grid: each
    # Cycle its walks return re-proves, with its period, from the point it
    # is pronounced on
    walk, found = experiments._proven_walk, []

    def spy(*args):
        out = walk(*args)
        if isinstance(out[0], Cycle):
            found.append((cfg, out))
        return out

    rng = np.random.default_rng(7)
    with mock.patch.object(experiments, "_proven_walk", spy):
        for t1, t2 in make_theta_grid(40, 40):
            cfg = ProblemConfig(t1, t2)
            for x0 in rng.uniform(-2.0, 2.0, size=(3, 2)):
                find_period_brent(cfg, x0, max_steps=20000)
    assert len(found) == 45
    for cfg, (v, x, y, _) in found:
        cert = certify_cycle(cfg, (x, y), v.period)
        assert cert is not None and cert.period == v.period
    assert {v.period for _, (v, _, _, _) in found} >= {2, 3, 4, 5, 217}


def test_certify_cycle_rejects_bad_inputs():
    with pytest.raises(ValueError):
        certify_cycle(FIG_CFG, (math.nan, 0.0), 2)
    with pytest.raises(ValueError):
        certify_cycle(FIG_CFG, (0.0, 0.0), 0)
    with pytest.raises(TypeError):
        certify_cycle(FIG_CFG, (0.0, 0.0), 2.5)


def test_periods_from_2_to_the_20_fail_before_any_step(monkeypatch):
    # the proof holds its K + 1 points and K-long temporaries in memory,
    # about 260 B a point: certify_cycle rejects a period of 2^20 or more
    # and _proof declines such a lag, both before a step runs, however
    # long the orbit's budget
    steps = []
    monkeypatch.setattr(experiments, "_steps",
                        lambda *args: steps.append(args[-2]))
    consts = experiments._constants(PERIOD2_CFG)
    for period in (2 ** 20, 2 ** 40, 2 ** 55):
        with pytest.raises(ValueError,
                           match=r"period must be in \[1, 2\*\*20\)"):
            certify_cycle(PERIOD2_CFG, (0.101912, 0.189275), period)
        assert experiments._proof(consts, 0.101912, 0.189275, period) is None
    assert steps == []


def test_a_period_below_2_to_the_20_from_a_ball_stops_after_one_chunk():
    # the largest period taken, from the centre of a termination ball: the
    # first chunk's first step enters the ball, and no second chunk runs
    calls = []

    def spy(*args):
        calls.append(args[-2])
        return dr._steps(*args)

    consts = experiments._constants(PERIOD2_CFG)
    with mock.patch.object(experiments, "_steps", spy):
        assert certify_cycle(PERIOD2_CFG, (-0.5, 0.0), 2 ** 20 - 1) is None
        assert experiments._proof(consts, -0.5, 0.0, 2 ** 20 - 1) is None
    assert calls == [experiments.CHECK_EVERY] * 2


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(t1=st.floats(0.02, math.pi / 2), t2_frac=st.floats(0.01, 0.99),
       x=st.floats(-2.0, 2.0), y=st.floats(-2.0, 2.0),
       at=st.floats(0.0, 1.0), period=st.integers(2, 64))
@example(t1=0.082719, t2_frac=(2.064601 - 0.082719) / (math.pi - 0.082719),
         x=-0.123641, y=-0.510395, at=1.0, period=58)
@example(t1=0.748491, t2_frac=(0.772301 - 0.748491) / (math.pi - 0.748491),
         x=0.101912, y=0.189275, at=1.0, period=2)
def test_a_proven_cycle_never_converges(t1, t2_frac, x, y, at, period):
    # a point of a random orbit, with the orbit's detected period or a
    # drawn one: wherever the proof holds, the first-branch orbit from
    # there never enters a termination ball
    cfg = ProblemConfig(t1, t1 + (math.pi - t1) * t2_frac)
    tr = simulate(cfg, (x, y), max_steps=2048)
    if isinstance(tr.verdict, Cycle):
        period = tr.verdict.period
    point = tr.points[round(at * (len(tr.points) - 1))]
    cert = certify_cycle(cfg, point, period)
    event(f"certified: {cert is not None}")
    if cert is not None:
        assert period % cert.period == 0
        long = simulate(cfg, point, FirstBranch(), max_steps=20000,
                        record=False)
        assert not isinstance(long.verdict, ConvergedTo)


def count_steps():
    # every dr._steps step the experiments module runs
    taken = [0]
    steps = experiments._steps

    def counted(*args):
        out = steps(*args)
        taken[0] += out[3]
        return out

    return taken, mock.patch.object(experiments, "_steps", counted)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sweep_walks_stop_at_proofs_and_change_no_outcome(seed):
    pairs = list(make_theta_grid(4, 4)) + [
        (0.748491, 0.772301), (0.082719, 2.064601), (0.703469, 3.138852)]
    taken, counting = count_steps()
    with counting:
        got = sweep(pairs, samples_per_pair=20, seed=seed)
        proven = taken[0]
        taken[0] = 0
        with mock.patch.object(experiments, "_prove_cycle",
                               lambda consts, p: None):
            want = sweep(pairs, samples_per_pair=20, seed=seed)
    assert got == want
    assert sum(q.nonconvergent_found for q in got.pairs) >= 3
    assert proven < taken[0]


def test_every_nonconvergent_benchmark_sweep_walk_ends_at_a_proof():
    # seed 0 of the benchmark's 40x40x20 sweep: each walk that does not
    # converge stops at a proof, which re-proves through certify_cycle from
    # the point the walk stops at, and none is left to a re-run
    walks, proofs = [], []
    walk, proof = experiments._proven_walk, experiments._proof

    def spy_walk(*args):
        out = walk(*args)
        walks.append((tuple(args[0]), out))
        return out

    def spy_proof(*args):
        out = proof(*args)
        if out is not None:
            proofs.append(cycles._root(out[0]))
        return out

    pairs = make_theta_grid(40, 40)
    with mock.patch.object(experiments, "_proven_walk", spy_walk), \
            mock.patch.object(experiments, "_proof", spy_proof):
        grid = sweep(pairs, samples_per_pair=20, seed=0)
    flagged = sum(q.nonconvergent_found for q in grid.pairs)
    verdicts = [out[0] for _, out in walks]
    assert None not in verdicts
    stopped = [v for v in verdicts if not isinstance(v, ConvergedTo)]
    assert len(stopped) == len(proofs) == flagged == 101
    assert stopped == [Cycle(p) for p in proofs]
    cfgs = {experiments._constants(cfg): cfg
            for cfg in (ProblemConfig(*p) for p in pairs)}
    for consts, (v, x, y, _) in walks:
        if isinstance(v, Cycle):
            assert certify_cycle(cfgs[consts], (x, y), v.period).period == \
                v.period
