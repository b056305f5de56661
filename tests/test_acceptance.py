"""Whole-package acceptance checks.

One test per promised behavior, each at its advertised tolerance and
runtime budget: exact single-pair decay, operator equivalences, the
certificate and its decrease property, increase-ball geometry, robustness
under perturbation, orbit detection, basin rasters, and sweep consistency.
"""
import math
import time

import numpy as np
import pytest

from drlines.dr import dr_multivalued, dr_reversed, dr_two_lines, dr_two_lines_compose
from drlines.experiments import Cycle, make_theta_grid, rasterize, simulate, sweep
from drlines.exports import pgm_bytes
from drlines.geometry import Line, ProblemConfig
from drlines.lyapunov import (
    LyapunovCertificate,
    certify,
    decrease_check,
    v_global,
    v_local,
    verify_ball_bruteforce,
    verify_containment,
)
from drlines.robust import (
    PerturbationSpec,
    check_kl_bound,
    check_lemma_sigma,
    run_perturbed_many,
)

FIG_CFG = ProblemConfig(math.pi / 3, 2 * math.pi / 5)


def test_single_pair_exact_decay():
    # squared distance to the intersection decays by exactly cos^2(theta)
    start = time.perf_counter()
    rng = np.random.default_rng(10)
    for _ in range(10000):
        theta = rng.uniform(1e-6, math.pi - 1e-6)
        p = (rng.uniform(-5, 5), 0.0)
        x = rng.uniform(-10, 10, size=2)
        v = (x[0] - p[0]) ** 2 + x[1] ** 2
        tx = dr_two_lines(p, theta, x)
        vt = (tx[0] - p[0]) ** 2 + tx[1] ** 2
        assert abs(vt - math.cos(theta) ** 2 * v) <= 1e-12 * (1.0 + v)
    assert time.perf_counter() - start < 1.0


def test_closed_form_matches_composition():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    axis = Line((0.0, 0.0), 0.0)
    worst = 0.0
    for _ in range(10000):
        theta = rng.uniform(1e-6, math.pi - 1e-6)
        p = (rng.uniform(-5, 5), 0.0)
        x = rng.uniform(-10, 10, size=2)
        closed = dr_two_lines(p, theta, x)
        composed = dr_two_lines_compose(Line(p, theta), axis, x)
        worst = max(worst, float(np.max(np.abs(closed - composed))))
    assert worst <= 1e-10
    assert time.perf_counter() - start < 1.0


def test_reference_config_certificate_and_decrease():
    start = time.perf_counter()
    cert = certify(FIG_CFG)
    assert isinstance(cert, LyapunovCertificate)
    assert 0.0 < cert.gamma < 1.0
    rng = np.random.default_rng(12)
    pts = rng.uniform(-10, 10, size=(100000, 2))
    assert all(decrease_check(cert, FIG_CFG, (x, y)) for x, y in pts)
    assert time.perf_counter() - start < 10.0


def test_increase_ball_oracle_and_containment():
    start = time.perf_counter()
    rng = np.random.default_rng(13)
    for k in range(5):
        t1 = rng.uniform(0.1, 0.5 * math.pi - 0.05)
        t2 = rng.uniform(t1 + 0.05, math.pi - 0.02)
        cfg = ProblemConfig(t1, t2)
        rho_crit = (1 + math.sin(t1)) * (1 + math.sin(t2))
        for index in (1, 2):
            for scale in (1.0, 1.5):
                report = verify_ball_bruteforce(cfg, index, scale * rho_crit,
                                                seed=100 * k + index)
                assert report.max_disagreement_distance <= 1e-8
            inside, margin = verify_containment(cfg, index, rho_crit)
            assert inside and margin >= 0.0
    assert time.perf_counter() - start < 30.0


def test_critical_inflation_quadratic_root():
    # larger root of r^2 - (2 + 2 s1 s2) r + c1^2 c2^2 is (1+s1)(1+s2)
    start = time.perf_counter()
    for t1, t2 in make_theta_grid(100, 100):
        s1, s2 = math.sin(t1), math.sin(t2)
        c1, c2 = math.cos(t1), math.cos(t2)
        b = 2.0 + 2.0 * s1 * s2
        root = 0.5 * (b + math.sqrt(b * b - 4.0 * c1 * c1 * c2 * c2))
        assert abs(root - (1.0 + s1) * (1.0 + s2)) <= 1e-12
    assert time.perf_counter() - start < 5.0


def test_reversed_operator_conjugacy_and_decrease():
    start = time.perf_counter()
    cert = certify(FIG_CFG)
    rng = np.random.default_rng(14)
    for _ in range(10000):
        x = rng.uniform(-10, 10, size=2)
        mirrored = (x[0], -x[1])
        # reflecting across the axis moves neither anchor
        for i in (1, 2):
            assert abs(v_local(FIG_CFG, i, mirrored)
                       - v_local(FIG_CFG, i, x)) <= 1e-10
        # forward step == reflect, reversed step, reflect back, branch-wise
        fwd = dr_multivalued(FIG_CFG, x)
        rev = dr_reversed(FIG_CFG, mirrored)
        assert len(fwd.outputs) == len(rev.outputs)
        for (fx, fy), (rx, ry) in zip(fwd.outputs, rev.outputs):
            assert max(abs(fx - rx), abs(fy + ry)) <= 1e-10
        # the reversed-order operator obeys the same certificate
        vx = v_global(cert, FIG_CFG, x)
        for out in dr_reversed(FIG_CFG, x).outputs:
            assert v_global(cert, FIG_CFG, out) <= cert.gamma * vx * (1 + 1e-9)
    assert time.perf_counter() - start < 5.0


def test_perturbed_traces_respect_kl_bound():
    start = time.perf_counter()
    cert = certify(FIG_CFG)
    spec = PerturbationSpec.from_certificate(cert, epsilon=0.05)
    rng = np.random.default_rng(15)
    for i in range(1000):
        x = rng.uniform(-10, 10, size=2)
        assert check_lemma_sigma(spec, FIG_CFG, x, seed=i)
    starts = rng.uniform(-6, 6, size=(1000, 2))
    for mode, ids in (("adversarial", [i for i in range(1000) if i % 10 < 3]),
                      ("random", [i for i in range(1000) if i % 10 >= 3])):
        lanes = run_perturbed_many(spec, FIG_CFG, starts[ids], 200, seed=11,
                                   trace_ids=ids, mode=mode)
        for i, points in zip(ids, lanes.points):
            ok, margin = check_kl_bound(spec, FIG_CFG, points.tolist())
            assert ok, (i, mode, margin)
    assert time.perf_counter() - start < 60.0


def test_periodic_orbit_detection():
    start = time.perf_counter()
    tr = simulate(ProblemConfig(0.082719, 2.064601),
                  (-0.123641, -0.510395), record=False)
    assert tr.verdict == Cycle(58)
    tr = simulate(ProblemConfig(0.748491, 0.772301),
                  (0.101912, 0.189275), record=False)
    assert tr.verdict == Cycle(2)
    assert time.perf_counter() - start < 30.0


def test_periodic_orbit_long_period():
    tr = simulate(ProblemConfig(0.703469, 3.138852),
                  (0.392560, -0.351588), max_steps=60000, record=False)
    assert tr.verdict == Cycle(1410)


def test_basin_raster_full_convergence_and_determinism():
    start = time.perf_counter()
    images = []
    for _ in range(2):
        grid = rasterize(FIG_CFG, (-3, 3, -3, 3), (200, 200), seed=7)
        images.append(pgm_bytes(grid))
        assert set(np.unique(grid.cells)) <= {1, 2}
        assert np.count_nonzero(grid.cells == 1) > 0
        assert np.count_nonzero(grid.cells == 2) > 0
    assert images[0] == images[1]
    assert time.perf_counter() - start < 60.0


def test_grid_sweep_consistency():
    start = time.perf_counter()
    sg = sweep(make_theta_grid(40, 40), samples_per_pair=20, seed=2)
    assert len(sg.pairs) == 1600
    assert not any(q.eq26_holds and q.nonconvergent_found for q in sg.pairs)
    assert any(q.eq26_holds for q in sg.pairs)
    orbit_pairs = [(0.748491, 0.772301), (0.082719, 2.064601),
                   (0.703469, 3.138852)]
    sg = sweep(orbit_pairs, samples_per_pair=20, seed=2)
    assert all(q.nonconvergent_found for q in sg.pairs)
    assert time.perf_counter() - start < 600.0
