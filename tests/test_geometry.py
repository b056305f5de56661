"""Geometry: the reflection-based definitions of the oracle, the config,
the library's regions against the closer-line definition, bisectors."""
import math

import numpy as np
import pytest

from drlines.dr import dr_multivalued
from drlines.geometry import ProblemConfig, Region, bisector_data, distance_to_D3
from geometry_oracle import (AXIS, Line, classify_region, distance_to_line,
                             lines, project, reflect)

FIG_CFG = ProblemConfig(math.pi / 3, 2 * math.pi / 5)
A1, A2, _ = lines(FIG_CFG)


def project_oracle(line, x, lo=-20.0, hi=20.0):
    """Minimize |x - (anchor + t*direction)| by dense grid + ternary refinement."""
    a = np.asarray(line.anchor)
    d = np.asarray(line.direction)
    x = np.asarray(x, dtype=float)
    ts = np.linspace(lo, hi, 20001)
    errs = np.linalg.norm(a[None, :] + ts[:, None] * d[None, :] - x, axis=1)
    i = int(np.argmin(errs))
    lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
    for _ in range(200):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if np.linalg.norm(a + m1 * d - x) < np.linalg.norm(a + m2 * d - x):
            hi = m2
        else:
            lo = m1
    return a + 0.5 * (lo + hi) * d


def d3_samples(cfg, box, n):
    """Points on D3 found by bisecting sign changes of d(.,A1) - d(.,A2)."""
    s1, c1 = math.sin(cfg.theta1), math.cos(cfg.theta1)
    s2, c2 = math.sin(cfg.theta2), math.cos(cfg.theta2)

    def f(p):
        da = np.abs((p[..., 0] + 0.5) * s1 - p[..., 1] * c1)
        db = np.abs((p[..., 0] - 0.5) * s2 - p[..., 1] * c2)
        return da - db

    xs = np.linspace(box[0], box[1], n)
    ys = np.linspace(box[2], box[3], n)
    X, Y = np.meshgrid(xs, ys)
    P = np.stack([X, Y], axis=-1)
    F = f(P)
    out = []
    for (m, sa, sb) in [
        (F[:, :-1] * F[:, 1:] <= 0, (slice(None), slice(None, -1)), (0, 1)),
        (F[:-1, :] * F[1:, :] <= 0, (slice(None, -1), slice(None)), (1, 0)),
    ]:
        ii, jj = np.nonzero(m)
        if len(ii) == 0:
            continue
        A = P[sa][ii, jj].copy()
        B = A + np.array([(box[1] - box[0]) / (n - 1) * sb[1],
                          (box[3] - box[2]) / (n - 1) * sb[0]])
        fa = f(A)
        for _ in range(60):
            M = 0.5 * (A + B)
            fm = f(M)
            left = fa * fm <= 0
            B[left] = M[left]
            A[~left] = M[~left]
            fa = f(A)
        out.append(0.5 * (A + B))
    return np.concatenate(out, axis=0)


def brute_distance_to_D3(cfg, x):
    """Two-stage grid oracle for the distance from x to D3."""
    x = np.asarray(x, dtype=float)
    pts = d3_samples(cfg, (-4.0, 6.0, -2.0, 8.0), 400)
    i = int(np.argmin(np.linalg.norm(pts - x[None, :], axis=1)))
    cx, cy = pts[i]
    pts = d3_samples(cfg, (cx - 0.05, cx + 0.05, cy - 0.05, cy + 0.05), 400)
    return float(np.min(np.linalg.norm(pts - x[None, :], axis=1)))


def random_cfg(rng):
    t1 = rng.uniform(0.05, math.pi / 2)
    t2 = rng.uniform(t1 + 0.05, math.pi - 0.02)
    return ProblemConfig(t1, t2)


def test_line_derived_vectors_are_unit_and_orthogonal():
    rng = np.random.default_rng(11)
    for _ in range(200):
        line = Line((rng.normal(), rng.normal()), rng.uniform(0.0, math.pi))
        d, n = np.asarray(line.direction), np.asarray(line.normal)
        assert abs(np.linalg.norm(d) - 1.0) < 1e-12
        assert abs(np.linalg.norm(n) - 1.0) < 1e-12
        assert abs(float(np.dot(d, n))) < 1e-12


def test_vertical_snap_is_exact():
    line = Line((0.0, 0.0), 1.5707963268)
    assert line.direction == (0.0, 1.0)
    assert line.normal == (1.0, -0.0)


def test_config_rejects_bad_angles():
    with pytest.raises(ValueError):
        ProblemConfig(0.5, 0.4)
    with pytest.raises(ValueError):
        ProblemConfig(0.0, 1.0)
    with pytest.raises(ValueError):
        ProblemConfig(1.7, 2.0)
    with pytest.raises(ValueError):
        ProblemConfig(0.5, math.pi)


def test_project_trivial_cases():
    assert np.allclose(project(AXIS, (1.0, 1.0)), [1.0, 0.0], atol=1e-15)
    vert = Line((0.0, 0.0), math.pi / 2)
    assert np.allclose(project(vert, (3.0, 5.0)), [0.0, 5.0], atol=1e-15)


def test_project_matches_grid_oracle():
    # frozen from the oracle: foot of (0,0) on A1 of the pi/3, 2pi/5 config
    got = project(A1, (0.0, 0.0))
    assert np.allclose(got, [-0.375, 0.21650635094610965], atol=1e-12)
    assert np.allclose(got, project_oracle(A1, (0.0, 0.0)), atol=1e-6)


def test_project_idempotent_and_on_line():
    rng = np.random.default_rng(17)
    for _ in range(10000):
        line = Line((rng.normal(), rng.normal()), rng.uniform(0.0, math.pi))
        x = rng.normal(size=2) * 3
        pr = project(line, x)
        assert np.allclose(project(line, pr), pr, atol=1e-12)
        assert distance_to_line(line, pr) < 1e-12
        # the residual is parallel to the normal
        res = x - pr
        d = np.asarray(line.direction)
        assert abs(float(np.dot(res, d))) < 1e-12


def test_reflect_trivial_cases():
    assert np.allclose(reflect(AXIS, (1.0, 1.0)), [1.0, -1.0], atol=1e-15)
    on_line = project(A2, (2.0, 1.0))
    assert np.allclose(reflect(A2, on_line), on_line, atol=1e-12)


def test_reflect_matches_projection_oracle():
    # frozen: 2*project - identity for (1,0) across A1
    got = reflect(A1, (1.0, 0.0))
    assert np.allclose(got, [-1.25, 1.299038105676658], atol=1e-12)
    want = 2 * project_oracle(A1, (1.0, 0.0)) - np.array([1.0, 0.0])
    assert np.allclose(got, want, atol=1e-6)
    assert abs(distance_to_line(A1, got)
               - distance_to_line(A1, (1.0, 0.0))) < 1e-12


def test_reflect_involution_and_isometry():
    rng = np.random.default_rng(23)
    for _ in range(10000):
        line = Line((rng.normal(), rng.normal()), rng.uniform(0.0, math.pi))
        x = rng.normal(size=2) * 4
        y = rng.normal(size=2) * 4
        assert np.allclose(reflect(line, reflect(line, x)), x, atol=1e-12)
        assert abs(np.linalg.norm(reflect(line, x) - reflect(line, y))
                   - np.linalg.norm(x - y)) < 1e-12


def test_distance_trivial_and_frozen():
    assert distance_to_line(AXIS, (2.0, -3.0)) == 3.0
    assert distance_to_line(A1, FIG_CFG.p1) == 0.0
    # frozen: |<(0,0) - p2, normal2>|
    assert distance_to_line(A2, (0.0, 0.0)) == pytest.approx(
        0.47552825814757677, abs=1e-15)


def test_distance_equals_projection_residual():
    rng = np.random.default_rng(29)
    for _ in range(2000):
        line = Line((rng.normal(), rng.normal()), rng.uniform(0.0, math.pi))
        x = rng.normal(size=2) * 5
        want = np.linalg.norm(x - project(line, x))
        assert abs(distance_to_line(line, x) - want) < 1e-12


def region(cfg, x):
    # the library's classification, by the sign and size of dr._gap, and
    # the definition's, by the two line distances, at TIE_TOL; they must
    # agree
    got = dr_multivalued(cfg, x).region
    assert got is classify_region(cfg, x)
    return got


def test_classify_region_basics():
    assert region(FIG_CFG, FIG_CFG.p1) is Region.D1
    assert region(FIG_CFG, FIG_CFG.p2) is Region.D2
    c = bisector_data(FIG_CFG).c
    assert region(FIG_CFG, c) is Region.D3
    # frozen: d1 = 0.0670, d2 = 0.7845 at (0,1), so strictly closer to A1
    assert region(FIG_CFG, (0.0, 1.0)) is Region.D1


def test_region_partition_away_from_D3():
    rng = np.random.default_rng(31)
    tol = 1e-9
    n_checked = 0
    while n_checked < 2000:
        cfg = random_cfg(rng)
        x = rng.uniform(-5, 5, size=2)
        if distance_to_D3(cfg, x) <= 10 * tol:
            continue
        n_checked += 1
        label = region(cfg, x)
        d1, d2 = (distance_to_line(a, x) for a in lines(cfg)[:2])
        assert label is (Region.D1 if d1 < d2 else Region.D2)


def test_bisector_point_matches_linear_solve():
    bd = bisector_data(FIG_CFG)
    # frozen from the 2x2 linear-solve oracle
    assert bd.c[0] == pytest.approx(1.7871645951087527, abs=1e-9)
    assert bd.c[1] == pytest.approx(3.9614852840010584, abs=1e-9)
    # the point lies on both lines
    assert distance_to_line(A1, bd.c) < 1e-9
    assert distance_to_line(A2, bd.c) < 1e-9
    assert abs(np.dot(bd.n1, bd.n2)) < 1e-12
    assert abs(np.linalg.norm(bd.n1) - 1.0) < 1e-12
    assert abs(np.linalg.norm(bd.n2) - 1.0) < 1e-12


def test_bisector_point_linear_solve_random_configs():
    rng = np.random.default_rng(37)
    for _ in range(300):
        cfg = random_cfg(rng)
        s1, c1 = math.sin(cfg.theta1), math.cos(cfg.theta1)
        s2, c2 = math.sin(cfg.theta2), math.cos(cfg.theta2)
        A = np.array([[s1, -c1], [s2, -c2]])
        rhs = np.array([-0.5 * s1, 0.5 * s2])
        want = np.linalg.solve(A, rhs)
        assert np.allclose(bisector_data(cfg).c, want, atol=1e-8, rtol=1e-8)


def test_symmetric_config_centers_the_crossing():
    cfg = ProblemConfig(math.pi / 3, math.pi - math.pi / 3)
    assert abs(bisector_data(cfg).c[0]) < 1e-12


def test_equidistant_points_lie_on_a_bisector():
    pts = d3_samples(FIG_CFG, (-4.0, 6.0, -2.0, 8.0), 400)
    rng = np.random.default_rng(41)
    idx = rng.choice(len(pts), size=min(1000, len(pts)), replace=False)
    bd = bisector_data(FIG_CFG)
    for p in pts[idx]:
        v = np.asarray(bd.c) - p
        r1 = abs(float(np.dot(v, bd.n1)))
        r2 = abs(float(np.dot(v, bd.n2)))
        assert min(r1, r2) < 1e-8


def test_distance_to_D3_frozen_and_brute_force():
    assert distance_to_D3(FIG_CFG, bisector_data(FIG_CFG).c) == pytest.approx(0.0, abs=1e-12)
    # frozen closed-form values for the pi/3, 2pi/5 config
    d1 = distance_to_D3(FIG_CFG, FIG_CFG.p1)
    d2 = distance_to_D3(FIG_CFG, FIG_CFG.p2)
    assert d1 == pytest.approx(0.4781476007338054, abs=1e-12)
    assert d2 == pytest.approx(0.43539785690879557, abs=1e-12)
    assert brute_distance_to_D3(FIG_CFG, FIG_CFG.p1) == pytest.approx(d1, abs=1e-6)
    assert brute_distance_to_D3(FIG_CFG, FIG_CFG.p2) == pytest.approx(d2, abs=1e-6)


def test_distance_to_D3_zero_on_classified_ties():
    pts = d3_samples(FIG_CFG, (-4.0, 6.0, -2.0, 8.0), 200)
    for p in pts[::25]:
        assert distance_to_D3(FIG_CFG, p) < 1e-8
        assert region(FIG_CFG, p) is Region.D3
