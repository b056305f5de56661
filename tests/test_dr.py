"""DR operators: closed form vs composition, branches, reversed order,
each against the reflection-based definitions of the oracle."""
import math
from array import array

import numpy as np
import pytest

from dr_oracle import (
    dr_multivalued_reference,
    dr_two_lines_reference,
    step_points,
)
from drlines import dr
from drlines.dr import dr_multivalued, dr_reversed, dr_two_lines
from drlines.geometry import (
    ProblemConfig,
    Region,
    bisector_data,
    cos_sin,
    distance_to_D3,
)
from geometry_oracle import (AXIS, Line, dr_reversed_reference,
                             dr_two_lines_compose, lines, reflect)

FIG_CFG = ProblemConfig(math.pi / 3, 2 * math.pi / 5)
ORACLE_CFGS = [FIG_CFG, ProblemConfig(math.pi / 2, 2.0),
               ProblemConfig(0.3, 2.9)]


def test_rotation_matrix_convention():
    # through the origin the step is x -> cos(theta) M_theta x, so its
    # images of the unit vectors are the columns of M_theta times cos(theta)
    rng = np.random.default_rng(3)
    for _ in range(100):
        t = rng.uniform(0, math.pi)
        m = np.column_stack([dr_two_lines((0.0, 0.0), t, e)
                             for e in np.eye(2)]) / math.cos(t)
        assert abs(np.linalg.det(m) - 1.0) < 1e-12
        assert np.allclose(m @ m.T, np.eye(2), atol=1e-12)
        assert np.allclose(m @ [1.0, 0.0], [math.cos(t), -math.sin(t)], atol=1e-12)


def test_closed_form_trivial_cases():
    p = np.array([-0.5, 0.0])
    # vertical line: every point maps to the anchor, exactly
    for x in [(5.0, 5.0), (-3.0, 2.0), (0.25, -7.0)]:
        out = dr_two_lines(p, math.pi / 2, x)
        assert out[0] == p[0] and out[1] == p[1]
    # the anchor is fixed
    assert np.allclose(dr_two_lines(p, 1.1, p), p, atol=0)
    # frozen: p = 0, theta = pi/4, x = (1,0) -> (1/2, -1/2)
    assert np.allclose(dr_two_lines((0.0, 0.0), math.pi / 4, (1.0, 0.0)),
                       [0.5, -0.5], atol=1e-12)


def test_closed_form_rejects_degenerate_angle():
    with pytest.raises(ValueError):
        dr_two_lines((0.0, 0.0), 0.0, (1.0, 1.0))
    with pytest.raises(ValueError):
        dr_two_lines((0.0, 0.0), math.pi, (1.0, 1.0))


def test_compositional_frozen_value():
    got = dr_two_lines_compose(lines(FIG_CFG)[0], AXIS, (1.0, 1.0))
    assert np.allclose(got, [0.3080127018922194, -0.399519052838329], atol=1e-12)


def test_closed_form_equals_composition():
    # the compositional operator is the oracle for the affine formula;
    # the anchor must sit on the axis so the two lines meet there
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10000):
        t = rng.uniform(0.01, math.pi - 0.01)
        p = (rng.normal() * 2, 0.0)
        x = rng.normal(size=2) * 5
        got = dr_two_lines(p, t, x)
        want = dr_two_lines_compose(Line(p, t), AXIS, x)
        worst = max(worst, float(np.linalg.norm(got - want)))
    assert worst <= 1e-10


def test_multivalued_branch_count_and_order():
    step = dr_multivalued(FIG_CFG, FIG_CFG.p1)
    assert step.region is Region.D1
    assert len(step.outputs) == 1
    assert np.allclose(step.outputs[0], FIG_CFG.p1, atol=0)

    c = bisector_data(FIG_CFG).c
    step = dr_multivalued(FIG_CFG, c)
    assert step.region is Region.D3
    assert len(step.outputs) == 2
    # A1 branch first
    assert np.allclose(step.outputs[0], dr_two_lines(FIG_CFG.p1, FIG_CFG.theta1, c),
                       atol=0)
    assert np.allclose(step.outputs[1], dr_two_lines(FIG_CFG.p2, FIG_CFG.theta2, c),
                       atol=0)


@pytest.mark.parametrize("t1,t2,sign", [(1.2, 2.5, 1.0),
                                         (math.pi / 3, 2 * math.pi / 5, -1.0)])
def test_tie_band_edges_are_closed(monkeypatch, t1, t2, sign):
    # no float start has a gap exactly on the band, but at the origin the
    # band is TIE_TOL itself: with TIE_TOL = |gap(0, 0)|, and _steps'
    # screen to match, the origin lies on the band's upper (gap > 0) or
    # lower (gap < 0) edge, and both steps call it a tie
    c1, s1 = cos_sin(t1)
    c2, s2 = cos_sin(t2)
    gap = dr._gap(c1, s1, c2, s2, 0.0, 0.0)
    assert math.copysign(1.0, gap) == sign
    tol = abs(gap)
    monkeypatch.setattr(dr, "TIE_TOL", tol)
    monkeypatch.setattr(dr, "_SCREEN", 2.0 * tol ** 2 * (1.0 + 1e-6))
    assert dr_multivalued(ProblemConfig(t1, t2), (0.0, 0.0)).region is Region.D3
    buf = array("d")
    assert dr._steps(c1, s1, c2, s2, 0.0, 0.0, 0.0, 0.0, 1, buf) == (
        0, 0.0, 0.0, 0)
    assert not buf


def test_multivalued_frozen_value():
    step = dr_multivalued(FIG_CFG, (0.0, 1.0))
    assert step.region is Region.D1
    assert np.allclose(step.outputs[0],
                       [0.05801270189221941, 0.03349364905389041], atol=1e-12)


def test_fixed_points_are_exactly_the_anchors():
    for p in [FIG_CFG.p1, FIG_CFG.p2]:
        step = dr_multivalued(FIG_CFG, p)
        assert np.allclose(step.outputs[0], p, atol=1e-12)
    rng = np.random.default_rng(13)
    for _ in range(2000):
        x = rng.uniform(-5, 5, size=2)
        if min(np.linalg.norm(x - FIG_CFG.p1), np.linalg.norm(x - FIG_CFG.p2)) < 1e-3:
            continue
        step = dr_multivalued(FIG_CFG, x)
        assert all(np.linalg.norm(np.array(o) - x) > 1e-9 for o in step.outputs)


def test_affine_on_each_region():
    rng = np.random.default_rng(19)
    n_checked = 0
    while n_checked < 2000:
        x = rng.uniform(-5, 5, size=2)
        if distance_to_D3(FIG_CFG, x) < 0.3:
            continue
        y = x + rng.uniform(-0.1, 0.1, size=2)
        lam = rng.uniform(0, 1)
        z = lam * x + (1 - lam) * y
        sx = dr_multivalued(FIG_CFG, x)
        sy = dr_multivalued(FIG_CFG, y)
        sz = dr_multivalued(FIG_CFG, z)
        if not (sx.region is sy.region is sz.region) or sx.region is Region.D3:
            continue
        n_checked += 1
        want = lam * np.array(sx.outputs[0]) + (1 - lam) * np.array(sy.outputs[0])
        assert np.allclose(sz.outputs[0], want, atol=1e-10)


def reversed_step(cfg, x):
    # the library's reversed step against its definition (x + R_A R_B x) / 2
    # and, branch by branch, against R_B T R_B x, each within 1e-10
    got, want = dr_reversed(cfg, x), dr_reversed_reference(cfg, x)
    fwd = dr_multivalued(cfg, reflect(AXIS, x))
    assert got.input == want.input and got.region is want.region is fwd.region
    for outs in (want.outputs, [reflect(AXIS, b) for b in fwd.outputs]):
        assert np.hypot(*np.subtract(got.outputs, outs).T).max() <= 1e-10
    return got


def test_reversed_fixed_point_and_tie():
    step = reversed_step(FIG_CFG, FIG_CFG.p1)
    assert len(step.outputs) == 1
    assert np.allclose(step.outputs[0], FIG_CFG.p1, atol=1e-12)
    # a point on the axis equidistant from both lines reflects to itself,
    # so the reversed operator ties there
    s1, s2 = math.sin(FIG_CFG.theta1), math.sin(FIG_CFG.theta2)
    xt = 0.5 * (s2 - s1) / (s1 + s2)
    step = reversed_step(FIG_CFG, (xt, 0.0))
    assert step.region is Region.D3
    assert len(step.outputs) == 2


def test_reversed_conjugacy():
    # R_B T_AB R_B x = T_BA x, branch by branch
    rng = np.random.default_rng(21)
    for _ in range(10000):
        reversed_step(FIG_CFG, rng.uniform(-6, 6, size=2))


def test_reversed_conjugacy_random_configs():
    rng = np.random.default_rng(27)
    for _ in range(50):
        t1 = rng.uniform(0.05, math.pi / 2)
        t2 = rng.uniform(t1 + 0.05, math.pi - 0.02)
        cfg = ProblemConfig(t1, t2)
        for _ in range(50):
            reversed_step(cfg, rng.uniform(-4, 4, size=2))


@pytest.mark.parametrize("cfg", ORACLE_CFGS,
                         ids=["figure", "vertical", "obtuse"])
def test_multivalued_matches_reference(cfg):
    # regions and outputs, signs of zero included, equal the operator as
    # classify_region and the written-out closed form gave them
    rng = np.random.default_rng(31)
    pts = step_points(cfg) + [tuple(x) for x in rng.normal(size=(300, 2)) * 3]
    pts += [np.array(x) for x in pts[:20]] + [list(x) for x in pts[-20:]]
    ties = 0
    for x in pts:
        got = dr_multivalued(cfg, x)
        assert repr(got) == repr(dr_multivalued_reference(cfg, x)), x
        ties += got.region is Region.D3
    assert ties >= 8


def test_closed_form_matches_reference():
    # anchors mostly off the x-axis, points one at a time and as (2, n)
    # arrays, the anchor itself and both signs of zero among them
    rng = np.random.default_rng(37)
    for k in range(200):
        t = math.pi / 2 if k % 5 == 0 else rng.uniform(0.01, math.pi - 0.01)
        p = (rng.normal() * 2, 0.0 if k % 4 == 0 else rng.normal() * 2)
        xs = np.hstack([rng.normal(size=(2, 16)) * 5,
                        [[p[0], 0.0, -0.0], [p[1], -0.0, p[1]]]])
        got = dr_two_lines(p, t, xs)
        assert got.tobytes() == dr_two_lines_reference(p, t, xs).tobytes()
        for x in xs.T.tolist():
            assert (dr_two_lines(p, t, x).tobytes()
                    == dr_two_lines_reference(p, t, x).tobytes()), (p, t, x)
