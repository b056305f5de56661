"""Lyapunov functions, certificates, increase balls, containment margins."""
import dataclasses
import math

import numpy as np
import pytest

from drlines.dr import dr_multivalued, dr_two_lines
from drlines import lyapunov
from drlines.geometry import ProblemConfig, Region, distance_to_D3
from drlines.lyapunov import (
    Infeasible,
    LyapunovCertificate,
    certify,
    decrease_check,
    increase_ball,
    sandwich_bounds,
    v_global,
    v_local,
    verify_ball_bruteforce,
    verify_containment,
)
from dr_oracle import step_points
from geometry_oracle import classify_region

FIG_CFG = ProblemConfig(math.pi / 3, 2 * math.pi / 5)
FIG_CERT = certify(FIG_CFG)

CYCLING_PAIRS = [
    ((0.748491, 0.772301), -0.6841671712227221),
    ((0.082719, 2.064601), -0.4952143441015133),
    ((0.703469, 3.138852), -0.2516101487132257),
]


def random_cfg(rng, lo=0.05):
    t1 = rng.uniform(lo, math.pi / 2)
    t2 = rng.uniform(t1 + 0.05, math.pi - 0.02)
    return ProblemConfig(t1, t2)


def test_v_local_basics():
    assert v_local(FIG_CFG, 1, FIG_CFG.p1) == 0.0
    assert v_local(FIG_CFG, 1, FIG_CFG.p2) == 1.0
    assert v_local(FIG_CFG, 2, (0.0, 1.0)) == 1.25
    with pytest.raises(ValueError):
        v_local(FIG_CFG, 3, (0.0, 0.0))


def test_two_line_exact_decay():
    # V_p(Tx) = cos^2(theta) V_p(x), to float precision
    rng = np.random.default_rng(101)
    for _ in range(10000):
        t = rng.uniform(0.01, math.pi - 0.01)
        p = (rng.normal(), 0.0)
        x = rng.normal(size=2) * 6
        y = dr_two_lines(p, t, x)
        vx = (x[0] - p[0]) ** 2 + x[1] ** 2
        vy = (y[0] - p[0]) ** 2 + y[1] ** 2
        assert abs(vy - math.cos(t) ** 2 * vx) <= 1e-12 * (1.0 + vx)


def test_v_global_zero_exactly_at_attractors():
    assert v_global(FIG_CERT, FIG_CFG, FIG_CFG.p1) == 0.0
    assert v_global(FIG_CERT, FIG_CFG, FIG_CFG.p2) == 0.0
    assert v_global(FIG_CERT, FIG_CFG, (0.1, 0.2)) > 0.0


def test_v_global_values():
    class Alpha1:
        alpha = 1.0

    assert v_global(Alpha1(), FIG_CFG, (0.0, 1.0)) == pytest.approx(1.5625, rel=1e-14)
    want = 1.25 ** (FIG_CERT.alpha + 1.0)
    assert v_global(FIG_CERT, FIG_CFG, (0.0, 1.0)) == pytest.approx(want, rel=1e-12)


def test_sandwich_trivial_and_bisector():
    sb = sandwich_bounds(FIG_CERT, FIG_CFG, FIG_CFG.p1)
    assert sb.omega1 == 0.0 and sb.phi_omega1 == 0.0
    assert sb.phi_omega2 == pytest.approx(1.0, rel=1e-14)
    # on the perpendicular bisector of the anchors V equals both bounds
    x = (0.0, 1.7)
    sb = sandwich_bounds(FIG_CERT, FIG_CFG, x)
    v = v_global(FIG_CERT, FIG_CFG, x)
    assert sb.omega1 == sb.omega2
    assert sb.phi_omega1 == pytest.approx(v, rel=1e-12)


def test_sandwich_holds_on_samples():
    rng = np.random.default_rng(103)
    for _ in range(10000):
        x = rng.uniform(-10, 10, size=2)
        sb = sandwich_bounds(FIG_CERT, FIG_CFG, x)
        v = v_global(FIG_CERT, FIG_CFG, x)
        assert sb.phi_omega1 <= v * (1 + 1e-12)
        assert v <= sb.phi_omega2 * (1 + 1e-12)


def test_eq26_margin_frozen_values():
    def margin(t1, t2):
        return certify(ProblemConfig(t1, t2)).condition_margin

    assert margin(math.pi / 3, 2 * math.pi / 5) == pytest.approx(
        1.5862808715764862, rel=1e-12)
    for (t1, t2), want in CYCLING_PAIRS:
        assert margin(t1, t2) == pytest.approx(want, rel=1e-12)
    assert margin(0.4, math.pi / 2) == math.inf


def test_margin_sign_matches_alpha_interval():
    # the sign of log(cos^2 t1) log(cos^2 t2) - (log P)^2, from its
    # definition, decides feasibility
    rng = np.random.default_rng(107)
    for _ in range(2000):
        cfg = random_cfg(rng)
        if cfg.theta1 == math.pi / 2 or cfg.theta2 == math.pi / 2:
            continue
        res = certify(cfg)
        t1, t2 = cfg.theta1, cfg.theta2
        m = (math.log(math.cos(t1) ** 2) * math.log(math.cos(t2) ** 2)
             - math.log((1 + math.sin(t1)) * (1 + math.sin(t2))) ** 2)
        if isinstance(res, LyapunovCertificate):
            assert m > 0.0
            assert res.alpha_min < res.alpha_max
        else:
            assert m <= 0.0


def test_certificate_frozen_fig_values():
    cert = FIG_CERT
    assert isinstance(cert, LyapunovCertificate)
    assert cert.alpha == pytest.approx(1.3748748043992831, rel=1e-14)
    assert cert.gamma == pytest.approx(0.564322215397296, rel=1e-14)
    assert cert.alpha_min == pytest.approx(0.9321120980414092, rel=1e-14)
    assert cert.alpha_max == pytest.approx(1.817637510757157, rel=1e-14)
    assert cert.condition_margin == pytest.approx(1.5862808715764862, rel=1e-14)
    assert not cert.special_case


def test_certificate_soundness_random_configs():
    # both condition inequalities hold at (alpha, gamma), and gamma < 1
    rng = np.random.default_rng(109)
    n_feasible = 0
    for _ in range(3000):
        cfg = random_cfg(rng)
        res = certify(cfg)
        if isinstance(res, Infeasible):
            continue
        n_feasible += 1
        c1, s1 = math.cos(cfg.theta1), math.sin(cfg.theta1)
        c2, s2 = math.cos(cfg.theta2), math.sin(cfg.theta2)
        P = (1 + s1) * (1 + s2)
        lhs1 = (c1 * c1) ** res.alpha * P
        lhs2 = (c2 * c2) * P ** res.alpha
        assert lhs1 <= res.gamma * (1 + 1e-12)
        assert lhs2 <= res.gamma * (1 + 1e-12)
        assert 0.0 < res.gamma < 1.0
        assert res.alpha_min <= res.alpha <= res.alpha_max
    assert n_feasible > 100


def test_certify_infeasible_for_cycling_pairs():
    for (t1, t2), margin in CYCLING_PAIRS:
        res = certify(ProblemConfig(t1, t2))
        assert isinstance(res, Infeasible)
        assert res.condition_margin == pytest.approx(margin, rel=1e-12)


def test_certify_special_case_vertical_a1():
    cfg = ProblemConfig(1.5707963268, 2.0)  # snaps to exactly pi/2
    cert = certify(cfg)
    assert isinstance(cert, LyapunovCertificate)
    assert cert.special_case
    assert cert.alpha_min == 0.0
    assert cert.alpha == pytest.approx(0.5 * cert.alpha_max, rel=1e-14)
    assert cert.gamma == pytest.approx(abs(math.cos(2.0)), rel=1e-12)
    assert cert.condition_margin == math.inf
    rng = np.random.default_rng(113)
    for _ in range(2000):
        assert decrease_check(cert, cfg, rng.uniform(-8, 8, size=2))


def test_certify_special_case_vertical_a2():
    cfg = ProblemConfig(0.7, math.pi / 2)
    cert = certify(cfg)
    assert isinstance(cert, LyapunovCertificate)
    assert cert.special_case
    assert cert.alpha_max == math.inf
    assert cert.alpha == pytest.approx(2.0 * cert.alpha_min, rel=1e-14)
    P = (1 + math.sin(0.7)) * 2.0
    assert cert.gamma == pytest.approx(1.0 / P, rel=1e-12)
    rng = np.random.default_rng(127)
    for _ in range(2000):
        assert decrease_check(cert, cfg, rng.uniform(-8, 8, size=2))


@pytest.mark.parametrize("t1,t2", [(1e-9, math.pi / 2),
                                   (math.pi / 2, math.pi - 1e-9)])
def test_certify_vertical_line_edge_classes_are_infeasible(t1, t2):
    # the other cosine rounds to +-1, so its l_i is 0 and the margin is
    # inf * 0 = NaN: no certificate, where the vertical-line limit would
    # divide by l1 = 0 (theta1 = 1e-9) or give gamma = 1 (theta2 near pi)
    res = certify(ProblemConfig(t1, t2))
    assert isinstance(res, Infeasible)
    assert math.isnan(res.condition_margin)


def test_certify_is_infeasible_where_gamma_rounds_to_1():
    # the margin is 2^-52 > 0, but the rate gamma at the midpoint alpha
    # rounds to 1: no usable certificate
    res = certify(ProblemConfig(0.4, 1.5289066706237044))
    assert isinstance(res, Infeasible)
    assert res.condition_margin == 2.220446049250313e-16


def test_decrease_check_basics():
    assert decrease_check(FIG_CERT, FIG_CFG, FIG_CFG.p1)
    assert decrease_check(FIG_CERT, FIG_CFG, FIG_CFG.p2)
    rng = np.random.default_rng(131)
    for _ in range(10000):
        assert decrease_check(FIG_CERT, FIG_CFG, rng.uniform(-10, 10, size=2))


def test_decrease_check_survives_underflow_near_attractor():
    x = (-0.5 + 1e-160, 1e-162)
    assert v_global(FIG_CERT, FIG_CFG, x) == 0.0
    assert decrease_check(FIG_CERT, FIG_CFG, x)


def test_decrease_check_rejects_inflated_gamma_claim():
    # sanity: with gamma far too small the check must fail somewhere
    bogus = LyapunovCertificate(
        FIG_CERT.theta1, FIG_CERT.theta2, FIG_CERT.alpha, 1e-6,
        FIG_CERT.alpha_min, FIG_CERT.alpha_max, FIG_CERT.condition_margin,
        False)
    rng = np.random.default_rng(137)
    assert not all(decrease_check(bogus, FIG_CFG, rng.uniform(-5, 5, size=2))
                   for _ in range(200))


def test_decrease_check_holds_every_tie_branch_to_the_rate():
    # on D3 a rate between the two branches' V ratios fails, whichever
    # branch decays less; a rate just above both passes.  The points are
    # drlines iterate's tie start and the D3 points of step_points
    larger = set()
    for x in [(0.023397710243848114, 0.0), *step_points(FIG_CFG)]:
        outs = dr_multivalued(FIG_CFG, x).outputs
        if len(outs) < 2:
            continue
        v = v_global(FIG_CERT, FIG_CFG, x)
        r1, r2 = (v_global(FIG_CERT, FIG_CFG, y) / v for y in outs)
        if abs(r1 - r2) <= 1e-6 * max(r1, r2):
            continue  # D3's centre, where both branches decay alike
        larger.add(1 if r1 > r2 else 2)
        for gamma, want in ((math.sqrt(r1 * r2), False),
                            (max(r1, r2) * (1.0 + 1e-6), True)):
            cert = dataclasses.replace(FIG_CERT, gamma=gamma)
            assert decrease_check(cert, FIG_CFG, x) is want, (x, gamma)
    assert larger == {1, 2}


def test_increase_ball_formulas():
    P = (1 + math.sin(FIG_CFG.theta1)) * (1 + math.sin(FIG_CFG.theta2))
    ball = increase_ball(FIG_CFG, 1, P)
    c2, s2 = math.cos(FIG_CFG.theta2), math.sin(FIG_CFG.theta2)
    assert ball.center[0] == -0.5
    assert ball.center[1] == pytest.approx(c2 * s2 / (P - c2 * c2), rel=1e-14)
    assert ball.radius == pytest.approx(math.sqrt(P) * s2 / (P - c2 * c2), rel=1e-14)
    ball2 = increase_ball(FIG_CFG, 2, P)
    c1, s1 = math.cos(FIG_CFG.theta1), math.sin(FIG_CFG.theta1)
    assert ball2.center[0] == 0.5
    assert ball2.center[1] == pytest.approx(-c1 * s1 / (P - c1 * c1), rel=1e-14)
    # vertical other line: ball centered on the anchor itself
    cfg = ProblemConfig(0.6, math.pi / 2)
    b = increase_ball(cfg, 1, 2.0)
    assert b.center == (-0.5, 0.0)
    assert b.radius == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-14)
    with pytest.raises(ValueError):
        increase_ball(FIG_CFG, 1, 0.5 * math.cos(FIG_CFG.theta2) ** 2)
    with pytest.raises(ValueError, match="index must be 1 or 2"):
        increase_ball(FIG_CFG, 3, P)


def test_ball_bruteforce_matches_analytic():
    P = (1 + math.sin(FIG_CFG.theta1)) * (1 + math.sin(FIG_CFG.theta2))
    for index in (1, 2):
        for rho in (P, 1.5 * P):
            rep = verify_ball_bruteforce(FIG_CFG, index, rho,
                                         n_samples=20000, seed=5)
            assert rep.max_disagreement_distance <= 1e-8


def test_ball_bruteforce_sees_a_grown_ball(monkeypatch):
    # the audit against a ball 1% too large: the disagreeing samples lie
    # in the shell between the true sphere and the grown one
    P = (1 + math.sin(FIG_CFG.theta1)) * (1 + math.sin(FIG_CFG.theta2))
    true_ball = lyapunov.increase_ball
    monkeypatch.setattr(lyapunov, "increase_ball", lambda *args: (
        dataclasses.replace(true_ball(*args),
                            radius=1.01 * true_ball(*args).radius)))
    for index in (1, 2):
        radius = true_ball(FIG_CFG, index, 1.5 * P).radius
        rep = verify_ball_bruteforce(FIG_CFG, index, 1.5 * P)
        assert rep.n_disagree > 0
        assert 0.0 < rep.max_disagreement_distance <= 0.01 * radius


def test_anchor_lies_in_its_own_increase_ball():
    P = (1 + math.sin(FIG_CFG.theta1)) * (1 + math.sin(FIG_CFG.theta2))
    ball = increase_ball(FIG_CFG, 1, P)
    d = math.hypot(FIG_CFG.p1[0] - ball.center[0], FIG_CFG.p1[1] - ball.center[1])
    assert d < ball.radius
    # and the defining inequality holds there: V1(wrong branch) > rho * 0
    y = dr_two_lines(FIG_CFG.p2, FIG_CFG.theta2, FIG_CFG.p1)
    assert v_local(FIG_CFG, 1, y) > 0.0


def test_containment_margin_nonnegative_at_critical_rho():
    rng = np.random.default_rng(139)
    for _ in range(500):
        cfg = random_cfg(rng, lo=0.02)
        s1, s2 = math.sin(cfg.theta1), math.sin(cfg.theta2)
        P = (1 + s1) * (1 + s2)
        for index in (1, 2):
            ok, margin = verify_containment(cfg, index, P)
            assert margin >= 0.0
            assert ok
            # the centre check agrees with the closer-line definition
            assert classify_region(cfg, increase_ball(cfg, index, P).center,
                                   tol=0.0) is Region(index)


def test_containment_margin_matches_naive_distance():
    rng = np.random.default_rng(149)
    for _ in range(500):
        cfg = random_cfg(rng)
        P = (1 + math.sin(cfg.theta1)) * (1 + math.sin(cfg.theta2))
        rho = P * rng.uniform(1.0, 4.0)
        for index in (1, 2):
            _, margin = verify_containment(cfg, index, rho)
            ball = increase_ball(cfg, index, rho)
            naive = distance_to_D3(cfg, ball.center) - ball.radius
            assert margin == pytest.approx(naive, abs=1e-9, rel=1e-9)


def test_containment_margin_monotone_in_rho():
    P = (1 + math.sin(FIG_CFG.theta1)) * (1 + math.sin(FIG_CFG.theta2))
    for index in (1, 2):
        margins = [verify_containment(FIG_CFG, index, P * m)[1]
                   for m in np.linspace(1.0, 3.0, 40)]
        assert all(b >= a - 1e-15 for a, b in zip(margins, margins[1:]))


def test_containment_rejects_subcritical_rho():
    with pytest.raises(ValueError):
        verify_containment(FIG_CFG, 1, 1.0)


def test_increase_ball_checks_reject_a_non_finite_rho():
    # a NaN rho fails the comparisons themselves, and an infinite one the
    # finiteness check: each of the three raises with its own message
    for index in (1, 2):
        for rho, msg in ((math.nan, "must exceed"), (math.inf, "not finite")):
            for f in (increase_ball, verify_ball_bruteforce):
                with pytest.raises(ValueError, match=msg):
                    f(FIG_CFG, index, rho)
        with pytest.raises(ValueError, match="containment threshold"):
            verify_containment(FIG_CFG, index, math.nan)
        with pytest.raises(ValueError, match="not finite"):
            verify_containment(FIG_CFG, index, math.inf)


def test_ball_samples_classify_to_own_region():
    P = (1 + math.sin(FIG_CFG.theta1)) * (1 + math.sin(FIG_CFG.theta2))
    rng = np.random.default_rng(151)
    for index, want in ((1, Region.D1), (2, Region.D2)):
        ball = increase_ball(FIG_CFG, index, P)
        for _ in range(10000):
            ang = rng.uniform(0, 2 * math.pi)
            r = ball.radius * math.sqrt(rng.random())
            x = (ball.center[0] + r * math.cos(ang),
                 ball.center[1] + r * math.sin(ang))
            assert classify_region(FIG_CFG, x) is want


def v_min_diagnostic(cfg, x):
    # min(V_1, V_2): no certificate, as the tests below show
    return min(v_local(cfg, 1, x), v_local(cfg, 2, x))


def test_v_min_diagnostic_values():
    assert v_min_diagnostic(FIG_CFG, FIG_CFG.p2) == 0.0
    assert v_min_diagnostic(FIG_CFG, (0.0, 1.0)) == 1.25


def test_v_min_symmetric_decay_near_attractors():
    cfg = ProblemConfig(math.pi / 3, math.pi - math.pi / 3)
    rate = math.cos(cfg.theta1) ** 2
    rng = np.random.default_rng(157)
    for _ in range(5000):
        p = cfg.p1 if rng.random() < 0.5 else cfg.p2
        ang = rng.uniform(0, 2 * math.pi)
        r = rng.uniform(1e-3, 0.2)
        x = (p[0] + r * math.cos(ang), p[1] + r * math.sin(ang))
        y = dr_multivalued(cfg, x).outputs[0]
        ratio = v_min_diagnostic(cfg, y) / v_min_diagnostic(cfg, x)
        assert ratio == pytest.approx(rate, abs=1e-10)


def test_v_min_symmetric_decay_fails_globally():
    # the exact-rate identity is local: far from the attractors the min
    # switches branches and the ratio departs from cos^2
    cfg = ProblemConfig(math.pi / 3, math.pi - math.pi / 3)
    x = (1.0, 2.0)
    y = dr_multivalued(cfg, x).outputs[0]
    ratio = v_min_diagnostic(cfg, y) / v_min_diagnostic(cfg, x)
    assert ratio == pytest.approx(0.0189292217484995, rel=1e-10)
    assert abs(ratio - 0.25) > 0.2


def test_v_min_violates_certified_rate_somewhere():
    # the min combination is not a certificate: some point beats gamma
    rng = np.random.default_rng(163)
    found = False
    for _ in range(20000):
        x = rng.uniform(-3, 3, size=2)
        vx = v_min_diagnostic(FIG_CFG, x)
        if vx < 1e-12:
            continue
        y = dr_multivalued(FIG_CFG, x).outputs[0]
        if v_min_diagnostic(FIG_CFG, y) > FIG_CERT.gamma * vx:
            found = True
            break
    assert found
