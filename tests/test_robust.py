"""Perturbation radius, perturbed stepping, and the robust KL bound."""
import math
import random

import numpy as np
import pytest

from dr_oracle import band_edge, dr_multivalued_reference, step_points
from robust_oracle import (check_kl_bound_reference, perturbed_step_reference,
                           worst_offset_reference)
from test_differential import check_perturbed
from drlines import robust
from drlines.dr import dr_multivalued
from drlines.geometry import ProblemConfig
from drlines.lyapunov import certify, v_global
from drlines.robust import (
    PerturbationSpec,
    check_kl_bound,
    check_lemma_sigma,
    kl_beta,
    perturbed_step,
    rate_ratio,
    run_perturbed,
    run_perturbed_many,
    sigma,
)

FIG_CFG = ProblemConfig(math.pi / 3, 2 * math.pi / 5)
FIG_CERT = certify(FIG_CFG)
SPEC = PerturbationSpec.from_certificate(FIG_CERT, epsilon=0.05)


def test_spec_validation():
    assert SPEC.rate == pytest.approx(1.05**2 * FIG_CERT.gamma, rel=1e-15)
    assert SPEC.rate < 1.0
    with pytest.raises(ValueError):
        PerturbationSpec.from_certificate(FIG_CERT, epsilon=0.4)
    with pytest.raises(ValueError):
        PerturbationSpec(epsilon=-0.1, alpha=1.0, gamma=0.5)
    with pytest.raises(ValueError):
        PerturbationSpec(epsilon=1.0, alpha=1.0, gamma=0.1)


def test_sigma_values():
    assert sigma(SPEC, FIG_CFG, FIG_CFG.p1) == 0.0
    assert sigma(SPEC, FIG_CFG, FIG_CFG.p2) == 0.0
    assert sigma(SPEC, FIG_CFG, (0.0, 1.0)) == pytest.approx(
        0.011543806802932096, rel=1e-14)
    want = ((1.05) ** (1.0 / (2.0 * (1.0 + SPEC.alpha))) - 1.0) * math.sqrt(1.25)
    assert sigma(SPEC, FIG_CFG, (0.0, 1.0)) == pytest.approx(want, rel=1e-12)
    nominal = PerturbationSpec(0.0, SPEC.alpha, SPEC.gamma)
    assert sigma(nominal, FIG_CFG, (3.0, -4.0)) == 0.0


def test_sigma_positive_and_lipschitz():
    rng = np.random.default_rng(11)
    kappa = math.expm1(math.log1p(SPEC.epsilon) / (2.0 * (1.0 + SPEC.alpha)))
    for _ in range(5000):
        x = rng.uniform(-10, 10, size=2)
        y = rng.uniform(-10, 10, size=2)
        sx, sy = sigma(SPEC, FIG_CFG, x), sigma(SPEC, FIG_CFG, y)
        assert sx > 0.0
        gap = kappa * math.hypot(x[0] - y[0], x[1] - y[1])
        assert abs(sx - sy) <= gap * (1 + 1e-12) + 1e-300


def test_nominal_step_matches_operator():
    nominal = PerturbationSpec(0.0, SPEC.alpha, SPEC.gamma)
    rng = np.random.default_rng(13)
    for _ in range(500):
        x = tuple(rng.uniform(-5, 5, size=2))
        w, pre, post = perturbed_step(nominal, FIG_CFG, x, rng)
        assert pre == (0.0, 0.0) and post == (0.0, 0.0)
        assert w == dr_multivalued(FIG_CFG, x).outputs[0]


def test_fixed_point_is_inert():
    rng = np.random.default_rng(17)
    w, pre, post = perturbed_step(SPEC, FIG_CFG, FIG_CFG.p1, rng)
    assert w == FIG_CFG.p1
    assert pre == (0.0, 0.0) and post == (0.0, 0.0)


def test_ball_sampler_fills_radius():
    x = (2.0, 1.0)
    s = sigma(SPEC, FIG_CFG, x)
    rng = np.random.default_rng(19)
    ratios = []
    for _ in range(10000):
        _, pre, _ = perturbed_step(SPEC, FIG_CFG, x, rng)
        ratios.append(math.hypot(*pre) / s)
    assert max(ratios) <= 1.0 + 1e-12
    assert 0.99 <= max(ratios)


def test_mode_validation():
    with pytest.raises(ValueError):
        perturbed_step(SPEC, FIG_CFG, (1.0, 1.0),
                       np.random.default_rng(0), mode="worst")


def test_lemma_sigma_trivial_and_sampled():
    assert check_lemma_sigma(SPEC, FIG_CFG, FIG_CFG.p1)
    rng = np.random.default_rng(23)
    for i in range(1000):
        x = rng.uniform(-10, 10, size=2)
        assert check_lemma_sigma(SPEC, FIG_CFG, x, n_samples=64, seed=i)


def test_lemma_sigma_rejects_points_where_sigma_or_v_is_not_finite():
    # each of these once passed: no sample screens over a NaN or inf bound
    # (1e150, 1e150) once raised OverflowError: log V is finite there, but
    # above the double range
    for x in ((math.nan, 1.0), (math.inf, 1.0), (1e308, 1e308),
              (1e150, 1e150)):
        with pytest.raises(ValueError, match="not finite|overflows"):
            check_lemma_sigma(SPEC, FIG_CFG, x)


def test_lemma_sigma_scales_with_epsilon():
    wider = PerturbationSpec.from_certificate(FIG_CERT, epsilon=0.2)
    rng = np.random.default_rng(29)
    for i in range(200):
        x = rng.uniform(-6, 6, size=2)
        assert check_lemma_sigma(wider, FIG_CFG, x, n_samples=64, seed=i)


@pytest.mark.parametrize("mode", ["random", "adversarial"])
def test_single_step_inflation_bound(mode):
    rng = np.random.default_rng(31)
    for _ in range(300):
        x = tuple(rng.uniform(-6, 6, size=2))
        w, _, _ = perturbed_step(SPEC, FIG_CFG, x, rng, mode=mode)
        vw = v_global(SPEC, FIG_CFG, w)
        vx = v_global(SPEC, FIG_CFG, x)
        assert vw <= SPEC.rate * vx * (1 + 1e-9)


def test_trace_v_decays_geometrically():
    trace = run_perturbed(SPEC, FIG_CFG, (1.5, -2.0), 120, seed=41)
    lv0 = math.log(v_global(SPEC, FIG_CFG, trace.points[0]))
    lrate = math.log(SPEC.rate)
    for n, x in enumerate(trace.points):
        v = v_global(SPEC, FIG_CFG, x)
        if v == 0.0:
            continue
        assert math.log(v) <= lv0 + n * (lrate + 1e-9)


def test_trace_offsets_respect_sigma():
    trace = run_perturbed(SPEC, FIG_CFG, (-2.0, 1.0), 80, seed=43)
    for n, (pre, post) in enumerate(trace.disturbances):
        x = trace.points[n]
        assert math.hypot(*pre) <= sigma(SPEC, FIG_CFG, x) * (1 + 1e-12)
        w = trace.points[n + 1]
        y = (w[0] - post[0], w[1] - post[1])
        assert math.hypot(*post) <= sigma(SPEC, FIG_CFG, y) * (1 + 1e-12)


def test_trace_streams_are_reproducible():
    a = run_perturbed(SPEC, FIG_CFG, (0.3, 0.9), 50, seed=7, trace_id=2)
    b = run_perturbed(SPEC, FIG_CFG, (0.3, 0.9), 50, seed=7, trace_id=2)
    c = run_perturbed(SPEC, FIG_CFG, (0.3, 0.9), 50, seed=7, trace_id=3)
    assert a.points == b.points
    assert a.points != c.points
    assert a.seed == 7


def test_kl_beta_is_class_kl():
    for s in (0.1, 1.0, 10.0):
        vals = [kl_beta(SPEC, s, t) for t in np.linspace(0, 400, 81)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert vals[0] == s
        assert vals[-1] < 1e-10 * s
    for t in (0.0, 5.0, 50.0):
        vals = [kl_beta(SPEC, s, t) for s in np.linspace(0.01, 10, 50)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_kl_bound_trivial_start_at_attractor():
    trace = run_perturbed(SPEC, FIG_CFG, FIG_CFG.p2, 20, seed=3)
    ok, worst = check_kl_bound(SPEC, FIG_CFG, trace)
    assert ok
    assert worst >= 0.0


@pytest.mark.parametrize("mode,n_traces", [("random", 150), ("adversarial", 25)])
def test_kl_bound_holds_on_perturbed_traces(mode, n_traces):
    # the starts x0 = rng.uniform(-8, 8, size=2), drawn trace by trace
    starts = np.random.default_rng(47).uniform(-8, 8, size=(n_traces, 2))
    lanes = run_perturbed_many(SPEC, FIG_CFG, starts, 100, seed=53,
                               trace_ids=range(n_traces), mode=mode)
    for tid in range(n_traces):
        ok, worst = check_kl_bound(SPEC, FIG_CFG, lanes.trace(tid))
        assert ok
        assert worst >= -1e-12


@pytest.mark.parametrize("spec,cfg", [(SPEC, FIG_CFG), (
    PerturbationSpec.from_certificate(certify(ProblemConfig(1.2, 2.0)), 0.2),
    ProblemConfig(1.2, 2.0))], ids=["figure", "obtuse"])
def test_kl_audit_matches_its_oracle(spec, cfg):
    # perturbed traces in both modes, then traces made to break the bound:
    # points leaving the anchors, a start on p1, 5000 steps where the bound
    # underflows to 0, far-out points; as a PerturbedTrace, point lists and
    # NumPy rows
    starts = np.random.default_rng(107).uniform(-3, 3, size=(12, 2))
    traces = []
    for mode in ("random", "adversarial"):
        lanes = run_perturbed_many(spec, cfg, starts, 60, 3, range(12), mode)
        traces += [lanes.trace(j) for j in range(12)]
        traces += [p.tolist() for p in lanes.points] + list(lanes.points)
    rng = np.random.default_rng(109)
    for scale in (1e-9, 1.0, 1e200):
        walk = np.cumsum(rng.normal(0.0, scale, size=(300, 2)), axis=0)
        traces += [walk.tolist(), (walk + cfg.p1).tolist()]
    traces += [[cfg.p1, cfg.p2, (0.0, 0.0)], [(3.0, -1.0)] * 5000,
               [(2.0, 1.0)] + [cfg.p2] * 4999]
    verdicts = set()
    for trace in traces:
        got = check_kl_bound(spec, cfg, trace)
        assert repr(got) == repr(check_kl_bound_reference(spec, cfg, trace))
        verdicts.add(got[0])
    assert verdicts == {True, False}


def test_kl_audit_slack_is_one_part_in_a_billion():
    # a point at bound (1 + 1e-7) from p1 fails the audit, one at bound
    # (1 + 1e-10) passes: the slack is 1e-9, not looser or tighter
    x0 = (2.0, 1.0)
    w2 = max(math.hypot(x0[0] + 0.5, x0[1]), math.hypot(x0[0] - 0.5, x0[1]))
    bound = w2 * SPEC.rate ** (1.0 / (2.0 * SPEC.alpha + 2.0))
    for over, want in ((1e-7, False), (1e-10, True)):
        # (-0.5, d) is d from p1, exactly, and farther from p2
        d = bound * (1.0 + over)
        ok, worst = check_kl_bound(SPEC, FIG_CFG, [x0, (-0.5, d)])
        assert ok is want
        assert worst == bound - d


VERT_CFG = ProblemConfig(math.pi / 2, 2.0)
VERT_SPEC = PerturbationSpec.from_certificate(certify(VERT_CFG), epsilon=0.05)


def _worst_boundary_offset(spec, cfg, x, radius, rng, k):
    # the adversary of one lane, drawing its k angles as a step does
    angles = rng.uniform(0.0, 2.0 * math.pi, size=k)
    return tuple(robust._worst_offsets(
        spec, cfg, np.array([[x[0]], [x[1]]], float), np.array([radius]),
        angles[None])[:, 0].tolist())


def _adversary_points():
    rng = np.random.default_rng(59)
    pts = [tuple(p) for p in rng.uniform(-6, 6, size=(150, 2)).tolist()]
    # 1e-12 down to 1e-180 from p_i: x + offset collapses onto few floats,
    # V goes subnormal, then V_1 or V_2 underflows to an exact zero
    for p in ((-0.5, 0.0), (0.5, 0.0)):
        pts.append(p)
        for e in (12, 16, 30, 60, 100, 150, 154, 156, 158, 160, 163, 170, 180):
            for ang in (0.0, 0.4, math.pi / 2, 2.5, 4.0):
                d = 10.0 ** -e
                pts.append((p[0] + d * math.cos(ang), p[1] + d * math.sin(ang)))
    # far out, up to where V overflows (v_global raises there)
    pts += [(10.0 ** e, 10.0 ** (e - 1)) for e in (40, 60, 62, 64, 66, 100)]
    pts += [(10.0 ** (64.9 + 0.01 * n), 0.0) for n in range(20)]
    return pts


# the far-out points overflow V; np.exp warns where v_global raises
@pytest.mark.filterwarnings("ignore:overflow encountered in exp")
@pytest.mark.parametrize("k", [16, 64])
@pytest.mark.parametrize("spec,cfg", [(SPEC, FIG_CFG), (VERT_SPEC, VERT_CFG)],
                         ids=["figure", "vertical"])
def test_worst_boundary_offset_matches_scalar_loop(spec, cfg, k):
    chosen = 0
    for n, x in enumerate(_adversary_points()):
        radius = sigma(spec, cfg, x)
        rng_new = np.random.default_rng([61, n])
        rng_old = np.random.default_rng([61, n])
        try:
            want = worst_offset_reference(spec, cfg, x, radius, rng_old, k)
        except OverflowError:
            with pytest.raises(OverflowError):
                _worst_boundary_offset(spec, cfg, x, radius, rng_new, k)
            continue
        got = _worst_boundary_offset(spec, cfg, x, radius, rng_new, k)
        assert repr(got) == repr(want), (n, x)
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
        chosen += got != (0.0, 0.0)
    assert chosen > 150


def _scalar_lemma_sigma(spec, cfg, x, n_samples=256, seed=0):
    # check_lemma_sigma as first written, kept as the oracle
    s = robust.sigma(spec, cfg, x)
    vx = v_global(spec, cfg, x)
    bound = (1.0 + spec.epsilon) * vx * (1.0 + 1e-9)
    rng = np.random.default_rng(seed)
    for i in range(n_samples):
        r = s if i % 8 else s * math.sqrt(rng.random())
        ang = rng.uniform(0.0, 2.0 * math.pi)
        z = (x[0] + r * math.cos(ang), x[1] + r * math.sin(ang))
        if v_global(spec, cfg, z) > bound:
            return False
    return True


@pytest.mark.filterwarnings("ignore:overflow encountered in exp")
@pytest.mark.parametrize("inflate", [1.0, 1.5])
def test_lemma_sigma_matches_scalar_loop(monkeypatch, inflate):
    # inflating sigma breaks the lemma at part of the points, so both
    # verdicts occur
    plain = robust.sigma
    monkeypatch.setattr(robust, "sigma",
                        lambda spec, cfg, x: inflate * plain(spec, cfg, x))
    verdicts = []
    for n, x in enumerate(_adversary_points()[::3]):
        for n_samples in (1, 9, 64):
            try:
                want = _scalar_lemma_sigma(SPEC, FIG_CFG, x, n_samples, seed=n)
            except OverflowError:
                with pytest.raises(ValueError, match="overflows"):
                    check_lemma_sigma(SPEC, FIG_CFG, x, n_samples, seed=n)
                continue
            got = check_lemma_sigma(SPEC, FIG_CFG, x, n_samples, seed=n)
            assert got == want, (n, x, n_samples)
            verdicts.append(got)
    assert all(verdicts) if inflate == 1.0 else not all(verdicts)
    with pytest.raises(ValueError):
        check_lemma_sigma(SPEC, FIG_CFG, (1.0, 1.0), n_samples=-1)


@pytest.mark.parametrize("mode", ["random", "adversarial"])
@pytest.mark.parametrize("eps", [0.0, 0.05])
def test_perturbed_step_uses_dr_multivalued_outputs(mode, eps):
    for cfg in (FIG_CFG, VERT_CFG):
        spec = PerturbationSpec.from_certificate(certify(cfg), epsilon=eps)
        rng = np.random.default_rng(67)
        for x in step_points(cfg):
            w, pre, post = perturbed_step(spec, cfg, x, rng, mode=mode)
            outs = dr_multivalued_reference(
                cfg, (x[0] + pre[0], x[1] + pre[1])).outputs
            y = outs[0]
            if mode == "adversarial":
                y = max(outs, key=lambda q: v_global(spec, cfg, q))
            assert repr(w) == repr((y[0] + post[0], y[1] + post[1])), x


def test_run_perturbed_rejects_bad_inputs():
    for x0 in ((math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            run_perturbed(SPEC, FIG_CFG, x0, 10, seed=0)
    with pytest.raises(ValueError):
        run_perturbed(SPEC, FIG_CFG, (1.0, 1.0), -1, seed=0)
    trace = run_perturbed(SPEC, FIG_CFG, (1.0, 1.0), 0, seed=0)
    assert trace.points == ((1.0, 1.0),) and trace.disturbances == ()
    # a bad mode fails before any step, even with none to take
    for mode in ("bogus", "Random"):
        for n_steps in (0, 5):
            with pytest.raises(ValueError, match="mode"):
                run_perturbed(SPEC, FIG_CFG, (1.0, 1.0), n_steps, seed=0,
                              mode=mode)
            with pytest.raises(ValueError, match="mode"):
                run_perturbed_many(SPEC, FIG_CFG, [(1.0, 1.0)], n_steps, 0,
                                   [0], mode=mode)
        with pytest.raises(ValueError, match="mode"):
            perturbed_step(SPEC, FIG_CFG, (1.0, 1.0),
                           np.random.default_rng(0), mode=mode)
    with pytest.raises(ValueError, match="trace ids"):
        run_perturbed_many(SPEC, FIG_CFG, [(1.0, 1.0)] * 2, 5, 0, [0])
    with pytest.raises(ValueError, match="finite"):
        run_perturbed_many(SPEC, FIG_CFG, [(1.0, 1.0), (math.nan, 0.0)], 5,
                           0, [0, 1])
    with pytest.raises(ValueError):
        run_perturbed_many(SPEC, FIG_CFG, [(1.0, 1.0)], -1, 0, [0])
    empty = run_perturbed_many(SPEC, FIG_CFG, [], 5, 0, [])
    assert empty.points.shape == (0, 6, 2)
    assert empty.disturbances.shape == (0, 5, 2, 2)
    # the seed is checked first, with no lane or no step as well
    for starts, ids in (([(1.0, 1.0)], [0]), ([], [])):
        for n_steps in (0, 5):
            with pytest.raises(ValueError,
                               match="seed must be a non-negative integer"):
                run_perturbed_many(SPEC, FIG_CFG, starts, n_steps, -1, ids,
                                   mode="bogus")
            with pytest.raises(TypeError, match="integer"):
                run_perturbed_many(SPEC, FIG_CFG, starts, n_steps, 2.5, ids)


def test_run_perturbed_rejects_absurd_sizes_before_any_start(monkeypatch):
    # the points and disturbances take 48 B a point, so more than 2^22
    # points fail from the sizes alone: a start checked would fail here
    def checked(x0):
        raise AssertionError("a start was checked")

    monkeypatch.setattr(robust, "checked_start", checked)
    for starts, n_steps in (([(2.0, 1.0)] * 2_000_000, 2 ** 40),
                            ([(2.0, 1.0)], 10 ** 10), ([(2.0, 1.0)], 2 ** 22)):
        with pytest.raises(ValueError, match=r"more than 2\*\*22 points"):
            run_perturbed_many(SPEC, FIG_CFG, starts, n_steps, 0,
                               range(len(starts)), mode="adversarial")
    # 2^22 points in all pass the cap and go on to check their starts
    with pytest.raises(AssertionError, match="a start was checked"):
        run_perturbed_many(SPEC, FIG_CFG, [(2.0, 1.0)] * 2, 2 ** 21 - 1, 0,
                           [0, 1])


def test_run_perturbed_rejects_starts_whose_v_overflows():
    # (1+eps)^2 V(x0) passes the largest double between these abscissas
    inside, outside = 7.766554619706739e+64, 7.76655461970674e+64
    for x0 in ((outside, 0.0), (1e70, 0.0), (0.0, -1e200)):
        for mode in ("random", "adversarial"):
            with pytest.raises(ValueError, match="overflows"):
                run_perturbed(SPEC, FIG_CFG, x0, 3, seed=0, mode=mode)
    # just inside, every V the run and its audits evaluate stays finite
    with np.errstate(over="raise"):
        for x0 in ((inside, 0.0), (-inside, 0.0), (0.0, inside)):
            for mode in ("random", "adversarial"):
                for seed in range(3):
                    trace = run_perturbed(SPEC, FIG_CFG, x0, 5, seed=seed,
                                          mode=mode)
                    assert check_kl_bound(SPEC, FIG_CFG, trace)[0]
                    assert all(math.isfinite(v_global(SPEC, FIG_CFG, p))
                               for p in trace.points)


class _FixedAngles:
    """Stands in for the Generator: uniform() returns the given angles."""

    def __init__(self, angles):
        self.angles = np.asarray(angles, dtype=float)

    def uniform(self, low, high, size):
        assert len(self.angles) == size
        return self.angles.copy()


def test_adversary_screen_absorbs_its_rounding(monkeypatch):
    # Mirror directions +-a from a point on the x-axis give exactly tied V,
    # so only the screen's slack keeps the first of a tied pair when the
    # screened V is off by up to the rounding it is sized for: 1e-12
    # relative, and one unit of the smallest subnormal.  The far-out point
    # ties at V near 1e308, the last ones at subnormal V.
    noise = np.random.default_rng(71)
    screened = robust._v_many

    def rounded_off(alpha, cfg, z):
        w = screened(alpha, cfg, z)
        bumped = (w * (1.0 + noise.uniform(-1e-12, 1e-12, w.shape))
                  + noise.integers(-1, 2, w.shape) * math.ulp(0.0))
        return np.where(w < 0.0, w, np.maximum(bumped, 0.0))

    monkeypatch.setattr(robust, "_v_many", rounded_off)
    xs = [(2.0, 0.0), (-1.3, 0.0), (0.1, 0.0), (10.0 ** 64.87, 0.0)]
    xs += [(0.5 + 10.0 ** -e, 0.0) for e in (8, 15)]
    xs += [(0.5, 0.0), (0.5, 10.0 ** -160), (0.5, 3e-161)]
    for n in range(40):
        a = noise.uniform(0.0, math.pi, size=8)
        angles = np.ravel(np.column_stack([a, -a]) if n % 2
                          else np.column_stack([-a, a]))
        for x in xs:
            radius = sigma(SPEC, FIG_CFG, x) or 1e-162
            got = _worst_boundary_offset(SPEC, FIG_CFG, x, radius,
                                         _FixedAngles(angles), 16)
            want = worst_offset_reference(SPEC, FIG_CFG, x, radius,
                                        _FixedAngles(angles), 16)
            assert repr(got) == repr(want), (n, x)


def test_adversary_rechecks_few_candidates(monkeypatch):
    calls = []
    counted = robust.v_global
    monkeypatch.setattr(robust, "v_global",
                        lambda *a: calls.append(1) or counted(*a))
    pts = [p for p in _adversary_points() if abs(p[0]) < 1e30]
    for n, x in enumerate(pts):
        _worst_boundary_offset(SPEC, FIG_CFG, x, sigma(SPEC, FIG_CFG, x),
                               np.random.default_rng(n), 64)
    # one call for V(x) and about one per screened-in candidate; points
    # whose V is exactly 0 everywhere on the circle cost only V(x)
    assert len(calls) <= 3 * len(pts)


def test_numpy_trig_stays_within_the_screen_tolerance():
    # the adversary's screen assumes np.cos and np.sin within 2^-40 of
    # math's; a NumPy that breaks this fails here, not in a chosen offset
    angles = 2.0 * math.pi * np.random.default_rng(79).random(100_000)
    gap = np.abs(robust._np_directions(angles) - robust._directions(angles))
    assert gap.max() <= robust._TRIG_TOL == 2.0 ** -40


@pytest.mark.filterwarnings("ignore:overflow encountered in exp")
@pytest.mark.parametrize("spec,cfg", [(SPEC, FIG_CFG), (VERT_SPEC, VERT_CFG)],
                         ids=["figure", "vertical"])
def test_adversary_screen_absorbs_trig_noise(monkeypatch, spec, cfg):
    # the screen's NumPy directions moved by up to tau/2 stay within tau of
    # math's; every lane of one call still picks the oracle's offset
    noise = np.random.default_rng(83)
    plain = robust._np_directions
    half = robust._TRIG_TOL / 2.0
    monkeypatch.setattr(robust, "_np_directions", lambda a: plain(a) + noise
                        .uniform(-half, half, (2, *a.shape)))
    xs, radii, angles, want = [], [], [], []
    for n, x in enumerate(_adversary_points()):
        radius = sigma(spec, cfg, x)
        rng = np.random.default_rng([89, n])
        try:
            best = worst_offset_reference(spec, cfg, x, radius, rng, 64)
        except OverflowError:
            with pytest.raises(OverflowError):
                _worst_boundary_offset(spec, cfg, x, radius,
                                       np.random.default_rng([89, n]), 64)
            continue
        xs.append(x)
        radii.append(radius)
        angles.append(np.random.default_rng([89, n]).uniform(
            0.0, 2.0 * math.pi, size=64))
        want.append(best)
    got = robust._worst_offsets(spec, cfg, np.array(xs).T, np.array(radii),
                                np.array(angles))
    assert repr([tuple(o) for o in got.T.tolist()]) == repr(want)
    assert sum(o != (0.0, 0.0) for o in want) > 150


def test_adversary_screen_at_the_v1_cutoff(monkeypatch):
    # V_1 counts as an exact 0 below 1e-300, and (1e-150)^2 is the first
    # square above it.  From 1e-152 below (-0.5, 1e-150) with radius
    # 1e-152, V is positive only at angle pi/2 (alpha < 1 keeps it above
    # the subnormals), and that point's NumPy twin, moved by -tau/2, falls
    # below the cutoff; lanes whose balls cross it screen at math's trig,
    # the others are all 0 or all positive
    plain = robust._np_directions
    monkeypatch.setattr(robust, "_np_directions",
                        lambda a: plain(a) - robust._TRIG_TOL / 2.0)
    assert (1e-150) ** 2 >= 1e-300 > math.nextafter(1e-150, 0.0) ** 2
    p1 = VERT_CFG.p1
    xs = [(p1[0], 1e-150 - 1e-152), (p1[0], 1e-160), (p1[0], 1e-140),
          (2.0, 1.0)]
    radii = [1e-152, 1e-162, 1e-142, sigma(VERT_SPEC, VERT_CFG, (2.0, 1.0))]
    a = np.random.default_rng(103).uniform(0.0, 2.0 * math.pi, 15)
    angles = np.insert(a, 7, math.pi / 2)
    got = robust._worst_offsets(VERT_SPEC, VERT_CFG, np.array(xs).T,
                                np.array(radii), np.tile(angles, (4, 1)))
    want = [worst_offset_reference(VERT_SPEC, VERT_CFG, x, r,
                                   _FixedAngles(angles), 16)
            for x, r in zip(xs, radii)]
    assert repr([tuple(o) for o in got.T.tolist()]) == repr(want)
    assert want[0] == (radii[0] * math.cos(math.pi / 2), radii[0])
    assert want[1] == (0.0, 0.0)


def test_adversary_screens_at_math_trig_only_near_an_anchor(monkeypatch):
    # 1e-12 from p1 the rounding of x + offset swamps tau; 1e-100 from p1
    # and at (2, 1) the NumPy screen's slack is below 1e-9
    screened = []
    exact = robust._directions
    monkeypatch.setattr(robust, "_directions",
                        lambda a: screened.append(a.copy()) or exact(a))
    p1 = FIG_CFG.p1
    xs = [(p1[0] + 1e-12, p1[1]), (p1[0], p1[1] + 1e-100), (2.0, 1.0)]
    radii = np.array([sigma(SPEC, FIG_CFG, x) for x in xs])
    angles = np.random.default_rng(97).uniform(0.0, 2.0 * math.pi, (3, 64))
    robust._worst_offsets(SPEC, FIG_CFG, np.array(xs).T, radii, angles)
    assert len(screened) == 1
    assert np.array_equal(screened[0], angles[:1])


NOMINAL = PerturbationSpec(0.0, SPEC.alpha, SPEC.gamma)
_TIE = step_points(FIG_CFG)[1]
# starts per lane: on D3 and at the tie band's edge, the last point on it
# (both branches at step 0 when offsets vanish) and the next one off it;
# p1 itself; just inside the V-overflow check; two generic points
STARTS = [_TIE, *band_edge(FIG_CFG, _TIE, (-1.0, 0.0)), FIG_CFG.p1,
          (7.766554619706739e+64, 0.0), (2.0, 1.0), (-1.3, -0.4)]


@pytest.mark.parametrize("seed", [0, 7, 11])
@pytest.mark.parametrize("mode", ["random", "adversarial"])
def test_run_perturbed_many_matches_per_step_oracle(mode, seed):
    lanes = check_perturbed(SPEC, STARTS, 200, seed, range(10, 17), mode)
    assert lanes.points.shape == (len(STARTS), 201, 2)
    # p1 is a fixed point of every perturbed step
    assert (lanes.points[3] == FIG_CFG.p1).all()


@pytest.mark.parametrize("mode", ["random", "adversarial"])
def test_run_perturbed_many_short_runs_match_per_step_oracle(mode):
    for spec in (SPEC, NOMINAL):
        for n_steps in (0, 1, 3):
            for k in (1, 16):
                check_perturbed(spec, STARTS, n_steps, 7, range(7), mode, k)
    # the nominal step from the tie start takes the tie branch of the mode
    first = run_perturbed_many(NOMINAL, FIG_CFG, STARTS[:3], 1, 0, [0, 1, 2],
                               mode).points[:, 1].tolist()
    for x0, got in zip(STARTS, first):
        outs = dr_multivalued(FIG_CFG, x0).outputs
        want = outs[0]
        if mode == "adversarial":
            want = max(outs, key=lambda q: v_global(NOMINAL, FIG_CFG, q))
        assert repr(tuple(got)) == repr(want)
    assert [len(dr_multivalued(FIG_CFG, x).outputs)
            for x in STARTS[:3]] == [2, 2, 1]


@pytest.mark.parametrize("mode", ["random", "adversarial"])
def test_tie_lanes_step_through_dr_multivalued(monkeypatch, mode):
    # the lanes on the tie band, STARTS[:2] and a D3 point whose A2 branch
    # has the larger V, with no offsets, take one dr_multivalued step each,
    # and STARTS[2], just off the band, steps as a lane; on D3 random lanes
    # keep A1 and adversarial lanes the larger V
    starts = [*STARTS, step_points(FIG_CFG)[3]]
    seen = []

    def counting(cfg, x):
        seen.append(tuple(x))
        return dr_multivalued(cfg, x)

    monkeypatch.setattr(robust, "dr_multivalued", counting)
    first = run_perturbed_many(NOMINAL, FIG_CFG, starts, 1, 0,
                               range(len(starts)), mode).points[:, 1]
    assert seen == [*STARTS[:2], starts[-1]]
    picked = []
    for x0, got in zip(starts, first.tolist()):
        outs = dr_multivalued(FIG_CFG, x0).outputs
        if len(outs) == 2:
            v1, v2 = (v_global(NOMINAL, FIG_CFG, q) for q in outs)
            picked.append(2 if mode == "adversarial" and v2 > v1 else 1)
            assert repr(tuple(got)) == repr(outs[picked[-1] - 1])
    assert picked == ([1, 1, 2] if mode == "adversarial" else [1, 1, 1])


@pytest.mark.parametrize("mode", ["random", "adversarial"])
def test_perturbed_step_matches_per_step_oracle(monkeypatch, mode):
    for spec in (SPEC, NOMINAL):
        for k in (1, 16):
            monkeypatch.setattr(robust, "_K_BOUNDARY", k)
            for n, x in enumerate(STARTS):
                rng_new = np.random.default_rng([73, n])
                rng_old = np.random.default_rng([73, n])
                w = w_old = x
                for _ in range(4):
                    w = perturbed_step(spec, FIG_CFG, w, rng_new, mode)
                    want = perturbed_step_reference(spec, FIG_CFG, w_old,
                                                    rng_old, mode, k)
                    assert repr(tuple(w)) == repr(want), (n, x)
                    w, w_old = w.point, want[0]
                assert (rng_new.bit_generator.state
                        == rng_old.bit_generator.state)


def _workload_start(seed):
    # the robust benchmark workload's start for a seed
    if seed == 0:
        return (2.0, 1.0)
    rng = random.Random(seed)
    return (round(rng.uniform(-2.0, 2.0), 6), round(rng.uniform(-2.0, 2.0), 6))


@pytest.mark.parametrize("seed", [0, 11, 21, 39])
def test_rate_ratio_within_rate_on_workload_starts(seed):
    for mode, n in (("random", 70), ("adversarial", 30)):
        lanes = run_perturbed_many(SPEC, FIG_CFG, [_workload_start(seed)] * n,
                                   200, seed, range(n), mode)
        ratios = [rate_ratio(SPEC, FIG_CFG, lanes.trace(j)) for j in range(n)]
        assert 0.0 < max(ratios) <= 1.0, (mode, max(ratios))


def test_rate_ratio_allows_for_rounding_at_p_i_only():
    # seed 11, adversarial trace 0, step 54 lands 6e-17 from p1, below
    # ulp(0.5): there rounding alone inflates V by about 1.19 times the rate
    trace = run_perturbed(SPEC, FIG_CFG, _workload_start(11), 60, seed=11,
                          trace_id=0, mode="adversarial")
    x, y = trace.points[54], trace.points[55]
    naive = v_global(SPEC, FIG_CFG, y) / v_global(SPEC, FIG_CFG, x)
    assert naive / SPEC.rate > 1.1
    assert math.hypot(x[0] - FIG_CFG.p1[0], x[1] - FIG_CFG.p1[1]) < math.ulp(0.5)
    assert rate_ratio(SPEC, FIG_CFG, trace) <= 1.0
    # 4 rounding allowances e from p1, 5% farther out at the next point:
    # V grows by about 1.05^(2 alpha), above the rate but within the factor
    # ((d + e)/(d - e))^(2 alpha + 2) allowed there; 0.1 from p1 the same
    # step counts in full
    e = 8 * math.ulp(1.5)
    for d, within in ((4 * e, True), (0.1, False)):
        x, y = (-0.5 + d, 0.0), (-0.5 + 1.05 * d, 0.0)
        assert v_global(SPEC, FIG_CFG, y) / v_global(SPEC, FIG_CFG, x) > SPEC.rate
        step = robust.PerturbedTrace((x, y), (), 0)
        assert (rate_ratio(SPEC, FIG_CFG, step) <= 1.0) == within
    # a trace run backwards inflates V at every step, far from p_i too
    back = run_perturbed(SPEC, FIG_CFG, (2.0, 1.0), 30, seed=3)
    back = robust.PerturbedTrace(back.points[::-1], (), 3)
    assert rate_ratio(SPEC, FIG_CFG, back) > 1.0 / SPEC.rate
    assert rate_ratio(SPEC, FIG_CFG, robust.PerturbedTrace(
        ((1.0, 1.0), (1.0, 1.0)), (), 0)) == pytest.approx(1.0 / SPEC.rate)
    assert rate_ratio(SPEC, FIG_CFG, robust.PerturbedTrace(
        (FIG_CFG.p1, (1.0, 1.0)), (), 0)) == 0.0
