"""Perturbation radius, perturbed stepping, and the robust KL bound."""
import math

import numpy as np
import pytest

from drlines import robust
from drlines.dr import dr_multivalued
from drlines.experiments import _branch_values
from drlines.geometry import ProblemConfig, bisector_data, cos_sin
from drlines.lyapunov import certify, v_global
from drlines.robust import (
    PerturbationSpec,
    _worst_boundary_offset,
    check_kl_bound,
    check_lemma_sigma,
    kl_beta,
    perturbed_step,
    run_perturbed,
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
        w, _, _ = perturbed_step(SPEC, FIG_CFG, x, rng, mode=mode,
                                 k_boundary=16)
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
    rng = np.random.default_rng(47)
    for tid in range(n_traces):
        x0 = rng.uniform(-8, 8, size=2)
        trace = run_perturbed(SPEC, FIG_CFG, x0, 100, seed=53, trace_id=tid,
                              mode=mode, k_boundary=16)
        ok, worst = check_kl_bound(SPEC, FIG_CFG, trace)
        assert ok
        assert worst >= -1e-12


VERT_CFG = ProblemConfig(math.pi / 2, 2.0)
VERT_SPEC = PerturbationSpec.from_certificate(certify(VERT_CFG), epsilon=0.05)


def _scalar_worst_offset(spec, cfg, x, radius, rng, k):
    # the adversary as first written, kept as the oracle: one v_global call
    # per sampled direction, strict > against V(x)
    best = (0.0, 0.0)
    best_v = v_global(spec, cfg, x)
    for ang in rng.uniform(0.0, 2.0 * math.pi, size=k):
        off = (radius * math.cos(ang), radius * math.sin(ang))
        v = v_global(spec, cfg, (x[0] + off[0], x[1] + off[1]))
        if v > best_v:
            best_v = v
            best = off
    return best


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
            want = _scalar_worst_offset(spec, cfg, x, radius, rng_old, k)
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
                with pytest.raises(OverflowError):
                    check_lemma_sigma(SPEC, FIG_CFG, x, n_samples, seed=n)
                continue
            got = check_lemma_sigma(SPEC, FIG_CFG, x, n_samples, seed=n)
            assert got == want, (n, x, n_samples)
            verdicts.append(got)
    assert all(verdicts) if inflate == 1.0 else not all(verdicts)
    with pytest.raises(ValueError):
        check_lemma_sigma(SPEC, FIG_CFG, (1.0, 1.0), n_samples=-1)


def _step_points(cfg):
    bd = bisector_data(cfg)
    pts = []
    for n in (bd.n1, bd.n2):  # D3, where both branches are returned
        for t in (-3.0, -0.7, 0.0, 0.3, 2.0):
            pts.append((bd.c[0] - t * n[1], bd.c[1] + t * n[0]))
    for t in (-2.0, -0.5, 0.0, 0.25, 1.5):
        pts += [(t, 0.0), (t, -0.0)]  # the x-axis, both signs of zero
        for p, th in ((cfg.p1, cfg.theta1), (cfg.p2, cfg.theta2)):
            c, s = cos_sin(th)  # on A_i, mapped onto the x-axis
            pts.append((p[0] + t * c, p[1] + t * s))
    return pts


@pytest.mark.parametrize("cfg", [FIG_CFG, VERT_CFG, ProblemConfig(0.3, 2.9)],
                         ids=["figure", "vertical", "obtuse"])
def test_branch_values_match_dr_multivalued(cfg):
    ties = 0
    for x, y in _step_points(cfg):
        got = _branch_values(cfg, x, y)
        want = dr_multivalued(cfg, (x, y)).outputs
        assert repr(got) == repr(want), (x, y)
        ties += len(got) == 2
    assert ties >= 8


@pytest.mark.parametrize("mode", ["random", "adversarial"])
@pytest.mark.parametrize("eps", [0.0, 0.05])
def test_perturbed_step_uses_dr_multivalued_outputs(mode, eps):
    for cfg in (FIG_CFG, VERT_CFG):
        spec = PerturbationSpec.from_certificate(certify(cfg), epsilon=eps)
        rng = np.random.default_rng(67)
        for x in _step_points(cfg):
            w, pre, post = perturbed_step(spec, cfg, x, rng, mode=mode,
                                          k_boundary=16)
            outs = dr_multivalued(cfg, (x[0] + pre[0], x[1] + pre[1])).outputs
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
            want = _scalar_worst_offset(SPEC, FIG_CFG, x, radius,
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
