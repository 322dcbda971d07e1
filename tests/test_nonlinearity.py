import dataclasses

import numpy as np
import pytest

from trisol.grid import DomainSpec
from trisol.nonlinearity import (Nonlinearity, TruncationMode, antiderivative,
                                 preset_corollary, truncate,
                                 truncation_increments, validate_condition_g)
from trisol.presets import cubic_nonlinearity

RT60 = np.sqrt(60.0)


@pytest.fixture(scope="module")
def interval_spec():
    return DomainSpec.interval(1.0, 63)


@pytest.fixture(scope="module")
def nl(interval_spec):
    return cubic_nonlinearity(interval_spec)


def test_constructor_validation():
    g = lambda t: t
    with pytest.raises(ValueError):
        Nonlinearity(g, g, a_minus=1.0, a_plus=2.0, delta=1.0, k=2)
    with pytest.raises(ValueError):
        Nonlinearity(g, g, a_minus=-1.0, a_plus=1.0, delta=0.0, k=2)
    with pytest.raises(ValueError):
        Nonlinearity(g, g, a_minus=-1.0, a_plus=1.0, delta=1.0, k=0)


@pytest.mark.parametrize("degree", [None, 0, 3, np.int64(5), 4.0])
def test_degree_accepts_none_and_integers(degree):
    g = lambda t: t
    nl = Nonlinearity(g, g, a_minus=-1.0, a_plus=1.0, delta=1.0, k=2, degree=degree)
    assert nl.degree == degree


@pytest.mark.parametrize("degree", [True, False, -1, 2.5, float("nan"), float("inf")])
def test_degree_rejects_bool_negative_and_non_integral(degree):
    g = lambda t: t
    with pytest.raises(ValueError, match="degree"):
        Nonlinearity(g, g, a_minus=-1.0, a_plus=1.0, delta=1.0, k=2, degree=degree)


def test_scale_is_sup_of_g(nl):
    # for the cubic the sup of |g| on the root interval is 40 sqrt(20)
    assert nl.scale == pytest.approx(40.0 * np.sqrt(20.0), rel=1e-6)


def test_truncate_outside_support_is_zero(nl):
    assert truncate(nl, TruncationMode.PLUS, -1.0) == 0.0
    assert truncate(nl, TruncationMode.MINUS, 0.5) == 0.0
    assert truncate(nl, TruncationMode.FULL, 10.0) == 0.0


def test_truncate_branches_agree_at_root(nl):
    at_plus = truncate(nl, TruncationMode.PLUS, nl.a_plus)
    at_full = truncate(nl, TruncationMode.FULL, nl.a_plus)
    assert at_plus == at_full
    assert abs(at_plus) <= 1e-12 * nl.scale


def test_truncate_inside_support(nl):
    assert truncate(nl, TruncationMode.FULL, 1.0) == pytest.approx(59.0, rel=1e-14)
    assert truncate(nl, TruncationMode.PLUS, 1.0) == pytest.approx(59.0, rel=1e-14)


def test_plus_plus_minus_is_full(nl):
    rng = np.random.default_rng(17)
    ts = rng.uniform(-12.0, 12.0, 1000)
    plus = truncate(nl, TruncationMode.PLUS, ts)
    minus = truncate(nl, TruncationMode.MINUS, ts)
    full = truncate(nl, TruncationMode.FULL, ts)
    assert np.array_equal(plus + minus, full)


def test_truncation_bounded(nl):
    rng = np.random.default_rng(23)
    ts = rng.uniform(-1e3, 1e3, 2000)
    for mode in TruncationMode:
        assert np.max(np.abs(truncate(nl, mode, ts))) <= nl.scale


def test_antiderivative_at_zero(nl):
    for mode in TruncationMode:
        assert antiderivative(nl, mode, 0.0) == 0.0


def test_antiderivative_closed_form(nl):
    # integral of 60 t - t^3 from 0 to 1 is 30 - 1/4
    value = antiderivative(nl, TruncationMode.FULL, 1.0)
    assert value == pytest.approx(29.75, rel=1e-13)


def test_antiderivative_saturates_beyond_support(nl):
    # G at the positive root: 30 * 60 - 60^2 / 4 = 900
    g_max = antiderivative(nl, TruncationMode.PLUS, nl.a_plus)
    assert g_max == pytest.approx(900.0, rel=1e-13)
    for t in (nl.a_plus, 8.0, 20.0, 1e3):
        assert antiderivative(nl, TruncationMode.PLUS, t) == pytest.approx(g_max, rel=1e-13)


def test_antiderivative_matches_quadrature_oracle(nl):
    # independent adaptive quadrature; the truncated integral equals the
    # integral of plain g with the endpoint clipped to the support
    from scipy.integrate import quad
    rng = np.random.default_rng(29)
    ts = rng.uniform(-9.0, 9.0, 20)
    for mode in TruncationMode:
        lo, hi = nl.support(mode)
        for t in ts:
            expected, _ = quad(lambda s: float(nl.g(np.asarray(s))),
                               0.0, np.clip(t, lo, hi), epsabs=1e-13, limit=200)
            got = antiderivative(nl, mode, t)
            assert got == pytest.approx(expected, abs=1e-10 * max(1.0, abs(t)) * nl.scale)


def test_antiderivative_derivative_consistency(nl):
    # central differences match the truncation away from the kink points
    rng = np.random.default_rng(31)
    kinks = np.array([nl.a_minus, 0.0, nl.a_plus])
    ts = []
    while len(ts) < 200:
        t = rng.uniform(-9.0, 9.0)
        if np.min(np.abs(t - kinks)) > 1e-3:
            ts.append(t)
    eps = 1e-6
    for mode in TruncationMode:
        for t in ts:
            fd = (antiderivative(nl, mode, t + eps)
                  - antiderivative(nl, mode, t - eps)) / (2 * eps)
            assert fd == pytest.approx(truncate(nl, mode, t), abs=1e-4 * nl.scale)


def test_plus_antiderivative_lower_bound(nl, interval_spec):
    # G_plus(t) >= (lambda_2 / 2) t^2 inside (0, delta) under the sandwich
    lam2 = (2 * np.pi) ** 2
    ts = np.linspace(1e-4, nl.delta - 1e-9, 200)
    values = antiderivative(nl, TruncationMode.PLUS, ts)
    assert np.all(values >= 0.5 * lam2 * ts**2 - 1e-12)


def test_truncation_increments_match_difference(nl):
    rng = np.random.default_rng(37)
    u = rng.uniform(-8.0, 8.0, 64)
    s = rng.uniform(-0.5, 0.5, 64)
    for mode in TruncationMode:
        inc = truncation_increments(nl, mode, u, s)
        direct = (antiderivative(nl, mode, u + s) - antiderivative(nl, mode, u)
                  - truncate(nl, mode, u) * s)
        assert np.allclose(inc, direct, atol=1e-10)


def test_validate_condition_g_passes_on_interval(nl, interval_spec):
    report = validate_condition_g(nl, interval_spec)
    assert report.ok
    assert report.k_computed == 2
    assert report.failures == []


def test_validate_condition_g_square_index_mismatch(interval_spec):
    # claiming the interval's k on the square must fail and name k = 3
    square = DomainSpec.rectangle(1.0, 1.0, 15, 15)
    bad = Nonlinearity(g=lambda t: 60.0 * t - t**3,
                       gprime=lambda t: 60.0 - 3.0 * t**2,
                       a_minus=-RT60, a_plus=RT60, delta=1.0, k=2)
    report = validate_condition_g(bad, square)
    assert not report.ok
    assert report.k_computed == 3
    assert any(f.check == "index" and "k = 3" in f.detail for f in report.failures)


def test_validate_condition_g_counts_stencil_eigenvalues_at_zero():
    # the continuum lambda_3 = 9 pi^2 = 88.8 lies above g'(0) = 87, but the
    # stencil's third eigenvalue on 15 nodes is about 86.4, so the operator
    # that is solved has index 3 at zero
    spec = DomainSpec.interval(1.0, 15)
    nl = cubic_nonlinearity(spec, 87.0, 0.3)
    assert nl.k == 2
    report = validate_condition_g(nl, spec)
    assert report.k_computed == 3
    assert not report.ok
    assert [f.check for f in report.failures] == ["index"]
    assert "claimed k = 2" in report.failures[0].detail
    assert "gives k = 3" in report.failures[0].detail


def test_validate_condition_g_requires_k_at_least_two(interval_spec):
    # g'(0) just above the first eigenvalue leaves only k = 1 available
    lam = 20.0
    low = Nonlinearity(g=lambda t: lam * t - t**3,
                       gprime=lambda t: lam - 3.0 * t**2,
                       a_minus=-np.sqrt(lam), a_plus=np.sqrt(lam),
                       delta=0.5, k=1)
    report = validate_condition_g(low, interval_spec)
    assert not report.ok
    assert any(f.check == "k_min" for f in report.failures)


def test_validate_condition_g_flags_gprime0_below_the_first_eigenvalue(interval_spec):
    # g'(0) = 5 lies below pi^2, so no stencil eigenvalue is at or below it
    lam = 5.0
    low = Nonlinearity(g=lambda t: lam * t - t**3,
                       gprime=lambda t: lam - 3.0 * t**2,
                       a_minus=-np.sqrt(lam), a_plus=np.sqrt(lam),
                       delta=0.5, k=2)
    report = validate_condition_g(low, interval_spec)
    assert not report.ok
    assert report.k_computed == 0
    (failure,) = [f for f in report.failures if f.check in ("gprime0", "index")]
    assert failure.check == "gprime0"
    assert failure.detail == "g'(0) = 5 is below the first stencil eigenvalue"
    assert failure.witness == 5.0


def test_validate_condition_g_flags_bad_roots(interval_spec):
    bad = Nonlinearity(g=lambda t: 60.0 * t - t**3,
                       gprime=lambda t: 60.0 - 3.0 * t**2,
                       a_minus=-5.0, a_plus=5.0, delta=1.0, k=2)
    report = validate_condition_g(bad, interval_spec)
    assert any(f.check == "root" for f in report.failures)


def test_validate_condition_g_sample_floor(nl, interval_spec):
    with pytest.raises(ValueError):
        validate_condition_g(nl, interval_spec, samples=10)


def test_preset_corollary_interval(interval_spec):
    built = preset_corollary(interval_spec, 60.0, lambda t: t**3,
                             lambda t: 3.0 * t**2)
    assert built.a_plus == pytest.approx(RT60, abs=1e-9)
    assert built.a_minus == pytest.approx(-RT60, abs=1e-9)
    assert built.k == 2
    assert validate_condition_g(built, interval_spec).ok


def test_preset_corollary_square_index():
    square = DomainSpec.rectangle(1.0, 1.0, 15, 15)
    built = preset_corollary(square, 60.0, lambda t: t**3, lambda t: 3.0 * t**2)
    assert built.k == 3
    assert built.a_plus == pytest.approx(RT60, abs=1e-9)


def test_preset_corollary_eigenvalue_collision(interval_spec):
    with pytest.raises(ValueError, match="collision"):
        preset_corollary(interval_spec, (2 * np.pi) ** 2, lambda t: t**3,
                         lambda t: 3.0 * t**2)


def test_preset_corollary_double_eigenvalue_collision():
    # 5 pi^2 is the double eigenvalue of modes (1, 2) and (2, 1)
    square = DomainSpec.rectangle(1.0, 1.0, 15, 15)
    with pytest.raises(ValueError, match=r"collision.*\(1, 2\)"):
        preset_corollary(square, 5 * np.pi**2, lambda t: t**3, lambda t: 3.0 * t**2)


def test_preset_corollary_lambda_too_small(interval_spec):
    with pytest.raises(ValueError, match="second eigenvalue"):
        preset_corollary(interval_spec, 20.0, lambda t: t**3, lambda t: 3.0 * t**2)


def test_preset_corollary_needs_superlinear_f(interval_spec):
    # f = 0 never produces a root of lambda t - f(t)
    with pytest.raises(RuntimeError, match="sign change"):
        preset_corollary(interval_spec, 60.0, lambda t: 0.0 * t, lambda t: 0.0 * t)


def test_primitive_matches_quadrature(nl):
    # the cubic's closed-form primitive against the quadrature used for
    # general g, at the quadrature's own tolerance
    assert nl.primitive is not None
    by_quadrature = Nonlinearity(nl.g, nl.gprime, nl.a_minus, nl.a_plus,
                                 nl.delta, nl.k)
    ts = np.random.default_rng(41).uniform(-12.0, 12.0, 2000)
    for mode in TruncationMode:
        closed = antiderivative(nl, mode, ts)
        quadrature = antiderivative(by_quadrature, mode, ts)
        assert np.all(np.abs(closed - quadrature)
                      <= 1e-12 * np.maximum(1.0, np.abs(ts)) * nl.scale)


def test_increment_quadrature_stops_at_rounding_floor(nl):
    # with u = 0 the tolerance is 1e-13 while the integral reaches ~820,
    # whose ulp is larger: without a rounding floor the panel doubling
    # runs to its cap (over 24000 g evaluations per node)
    evaluations = []

    def g(t):
        evaluations.append(np.size(t))
        return nl.g(t)

    counted = Nonlinearity(g, nl.gprime, nl.a_minus, nl.a_plus, nl.delta, nl.k)
    s = np.linspace(0.5, 7.7, 721)
    evaluations.clear()
    inc = truncation_increments(counted, TruncationMode.FULL, np.zeros_like(s), s)
    assert sum(evaluations) <= (12 * (1 + 2 + 4) + 1) * s.size
    assert np.allclose(inc, antiderivative(nl, TruncationMode.FULL, s),
                       rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("mode", list(TruncationMode))
def test_fixed_rule_increments_match_adaptive(nl, mode):
    # u runs past both roots, so some intervals are clipped and some empty
    assert nl.degree == 3
    adaptive = dataclasses.replace(nl, degree=None)
    rng = np.random.default_rng(41)
    u = rng.uniform(-1.4 * RT60, 1.4 * RT60, 4000)
    s = rng.uniform(-6.0, 6.0, u.size)
    lo, hi = nl.support(mode)
    a, b = np.clip(u, lo, hi), np.clip(u + s, lo, hi)
    assert np.any(a == b) and np.any((a != b) & ((u < lo) | (u > hi) | (u + s < lo)
                                                 | (u + s > hi)))
    fixed = truncation_increments(nl, mode, u, s)
    bound = 1e-13 * np.maximum(1.0, np.abs(truncate(nl, mode, u) * s)) * nl.scale
    assert np.all(np.abs(fixed - truncation_increments(adaptive, mode, u, s)) <= bound)


def test_fixed_rule_increment_work_count(nl):
    # g(u) once, then one call for the two Gauss nodes of every interval
    evaluations = []

    def g(t):
        evaluations.append(np.size(t))
        return nl.g(t)

    counted = Nonlinearity(g, nl.gprime, nl.a_minus, nl.a_plus, nl.delta, nl.k, degree=3)
    s = np.linspace(0.5, 7.7, 721)
    evaluations.clear()
    inc = truncation_increments(counted, TruncationMode.FULL, np.zeros_like(s), s)
    assert evaluations == [s.size, 2 * s.size]
    assert np.allclose(inc, antiderivative(nl, TruncationMode.FULL, s), rtol=1e-13, atol=0.0)
