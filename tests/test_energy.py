import numpy as np
import pytest

from trisol.energy import EnergyModel
from trisol.grid import (DomainSpec, Field, apply_neg_laplacian, h1_seminorm_sq_values,
                         inner_product, quadrature, row_blocks, solve_poisson)
from trisol.nonlinearity import TruncationMode, antiderivative
from trisol.presets import cubic_nonlinearity
from trisol.spectrum import eigenpairs

RT60 = np.sqrt(60.0)


@pytest.fixture(scope="module")
def setup():
    spec = DomainSpec.interval(1.0, 63)
    nl = cubic_nonlinearity(spec)
    return spec, nl, {mode: EnergyModel(spec, nl, mode) for mode in TruncationMode}


def _safe_random_field(spec, nl, rng):
    """Values bounded away from the truncation kinks at a-, 0, a+."""
    magnitudes = rng.uniform(0.1, 0.45, spec.size) * nl.a_plus
    signs = rng.choice([-1.0, 1.0], spec.size)
    return Field(spec, magnitudes * signs)


def test_phi_of_zero_is_zero(setup):
    spec, nl, models = setup
    for model in models.values():
        assert model.phi(Field.zeros(spec)) == 0.0


def test_phi_negative_along_first_eigenfunction(setup):
    spec, nl, models = setup
    phi1 = eigenpairs(spec, 1)[0].phi
    s = 0.5 * nl.delta / quadrature(spec, phi1, "sup_norm")
    assert models[TruncationMode.PLUS].phi(s * phi1) < 0.0


def test_phi_saturates_beyond_plus_support(setup):
    # for u >= a+ everywhere the nonlinear term freezes at its root value
    spec, nl, models = setup
    u = Field(spec, np.full(spec.size, nl.a_plus + 3.0))
    expected = (0.5 * quadrature(spec, u, "h1_seminorm") ** 2
                - antiderivative(nl, TruncationMode.PLUS, nl.a_plus)
                * quadrature(spec, Field(spec, np.ones(spec.size)), "integral"))
    assert models[TruncationMode.PLUS].phi(u) == pytest.approx(expected, rel=1e-12)


def test_grad_residual_at_zero(setup):
    spec, nl, models = setup
    for model in models.values():
        assert np.all(model.grad_residual(Field.zeros(spec)).values == 0.0)


def test_gradient_pairing_matches_finite_differences(setup):
    # h^d <grad_residual, v> against central differences of phi
    spec, nl, models = setup
    model = models[TruncationMode.FULL]
    rng = np.random.default_rng(41)
    eps = 1e-5
    for _ in range(10):
        u = _safe_random_field(spec, nl, rng)
        v = Field(spec, rng.standard_normal(spec.size))
        pairing = inner_product(spec, model.grad_residual(u), v)
        fd = (model.phi(u + eps * v) - model.phi(u - eps * v)) / (2 * eps)
        assert fd == pytest.approx(pairing, rel=1e-6)


def test_grad_preconditioned_zero_and_composition(setup):
    spec, nl, models = setup
    model = models[TruncationMode.FULL]
    assert np.all(model.grad_preconditioned(Field.zeros(spec)).values == 0.0)
    rng = np.random.default_rng(43)
    u = _safe_random_field(spec, nl, rng)
    composed = apply_neg_laplacian(spec, model.grad_preconditioned(u))
    residual = model.grad_residual(u)
    assert np.max(np.abs(composed.values - residual.values)) <= 2e-10 * nl.scale


def test_preconditioned_direction_descends(setup):
    spec, nl, models = setup
    model = models[TruncationMode.FULL]
    rng = np.random.default_rng(47)
    for _ in range(5):
        u = _safe_random_field(spec, nl, rng)
        d = -model.grad_preconditioned(u)
        base = model.phi(u)
        assert model.phi(u + 1e-4 * d) < base


def test_coercivity_certificate(setup):
    # phi >= 1/2 |u|_H1^2 - (max |G_plus|) |Omega| for amplitudes of any size
    spec, nl, models = setup
    model = models[TruncationMode.PLUS]
    ts = np.linspace(0.0, nl.a_plus, 2001)
    m_g = float(np.max(np.abs(antiderivative(nl, TruncationMode.PLUS, ts))))
    omega = quadrature(spec, Field(spec, np.ones(spec.size)), "integral")
    rng = np.random.default_rng(53)
    amplitudes = 10.0 ** rng.uniform(-3, 3, 1000)
    for amp in amplitudes:
        u = Field(spec, amp * rng.standard_normal(spec.size))
        h1 = quadrature(spec, u, "h1_seminorm")
        assert model.phi(u) >= 0.5 * h1 * h1 - m_g * omega - 1e-9


def test_plus_and_full_agree_inside_plus_range(setup):
    spec, nl, models = setup
    rng = np.random.default_rng(59)
    for _ in range(5):
        u = Field(spec, rng.uniform(0.0, nl.a_plus, spec.size))
        assert models[TruncationMode.PLUS].phi(u) == pytest.approx(
            models[TruncationMode.FULL].phi(u), rel=1e-12)
        dp = models[TruncationMode.PLUS].grad_residual(u)
        df = models[TruncationMode.FULL].grad_residual(u)
        assert np.array_equal(dp.values, df.values)


def test_phi_increment_matches_difference(setup):
    spec, nl, models = setup
    model = models[TruncationMode.FULL]
    rng = np.random.default_rng(61)
    u = rng.uniform(-6.0, 6.0, spec.size)
    for scale in (1.0, 1e-3, 1e-6):
        s = scale * rng.standard_normal(spec.size)
        inc = model.phi_increment(u, model.residual_values(u), s)
        direct = model.phi_values(u + s) - model.phi_values(u)
        assert inc == pytest.approx(direct, abs=1e-9 * max(1.0, abs(direct)) + 1e-10)


def test_phi_rows_matches_scalar_phi(setup):
    # the 22-row path stack on the 63 x 63 grid is summed in several row
    # blocks; every row still equals its single-row value and the
    # whole-stack formula bit for bit
    spec, nl, models = setup
    square = DomainSpec.rectangle(1.0, 1.0, 63, 63)
    cases = ((models[TruncationMode.FULL], 7),
             (EnergyModel(square, cubic_nonlinearity(square), TruncationMode.FULL), 22))
    rng = np.random.default_rng(67)
    for model, count in cases:
        rows = rng.uniform(-8.0, 8.0, (count, model.domain.size))
        batched = model.phi_rows(rows)
        for row, value in zip(rows, batched):
            assert value == model.phi_values(row)
        nonlin = antiderivative(model.nl, model.mode, rows.ravel()).reshape(rows.shape)
        whole = (0.5 * h1_seminorm_sq_values(model.domain, rows)
                 - model.domain.cell_volume * nonlin.sum(axis=1))
        assert np.array_equal(batched, whole)
    assert len(row_blocks(*rows.shape)) > 1


def test_domain_mismatch(setup):
    spec, nl, models = setup
    other = Field.zeros(DomainSpec.interval(1.0, 15))
    with pytest.raises(ValueError):
        models[TruncationMode.FULL].phi(other)
