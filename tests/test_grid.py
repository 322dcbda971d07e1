import numpy as np
import pytest

from trisol.grid import (ROW_BLOCK, DomainMismatchError, DomainSpec, Field,
                         apply_neg_laplacian, h1_seminorm_sq_values,
                         inner_product, quadrature, row_blocks, solve_poisson,
                         solve_poisson_values)


def interval(n=31, length=1.0):
    return DomainSpec.interval(length, n)


def test_domain_validation():
    with pytest.raises(ValueError):
        DomainSpec.interval(0.0, 16)
    with pytest.raises(ValueError):
        DomainSpec.interval(1.0, 2)
    with pytest.raises(ValueError):
        DomainSpec.rectangle(1.0, -1.0, 8, 8)


def test_spacing_is_derived():
    spec = DomainSpec.interval(2.0, 7)
    assert spec.spacings == (0.25,)
    spec2 = DomainSpec.rectangle(1.0, 3.0, 4, 5)
    assert spec2.spacings == (0.2, 0.5)
    assert spec2.cell_volume == pytest.approx(0.1)
    # the derived values are cached, but equality and hashing read only the fields
    fresh = DomainSpec.rectangle(1.0, 3.0, 4, 5)
    assert spec2 == fresh and hash(spec2) == hash(fresh) and "spacings" not in vars(fresh)


def test_field_validation():
    spec = interval(5)
    with pytest.raises(ValueError):
        Field(spec, np.ones(4))
    with pytest.raises(ValueError):
        Field(spec, np.array([1.0, np.inf, 0, 0, 0]))


def test_field_values_are_read_only():
    u = Field.zeros(interval(5))
    with pytest.raises(ValueError):
        u.values[0] = 1.0


def test_neg_laplacian_zero_field():
    spec = interval()
    out = apply_neg_laplacian(spec, Field.zeros(spec))
    assert np.all(out.values == 0.0)


def test_neg_laplacian_1d_discrete_eigenrelation():
    # sin(pi x) is an exact eigenvector of the tridiagonal stencil
    spec = interval(31)
    (h,) = spec.spacings
    u = Field.from_callable(spec, lambda x: np.sin(np.pi * x))
    lam_h = (2.0 - 2.0 * np.cos(np.pi * h)) / h**2
    out = apply_neg_laplacian(spec, u)
    assert np.allclose(out.values, lam_h * u.values, rtol=1e-12, atol=1e-12)


def test_neg_laplacian_2d_tensor_eigenrelation():
    spec = DomainSpec.rectangle(1.0, 1.0, 15, 23)
    hx, hy = spec.spacings
    u = Field.from_callable(spec, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    lam_h = (2 - 2 * np.cos(np.pi * hx)) / hx**2 + (2 - 2 * np.cos(np.pi * hy)) / hy**2
    out = apply_neg_laplacian(spec, u)
    assert np.allclose(out.values, lam_h * u.values, rtol=1e-11, atol=1e-11)


def test_domain_mismatch_raises():
    u = Field.zeros(interval(5))
    with pytest.raises(DomainMismatchError):
        apply_neg_laplacian(interval(7), u)


def test_quadrature_zero_field():
    spec = interval()
    z = Field.zeros(spec)
    for kind in ("integral", "l2_norm", "sup_norm", "h1_seminorm"):
        assert quadrature(spec, z, kind) == 0.0


def test_quadrature_constant_integral():
    # midpoint rule over interior nodes only: n * h = 1 - h
    spec = interval(31)
    (h,) = spec.spacings
    ones = Field(spec, np.ones(spec.size))
    assert quadrature(spec, ones, "integral") == pytest.approx(1.0 - h, rel=1e-14)


def test_quadrature_sine_l2_value():
    # h * sum of sin^2(i pi h) telescopes to 1/2 exactly on these grids,
    # so the discrete l2 norm hits sqrt(1/2) at machine precision
    exact = np.sqrt(0.5)
    for n in (31, 63, 127):
        spec = interval(n)
        u = Field.from_callable(spec, lambda x: np.sin(np.pi * x))
        assert quadrature(spec, u, "l2_norm") == pytest.approx(exact, abs=1e-13)


def test_quadrature_midpoint_second_order():
    # integral of sin(pi x) carries the generic O(h^2) midpoint error
    exact = 2.0 / np.pi
    errors, hs = [], []
    for n in (31, 63, 127):
        spec = interval(n)
        u = Field.from_callable(spec, lambda x: np.sin(np.pi * x))
        errors.append(abs(quadrature(spec, u, "integral") - exact))
        hs.append(spec.spacings[0])
    order = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    assert 1.8 <= order <= 2.2


def test_quadrature_unknown_kind():
    spec = interval(5)
    with pytest.raises(ValueError):
        quadrature(spec, Field.zeros(spec), "h2")


@pytest.mark.parametrize("spec", [interval(21), DomainSpec.rectangle(1.0, 2.0, 9, 13)])
def test_stencil_symmetry_and_positivity(spec):
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = Field(spec, rng.standard_normal(spec.size))
        v = Field(spec, rng.standard_normal(spec.size))
        au_v = inner_product(spec, apply_neg_laplacian(spec, u), v)
        u_av = inner_product(spec, u, apply_neg_laplacian(spec, v))
        assert au_v == pytest.approx(u_av, rel=1e-12)
        energy = inner_product(spec, u, apply_neg_laplacian(spec, u))
        assert energy > 0.0
        h1 = quadrature(spec, u, "h1_seminorm")
        assert energy == pytest.approx(h1 * h1, rel=1e-12)


def test_poisson_zero_rhs():
    spec = interval()
    w = solve_poisson(spec, Field.zeros(spec))
    assert np.all(w.values == 0.0)


def test_poisson_recovers_eigenvector():
    spec = interval(63)
    (h,) = spec.spacings
    u = Field.from_callable(spec, lambda x: np.sin(np.pi * x))
    lam_h = (2.0 - 2.0 * np.cos(np.pi * h)) / h**2
    rhs = Field(spec, lam_h * u.values)
    w = solve_poisson(spec, rhs)
    assert np.max(np.abs(w.values - u.values)) < 1e-10


def _torsion_center_series():
    # w solving -lap w = 1 on the unit square, evaluated at the center by
    # the double sine series; odd-odd terms only
    total = 0.0
    for m in range(1, 400, 2):
        for n in range(1, 400, 2):
            sign = (-1.0) ** ((m - 1) // 2 + (n - 1) // 2)
            total += sign / (m * n * (m * m + n * n))
    return 16.0 / np.pi**4 * total


def test_poisson_torsion_center_value():
    exact = _torsion_center_series()
    assert exact == pytest.approx(0.07367, abs=5e-6)
    errors = []
    for n in (31, 63):
        spec = DomainSpec.rectangle(1.0, 1.0, n, n)
        w = solve_poisson(spec, Field(spec, np.ones(spec.size)))
        center = w.reshaped()[n // 2, n // 2]
        errors.append(abs(center - exact))
    assert errors[1] < errors[0]
    assert errors[1] < 5e-5


def test_poisson_inverse_composition():
    rng = np.random.default_rng(11)
    for spec in (DomainSpec.rectangle(1.0, 1.0, 17, 17),
                 DomainSpec.rectangle(1.0, 2.0, 23, 11)):
        u = Field(spec, rng.standard_normal(spec.size))
        w = solve_poisson(spec, apply_neg_laplacian(spec, u))
        assert np.max(np.abs(w.values - u.values)) < 1e-12


def test_poisson_discrete_maximum_principle():
    # nonnegative rhs gives a nonnegative solution (M-matrix stencil)
    rng = np.random.default_rng(3)
    for spec in (interval(41), DomainSpec.rectangle(1.0, 1.0, 15, 15)):
        rhs = Field(spec, rng.uniform(0.1, 1.0, spec.size))
        w = solve_poisson(spec, rhs)
        assert np.min(w.values) >= 0.0


def _h1_reference(spec, values):
    """Squared differences of the zero-padded grid, summed per axis."""
    v = np.pad(values.reshape(spec.counts), 1)
    if spec.ndim == 1:
        d = np.diff(v)
        return np.sum(d * d) / spec.spacings[0]
    hx, hy = spec.spacings
    dx = np.diff(v, axis=0)[:, 1:-1]
    dy = np.diff(v, axis=1)[1:-1, :]
    return spec.cell_volume * (np.sum(dx * dx) / (hx * hx) + np.sum(dy * dy) / (hy * hy))


@pytest.mark.parametrize("size", [127, 511, 745, 3969, 65025])
@pytest.mark.parametrize("rows", [1, 22, 100])
def test_row_blocks_cover_every_row_once_within_the_budget(rows, size):
    blocks = row_blocks(rows, size)
    covered = np.concatenate([np.arange(rows)[b] for b in blocks])
    assert np.array_equal(covered, np.arange(rows))
    # a row longer than the budget is a block of its own
    assert all((b.stop - b.start) * size <= max(ROW_BLOCK, size) for b in blocks)
    assert all(b.stop > b.start for b in blocks)
    if size in (127, 511) and rows <= 22:
        assert len(blocks) == 1  # the path of p1 and p1-511 runs as one block


@pytest.mark.parametrize("spec", [interval(31), DomainSpec.rectangle(1.0, 1.0, 15, 15),
                                  DomainSpec.rectangle(1.0, 2.0, 23, 11)],
                         ids=["interval31", "square15", "rect23x11"])
def test_h1_stack_equals_rows_exactly(spec):
    # bit-for-bit: the path search's energies and arclengths use the stack
    rng = np.random.default_rng(19)
    rows = rng.standard_normal((6, spec.size))
    stacked = h1_seminorm_sq_values(spec, rows)
    assert stacked.shape == (6,)
    for row, value in zip(rows, stacked):
        assert value == h1_seminorm_sq_values(spec, row) == _h1_reference(spec, row)


def _poisson_reference(spec, rhs):
    """One field's Poisson solve as the descent and path search have always
    done it: DST-I along the last axis, then a transpose, per pass."""
    def dst(a):
        for _ in range(a.ndim):
            n = a.shape[-1]
            ext = np.zeros(a.shape[:-1] + (2 * n + 2,))
            ext[..., 1:n + 1] = a
            ext[..., n + 2:] = -a[..., ::-1]
            a = (-0.5 * np.fft.rfft(ext)[..., 1:n + 1].imag).T
        return a
    lams = [4.0 / (h * h) * np.sin(np.arange(1, n + 1) * np.pi / (2 * (n + 1))) ** 2
            for n, h in zip(spec.counts, spec.spacings)]
    symbol = sum(np.meshgrid(*lams, indexing="ij"))
    coeffs = dst(rhs.reshape(spec.counts))
    coeffs *= np.prod([2.0 / (n + 1) for n in spec.counts]) / symbol
    return dst(coeffs).ravel()


@pytest.mark.parametrize("spec", [interval(31), DomainSpec.rectangle(1.0, 1.0, 15, 15),
                                  DomainSpec.rectangle(1.0, 2.0, 23, 11)],
                         ids=["interval31", "square15", "rect23x11"])
def test_poisson_solve_equals_reference_exactly(spec):
    # bit-for-bit: the solve does the reference's arithmetic on each field
    rng = np.random.default_rng(23)
    for row in rng.standard_normal((5, spec.size)):
        assert np.array_equal(solve_poisson_values(spec, row), _poisson_reference(spec, row))
