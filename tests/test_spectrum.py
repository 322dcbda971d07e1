import itertools
import math
import re

import numpy as np
import pytest

from trisol.grid import DomainSpec, apply_neg_laplacian, quadrature
from trisol.spectrum import MAX_MODES, eigenpairs, eigenvalue_table, sandwich_index

PI2 = np.pi**2


def test_interval_eigenvalues():
    spec = DomainSpec.interval(1.0, 63)
    pairs = eigenpairs(spec, 3)
    assert [p.lam for p in pairs] == pytest.approx([PI2, 4 * PI2, 9 * PI2], rel=1e-14)
    assert [p.mode for p in pairs] == [(1,), (2,), (3,)]
    assert [p.rank for p in pairs] == [1, 2, 3]


def test_square_multiplicity_ordering():
    spec = DomainSpec.rectangle(1.0, 1.0, 15, 15)
    pairs = eigenpairs(spec, 4)
    assert [p.lam for p in pairs] == pytest.approx(
        [2 * PI2, 5 * PI2, 5 * PI2, 8 * PI2], rel=1e-14)
    # tie broken lexicographically by mode tuple
    assert [p.mode for p in pairs] == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_anisotropic_rectangle_ordering():
    spec = DomainSpec.rectangle(2.0, 1.0, 15, 7)
    pairs = eigenpairs(spec, 8)
    lams = [p.lam for p in pairs]
    assert lams == sorted(lams)
    assert pairs[0].mode == (1, 1)
    assert pairs[0].lam == pytest.approx(PI2 * (1 / 4 + 1), rel=1e-14)
    assert pairs[1].mode == (2, 1)


def test_eigenfunctions_unit_norm():
    for spec in (DomainSpec.interval(1.0, 63), DomainSpec.rectangle(1.0, 1.0, 15, 15)):
        for pair in eigenpairs(spec, 4):
            assert quadrature(spec, pair.phi, "l2_norm") == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("spec", [DomainSpec.interval(1.0, 63),
                                  DomainSpec.rectangle(1.0, 1.0, 31, 31)])
def test_discrete_eigenrelation_residual(spec):
    h = max(spec.spacings)
    bound = 2.0 * (np.pi * h) ** 2
    for pair in eigenpairs(spec, 4):
        resid = apply_neg_laplacian(spec, pair.phi) - pair.lam * pair.phi
        rel = quadrature(spec, resid, "l2_norm") / pair.lam
        assert rel <= bound


def test_rank_one_eigenvalue_error():
    # discrete eigenvalue (2 - 2 cos(pi h)) / h^2 vs pi^2
    spec = DomainSpec.interval(1.0, 127)
    (h,) = spec.spacings
    pair = eigenpairs(spec, 1)[0]
    resid = apply_neg_laplacian(spec, pair.phi) - pair.lam * pair.phi
    rel = quadrature(spec, resid, "l2_norm") / pair.lam
    assert rel <= (np.pi * h) ** 2


def test_sandwich_index_interval():
    spec = DomainSpec.interval(1.0, 31)
    assert sandwich_index(spec, 60.0) == 2


def test_sandwich_index_square_counts_multiplicity():
    spec = DomainSpec.rectangle(1.0, 1.0, 15, 15)
    assert sandwich_index(spec, 60.0) == 3


def test_sandwich_index_boundary_equality():
    # non-strict inequality: mu equal to an eigenvalue is admitted
    spec = DomainSpec.interval(1.0, 31)
    assert sandwich_index(spec, (2 * np.pi) ** 2) == 2


def test_sandwich_index_below_first():
    spec = DomainSpec.interval(1.0, 31)
    with pytest.raises(ValueError):
        sandwich_index(spec, 0.5 * PI2)


@pytest.mark.parametrize("lengths, counts", [((1e-160,), (31,)), ((1.0, 1e-160), (15, 15))])
def test_overflowing_eigenvalues_are_a_named_error(lengths, counts):
    # Python's float ** 2 raises OverflowError; the spectrum says which side
    spec = DomainSpec(lengths, counts)
    for read in (lambda: eigenvalue_table(spec, 4), lambda: sandwich_index(spec, 60.0)):
        with pytest.raises(ValueError, match="side length 1e-160 is too short"):
            read()


def test_sandwich_index_monotone():
    spec = DomainSpec.rectangle(1.0, 1.0, 15, 15)
    mus = np.linspace(20.0, 200.0, 61)
    ks = [sandwich_index(spec, mu) for mu in mus]
    assert all(a <= b for a, b in zip(ks, ks[1:]))


def _box_limit(lengths):
    """The mu where the box of int(L sqrt(mu) / pi) + 1 modes per axis reaches
    MAX_MODES, by bisection on prod(L sqrt(mu) / pi + 1)."""
    lo, hi = 0.0, math.pi * MAX_MODES / min(lengths)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.prod(L * mid / math.pi + 1 for L in lengths) <= MAX_MODES:
            lo = mid
        else:
            hi = mid
    return lo * lo


@pytest.mark.parametrize("lengths, near", [
    ((1.0, 1.0), 9.84988e6), ((1.0, 20.0), 491168.0), ((0.7, 3.3), 4.26132e6),
    ((2.0,), 2.46740e12)])
def test_limit_message_states_the_limit_it_enforces(lengths, near):
    spec = DomainSpec(lengths, (15,) * len(lengths))
    limit = _box_limit(lengths)
    assert limit == pytest.approx(near, rel=2e-6)
    assert sandwich_index(spec, limit * (1 - 1e-6)) > 0
    with pytest.raises(ValueError, match=re.escape(f"they fit up to about {limit:.4g}")):
        sandwich_index(spec, limit * (1 + 1e-6))


def _product_table(spec, count):
    """The count smallest (eigenvalue, mode) pairs from every mode with
    indices up to count, sorted by value and then by mode."""
    table = [(sum((m * math.pi / L) ** 2 for m, L in zip(mode, spec.lengths)), mode)
             for mode in itertools.product(range(1, count + 1), repeat=spec.ndim)]
    table.sort()
    return table[:count]


# the intervals run past the modes where numpy's ** 2 rounds differently
# from Python's (119 at L = 0.6, 283 at L = 2)
@pytest.mark.parametrize("lengths, count", [
    ((0.6,), 300), ((2.0,), 300), ((1.0, 1.0), 200), ((2.0, 1.0), 200),
    ((1.0, 0.6), 200), ((0.7, 3.3), 200), ((1.0, 20.0), 200)])
def test_spectrum_matches_the_product_over_modes_bitwise(lengths, count):
    spec = DomainSpec(lengths, (7,) * len(lengths))
    table = _product_table(spec, count)
    assert eigenvalue_table(spec, count) == table
    assert [eigenvalue_table(spec, k) for k in (1, 2, 3, 50)] == [
        table[:k] for k in (1, 2, 3, 50)]
    # mu at every listed eigenvalue, ties included, and halfway to the next;
    # below the last one, every mode at or below mu is listed
    values = [lam for lam, _ in table]
    last = values[-1]
    mus = [mu for mu in values[1:] + [0.5 * (a + b) for a, b in zip(values, values[1:])]
           if mu < last]
    assert [sandwich_index(spec, mu) for mu in mus] == [
        sum(lam <= mu for lam in values) for mu in mus]
