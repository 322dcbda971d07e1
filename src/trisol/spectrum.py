"""Closed-form Dirichlet Laplacian spectrum of the interval and rectangle.

Eigenvalues are listed in ascending order *with multiplicity*; equal values
are ordered by their mode tuple so the listing is deterministic.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import DomainSpec, Field, quadrature

MIN_EIGEN_COUNT = 1


@dataclass(frozen=True, eq=False)
class Eigenpair:
    """One Dirichlet eigenvalue with its sampled eigenfunction.

    rank is the 1-based position in the ascending-with-multiplicity list,
    mode the sine mode tuple, and phi the eigenfunction sampled on the grid
    and normalized to unit discrete l2 norm.
    """

    rank: int
    lam: float
    mode: tuple[int, ...]
    phi: Field


def eigenvalue_table(spec: DomainSpec, count: int) -> list[tuple[float, tuple[int, ...]]]:
    """The count smallest (eigenvalue, mode) pairs, sorted with multiplicity."""
    if count < MIN_EIGEN_COUNT:
        raise ValueError(f"count must be at least {MIN_EIGEN_COUNT}")
    # the count smallest modes have every index <= count
    table = [(sum((m * math.pi / L) ** 2 for m, L in zip(mode, spec.lengths)), mode)
             for mode in itertools.product(range(1, count + 1), repeat=spec.ndim)]
    table.sort(key=lambda t: (t[0], t[1]))
    return table[:count]


def _sample_mode(spec: DomainSpec, mode: tuple[int, ...]) -> Field:
    vals = functools.reduce(np.multiply.outer, [
        np.sin(m * np.pi * x / L) for m, x, L in zip(mode, spec.axes(), spec.lengths)])
    phi = Field(spec, vals)
    return phi * (1.0 / quadrature(spec, phi, "l2_norm"))


def eigenpairs(spec: DomainSpec, count: int) -> list[Eigenpair]:
    """The count smallest Dirichlet eigenpairs of the domain.

    Interval of length L: lam = (m pi / L)^2 with phi ~ sin(m pi x / L).
    Rectangle a x b: lam = pi^2 (m^2/a^2 + n^2/b^2) with the product of
    sines.  Eigenfunctions are renormalized to unit discrete l2 norm after
    sampling.
    """
    return [
        Eigenpair(rank=i + 1, lam=lam, mode=mode, phi=_sample_mode(spec, mode))
        for i, (lam, mode) in enumerate(eigenvalue_table(spec, count))
    ]


def sandwich_index(spec: DomainSpec, mu: float) -> int:
    """Largest k with lambda_k <= mu, counting multiplicity.

    Raises ValueError when mu <= lambda_1 (no admissible index exists
    there; the sandwich condition needs k >= 2 anyway).
    """
    lam1 = eigenvalue_table(spec, 1)[0][0]
    if mu <= lam1:
        raise ValueError(f"mu = {mu} is not above the first eigenvalue {lam1}")
    count = 8
    while True:
        table = eigenvalue_table(spec, count)
        if table[-1][0] > mu:
            return sum(1 for lam, _ in table if lam <= mu)
        count *= 2
