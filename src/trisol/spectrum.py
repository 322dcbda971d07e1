"""Closed-form Dirichlet Laplacian spectrum of the interval and rectangle.

Mode m of an axis of length L has the eigenvalue (m pi / L)^2, and axes
add.  Listing and counting enumerate the modes up to a bound once, at most
MAX_MODES of them; eigenvalues are listed ascending *with multiplicity*,
equal values in mode-tuple order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import DomainSpec, Field, quadrature

MIN_EIGEN_COUNT = 1
MAX_MODES = 10 ** 6  # per enumeration; a listing that long takes about 300 MB


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


def _axis_values(L: float, modes) -> list[float]:
    """(m pi / L)^2 per mode m, by Python's ** 2: numpy's rounds some differently."""
    try:
        return [(m * math.pi / L) ** 2 for m in modes]
    except OverflowError:
        raise ValueError(f"side length {L:g} is too short: its eigenvalues overflow") from None


def _enumerate(spec: DomainSpec, mu: float) -> np.ndarray:
    """Eigenvalues of the modes up to int(L sqrt(mu) / pi) + 1 per axis, indexed by mode - 1."""
    extents = [L * math.sqrt(mu) / math.pi for L in spec.lengths]
    if (size := math.prod(e + 1 for e in extents)) > MAX_MODES:
        # x = sqrt(limit) solves prod(L x / pi + 1) = q x^2 + s x + 1 = MAX_MODES
        s = sum(spec.lengths) / math.pi
        q = math.prod(spec.lengths) / math.pi ** 2 if spec.ndim == 2 else 0.0
        limit = (2 * (MAX_MODES - 1) / (s + math.sqrt(s * s + 4 * q * (MAX_MODES - 1)))) ** 2
        raise ValueError(f"the Dirichlet modes up to {mu:.6g} fill about {size:.3g} entries, "
                         f"more than {MAX_MODES}; on this domain they fit up to about {limit:.4g}")
    return functools.reduce(np.add.outer, [
        np.array(_axis_values(L, range(1, int(e) + 2))) for e, L in zip(extents, spec.lengths)])


def eigenvalue_table(spec: DomainSpec, count: int) -> list[tuple[float, tuple[int, ...]]]:
    """The count smallest (eigenvalue, mode) pairs, sorted with multiplicity."""
    if not MIN_EIGEN_COUNT <= count <= MAX_MODES:
        raise ValueError(f"count must be at least {MIN_EIGEN_COUNT} and at most {MAX_MODES}")
    # E = {x: sum (pi x_i / L_i)^2 <= mu} is convex and holds the point of ones
    # scaled by 1 / r, r = sqrt(lambda_1 / mu), so every y >= 0 in (1 - r) E has
    # y + 1 in E and the mode ceil(y) at or below mu: at least vol((1 - r) E) / 2^d
    # modes lie at or below mu, and mu is where that reaches count
    firsts, d = [_axis_values(L, [1])[0] for L in spec.lengths], spec.ndim
    ball = math.pi ** (d / 2) / math.gamma(d / 2 + 1)  # the unit d-ball's volume
    root = math.sqrt(sum(firsts)) + (
        count * 2 ** d * math.prod(map(math.sqrt, firsts)) / ball) ** (1 / d)
    mu = root * root
    while np.count_nonzero((values := _enumerate(spec, mu)) <= mu) < count:
        mu *= 1.01  # only if rounding puts a mode of the bound above mu
    first = np.argsort(values, axis=None, kind="stable")[:count]
    modes = np.transpose(np.unravel_index(first, values.shape)) + 1
    return list(zip(values.ravel()[first].tolist(), map(tuple, modes.tolist())))


def _sample_mode(spec: DomainSpec, mode: tuple[int, ...]) -> Field:
    vals = functools.reduce(np.multiply.outer, [
        np.sin(m * np.pi * x / L) for m, x, L in zip(mode, spec.axes(), spec.lengths)])
    phi = Field(spec, vals)
    return phi * (1.0 / quadrature(spec, phi, "l2_norm"))


def eigenpairs(spec: DomainSpec, count: int) -> list[Eigenpair]:
    """The count smallest Dirichlet eigenpairs: phi is the product over the
    axes of sin(m pi x / L), renormalized to unit discrete l2 norm."""
    return [
        Eigenpair(rank=i + 1, lam=lam, mode=mode, phi=_sample_mode(spec, mode))
        for i, (lam, mode) in enumerate(eigenvalue_table(spec, count))
    ]


def sandwich_index(spec: DomainSpec, mu: float) -> int:
    """Largest k with lambda_k <= mu, counting multiplicity.

    Raises ValueError unless lambda_1 < mu < inf (no admissible index
    exists below; the sandwich condition needs k >= 2 anyway) and the
    modes up to mu fit in MAX_MODES.
    """
    lam1 = sum(_axis_values(L, [1])[0] for L in spec.lengths)
    if not (lam1 < mu < math.inf):
        raise ValueError(f"mu = {mu} is not finite and above the first eigenvalue {lam1}")
    return int(np.count_nonzero(_enumerate(spec, mu) <= mu))
