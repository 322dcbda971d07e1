"""Uniform Dirichlet grids on an interval or rectangle.

Fields store interior node values only; the homogeneous Dirichlet boundary
is implicit.  The negative Laplacian is the standard 3-point (1D) or
5-point (2D) second-order stencil, and quadrature is composite midpoint with
weight h^d per interior node.  DST-I diagonalizes the stencil exactly, so
Poisson solves are direct (Buzbee, Golub & Nielson 1970).
Eigenvalues of the stencil minus a diagonal are counted, not computed: by
the symbol where the diagonal is constant, by block inertia otherwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

QUADRATURE_KINDS = ("integral", "l2_norm", "sup_norm", "h1_seminorm")
ROW_BLOCK = 2 ** 14  # float64 values per row block: 128 KiB, glibc's default mmap threshold
PIVOT_NODES = 32  # nodes per inertia-count pivot block, in whole grid lines: fewer LAPACK calls


class DomainMismatchError(ValueError):
    """A field was used with a domain it does not belong to."""


@dataclass(frozen=True)
class DomainSpec:
    """An interval (0, L) or rectangle (0, W) x (0, H) with a uniform grid.

    Parameters
    ----------
    lengths : tuple of float
        Side lengths, one per axis.
    counts : tuple of int
        Interior node count per axis; spacing is length / (count + 1).
    """

    lengths: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.lengths) not in (1, 2) or len(self.lengths) != len(self.counts):
            raise ValueError("domain must be a 1D interval or 2D rectangle")
        if not all(0 < L < math.inf for L in self.lengths):
            raise ValueError(f"all side lengths must be positive and finite, got {self.lengths}")
        if any(int(n) != n or n < 3 for n in self.counts):
            raise ValueError("interior counts must be integers >= 3")
        object.__setattr__(self, "lengths", tuple(float(L) for L in self.lengths))
        object.__setattr__(self, "counts", tuple(int(n) for n in self.counts))

    @classmethod
    def interval(cls, length: float, n: int) -> "DomainSpec":
        return cls((length,), (n,))

    @classmethod
    def rectangle(cls, width: float, height: float, nx: int, ny: int) -> "DomainSpec":
        return cls((width, height), (nx, ny))

    @property
    def ndim(self) -> int:
        return len(self.lengths)

    @functools.cached_property
    def spacings(self) -> tuple[float, ...]:
        return tuple(L / (n + 1) for L, n in zip(self.lengths, self.counts))

    @functools.cached_property
    def size(self) -> int:
        return int(np.prod(self.counts))

    @functools.cached_property
    def cell_volume(self) -> float:
        """Quadrature weight h^d of one interior node."""
        return float(np.prod(self.spacings))

    def axes(self) -> tuple[np.ndarray, ...]:
        """Interior node coordinates along each axis."""
        return tuple(
            np.linspace(h, L - h, n)
            for L, n, h in zip(self.lengths, self.counts, self.spacings)
        )

    def describe(self) -> dict:
        kind = "interval" if self.ndim == 1 else "rectangle"
        return {
            "kind": kind,
            "lengths": list(self.lengths),
            "counts": list(self.counts),
            "spacings": list(self.spacings),
        }


@dataclass(frozen=True, eq=False)
class Field:
    """Real values on the interior nodes of a domain, row-major in 2D.

    Boundary values are identically zero and never stored.  Treat instances
    as immutable; arithmetic returns new fields.
    """

    domain: DomainSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel()
        if vals.size != self.domain.size:
            raise ValueError(
                f"expected {self.domain.size} interior values, got {vals.size}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must all be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, domain: DomainSpec) -> "Field":
        return cls(domain, np.zeros(domain.size))

    @classmethod
    def from_callable(cls, domain: DomainSpec, fn: Callable) -> "Field":
        """Sample fn(x) or fn(x, y) on the interior nodes."""
        return cls(domain, fn(*np.meshgrid(*domain.axes(), indexing="ij")))

    def reshaped(self) -> np.ndarray:
        """Values arranged on the grid, shape = interior counts."""
        return self.values.reshape(self.domain.counts)

    def __add__(self, other: "Field") -> "Field":
        _check_same_domain(self.domain, other)
        return Field(self.domain, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        _check_same_domain(self.domain, other)
        return Field(self.domain, self.values - other.values)

    def __mul__(self, c: float) -> "Field":
        return Field(self.domain, self.values * float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return Field(self.domain, -self.values)


def _check_same_domain(domain: DomainSpec, u: Field) -> None:
    if u.domain != domain:
        raise DomainMismatchError(
            f"field domain {u.domain} does not match {domain}"
        )


def neg_laplacian_values(domain: DomainSpec, values: np.ndarray) -> np.ndarray:
    """Stencil application on a raw interior-value array.

    Per axis (2 u_i - u_{i-1} - u_{i+1}) / h^2, with the missing neighbors
    of boundary-adjacent nodes taken as the zero Dirichlet data.  values is
    one field (size,); so is the result.
    """
    v = values.reshape(domain.counts)
    out = None
    for axis, h in enumerate(domain.spacings):
        lo = (slice(None),) * axis + (slice(None, -1),)
        hi = (slice(None),) * axis + (slice(1, None),)
        term = 2.0 * v
        term[hi] -= v[lo]
        term[lo] -= v[hi]
        term /= h * h
        out = term if out is None else np.add(out, term, out=out)
    return out.ravel()


def apply_neg_laplacian(domain: DomainSpec, u: Field) -> Field:
    """The stencil of neg_laplacian_values applied to a field."""
    _check_same_domain(domain, u)
    return Field(domain, neg_laplacian_values(domain, u.values))


def h1_seminorm_sq_values(domain: DomainSpec, values: np.ndarray) -> float | np.ndarray:
    """Squared discrete H1 seminorm, as the sum of squared forward differences.

    Includes the one-sided differences to the zero boundary; by summation by
    parts this equals h^d <u, -lap u> up to rounding.  values is one field
    (size,) or a stack (m, size); the result is a scalar or one per row.
    """
    stack = values.shape[:-1]
    v = values.reshape(stack + domain.counts)
    sums = []
    for axis in range(len(stack), v.ndim):
        pre = (slice(None),) * axis
        shape = list(v.shape)
        shape[axis] += 1
        d = np.empty(shape)     # differences along axis, zero boundary included
        d[pre + (0,)] = v[pre + (0,)]
        np.subtract(v[pre + (slice(1, None),)], v[pre + (slice(None, -1),)],
                    out=d[pre + (slice(1, -1),)])
        d[pre + (-1,)] = -v[pre + (-1,)]
        d *= d
        sums.append(d.reshape(stack + (-1,)).sum(axis=-1))
    if domain.ndim == 1:
        return sums[0] / domain.spacings[0]
    return domain.cell_volume * sum(s / (h * h) for s, h in zip(sums, domain.spacings))


def row_blocks(rows: int, size: int) -> list[slice]:
    """Consecutive slices over range(rows) of at most ROW_BLOCK values (or one row),
    so their temporaries reuse heap memory; whole-stack ones are mapped afresh per call."""
    step = max(1, ROW_BLOCK // size)
    return [slice(i, min(i + step, rows)) for i in range(0, rows, step)]


def quadrature(domain: DomainSpec, u: Field, kind: str) -> float:
    """Discrete integral or norm of a field.

    kind is one of "integral" (h^d sum of values), "l2_norm", "sup_norm",
    or "h1_seminorm".
    """
    _check_same_domain(domain, u)
    vals = u.values
    vol = domain.cell_volume
    if kind == "integral":
        return float(vol * np.sum(vals))
    if kind == "l2_norm":
        return float(np.sqrt(inner_product_values(domain, vals, vals)))
    if kind == "sup_norm":
        return float(np.max(np.abs(vals)))
    if kind == "h1_seminorm":
        return float(np.sqrt(h1_seminorm_sq_values(domain, vals)))
    raise ValueError(f"unknown quadrature kind {kind!r}; expected one of {QUADRATURE_KINDS}")


def inner_product_values(domain: DomainSpec, a: np.ndarray, b: np.ndarray) -> float:
    """h^d <a, b>, summed pairwise by numpy: a BLAS dot's rounding depends on its threads."""
    return domain.cell_volume * float(np.add.reduce(a * b))


def inner_product(domain: DomainSpec, u: Field, v: Field) -> float:
    """Quadrature-weighted pairing h^d <u, v>."""
    _check_same_domain(domain, u)
    _check_same_domain(domain, v)
    return inner_product_values(domain, u.values, v.values)


@functools.lru_cache(maxsize=8)
def _symbol(domain: DomainSpec) -> np.ndarray:
    """Stencil eigenvalues on the DST-I coefficient grid: mode k of an axis
    with n nodes and spacing h gives 4/h^2 sin^2(k pi / 2(n+1)), axes add."""
    lams = [4.0 / (h * h) * np.sin(np.arange(1, n + 1) * np.pi / (2 * (n + 1))) ** 2
            for n, h in zip(domain.counts, domain.spacings)]
    return functools.reduce(np.add.outer, lams)


def index_at_zero(domain: DomainSpec, gprime0: float) -> int:
    """Morse index of the origin: the stencil eigenvalues at or below g'(0)."""
    return int(np.count_nonzero(_symbol(domain) <= gprime0))


class SingularPivotError(RuntimeError):
    """A pivot block of the inertia count is singular to rounding, so the
    count at that shift is not determined."""


def count_below(domain: DomainSpec, weights: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Number of eigenvalues of -lap - diag(w) below each shift, per row w.

    weights is a stack (m, size) and shifts a 1D array (k,), all finite;
    the result is an (m, k) integer array, equal rows counted once.  A
    constant row shifts the stencil's spectrum, which the symbol gives in
    closed form.  Every other row is counted by Sylvester's law of inertia:
    the block LDL^T factorization of -lap - diag(w) - s steps along the
    longer axis (an interval is one node wide) in blocks T_i of as many
    whole grid lines as fit in PIVOT_NODES nodes, at least one, the last
    maybe fewer.  Its pivots D_1 = T_1, D_{i+1} = T_{i+1} - h^-4 E_i, with
    E_i the last line's corner of D_i^{-1} taken off T_{i+1}'s first line,
    have as many negative eigenvalues as -lap - diag(w) - s.  Pivots of n
    nodes that pass a batched Cholesky test of D_i - n eps |D_i|_inf I have
    none negative; otherwise a batched eigvalsh counts them.  Every step
    inverts D_i once.
    """
    for name, finite in (("weight row", np.isfinite(weights).all(axis=1)),
                         ("shift", np.isfinite(shifts))):
        if not finite.all():
            raise ValueError(f"{name} {np.argmin(finite)} of the inertia count is not finite")
    # each row maps to the first row equal to it (-0.0 == 0.0, as counts agree)
    first = [next(j for j in range(i + 1) if np.array_equal(w, weights[j]))
             for i, w in enumerate(weights)]
    keep, rows = np.unique(first, return_inverse=True)
    weights = weights[keep]
    counts = np.empty((len(weights), len(shifts)), dtype=int)
    constant = np.all(weights == weights[:, :1], axis=1)
    symbol = _symbol(domain).ravel()
    for row in np.flatnonzero(constant):
        counts[row] = np.count_nonzero((symbol - weights[row, 0])[:, None] < shifts, axis=0)
    grid = weights[~constant].reshape((-1,) + domain.counts)
    if domain.ndim == 1:
        # an interval is a rectangle one node wide with no coupling across it
        grid, (h, across) = grid[..., None], (domain.spacings[0], math.inf)
    elif domain.counts[1] > domain.counts[0]:
        grid, (across, h) = grid.transpose(0, 2, 1), domain.spacings
    else:
        (h, across) = domain.spacings
    width = grid.shape[2]
    lines, one = max(1, PIVOT_NODES // width), np.eye(width)
    line = ((2.0 * one - np.eye(width, k=1) - np.eye(width, k=-1)) / across ** 2
            + 2.0 / (h * h) * one)
    block = (np.kron(np.eye(lines), line)
             - np.kron(np.eye(lines, k=1) + np.eye(lines, k=-1), one) / (h * h))
    eye = np.eye(len(block))
    # one row per (weight, shift) pair: the diagonal w + s taken off each block
    taken = (grid[:, None] + shifts[:, None, None]).reshape(-1, grid.shape[1] * width)
    negative = np.zeros(len(taken), dtype=int)
    schur = np.zeros((len(taken),) + eye.shape)
    for k, start in enumerate(range(0, taken.shape[1], len(eye))):
        n = min(len(eye), taken.shape[1] - start)
        pivot = block[:n, :n] - schur[:, :n, :n] - taken[:, start:start + n, None] * eye[:n, :n]
        guard = n * np.finfo(float).eps
        tau = guard * np.abs(pivot).sum(axis=2).max(axis=1)
        try:
            np.linalg.cholesky(pivot - tau[:, None, None] * eye[:n, :n])
        except np.linalg.LinAlgError:
            vals = np.linalg.eigvalsh(pivot)
            size = np.abs(vals)
            if np.any(size.min(axis=1) <= guard * size.max(axis=1)):
                raise SingularPivotError(
                    f"pivot block {k} of the inertia count is singular to rounding")
            negative += np.count_nonzero(vals < 0.0, axis=1)
        schur[:, :width, :width] = np.linalg.inv(pivot)[:, -width:, -width:] / h ** 4
    counts[~constant] = negative.reshape(len(grid), len(shifts))
    return counts[rows]


def _dst(a: np.ndarray) -> np.ndarray:
    """Unnormalized DST-I over every axis, X_k = sum_j a_j sin(pi j k / (n+1)).

    Each pass is the real FFT of the odd extension [0, a, 0, -reversed a]
    along the last axis, then a rotation of the axes so the next pass
    takes the next one.  Applying it twice multiplies by (n+1)/2 per axis.
    """
    for _ in range(a.ndim):
        n = a.shape[-1]
        ext = np.zeros(a.shape[:-1] + (2 * n + 2,))
        ext[..., 1:n + 1] = a
        ext[..., n + 2:] = -a[..., ::-1]
        a = (-0.5 * np.fft.rfft(ext)[..., 1:n + 1].imag).transpose(-1, *range(a.ndim - 1))
    return a


def solve_poisson_values(domain: DomainSpec, rhs: np.ndarray) -> np.ndarray:
    """Direct solve of -lap w = rhs on raw arrays, exact up to rounding.

    A sine transform, a division by the symbol, and the inverse transform.
    rhs is one field (size,); so is the result.
    """
    scale = math.prod(2.0 / (n + 1) for n in domain.counts)
    coeffs = _dst(rhs.reshape(domain.counts))
    coeffs *= scale / _symbol(domain)
    return _dst(coeffs).ravel()


def solve_poisson(domain: DomainSpec, rhs: Field) -> Field:
    """Solve -lap w = rhs with zero Dirichlet data."""
    _check_same_domain(domain, rhs)
    return Field(domain, solve_poisson_values(domain, rhs.values))
