"""The nonlinearity g, its one-sided and two-sided truncations, and their
antiderivatives.

A Nonlinearity bundles g, g', the roots a- < 0 < a+, the radius delta of
the interval where g(t)/t is pinched between two consecutive Dirichlet
eigenvalues, the claimed index k of the lower eigenvalue, and optionally a
closed-form primitive G(t) = int_0^t g.  g, g' and G must be vectorized.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .grid import DomainSpec, _symbol
from .spectrum import eigenvalue_table, sandwich_index

_GL_ORDER = 12
_gl_x, _gl_w = np.polynomial.legendre.leggauss(_GL_ORDER)
_gl_x = 0.5 * (_gl_x + 1.0)  # nodes on [0, 1]
_gl_w = 0.5 * _gl_w
_leggauss = functools.cache(np.polynomial.legendre.leggauss)  # one rule per node count
_MAX_PANELS = 1024
_SAMPLE_COUNT = 4001
VALIDATE_SAMPLES = 512  # sandwich samples in validate_condition_g
MIN_VALIDATE_SAMPLES = 100


class TruncationMode(enum.Enum):
    """Which part of g survives: [0, a+], [a-, 0], or [a-, a+]."""

    PLUS = "plus"
    MINUS = "minus"
    FULL = "full"


@dataclass(eq=False)
class Nonlinearity:
    g: Callable[[np.ndarray], np.ndarray]
    gprime: Callable[[np.ndarray], np.ndarray]
    a_minus: float
    a_plus: float
    delta: float
    k: int
    primitive: Callable[[np.ndarray], np.ndarray] | None = None
    degree: int | None = None  # of g, when g is a polynomial
    # max(1, sup |g|) over [a_minus, a_plus], sampled once at construction
    scale: float = dc_field(init=False)

    def __post_init__(self):
        if not (-np.inf < self.a_minus < 0.0 < self.a_plus < np.inf):
            raise ValueError("roots must be finite with a_minus < 0 < a_plus")
        if not (0.0 < self.delta < np.inf):
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if int(self.k) != self.k or self.k < 1:
            raise ValueError("k must be a positive integer")
        self.k = int(self.k)
        if self.degree is not None and (isinstance(self.degree, bool) or self.degree < 0
                                        or not float(self.degree).is_integer()):
            raise ValueError(f"degree must be None or an integer >= 0, got {self.degree!r}")
        ts = np.linspace(self.a_minus, self.a_plus, _SAMPLE_COUNT)
        self.scale = max(1.0, float(np.max(np.abs(self.g(ts)))))

    def support(self, mode: TruncationMode) -> tuple[float, float]:
        if mode is TruncationMode.PLUS:
            return 0.0, self.a_plus
        if mode is TruncationMode.MINUS:
            return self.a_minus, 0.0
        return self.a_minus, self.a_plus


def truncate(nl: Nonlinearity, mode: TruncationMode, t):
    """g(t) inside the mode's support interval, zero outside."""
    arr = np.asarray(t, dtype=float)
    lo, hi = nl.support(mode)
    out = np.where((arr >= lo) & (arr <= hi), nl.g(arr), 0.0)
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def _gauss_integrate(g, a, b, tol):
    """Vectorized integral of g over each [a_i, b_i] by panel-doubled Gauss-Legendre.

    Doubles the panel count until successive values agree within tol
    elementwise, or within 4 ulps where tol is below rounding; exact from
    the first comparison for polynomial g.
    """
    span = b - a
    prev = None
    panels = 1
    while True:
        offs = ((np.arange(panels)[:, None] + _gl_x[None, :]) / panels).ravel()
        sig = a[:, None] + span[:, None] * offs[None, :]
        vals = np.asarray(g(sig)).reshape(len(a), panels, _GL_ORDER)
        cur = span / panels * (vals @ _gl_w).sum(axis=1)
        if panels >= _MAX_PANELS or (prev is not None and np.all(
                np.abs(cur - prev) <= np.maximum(tol, 4.0 * np.spacing(np.abs(cur))))):
            return cur
        prev = cur
        panels *= 2


def antiderivative(nl: Nonlinearity, mode: TruncationMode, t):
    """Integral of the truncated g from 0 to t.

    Constant beyond the support (the truncation vanishes there).  The
    closed-form primitive when nl has one, else adaptive Gauss-Legendre
    quadrature with absolute tolerance
    1e-12 * max(1, |t|) * scale per entry.
    """
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    lo, hi = nl.support(mode)
    upper = np.clip(arr, lo, hi)  # integrand vanishes beyond the support
    if nl.primitive is not None:
        out = nl.primitive(upper)
    else:
        tol = 1e-12 * np.maximum(1.0, np.abs(arr)) * nl.scale
        out = _gauss_integrate(nl.g, np.zeros_like(upper), upper, tol)
    return float(out[0]) if np.isscalar(t) or np.asarray(t).ndim == 0 else out


def truncation_increments(nl: Nonlinearity, mode: TruncationMode,
                          u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Per-node integral over [u_i, u_i + s_i] of (trunc(sigma) - trunc(u_i)).

    This is the second-order remainder of the nonlinear energy term under
    the step s.  Computing it directly keeps line-search energy increments
    accurate relative to the increment itself rather than to the total
    energy, which matters near convergence.  A g of declared degree d takes
    one pass of the ceil((d + 1) / 2)-node Gauss rule, exact for degree d.
    """
    lo, hi = nl.support(mode)
    a = np.clip(u, lo, hi)
    b = np.clip(u + s, lo, hi)
    gu = truncate(nl, mode, u)
    if nl.degree is None:
        tol = 1e-13 * np.maximum(np.abs(gu * s), 1.0) + 1e-300
        return _gauss_integrate(nl.g, a, b, tol) - gu * s
    x, w = _leggauss(int(nl.degree) // 2 + 1)
    span = b - a
    nodes = span[:, None] * (0.5 * (x + 1.0))
    nodes += a[:, None]
    return 0.5 * span * (nl.g(nodes) @ w) - gu * s


@dataclass
class CheckFailure:
    check: str
    detail: str
    witness: float | None = None


@dataclass
class ConditionGReport:
    """Outcome of the eigenvalue-sandwich validation; failures are data."""

    ok: bool
    k_claimed: int
    k_computed: int
    lambda_k: float
    lambda_k1: float
    failures: list[CheckFailure]


def index_at_zero(spec: DomainSpec, gprime0: float) -> int:
    """Morse index of the origin: the stencil eigenvalues at or below g'(0)."""
    return int(np.count_nonzero(_symbol(spec) <= gprime0))


def validate_condition_g(nl: Nonlinearity, spec: DomainSpec,
                         samples: int = VALIDATE_SAMPLES) -> ConditionGReport:
    """Check the hypotheses on g against the domain's spectrum.

    Samples t uniformly in (-delta, delta), excluding |t| < 1e-8, and
    requires lambda_k - 1e-9 <= g(t)/t <= lambda_{k+1} + 1e-9 for the
    continuum eigenvalues.  Also checks that g vanishes at both roots, that
    k >= 2, and that the claimed k is the index at zero: the number of
    eigenvalues of the solved stencil at or below g'(0).  Those lie below
    their continuum counterparts, so the count can exceed the continuum
    one on a coarse grid.  Failures are reported, not raised, so near-miss
    inputs can still be run.
    """
    if samples < MIN_VALIDATE_SAMPLES:
        raise ValueError(f"need at least {MIN_VALIDATE_SAMPLES} sample points")
    failures: list[CheckFailure] = []

    root_tol = 1e-12 * nl.scale
    for name, root in (("a_minus", nl.a_minus), ("a_plus", nl.a_plus)):
        g_root = float(nl.g(np.asarray(root)))
        if abs(g_root) > root_tol:
            failures.append(CheckFailure(
                "root", f"|g({name})| = {abs(g_root):.3e} exceeds {root_tol:.3e}",
                witness=root))

    if nl.k < 2:
        failures.append(CheckFailure("k_min", "k >= 2 required", witness=float(nl.k)))

    gp0 = float(nl.gprime(np.asarray(0.0)))
    k_computed = index_at_zero(spec, gp0)
    if k_computed == 0:
        failures.append(CheckFailure(
            "gprime0", f"g'(0) = {gp0:.6g} is below the first stencil eigenvalue",
            witness=gp0))
    elif k_computed != nl.k:
        failures.append(CheckFailure(
            "index", f"claimed k = {nl.k} but g'(0) = {gp0:.6g} gives k = {k_computed}",
            witness=gp0))

    table = eigenvalue_table(spec, nl.k + 1)
    lam_k, lam_k1 = table[nl.k - 1][0], table[nl.k][0]
    ts = np.linspace(-nl.delta, nl.delta, samples)
    ts = ts[np.abs(ts) >= 1e-8]
    quot = nl.g(ts) / ts
    if np.any(quot < lam_k - 1e-9):
        i = int(np.argmin(quot))
        failures.append(CheckFailure(
            "sandwich_lower",
            f"g(t)/t = {quot[i]:.6g} < lambda_{nl.k} = {lam_k:.6g}",
            witness=float(ts[i])))
    if np.any(quot > lam_k1 + 1e-9):
        i = int(np.argmax(quot))
        failures.append(CheckFailure(
            "sandwich_upper",
            f"g(t)/t = {quot[i]:.6g} > lambda_{nl.k + 1} = {lam_k1:.6g}",
            witness=float(ts[i])))

    return ConditionGReport(
        ok=not failures,
        k_claimed=nl.k,
        k_computed=k_computed,
        lambda_k=lam_k,
        lambda_k1=lam_k1,
        failures=failures,
    )


def _bisect(fn, lo, hi, tol=1e-12):
    """Simple bisection for a sign change of fn on [lo, hi]."""
    flo = fn(lo)
    if flo == 0.0:
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if (flo > 0) == (fmid > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def preset_corollary(spec: DomainSpec, lambda_val: float,
                     f: Callable, fprime: Callable) -> Nonlinearity:
    """Build g(t) = lambda * t - f(t) for an f that is sublinear at zero and
    superlinear at infinity.

    Roots are found by doubling a bracket until g changes sign and then
    bisecting; delta is grown from 1e-3 while the eigenvalue sandwich holds
    on sample points.  lambda_val must exceed the second eigenvalue of the
    domain and must not collide with any eigenvalue (within 1e-9).
    """
    k = sandwich_index(spec, lambda_val)
    table = eigenvalue_table(spec, k + 1)
    if k < 2:
        raise ValueError(
            f"lambda = {lambda_val} must exceed the second eigenvalue {table[1][0]:.6g}")
    # an eigenvalue within tolerance of lambda is at most lambda_{k+1}
    for lam_n, mode in table:
        if abs(lambda_val - lam_n) <= 1e-9 * max(1.0, lam_n):
            raise ValueError(
                f"eigenvalue collision: lambda = {lambda_val} matches the "
                f"eigenvalue {lam_n:.9g} of mode {mode}")

    def g(t):
        return lambda_val * t - f(t)

    def gprime(t):
        return lambda_val - fprime(t)

    def find_root(sign):
        scalar_g = lambda t: float(g(np.asarray(t)))
        T = 1.0
        while scalar_g(sign * T) * sign > 0.0:
            T *= 2.0
            if T > 1e9:
                raise RuntimeError(
                    "no sign change of g below |t| = 1e9; "
                    "f does not look superlinear")
        return sign * _bisect(lambda t: scalar_g(sign * t), T / 2.0 if T > 1.0 else 1e-12, T)

    a_plus = find_root(+1.0)
    a_minus = find_root(-1.0)

    lam_k, lam_k1 = table[k - 1][0], table[k][0]

    def sandwich_holds(delta):
        ts = np.linspace(-delta, delta, 257)
        ts = ts[np.abs(ts) >= 1e-8]
        quot = g(ts) / ts
        return bool(np.all(quot >= lam_k - 1e-9) and np.all(quot <= lam_k1 + 1e-9))

    delta = 1e-3
    while sandwich_holds(2.0 * delta) and delta < 1e6:
        delta *= 2.0

    return Nonlinearity(g=g, gprime=gprime, a_minus=a_minus, a_plus=a_plus,
                        delta=delta, k=k)
