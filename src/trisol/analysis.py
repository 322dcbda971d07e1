"""Checks on computed critical points: bounds, positivity, distinctness,
and Morse indices of the linearized operator -lap - g'(u), counted exactly
by Sylvester's law of inertia rather than by computing eigenvalues.

The Morse index stands in for the homological data attached to each
critical point: for a nondegenerate point the index determines it, so an
index inequality between the saddle and the origin is the computable form
of the multiplicity argument.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .energy import EnergyModel
from .grid import DomainSpec, Field, count_below, neg_laplacian_values
from .nonlinearity import ConditionGReport, TruncationMode

_BOUNDS_TOL = 1e-9         # slack on [a-, a+]
_DISTINCT_TOL = 1e-3       # least sup distance between points, times the amplitude
_NONTRIVIAL_TOL = 1e-3     # least sup norm of a nontrivial point
_CLASSICAL_TOL = 1e-12     # sup gap between the original and the truncated residual


class Classification(str, enum.Enum):
    POSITIVE_MIN = "PositiveMin"
    NEGATIVE_MIN = "NegativeMin"
    MOUNTAIN_PASS = "MountainPass"
    TRIVIAL = "Trivial"


@dataclass(eq=False)
class CriticalPoint:
    """A converged (or best-effort) critical point with its diagnostics."""

    u: Field
    energy: float
    residual: float
    classification: Classification
    converged: bool
    iterations: int = 0
    morse_index: int | None = None
    morse_degenerate: bool = False
    bounds_ok: bool | None = None


@dataclass
class BoundsCheck:
    ok: bool
    worst_violation: float
    node_index: int | None


@dataclass
class PositivityProfile:
    strictly_positive_interior: bool
    min_boundary_slope: float


@dataclass
class MorseIndexResult:
    """Count of negative eigenvalues of -lap - g'(u), with degeneracy flag."""

    index: int
    degenerate: bool


def check_bounds(u: Field, a_minus: float, a_plus: float, tol: float) -> BoundsCheck:
    """True iff every node value lies in [a_minus - tol, a_plus + tol]."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    viol = np.maximum(u.values - a_plus, a_minus - u.values)
    worst = float(np.max(viol))
    if worst <= tol:
        return BoundsCheck(ok=True, worst_violation=max(worst, 0.0), node_index=None)
    return BoundsCheck(ok=False, worst_violation=worst,
                       node_index=int(np.argmax(viol)))


def positivity_profile(u: Field) -> PositivityProfile:
    """Interior positivity plus the one-sided slope at the boundary.

    The slope at a boundary-adjacent node is its value over the spacing of
    the axis it touches (the boundary value is zero), and the reported
    number is the minimum over all boundary-adjacent nodes.
    """
    v = u.reshaped()
    slope = min(float(np.min(np.moveaxis(v, axis, 0)[end])) / h
                for axis, h in enumerate(u.domain.spacings) for end in (0, -1))
    return PositivityProfile(strictly_positive_interior=bool(np.all(v > 0.0)),
                             min_boundary_slope=slope)


def check_morse_tol(tol: float | None) -> None:
    """Reject a tol that is not finite and positive (None: the default)."""
    if tol is not None and not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")


def morse_index(model: EnergyModel, fields: list[Field],
                tol: float | None = None) -> list[MorseIndexResult]:
    """Morse index of each field: the eigenvalues of the linearization
    -lap - g'(u) below -tol.

    The eigenvalues below -tol and below +tol are counted exactly, by
    inertia, for all fields in one pass; a point is degenerate iff the two
    counts differ, that is iff an eigenvalue lies in [-tol, tol).
    """
    check_morse_tol(tol)
    if tol is None:
        tol = 1e-6 * model.nl.scale
    weights = np.stack([np.broadcast_to(model.nl.gprime(u.values), u.values.shape)
                        for u in fields])
    counts = count_below(model.domain, weights, np.array([-tol, tol]))
    return [MorseIndexResult(index=int(below), degenerate=bool(below != within))
            for below, within in counts]


@dataclass
class SolveReport:
    """Everything the pipeline asserts about one run, re-checkable from the
    stored fields."""

    domain: DomainSpec
    condition_g: ConditionGReport
    trivial: CriticalPoint
    minus: CriticalPoint
    plus: CriticalPoint
    star: CriticalPoint
    flags: dict[str, bool]
    morse_comparison: str  # "ok" | "failed" | "inconclusive" | "refused"
    preset: str | None = None
    notes: list[str] = dc_field(default_factory=list)

    @property
    def points(self) -> list[CriticalPoint]:
        return [self.minus, self.plus, self.star, self.trivial]

    @property
    def all_ok(self) -> bool:
        return all(self.flags.values())

    def to_dict(self) -> dict:
        return {
            "preset": self.preset,
            "grid": self.domain.describe(),
            "condition_g": dataclasses.asdict(self.condition_g),
            "points": [{f.name: getattr(p, f.name) for f in dataclasses.fields(p)
                        if f.name != "u"} for p in self.points],
            "flags": dict(self.flags),
            "morse_comparison": self.morse_comparison,
            "notes": list(self.notes),
        }


def assemble_report(model: EnergyModel, condition_g: ConditionGReport,
                    minus: CriticalPoint, plus: CriticalPoint,
                    star: CriticalPoint, *,
                    morse_tol: float | None = None,
                    preset: str | None = None) -> SolveReport:
    """Run every check on the three candidates plus the zero solution.

    Distinctness asks all pairwise sup distances among the four points to
    exceed 1e-3 times the largest amplitude; the Morse comparison asks
    index(star) == 1 != index(0), since a nondegenerate mountain-pass point has
    index 1 (Hofer 1985), and is refused when k < 2 and marked inconclusive
    when either index is degenerate.  That the index at zero
    matches the claimed k is condition_g's check, not repeated here.
    """
    if model.mode is not TruncationMode.FULL:
        raise ValueError("reports are assembled on the full-truncation model")
    nl = model.nl
    spec = model.domain
    notes: list[str] = []

    trivial = CriticalPoint(
        u=Field.zeros(spec), energy=0.0, residual=0.0,
        classification=Classification.TRIVIAL, converged=True, bounds_ok=True)

    points = (minus, plus, star, trivial)
    for point, result in zip(points, morse_index(model, [p.u for p in points], morse_tol)):
        point.morse_index = result.index
        point.morse_degenerate = result.degenerate

    flags: dict[str, bool] = {}
    flags["condition_g"] = condition_g.ok
    flags["converged"] = minus.converged and plus.converged and star.converged
    notes.extend(f"{p.classification.value}: not converged after {p.iterations} iterations, "
                 f"residual {p.residual:.1e}" for p in (minus, plus, star) if not p.converged)

    bounds_ok = True
    classical_ok = True
    for point in (minus, plus, star):
        bc = check_bounds(point.u, nl.a_minus, nl.a_plus, _BOUNDS_TOL)
        point.bounds_ok = bc.ok
        bounds_ok &= bc.ok
        if not bc.ok:
            notes.append(
                f"{point.classification.value}: bound violation "
                f"{bc.worst_violation:.3e} at node {bc.node_index}")
        # inside the root interval the truncation is inactive, so the
        # residual of the original equation coincides with the solved one
        plain = neg_laplacian_values(spec, point.u.values) - nl.g(point.u.values)
        solved = model.residual_values(point.u.values)
        classical_ok &= bool(np.max(np.abs(plain - solved)) <= _CLASSICAL_TOL)
    flags["bounds"] = bool(bounds_ok)
    flags["classical_equivalence"] = bool(classical_ok)

    flags["positivity"] = all(
        p.strictly_positive_interior and p.min_boundary_slope > 0.0
        for p in (positivity_profile(plus.u), positivity_profile(-minus.u)))

    fields = [trivial.u.values, minus.u.values, plus.u.values, star.u.values]
    amplitude = max(float(np.max(np.abs(v))) for v in fields)
    flags["distinctness"] = not any(
        np.max(np.abs(a - b)) <= _DISTINCT_TOL * amplitude
        for a, b in itertools.combinations(fields, 2))
    flags["nontriviality"] = bool(all(
        np.max(np.abs(p.u.values)) > _NONTRIVIAL_TOL for p in (minus, plus, star)))

    if nl.k < 2:
        morse_comparison = "refused"
        notes.append("Morse comparison refused: requires k >= 2")
    elif star.morse_degenerate or trivial.morse_degenerate:
        morse_comparison = "inconclusive"
        notes.append("Morse comparison inconclusive: degenerate eigenvalue "
                     "within tolerance of zero")
    elif star.morse_index == 1 != trivial.morse_index:
        morse_comparison = "ok"
    else:
        morse_comparison = "failed"
        notes.append(f"Morse comparison failed: u* has index {star.morse_index}, the "
                     f"origin {trivial.morse_index}; a mountain-pass point has index 1")
    flags["morse_comparison"] = morse_comparison == "ok"

    return SolveReport(domain=spec, condition_g=condition_g, trivial=trivial,
                       minus=minus, plus=plus, star=star, flags=flags,
                       morse_comparison=morse_comparison, preset=preset,
                       notes=notes)
