"""End-to-end solve: validate the nonlinearity, minimize both one-sided
energies, run the path search between the minimizers, and assemble the
report."""

from __future__ import annotations

from .analysis import SolveReport, assemble_report
from .descent import DescentOptions, initial_guess, minimize
from .energy import EnergyModel
from .grid import DomainSpec
from .mountainpass import MPOptions, find_mountain_pass
from .nonlinearity import (VALIDATE_SAMPLES, Nonlinearity, TruncationMode,
                           validate_condition_g)
from .spectrum import eigenpairs


def run_pipeline(spec: DomainSpec, nl: Nonlinearity, *,
                 descent_opts: DescentOptions | None = None,
                 mp_opts: MPOptions | None = None,
                 validate_samples: int = VALIDATE_SAMPLES,
                 morse_tol: float | None = None,
                 preset: str | None = None) -> SolveReport:
    """Compute the three nontrivial solutions and check every claim.

    Solver failures along the way (non-negative starting energy, path
    collapse) raise; a completed run with failed checks is returned with
    the failing flags set instead.
    """
    condition_g = validate_condition_g(nl, spec, validate_samples)
    phi1 = eigenpairs(spec, 1)[0]

    plus_model = EnergyModel(spec, nl, TruncationMode.PLUS)
    minus_model = EnergyModel(spec, nl, TruncationMode.MINUS)
    full_model = EnergyModel(spec, nl, TruncationMode.FULL)

    plus = minimize(plus_model, initial_guess(plus_model, phi1), descent_opts)
    minus = minimize(minus_model, initial_guess(minus_model, phi1), descent_opts)
    star = find_mountain_pass(full_model, minus, plus, mp_opts)

    return assemble_report(full_model, condition_g, minus, plus, star,
                           morse_tol=morse_tol, preset=preset)
