"""Variational computation of three nontrivial solutions of the semilinear
Dirichlet problem -lap u = g(u) on an interval or rectangle.

The workflow: truncate g to make the energy coercive, minimize the
one-sided truncations to get a positive and a negative solution, run a
path-based search between them for a third (mountain-pass) solution, and
verify bounds, positivity, distinctness, and Morse indices.
"""

__version__ = "0.1.0"

from .analysis import (BoundsCheck, Classification, CriticalPoint,
                       MorseIndexResult, PositivityProfile, SolveReport,
                       assemble_report, check_bounds, morse_index,
                       positivity_profile)
from .descent import DescentOptions, initial_guess, minimize
from .energy import EnergyModel
from .grid import (DomainMismatchError, DomainSpec, Field, apply_neg_laplacian,
                   inner_product, quadrature, solve_poisson)
from .mountainpass import MPOptions, PathCollapseError, find_mountain_pass
from .nonlinearity import (ConditionGReport, Nonlinearity, TruncationMode,
                           antiderivative, preset_corollary, truncate,
                           validate_condition_g)
from .oracle import ShotResult, find_branch, shoot, sign_change_brackets, sweep
from .pipeline import run_pipeline
from .presets import build_preset, cubic_nonlinearity
from .spectrum import Eigenpair, eigenpairs, sandwich_index

__all__ = [
    "BoundsCheck", "Classification", "ConditionGReport", "CriticalPoint",
    "DescentOptions", "DomainMismatchError", "DomainSpec", "Eigenpair",
    "EnergyModel", "Field", "MorseIndexResult", "MPOptions",
    "Nonlinearity", "PathCollapseError", "PositivityProfile",
    "ShotResult", "SolveReport", "TruncationMode",
    "antiderivative", "apply_neg_laplacian", "assemble_report",
    "build_preset", "check_bounds", "cubic_nonlinearity", "eigenpairs",
    "find_branch", "find_mountain_pass", "initial_guess", "inner_product",
    "minimize", "morse_index", "positivity_profile", "preset_corollary",
    "quadrature", "run_pipeline", "sandwich_index", "shoot",
    "sign_change_brackets", "solve_poisson", "sweep", "truncate",
    "validate_condition_g",
]
