"""Coercive minimization of the one-sided truncated energies.

The descent direction is the negative preconditioned gradient (a Poisson
solve per step), with Armijo backtracking evaluated through the energy
increment rather than the energy itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analysis import Classification, CriticalPoint
from .energy import EnergyModel
from .grid import Field, inner_product_values, quadrature
from .nonlinearity import TruncationMode
from .spectrum import Eigenpair

STEP_UNDERFLOW = 1e-16
ARMIJO_C = 1e-4     # sufficient-decrease constant of every Armijo test
INITIAL_STEP = 1.0  # first trial step of every line search


@dataclass(kw_only=True)
class DescentOptions:
    """Line-search settings, shared with the path search's MPOptions."""

    max_iters: int = 5000
    grad_tol: float = 1e-8          # on sup |grad_residual|, times scale
    backtrack_factor: float = 0.5
    callback: Callable[[dict], None] | None = None

    def __post_init__(self):
        if not (0.0 < self.backtrack_factor < 1.0):
            raise ValueError("backtrack_factor must lie in (0, 1)")
        if not (self.max_iters >= 1 and 0.0 < self.grad_tol < np.inf):
            raise ValueError("max_iters and grad_tol must be positive and finite")


def initial_guess(model: EnergyModel, phi1: Eigenpair) -> Field:
    """A small multiple of the first eigenfunction, scaled into (0, delta).

    Uses s = 0.5 delta / sup |phi_1|, negated in minus mode.  Raises when
    the resulting energy is not negative: with the eigenvalue sandwich in
    force (k >= 2) this direction must descend, so a nonnegative energy
    signals invalid input data.
    """
    if model.mode not in (TruncationMode.PLUS, TruncationMode.MINUS):
        raise ValueError("initial guesses are for the one-sided truncations")
    if phi1.rank != 1:
        raise ValueError("expected the rank-1 eigenpair")
    s = 0.5 * model.nl.delta / quadrature(model.domain, phi1.phi, "sup_norm")
    guess = phi1.phi * (s if model.mode is TruncationMode.PLUS else -s)
    if model.phi(guess) >= 0.0:
        raise ValueError(
            "energy of the scaled eigenfunction is not negative; "
            "the eigenvalue sandwich does not hold with k >= 2")
    return guess


def _armijo_step(model: EnergyModel, values, residual, direction, slope, opts):
    """Largest accepted step along direction, or None on underflow."""
    step = INITIAL_STEP
    while step >= STEP_UNDERFLOW:
        decrease = model.phi_increment(values, residual, step * direction)
        if decrease <= ARMIJO_C * step * slope:
            return step, decrease
        step *= opts.backtrack_factor
    return None, None


def minimize(model: EnergyModel, u0: Field,
             opts: DescentOptions | None = None) -> CriticalPoint:
    """Preconditioned descent from u0 until the residual passes tolerance.

    Terminates when sup |grad_residual| <= grad_tol * scale; the energy is
    nonincreasing along the iteration, so the result never exceeds phi(u0).
    Hitting the iteration cap or a line-search underflow returns the best
    iterate flagged as non-converged instead of raising.
    """
    if model.mode not in (TruncationMode.PLUS, TruncationMode.MINUS):
        raise ValueError("minimize applies to the one-sided truncations")
    opts = opts or DescentOptions()
    classification = (Classification.POSITIVE_MIN
                      if model.mode is TruncationMode.PLUS
                      else Classification.NEGATIVE_MIN)
    u = u0.values.copy()
    tol = opts.grad_tol * model.nl.scale
    converged = False
    last_step: dict = {}
    it = 0
    for it in range(opts.max_iters + 1):
        residual = model.residual_values(u)
        res_sup = float(np.max(np.abs(residual)))
        if opts.callback is not None:
            opts.callback({"iteration": it, "residual": res_sup,
                           "values": u.copy(), **last_step})
        if res_sup <= tol:
            converged = True
            break
        if it == opts.max_iters:
            break
        direction = -model.preconditioned_values(u)
        slope = inner_product_values(model.domain, residual, direction)
        step, decrease = _armijo_step(model, u, residual, direction, slope, opts)
        if step is None:
            break
        last_step = {"step": step, "slope": slope, "decrease": decrease}
        u = u + step * direction
    return CriticalPoint(u=Field(model.domain, u), energy=model.phi_values(u),
                         residual=res_sup, classification=classification,
                         converged=converged, iterations=it)
