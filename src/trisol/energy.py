"""The truncated energy functional and its gradients.

phi(u) = 1/2 |u|_{H1}^2 - integral of the truncation's antiderivative at u.
Its zero-gradient set is the set of discrete solutions; the preconditioned
gradient (inverse stencil applied to the residual) is the direction descent
actually follows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (DomainSpec, Field, _check_same_domain,
                   h1_seminorm_sq_values, inner_product_values,
                   neg_laplacian_values, row_blocks, solve_poisson_values)
from .nonlinearity import (Nonlinearity, TruncationMode, antiderivative,
                           truncate, truncation_increments)


@dataclass(frozen=True, eq=False)
class EnergyModel:
    """A domain, a nonlinearity, and a truncation mode; immutable."""

    domain: DomainSpec
    nl: Nonlinearity
    mode: TruncationMode

    # -- values-level API (arrays in, arrays/floats out) ------------------

    def phi_values(self, values: np.ndarray) -> float:
        return self.phi_rows(values)[0]

    def phi_rows(self, rows: np.ndarray) -> np.ndarray:
        """phi of every row of a (m, size) matrix, vectorized over row blocks."""
        rows = np.atleast_2d(rows)
        out = np.empty(len(rows))
        for b in row_blocks(*rows.shape):
            nonlin = antiderivative(self.nl, self.mode, rows[b].ravel()).reshape(rows[b].shape)
            out[b] = 0.5 * h1_seminorm_sq_values(self.domain, rows[b]) \
                - self.domain.cell_volume * nonlin.sum(axis=1)
        return out

    def residual_values(self, values: np.ndarray) -> np.ndarray:
        return neg_laplacian_values(self.domain, values) \
            - truncate(self.nl, self.mode, values)

    def linearized_residual_values(self, values: np.ndarray, step: np.ndarray) -> np.ndarray:
        """-lap step - g'(values) step, the residual's derivative, g' zero where g is truncated."""
        lo, hi = self.nl.support(self.mode)
        gprime = np.where((values >= lo) & (values <= hi), self.nl.gprime(values), 0.0)
        return neg_laplacian_values(self.domain, step) - gprime * step

    def preconditioned_values(self, values: np.ndarray) -> np.ndarray:
        w = solve_poisson_values(self.domain, truncate(self.nl, self.mode, values))
        return values - w

    def phi_increment(self, values: np.ndarray, residual: np.ndarray,
                      step: np.ndarray) -> float:
        """phi(u + s) - phi(u), evaluated in expansion form.

        h^d <r, s> + 1/2 h^d <A s, s> minus the nonlinear remainder; every
        term scales with the step, so tiny decreases near convergence are
        resolved instead of drowning in the rounding of phi itself.
        """
        spec = self.domain
        quad = (inner_product_values(spec, residual, step)
                + 0.5 * inner_product_values(spec, step, neg_laplacian_values(spec, step)))
        rem = np.sum(truncation_increments(self.nl, self.mode, values, step))
        return float(quad - spec.cell_volume * rem)

    # -- field-level API ---------------------------------------------------

    def phi(self, u: Field) -> float:
        """Energy of a field."""
        _check_same_domain(self.domain, u)
        return self.phi_values(u.values)

    def grad_residual(self, u: Field) -> Field:
        """-lap u minus the truncated nonlinearity, node by node.

        A zero return field characterizes a discrete solution; the pairing
        h^d <grad_residual(u), v> is the directional derivative of phi.
        """
        _check_same_domain(self.domain, u)
        return Field(self.domain, self.residual_values(u.values))

    def grad_preconditioned(self, u: Field) -> Field:
        """u minus the Poisson solve of the truncated nonlinearity.

        Applying the stencil to this field reproduces grad_residual up to
        rounding (the solve is direct), so both gradients vanish together.
        """
        _check_same_domain(self.domain, u)
        return Field(self.domain, self.preconditioned_values(u.values))
