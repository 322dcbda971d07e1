"""Path-based search for the third critical point between the two minimizers.

A discrete path of fields joins the negative and positive minimizers.  Each
iteration moves the maximum-energy interior node by one backtracked step.
A pure descent step would slide it off the ridge, so its step reflects the
along-path component of the preconditioned direction (descend transversally,
climb along the path), stays within the node's stretch of the path and is
accepted on residual decrease, falling back to the descent's Armijo step far
from any saddle, sooner where the residual's slope shows no small step passes.
As in the simplified string method (E, Ren & Vanden-Eijnden 2007), the path
is re-equidistributed by H1 arclength, the maximum pinned, only when the
maximum moves to another node or on every RESPACE_EVERY-th step; otherwise
only the moved node's energy is recomputed.  Path work runs in row blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .analysis import Classification, CriticalPoint
from .descent import DescentOptions, _armijo_step
from .energy import EnergyModel
from .grid import Field, h1_seminorm_sq_values, inner_product_values, row_blocks
from .nonlinearity import TruncationMode
from .spectrum import eigenpairs

RESPACE_EVERY = 4  # every this many steps the path is re-spaced, peak moved or not


class PathCollapseError(RuntimeError):
    """The max-energy node ran into an endpoint: the minimizers are not
    separated by a barrier, so there is no pass between them."""


@dataclass(kw_only=True)
class MPOptions(DescentOptions):
    """DescentOptions plus the path settings, with the same line search."""

    path_count: int = 21            # number of segments, nodes = path_count + 1
    max_iters: int = 20000
    perturbation: float = 0.1       # midpoint bump along phi_2, in units of delta
    collapse_tol: float = 1e-6

    def __post_init__(self):
        super().__post_init__()
        if self.path_count < 8:
            raise ValueError("need at least 8 path segments")
        if not np.isfinite(self.perturbation):
            raise ValueError(f"perturbation must be finite, got {self.perturbation}")
        if not (np.isfinite(self.collapse_tol) and self.collapse_tol > 0):
            raise ValueError(f"collapse_tol must be positive and finite, got {self.collapse_tol}")


def _redistribute(domain, nodes, pin, out):
    """Re-equidistribute by H1 arclength on each side of the pinned node,
    into out, a stack apart from nodes, which is returned."""
    out[...] = nodes
    last = nodes.shape[0] - 1
    seg = np.empty(last)
    for b in row_blocks(last, domain.size):
        seg[b] = np.sqrt(h1_seminorm_sq_values(domain, nodes[b.start + 1:b.stop + 1] - nodes[b]))
    for lo, hi in ((0, pin), (pin, last)):
        if hi - lo < 2:
            continue
        cum = np.concatenate(([0.0], np.cumsum(seg[lo:hi])))
        total = cum[-1]
        if total <= 0.0:
            continue
        targets = np.linspace(0.0, total, hi - lo + 1)[1:-1]
        k = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, hi - lo - 1)
        length = cum[k + 1] - cum[k]
        theta = np.divide(targets - cum[k], length, out=np.zeros_like(targets),
                          where=length > 0)
        for b in row_blocks(len(k), domain.size):
            start, end = nodes[lo + k[b]], nodes[lo + k[b] + 1]
            out[lo + 1 + b.start:lo + 1 + b.stop] = start + theta[b, None] * (end - start)
    return out


def _initial_path(model, u_minus, u_plus, opts):
    spec = model.domain
    phi2 = eigenpairs(spec, 2)[1].phi
    bump = (opts.perturbation * model.nl.delta
            / float(np.max(np.abs(phi2.values)))) * phi2.values
    ts = np.linspace(0.0, 1.0, opts.path_count + 1)
    nodes = (np.outer(1.0 - ts, u_minus.values) + np.outer(ts, u_plus.values)
             + np.outer(np.sin(np.pi * ts), bump))
    return nodes


def _h1_reflection(domain, residual, direction, tangent, tau_sq):
    """direction = -A^{-1} residual reflected across tangent in H1 (h^d <x, A y>)."""
    return direction + (2.0 * inner_product_values(domain, residual, tangent) / tau_sq) * tangent


def _descend_max_node(model, u, residual, opts, tangent):
    """One backtracked step of the max node; returns the new values or None.

    The saddle is a maximum along the path, so a pure descent step slides
    off it.  The move tried first is the preconditioned direction reflected
    across the tangent in H1 (descend transversally, climb along the path),
    accepted when it shrinks the l2 residual; residual decrease alone also
    accepts steps that lift the node far above the path, so the step is
    capped at half the tangent's H1 length, with the direction's H1 norm
    sqrt(-slope).  When no reflected step helps, one plain Armijo descent
    step reshapes the path instead.
    """
    spec = model.domain
    direction = -model.preconditioned_values(u)
    slope = inner_product_values(spec, residual, direction)
    tau_sq = h1_seminorm_sq_values(spec, tangent)
    if tau_sq > 0.0:
        reflected = _h1_reflection(spec, residual, direction, tangent, tau_sq)
        res_norm = np.sqrt(inner_product_values(spec, residual, residual))
        step = min(opts.initial_step, 0.5 * np.sqrt(tau_sq / -slope))
        tries = None  # halvings still allowed, set when the first try fails
        # useful reflected steps are O(1); below 1e-8 let the plain step act
        while step >= 1e-8 and tries != 0:
            candidate = u + step * reflected
            res_new = model.residual_values(candidate)
            if (np.sqrt(inner_product_values(spec, res_new, res_new))
                    <= (1.0 - opts.armijo_c * step) * res_norm):
                return candidate
            if tries is None:
                # unless the residual norm falls along the step, h^d <res, J r> <
                # -c |res|^2, no small step passes the test above: 3 halvings at most
                jr = model.linearized_residual_values(u, reflected)
                tries = np.inf if inner_product_values(spec, residual, jr) \
                    < -opts.armijo_c * res_norm ** 2 else 3
            else:
                tries -= 1
            step *= opts.backtrack_factor

    step, _ = _armijo_step(model, u, residual, direction, slope, opts)
    return None if step is None else u + step * direction


def _run_path_loop(model, u_minus, u_plus, opts, tol):
    spec = model.domain
    nodes = _initial_path(model, u_minus, u_plus, opts)
    energies = model.phi_rows(nodes)
    last, pinned, spare = opts.path_count, None, np.empty_like(nodes)
    for it in range(opts.max_iters + 1):
        jmax = 1 + int(np.argmax(energies[1:-1]))
        u = nodes[jmax]
        residual = model.residual_values(u)
        res_sup = float(np.max(np.abs(residual)))
        if opts.callback is not None:
            opts.callback({"iteration": it, "residual": res_sup,
                           "nodes": nodes, "energies": energies, "max_index": jmax})
        if not np.isfinite(energies[jmax] + res_sup):
            raise RuntimeError(f"path peak is not finite at path iteration {it} (energy "
                               f"{energies[jmax]:.3e}, residual {res_sup:.3e})")
        if res_sup <= tol:
            return nodes[jmax], it, True, res_sup
        if np.any(np.sqrt(h1_seminorm_sq_values(spec, u - nodes[[0, last]]))
                  < opts.collapse_tol):
            raise PathCollapseError(
                f"max-energy node collapsed onto an endpoint at path iteration {it} "
                f"(peak residual {res_sup:.3e}); the two minimizers are not separated")
        if it == opts.max_iters:
            return nodes[jmax], it, False, res_sup
        tangent = nodes[jmax + 1] - nodes[jmax - 1]
        moved = _descend_max_node(model, u, residual, opts, tangent)
        if moved is not None:
            nodes[jmax] = moved
        if jmax != pinned or (it + 1) % RESPACE_EVERY == 0:
            # the endpoints keep their bits and energies; so does the pinned
            # peak, but it has usually just moved and is evaluated again
            nodes, spare, pinned = _redistribute(spec, nodes, jmax, spare), nodes, jmax
            energies[1:-1] = model.phi_rows(nodes[1:-1])
        elif moved is not None:
            energies[jmax] = model.phi_rows(moved)[0]


def find_mountain_pass(model: EnergyModel, u_minus: CriticalPoint,
                       u_plus: CriticalPoint,
                       opts: MPOptions | None = None) -> CriticalPoint:
    """The third critical point, found as the converged peak of a deforming
    path from the negative minimizer to the positive one.

    Each endpoint must have converged to within the larger of the path
    tolerance and the residual its own stage reported, and must have
    negative energy.  The initial path is the straight interpolation plus a
    midpoint bump along the second eigenfunction, which breaks odd symmetry.
    If the path ends on the origin, it runs once more with the default bump,
    unless that bump is the one just tried.
    """
    opts = opts or MPOptions()
    if model.mode is not TruncationMode.FULL:
        raise ValueError("the pass is sought on the full-truncation model")
    tol = opts.grad_tol * model.nl.scale
    for name, point in (("u_minus", u_minus), ("u_plus", u_plus)):
        res = float(np.max(np.abs(model.residual_values(point.u.values))))
        bound = max(tol, point.residual)
        if not point.converged:
            raise ValueError(f"{name} is not a converged critical point: its stage stopped "
                             f"after {point.iterations} iterations at residual "
                             f"{point.residual:.3e} without converging")
        if res > bound:
            raise ValueError(f"{name} is not a converged critical point "
                             f"(residual {res:.3e} > {bound:.3e})")
        if model.phi_values(point.u.values) >= 0.0:
            raise ValueError(f"{name} must have negative energy")

    values, iterations, converged, residual = _run_path_loop(
        model, u_minus.u, u_plus.u, opts, tol)
    default = MPOptions.perturbation
    if converged and float(np.max(np.abs(values))) <= 1e-6 and opts.perturbation != default:
        values, iterations, converged, residual = _run_path_loop(
            model, u_minus.u, u_plus.u, replace(opts, perturbation=default), tol)

    return CriticalPoint(u=Field(model.domain, values), energy=model.phi_values(values),
                         residual=residual, classification=Classification.MOUNTAIN_PASS,
                         converged=converged, iterations=iterations)
