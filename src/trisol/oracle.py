"""Shooting-method ground truth for the 1D boundary value problem.

Integrates u'' = -g(u) from the left endpoint with classical RK4 and the
*untruncated* g, so agreement with the variational solver independently
certifies that the truncated solutions solve the original equation.
Trajectories that leave 10 * max(a+, -a-) are frozen and flagged as blown
up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import DomainSpec
from .nonlinearity import Nonlinearity

RK4_STEPS = 4096  # default steps per trajectory
MIN_RK4_STEPS = 1000
_LANES = 64  # sub-brackets per multisection round; a sweep of 65 lanes costs about one shot


@dataclass(eq=False)
class ShotResult:
    """One integrated trajectory: initial slope, endpoint value, and the
    sampled values and derivatives at steps + 1 equally spaced abscissae
    starting at 0."""

    slope: float
    endpoint: float
    xs: np.ndarray
    values: np.ndarray
    derivatives: np.ndarray
    blown_up: bool

    def values_at(self, spec: DomainSpec) -> np.ndarray:
        """Trajectory restricted to the interior nodes of an interval grid.

        The step count must be divisible by (interior count + 1) so the
        RK4 abscissae land exactly on the grid nodes.
        """
        if spec.ndim != 1:
            raise ValueError("the shooting oracle is one-dimensional")
        (n,) = spec.counts
        steps = len(self.values) - 1
        if steps % (n + 1) != 0:
            raise ValueError(
                f"{steps} RK4 steps do not land on a grid with {n} interior nodes")
        stride = steps // (n + 1)
        return self.values[stride::stride][:n].copy()


def _rk4_sweep(nl: Nonlinearity, length: float, slopes: np.ndarray,
               steps: int, record: bool):
    """Integrate all slopes at once; returns (endpoints, blown, trajectory)."""
    if steps < MIN_RK4_STEPS:
        raise ValueError(f"use at least {MIN_RK4_STEPS} RK4 steps")
    cap = 10.0 * max(nl.a_plus, -nl.a_minus)
    h = length / steps
    u = np.zeros_like(slopes)
    p = np.array(slopes, dtype=float)
    blown = np.zeros(slopes.shape, dtype=bool)
    traj = np.zeros((steps + 1, slopes.size)) if record else None
    dtraj = np.zeros((steps + 1, slopes.size)) if record else None
    if record:
        dtraj[0] = p
    for i in range(steps):     # u' = p, p' = -g(u)
        k1u, k1p = p, -nl.g(u)
        k2u, k2p = p + 0.5 * h * k1p, -nl.g(u + 0.5 * h * k1u)
        k3u, k3p = p + 0.5 * h * k2p, -nl.g(u + 0.5 * h * k2u)
        k4u, k4p = p + h * k3p, -nl.g(u + h * k3u)
        u_next = u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        p_next = p + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        active = ~blown
        u = np.where(active, u_next, u)
        p = np.where(active, p_next, p)
        blown |= np.abs(u) > cap
        if record:
            traj[i + 1] = u
            dtraj[i + 1] = p
    return u, blown, traj, dtraj


def shoot(nl: Nonlinearity, length: float, slope: float, steps: int) -> ShotResult:
    """Integrate one trajectory with u(0) = 0 and u'(0) = slope."""
    endpoints, blown, traj, dtraj = _rk4_sweep(
        nl, length, np.array([slope], dtype=float), steps, record=True)
    xs = np.linspace(0.0, length, steps + 1)
    return ShotResult(slope=float(slope), endpoint=float(endpoints[0]),
                      xs=xs, values=traj[:, 0].copy(),
                      derivatives=dtraj[:, 0].copy(), blown_up=bool(blown[0]))


def sweep(nl: Nonlinearity, length: float, slopes: np.ndarray,
          steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint map over an array of slopes; returns (endpoints, blown_mask)."""
    endpoints, blown, _, _ = _rk4_sweep(
        nl, length, np.asarray(slopes, dtype=float), steps, record=False)
    return endpoints, blown


def sign_change_brackets(slopes: np.ndarray, endpoints: np.ndarray,
                         blown: np.ndarray,
                         exclude_zero: bool = True) -> list[tuple[float, float]]:
    """Slope intervals across which the endpoint map changes sign.

    Brackets touching a blown-up trajectory are dropped; with exclude_zero
    the bracket containing slope 0 (the trivial solution) is dropped too.
    """
    out = []
    for i in range(len(slopes) - 1):
        if blown[i] or blown[i + 1]:
            continue
        if endpoints[i] == 0.0 or endpoints[i] * endpoints[i + 1] < 0.0:
            lo, hi = float(slopes[i]), float(slopes[i + 1])
            if exclude_zero and lo <= 0.0 <= hi:
                continue
            out.append((lo, hi))
    return out


def find_branch(nl: Nonlinearity, length: float,
                bracket: tuple[float, float], steps: int = RK4_STEPS) -> ShotResult:
    """Multisect the endpoint map inside a sign-change bracket.

    Each round sweeps _LANES + 1 equally spaced slopes of the bracket and
    keeps the sub-bracket of the first sign change.  Rounds stop when an
    endpoint is exactly 0 or the bracket is at most _LANES roundings of its
    slope wide; the slope of smallest |endpoint| seen, which is then at the
    rounding floor of the endpoint map, is shot once and returned.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    ends, blown = sweep(nl, length, np.array([lo, hi]), steps)
    if blown.any():
        raise ValueError("bracket endpoint blew up; shrink the bracket")
    if ends[0] * ends[1] > 0.0:
        raise ValueError(
            f"no sign change on [{lo}, {hi}]: endpoints "
            f"{ends[0]:.3e}, {ends[1]:.3e}")
    k = np.argmin(np.abs(ends))
    best, best_end = (lo, hi)[k], abs(ends[k])
    while best_end > 0.0 and abs(hi - lo) > _LANES * np.spacing(max(abs(lo), abs(hi))):
        slopes = np.linspace(lo, hi, _LANES + 1)
        endpoints, _ = sweep(nl, length, slopes, steps)
        k = np.argmin(np.abs(endpoints))
        if abs(endpoints[k]) < best_end:
            best, best_end = slopes[k], abs(endpoints[k])
        i = np.flatnonzero(endpoints[:-1] * endpoints[1:] <= 0.0)[0]
        lo, hi = slopes[i], slopes[i + 1]
    return shoot(nl, length, best, steps)
