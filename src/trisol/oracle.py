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
MAX_SWEEP_LANES = 1_000_000  # slopes in one command-line sweep
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
    """Integrate all slopes at once; returns (endpoints, blown, values, derivatives)."""
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
    for i in range(steps):     # u' = p, p' = -g(u), with g1..g4 = -k1p..-k4p
        g1 = nl.g(u)
        k2u = p - 0.5 * h * g1
        g2 = nl.g(u + 0.5 * h * p)
        k3u = p - 0.5 * h * g2
        g3 = nl.g(u + 0.5 * h * k2u)
        k4u = p - h * g3
        g4 = nl.g(u + h * k3u)
        u_next = u + (h / 6.0) * (p + 2.0 * k2u + 2.0 * k3u + k4u)
        p_next = p - (h / 6.0) * (g1 + 2.0 * g2 + 2.0 * g3 + g4)
        u = np.where(blown, u, u_next)
        p = np.where(blown, p, p_next)
        blown |= np.abs(u) > cap
        if record:
            traj[i + 1] = u
            dtraj[i + 1] = p
    return u, blown, traj, dtraj


def _shots(nl: Nonlinearity, length: float, slopes: np.ndarray,
           steps: int) -> list[ShotResult]:
    """Integrate every slope in one recorded sweep; one ShotResult per slope."""
    endpoints, blown, traj, dtraj = _rk4_sweep(nl, length, slopes, steps, record=True)
    xs = np.linspace(0.0, length, steps + 1)
    return [ShotResult(slope=float(s), endpoint=float(endpoints[j]), xs=xs,
                       values=traj[:, j].copy(), derivatives=dtraj[:, j].copy(),
                       blown_up=bool(blown[j])) for j, s in enumerate(slopes)]


def shoot(nl: Nonlinearity, length: float, slope: float, steps: int) -> ShotResult:
    """Integrate one trajectory with u(0) = 0 and u'(0) = slope."""
    return _shots(nl, length, np.array([slope], dtype=float), steps)[0]


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


def find_branch(nl: Nonlinearity, length: float, brackets: list[tuple[float, float]],
                steps: int = RK4_STEPS) -> list[ShotResult]:
    """Multisect the endpoint map inside every sign-change bracket at once.

    Returns one ShotResult per bracket, in order; a blown end or a missing
    sign change raises ValueError for the first bracket that has one.  Each
    round sweeps _LANES + 1 equally spaced slopes of every bracket still
    refining in one `sweep` and keeps each sub-bracket of the first sign
    change, until an endpoint is 0 or the bracket is _LANES roundings of its
    slope wide.  The slopes of smallest |endpoint| are recorded in one sweep.
    """
    if len(brackets) == 0:
        return []
    if np.ndim(brackets) != 2 or np.shape(brackets)[1] != 2:
        raise ValueError(f"brackets must be a list of (lo, hi) pairs, got {brackets!r}")
    lo, hi = np.array(brackets, dtype=float).T.copy()
    ends, blown = (a.reshape(2, -1) for a in sweep(nl, length, np.concatenate([lo, hi]), steps))
    for b in range(len(lo)):
        if blown[:, b].any():
            raise ValueError("bracket endpoint blew up; shrink the bracket")
        if ends[0, b] * ends[1, b] > 0.0:
            raise ValueError(f"no sign change on [{lo[b]}, {hi[b]}]: endpoints "
                             f"{ends[0, b]:.3e}, {ends[1, b]:.3e}")
    best = np.where(np.abs(ends[0]) <= np.abs(ends[1]), lo, hi)
    best_end = np.min(np.abs(ends), axis=0)
    live = range(len(lo))
    while live := [b for b in live if best_end[b] > 0.0 and abs(hi[b] - lo[b])
                   > _LANES * np.spacing(max(abs(lo[b]), abs(hi[b])))]:
        slopes = np.linspace(lo[live], hi[live], _LANES + 1, axis=1)
        endpoints = sweep(nl, length, slopes.ravel(), steps)[0].reshape(slopes.shape)
        for b, s, e in zip(live, slopes, endpoints):
            k = np.argmin(np.abs(e))
            if abs(e[k]) < best_end[b]:
                best[b], best_end[b] = s[k], abs(e[k])
            i = np.flatnonzero(e[:-1] * e[1:] <= 0.0)[0]
            lo[b], hi[b] = s[i], s[i + 1]
    return _shots(nl, length, best, steps)
