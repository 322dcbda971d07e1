"""Shooting-method ground truth for the 1D boundary value problem.

Integrates u'' = -g(u) from the left endpoint with classical RK4 and the
*untruncated* g, so agreement with the variational solver independently
certifies that the truncated solutions solve the original equation.
Trajectories that leave 10 * max(a+, -a-) are frozen, flagged as blown up
and dropped from the sweep.  Roots of the endpoint map are refined by batched
multisection: round 1 spreads 65 slopes over each sign-change bracket, and
later rounds centre 65 slopes on the root of an inverse interpolant through the
lanes nearest the last sign change, or spread them over that sign change where
the interpolant is ill-posed.
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


def _stage_sum(k1: np.ndarray, k2: np.ndarray, k3: np.ndarray, k4: np.ndarray,
               h: float) -> np.ndarray:
    """(h / 6) (k1 + 2 k2 + 2 k3 + k4), added in that order but written into k2
    (and 2 k3 into k3), so no temporary is allocated."""
    k2 *= 2.0
    k2 += k1
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= h / 6.0
    return k2


def _rk4_sweep(nl: Nonlinearity, length: float, slopes: np.ndarray,
               steps: int, record: bool):
    """Integrate all slopes at once; returns (endpoints, blown, values, derivatives)."""
    if steps < MIN_RK4_STEPS:
        raise ValueError(f"use at least {MIN_RK4_STEPS} RK4 steps")
    cap = 10.0 * max(nl.a_plus, -nl.a_minus)
    h = length / steps
    p = np.array(slopes, dtype=float)
    u, frozen = np.zeros_like(p), np.zeros((2, p.size))  # u and p of the blown lanes
    blown, live = np.zeros(p.shape, dtype=bool), np.arange(p.size)
    traj = np.zeros((steps + 1, p.size)) if record else None
    dtraj = np.zeros((steps + 1, p.size)) if record else None
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
        u += _stage_sum(p, k2u, k3u, k4u, h)
        p -= _stage_sum(g1, g2, g3, g4, h)  # into g2: a g returning its argument makes g1 u
        if np.abs(u).max(initial=0.0) > cap:
            out = np.abs(u) > cap
            frozen[:, live[out]], blown[live[out]] = (u[out], p[out]), True
            live, u, p = live[~out], u[~out], p[~out]
        if record:
            traj[i + 1], dtraj[i + 1] = frozen
            traj[i + 1, live], dtraj[i + 1, live] = u, p
    frozen[0, live] = u
    return frozen[0], blown, traj, dtraj


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
    endpoints, blown, _, _ = _rk4_sweep(nl, length, slopes, steps, record=False)
    return endpoints, blown


def sign_change_brackets(slopes: np.ndarray, endpoints: np.ndarray,
                         blown: np.ndarray) -> list[tuple[float, float]]:
    """Slope intervals across which the endpoint map changes sign.

    Brackets touching a blown-up trajectory are dropped, and so is the
    bracket containing slope 0 (the trivial solution).
    """
    s, e, b = np.asarray(slopes, float), np.asarray(endpoints), np.asarray(blown, bool)
    keep = ((e[:-1] == 0.0) | (e[:-1] * e[1:] < 0.0)) & ~(b[:-1] | b[1:])
    keep &= (s[:-1] > 0.0) | (s[1:] < 0.0)
    return list(zip(s[:-1][keep].tolist(), s[1:][keep].tolist()))


def _window(slopes: np.ndarray, endpoints: np.ndarray, i: int) -> tuple[float, float]:
    """Next round's slope range in the sign change [a, c] = slopes[i:i + 2]: the root
    of the inverse interpolant through up to 6 lanes nearest the sign change, taken
    in Neville's scheme from the nearest lanes outwards, +- the gap between its last
    two orders, at least 32 roundings of the root on each side, clipped to [a, c];
    all of [a, c] where that is ill-posed (fewer than 3 lanes, two endpoints tie, a
    gap that is not finite or a root outside [a, c])."""
    a, c = slopes[i:i + 2]
    lo = max(0, min(i - 2, len(slopes) - 6))
    order = sorted(range(lo, min(len(slopes), lo + 6)), key=lambda k: abs(2 * k - 2 * i - 1))
    e, s = endpoints[order].tolist(), slopes[order].tolist()
    if len(e) < 3 or len(set(e)) < len(e):
        return a, c
    roots = []
    for m in range(1, len(e)):  # s[k] becomes the root through lanes k, ..., k + m
        s = [s[k] + e[k] * (s[k + 1] - s[k]) / (e[k] - e[k + m]) for k in range(len(e) - m)]
        roots.append(s[0])
    root, half = roots[-1], abs(roots[-1] - roots[-2])
    if not (np.isfinite(half) and a <= root <= c):
        return a, c
    half = max(half, 32 * np.spacing(abs(root)))
    return max(a, root - half), min(c, root + half)


def fan_slopes(brackets: list[tuple[float, float]]) -> np.ndarray:
    """The slopes `find_branch` sweeps in round 1: _LANES + 1 evenly over each
    (lo, hi) bracket, ends included, one row per bracket."""
    lo, hi = np.array(brackets, dtype=float).reshape(-1, 2).T
    return np.linspace(lo, hi, _LANES + 1, axis=1)


def find_branch(nl: Nonlinearity, length: float, brackets: list[tuple[float, float]],
                steps: int = RK4_STEPS,
                swept: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
                ) -> list[ShotResult]:
    """Multisect the endpoint map inside every sign-change bracket at once.

    Returns one ShotResult per bracket, in order.  Each round sweeps _LANES + 1
    slopes of every bracket still refining in one `sweep`: round 1 the
    `fan_slopes` of the bracket (a blown end or a missing sign change raises
    ValueError for the first bracket that has one), later rounds the `_window` of
    the last first sign change [a, c], keeping the piece of [a, c] beside it if it
    misses the root.  A bracket stops when an endpoint is 0 or [a, c] is 2
    roundings wide.  The slopes of smallest |endpoint| seen are recorded in one
    sweep.

    `swept` = (slopes, endpoints, blown) of lanes already integrated at `steps`,
    in any order: when every bracket's round-1 slopes lie among them, round 1
    takes their endpoints and blown flags, with the same bits, instead of a sweep.
    """
    if len(brackets) == 0:
        return []
    if np.ndim(brackets) != 2 or np.shape(brackets)[1] != 2:
        raise ValueError(f"brackets must be a list of (lo, hi) pairs, got {brackets!r}")
    slopes = fan_slopes(brackets)
    where = {} if swept is None else {s: k for k, s in enumerate(swept[0].tolist())}
    k = [where.get(s) for s in slopes.ravel().tolist()]
    ends, blown = (sweep(nl, length, slopes.ravel(), steps) if None in k
                   else (swept[1][k], swept[2][k]))
    ends, blown = ends.reshape(slopes.shape), blown.reshape(slopes.shape)
    lo, hi = slopes[:, 0], slopes[:, -1]
    for b in range(len(lo)):
        if blown[b, [0, -1]].any():
            raise ValueError("bracket endpoint blew up; shrink the bracket")
        if ends[b, 0] * ends[b, -1] > 0.0:
            raise ValueError(f"no sign change on [{lo[b]}, {hi[b]}]: endpoints "
                             f"{ends[b, 0]:.3e}, {ends[b, -1]:.3e}")
    best, best_end = np.empty(len(lo)), np.full(len(lo), np.inf)
    seen = list(zip(range(len(lo)), slopes, ends))
    while True:
        live = []
        for b, s, e in seen:
            s, k = np.unique(s, return_index=True)
            e = e[k]
            k = np.argmin(np.abs(e))
            if abs(e[k]) < best_end[b]:
                best[b], best_end[b] = s[k], abs(e[k])
            i = np.flatnonzero(e[:-1] * e[1:] <= 0.0)[0]
            if best_end[b] > 0.0 and s[i + 1] - s[i] > 2 * np.spacing(np.abs(s[i:i + 2]).max()):
                live.append((b, s[i:i + 2], e[i:i + 2], _window(s, e, i)))
        if not live:
            return _shots(nl, length, best, steps)
        slopes = np.linspace(*np.array([w for *_, w in live]).T, _LANES + 1, axis=1)
        ends = sweep(nl, length, slopes.ravel(), steps)[0].reshape(slopes.shape)
        seen = [(b, np.insert(ac, 1, s), np.insert(eac, 1, e))
                for (b, ac, eac, _), s, e in zip(live, slopes, ends)]
