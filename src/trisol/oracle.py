"""Shooting-method ground truth for the 1D boundary value problem.

Integrates u'' = -g(u) from the left endpoint with classical RK4 and the
*untruncated* g, so agreement with the variational solver independently
certifies that the truncated solutions solve the original equation.
Trajectories that leave 10 * max(a+, -a-) are frozen, flagged as blown up
and dropped from the sweep.  A sweep of many slopes shares them among
forked workers, one per available CPU.
"""

from __future__ import annotations

import ctypes
import mmap
import os
import signal
import threading
from dataclasses import dataclass

import numpy as np

from .grid import DomainSpec
from .nonlinearity import Nonlinearity

RK4_STEPS = 4096  # default steps per trajectory
MIN_RK4_STEPS = 1000
MAX_SWEEP_LANES = 1_000_000  # slopes in one command-line sweep
_LANES = 64  # sub-brackets per multisection round; a sweep of 65 lanes costs about one shot
_FORK_LANES = 2048  # lanes per forked `sweep` worker, at least


class SweepWorkerError(RuntimeError):
    """A forked `sweep` worker exited with a non-zero status."""


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
        u += (h / 6.0) * (p + 2.0 * k2u + 2.0 * k3u + k4u)
        p -= (h / 6.0) * (g1 + 2.0 * g2 + 2.0 * g3 + g4)
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
    """Endpoint map over an array of slopes; returns (endpoints, blown_mask).

    Worker w of k = min(available CPUs, lanes // _FORK_LANES) integrates
    slopes[w::k] into one shared anonymous mapping that both arrays view:
    the caller share 0, and k - 1 children made by `os.fork` the rest.
    Lanes are independent, so the bits are those of one serial pass.  k is 1
    where fork or the CPU set is missing, or while other threads run.  Where
    libc has prctl, the kernel kills the children if the caller dies.
    """
    slopes = np.asarray(slopes, dtype=float)
    if steps < MIN_RK4_STEPS:
        raise ValueError(f"use at least {MIN_RK4_STEPS} RK4 steps")
    forks = (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
             and threading.active_count() == 1)  # a fork beside other threads is unsafe
    k = max(1, min(len(os.sched_getaffinity(0)) if forks else 1, slopes.size // _FORK_LANES))
    shared = mmap.mmap(-1, 9 * slopes.size + 1)  # endpoints, flags; never empty
    endpoints = np.frombuffer(shared, float, slopes.size)
    blown = np.frombuffer(shared, bool, slopes.size, offset=8 * slopes.size)
    workers, caller = [], os.getpid()  # (worker, pid) of every child not yet reaped
    try:
        for w in range(1, k):
            if (pid := os.fork()) == 0:  # worker w: its share into the mapping, then _exit
                try:
                    libc = ctypes.CDLL(None)
                    if hasattr(libc, "prctl"):
                        libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
                    if os.getppid() != caller:  # the caller died before prctl
                        os._exit(1)
                    endpoints[w::k], blown[w::k], _, _ = _rk4_sweep(nl, length, slopes[w::k],
                                                                    steps, record=False)
                    os._exit(0)
                finally:
                    os._exit(1)  # reached only when the share raised
            workers.append((w, pid))
        endpoints[::k], blown[::k], _, _ = _rk4_sweep(nl, length, slopes[::k], steps,
                                                      record=False)
        while workers:
            w, pid = workers[0]
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[0]
            if status != 0:
                raise SweepWorkerError(f"sweep worker {w} exited with status {status}")
    finally:
        for _, pid in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
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
    """Next round's slope range in the sign change [a, c] = slopes[i:i + 2]: its
    regula-falsi root +- the error estimate |e2| (c - a)^2 / |e1| (e2 by a neighbouring
    slope) or 32 roundings of the root, whichever is wider, clipped to [a, c]."""
    (a, c), (ea, ec) = slopes[i:i + 2], endpoints[i:i + 2]
    j = i - 1 if i > 0 else i + 2
    e1 = (ec - ea) / (c - a)
    e2 = ((endpoints[j] - ea) / (slopes[j] - a) - e1) / (slopes[j] - c)
    root = a - ea / e1
    half = max(abs(e2) * (c - a) ** 2 / abs(e1), 32 * np.spacing(abs(root)))
    return max(a, root - half), min(c, root + half)


def find_branch(nl: Nonlinearity, length: float, brackets: list[tuple[float, float]],
                steps: int = RK4_STEPS) -> list[ShotResult]:
    """Multisect the endpoint map inside every sign-change bracket at once.

    Returns one ShotResult per bracket, in order.  Each round sweeps _LANES + 1
    slopes of every bracket still refining in one `sweep`: round 1 spans the
    bracket evenly (a blown end or a missing sign change raises ValueError for
    the first bracket that has one), later rounds the `_window` of the last
    first sign change [a, c], keeping the piece of [a, c] beside it if it misses
    the root.  A bracket stops when an endpoint is 0 or [a, c] is 2 roundings
    wide.  The slopes of smallest |endpoint| seen are recorded in one sweep.
    """
    if len(brackets) == 0:
        return []
    if np.ndim(brackets) != 2 or np.shape(brackets)[1] != 2:
        raise ValueError(f"brackets must be a list of (lo, hi) pairs, got {brackets!r}")
    lo, hi = np.array(brackets, dtype=float).T
    slopes = np.linspace(lo, hi, _LANES + 1, axis=1)
    ends, blown = (a.reshape(slopes.shape) for a in sweep(nl, length, slopes.ravel(), steps))
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
