"""Shooting-method ground truth for the 1D boundary value problem.

Integrates u'' = -g(u) from the left endpoint with the *untruncated* g, so
agreement with the variational solver independently certifies that the
truncated solutions solve the original equation.  The integrator is Yoshida's
sixth-order composition of the kick-drift-kick leapfrog, 7 calls of g a step.
Trajectories that leave 10 * max(a+, -a-) are frozen, flagged as blown up
and dropped from the sweep.  Roots of the endpoint map are refined by batched
multisection: round 1 spreads 65 slopes over each sign-change bracket, and
later rounds centre 65 slopes on the root of an inverse interpolant through the
lanes nearest the last sign change, or spread them over that sign change where
the interpolant is ill-posed.  Each round keeps every lane's state every ~sqrt(steps)
steps, and the branches found are replayed from those states in one short sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import DomainSpec
from .nonlinearity import Nonlinearity

STEPS = 1024  # default steps per trajectory
MIN_STEPS = 1000
MAX_STEPS = 2**20  # steps per trajectory in one command-line run
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
        abscissae land exactly on the grid nodes.
        """
        if spec.ndim != 1:
            raise ValueError("the shooting oracle is one-dimensional")
        (n,) = spec.counts
        steps = len(self.values) - 1
        if steps % (n + 1) != 0:
            raise ValueError(
                f"{steps} steps do not land on a grid with {n} interior nodes")
        stride = steps // (n + 1)
        return self.values[stride::stride][:n].copy()


# Yoshida's sixth-order "solution A" (Phys. Lett. A 150, 1990): a step is the
# kick-drift-kick leapfrog at these fractions of it in turn, each stage's
# closing kick merged into the next stage's opening kick
_W1, _W2, _W3 = -1.17767998417887, 0.235573213359357, 0.784513610477560
_DRIFTS = (_W3, _W2, _W1, 1.0 - 2.0 * (_W1 + _W2 + _W3), _W1, _W2, _W3)
_KICKS = tuple(0.5 * (a + b) for a, b in zip((0.0, *_DRIFTS), (*_DRIFTS, 0.0)))


@np.errstate(over="ignore", invalid="ignore")  # a lane may overflow to NaN within a step
def _integrate(nl: Nonlinearity, h: float, u: np.ndarray, p: np.ndarray, steps: int,
               every: int):
    """`steps` steps of size h from (u, u') = (u, p) on all lanes at once; returns
    each lane's final u and blown flag, and its u and p every `every` steps from the
    start (None, None for 0).  A lane with |u| NaN or past the cap, at the start too, freezes."""
    cap = 10.0 * max(nl.a_plus, -nl.a_minus)
    drifts, kicks = [h * w for w in _DRIFTS], [h * w for w in _KICKS]
    u, p = np.array(u, dtype=float), np.array(p, dtype=float)
    frozen = np.zeros((2, p.size))  # u and p of the blown lanes
    blown, live = np.zeros(p.shape, dtype=bool), np.arange(p.size)
    us, ps = np.zeros((2, steps // every + 1, p.size)) if every else (None, None)
    gu = nl.g(u)  # g at the step's start, ended the last one; never written into
    for i in range(steps + 1):
        if i:  # u' = p, p' = -g(u)
            p -= kicks[0] * gu
            for drift, kick in zip(drifts, kicks[1:]):
                u += drift * p
                gu = nl.g(u)  # a g may return u itself, which the next drift moves
                p -= kick * gu
        if not np.abs(u).max(initial=0.0) <= cap:  # NaN propagates through max
            out = ~(np.abs(u) <= cap)
            frozen[:, live[out]], blown[live[out]] = (u[out], p[out]), True
            live, u, p, gu = live[~out], u[~out], p[~out], gu[~out]
        if every and i % every == 0:
            us[i // every], ps[i // every] = frozen
            us[i // every, live], ps[i // every, live] = u, p
    frozen[0, live] = u
    return frozen[0], blown, us, ps


def _check_steps(steps: int) -> None:
    if steps < MIN_STEPS:
        raise ValueError(f"use at least {MIN_STEPS} steps")


def _stride(steps: int) -> int:
    """Steps between kept states: the divisor nearest sqrt(steps) within 2x, else steps."""
    root = math.sqrt(steps)
    return min((d for d in range(math.ceil(root / 2), math.floor(2 * root) + 1)
                if steps % d == 0), key=lambda d: abs(d - root), default=steps)


def _checkpointed(nl: Nonlinearity, length: float, slopes: np.ndarray, steps: int):
    """One unrecorded sweep of an array of slopes; returns (endpoints, blown, starts)
    shaped like it, starts[..., k, :] the (u, p) after k * _stride(steps) steps."""
    ends, blown, us, ps = _integrate(nl, length / steps, np.zeros(slopes.size), slopes.ravel(),
                                     steps, _stride(steps))
    return (ends.reshape(slopes.shape), blown.reshape(slopes.shape),
            np.stack([us[:-1].T, ps[:-1].T], axis=-1).reshape(*slopes.shape, -1, 2))


def _replay(nl: Nonlinearity, length: float, steps: int,
            starts: np.ndarray) -> list[ShotResult]:
    """One ShotResult per row of `starts` (trajectory, segment, (u, p)), the states
    at equal intervals from step 0: all segments in one recorded sweep, with the bits
    of one sweep of the whole trajectory, since each lane's arithmetic is its own."""
    count, segments, _ = starts.shape
    ends, blown, us, ps = _integrate(nl, length / steps, *starts.reshape(-1, 2).T,
                                     steps // segments, 1)
    us, ps = us.reshape(-1, count, segments), ps.reshape(-1, count, segments)
    xs = np.linspace(0.0, length, steps + 1)
    return [ShotResult(slope=float(starts[j, 0, 1]), endpoint=float(ends[(j + 1) * segments - 1]),
                       xs=xs, values=np.append(us[:-1, j].T, us[-1, j, -1]),
                       derivatives=np.append(ps[:-1, j].T, ps[-1, j, -1]),
                       blown_up=bool(blown[(j + 1) * segments - 1])) for j in range(count)]


def shoot(nl: Nonlinearity, length: float, slope: float, steps: int) -> ShotResult:
    """Integrate one trajectory with u(0) = 0 and u'(0) = slope."""
    _check_steps(steps)
    return _replay(nl, length, steps, np.array([[[0.0, slope]]]))[0]


def sweep(nl: Nonlinearity, length: float, slopes: np.ndarray,
          steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint map over an array of slopes at any step count; returns (endpoints, blown)."""
    if steps < 1:
        raise ValueError(f"use at least 1 step, got {steps}")
    return _integrate(nl, length / steps, np.zeros_like(slopes), slopes, steps, 0)[:2]


def sign_change_brackets(slopes: np.ndarray, endpoints: np.ndarray,
                         blown: np.ndarray) -> list[tuple[float, float]]:
    """Slope intervals across which the endpoint map changes sign.

    Brackets touching a blown-up trajectory are dropped, and so is the
    bracket containing slope 0 (the trivial solution).
    """
    s, e, b = np.asarray(slopes, float), np.asarray(endpoints), np.asarray(blown, bool)
    keep = ((e[:-1] == 0.0) | (np.sign(e[:-1]) * np.sign(e[1:]) < 0.0)) & ~(b[:-1] | b[1:])
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
                steps: int = STEPS,
                swept: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
                ) -> list[ShotResult]:
    """Multisect the endpoint map inside every sign-change bracket at once.

    Returns one ShotResult per bracket, in order.  Each round sweeps _LANES + 1
    slopes of every bracket still refining in one pass: round 1 the
    `fan_slopes` of the bracket (a blown end or a missing sign change raises
    ValueError for the first bracket that has one), later rounds the `_window` of
    the last first sign change [a, c], keeping the piece of [a, c] beside it if it
    misses the root.  A bracket stops when an endpoint is 0 or [a, c] is 2
    roundings wide.  The trajectories of the slopes of smallest |endpoint| seen
    are replayed from the states their sweep kept every `_stride(steps)` steps.

    `swept` = (slopes, endpoints, blown) of lanes already integrated at `steps`,
    in any order: when every bracket's round-1 slopes lie among them, round 1
    takes their endpoints and blown flags, with the same bits, instead of a sweep.
    """
    if len(brackets) == 0:
        return []
    if np.ndim(brackets) != 2 or np.shape(brackets)[1] != 2:
        raise ValueError(f"brackets must be a list of (lo, hi) pairs, got {brackets!r}")
    _check_steps(steps)
    slopes = fan_slopes(brackets)
    where = {} if swept is None else {s: k for k, s in enumerate(swept[0].tolist())}
    k = np.array([where.get(s, -1) for s in slopes.ravel().tolist()]).reshape(slopes.shape)
    ends, blown, starts = (_checkpointed(nl, length, slopes, steps) if (k < 0).any() else
                           (swept[1][k], swept[2][k],  # states are not kept in `swept`
                            np.full((*k.shape, steps // _stride(steps), 2), np.nan)))
    lo, hi = slopes[:, 0], slopes[:, -1]
    for b in range(len(lo)):
        if blown[b, [0, -1]].any():
            raise ValueError("bracket endpoint blew up; shrink the bracket")
        if ends[b, 0] * ends[b, -1] > 0.0:
            raise ValueError(f"no sign change on [{lo[b]}, {hi[b]}]: endpoints "
                             f"{ends[b, 0]:.3e}, {ends[b, -1]:.3e}")
    best, best_end = np.empty(len(lo)), np.full(len(lo), np.inf)
    best_starts = np.empty((len(lo), *starts.shape[2:]))  # NaN: taken from `swept`, not kept
    seen = list(zip(range(len(lo)), slopes, ends, starts))
    while True:
        live = []
        for b, s, e, c in seen:
            s, k = np.unique(s, return_index=True)
            e, c = e[k], c[k]
            k = np.argmin(np.abs(e))
            if abs(e[k]) < best_end[b]:
                best[b], best_end[b], best_starts[b] = s[k], abs(e[k]), c[k]
            i = np.flatnonzero(e[:-1] * e[1:] <= 0.0)[0]
            if best_end[b] > 0.0 and s[i + 1] - s[i] > 2 * np.spacing(np.abs(s[i:i + 2]).max()):
                live.append((b, s[i:i + 2], e[i:i + 2], c[i:i + 2], _window(s, e, i)))
        if not live:
            break
        slopes = np.linspace(*np.array([w for *_, w in live]).T, _LANES + 1, axis=1)
        ends, _, starts = _checkpointed(nl, length, slopes, steps)
        seen = [(b, np.insert(ac, 1, s), np.insert(eac, 1, e), np.insert(cac, 1, c, axis=0))
                for (b, ac, eac, cac, _), s, e, c in zip(live, slopes, ends, starts)]
    if (missing := np.isnan(best_starts).any(axis=(1, 2))).any():  # taken from `swept`
        best_starts[missing] = _checkpointed(nl, length, best[missing], steps)[2]
    return _replay(nl, length, steps, best_starts)
