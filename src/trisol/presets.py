"""Shipped problem presets.

p1-interval: unit interval, g(t) = 60 t - t^3, delta = 1, 127 interior
nodes (eigenvalue index k = 2).
p2-square: unit square, same cubic, 63 x 63 interior nodes (k = 3, the
second eigenvalue being double).
"""

from __future__ import annotations

from .grid import DomainSpec
from .nonlinearity import Nonlinearity
from .spectrum import sandwich_index

PRESET_NAMES = ("p1-interval", "p2-square")


def cubic_nonlinearity(spec: DomainSpec, lam: float = 60.0,
                       delta: float = 1.0) -> Nonlinearity:
    """g(t) = lam t - t^3, roots +-sqrt(lam), primitive lam t^2/2 - t^4/4.

    Written as t * t * t rather than t ** 3: the products negate exactly in
    floating point, so g is odd and G even to the last bit, and the
    minus-mode descent mirrors the plus-mode one bitwise.
    """
    root = lam ** 0.5
    return Nonlinearity(
        g=lambda t: lam * t - t * t * t,
        gprime=lambda t: lam - 3.0 * (t * t),
        a_minus=-root,
        a_plus=root,
        delta=delta,
        k=sandwich_index(spec, lam),
        primitive=lambda t: (t * t) * (0.5 * lam - 0.25 * (t * t)),
        degree=3,
    )


def preset_domain(name: str, n: int | None = None) -> DomainSpec:
    if name == "p1-interval":
        return DomainSpec.interval(1.0, n if n is not None else 127)
    if name == "p2-square":
        m = n if n is not None else 63
        return DomainSpec.rectangle(1.0, 1.0, m, m)
    raise KeyError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")


def build_preset(name: str, n: int | None = None) -> tuple[DomainSpec, Nonlinearity]:
    spec = preset_domain(name, n)
    return spec, cubic_nonlinearity(spec)
