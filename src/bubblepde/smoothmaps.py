"""Smooth monotone maps with analytic derivatives and closed-form Schwarzians.

Carriers for the market's scale/price transformations. Each map knows its
open domain, its first two derivatives, its pre-Schwarzian T_f = f''/f'
and its Schwarzian S_f = f'''/f' - (3/2)(f''/f')^2, which is enough for
the multiplicative path functional built from them:
schwarzian_process along one recorded path, multiplicative_functional at a
node given the integral of S_f up to it (the change of measure adds that
integral up step by step as it walks its paths).

All evaluators are vectorized over numpy arrays and closed form for every
constructor (power law, logarithm, Moebius, compositions via the exact
chain rule); there is no automatic differentiation and no third
derivative. T_f is the drift of every simulated law and S_f the rate of
the measure change, so a map carries both: (alpha - 1)/(x - xi) and
(1 - alpha^2)/(2(x - xi)^2) for a power law, -2c/(cx + d) and zero for a
Moebius map, T_{f o g} = T_f(g) g' + T_g and S_{f o g} = S_f(g) g'^2 + S_g
for a composition, which are the inner map's own when f is affine (S_g
alone when f is Moebius).

A map is named by its descriptor alone: from_descriptor(f.descriptor)
rebuilds any map a constructor builds, on the same domain and with the
same evaluators, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError

# Finite-difference cross-check constants used by the constructors' self-test
# (catches transcription errors in derivative code without flagging roundoff).
FD_EPS = 1e-5
FD_TOL = 1e-4
# Closed-form T_f against d2/d1: both are exact up to roundoff.
PRE_TOL = 1e-9


@dataclass(frozen=True)
class SmoothMap:
    """A thrice-differentiable strictly monotone map on an open interval.

    Fields
    ------
    domain : (lo, hi) open interval in the extended reals
    eval, d1, d2 : vectorized evaluators for f, f', f''
    pre : vectorized evaluator for the pre-Schwarzian T_f = f''/f'
    schw : vectorized evaluator for the Schwarzian S_f = T_f' - T_f^2/2
    descriptor : JSON-friendly construction record (used for hashing/serialization)
    """

    domain: tuple[float, float]
    eval: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]
    pre: Callable[[np.ndarray], np.ndarray]
    schw: Callable[[np.ndarray], np.ndarray]
    descriptor: dict = field(default_factory=dict)

    def __call__(self, x):
        return self.eval(x)

    def contains(self, x) -> np.ndarray:
        lo, hi = self.domain
        x = np.asarray(x, dtype=float)
        return (x > lo) & (x < hi)

    def require(self, x) -> np.ndarray:
        """Return x as an array, raising DomainError if any point is outside."""
        x = np.asarray(x, dtype=float)
        ok = self.contains(x)
        if not np.all(ok):
            bad = np.atleast_1d(x)[~np.atleast_1d(ok)]
            raise DomainError(
                f"point {bad.flat[0]:.6g} outside domain ({self.domain[0]:.6g}, {self.domain[1]:.6g})"
            )
        return x


def _fd_cross_check(m: SmoothMap) -> None:
    # Probe a handful of interior points; compare analytic d1 against a
    # central difference of eval (and d2 against a difference of d1), the
    # closed-form T_f against d2/d1 and S_f against T_f' - T_f^2/2; f'
    # must keep one strict sign over the probes.
    lo, hi = m.domain
    a = lo if np.isfinite(lo) else -1.0
    b = hi if np.isfinite(hi) else max(a + 2.0, 3.0)
    pts = a + (b - a) * np.array([0.12, 0.31, 0.5, 0.77, 0.93])
    eps = FD_EPS * (1.0 + np.abs(pts))
    fd1 = (m.eval(pts + eps) - m.eval(pts - eps)) / (2 * eps)
    d1 = m.d1(pts)
    if np.any(np.abs(d1 - fd1) > FD_TOL * (1.0 + np.abs(d1))):
        raise DomainError(f"derivative cross-check failed for map {m.descriptor}")
    fd2 = (m.d1(pts + eps) - m.d1(pts - eps)) / (2 * eps)
    d2 = m.d2(pts)
    if np.any(np.abs(d2 - fd2) > FD_TOL * (1.0 + np.abs(d2))):
        raise DomainError(f"second-derivative cross-check failed for map {m.descriptor}")
    t, pre = d2 / d1, m.pre(pts)
    if np.any(np.abs(pre - t) > PRE_TOL * (1.0 + np.abs(t))):
        raise DomainError(f"pre-Schwarzian cross-check failed for map {m.descriptor}")
    fds = (m.pre(pts + eps) - m.pre(pts - eps)) / (2 * eps) - 0.5 * pre * pre
    if np.any(np.abs(m.schw(pts) - fds) > FD_TOL * (1.0 + np.abs(fds))):
        raise DomainError(f"Schwarzian cross-check failed for map {m.descriptor}")
    if not (np.all(d1 > 0) or np.all(d1 < 0)):
        raise DomainError(f"f' changes sign or vanishes for map {m.descriptor}")


def _flat(x) -> np.ndarray:
    """T_f of an affine map and S_f of a Moebius map: zero everywhere."""
    return np.zeros(np.shape(x))


def power_law_map(alpha: float, xi: float = 0.0) -> SmoothMap:
    """f(x) = (x - xi)^alpha on (xi, inf); alpha = 0 means f(x) = log(x - xi).

    Closed forms: T_f(x) = (alpha-1)/(x-xi), S_f(x) = (1-alpha^2)/(2(x-xi)^2).
    Both hold for the logarithm at alpha = 0. alpha = 1 is affine, so its
    T_f and S_f are _flat; alpha = -1 is Moebius, so its S_f is _flat.
    """
    a, xi = float(alpha), float(xi)

    def pre(x):
        return (a - 1) / (np.asarray(x, dtype=float) - xi)

    def schw(x):
        return (1 - a * a) / (2 * (np.asarray(x, dtype=float) - xi) ** 2)

    if a == 0.0:
        m = SmoothMap(
            domain=(xi, np.inf),
            eval=lambda x: np.log(np.asarray(x, dtype=float) - xi),
            d1=lambda x: 1.0 / (np.asarray(x, dtype=float) - xi),
            d2=lambda x: -1.0 / (np.asarray(x, dtype=float) - xi) ** 2,
            pre=pre, schw=schw,
            descriptor={"kind": "log", "xi": xi},
        )
    else:
        m = SmoothMap(
            domain=(xi, np.inf),
            eval=lambda x: (np.asarray(x, dtype=float) - xi) ** a,
            d1=lambda x: a * (np.asarray(x, dtype=float) - xi) ** (a - 1),
            d2=lambda x: a * (a - 1) * (np.asarray(x, dtype=float) - xi) ** (a - 2),
            pre=_flat if a == 1.0 else pre,
            schw=_flat if abs(a) == 1.0 else schw,
            descriptor={"kind": "power_law", "alpha": a, "xi": xi},
        )
    _fd_cross_check(m)
    return m


def log_map(xi: float = 0.0) -> SmoothMap:
    return power_law_map(0.0, xi)


def mobius_map(coeffs: tuple) -> SmoothMap:
    """f(x) = (a x + b)/(c x + d) for coeffs (a, b, c, d), with ad - bc != 0.

    For c != 0 the domain is the branch to the right of the pole -d/c;
    affine maps (c = 0) live on the whole line. S_f vanishes identically and
    T_f(x) = -2c/(cx + d), which is zero for affine maps.
    """
    a, b, c, d = coeffs
    det = a * d - b * c
    if det == 0.0:
        raise DomainError("mobius map requires ad - bc != 0")
    dom = (-np.inf, np.inf) if c == 0.0 else (-d / c, np.inf)

    def ev(x):
        x = np.asarray(x, dtype=float)
        return (a * x + b) / (c * x + d)

    def ev1(x):
        x = np.asarray(x, dtype=float)
        return det / (c * x + d) ** 2

    def ev2(x):
        x = np.asarray(x, dtype=float)
        return -2 * c * det / (c * x + d) ** 3

    def pre(x):
        x = np.asarray(x, dtype=float)
        return -2 * c / (c * x + d)

    m = SmoothMap(
        domain=dom, eval=ev, d1=ev1, d2=ev2,
        pre=_flat if c == 0.0 else pre, schw=_flat,
        descriptor={"kind": "mobius", "a": a, "b": b, "c": c, "d": d},
    )
    _fd_cross_check(m)
    return m


def reciprocal_map() -> SmoothMap:
    """1/x on (0, inf) -- alias for mobius (0,1,1,0)."""
    return mobius_map((0.0, 1.0, 1.0, 0.0))


def affine_map(slope: float, intercept: float) -> SmoothMap:
    """slope*x + intercept on the whole line: mobius (slope, intercept, 0, 1)."""
    return mobius_map((float(slope), float(intercept), 0.0, 1.0))


def compose(outer: SmoothMap, inner: SmoothMap) -> SmoothMap:
    """outer after inner, derivatives via the exact chain rule.

    T_{outer o inner} = T_outer(inner) inner' + T_inner and
    S_{outer o inner} = S_outer(inner) inner'^2 + S_inner, which are inner's
    own evaluators when outer is affine (S_inner when outer is Moebius).

    The range of inner must lie in the domain of outer; this is spot-checked
    at construction on interior probe points.
    """
    lo, hi = inner.domain
    a = lo if np.isfinite(lo) else min(hi, 0.0) - 2.0 if np.isfinite(hi) else -2.0
    b = hi if np.isfinite(hi) else max(a + 2.0, 3.0)
    probes = a + (b - a) * np.linspace(0.02, 0.98, 9)
    if not np.all(outer.contains(inner.eval(probes))):
        raise DomainError(
            f"range of inner map {inner.descriptor} escapes domain of outer {outer.descriptor}"
        )

    def ev(x):
        return outer.eval(inner.eval(x))

    def ev1(x):
        return outer.d1(inner.eval(x)) * inner.d1(x)

    def ev2(x):
        u, u1, u2 = inner.eval(x), inner.d1(x), inner.d2(x)
        return outer.d2(u) * u1 ** 2 + outer.d1(u) * u2

    def pre(x):
        return outer.pre(inner.eval(x)) * inner.d1(x) + inner.pre(x)

    def schw(x):
        return outer.schw(inner.eval(x)) * inner.d1(x) ** 2 + inner.schw(x)

    m = SmoothMap(
        domain=inner.domain, eval=ev, d1=ev1, d2=ev2,
        pre=inner.pre if outer.pre is _flat else pre,
        schw=inner.schw if outer.schw is _flat else schw,
        descriptor={"kind": "compose", "outer": outer.descriptor, "inner": inner.descriptor},
    )
    _fd_cross_check(m)
    return m


def from_descriptor(desc: dict) -> SmoothMap:
    """Build a map from a config descriptor (kind + parameters)."""
    if not isinstance(desc, dict):
        raise ConfigError(f"map descriptor must be an object, got {desc!r}")
    kind = desc.get("kind")
    if kind == "power_law":
        return power_law_map(desc["alpha"], desc.get("xi", 0.0))
    if kind == "log":
        return log_map(desc.get("xi", 0.0))
    if kind == "mobius":
        return mobius_map((desc["a"], desc["b"], desc["c"], desc["d"]))
    if kind == "reciprocal":
        return reciprocal_map()
    if kind == "compose":
        return compose(from_descriptor(desc["outer"]), from_descriptor(desc["inner"]))
    raise ConfigError(f"unknown map kind {kind!r}")


def pre_schwarzian(f: SmoothMap, x) -> np.ndarray:
    """T_f(x) = f''(x)/f'(x)."""
    return f.pre(f.require(x))


def schwarzian(f: SmoothMap, x) -> np.ndarray:
    """S_f(x) = f'''/f' - (3/2)(f''/f')^2."""
    return f.schw(f.require(x))


def schwarzian_process(f: SmoothMap, path) -> np.ndarray:
    """The multiplicative functional sqrt(f'(X_0)/f'(X_t)) * exp(1/4 int S_f(X) du).

    The integral is accumulated by the trapezoidal rule on the path grid,
    with quadratic variation taken as d<X,X> = dt (every law simulated in
    this package has unit diffusion coefficient). The value at t=0 is
    exactly 1. If the path exits the domain of f the series is truncated at
    the last in-domain node.

    Returns an array aligned to the path's grid nodes, possibly shorter when
    truncated.
    """
    X = np.asarray(path.X, dtype=float)
    inside = np.atleast_1d(f.contains(X))
    if not inside[0]:
        raise DomainError("path starts outside the domain of f")
    if not np.all(inside):
        n = int(np.argmin(inside))  # first exit node
        X = X[:n]
    t, S = path.grid.nodes[: len(X)], schwarzian(f, X)
    # scipy's cumulative_trapezoid, in its order of operations
    integral = np.concatenate([[0.0], np.cumsum(np.diff(t) * (S[1:] + S[:-1]) / 2.0)])
    out = multiplicative_functional(f, X[0], X, integral)
    out[0] = 1.0
    return out


def multiplicative_functional(f: SmoothMap, x0, x, integral) -> np.ndarray:
    """sqrt(f'(x0)/f'(x)) * exp(integral / 4): the functional at a node where
    the path from x0 is at x, given int_0^t S_f(X_u) du up to it."""
    return np.sqrt(f.d1(x0) / f.d1(x)) * np.exp(0.25 * integral)
