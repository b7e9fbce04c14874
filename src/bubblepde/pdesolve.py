"""Backward finite differences for v_t = -1/2 sigma^2(y) v_yy on (0, cap],
with interchangeable boundary schemes: the floor-anchored scheme fed by a
Monte Carlo boundary table, three truncation-based rivals, and a naive
Dirichlet diagnostic that deliberately picks up the wrong (linear) solution.

Also houses the bridge between the volatility function sigma and the space
transform f (f' o f^{-1} = -sigma), and the integral test telling strict
local martingales from true ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np

from .boundary import PayoffSpec, ThetaTable
from .errors import ConfigError, DomainError, NonMonotoneError, NumericsError
from .pathlab import TimeGrid
from .smoothmaps import SmoothMap, affine_map, compose, from_descriptor, power_law_map


# ---------------------------------------------------------------------------
# sigma handling.

def _power_sigma(sigma: dict) -> tuple:
    """(a, p) of the descriptor {"kind": "power", "coefficient": a,
    "exponent": p} meaning a*y**p."""
    a = float(sigma.get("coefficient", 1.0))
    p = float(sigma["exponent"])
    if not a > 0:
        raise ConfigError("sigma coefficient must be positive")
    return a, p


def _sigma_callable(sigma) -> Callable:
    """Accept either a power descriptor dict (see _power_sigma) or a plain
    callable sigma(y)."""
    if callable(sigma):
        return sigma
    if isinstance(sigma, dict) and sigma.get("kind") == "power":
        a, p = _power_sigma(sigma)
        return lambda y: a * np.asarray(y, dtype=float) ** p
    raise ConfigError(f"unsupported sigma descriptor: {sigma!r}")


def _doubling_tail(func: Callable, start: float, n_panels: int = 60,
                   ratio_cut: float = 0.999):
    """Integrate func over [start, inf) by doubling panels [2^k, 2^k+1)*start
    and classify the tail: returns (converges: bool, partial_sum).

    The tail is declared convergent when panel increments either fall below
    an absolute floor or keep shrinking geometrically (ratio < ratio_cut);
    constant or growing increments mean divergence.
    """
    from scipy.integrate import quad

    incs = []
    lo = start
    total = 0.0
    for _ in range(n_panels):
        hi = 2.0 * lo
        val, _err = quad(func, lo, hi, limit=200)
        incs.append(val)
        total += val
        lo = hi
    tail = np.array(incs[-8:])
    floor = 1e-13 * max(1.0, abs(total))
    if tail[-1] < floor:
        return True, total
    ratios = tail[1:] / np.where(tail[:-1] == 0, 1.0, tail[:-1])
    r = float(np.median(ratios))
    return (0 < r < ratio_cut), total


def is_strict_local_martingale(sigma) -> bool:
    """True when the integral of y / sigma(y)^2 over [1, inf) is finite --
    the criterion separating bubble dynamics (strict local martingale price)
    from true-martingale dynamics."""
    s = _sigma_callable(sigma)
    converges, _ = _doubling_tail(lambda y: y / s(y) ** 2, 1.0)
    return converges


def f_from_sigma(sigma) -> SmoothMap:
    """Recover the decreasing space transform f from sigma:
    f^{-1}(y) = integral_y^inf dy'/sigma(y'), so f'(f^{-1}(y)) = -sigma(y).

    Power-law sigma(y) = a*y^p (p > 1) is handled analytically:
    f(x) = (a(p-1))^{1/(1-p)} * x^{1/(1-p)}.  Other descriptors go through
    adaptive quadrature for f^{-1}, root bracketing for f, and the chain of
    sigma-derivatives (by central differences) for f'', f''' and
    T_f(x) = f''/f' = -sigma'(f(x)).

    Raises DomainError when the tail integral of 1/sigma diverges (no finite
    f^{-1} exists, e.g. sigma(y) = y).
    """
    if isinstance(sigma, dict) and sigma.get("kind") == "power":
        a, p = _power_sigma(sigma)
        if not p > 1:
            raise DomainError(
                f"tail integral of 1/sigma diverges for exponent {p} <= 1; "
                "no space transform exists")
        alpha = 1.0 / (1.0 - p)
        scale = (a * (p - 1.0)) ** alpha
        return compose(affine_map(scale, 0.0), power_law_map(alpha))

    from scipy.integrate import quad
    from scipy.optimize import brentq

    s = _sigma_callable(sigma)
    converges, _ = _doubling_tail(lambda y: 1.0 / s(y), 1.0)
    if not converges:
        raise DomainError("tail integral of 1/sigma diverges; "
                          "no space transform exists")

    def f_inv(y):
        val, _ = quad(lambda u: 1.0 / s(u), y, np.inf, limit=400)
        return val

    def f_scalar(x):
        if x <= 0:
            raise DomainError("space transform defined for x > 0")
        y_lo, y_hi = 1.0, 1.0
        while f_inv(y_lo) < x:
            y_lo /= 4.0
            if y_lo < 1e-280:
                raise NumericsError("could not bracket f(x) from below")
        while f_inv(y_hi) > x:
            y_hi *= 4.0
            if y_hi > 1e280:
                raise NumericsError("could not bracket f(x) from above")
        return brentq(lambda y: f_inv(y) - x, y_lo, y_hi, xtol=1e-14, rtol=1e-13)

    def ds(y, k):  # central-difference sigma derivatives
        h = 1e-5 * np.maximum(np.abs(y), 1.0)
        if k == 1:
            return (s(y + h) - s(y - h)) / (2 * h)
        return (s(y + h) - 2 * s(y) + s(y - h)) / h ** 2

    f_eval = np.vectorize(f_scalar, otypes=[float])

    def d1(x):
        return -s(f_eval(x))

    def d2(x):
        y = f_eval(x)
        return ds(y, 1) * s(y)

    def d3(x):
        y = f_eval(x)
        return -(ds(y, 2) * s(y) + ds(y, 1) ** 2) * s(y)

    def pre(x):
        return -ds(f_eval(x), 1)

    return SmoothMap(domain=(0.0, np.inf), eval=f_eval, d1=d1, d2=d2, d3=d3,
                     pre=pre, sign=-1.0, descriptor={"kind": "from_sigma",
                                            "sigma": getattr(sigma, "__name__", "callable")})


# ---------------------------------------------------------------------------
# Grids and schemes.

@dataclass(frozen=True)
class SpaceGrid:
    """Strictly increasing price-space nodes y_0 < ... < y_M, M >= 3."""

    nodes: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.nodes, dtype=float)
        if y.ndim != 1 or len(y) < 4:
            raise ConfigError("space grid needs at least 4 nodes")
        if np.any(np.diff(y) <= 0):
            raise ConfigError("space grid must be strictly increasing")
        object.__setattr__(self, "nodes", y)

    @classmethod
    def uniform(cls, lo: float, hi: float, m: int) -> "SpaceGrid":
        return cls(np.linspace(lo, hi, int(m) + 1))

    @classmethod
    def geometric(cls, lo: float, hi: float, m: int) -> "SpaceGrid":
        """Log-uniform nodes: resolution concentrates toward y = 0 where the
        degenerate coefficient needs it."""
        if not 0 < lo < hi:
            raise ConfigError("geometric grid needs 0 < lo < hi")
        return cls(np.exp(np.linspace(np.log(lo), np.log(hi), int(m) + 1)))

    @classmethod
    def geometric_with_zero(cls, lo: float, hi: float, m: int) -> "SpaceGrid":
        """As geometric, but with an explicit y = 0 node for schemes whose
        domain is [0, n]."""
        if not 0 < lo < hi:
            raise ConfigError("geometric grid needs 0 < lo < hi")
        inner = np.exp(np.linspace(np.log(lo), np.log(hi), int(m)))
        return cls(np.concatenate([[0.0], inner]))

    @property
    def m(self) -> int:
        return len(self.nodes) - 1

    def interp(self, values: np.ndarray, y):
        """Linear interpolation at y of the nodal values; DomainError when y
        lies outside the grid."""
        yn = self.nodes
        if np.any(np.asarray(y) < yn[0]) or np.any(np.asarray(y) > yn[-1]):
            raise DomainError("y outside the space grid")
        out = np.interp(y, yn, values)
        return float(out) if np.ndim(y) == 0 else out


_DEFAULT_M = 800
_DEFAULT_STEPS = 2048
_LO_FRAC = 1e-5  # default bottom node as a fraction of the cap
# Relative change of dt below which solve keeps its LU factors: roundoff in
# the grid nodes, not a new step size.
_DT_REFACTOR = 1e-12


class Scheme:
    """The boundary-scheme protocol the solver reads.  Each scheme has a
    `kind` name, a `cap` (the top node y_M), `convection` and `neumann`
    flags, the `grid` and `rows` hooks below, and its own `corner_defect`."""

    convection = False  # True: solve the convection form for w = v / y
    neumann = False  # True: the cap row is v_M - v_{M-1} = top datum

    def grid(self, m: int) -> SpaceGrid:
        """The default grid: a y = 0 node, then geometric nodes from
        cap * _LO_FRAC up to the cap."""
        return SpaceGrid.geometric_with_zero(self.cap * _LO_FRAC, self.cap, m)

    def rows(self, payoff: PayoffSpec, y: np.ndarray, T: float,
             times: TimeGrid) -> tuple:
        """Boundary data on nodes y over times: (terminal datum, bottom
        value, top-row datum of each step k -- the step that solves for time
        node k).  Here the payoff itself, payoff(0) and a zero top datum."""
        return (np.asarray(payoff(y), dtype=float), float(payoff(0.0)),
                np.zeros(times.n_steps))


@dataclass(frozen=True)
class FundraiserScheme(Scheme):
    """Floor-anchored scheme: solve on (0, f(j)] with the cap row pinned to
    the Monte Carlo boundary table Theta(T - t, j)."""

    j: float
    theta: ThetaTable
    kind = "fundraiser"

    def __post_init__(self):
        if self.j <= 0:
            raise ConfigError("floor j must be positive")
        if abs(self.theta.j - self.j) > 1e-12 * max(1.0, self.j):
            raise ConfigError(
                f"theta table was computed for j={self.theta.j}, scheme has j={self.j}")

    @cached_property
    def cap(self) -> float:
        # The cap is f(j) for the map the theta table was built with; taking
        # it from the table (rather than re-deriving f from sigma) keeps the
        # domain consistent with the boundary data by construction.  Built
        # once per scheme: building the map checks each of its parts.
        return float(from_descriptor(self.theta.map_descriptor)(self.j))

    def grid(self, m: int) -> SpaceGrid:
        """Geometric nodes from cap * _LO_FRAC up to the cap, no y = 0 node."""
        return SpaceGrid.geometric(self.cap * _LO_FRAC, self.cap, m)

    def rows(self, payoff, y, T, times):
        if y[0] <= 0:
            raise ConfigError("the floor-anchored scheme lives on y > 0")
        if not self.theta.covers(T):
            raise ConfigError(
                f"theta table covers tau up to {self.theta.taus[-1]}, need {T}")
        v, bottom, _ = super().rows(payoff, y, T, times)
        return v, bottom, self.theta.interpolator()(T - times.nodes[:-1])

    def corner_defect(self, payoff: PayoffSpec, y: np.ndarray) -> float:
        return abs(float(payoff(self.cap)) - float(self.theta.theta[0]))


@dataclass(frozen=True)
class _TruncatedScheme(Scheme):
    """A rival that truncates the domain at y = n."""

    n: float

    def __post_init__(self):
        if self.n <= 0:
            raise ConfigError("cap n must be positive")

    @property
    def cap(self) -> float:
        return float(self.n)


@dataclass(frozen=True)
class NeumannCapScheme(_TruncatedScheme):
    """Truncate at y = n and impose v_y(t, n) = 0 by the first-order row
    v_M - v_{M-1} = 0 (the inherited zero top datum).  The row keeps every
    implicit step matrix a tridiagonal M-matrix, so the scheme is monotone
    and obeys the discrete maximum principle."""

    kind = "neumann_cap"
    neumann = True

    def corner_defect(self, payoff: PayoffSpec, y: np.ndarray) -> float:
        """The payoff's one-sided slope at the cap against the zero the
        Neumann row imposes."""
        h = np.asarray(payoff(y[-2:]), dtype=float)
        return abs(h[1] - h[0]) / (y[-1] - y[-2])


@dataclass(frozen=True)
class TaperedTerminalScheme(_TruncatedScheme):
    """Truncate at y = n, replace the terminal datum by a continuous taper:
    payoff on [0, n/2], linear to 0 at n; Dirichlet 0 at the cap."""

    kind = "tapered_terminal"

    def rows(self, payoff, y, T, times):
        _, bottom, zero = super().rows(payoff, y, T, times)
        return _taper(payoff, self.n, y), bottom, zero

    def corner_defect(self, payoff: PayoffSpec, y: np.ndarray) -> float:
        return abs(float(_taper(payoff, self.n, np.array([self.cap]))[0]) - 0.0)


@dataclass(frozen=True)
class TransformedCauchyScheme(_TruncatedScheme):
    """Solve the convection form w_t = -1/2 sigma^2 w_yy - (sigma^2/y) w_y
    for w = v/y with terminal payoff(y)/y and Dirichlet 0 at both ends;
    report v = y * w.  Needs payoff(0) = 0 with bounded payoff(y)/y."""

    kind = "transformed_cauchy"
    convection = True

    def rows(self, payoff, y, T, times):
        v = np.zeros_like(y)
        v[1:] = np.asarray(payoff(y[1:]), dtype=float) / y[1:]
        if not np.all(np.isfinite(v)) or v.max() > 1e12:
            raise ConfigError(
                "transformed scheme needs payoff(y)/y bounded near 0")
        return v, 0.0, np.zeros(times.n_steps)

    def corner_defect(self, payoff: PayoffSpec, y: np.ndarray) -> float:
        return abs(float(payoff(self.cap)) / self.cap - 0.0)


@dataclass(frozen=True)
class NaiveDirichletScheme(Scheme):
    """Diagnostic: Dirichlet v(t, cap) = payoff(cap).  For the forward payoff
    this locks onto the linear solution v = y, demonstrating that the Cauchy
    problem has more than one solution."""

    cap: float
    kind = "naive_dirichlet"

    def __post_init__(self):
        if self.cap <= 0:
            raise ConfigError("cap must be positive")

    def rows(self, payoff, y, T, times):
        v, bottom, _ = super().rows(payoff, y, T, times)
        return v, bottom, np.full(times.n_steps, float(payoff(self.cap)))

    def corner_defect(self, payoff: PayoffSpec, y: np.ndarray) -> float:
        return abs(float(payoff(self.cap)) - float(payoff(self.cap)))


@dataclass(frozen=True)
class PdeSolution:
    grid: SpaceGrid
    times: TimeGrid
    values: np.ndarray  # (len(times.nodes), len(grid.nodes))

    def value_at(self, t: float, y) -> float:
        """Bilinear interpolation of the stored solution."""
        tn = self.times.nodes
        if not tn[0] <= t <= tn[-1]:
            raise DomainError("t outside the solved time range")
        k = min(int(np.searchsorted(tn, t, side="right")) - 1, len(tn) - 2)
        w = (t - tn[k]) / (tn[k + 1] - tn[k])
        row = (1 - w) * self.values[k] + w * self.values[k + 1]
        return self.grid.interp(row, y)


# ---------------------------------------------------------------------------
# The solver.

def _taper(payoff: PayoffSpec, n: float, y: np.ndarray) -> np.ndarray:
    """Continuous piecewise-linear cut-off: payoff below n/2, straight line
    from payoff(n/2) down to 0 at n."""
    h = np.asarray(payoff(y), dtype=float)
    hmid = float(payoff(n / 2.0))
    ramp = hmid * (n - np.asarray(y, dtype=float)) / (n / 2.0)
    return np.where(y <= n / 2.0, h, np.maximum(ramp, 0.0))


def _require_finite(what: str, vals: np.ndarray, y: np.ndarray,
                    first: int = 0, t: Optional[np.ndarray] = None) -> None:
    """Raise NumericsError naming the first non-finite entry of vals, whose
    last axis runs over the nodes first, first + 1, ... and whose rows (when
    2-d) belong to the times t."""
    if np.all(np.isfinite(vals)):
        return
    *k, i = np.argwhere(~np.isfinite(vals))[0]
    i += first
    when = f" at t={t[k[0]]:.6g}" if k else ""
    raise NumericsError(
        f"non-finite {what} at node i={i}, y={y[i]:.6g}{when}")


@dataclass(frozen=True)
class _Block:
    """One (scheme, grid) problem of a march, past every check solve makes:
    its terminal datum v, bottom value, top-row datum of each step and
    interior stencil rows (a, b, c)."""

    scheme: Scheme
    grid: SpaceGrid
    v: np.ndarray
    bottom: float
    top: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


@dataclass(frozen=True)
class _Stack:
    """Blocks concatenated into one block-diagonal tridiagonal system: the
    stacked index of each block's bottom and top row, of every interior row
    and of every Neumann cap row, and the interior stencil rows."""

    bottoms: np.ndarray
    tops: np.ndarray
    inner: np.ndarray
    neumann: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    @classmethod
    def of(cls, blocks) -> "_Stack":
        sizes = np.array([len(blk.v) for blk in blocks])
        bottoms = np.cumsum(sizes) - sizes
        tops = bottoms + sizes - 1
        return cls(bottoms=bottoms, tops=tops,
                   inner=np.concatenate([np.arange(lo + 1, hi)
                                         for lo, hi in zip(bottoms, tops)]),
                   neumann=tops[[blk.scheme.neumann for blk in blocks]],
                   a=np.concatenate([blk.a for blk in blocks]),
                   b=np.concatenate([blk.b for blk in blocks]),
                   c=np.concatenate([blk.c for blk in blocks]))


def _factor_step(thdt: float, stack: _Stack) -> Callable:
    """LU-factor the implicit step matrix of a stack and return rhs ->
    (solution, info).

    A block's interior rows are I - thdt * (a, b, c), its bottom row is
    Dirichlet, and its top row is Dirichlet, v_M, or for a Neumann cap
    v_M - v_{M-1}.  Every entry joining two blocks is 0, so LAPACK never
    pivots across a junction and each block gets the arithmetic of its own
    system, bit for bit.  The tridiagonal matrix goes through
    dgttrf/dgttrs: the LAPACK arithmetic of gtsv, factor and solve split
    apart.
    """
    from scipy.linalg.lapack import dgttrf, dgttrs

    n = int(stack.tops[-1]) + 1
    lower = np.zeros(n - 1)
    lower[stack.inner - 1] = -thdt * stack.a  # lower[i] = A[i + 1, i]
    lower[stack.neumann - 1] = -1.0
    diag = np.ones(n)
    diag[stack.inner] = 1.0 - thdt * stack.b
    upper = np.zeros(n - 1)
    upper[stack.inner] = -thdt * stack.c  # upper[i] = A[i, i + 1]
    *factors, info = dgttrf(lower, diag, upper)
    _lapack_ok(info, thdt)
    return partial(dgttrs, *factors)


def _lapack_ok(info: int, thdt: float) -> None:
    """Turn a nonzero LAPACK info into NumericsError: info > 0 is a zero
    pivot (a singular step matrix), info < 0 an illegal argument."""
    if info != 0:
        raise NumericsError(
            f"LAPACK returned info={info} for the implicit step matrix at "
            f"theta_weight * dt = {thdt:.6g}")


def stencil(sigma, scheme: Scheme, grid: SpaceGrid):
    """The rows (a, b, c) of the spatial operator at the interior nodes of
    `grid`: sub-diagonal, diagonal and super-diagonal.  A non-finite entry
    raises NumericsError and a negative off-diagonal (a non-monotone
    discretization) NonMonotoneError, each naming the node."""
    s = _sigma_callable(sigma)
    y = grid.nodes
    yi = y[1:-1]
    sig2 = np.asarray(s(yi), dtype=float) ** 2
    hm = yi - y[:-2]
    hp = y[2:] - yi
    a = sig2 / (hm * (hm + hp))
    c = sig2 / (hp * (hm + hp))
    if scheme.convection:
        conv = sig2 / yi  # central-difference coefficient of w_y
        a = a - conv * hp / (hm * (hm + hp))
        c = c + conv * hm / (hp * (hm + hp))
    b = -(a + c)  # the operator annihilates constants
    # b is finite exactly when a and c both are
    _require_finite("diffusion coefficient", b, y, first=1)
    bad = np.where((a < 0) | (c < 0))[0]
    if len(bad):
        i = int(bad[0]) + 1
        raise NonMonotoneError(
            f"non-monotone discretization: negative off-diagonal at node "
            f"i={i}, y={y[i]:.6g}")
    return a, b, c


def _setup(sigma, payoff: PayoffSpec, T: float, pairs,
           times: Optional[TimeGrid], theta_weight: float):
    """Every check solve makes, then (times, a _Block of each (scheme, grid)
    of pairs); times defaults to _DEFAULT_STEPS uniform steps."""
    if not 0.0 <= theta_weight <= 1.0:
        raise ConfigError("theta_weight must lie in [0, 1]")
    if T <= 0:
        raise ConfigError("T must be positive")
    s = _sigma_callable(sigma)
    if times is None:
        times = TimeGrid.uniform(T, _DEFAULT_STEPS)
    if abs(times.T - T) > 1e-12 * max(1.0, T):
        raise ConfigError("time grid does not end at T")
    blocks = []
    for scheme, grid in pairs:
        y, cap = grid.nodes, scheme.cap
        if abs(y[-1] - cap) > 1e-9 * max(1.0, cap):
            raise ConfigError(
                f"grid must end at the scheme cap {cap}, got {y[-1]}")
        v, bottom, top = scheme.rows(payoff, y, T, times)
        a, b, c = stencil(s, scheme, grid)
        _require_finite("terminal datum", v, y)
        _require_finite("top-row datum", top[:, None], y, first=grid.m,
                        t=times.nodes)
        blocks.append(_Block(scheme, grid, v, bottom, top, a, b, c))
    return times, blocks


def _march(blocks, times: TimeGrid, th: float, history: bool) -> np.ndarray:
    """Step the blocks backward over `times` under theta-weight th, as one
    block-diagonal tridiagonal system.  Returns the stacked values at every
    time node, shape (n_t + 1, stacked rows), when history, else at t = 0
    alone; a convection block's values are still w = v / y."""
    stack = _Stack.of(blocks)
    n_t = times.n_steps
    dts = times.dt.tolist()  # Python floats: a cheaper test per step
    bottom = np.array([blk.bottom for blk in blocks])
    top = np.column_stack([blk.top for blk in blocks])
    v = np.concatenate([blk.v for blk in blocks])
    if history:
        out = np.empty((n_t + 1, len(v)))
        out[n_t] = v
    if th < 1.0:
        # the stencil rows on every stacked row but the first and the last,
        # 0 on the bottom and top rows, whose rhs is overwritten
        coef = np.zeros((3, len(v)))
        coef[:, stack.inner] = stack.a, stack.b, stack.c
        a, b, c = coef[:, 1:-1]
    rhs = np.empty(len(v))
    # The step matrix depends on k only through dt: factor it when dt
    # changes and reuse the factors for the run of steps that share it.  A
    # uniform grid from linspace has steps that differ in their last bits
    # unless the step count is a power of two, so only a relative move
    # above _DT_REFACTOR counts as a change.
    dt_lu = None
    for k in range(n_t - 1, -1, -1):
        dt = dts[k]
        if dt_lu is None or abs(dt - dt_lu) > _DT_REFACTOR * dt_lu:
            step_solve = _factor_step(th * dt, stack)
            dt_lu = dt
        rhs[1:-1] = v[1:-1]
        if th < 1.0:
            rhs[1:-1] += (1 - th) * dt * (a * v[:-2] + b * v[1:-1] + c * v[2:])
        rhs[stack.bottoms] = bottom
        rhs[stack.tops] = top[k]
        v, info = step_solve(rhs)
        _lapack_ok(info, th * dt)
        if history:
            out[k] = v
    return out if history else v


def _by_block(blocks, vals: np.ndarray) -> list:
    """Each block's columns of stacked values, v = y * w for a convection
    block."""
    parts, start = [], 0
    for blk in blocks:
        part = vals[..., start:start + len(blk.v)]
        if blk.scheme.convection:
            part *= blk.grid.nodes
        parts.append(part)
        start += len(blk.v)
    return parts


def solve(sigma, payoff: PayoffSpec, T: float, scheme: Scheme,
          grid: Optional[SpaceGrid] = None, times: Optional[TimeGrid] = None,
          theta_weight: float = 1.0) -> PdeSolution:
    """Backward theta-weighted finite differences for the terminal-value
    problem v_t = -1/2 sigma^2(y) v_yy, v(T, .) = terminal datum, under the
    boundary rows of the given scheme.

    theta_weight = 1 is implicit Euler (default: unconditionally monotone),
    1/2 is Crank-Nicolson.  Off-diagonal sign violations (a non-monotone
    discretization) are rejected with the offending node named.
    """
    if grid is None:
        grid = scheme.grid(_DEFAULT_M)
    times, blocks = _setup(sigma, payoff, T, [(scheme, grid)], times,
                           theta_weight)
    values, = _by_block(blocks, _march(blocks, times, theta_weight, True))
    _require_finite("solution value", values, grid.nodes, t=times.nodes)
    return PdeSolution(grid=grid, times=times, values=values)


def solve_start(sigma, payoff: PayoffSpec, T: float, pairs, times: TimeGrid,
                theta_weight: float = 1.0) -> list:
    """The t = 0 row of solve(sigma, payoff, T, scheme, grid, times,
    theta_weight) for each (scheme, grid) of pairs, bit for bit, from one
    march of them all stacked that keeps no other time row.

    A failure raises the error solve raises for the first pair that fails
    on its own: a non-finite value crosses a zero junction (0 * nan) into
    the neighbouring blocks, and a LAPACK info counts stacked rows.
    """
    times, blocks = _setup(sigma, payoff, T, pairs, times, theta_weight)
    try:
        rows = _by_block(blocks, _march(blocks, times, theta_weight, False))
        # a value that turns non-finite stays so at every later step of the
        # march, so the t = 0 row shows any that solve's history would
        for blk, row in zip(blocks, rows):
            _require_finite("solution value", row, blk.grid.nodes)
        return rows
    except NumericsError as exc:
        stacked = exc
    for blk in blocks:
        solve(sigma, payoff, T, blk.scheme, blk.grid, times, theta_weight)
    raise stacked


def corner_defect(sigma, payoff: PayoffSpec, T: float, scheme: Scheme,
                  grid: Optional[SpaceGrid] = None) -> float:
    """Mismatch between the terminal datum and the boundary condition at the
    space-time corner (t = T, y = cap): the instability driver of the
    truncation schemes, zero by construction for the floor-anchored scheme."""
    if grid is None:
        grid = scheme.grid(_DEFAULT_M)
    return scheme.corner_defect(payoff, grid.nodes)
