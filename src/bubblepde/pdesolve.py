"""Backward finite differences for v_t = -1/2 sigma^2(y) v_yy on (0, cap],
with interchangeable boundary schemes: the floor-anchored scheme fed by a
Monte Carlo boundary table, three truncation-based rivals, and a naive
Dirichlet diagnostic that deliberately picks up the wrong (linear) solution.

Also houses the space transform f of a power volatility sigma in closed
form (f' o f^{-1} = -sigma), and the integral test telling strict local
martingales from true ones.
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


# Doubling panels of _doubling_tail, and the median ratio of its last panel
# increments below which the tail converges.
_TAIL_PANELS = 60
_TAIL_RATIO = 0.999


def _doubling_tail(func: Callable, start: float):
    """Integrate func over [start, inf) by _TAIL_PANELS doubling panels
    [2^k, 2^k+1)*start and classify the tail: returns (converges: bool,
    partial_sum).

    func takes an array of points.  Each panel is one 16-node Gauss-Legendre
    rule: a singularity of func at y <= 0 lies at t <= -3 in the panel's
    [-1, 1] variable, outside the Bernstein ellipse of radius 5.8, so the rule
    errs by about 5.8^-32 = 1e-24 relative.

    The tail is declared convergent when panel increments either fall below
    an absolute floor or keep shrinking geometrically (ratio < _TAIL_RATIO);
    constant or growing increments mean divergence.
    """
    t, w = np.polynomial.legendre.leggauss(16)
    lo = start * 2.0 ** np.arange(_TAIL_PANELS)
    incs = 0.5 * lo * (func(lo[:, None] * (1.5 + 0.5 * t)) @ w)
    total = float(np.sum(incs))
    tail = incs[-8:]
    floor = 1e-13 * max(1.0, abs(total))
    if tail[-1] < floor:
        return True, total
    ratios = tail[1:] / np.where(tail[:-1] == 0, 1.0, tail[:-1])
    r = float(np.median(ratios))
    return (0 < r < _TAIL_RATIO), total


def is_strict_local_martingale(sigma) -> bool:
    """True when the integral of y / sigma(y)^2 over [1, inf) is finite --
    the criterion separating bubble dynamics (strict local martingale price)
    from true-martingale dynamics."""
    s = _sigma_callable(sigma)
    converges, _ = _doubling_tail(lambda y: y / s(y) ** 2, 1.0)
    return converges


def f_from_sigma(sigma) -> SmoothMap:
    """The decreasing space transform f of a power sigma(y) = a*y^p, p > 1,
    in closed form: f^{-1}(y) = integral_y^inf dy'/sigma(y') gives
    f(x) = (a(p-1))^{1/(1-p)} * x^{1/(1-p)}, so f'(f^{-1}(y)) = -sigma(y).

    Raises ConfigError for any other sigma, a callable or a descriptor of
    another kind, and DomainError when p <= 1: the tail integral of 1/sigma
    diverges, so no f^{-1} exists (e.g. sigma(y) = y).
    """
    if not (isinstance(sigma, dict) and sigma.get("kind") == "power"):
        raise ConfigError("the space transform needs a power sigma "
                          f"descriptor, got {sigma!r}")
    a, p = _power_sigma(sigma)
    if not p > 1:
        raise DomainError(
            f"tail integral of 1/sigma diverges for exponent {p} <= 1; "
            "no space transform exists")
    alpha = 1.0 / (1.0 - p)
    scale = (a * (p - 1.0)) ** alpha
    return compose(affine_map(scale, 0.0), power_law_map(alpha))


# ---------------------------------------------------------------------------
# Grids and schemes.

def _log_nodes(lo: float, hi: float, n: int) -> np.ndarray:
    """n log-uniform nodes from lo to hi.  The top node is hi exactly, which
    exp(log hi) misses by an ulp at some hi, so that a price at the cap lies
    on the grid."""
    if not 0 < lo < hi:
        raise ConfigError("geometric grid needs 0 < lo < hi")
    y = np.exp(np.linspace(np.log(lo), np.log(hi), n))
    y[-1:] = hi
    return y


@dataclass(frozen=True)
class SpaceGrid:
    """Strictly increasing finite price-space nodes y_0 < ... < y_M, M >= 3."""

    nodes: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.nodes, dtype=float)
        if y.ndim != 1 or len(y) < 4:
            raise ConfigError("space grid needs at least 4 nodes")
        bad = np.flatnonzero(~np.isfinite(y))
        if bad.size:
            i = int(bad[0])
            raise ConfigError(f"space grid node i={i} is not finite: {y[i]}")
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
        return cls(_log_nodes(lo, hi, int(m) + 1))

    @classmethod
    def geometric_with_zero(cls, lo: float, hi: float, m: int) -> "SpaceGrid":
        """As geometric, but with an explicit y = 0 node for schemes whose
        domain is [0, n]."""
        return cls(np.concatenate([[0.0], _log_nodes(lo, hi, int(m))]))

    @property
    def m(self) -> int:
        return len(self.nodes) - 1

    def interp(self, values: np.ndarray, y):
        """Linear interpolation at y of the nodal values; DomainError when y
        lies outside the grid or is not finite."""
        yn, ys = self.nodes, np.atleast_1d(np.asarray(y, dtype=float))
        bad = ys[~((ys >= yn[0]) & (ys <= yn[-1]))]
        if bad.size:
            raise DomainError(f"y={float(bad[0])!r} outside the space grid "
                              f"[{float(yn[0])!r}, {float(yn[-1])!r}] or not finite")
        out = np.interp(y, yn, values)
        return float(out) if np.ndim(y) == 0 else out


_DEFAULT_M = 800
_DEFAULT_STEPS = 2048
_LO_FRAC = 1e-5  # default bottom node as a fraction of the cap
# Relative change of dt below which solve keeps its step factors: roundoff in
# the grid nodes, not a new step size.
_DT_REFACTOR = 1e-12


class Scheme:
    """The boundary-scheme protocol the solver reads.  Each scheme has a
    `kind` name, a `cap` (the top node y_M), `convection` and `neumann`
    flags, and the `grid` and `rows` hooks below; corner_defect reads its
    boundary off the same rows."""

    convection = False  # True: solve the convection form for w = v / y
    neumann = False  # True: the cap row is v_M - v_{M-1} = top datum

    def grid(self, m: int) -> SpaceGrid:
        """The default grid: a y = 0 node, then geometric nodes from
        cap * _LO_FRAC up to the cap."""
        return SpaceGrid.geometric_with_zero(self.cap * _LO_FRAC, self.cap, m)

    def rows(self, payoff: PayoffSpec, y: np.ndarray, T: float,
             times: TimeGrid) -> tuple:
        """Boundary data on nodes y over times: (terminal datum, bottom
        value, top-row datum at each time node -- the step that solves for
        node k takes entry k, and the last is the datum at maturity).  Here
        the payoff itself, payoff(0) and a zero top datum."""
        return (np.asarray(payoff(y), dtype=float), float(payoff(0.0)),
                np.zeros(len(times.nodes)))


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
        """fundraiser_grid under the scheme's cap."""
        return fundraiser_grid(self.cap, m)

    def rows(self, payoff, y, T, times):
        if y[0] <= 0:
            raise ConfigError("the floor-anchored scheme lives on y > 0")
        if not self.theta.covers(T):
            raise ConfigError(
                f"theta table covers tau up to {self.theta.taus[-1]}, need {T}")
        v, bottom, _ = super().rows(payoff, y, T, times)
        # a time grid may end within roundoff past T: its last tau is 0
        taus = np.maximum(T - times.nodes, 0.0)
        return v, bottom, self.theta.interpolator()(taus)


def fundraiser_grid(cap: float, m: int) -> SpaceGrid:
    """The floor-anchored scheme's grid under cap: geometric nodes from
    cap * _LO_FRAC up to the cap, no y = 0 node."""
    return SpaceGrid.geometric(cap * _LO_FRAC, cap, m)


def check_price_point(grid: SpaceGrid, y: float) -> None:
    """Refuse (ConfigError) a price point y below grid node 1, the first
    node the march solves.  Node 0 holds the bottom value payoff(0) whatever
    the boundary data, so a price read below node 1 leans on it: on the
    fundraiser grid, which starts at f(j) * _LO_FRAC, a floor j so deep
    that its bottom node reaches f(x0) prices payoff(0), and a deeper one
    leaves f(x0) off the grid."""
    if not y >= grid.nodes[1]:
        raise ConfigError(
            f"the price point y={y!r} lies below y={float(grid.nodes[1])!r}, "
            "the first node the PDE solves; the node below holds payoff(0)")


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


@dataclass(frozen=True)
class TaperedTerminalScheme(_TruncatedScheme):
    """Truncate at y = n, replace the terminal datum by a continuous taper:
    payoff on [0, n/2], linear to 0 at n; Dirichlet 0 at the cap."""

    kind = "tapered_terminal"

    def rows(self, payoff, y, T, times):
        _, bottom, zero = super().rows(payoff, y, T, times)
        return _taper(payoff, self.n, y), bottom, zero


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
        return v, 0.0, np.zeros(len(times.nodes))


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
        return v, bottom, np.full(len(times.nodes), float(payoff(self.cap)))


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
    its terminal datum v, bottom value, top-row datum at each time node,
    interior stencil rows (a, b, c) and their symmetric form (see
    _symmetric): which interior rows are live, the scale of each and the
    symmetric coupling of each pair of neighbours."""

    scheme: Scheme
    grid: SpaceGrid
    v: np.ndarray
    bottom: float
    top: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    live: np.ndarray
    scale: np.ndarray
    off: np.ndarray


# |log D| at most this keeps the scale D and 1/D normal doubles
_LOG_SCALE_MAX = -float(np.log(np.finfo(float).tiny))


def _symmetric(a: np.ndarray, c: np.ndarray, y: np.ndarray) -> tuple:
    """The symmetric form of a block's interior stencil rows: (live, scale,
    off) over its interior nodes 1 .. M - 1.

    A row whose stencil is all zero (sigma^2 underflows there) is not live:
    like a Dirichlet row it holds its terminal datum.  Live neighbours i and
    i + 1 couple when c_i > 0 and a_{i+1} > 0, and the scale D with D_{i+1}
    / D_i = sqrt(c_i / a_{i+1}) makes D (I - thdt L) D^-1 symmetric, with
    off-diagonal -thdt * off_i, off_i = sqrt(c_i) sqrt(a_{i+1}).  A coupling
    one way only has no symmetric form: it raises NumericsError naming the
    node whose coefficient is 0.

    log D is summed along each chain of coupled rows and centred on the
    midpoint of its range.  Under the diffusion stencil D_i^2 is (y_{i+1} -
    y_{i-1}) / sigma^2(y_i) times a constant per chain, so log D spans half
    the spread of log sigma^2 (at most ln(1.8e308 / 4.9e-324) = 1454) and of
    the log node gaps (a factor under 1e5 on a scheme's default grid, 11.5):
    centred, |log D| < 367 and D is finite for any sigma.  A hand-built grid
    whose gaps span some 600 decades could leave the double range, and that
    raises NumericsError.
    """
    live = (a > 0) | (c > 0)
    up, down = c[:-1] > 0, a[1:] > 0
    pair = live[:-1] & live[1:]
    one_sided = np.flatnonzero(pair & (up != down))
    if len(one_sided):
        j = int(one_sided[0])
        i = j + 2 if up[j] else j + 1  # the node of the zero coefficient
        raise NumericsError(
            f"one-sided stencil coupling at node i={i}, y={y[i]:.6g}: the "
            f"step matrix has no symmetric form")
    link = pair & up & down
    step = np.zeros(len(link))
    step[link] = 0.5 * (np.log(c[:-1][link]) - np.log(a[1:][link]))
    log_d = np.concatenate([[0.0], np.cumsum(step)])
    starts = np.flatnonzero(np.concatenate([[True], ~link]))
    mid = (np.maximum.reduceat(log_d, starts)
           + np.minimum.reduceat(log_d, starts)) / 2
    log_d -= np.repeat(mid, np.diff(np.append(starts, len(log_d))))
    scale = np.exp(np.where(np.abs(log_d) <= _LOG_SCALE_MAX, log_d, np.inf))
    _require_finite("symmetrising scale", scale, y, first=1)
    off = np.where(link, np.sqrt(c[:-1]) * np.sqrt(a[1:]), 0.0)
    return live, scale, off


@dataclass(frozen=True)
class _Stack:
    """Blocks concatenated into one block-diagonal symmetric tridiagonal
    system in the scaled unknowns u = D v of their live interior rows.

    It holds the stacked node of each unknown (`cols`, a slice when they
    are contiguous), its scale D, the diagonal and off-diagonal of the
    symmetric operator D L D^-1 (a Neumann cap row folded into the last
    diagonal entry, a 0 across each junction and each break), the nodes
    that hold a datum (bottom and dead rows) with their data, each block's
    top node and the Neumann ones among them, each top-row datum at the
    time nodes the steps solve for (all but maturity), and what
    the neighbours that are not unknowns add to each step's rhs: `src[k]`
    at the unknowns `src_rows`."""

    cols: slice | np.ndarray
    scale: np.ndarray
    diag: np.ndarray
    off: np.ndarray
    fixed: np.ndarray
    held: np.ndarray
    tops: np.ndarray
    ntops: np.ndarray
    top: np.ndarray
    src_rows: np.ndarray
    src: np.ndarray

    @classmethod
    def of(cls, blocks, th: float, dts: np.ndarray) -> "_Stack":
        """The stack of blocks under theta-weight th, whose step k has the
        step size dts[k]."""
        sizes = np.array([len(blk.v) for blk in blocks])
        bottoms = np.cumsum(sizes) - sizes
        tops = bottoms + sizes - 1
        n_nodes = int(sizes.sum())
        live = np.zeros(n_nodes, dtype=bool)
        scale, diag, off = np.ones(n_nodes), np.zeros(n_nodes), np.zeros(n_nodes)
        below, above = np.zeros(n_nodes), np.zeros(n_nodes)
        neumann = np.array([blk.scheme.neumann for blk in blocks])
        for blk, lo, hi in zip(blocks, bottoms, tops):
            live[lo + 1:hi] = blk.live
            scale[lo + 1:hi] = blk.scale
            diag[lo + 1:hi] = blk.b
            if blk.scheme.neumann:  # v_M = v_{M-1} + datum
                diag[hi - 1] += blk.c[-1]
            off[lo + 1:hi - 1] = blk.off  # off[i] couples nodes i and i + 1
            below[lo + 1:hi] = blk.a
            above[lo + 1:hi] = blk.c
        v = np.concatenate([blk.v for blk in blocks])
        held = v.copy()
        held[bottoms] = [blk.bottom for blk in blocks]
        top = np.column_stack([blk.top[:-1] for blk in blocks])
        is_top = np.zeros(n_nodes, dtype=bool)
        is_top[tops] = True
        cols = np.flatnonzero(live)

        # Each unknown next to a node that is not one takes the coupling to
        # that node's datum into its rhs, both halves of the theta step:
        # the datum at the step's time node and at the one before it (on
        # the first step the terminal datum; for a Neumann cap, whose
        # v_{M-1} part is folded into the diagonal, v_M - v_{M-1}).
        lo_at = cols[~live[cols - 1]]
        hi_at = cols[~live[cols + 1]]
        at = np.concatenate([lo_at, hi_at])
        nodes = np.concatenate([lo_at - 1, hi_at + 1])
        coef = scale[at] * np.concatenate([below[lo_at], above[hi_at]])
        new = np.tile(held[nodes], (len(dts), 1))
        blk_of = np.searchsorted(bottoms, nodes, side="right") - 1
        new[:, is_top[nodes]] = top[:, blk_of[is_top[nodes]]]
        first = v[nodes]
        cap = is_top[nodes] & neumann[blk_of]
        first[cap] -= v[nodes[cap] - 1]
        old = np.vstack([new[1:], first])
        dt = dts[:, None]
        rows, where = np.unique(at, return_inverse=True)
        src = np.zeros((len(dts), len(rows)))
        np.add.at(src, (slice(None), where),
                  coef * (th * dt * new + (1 - th) * dt * old))

        contiguous = len(cols) and cols[-1] - cols[0] + 1 == len(cols)
        return cls(cols=slice(cols[0], cols[-1] + 1) if contiguous else cols,
                   scale=scale[cols], diag=diag[cols], off=off[cols[:-1]],
                   fixed=np.flatnonzero(~live & ~is_top),
                   held=held[~live & ~is_top], tops=tops,
                   ntops=tops[neumann], top=top,
                   src_rows=np.searchsorted(cols, rows), src=src)

    def unscale(self, rows: np.ndarray) -> None:
        """Turn stacked rows, whose unknown columns hold u of the time nodes
        0, 1, ..., into v: u / D there, and each other node's datum."""
        rows[:, self.cols] /= self.scale
        rows[:, self.fixed] = self.held
        rows[:, self.tops] = self.top[:len(rows)]
        rows[:, self.ntops] += rows[:, self.ntops - 1]


def _factor_step(thdt: float, stack: _Stack) -> Callable:
    """LDL^T-factor the implicit step matrix I - thdt * (diag, off) of a
    stack and return rhs -> (solution, info), the solution written over
    rhs.

    The matrix is similar to the interior rows of I - thdt L, which are
    diagonally dominant with a positive diagonal, so it is symmetric
    positive definite and dpttrf needs no pivoting.  Every entry joining two
    blocks is 0, so each block gets the arithmetic of its own system, bit
    for bit.
    """
    from scipy.linalg.lapack import dpttrf, dpttrs

    d, e, info = dpttrf(1.0 - thdt * stack.diag, -thdt * stack.off,
                        overwrite_d=1, overwrite_e=1)
    _lapack_ok(info, thdt)
    return partial(dpttrs, d, e, overwrite_b=1)


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


def _check_corners(T: float, pairs) -> None:
    """The checks of solve that the corner (t = T, y = cap) of each
    (scheme, grid) of pairs needs: T > 0 and the grid ending at the cap."""
    if T <= 0:
        raise ConfigError("T must be positive")
    for scheme, grid in pairs:
        top, cap = grid.nodes[-1], scheme.cap
        if abs(top - cap) > 1e-9 * max(1.0, cap):
            raise ConfigError(
                f"grid must end at the scheme cap {cap}, got {top}")


def _setup(sigma, payoff: PayoffSpec, T: float, pairs,
           times: Optional[TimeGrid], theta_weight: float):
    """Every check solve makes, then (times, a _Block of each (scheme, grid)
    of pairs); times defaults to _DEFAULT_STEPS uniform steps."""
    if not 0.0 <= theta_weight <= 1.0:
        raise ConfigError("theta_weight must lie in [0, 1]")
    _check_corners(T, pairs)
    s = _sigma_callable(sigma)
    if times is None:
        times = TimeGrid.uniform(T, _DEFAULT_STEPS)
    if abs(times.T - T) > 1e-12 * max(1.0, T):
        raise ConfigError("time grid does not end at T")
    blocks = []
    for scheme, grid in pairs:
        y = grid.nodes
        v, bottom, top = scheme.rows(payoff, y, T, times)
        a, b, c = stencil(s, scheme, grid)
        _require_finite("terminal datum", v, y)
        _require_finite("top-row datum", top[:, None], y, first=grid.m,
                        t=times.nodes)
        blocks.append(_Block(scheme, grid, v, bottom, top, a, b, c,
                             *_symmetric(a, c, y)))
    return times, blocks


def _march(blocks, times: TimeGrid, th: float, history: bool) -> np.ndarray:
    """Step the blocks backward over `times` under theta-weight th, as one
    block-diagonal symmetric positive-definite tridiagonal system in the
    scaled unknowns u = D v of their live interior rows (see _Stack).

    Returns the stacked values at every time node, shape (n_t + 1, stacked
    rows), when history, else at t = 0 alone; a convection block's values
    are still w = v / y.  The rows that are not unknowns -- bottom, top and
    dead rows -- are written only into the rows returned.
    """
    n_t = times.n_steps
    # The step matrix depends on k only through dt: factor it when dt
    # changes and reuse the factors, the explicit-half coefficients and the
    # rhs terms for the run of steps that share it.  A uniform grid from
    # linspace has steps that differ in their last bits unless the step
    # count is a power of two, so only a relative move above _DT_REFACTOR
    # counts as a change.
    dts = times.dt.tolist()  # Python floats: a cheaper test per step
    for k in range(n_t - 2, -1, -1):
        if abs(dts[k] - dts[k + 1]) <= _DT_REFACTOR * dts[k + 1]:
            dts[k] = dts[k + 1]
    stack = _Stack.of(blocks, th, np.array(dts))
    v = np.concatenate([blk.v for blk in blocks])
    u = v[stack.cols] * stack.scale
    rows = np.empty((n_t + 1 if history else 1, len(v)))
    r, tmp = np.empty_like(u), np.empty(len(stack.off))
    dt_lu = None
    for k in range(n_t - 1, -1, -1) if len(u) else ():
        dt = dts[k]
        if dt != dt_lu:
            step_solve = _factor_step(th * dt, stack)
            if th < 1.0:
                explicit_diag = 1.0 + (1 - th) * dt * stack.diag
                explicit_off = (1 - th) * dt * stack.off
            dt_lu = dt
        if th < 1.0:
            np.multiply(explicit_diag, u, out=r)
            np.multiply(explicit_off, u[:-1], out=tmp)
            r[1:] += tmp
            np.multiply(explicit_off, u[1:], out=tmp)
            r[:-1] += tmp
            u, r = r, u
        u[stack.src_rows] += stack.src[k]
        u, info = step_solve(u)
        _lapack_ok(info, th * dt)
        if history:
            rows[k, stack.cols] = u
    if history:
        stack.unscale(rows[:n_t])
        rows[n_t] = v
        return rows
    rows[0, stack.cols] = u
    stack.unscale(rows)
    return rows[0]


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
    march of them all stacked that keeps no other time row.  Every entry
    joining two blocks of the stacked symmetric system is 0, so dpttrf and
    dpttrs factor and solve each block exactly as they would alone.

    A failure raises the error solve raises for the first pair that fails
    on its own: a non-finite value crosses a zero junction (0 * nan) into
    the neighbouring blocks, and a LAPACK info counts stacked unknowns.
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


def corner_defect(payoff: PayoffSpec, T: float, scheme: Scheme,
                  grid: Optional[SpaceGrid] = None) -> float:
    """Mismatch between the terminal datum and the boundary datum at the
    space-time corner (t = T, y = cap), both read off the rows the solver
    steps: |v_M - datum| under a Dirichlet cap row, and the one-sided slope
    |v_M - v_{M-1} - datum| / (y_M - y_{M-1}) under a Neumann one.  The
    instability driver of the truncation schemes, zero by construction for
    the floor-anchored scheme.  A payoff or table the scheme refuses raises
    the ConfigError solve raises, as do T <= 0 and a grid that does not
    end at the scheme's cap."""
    if grid is None:
        grid = scheme.grid(_DEFAULT_M)
    _check_corners(T, [(scheme, grid)])
    y = grid.nodes
    v, _, top = scheme.rows(payoff, y, T, TimeGrid.uniform(T, 1))
    if scheme.neumann:
        return float(abs(v[-1] - v[-2] - top[-1]) / (y[-1] - y[-2]))
    return float(abs(v[-1] - top[-1]))
