"""Seeded path simulation: Wiener, Bessel-3 via the max-dual construction,
drifted unit-diffusion SDEs, and the reflected (floor-constrained) SDE with
its Euler-Maruyama scheme reflected on the exact Brownian-bridge minimum of
each step; plus path functionals.  Each law has one vectorized ensemble
runner, and each single-path simulator is a one-path call of it that records
every node, so a single path equals the same path of any ensemble by
construction.

Reproducibility contract: every path index i owns a counter-based stream
keyed by (master seed, i) -- numpy Philox -- so path i is bit-identical no
matter how an ensemble is chunked or batched, and ensemble reductions run in
fixed path-index order.  All four runners read their streams in one layout,
through one reader: each stream is read in segments of _SEGMENT steps (the
last segment may be shorter), and for each segment first its normals, one
per step, and then, for the reflected law only, one uniform per step.  The
dual with a random floor first reads the floor's uniform.  For the laws
without uniforms this is simply one standard normal per step.  The layout
is fixed by the step count alone.  A runner does not build one generator
per path: it builds one block's worth and re-keys them for each later
block, which sets exactly the state path_stream(seed, i) starts in, so the
draws and the layout are those of the per-path streams.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import DomainError
from .smoothmaps import (SmoothMap, multiplicative_functional,
                         schwarzian_integral)

# Relative guard keeping unreflected simulations off a finite domain edge.
EDGE_GUARD = 1e-12
# Ensemble runners process paths in blocks and draw one stream segment of a
# block at a time into a buffer of bounded footprint; both knobs are
# implementation constants, invisible in results thanks to the per-path
# streams.
_BLOCK = 32768
_CHUNK_BUDGET = 2 ** 22  # floats per (block x segment) buffer of draws
# Steps per segment of the stream layout (see above).  It is part of the
# layout: changing it changes every reflected path.
_SEGMENT = 512
_TILE = 64  # paths per transposed tile of a time-major draw
# Paths per chunk of change_of_measure_expectation's weights, which bounds
# the chunk's temporaries (held paths, S_f, the integral) to about 1 MB each
# at 512 steps.
_WEIGHT_ROWS = 256
# A uniform U on the 2**-53 lattice gives -log(1 - U) <= 53 ln 2, so the
# minimum of a Brownian bridge from chi to chi^ over dt stays >= 0 whenever
# chi * chi^ >= (53 ln 2 / 2) dt = 18.37 dt; 18.5 leaves room for rounding.
_BRIDGE_REACH = 18.5


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing nodes t_0 = 0 < t_1 < ... < t_N = T."""

    nodes: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.nodes, dtype=float)
        if t.ndim != 1 or len(t) < 2:
            raise DomainError("time grid needs at least two nodes")
        if t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise DomainError("time grid must start at 0 and be strictly increasing")
        object.__setattr__(self, "nodes", t)

    @classmethod
    def uniform(cls, T: float, n_steps: int) -> "TimeGrid":
        return cls(np.linspace(0.0, float(T), int(n_steps) + 1))

    @classmethod
    def clustered(cls, T: float, n_steps: int) -> "TimeGrid":
        """Nodes T*(k/N)^2: step sizes shrink toward t=0."""
        k = np.arange(int(n_steps) + 1, dtype=float)
        return cls(float(T) * (k / n_steps) ** 2)

    @property
    def T(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_steps(self) -> int:
        return len(self.nodes) - 1

    @property
    def dt(self) -> np.ndarray:
        return np.diff(self.nodes)


@dataclass(frozen=True)
class PathBundle:
    """One discretized path: values per node, optional floor series, and the
    stream identity that produced it."""

    grid: TimeGrid
    X: np.ndarray
    seed: int
    path_index: int = 0
    Jstar: Optional[np.ndarray] = None
    truncated_at: Optional[int] = None

    def stopped_at(self, node: int) -> "PathBundle":
        """The path restricted to nodes [0, node]."""
        return replace(
            self,
            grid=TimeGrid(self.grid.nodes[: node + 1]),
            X=self.X[: node + 1],
            Jstar=None if self.Jstar is None else self.Jstar[: node + 1],
            truncated_at=self.truncated_at
            if self.truncated_at is not None and self.truncated_at <= node
            else None,
        )


@ISeedSequence.register
class _PhiloxKey:
    """Hands Philox the key (seed, path_index) as is: the same stream as
    ``Philox(key=...)``, without the OS-entropy draw that constructor makes
    for a seed it then ignores (most of the cost of a path stream)."""

    __slots__ = ("seed", "index")

    def __init__(self, seed: int, index: int):
        self.seed, self.index = seed, index

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise NotImplementedError(
                f"Philox asked for {n_words} words of {np.dtype(dtype)}")
        return np.array([self.seed, self.index], dtype=np.uint64)


def path_stream(seed: int, path_index: int = 0) -> np.random.Generator:
    """The counter-based generator owned by (seed, path_index): Philox with
    key (seed mod 2**64, path_index mod 2**64) and counter 0."""
    key = _PhiloxKey(seed % 2 ** 64, path_index % 2 ** 64)
    return np.random.Generator(np.random.Philox(key))


def _rekey(gens, seed: int, first_index: int) -> None:
    """Turn gens[r] into path_stream(seed, first_index + r), in place.

    A Philox generator's whole state is its key, its counter, a 4-word
    buffer and the buffer position (plus numpy's stored half of a 64-bit
    draw), so assigning a fresh stream's state re-keys a used generator:
    the same draws as a new path_stream, for under a tenth of its cost.
    The words are Python ints in lists, which the setter reads faster than
    numpy arrays.
    """
    key = [seed % 2 ** 64, 0]
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for r, g in enumerate(gens):
        key[1] = (first_index + r) % 2 ** 64
        g.bit_generator.state = state  # the setter copies every word


def _record(record, grid: TimeGrid) -> np.ndarray:
    """The distinct recorded node indices in increasing order."""
    rec = np.unique(np.asarray(record, dtype=np.intp))
    if rec.size and (rec[0] < 0 or rec[-1] > grid.n_steps):
        raise DomainError("record index outside the grid")
    return rec


def _every_node(grid: TimeGrid) -> np.ndarray:
    return np.arange(grid.n_steps + 1)


def _guarded(domain):
    """The domain pulled in by EDGE_GUARD at each finite edge."""
    lo, hi = domain
    lo_g = lo + EDGE_GUARD * (1 + abs(lo)) if np.isfinite(lo) else -np.inf
    hi_g = hi - EDGE_GUARD * (1 + abs(hi)) if np.isfinite(hi) else np.inf
    return lo_g, hi_g


def _path_steps(seed, first_index, n_paths, n_steps, rec, bridge=False,
                lead=False):
    """The one reader of the path streams, in the layout of the module
    docstring: each stream is read a segment of _SEGMENT steps at a time,
    its normals and then, with bridge, one uniform per step; with lead, one
    uniform comes before all of them.  Paths run in blocks of at most _BLOCK,
    sized so that one segment of the block's normals and uniforms fits one
    buffer of at most _CHUNK_BUDGET floats, reused by every block and
    segment.  The generators are reused too: the first block builds its
    streams with path_stream, and each later block re-keys them (_rekey),
    so a call builds at most one block's worth.  Every law gets the same
    blocks and buffer; without bridge the uniform half of the buffer is
    never written.  (Sizing the blocks of the normal-only laws by their
    normals alone doubled those blocks, and the allocator then kept more
    memory resident between calls: peak RSS of the oracle_suite benchmark
    rose from 146 to 161 MB.)

    Yields (rows, u0, k0, steps) per block: rows slices the block out of the
    ensemble's outputs, u0 holds the leading uniform of each stream (None
    without lead), k0 is the output column of node 0 (None when node 0 is
    not in rec), and steps yields (n, z_n, u_n, k) for n = 0 ... n_steps - 1:
    the block's normals and uniforms (None without bridge) of step n and the
    output column k of node n + 1 (None when it is not recorded).
    """
    at = {int(node): k for k, node in enumerate(rec)}
    seg = min(n_steps, _SEGMENT)
    size = max(1, min(_BLOCK, _CHUNK_BUDGET // (2 * seg)))
    rows_max = min(size, n_paths)
    buf = np.empty(2 * seg * rows_max)  # one allocation, released as one
    zbuf = buf[:seg * rows_max].reshape(seg, rows_max)
    ubuf = buf[seg * rows_max:].reshape(rows_max, seg) if bridge else None
    # normals are drawn a tile of paths at a time and transposed tile by tile
    # into the time-major zbuf, to keep the copy cache-local
    tile = np.empty((min(_TILE, rows_max), seg))

    def steps(gens):
        for a in range(0, n_steps, seg):
            w = min(seg, n_steps - a)
            zs = zbuf[:w, :len(gens)]
            us = None if ubuf is None else ubuf[:len(gens), :w]
            for r0 in range(0, len(gens), _TILE):
                part = gens[r0:r0 + _TILE]
                for r, g in enumerate(part):
                    g.standard_normal(out=tile[r, :w])
                    if us is not None:
                        g.random(out=us[r0 + r])
                zs[:, r0:r0 + len(part)] = tile[:len(part), :w].T
            for n in range(a, a + w):
                yield (n, zs[n - a], None if us is None else us[:, n - a],
                       at.get(n + 1))

    pool = [path_stream(seed, first_index + r) for r in range(rows_max)]
    for start in range(0, n_paths, size):
        stop = min(start + size, n_paths)
        gens = pool[:stop - start]
        if start:
            _rekey(gens, seed, first_index + start)
        u0 = np.array([g.random() for g in gens]) if lead else None
        yield slice(start, stop), u0, at.get(0), steps(gens)


# ---------------------------------------------------------------------------
# Ensemble runners.

def wiener_ensemble(x0: float, grid: TimeGrid, n_paths: int, seed: int,
                    record, first_index: int = 0) -> np.ndarray:
    """Driftless unit-variance walks X_n = X_{n-1} + sqrt(dt_n) xi_n from x0.

    Returns values[p, k] = X at node record[k] of path first_index + p
    (record sorted and deduplicated).
    """
    rec = _record(record, grid)
    sqdt = np.sqrt(grid.dt)
    values = np.empty((n_paths, len(rec)))
    for rows, _, k0, steps in _path_steps(seed, first_index, n_paths,
                                          grid.n_steps, rec):
        X = np.full(rows.stop - rows.start, float(x0))
        if k0 is not None:
            values[rows, k0] = X
        for n, z, _, k in steps:
            X = X + sqdt[n] * z
            if k is not None:
                values[rows, k] = X
    return values


def bessel_dual_ensemble(x0: float, grid: TimeGrid, n_paths: int, seed: int,
                         record, j0: Optional[float] = None,
                         first_index: int = 0):
    """Bessel-3 through its dual walk: X* Brownian from 2 j0 - x0,
    J*_n = max(J*_{n-1}, X*_n) from j0, X = 2 J* - X*.

    With j0 = x0 -> 0 this is the classical 2*max - walk representation of
    the Bessel-3 process from 0; for fixed 0 < j0 <= x0 it realizes the
    process conditioned to have overall infimum j0.  j0=None draws each
    path's floor uniformly on (0, x0) (the overall-infimum law of the
    Bessel-3 process), giving the unconditioned process from x0.

    Returns (values, jstars): X and J* at the recorded nodes of paths
    first_index ... first_index + n_paths - 1.
    """
    if j0 is not None and not (0 < j0 <= x0):
        raise DomainError("bessel_dual_ensemble needs 0 < j0 <= x0")
    rec = _record(record, grid)
    sqdt = np.sqrt(grid.dt)
    values = np.empty((n_paths, len(rec)))
    jstars = np.empty((n_paths, len(rec)))
    # with j0=None the floor's uniform is the first variate of each stream
    for rows, u0, k0, steps in _path_steps(seed, first_index, n_paths,
                                           grid.n_steps, rec, lead=j0 is None):
        m = rows.stop - rows.start
        J = x0 * u0 if j0 is None else np.full(m, float(j0))
        Xstar = 2 * J - x0
        if k0 is not None:
            values[rows, k0] = 2 * J - Xstar
            jstars[rows, k0] = J
        for n, z, _, k in steps:
            Xstar = Xstar + sqdt[n] * z
            J = np.maximum(J, Xstar)
            if k is not None:
                values[rows, k] = 2 * J - Xstar
                jstars[rows, k] = J
    return values, jstars


def drifted_ensemble(f: SmoothMap, x0: float, grid: TimeGrid, n_paths: int,
                     seed: int, record, first_index: int = 0):
    """Euler-Maruyama for dX = -1/2 T_f(X) dt + dB, absorbing at the domain
    edge: X_n = X_{n-1} - 1/2 T_f(X_{n-1}) dt_n + sqrt(dt_n) xi_n.

    A path whose proposal exits the (guarded) domain is parked at the edge
    from that node on -- the stopped process, not an error.  A block stops
    stepping once all its paths are parked.

    Returns (values, alive): values[p, k] = X at node record[k] of path
    first_index + p, alive[p] False when the path was absorbed.
    """
    if not f.contains(x0):
        raise DomainError("x0 outside the domain of f")
    rec = _record(record, grid)
    dt = grid.dt
    sqdt = np.sqrt(dt)
    lo_g, hi_g = _guarded(f.domain)
    values = np.empty((n_paths, len(rec)))
    alive_all = np.ones(n_paths, dtype=bool)
    for rows, _, k0, steps in _path_steps(seed, first_index, n_paths,
                                          grid.n_steps, rec):
        X = np.full(rows.stop - rows.start, float(x0))
        alive = np.ones(len(X), dtype=bool)
        if k0 is not None:
            values[rows, k0] = X
        for n, z, _, k in steps:
            drift = -0.5 * f.pre(X) * dt[n]
            prop = X + drift + sqdt[n] * z
            X = np.where(alive, np.clip(prop, lo_g, hi_g), X)
            alive &= (lo_g < prop) & (prop < hi_g)
            if k is not None:
                values[rows, k] = X
            if not alive.any():
                # every path of the block is parked: X holds from here on
                values[rows, rec > n + 1] = X[:, None]
                break
        alive_all[rows] = alive
    return values, alive_all


def _bridge_drop(chi, prop, u, dt):
    """max(-m, 0) for the minimum m of the Brownian bridge from chi to prop
    over a step dt, sampled with the uniform u (Glasserman 2003, 6.4)."""
    d = prop - chi
    m = 0.5 * (chi + prop - np.sqrt(d * d - 2.0 * dt * np.log1p(-u)))
    return np.maximum(-m, 0.0)


def reflected_ensemble(f: SmoothMap, chi0: float, l0: float, grid: TimeGrid,
                       n_paths: int, seed: int, record, first_index: int = 0):
    """Reflected Euler-Maruyama for the floor-constrained SDE, reflected on
    the exact minimum of each step's Brownian bridge.

    Per step, from chi_0 = chi0 and l_0 = l0, with the drift frozen at the
    start of the step:
        proposal  chi^ = chi + dgamma - 1/2 T_f(chi + l) dt
        bridge minimum  m = (chi + chi^ - sqrt((chi^ - chi)^2 - 2 dt log(1 - U))) / 2
        dl = max(-m, 0);  chi <- chi^ + dl;  l <- l + dl
        X = chi + l,  J* = l
    dgamma = sqrt(dt) xi, and xi and the uniform U come from the path's stream
    in the reflected layout (module docstring).  m is the minimum over the
    step of the Brownian bridge from chi to chi^, so the floor level rises
    whenever the path dips below it between two nodes, not only at them;
    without drift the scheme is exact in law (Asmussen, Glynn & Pitman 1995).
    m is computed only where it can be negative, chi * chi^ < 18.5 dt;
    elsewhere dl = 0 for every U.  With a finite upper domain edge hi, a
    path stays where it is from its first node at or above hi.

    Returns (values, contact, floors) for paths first_index + p:
    values[p, k] = X at node record[k], floors[p, k] = the floor level l
    there, and contact[p] True when any reflection increment occurred
    (dl > 0) up to the horizon, counting dips below the floor between nodes.
    """
    lo, hi = f.domain
    if not lo < l0:
        raise DomainError(f"floor {l0} outside the domain of f")
    edge = hi < np.inf
    rec = _record(record, grid)
    dt = grid.dt
    sqdt = np.sqrt(dt)
    reach = _BRIDGE_REACH * dt
    values = np.empty((n_paths, len(rec)))
    floors = np.empty((n_paths, len(rec)))
    contact = np.zeros(n_paths, dtype=bool)
    for rows, _, k0, steps in _path_steps(seed, first_index, n_paths,
                                          grid.n_steps, rec, bridge=True):
        chi = np.full(rows.stop - rows.start, float(chi0))
        lev = np.full(len(chi), float(l0))
        hit = np.zeros(len(chi), dtype=bool)
        if k0 is not None:
            values[rows, k0] = chi + lev
            floors[rows, k0] = lev
        for n, z, u, k in steps:
            x_abs = chi + lev
            drift = -0.5 * f.pre(x_abs) * dt[n]
            prop = chi + drift + sqdt[n] * z
            near = chi * prop < reach[n]
            if edge:
                live = x_abs < hi
                prop = np.where(live, prop, chi)
                near &= live
            near = np.flatnonzero(near)
            if near.size:
                p = prop[near]
                dl = _bridge_drop(chi[near], p, u[near], dt[n])
                prop[near] = p + dl
                lev[near] += dl
                hit[near[dl > 0]] = True
            chi = prop
            if k is not None:
                values[rows, k] = chi + lev
                floors[rows, k] = lev
        contact[rows] = hit
    return values, contact, floors


# ---------------------------------------------------------------------------
# Single paths: one-path calls of the ensemble runners, every node recorded.

def simulate_wiener(x0: float, grid: TimeGrid, seed: int, path_index: int = 0) -> PathBundle:
    """Path path_index of wiener_ensemble."""
    X = wiener_ensemble(x0, grid, 1, seed, _every_node(grid), path_index)
    return PathBundle(grid=grid, X=X[0], seed=seed, path_index=path_index)


def simulate_bessel3_dual(x0: float, j0: float, grid: TimeGrid, seed: int,
                          path_index: int = 0) -> PathBundle:
    """Path path_index of bessel_dual_ensemble with floor 0 < j0 <= x0."""
    X, J = bessel_dual_ensemble(x0, grid, 1, seed, _every_node(grid), j0,
                                path_index)
    return PathBundle(grid=grid, X=X[0], seed=seed, path_index=path_index,
                      Jstar=J[0])


def simulate_drifted(f: SmoothMap, x0: float, grid: TimeGrid, seed: int,
                     path_index: int = 0) -> PathBundle:
    """Path path_index of drifted_ensemble; truncated_at is the node from
    which an absorbed path is parked at the guarded domain edge."""
    X, alive = drifted_ensemble(f, x0, grid, 1, seed, _every_node(grid),
                                path_index)
    lo_g, hi_g = _guarded(f.domain)
    parked = np.flatnonzero((X[0, 1:] <= lo_g) | (X[0, 1:] >= hi_g))
    return PathBundle(grid=grid, X=X[0], seed=seed, path_index=path_index,
                      truncated_at=None if alive[0] else 1 + int(parked[0]))


def simulate_skorokhod(f: SmoothMap, x0: float, j0: float, grid: TimeGrid, seed: int,
                       path_index: int = 0) -> PathBundle:
    """Path path_index of reflected_ensemble from (x0 - j0, j0), with the
    floor level recorded as J*; truncated_at is the first node at or above
    a finite upper domain edge, from which the path stays where it is."""
    if not (0 < j0 <= x0):
        raise DomainError("simulate_skorokhod needs 0 < j0 <= x0")
    X, _, J = reflected_ensemble(f, x0 - j0, j0, grid, 1, seed,
                                 _every_node(grid), path_index)
    stuck = np.flatnonzero(X[0] >= f.domain[1])
    return PathBundle(grid=grid, X=X[0], seed=seed, path_index=path_index,
                      Jstar=J[0], truncated_at=int(stuck[0]) if stuck.size else None)


# ---------------------------------------------------------------------------
# Path functionals.

def first_hitting(path: PathBundle, level: float) -> Optional[float]:
    """First grid time with X <= level, linearly interpolated between the
    bracketing nodes; None if the level is never reached."""
    X = np.asarray(path.X, dtype=float)
    if level > X[0]:
        raise DomainError("first_hitting expects level <= X_0")
    below = X <= level
    if not below.any():
        return None
    k = int(np.argmax(below))
    if k == 0:
        return 0.0
    t = path.grid.nodes
    frac = (X[k - 1] - level) / (X[k - 1] - X[k])
    return float(t[k - 1] + frac * (t[k] - t[k - 1]))


def future_infimum(path: PathBundle) -> np.ndarray:
    """Backward running minimum: inf over grid nodes u >= t of X_u."""
    X = np.asarray(path.X, dtype=float)
    return np.minimum.accumulate(X[::-1])[::-1]


def change_of_measure_expectation(s: SmoothMap, payoff: Callable[[PathBundle], float],
                                  x0: float, grid: TimeGrid, n_paths: int, seed: int,
                                  band: tuple[float, float]):
    """Importance-sampling oracle: Wiener paths stopped at the exit of a
    compact band, the payoff weighted by the multiplicative functional of s
    at the stopping time.  A path that overshoots the band on its exit step
    is projected onto the band edge at the exit node, so weight and payoff
    both see a value inside [lo, hi] (and hence inside the domain of s when
    the band is).

    Returns (estimate, stderr) over the n_paths ensemble.
    """
    lo, hi = band
    s.require(np.array([lo, hi]))
    if not (lo < x0 < hi):
        raise DomainError("x0 must start inside the band")
    vals = np.empty(n_paths)
    nodes = _every_node(grid)
    # paths in blocks whose recorded nodes (size x len(nodes) floats) and
    # segment draws (at most as many) together fit _CHUNK_BUDGET
    size = max(1, _CHUNK_BUDGET // (2 * len(nodes)))
    for start in range(0, n_paths, size):
        block = wiener_ensemble(x0, grid, min(size, n_paths - start), seed,
                                nodes, start)
        for c in range(0, len(block), _WEIGHT_ROWS):
            X = block[c:c + _WEIGHT_ROWS]
            rows = np.arange(len(X))
            # stop at the first node outside the band, else at the last
            outside = (X <= lo) | (X >= hi)
            stop = np.where(outside.any(axis=1), outside.argmax(axis=1),
                            grid.n_steps)
            at_stop = np.clip(X[rows, stop], lo, hi)
            # hold every row at its stop value from there on, inside the band
            X = np.where(nodes < stop[:, None], X, at_stop[:, None])
            integral = schwarzian_integral(s, X, grid.nodes)[rows, stop]
            weight = multiplicative_functional(s, float(x0), at_stop, integral)
            for r, i in enumerate(range(start + c, start + c + len(X))):
                p = PathBundle(grid=grid, X=X[r], seed=seed, path_index=i)
                vals[i] = weight[r] * payoff(p.stopped_at(int(stop[r])))
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_paths))
