"""Seeded path simulation: Wiener, Bessel-3 via the max-dual construction,
drifted unit-diffusion SDEs absorbed at their lower domain edge, and the
reflected (floor-constrained) SDE; plus path functionals and the change of
measure, which walks Wiener paths to their first node outside a band.  The
Bessel-3, drifted and reflected laws sample each step's Brownian bridge, not
only its end nodes: the reflected scheme reflects on the bridge minimum, the
drifted walk is absorbed when the bridge falls to the edge, and the dual's
running maximum takes the bridge maximum.  The drifted and reflected runners
step the paper's markets, whose domains are unbounded above, and refuse a map
with a finite upper edge.
Each law has one vectorized ensemble runner: it runs paths first_index ...
first_index + n_paths - 1 and keeps the nodes it is asked to record, so a
single path is a one-path call.  The reflected law's runner,
reflected_passes, steps several passes -- each a start, a grid and the
nodes it records -- over the paths of one seed side by side, on as few reads
of their streams as the layout below allows (read_plan);
reflected_ensemble is its one-pass call.

Reproducibility contract: every path index i owns a counter-based stream
keyed by (master seed, i) -- numpy Philox -- so path i is bit-identical no
matter how an ensemble is chunked or batched, and ensemble reductions run in
fixed path-index order.  All four runners read their streams in one layout,
through one reader: each stream is read in segments of _SEGMENT steps (the
last segment may be shorter), and for each segment first its normals, one
per step, and then, for the reflected, drifted and dual laws, one uniform
per step, which samples that step's bridge.  The dual with a random floor
first reads the floor's uniform.  For the Wiener law (and the measure
change, which runs on it) this is simply one standard normal per step.  The
layout is fixed by the law and the step count alone.  A runner does not
build one generator per path: each thread keeps one pool of generators for
the life of the process, and the reader re-keys them for each block of
paths, which sets exactly the state path_stream(seed, i) starts in, so the
draws and the layout are those of the per-path streams.  In a stream's last
segment nothing follows the uniforms, so a path's uniforms there are drawn
only when a kernel first reads one of them: a path that never comes near
its floor, its edge or its running maximum in that segment draws none, and
the bits it does draw are the same.  So the bridge-layout read of n steps is
a prefix of the read of N > n steps exactly when n is a multiple of
_SEGMENT: its segments are the longer read's first ones, and the uniforms
it would draw on first use are that read's uniforms of the same segment.
Reflected passes of one seed and path range whose step counts allow it step
on one read, each with the bits it gets alone.

Large ensembles run as contiguous path shares in forked workers, one per CPU
of the process's affinity mask, through one helper, _shared.  Each runner and
the measure change check their arguments in the caller before any share
forks, and hand _shared a per-share kernel; the caller runs the first share
and joins the others' arrays in path order.  Below two blocks of paths,
without os.fork, or while other threads run, the paths run in process.
Since each path reads only its own stream, no output depends on the share
count.  _run_shares forks, collects and reaps the workers, and raises a
worker's exception in the caller; the compare-schemes solves use it too.  A
worker pickles its outcome into a pipe, and the caller unpickles it straight
from the pipe as it arrives, with no joined copy of the bytes.
"""

from __future__ import annotations

import functools
import operator
import os
import pickle
import signal
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .smoothmaps import (SmoothMap, _flat, multiplicative_functional,
                         schwarzian)

# Relative guard keeping the drifted walk off a finite lower domain edge.
EDGE_GUARD = 1e-12
# Ensemble runners cut their paths into the fewest blocks of at most _BLOCK
# paths, of equal size, and draw one stream segment of a block at a time into
# one reused buffer sized by the largest block; the cut is an implementation
# detail, invisible in results thanks to the per-path streams.  Every
# block-step has a fixed cost, so a smaller _BLOCK runs slower; equal blocks
# keep the fewest block-steps on the smallest buffer (a 10 000-path share
# runs as 3 x 3 334 rows).  _BLOCK also caps each thread's pool of generators
# (one per path of a block): at 32768 a short-grid run grew the pool to
# 10 000 generators and the price benchmark's peak RSS by 12 MB.
_BLOCK = 4096
# Steps per segment of the stream layout (see above).  It is part of the
# layout: changing it changes every reflected path.
_SEGMENT = 512
# The stream layout above as the side files record it, beside the seed of
# the paths drawn in it.
STREAM_LAYOUT = {"generator": "Philox", "key": ["seed", "path index"],
                 "segment_steps": _SEGMENT,
                 "segment": ["normals", "bridge uniforms"]}
_TILE = 256  # paths per transposed tile of a time-major draw
# Paths in the smallest share of change_of_measure_expectation.
_WEIGHT_ROWS = 256
# A uniform U on the 2**-53 lattice gives -log(1 - U) <= 53 ln 2, so a
# Brownian bridge over dt whose ends lie at distances a and b on one side of
# a level never reaches the level whenever a * b >= (53 ln 2 / 2) dt
# = 18.37 dt; 18.5 leaves room for rounding.  Only steps with a * b below
# it sample their bridge, and only they read their uniform.
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
    """One discretized path: values per node and the stream identity that
    produced it."""

    grid: TimeGrid
    X: np.ndarray
    seed: int
    path_index: int = 0


def path_stream(seed: int, path_index: int = 0) -> np.random.Generator:
    """The counter-based generator owned by (seed, path_index): Philox with
    key (seed mod 2**64, path_index mod 2**64) and counter 0.  Any integer
    type is taken at its value (operator.index); a non-integer raises
    TypeError."""
    key = np.array([operator.index(seed) % 2 ** 64,
                    operator.index(path_index) % 2 ** 64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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


def _require_unbounded_above(f: SmoothMap) -> None:
    """Refuse a map whose domain has a finite upper edge.  The paper's
    markets live on domains unbounded above, and the drifted and reflected
    kernels have no rule for a path that reaches such an edge."""
    hi = f.domain[1]
    if hi < np.inf:
        raise DomainError(f"the domain of f {f.descriptor} has the finite "
                          f"upper edge {hi:.6g}: the path kernels need a "
                          f"domain unbounded above")


# Each thread's generators for _path_steps, kept for the life of the process;
# a forked share inherits its caller's.
_POOL = threading.local()


def _uniforms(us, idx, c):
    """Column c of the drawn uniforms us, at the rows idx."""
    return us[idx, c]


def _uniforms_on_first_use(gens, us, drawn, idx, c):
    """Column c of the uniforms us at the rows idx, first drawing row r from
    gens[r] for each row of idx not yet drawn (drawn marks them)."""
    new = idx[~drawn[idx]]
    for r in new:
        gens[r].random(out=us[r])
    drawn[new] = True
    return us[idx, c]


def _path_steps(seed, first_index, n_paths, n_steps, rec, bridge=False,
                lead=False):
    """The one reader of the path streams, in the layout of the module
    docstring: each stream is read a segment of _SEGMENT steps at a time,
    its normals and then, with bridge, one uniform per step; with lead, one
    uniform comes before all of them.  The n_paths paths run in the fewest
    blocks of at most _BLOCK paths, k = ceil(n_paths / _BLOCK), cut as
    evenly as _shared cuts shares, so the largest block has
    ceil(n_paths / k) rows; one buffer holding a segment of the largest
    block's normals and uniforms is reused by every block and segment.
    Every law gets the same blocks and buffer; without bridge the uniform
    half of the buffer is never written.

    The generators come from the calling thread's pool (_POOL), which is
    grown with path_stream only when it holds fewer than the largest block,
    and are re-keyed (_rekey) for every block, the first included.  While a
    reader runs, the pool is out of the thread's slot, so a reader started
    inside another in the same thread builds its own.

    Yields (rows, u0, k0, steps) per block: rows slices the block out of the
    ensemble's outputs, u0 holds the leading uniform of each stream (None
    without lead), k0 is the output column of node 0 (None when node 0 is
    not in rec), and steps yields (n, z_n, u_n, k) for n = 0 ... n_steps - 1:
    the block's normals of step n, the accessor u_n(idx) of its uniforms at
    the block rows idx (an integer index array; None without bridge) and
    the output column k of node n + 1 (None when it is not recorded).  In
    the last segment a row's uniforms are drawn when u_n first reads that
    row; earlier segments draw them with their normals, since the next
    segment's normals follow them in the stream.
    """
    at = {int(node): k for k, node in enumerate(rec)}
    seed, first_index = operator.index(seed), operator.index(first_index)
    seg = min(n_steps, _SEGMENT)
    blocks = -(-n_paths // _BLOCK)  # none for no paths
    cuts = [0] + [n_paths * b // blocks for b in range(1, blocks + 1)]
    rows_max = -(-n_paths // blocks) if blocks else 0
    buf = np.empty(2 * seg * rows_max)  # one allocation, released as one
    zbuf = buf[:seg * rows_max].reshape(seg, rows_max)
    ubuf = buf[seg * rows_max:].reshape(rows_max, seg) if bridge else None
    # normals are drawn a tile of paths at a time and transposed tile by tile
    # into the time-major zbuf, to keep the copy cache-local
    tile = np.empty((min(_TILE, rows_max), seg))

    def steps(gens):
        for a in range(0, n_steps, seg):
            w = min(seg, n_steps - a)
            last = a + w == n_steps  # nothing follows this segment's uniforms
            zs = zbuf[:w, :len(gens)]
            us = None if ubuf is None else ubuf[:len(gens), :w]
            for r0 in range(0, len(gens), _TILE):
                part = gens[r0:r0 + _TILE]
                for r, g in enumerate(part):
                    g.standard_normal(out=tile[r, :w])
                    if us is not None and not last:
                        g.random(out=us[r0 + r])
                zs[:, r0:r0 + len(part)] = tile[:len(part), :w].T
            if us is None:
                read = None
            elif last:
                read = functools.partial(_uniforms_on_first_use, gens, us,
                                         np.zeros(len(gens), dtype=bool))
            else:
                read = functools.partial(_uniforms, us)
            for n in range(a, a + w):
                yield (n, zs[n - a],
                       None if read is None else functools.partial(read,
                                                                   c=n - a),
                       at.get(n + 1))

    pool = vars(_POOL).pop("gens", [])
    pool.extend(path_stream(0, 0) for _ in range(rows_max - len(pool)))
    try:
        for start, stop in zip(cuts, cuts[1:]):
            gens = pool[:stop - start]
            _rekey(gens, seed, first_index + start)
            u0 = np.array([g.random() for g in gens]) if lead else None
            yield slice(start, stop), u0, at.get(0), steps(gens)
    finally:
        _POOL.gens = pool


# ---------------------------------------------------------------------------
# Shares: one forked worker per CPU.

def _cpu_count() -> int:
    """CPUs in this process's affinity mask (all CPUs where the platform
    has no affinity masks)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _worker_count(tasks: int) -> int:
    """Workers for tasks independent tasks: one per CPU, at most one per
    task.  One, run in process, without os.fork or while other threads run:
    a forked child holds only the forking thread, so a lock another thread
    held at the fork would never be released in it."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(_cpu_count(), tasks))


def _fork_share(work) -> tuple[int, int]:
    """Run work() in a forked child.  Returns (pid, the read end of a pipe
    on which the child sends its pickled outcome: (True, result) or (False,
    exception)).  The child never returns into the caller's stack: it
    leaves by os._exit, whatever happens."""
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, read
    code = 1
    try:
        os.close(read)
        try:
            outcome = (True, work())
        except BaseException as exc:  # sent to the caller, which raises it
            outcome = (False, exc)
        try:
            data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # e.g. an exception type that does not pickle
            data = pickle.dumps((False, RuntimeError(
                f"a forked share could not send its outcome: {exc!r}")))
        with open(write, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


def _receive(read: int):
    """The outcome a child sent on the pipe read, unpickled as it arrives;
    if the child sent none or stopped partway, the EOFError or
    UnpicklingError that says so."""
    # the bytes come from a child this module forked, never from outside
    with open(read, "rb", closefd=False) as stream:
        try:
            return pickle.load(stream)
        except (EOFError, pickle.UnpicklingError) as exc:
            return exc


def _run_shares(works, labels):
    """Run works[0]() in the caller and each other work in a forked child
    (_fork_share); return their results in order.  An exception raised in a
    child is raised in the caller, with a note naming its share by
    labels[k], once every child has been reaped; an exception in the caller,
    KeyboardInterrupt included, kills and reaps the children.  Children are
    forked, not spawned: they start from the caller's memory, so a work's
    inputs (maps hold closures, which do not pickle) never cross a process
    boundary; only its result does."""
    children, status = [], {}
    try:
        for work in works[1:]:
            children.append(_fork_share(work))
        outcomes = [(True, works[0]())]
        outcomes += [_receive(read) for _, read in children]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read in children:
            os.close(read)
            status[pid] = os.waitpid(pid, 0)[1]
    for k, outcome in enumerate(outcomes):
        if isinstance(outcome, Exception):  # from _receive: no whole outcome
            pid = children[k - 1][0]
            raise RuntimeError(
                f"the worker of {labels[k]} (pid {pid}) ended without a "
                f"result, exit code {os.waitstatus_to_exitcode(status[pid])}"
            ) from outcome
        if not outcome[0]:
            outcome[1].add_note(f"raised in {labels[k]}, in a forked worker")
            raise outcome[1]
    return [out for _, out in outcomes]


def _join(outs):
    """The shares' outputs joined along axis 0, array by array, through
    lists and tuples of arrays; an output that is None in the shares stays
    None."""
    if outs[0] is None:
        return None
    if isinstance(outs[0], (list, tuple)):
        return type(outs[0])(_join(parts) for parts in zip(*outs))
    return np.concatenate(outs)


def _shared(work, first_index, n_paths, rows=None):
    """work(first, n) over the paths first_index ... first_index + n_paths - 1
    as contiguous shares, one per worker and at most one per rows paths
    (_BLOCK when None), through _run_shares: the caller runs the first share
    and each other share runs in a forked child.  The outputs are joined in
    path order (_join).  Callers check their arguments before calling."""
    # Python ints, so that no share offset overflows a numpy integer
    first, n_paths = operator.index(first_index), operator.index(n_paths)
    shares = _worker_count(n_paths // (_BLOCK if rows is None else rows))
    if shares < 2:
        return work(first, n_paths)
    cuts = [n_paths * k // shares for k in range(shares + 1)]
    return _join(_run_shares(
        [functools.partial(work, first + cuts[k], cuts[k + 1] - cuts[k])
         for k in range(shares)],
        [f"the share of paths {first + cuts[k]} ... "
         f"{first + cuts[k + 1] - 1}" for k in range(shares)]))


# ---------------------------------------------------------------------------
# Ensemble runners.

def _bridge_min(x, y, u, dt):
    """The minimum of the Brownian bridge from x to y over a step dt, sampled
    with the uniform u (Glasserman 2003, 6.4).  The bridge maximum is
    -_bridge_min(-x, -y, u, dt), which rounds exactly as
    (x + y + sqrt((y - x)^2 - 2 dt log(1 - u))) / 2."""
    d = y - x
    return 0.5 * (x + y - np.sqrt(d * d - 2.0 * dt * np.log1p(-u)))


def wiener_ensemble(x0: float, grid: TimeGrid, n_paths: int, seed: int,
                    record, first_index: int = 0) -> np.ndarray:
    """Driftless unit-variance walks X_n = X_{n-1} + sqrt(dt_n) xi_n from x0.

    Returns values[p, k] = X at node record[k] of path first_index + p
    (record sorted and deduplicated).
    """
    work = functools.partial(_wiener_share, x0, grid, seed,
                             _record(record, grid))
    return _shared(work, first_index, n_paths)


def _wiener_share(x0, grid, seed, rec, first_index, n_paths):
    """wiener_ensemble's share of paths, at the checked record rec."""
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
    """Bessel-3 through its dual walk (Pitman's theorem): X* Brownian from
    2 j0 - x0, J* its running maximum from j0, X = 2 J* - X*.

    J* takes the maximum of each step's Brownian bridge, not only its end
    node: from the nodes X*_{n-1} and X*_n and the step's uniform U,
        M_n = (X*_{n-1} + X*_n + sqrt((X*_n - X*_{n-1})^2 - 2 dt log(1 - U))) / 2
        J*_n = max(J*_{n-1}, M_n),
    so X and J* at the nodes are exact in law at any step count.  M_n is
    sampled only where it can exceed J*_{n-1},
    (J*_{n-1} - X*_{n-1}) (J*_{n-1} - X*_n) < 18.5 dt; elsewhere
    J*_n = max(J*_{n-1}, X*_n) for every U.

    With j0 = x0 -> 0 this is the classical 2*max - walk representation of
    the Bessel-3 process from 0; for fixed 0 < j0 <= x0 it realizes the
    process conditioned to have overall infimum j0.  j0=None draws each
    path's floor uniformly on (0, x0) (the overall-infimum law of the
    Bessel-3 process), giving the unconditioned process from x0.

    Returns (values, jstars): X and J* at the recorded nodes of paths
    first_index ... first_index + n_paths - 1.
    """
    if j0 is None and not 0 <= x0 < np.inf:
        raise DomainError("bessel_dual_ensemble with a random floor needs a "
                          "finite x0 >= 0")
    if j0 is not None and not (0 < j0 <= x0):
        raise DomainError("bessel_dual_ensemble needs 0 < j0 <= x0")
    work = functools.partial(_dual_share, x0, grid, seed,
                             _record(record, grid), j0)
    return _shared(work, first_index, n_paths)


def _dual_share(x0, grid, seed, rec, j0, first_index, n_paths):
    """bessel_dual_ensemble's share of paths, at the checked record rec."""
    dt = grid.dt
    sqdt = np.sqrt(dt)
    reach = _BRIDGE_REACH * dt
    values = np.empty((n_paths, len(rec)))
    jstars = np.empty((n_paths, len(rec)))
    # with j0=None the floor's uniform is the first variate of each stream
    for rows, u0, k0, steps in _path_steps(seed, first_index, n_paths,
                                           grid.n_steps, rec, bridge=True,
                                           lead=j0 is None):
        m = rows.stop - rows.start
        J = x0 * u0 if j0 is None else np.full(m, float(j0))
        Xstar = 2 * J - x0
        if k0 is not None:
            values[rows, k0] = 2 * J - Xstar
            jstars[rows, k0] = J
        for n, z, u, k in steps:
            prop = Xstar + sqdt[n] * z
            near = np.flatnonzero((J - Xstar) * (J - prop) < reach[n])
            J = np.maximum(J, prop)
            if near.size:
                top = -_bridge_min(-Xstar[near], -prop[near], u(near), dt[n])
                J[near] = np.maximum(J[near], top)
            Xstar = prop
            if k is not None:
                values[rows, k] = 2 * J - Xstar
                jstars[rows, k] = J
    return values, jstars


def drifted_ensemble(f: SmoothMap, x0: float, grid: TimeGrid, n_paths: int,
                     seed: int, record, first_index: int = 0):
    """Euler-Maruyama for dX = -1/2 T_f(X) dt + dB, absorbed at the lower
    domain edge: X_n = X_{n-1} - 1/2 T_f(X_{n-1}) dt_n + sqrt(dt_n) xi_n, the
    drift frozen at the start of the step (and skipped for an affine f, whose
    T_f = 0 adds -0.0, which changes no bit).  The domain of f must be
    unbounded above, as every market map's is (DomainError otherwise).

    A path is absorbed when its proposal falls to the lower edge, pulled in
    by EDGE_GUARD, or when the step's Brownian bridge from X_{n-1} to the
    proposal falls to it in between: its minimum, sampled with the step's
    uniform U as in the reflected kernel, reaches the edge.  Given the nodes
    a and b above the edge, that happens with probability exp(-2 a b / dt_n),
    so the scheme is exact in law for frozen drift.  The bridge is sampled
    only where it can reach the edge, a b < 18.5 dt_n.  An absorbed path is
    parked at the edge from that node on -- the stopped process, not an
    error.  A block stops stepping once all its paths are parked.  On a
    domain unbounded below no path is absorbed.

    Returns (values, alive): values[p, k] = X at node record[k] of path
    first_index + p, alive[p] False when the path was absorbed.
    """
    if not f.contains(x0):
        raise DomainError("x0 outside the domain of f")
    _require_unbounded_above(f)
    work = functools.partial(_drifted_share, f, x0, grid, seed,
                             _record(record, grid))
    return _shared(work, first_index, n_paths)


def _drifted_share(f, x0, grid, seed, rec, first_index, n_paths):
    """drifted_ensemble's share of paths, at the checked record rec."""
    dt = grid.dt
    sqdt = np.sqrt(dt)
    reach = _BRIDGE_REACH * dt
    lo = f.domain[0]
    lo_g = lo + EDGE_GUARD * (1 + abs(lo)) if np.isfinite(lo) else -np.inf
    flat = f.pre is _flat
    values = np.empty((n_paths, len(rec)))
    alive_all = np.ones(n_paths, dtype=bool)
    for rows, _, k0, steps in _path_steps(seed, first_index, n_paths,
                                          grid.n_steps, rec, bridge=True):
        X = np.full(rows.stop - rows.start, float(x0))
        alive = np.ones(len(X), dtype=bool)
        if k0 is not None:
            values[rows, k0] = X
        for n, z, u, k in steps:
            if flat:
                prop = X + sqdt[n] * z
            else:
                prop = X + -0.5 * f.pre(X) * dt[n] + sqdt[n] * z
            X_new = np.where(alive, np.maximum(prop, lo_g), X)
            alive &= lo_g < prop
            # with no lower edge, lo_g = -inf puts no path near it
            near = np.flatnonzero(
                alive & ((X - lo_g) * (prop - lo_g) < reach[n]))
            if near.size:
                # the bridge of the height above the edge falls to 0
                low = _bridge_min(X[near] - lo_g, prop[near] - lo_g, u(near),
                                  dt[n])
                out = near[low <= 0]
                X_new[out] = lo_g
                alive[out] = False
            X = X_new
            if k is not None:
                values[rows, k] = X
            if not alive.any():
                # every path of the block is parked: X holds from here on
                values[rows, rec > n + 1] = X[:, None]
                break
        alive_all[rows] = alive
    return values, alive_all


@dataclass(frozen=True)
class ReflectedPass:
    """One pass of the reflected kernel over an ensemble: its start, chi0
    above the floor level l0, its grid and the nodes it records (with floors,
    the floor level at them too)."""

    chi0: float
    l0: float
    grid: TimeGrid
    record: object
    floors: bool = False


def read_plan(passes) -> list[list[int]]:
    """The stream reads that run the reflected passes: lists of indices into
    passes, longest read first, each in increasing order.  A pass of n steps
    steps on the draws of a read of N >= n steps exactly when its own read
    would be a prefix of that read, which is when n == N or n is a multiple
    of _SEGMENT (module docstring): then its segments are the read's first
    segments, and its last segment's uniforms, drawn on first use, are the
    read's uniforms of that segment.  Each pass joins the longest read it
    fits; one that fits none starts its own."""
    reads = []
    for i in sorted(range(len(passes)),
                    key=lambda i: -passes[i].grid.n_steps):
        n = passes[i].grid.n_steps
        shared = [read for read in reads
                  if n == passes[read[0]].grid.n_steps or n % _SEGMENT == 0]
        if shared:
            shared[0].append(i)
        else:
            reads.append([i])
    return [sorted(read) for read in reads]


def reflected_ensemble(f: SmoothMap, chi0: float, l0: float, grid: TimeGrid,
                       n_paths: int, seed: int, record, first_index: int = 0,
                       floors: bool = False):
    """Reflected Euler-Maruyama for the floor-constrained SDE, reflected on
    the exact minimum of each step's Brownian bridge.

    Per step, from chi_0 = chi0 >= 0 (the start's height above the floor)
    and l_0 = l0, with the drift frozen at the start of the step (and
    skipped for an affine f, as in drifted_ensemble):
        proposal  chi^ = chi + dgamma - 1/2 T_f(chi + l) dt
        bridge minimum  m = (chi + chi^ - sqrt((chi^ - chi)^2 - 2 dt log(1 - U))) / 2
        dl = max(-m, 0);  chi <- chi^ + dl;  l <- l + dl
        X = chi + l,  J* = l
    dgamma = sqrt(dt) xi, and xi and the uniform U come from the path's stream
    in the bridge layout (module docstring).  m is the minimum over the
    step of the Brownian bridge from chi to chi^, so the floor level rises
    whenever the path dips below it between two nodes, not only at them;
    without drift the scheme is exact in law (Asmussen, Glynn & Pitman 1995).
    m is computed only where it can be negative, chi * chi^ < 18.5 dt;
    elsewhere dl = 0 for every U.

    Returns (values, contact, levels) for paths first_index + p:
    values[p, k] = X at node record[k], contact[p] True when any reflection
    increment occurred (dl > 0) up to the horizon, counting dips below the
    floor between nodes, and, with floors, levels[p, k] = the floor level l
    at node record[k] (None without floors).  It is the one-pass call of
    reflected_passes.
    """
    return reflected_passes(f, [ReflectedPass(chi0, l0, grid, record, floors)],
                            n_paths, seed, first_index)[0]


def reflected_passes(f: SmoothMap, passes, n_paths: int, seed: int,
                     first_index: int = 0) -> list:
    """Several passes of the reflected kernel (reflected_ensemble) under one
    map, over paths first_index ... first_index + n_paths - 1 of one seed:
    passes is a list of ReflectedPass.  The passes step side by side on the
    draws of as few stream reads as read_plan allows, and each gets the bits
    it gets alone: path i reads the same stream in every pass (common random
    numbers).  Returns the list of each pass's (values, contact, levels),
    as reflected_ensemble returns them.  The domain of f must be unbounded
    above, as in drifted_ensemble.
    """
    _require_unbounded_above(f)
    lo = f.domain[0]
    recs = []
    for spec in passes:
        if not lo < spec.l0:
            raise DomainError(f"floor {spec.l0} outside the domain of f")
        if not spec.chi0 >= 0:
            raise DomainError(f"start {spec.chi0} below the floor: need "
                              f"chi0 >= 0")
        recs.append(_record(spec.record, spec.grid))
    work = functools.partial(_reflected_share, f, passes, recs, seed)
    return _shared(work, first_index, n_paths)


def _reflected_share(f, passes, recs, seed, first_index, n_paths):
    """reflected_passes' share of paths, at the passes' checked records."""
    walks = [_ReflectedWalk(f, spec, rec, n_paths)
             for spec, rec in zip(passes, recs)]
    for read in read_plan(passes):
        group = sorted((walks[i] for i in read), key=lambda w: -w.n_steps)
        for rows, _, _, steps in _path_steps(seed, first_index, n_paths,
                                             group[0].n_steps, (),
                                             bridge=True):
            for walk in group:
                walk.start(rows)
            for n, z, u, _ in steps:
                for walk in group:
                    if n >= walk.n_steps:
                        break  # this walk and the shorter ones after it
                    walk.step(n, z, u)
            for walk in group:
                walk.contact[rows] = walk.hit
    return [(w.values, w.contact, w.levels) for w in walks]


class _ReflectedWalk:
    """One pass of reflected_passes: its outputs, its step arithmetic, and
    the state (chi, lev, hit) of the paths of the block it is stepping.  rec
    is the pass's record as the caller checked it (_record)."""

    def __init__(self, f: SmoothMap, spec: ReflectedPass, rec, n_paths: int):
        self.f, self.chi0, self.l0 = f, float(spec.chi0), float(spec.l0)
        self.flat = f.pre is _flat
        self.at = {int(node): k for k, node in enumerate(rec)}
        self.n_steps = spec.grid.n_steps
        self.dt = spec.grid.dt
        self.sqdt = np.sqrt(self.dt)
        self.reach = _BRIDGE_REACH * self.dt
        self.values = np.empty((n_paths, len(rec)))
        self.levels = np.empty((n_paths, len(rec))) if spec.floors else None
        self.contact = np.zeros(n_paths, dtype=bool)

    def start(self, rows: slice) -> None:
        """Put the paths of the block rows at the start."""
        self.rows = rows
        self.chi = np.full(rows.stop - rows.start, self.chi0)
        self.lev = np.full(len(self.chi), self.l0)
        self.hit = np.zeros(len(self.chi), dtype=bool)
        self._keep(self.at.get(0))

    def _keep(self, k) -> None:
        """Record the block's X, and with floors l, in output column k
        (none when k is None)."""
        if k is not None:
            self.values[self.rows, k] = self.chi + self.lev
            if self.levels is not None:
                self.levels[self.rows, k] = self.lev

    def step(self, n: int, z: np.ndarray, u) -> None:
        """Step n of reflected_ensemble on the normals z and the uniforms'
        accessor u of _path_steps."""
        chi, lev = self.chi, self.lev
        if self.flat:
            prop = chi + self.sqdt[n] * z
        else:
            prop = chi + -0.5 * self.f.pre(chi + lev) * self.dt[n] \
                + self.sqdt[n] * z
        near = np.flatnonzero(chi * prop < self.reach[n])
        if near.size:
            p = prop[near]
            dl = np.maximum(-_bridge_min(chi[near], p, u(near), self.dt[n]),
                            0.0)
            prop[near] = p + dl
            lev[near] += dl
            self.hit[near[dl > 0]] = True
        self.chi = prop
        self._keep(self.at.get(n + 1))


# ---------------------------------------------------------------------------
# Path functionals.

def future_infimum(path: PathBundle) -> np.ndarray:
    """Backward running minimum: inf over grid nodes u >= t of X_u."""
    X = np.asarray(path.X, dtype=float)
    return np.minimum.accumulate(X[::-1])[::-1]


def change_of_measure_expectation(s: SmoothMap, payoff: Callable, x0: float,
                                  grid: TimeGrid, n_paths: int, seed: int,
                                  band: tuple[float, float]):
    """Importance-sampling oracle: Wiener paths stopped at the exit of a
    compact band, the payoff weighted by the multiplicative functional of s
    at the stopping time.  A path stops at its first node outside the band,
    where it is projected onto the band edge, so weight and payoff both see
    a value inside [lo, hi] (and hence inside the domain of s when the band
    is); a path that never leaves stops at T.  payoff maps an array of
    stopped values to their payoffs (a scalar broadcasts).  The paths'
    weighted payoffs run as contiguous shares of at least _WEIGHT_ROWS
    paths, one per CPU (_shared), joined in path order before the mean.

    Returns (estimate, stderr) over the n_paths ensemble.
    """
    lo, hi = band
    s.require(np.array([lo, hi]))
    if not (lo < x0 < hi):
        raise DomainError("x0 must start inside the band")
    work = functools.partial(_weighted_payoffs, s, payoff, x0, grid, seed,
                             band)
    vals = _shared(work, 0, n_paths, _WEIGHT_ROWS)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_paths))


def _weighted_payoffs(s, payoff, x0, grid, seed, band, first_index, n_paths):
    """The weighted payoffs of change_of_measure_expectation for paths
    first_index ... first_index + n_paths - 1, stepped on the Wiener walk's
    streams.  Each live path carries X, S_f at its last node and the
    trapezoid sum I of S_f up to it, added in cumulative_trapezoid's order,
    I += dt (S + S_old) / 2.0, so that I has that rule's bits.  On the
    step where a path leaves the band it is clipped onto the edge, adds its
    last term and retires; a block whose paths have all retired stops."""
    lo, hi = band
    dt = grid.dt
    sqdt = np.sqrt(dt)
    vals = np.empty(n_paths)
    for rows, _, _, steps in _path_steps(seed, first_index, n_paths,
                                         grid.n_steps, []):
        m = rows.stop - rows.start
        live = np.arange(m)
        X = np.full(m, float(x0))
        S = schwarzian(s, X)
        I = np.zeros(m)
        x_stop, i_stop = np.empty(m), np.empty(m)
        for n, z, _, _ in steps:
            X = np.clip(X + sqdt[n] * z[live], lo, hi)
            S, S_old = schwarzian(s, X), S
            I = I + dt[n] * (S + S_old) / 2.0
            out = (X <= lo) | (X >= hi)
            if out.any():
                x_stop[live[out]], i_stop[live[out]] = X[out], I[out]
                live, X, S, I = (v[~out] for v in (live, X, S, I))
                if not live.size:
                    break
        x_stop[live], i_stop[live] = X, I
        weight = multiplicative_functional(s, float(x0), x_stop, i_stop)
        vals[rows] = weight * payoff(x_stop)
    return vals
