"""Path-engine tests: stream reproducibility, the ensemble runners' laws and
invariants, the reflection/dual couplings, and the path functionals."""

import collections
import dataclasses
import functools
import os
import pickle
import sys
import threading
import time

import numpy as np
import pytest

from bubblepde import (DomainError, affine_map, f_from_sigma, pathlab,
                       power_law_map, reciprocal_map, smoothmaps)
from bubblepde.pathlab import (
    PathBundle,
    ReflectedPass,
    TimeGrid,
    bessel_dual_ensemble,
    change_of_measure_expectation,
    drifted_ensemble,
    future_infimum,
    path_stream,
    read_plan,
    reflected_ensemble,
    reflected_passes,
    wiener_ensemble,
)
from bubblepde.smoothmaps import (compose, from_descriptor, log_map,
                                   schwarzian_process)

SEED = 424242


# ---------------------------------------------------------------------------
# grids and streams


def test_uniform_grid():
    g = TimeGrid.uniform(2.0, 8)
    assert g.n_steps == 8
    assert g.T == pytest.approx(2.0)
    np.testing.assert_allclose(g.dt, 0.25)


def test_clustered_grid_quadratic():
    g = TimeGrid.clustered(1.0, 4)
    np.testing.assert_allclose(g.nodes, [0.0, 1 / 16, 4 / 16, 9 / 16, 1.0])


def test_grid_validation():
    with pytest.raises(DomainError):
        TimeGrid(nodes=np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(DomainError):
        TimeGrid(nodes=np.array([0.1, 0.5]))


def test_stream_is_reproducible_and_indexed():
    a = path_stream(SEED, 3).standard_normal(5)
    b = path_stream(SEED, 3).standard_normal(5)
    c = path_stream(SEED, 4).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_is_philox_keyed_by_seed_and_index():
    key = np.array([SEED, 3], dtype=np.uint64)
    ref = np.random.Generator(np.random.Philox(key=key))
    np.testing.assert_array_equal(path_stream(SEED, 3).standard_normal(7),
                                  ref.standard_normal(7))


def test_stream_survives_huge_indices():
    # keys are reduced mod 2^64; no overflow for large path counters
    g = path_stream(12, 2 ** 70 + 5)
    assert np.isfinite(g.standard_normal(3)).all()


# ---------------------------------------------------------------------------
# the runners' laws and invariants, every node recorded


def test_wiener_uses_grid_and_stream():
    grid = TimeGrid.uniform(1.0, 16)
    X = wiener_ensemble(2.0, grid, 1, SEED, range(17))[0]
    assert X[0] == 2.0
    incr = path_stream(SEED, 0).standard_normal(16) * np.sqrt(grid.dt)
    np.testing.assert_array_equal(X, np.add.accumulate(np.concatenate(([2.0], incr))))


def test_drifted_affine_reduces_to_wiener_bitwise():
    grid = TimeGrid.uniform(1.0, 64)
    w = wiener_ensemble(1.5, grid, 1, SEED, range(65), 7)
    d, _ = drifted_ensemble(affine_map(1.0, 0.0), 1.5, grid, 1, SEED,
                            range(65), 7)
    np.testing.assert_array_equal(w, d)


def test_drifted_absorption_flag():
    # a map on (0, inf) with zero drift: plain BM, eventually exits for a low
    # start; an absorbed path is parked at the guarded edge 0 + EDGE_GUARD,
    # which a live path never reaches
    f = power_law_map(1.0)
    grid = TimeGrid.uniform(4.0, 4096)
    X, alive = drifted_ensemble(f, 0.05, grid, 20, SEED, range(4097))
    for k in range(20):
        parked = np.flatnonzero(X[k] <= pathlab.EDGE_GUARD)
        assert alive[k] == (parked.size == 0)
        if parked.size:
            assert np.all(X[k, parked[0]:] == X[k, parked[0]])
    assert (~alive).sum() > 10
    # a block whose paths are all parked stops stepping and holds them
    k = int(np.argmin(alive))
    one, one_alive = drifted_ensemble(f, 0.05, grid, 1, SEED, range(4097), k)
    np.testing.assert_array_equal(one[0], X[k])
    assert not one_alive[0]


def test_bessel_dual_invariants():
    grid = TimeGrid.uniform(1.0, 512)
    X, J = bessel_dual_ensemble(1.0, grid, 1, SEED, range(513), 0.4, 2)
    X, J = X[0], J[0]
    assert X[0] == pytest.approx(1.0)
    assert J[0] == pytest.approx(0.4)
    assert np.all(np.diff(J) >= 0)
    assert np.all(X >= J - 1e-12)


def test_bessel_dual_rejects_bad_floor():
    grid = TimeGrid.uniform(1.0, 4)
    with pytest.raises(DomainError):
        bessel_dual_ensemble(1.0, grid, 1, SEED, [4], 1.5)
    with pytest.raises(DomainError):
        bessel_dual_ensemble(1.0, grid, 1, SEED, [4], 0.0)
    # a random floor is drawn on (0, x0): x0 must be finite and not negative
    for x0 in (-1.0, -1e-300, np.inf, np.nan):
        with pytest.raises(DomainError, match="finite x0 >= 0"):
            bessel_dual_ensemble(x0, grid, 1, SEED, [0, 4])
    # x0 = 0 is the classical process from 0
    X, J = bessel_dual_ensemble(0.0, grid, 3, SEED, [0, 4])
    assert np.all(X[:, 0] == 0.0) and np.all(J[:, 0] == 0.0)
    assert np.all(X[:, 1] >= J[:, 1])


def test_skorokhod_stays_above_floor():
    f = reciprocal_map()
    grid = TimeGrid.uniform(1.0, 512)
    X, contact, J = reflected_ensemble(f, 0.5, 0.5, grid, 10, SEED,
                                       range(513), floors=True)
    assert np.all(X >= J - 1e-12)
    assert np.all(np.diff(J, axis=1) >= 0)
    # contact exactly when the floor rose
    np.testing.assert_array_equal(contact, J[:, -1] > 0.5)
    assert contact.any()


def test_reflected_ensemble_rejects_a_start_below_the_floor():
    grid = TimeGrid.uniform(1.0, 4)
    for chi0 in (-1e-9, np.nan):
        with pytest.raises(DomainError, match="below the floor"):
            reflected_ensemble(reciprocal_map(), chi0, 0.5, grid, 2, SEED, [4])


# every kind of map a config can build: each kind from_descriptor takes, and
# f_from_sigma's power maps
_CONFIG_MAPS = {
    "power_law": lambda: from_descriptor({"kind": "power_law", "alpha": -1.0}),
    "power_law_shifted": lambda: from_descriptor(
        {"kind": "power_law", "alpha": 0.5, "xi": -0.5}),
    "log": lambda: from_descriptor({"kind": "log", "xi": 0.2}),
    "mobius_affine": lambda: from_descriptor(
        {"kind": "mobius", "a": 2.0, "b": 1.0, "c": 0.0, "d": 1.0}),
    "mobius_c_positive": lambda: from_descriptor(
        {"kind": "mobius", "a": 1.0, "b": 0.5, "c": 0.3, "d": 1.2}),
    "mobius_c_negative": lambda: from_descriptor(
        {"kind": "mobius", "a": 1.0, "b": 0.0, "c": -1.0, "d": 1.0}),
    "reciprocal": lambda: from_descriptor({"kind": "reciprocal"}),
    "compose": lambda: from_descriptor(
        {"kind": "compose", "outer": {"kind": "reciprocal"},
         "inner": {"kind": "power_law", "alpha": 2.0}}),
    **{f"sigma_p{p:g}": functools.partial(
        f_from_sigma, {"kind": "power", "coefficient": 0.7, "exponent": p})
       for p in (1.5, 2.0, 3.0)},
}


@pytest.mark.parametrize("make", _CONFIG_MAPS.values(), ids=_CONFIG_MAPS)
def test_every_config_map_is_unbounded_above(make):
    # the drifted and reflected kernels refuse a finite upper edge, so no
    # map a config can build may have one
    assert make().domain[1] == np.inf


@pytest.mark.parametrize("lo", [0.0, -np.inf], ids=["band", "upper_edge"])
def test_kernels_refuse_a_finite_upper_edge_before_any_read(monkeypatch, lo):
    f = dataclasses.replace(affine_map(1.0, 0.0), domain=(lo, 1.2))
    grid = TimeGrid.uniform(1.0, 4)
    monkeypatch.setattr(pathlab, "_path_steps",
                        lambda *a, **k: pytest.fail("a stream was read"))
    for run in (
            lambda: reflected_ensemble(f, 0.1, 0.5, grid, 2, SEED, [4]),
            lambda: reflected_passes(
                f, [ReflectedPass(0.1, 0.5, grid, [4])], 2, SEED),
            lambda: drifted_ensemble(f, 0.5, grid, 2, SEED, [4])):
        with pytest.raises(DomainError, match="upper edge 1.2") as info:
            run()
        assert str(f.descriptor) in str(info.value)


def test_refused_calls_fork_nothing(monkeypatch):
    # blocks of two paths, shares of at least two weighted paths, and two
    # workers, so that seven paths would run as two shares: each refusal is
    # raised in the caller before any share forks, with the message of a
    # one-process call
    grid = TimeGrid.uniform(1.0, 4)
    bounded = dataclasses.replace(affine_map(1.0, 0.0), domain=(0.0, 1.2))
    f = reciprocal_map()
    refused = {
        "reflected_upper_edge": lambda: reflected_ensemble(
            bounded, 0.1, 0.5, grid, 7, SEED, [4]),
        "drifted_upper_edge": lambda: drifted_ensemble(
            bounded, 0.5, grid, 7, SEED, [4]),
        "drifted_x0": lambda: drifted_ensemble(f, -1.0, grid, 7, SEED, [4]),
        "reflected_chi0": lambda: reflected_ensemble(
            f, -1.0, 0.5, grid, 7, SEED, [4]),
        "reflected_floor": lambda: reflected_ensemble(
            f, 0.0, -0.5, grid, 7, SEED, [4]),
        "reflected_record": lambda: reflected_ensemble(
            f, 0.0, 0.5, grid, 7, SEED, [5]),
        "dual_j0": lambda: bessel_dual_ensemble(1.0, grid, 7, SEED, [4], 1.5),
        "dual_random_floor_x0": lambda: bessel_dual_ensemble(
            -1.0, grid, 7, SEED, [4]),
        "wiener_record": lambda: wiener_ensemble(1.0, grid, 7, SEED, [5]),
        "measure_x0": lambda: change_of_measure_expectation(
            f, lambda x: x, 2.0, grid, 7, SEED, (0.5, 1.5)),
    }
    monkeypatch.setattr(pathlab, "_BLOCK", 2)
    monkeypatch.setattr(pathlab, "_WEIGHT_ROWS", 2)
    monkeypatch.setattr(pathlab, "_cpu_count", lambda: 1)
    alone = {}
    for name, run in refused.items():
        with pytest.raises(DomainError) as info:
            run()
        alone[name] = str(info.value)

    def no_fork(work):
        raise AssertionError("a share forked")

    monkeypatch.setattr(pathlab, "_fork_share", no_fork)
    monkeypatch.setattr(pathlab, "_cpu_count", lambda: 2)
    with pytest.raises(AssertionError, match="a share forked"):
        wiener_ensemble(1.0, grid, 7, SEED, [4])  # a good call forks
    for name, run in refused.items():
        with pytest.raises(DomainError) as info:
            run()
        assert str(info.value) == alone[name], name


@pytest.mark.parametrize("f", [
    f_from_sigma({"kind": "power", "coefficient": 1.0, "exponent": 2.0}),
    reciprocal_map(),
], ids=["sigma_y2", "reciprocal"])
def test_closed_form_drift_matches_d2_over_d1_drift(f):
    # the same map with T_f evaluated as d2/d1 steps with the drift of the
    # chain-rule derivatives; the closed form differs from it by roundoff only
    old = dataclasses.replace(f, pre=lambda x: f.d2(x) / f.d1(x))
    grid = TimeGrid.uniform(1.0, 512)
    new_v, new_c, new_l = reflected_ensemble(f, 0.75, 0.25, grid, 64, SEED,
                                              range(513), floors=True)
    old_v, old_c, old_l = reflected_ensemble(old, 0.75, 0.25, grid, 64, SEED,
                                              range(513), floors=True)
    np.testing.assert_allclose(new_v, old_v, rtol=1e-12, atol=0)
    np.testing.assert_allclose(new_l, old_l, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(new_c, old_c)
    assert new_c.any()

    new_v, new_a = drifted_ensemble(f, 0.3, grid, 64, SEED, range(513))
    old_v, old_a = drifted_ensemble(old, 0.3, grid, 64, SEED, range(513))
    np.testing.assert_allclose(new_v, old_v, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(new_a, old_a)


def test_affine_maps_skip_the_zero_drift_bit_for_bit():
    # an affine map's T_f is smoothmaps._flat, whose zero drift the drifted
    # and reflected kernels skip; the same map with a T_f that is another
    # function steps through the drift arithmetic, and gets the same bits
    grid = TimeGrid.uniform(1.0, pathlab._SEGMENT + 88)
    every = range(grid.n_steps + 1)
    for f in (power_law_map(1.0), power_law_map(1.0, -0.5),
              affine_map(2.0, 1.0)):
        assert f.pre is smoothmaps._flat
        stepped = dataclasses.replace(f, pre=lambda x: smoothmaps._flat(x))
        for run in (
                lambda g: drifted_ensemble(g, 0.3, grid, 12, SEED, every),
                lambda g: reflected_ensemble(g, 0.2, 0.1, grid, 12, SEED,
                                             every, floors=True)):
            for a, b in zip(run(f), run(stepped)):
                np.testing.assert_array_equal(a, b)


def test_ensemble_partition_independence(monkeypatch):
    # values depend only on (seed, path index), not on ensemble size
    f = reciprocal_map()
    grid = TimeGrid.uniform(1.0, 64)
    small, _, _ = reflected_ensemble(f, 0.0, 0.3, grid, 3, SEED, [64])
    big, _, _ = reflected_ensemble(f, 0.0, 0.3, grid, 9, SEED, [64])
    np.testing.assert_array_equal(small, big[:3])

    # nor on how the runner cuts the ensemble into blocks and segments: a
    # path long enough for three stream segments, run whole, in blocks of
    # two paths and one path at a time, for every runner and every layout
    # (the random-floor dual reads its floor's uniform first; the drifted
    # walk from 0.3 is absorbed on bridges)
    grid = TimeGrid.uniform(1.0, 2 * pathlab._SEGMENT + 37)
    rec = [pathlab._SEGMENT - 1, grid.n_steps]
    bm = power_law_map(1.0)
    runs = [
        lambda n, i=0: reflected_ensemble(f, 0.0, 0.3, grid, n, SEED, rec, i,
                                          floors=True),
        lambda n, i=0: (wiener_ensemble(1.0, grid, n, SEED, rec, i),),
        lambda n, i=0: bessel_dual_ensemble(1.0, grid, n, SEED, rec, None, i),
        lambda n, i=0: bessel_dual_ensemble(1.0, grid, n, SEED, rec, 0.5, i),
        lambda n, i=0: drifted_ensemble(f, 1.0, grid, n, SEED, rec, i),
        lambda n, i=0: drifted_ensemble(bm, 0.3, grid, n, SEED, rec, i),
    ]
    whole = [run(3) for run in runs]
    assert not whole[5][1].all()
    monkeypatch.setattr(pathlab, "_BLOCK", 2)
    for run, outs in zip(runs, whole):
        for a, b in zip(outs, run(9)):
            np.testing.assert_array_equal(a, b[:3])
        for i in range(3):
            for a, b in zip(outs, run(1, i)):
                np.testing.assert_array_equal(a[i], b[0])


def _fresh_stream_draws(seed, i, n_steps, bridge, lead):
    """Path i's leading uniform, normals and uniforms, read from a new
    path_stream in the layout of the pathlab docstring."""
    g = path_stream(seed, i)
    u0 = g.random() if lead else None
    z, u = [], []
    for a in range(0, n_steps, pathlab._SEGMENT):
        w = min(pathlab._SEGMENT, n_steps - a)
        z.append(g.standard_normal(w))
        u.append(g.random(w) if bridge else np.empty(0))
    return u0, np.concatenate(z), np.concatenate(u)


def _read_streams(seed, first, n_paths, n_steps, bridge, lead, staggered):
    """Every path's leading uniform, normals and uniforms read through
    _path_steps; staggered reads the uniforms of row r at step n only when
    (n + r) % 3 != 1, so rows are first read at different steps, alone or
    beside rows read before (the others stay NaN)."""
    z = np.empty((n_paths, n_steps))
    u = np.full((n_paths, n_steps if bridge else 0), np.nan)
    u0 = np.empty(n_paths)
    blocks = 0
    for rows, lead_u, _, steps in pathlab._path_steps(
            seed, first, n_paths, n_steps, [n_steps], bridge, lead):
        blocks += 1
        if lead:
            u0[rows] = lead_u
        block = np.arange(rows.stop - rows.start)
        for n, zn, un, _ in steps:
            z[rows, n] = zn
            if bridge:
                idx = block[(n + block) % 3 != 1] if staggered else block
                u[rows.start + idx, n] = un(idx)
            else:
                assert un is None
    return blocks, u0, z, u


@pytest.mark.parametrize("seed,first",
                         [(SEED, 0), (2 ** 63 + 12345, 2 ** 64 - 3)],
                         ids=["small", "past_2_64"])
@pytest.mark.parametrize("bridge,lead", [(False, False), (True, False),
                                         (False, True), (True, True)])
def test_rekeyed_streams_equal_fresh_streams(monkeypatch, seed, first,
                                             bridge, lead):
    # blocks of two paths, so seven paths re-key the pool four times, over
    # one, two and three stream segments; the path indices of the second case
    # wrap past 2**64.  A fresh pool builds one block's worth of streams, and
    # later calls build none.
    n_paths = 7
    monkeypatch.setattr(pathlab, "_BLOCK", 2)
    monkeypatch.setattr(pathlab, "_POOL", threading.local())
    built = []
    stream = pathlab.path_stream
    monkeypatch.setattr(pathlab, "path_stream",
                        lambda *a: built.append(a) or stream(*a))
    for n_steps in (5, pathlab._SEGMENT + 5, 2 * pathlab._SEGMENT + 5):
        for staggered in (False, True):
            blocks, u0, z, u = _read_streams(seed, first, n_paths, n_steps,
                                             bridge, lead, staggered)
            assert blocks == 4
            for p in range(n_paths):
                want = _fresh_stream_draws(seed, first + p, n_steps, bridge,
                                           lead)
                if lead:
                    assert u0[p] == want[0]
                np.testing.assert_array_equal(z[p], want[1])
                read = ~np.isnan(u[p])
                assert read.all() or staggered
                np.testing.assert_array_equal(u[p][read], want[2][read])
    assert len(built) == 2

    # an ensemble runner over re-keyed streams: the walk summed path by path
    n_steps = pathlab._SEGMENT + 5
    grid = TimeGrid.uniform(1.0, n_steps)
    got = wiener_ensemble(0.5, grid, n_paths, seed, [n_steps], first)
    sqdt = np.sqrt(grid.dt)
    for p in range(n_paths):
        x = 0.5
        for dt_n, z_n in zip(sqdt, _fresh_stream_draws(seed, first + p,
                                                       n_steps, False,
                                                       False)[1]):
            x = x + dt_n * z_n
        assert got[p, 0] == x
    assert len(built) == 2


class _LoggedStream:
    """A path stream that logs the path index (its key's second word) at
    each call of random."""

    def __init__(self, g, log):
        self._g, self._log = g, log
        self.bit_generator = g.bit_generator

    def standard_normal(self, *args, **kwargs):
        return self._g.standard_normal(*args, **kwargs)

    def random(self, *args, **kwargs):
        self._log.append(int(self.bit_generator.state["state"]["key"][1]))
        return self._g.random(*args, **kwargs)


def test_bridge_uniforms_of_the_last_segment_are_drawn_on_first_use(
        monkeypatch):
    # two segments: the first draws every path's uniforms with its normals,
    # the last only those of paths that come near the floor
    f = power_law_map(1.0)
    grid = TimeGrid.uniform(0.25, pathlab._SEGMENT + 40)
    n, rec = 9, [0, pathlab._SEGMENT, grid.n_steps]
    far = reflected_ensemble(f, 10.0, 0.5, grid, n, SEED, rec, floors=True)
    at_floor = reflected_ensemble(f, 0.0, 0.5, grid, n, SEED, rec,
                                  floors=True)
    # the absorbed walk far from its edge and near it, and the dual far
    # below its running maximum (X* starts at 2 j0 - x0 = -9) and at it
    # (paths 18 ... 26, of which some are near their maximum at the end)
    others = [
        (lambda: drifted_ensemble(f, 10.0, grid, n, SEED, rec),
         lambda: drifted_ensemble(f, 0.8, grid, n, SEED, rec)),
        (lambda: bessel_dual_ensemble(10.0, grid, n, SEED, rec, 0.5),
         lambda: bessel_dual_ensemble(1.0, grid, n, SEED, rec, 1.0, 18)),
    ]
    want = [(far_run(), near_run()) for far_run, near_run in others]
    log = []
    stream = pathlab.path_stream
    monkeypatch.setattr(pathlab, "_POOL", threading.local())
    monkeypatch.setattr(pathlab, "path_stream",
                        lambda *a: _LoggedStream(stream(*a), log))
    # chi0 = 10 never comes within sqrt(18.5 dt) = 0.09 of the floor
    got = reflected_ensemble(f, 10.0, 0.5, grid, n, SEED, rec, floors=True)
    assert sorted(log) == list(range(n))
    for a, b in zip(got, far):
        np.testing.assert_array_equal(a, b)
    # from the floor, some paths come near it again in the last segment and
    # draw there too, and some do not
    log.clear()
    got = reflected_ensemble(f, 0.0, 0.5, grid, n, SEED, rec, floors=True)
    draws = [log.count(p) for p in range(n)]
    assert len(log) == sum(draws) and set(draws) == {1, 2}
    for a, b in zip(got, at_floor):
        np.testing.assert_array_equal(a, b)
    for (far_run, near_run), (far_want, near_want) in zip(others, want):
        log.clear()
        for a, b in zip(far_run(), far_want):
            np.testing.assert_array_equal(a, b)
        assert sorted(log) == list(range(n))
        log.clear()
        for a, b in zip(near_run(), near_want):
            np.testing.assert_array_equal(a, b)
        draws = collections.Counter(log)
        assert len(draws) == n and set(draws.values()) == {1, 2}
    # the reader alone: rows whose uniforms are never read draw none
    log.clear()
    for rows, _, _, steps in pathlab._path_steps(SEED, 100, n, grid.n_steps,
                                                 rec, bridge=True):
        for step, _, un, _ in steps:
            if step == grid.n_steps - 1:
                un(np.array([1, 4]))
    assert sorted(log) == sorted([*range(100, 100 + n), 101, 104])


def test_stream_pool_holds_at_most_a_block(monkeypatch):
    # one pool per thread, grown to at most _BLOCK streams however short the
    # grid (blocks of short grids used to hold more), and reused by later
    # calls; _BLOCK + 5 paths run as two equal blocks, so the pool holds the
    # larger one's streams
    monkeypatch.setattr(pathlab, "_POOL", threading.local())
    built = []
    stream = pathlab.path_stream
    monkeypatch.setattr(pathlab, "path_stream",
                        lambda *a: built.append(a) or stream(*a))
    n = pathlab._BLOCK + 5
    grids = [TimeGrid.uniform(1.0, steps) for steps in (16, 96, 512, 2048)]
    for grid in grids:
        wiener_ensemble(1.0, grid, n, SEED, [grid.n_steps])
        assert len(pathlab._POOL.gens) <= pathlab._BLOCK
    assert len(built) == -(-n // 2)
    for grid in grids:
        wiener_ensemble(1.0, grid, n, SEED, [grid.n_steps])
    assert len(built) == -(-n // 2)


@pytest.mark.parametrize("n", [1, 4, 5, 9, 13])
def test_paths_run_in_the_fewest_equal_blocks(monkeypatch, n):
    # blocks of at most four paths: n paths run as ceil(n / 4) contiguous
    # blocks that cover every path, the largest of ceil(n / blocks) rows,
    # and a fresh pool grows to exactly that many streams
    monkeypatch.setattr(pathlab, "_BLOCK", 4)
    monkeypatch.setattr(pathlab, "_POOL", threading.local())
    built = []
    stream = pathlab.path_stream
    monkeypatch.setattr(pathlab, "path_stream",
                        lambda *a: built.append(a) or stream(*a))
    blocks = [rows for rows, _, _, _ in pathlab._path_steps(
        SEED, 3, n, 5, [5], bridge=True)]
    k = -(-n // 4)
    assert len(blocks) == k
    assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
    assert blocks[-1].stop == n
    sizes = [b.stop - b.start for b in blocks]
    assert max(sizes) == -(-n // k) and max(sizes) - min(sizes) <= 1
    assert len(built) == len(pathlab._POOL.gens) == max(sizes)


@pytest.mark.parametrize("workers", [1, 2])
def test_equal_blocks_keep_the_one_block_bits(monkeypatch, workers):
    # every runner, cut into blocks of at most four paths and into one or
    # two shares, gives the bits of a run of all paths in one block
    f = reciprocal_map()
    grid = TimeGrid.uniform(1.0, pathlab._SEGMENT + 37)
    rec = [0, pathlab._SEGMENT, grid.n_steps]
    passes = _PASS_CASES[0][1]
    runs = {
        "wiener": lambda n: (wiener_ensemble(1.0, grid, n, SEED, rec),),
        "dual_fixed_floor": lambda n: bessel_dual_ensemble(
            1.0, grid, n, SEED, rec, 0.5),
        "dual_random_floor": lambda n: bessel_dual_ensemble(
            1.0, grid, n, SEED, rec),
        "drifted": lambda n: drifted_ensemble(power_law_map(1.0), 0.3, grid,
                                              n, SEED, rec),
        "reflected": lambda n: reflected_ensemble(f, 0.0, 0.3, grid, n,
                                                  SEED, rec, floors=True),
        "reflected_passes": lambda n: [a for out in reflected_passes(
            f, passes, n, SEED) for a in out],
    }
    whole = {name: run(13) for name, run in runs.items()}
    assert not whole["drifted"][1].all()
    monkeypatch.setattr(pathlab, "_BLOCK", 4)
    monkeypatch.setattr(pathlab, "_cpu_count", lambda: workers)
    for name, run in runs.items():
        for n in (1, 4, 5, 9, 13):
            for a, b in zip(run(n), whole[name]):
                assert (a is None and b is None) or np.array_equal(
                    a, b[:n]), (name, n)


def test_runs_of_no_paths_give_empty_outputs():
    f = reciprocal_map()
    grid = TimeGrid.uniform(1.0, 8)
    rec = [0, 8]
    assert list(pathlab._path_steps(SEED, 0, 0, 8, rec, bridge=True)) == []
    assert wiener_ensemble(1.0, grid, 0, SEED, rec).shape == (0, 2)
    for j0 in (0.5, None):
        assert [a.shape for a in bessel_dual_ensemble(
            1.0, grid, 0, SEED, rec, j0)] == [(0, 2), (0, 2)]
    assert [a.shape for a in drifted_ensemble(f, 1.0, grid, 0, SEED,
                                              rec)] == [(0, 2), (0,)]
    assert [a.shape for a in reflected_ensemble(
        f, 0.0, 0.3, grid, 0, SEED, rec, floors=True)] == [(0, 2), (0,),
                                                            (0, 2)]


def test_threads_running_ensembles_at_once_get_the_serial_bits(monkeypatch):
    # each thread has its own pool; blocks of three paths re-key it often
    monkeypatch.setattr(pathlab, "_BLOCK", 3)
    f = reciprocal_map()
    grid = TimeGrid.uniform(1.0, pathlab._SEGMENT + 37)
    runs = {k: (lambda k=k: reflected_ensemble(f, 0.0, 0.3, grid, 11,
                                               SEED + k, [grid.n_steps],
                                               floors=True))
            for k in range(4)}
    want = {k: run() for k, run in runs.items()}
    got, errors = {}, []

    def worker(k):
        try:
            for _ in range(3):
                got.setdefault(k, []).append(runs[k]())
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in runs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    for k, outs in got.items():
        assert len(outs) == 3
        for out in outs:
            for a, b in zip(out, want[k]):
                np.testing.assert_array_equal(a, b)


def test_rekey_resets_a_used_generator():
    # a generator with a half-used buffer and a stored 32-bit half
    g = path_stream(3, 4)
    g.standard_normal(3)
    g.integers(0, 2 ** 31, size=1, dtype=np.uint32)
    assert g.bit_generator.state["has_uint32"] == 1
    pathlab._rekey([g], 2 ** 63 + 12345, 2 ** 64 - 1)
    fresh = path_stream(2 ** 63 + 12345, 2 ** 64 - 1)
    assert repr(g.bit_generator.state) == repr(fresh.bit_generator.state)
    np.testing.assert_array_equal(g.integers(0, 2 ** 31, 5, dtype=np.uint32),
                                  fresh.integers(0, 2 ** 31, 5, dtype=np.uint32))
    np.testing.assert_array_equal(g.standard_normal(9), fresh.standard_normal(9))


def test_numpy_integer_seeds_and_indices_give_the_same_streams():
    # an integer of any type is taken at its value; numpy integers used to
    # overflow in the reduction mod 2**64
    want = path_stream(7, 2 ** 64 - 1).standard_normal(4)
    for seed, i in ((np.int64(7), np.uint64(2 ** 64 - 1)),
                    (np.uint64(7), 2 ** 64 - 1), (7, np.int64(-1))):
        np.testing.assert_array_equal(path_stream(seed, i).standard_normal(4),
                                      want)
    grid = TimeGrid.uniform(1.0, 8)
    want = reflected_ensemble(reciprocal_map(), 0.0, 0.3, grid, 3, 7, [8], 5)
    for seed, first in ((np.int64(7), np.int64(5)),
                        (np.uint64(7), np.uint64(5))):
        got = reflected_ensemble(reciprocal_map(), 0.0, 0.3, grid, 3, seed,
                                 [8], first)
        np.testing.assert_array_equal(got[0], want[0])
    with pytest.raises(TypeError):
        path_stream(7.0, 0)
    with pytest.raises(TypeError):
        wiener_ensemble(1.0, grid, 3, 7, [8], 5.0)


# ---------------------------------------------------------------------------
# path shares in forked workers


def _share_setup(monkeypatch, workers):
    """A 40-step grid with blocks of two paths, so that seven paths make up
    to three shares (2, 2 and 3 paths), and the worker count forced."""
    grid = TimeGrid.uniform(1.0, 40)
    monkeypatch.setattr(pathlab, "_BLOCK", 2)
    monkeypatch.setattr(pathlab, "_cpu_count", lambda: workers)
    return grid


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_path_shares_equal_the_serial_run(monkeypatch, workers):
    grid = _share_setup(monkeypatch, 1)
    f = reciprocal_map()
    # numpy integers, and a first index whose shares wrap past 2**64
    n, first = np.int64(7), np.uint64(2 ** 64 - 3)
    runners = {
        "wiener": lambda rec: (wiener_ensemble(1.0, grid, n, SEED, rec,
                                               first),),
        "dual_fixed_floor": lambda rec: bessel_dual_ensemble(
            1.0, grid, n, SEED, rec, 0.9, first),
        "dual_random_floor": lambda rec: bessel_dual_ensemble(
            0.2, grid, n, SEED, rec, None, first),
        "drifted": lambda rec: drifted_ensemble(f, 1.0, grid, n, SEED, rec,
                                                first),
        "reflected": lambda rec: reflected_ensemble(f, 0.0, 0.3, grid, n,
                                                    SEED, rec, first),
        "reflected_floors": lambda rec: reflected_ensemble(
            f, 0.0, 0.3, grid, n, SEED, rec, first, floors=True),
    }
    # every node, the end only, and duplicated, unsorted nodes
    records = [range(grid.n_steps + 1), [grid.n_steps],
               [grid.n_steps, 0, grid.n_steps, 17]]
    serial = {name: [run(rec) for rec in records]
              for name, run in runners.items()}
    assert serial["reflected"][0][2] is None  # floor levels only when asked
    forks = []
    fork_share = pathlab._fork_share
    monkeypatch.setattr(pathlab, "_fork_share",
                        lambda work: forks.append(work) or fork_share(work))
    monkeypatch.setattr(pathlab, "_cpu_count", lambda: workers)
    for name, run in runners.items():
        for rec, want in zip(records, serial[name]):
            got = run(rec)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert (a is None and b is None) or np.array_equal(a, b), name
    assert len(forks) == (workers - 1) * len(runners) * len(records)


@pytest.mark.parametrize("where", ["child", "caller"])
def test_share_exception_reaches_the_caller_and_no_child_remains(
        monkeypatch, where):
    grid = _share_setup(monkeypatch, 3)
    f = reciprocal_map()
    caller, armed = os.getpid(), []

    def pre(x):
        if armed and (os.getpid() == caller) == (where == "caller"):
            raise DomainError(f"drift refused in the {where}")
        if armed and where == "caller":
            time.sleep(60)  # a slow share, killed when the caller fails
            armed.clear()
        return f.pre(x)

    refusing = dataclasses.replace(f, pre=pre)
    armed.append(True)
    start = time.monotonic()
    with pytest.raises(DomainError, match=f"drift refused in the {where}"):
        drifted_ensemble(refusing, 1.0, grid, 7, SEED, [grid.n_steps])
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("kept, cause", [
    (0.5, pickle.UnpicklingError), (0.0, EOFError)], ids=["cut_short", "empty"])
def test_share_outcome_cut_short_raises_the_labelled_error(monkeypatch, kept,
                                                           cause):
    # a child that sends part of its pickled outcome, as one that dies while
    # sending does, or none of it: the caller names the share that sent it,
    # with the unpickler's own error as the cause
    grid = _share_setup(monkeypatch, 2)
    caller, dumps = os.getpid(), pickle.dumps

    def cut_dumps(*args):
        data = dumps(*args)
        return data if os.getpid() == caller else data[:int(len(data) * kept)]

    monkeypatch.setattr(pickle, "dumps", cut_dumps)
    with pytest.raises(RuntimeError, match=(
            r"^the worker of the share of paths 3 \.\.\. 6 \(pid \d+\) "
            r"ended without a result, exit code 0$")) as info:
        wiener_ensemble(1.0, grid, 7, SEED, [grid.n_steps])
    assert type(info.value.__cause__) is cause
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_live_thread_keeps_the_ensemble_in_process(monkeypatch):
    grid = _share_setup(monkeypatch, 3)
    want = wiener_ensemble(1.0, grid, 7, SEED, [grid.n_steps])
    monkeypatch.setattr(pathlab, "_fork_share",
                        lambda work: pytest.fail("forked while a thread ran"))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        got = wiener_ensemble(1.0, grid, 7, SEED, [grid.n_steps])
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# several reflected passes on one read of the streams

_SIGMA_Y2 = f_from_sigma({"kind": "power", "coefficient": 1.0,
                          "exponent": 2.0})
# (map, passes, the read plan): price's uniform 512-step pass beside the
# clustered 768-step Theta pass, which shares its read, and a 300-step pass,
# which must read alone; and two passes on one two-segment read of the
# Brownian map, whose drift is skipped
_PASS_CASES = [
    (_SIGMA_Y2,
     [ReflectedPass(0.75, 0.25, TimeGrid.uniform(1.0, 512), [512]),
      ReflectedPass(0.0, 0.25, TimeGrid.clustered(1.0, 768),
                    range(0, 769, 24), floors=True),
      ReflectedPass(0.0, 0.1, TimeGrid.uniform(1.0, 300), [300, 0, 150]),
      ReflectedPass(0.2, 0.3, TimeGrid.uniform(0.5, 768), [768],
                    floors=True)],
     [[0, 1, 3], [2]]),
    (power_law_map(1.0),
     [ReflectedPass(0.5, 0.5, TimeGrid.uniform(1.0, 1024), range(1025),
                    floors=True),
      ReflectedPass(0.1, 0.5, TimeGrid.clustered(1.0, 512), [512])],
     [[0, 1]]),
]


def test_read_plan_follows_the_prefix_rule():
    seg = pathlab._SEGMENT
    plan = [ReflectedPass(0.0, 0.5, TimeGrid.uniform(1.0, n), [n])
            for n in (96, 2 * seg, seg + 40, 96, seg, 40)]
    # 2 seg and seg read a prefix of the longest read; 96 and 40 do not
    assert read_plan(plan) == [[1, 4], [2], [0, 3], [5]]
    assert read_plan([]) == []


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_reflected_passes_equal_one_pass_calls(monkeypatch, workers):
    # blocks of two paths, so that seven paths make up to three shares,
    # from a first index past 0
    monkeypatch.setattr(pathlab, "_BLOCK", 2)
    monkeypatch.setattr(pathlab, "_cpu_count", lambda: 1)
    n, first = 7, 5
    want = [[reflected_ensemble(f, p.chi0, p.l0, p.grid, n, SEED, p.record,
                                first, floors=p.floors) for p in passes]
            for f, passes, _ in _PASS_CASES]
    assert not want[0][0][1].all() and want[0][1][1].all()
    reads, forks = [], []
    path_steps, fork_share = pathlab._path_steps, pathlab._fork_share
    monkeypatch.setattr(pathlab, "_path_steps", lambda *a, **k: (
        reads.append(a[3]) or path_steps(*a, **k)))
    monkeypatch.setattr(pathlab, "_fork_share",
                        lambda work: forks.append(work) or fork_share(work))
    monkeypatch.setattr(pathlab, "_cpu_count", lambda: workers)
    for (f, passes, plan), outs in zip(_PASS_CASES, want):
        assert read_plan(passes) == plan
        reads.clear()
        got = reflected_passes(f, passes, n, SEED, first)
        assert len(got) == len(outs)
        for a, b in zip(got, outs):
            assert len(a) == 3
            for x, y in zip(a, b):
                assert (x is None and y is None) or np.array_equal(x, y)
        # the caller's reads, of its share: one per planned read
        assert reads == [max(passes[i].grid.n_steps for i in read)
                         for read in plan]
    assert len(forks) == (workers - 1) * len(_PASS_CASES)


def test_reflected_passes_check_every_pass_before_any_runs(monkeypatch):
    grid = TimeGrid.uniform(1.0, 4)
    monkeypatch.setattr(pathlab, "_path_steps",
                        lambda *a, **k: pytest.fail("a read ran"))
    good = ReflectedPass(0.0, 0.5, grid, [4])
    for chi0, l0, node, match in ((-1e-9, 0.5, 4, "below the floor"),
                                  (0.0, -0.5, 4, "outside the domain"),
                                  (0.0, 0.5, 5, "outside the grid")):
        bad = ReflectedPass(chi0, l0, grid, [node])
        with pytest.raises(DomainError, match=match):
            reflected_passes(reciprocal_map(), [good, bad], 2, SEED)


# Values of paths 7 and 8 (seed SEED, 1061 steps on [0, 1]) at nodes 0, 511,
# 512, 513 and 1061, which straddle the first stream segment's end.  They pin
# the stream layout and the step arithmetic of each runner; the drifted and
# dual rows are also those of the scalar references below.
_PINNED = {
    "wiener": [
        [[1.0, 0.484966295682148, 0.47810705348976074, 0.4995437947838205,
          0.5401851850933865],
         [1.0, 0.6333332068943717, 0.6879569140723928, 0.6808771865540556,
          0.8090344544715551]]],
    "dual_fixed_floor": [
        [[1.0, 1.7269729826866504, 1.7338322248790377, 1.7391115512164834,
          1.3818294698929003],
         [1.0, 1.3666667931056278, 1.3120430859276064, 1.282622953366729,
          1.3123023138376733]],
        [[0.9, 1.0059696391844002, 1.0059696391844002, 1.0059696391844002,
          1.2848936456478226],
         [0.9, 0.9, 0.9, 0.9, 0.9]]],
    "dual_random_floor": [
        [[0.2, 0.8549358136001692, 0.8334990723061095, 0.8336179147090972,
          0.4973985466089547],
         [0.2, 0.5096502786653831, 0.5167300061837203, 0.5261511690501078,
          0.6088167241902442]],
        [[0.057461598431257956, 0.1270732279055359, 0.1270732279055359,
          0.1270732279055359, 0.44202061264092046],
         [0.07945357832231646, 0.07945357832231646, 0.07945357832231646,
          0.07945357832231646, 0.07945357832231646]]],
    "drifted": [
        [[1.0, 0.9454911686571881, 0.9396287703275961, 0.9353525072195514,
          2.220588715295289],
         [1.0, 1.1282761874549194, 1.183735246011692, 1.2139515929895843,
          1.5982919765879586]],
        [True, True]],
    "reflected": [
        [[0.3, 1.0455611906358833, 1.0396033849899595, 1.035230661191916,
          2.297478493960657],
         [0.3, 0.940508293767912, 0.996134126153173, 1.026500423536696,
          1.4724683901656568]],
        [True, True],
        [[0.3, 0.6737989287597366, 0.6737989287597366, 0.6737989287597366,
          0.6737989287597366],
         [0.3, 0.40846859518583056, 0.40846859518583056, 0.40846859518583056,
          0.40846859518583056]]],
}


def test_runner_values_are_pinned():
    # these values catch a change to the stream layout or to the per-step
    # arithmetic
    grid = TimeGrid.uniform(1.0, 1061)
    rec = [0, 511, 512, 513, 1061]
    f = reciprocal_map()
    got = {
        "wiener": (wiener_ensemble(1.0, grid, 2, SEED, rec, 7),),
        "dual_fixed_floor": bessel_dual_ensemble(1.0, grid, 2, SEED, rec,
                                                 0.9, 7),
        "dual_random_floor": bessel_dual_ensemble(0.2, grid, 2, SEED, rec,
                                                  None, 7),
        "drifted": drifted_ensemble(f, 1.0, grid, 2, SEED, rec, 7),
        "reflected": reflected_ensemble(f, 0.0, 0.3, grid, 2, SEED, rec, 7,
                                        floors=True),
    }
    for name, outs in got.items():
        assert len(outs) == len(_PINNED[name])
        for a, want in zip(outs, _PINNED[name]):
            np.testing.assert_array_equal(a, np.array(want), err_msg=name)


def _bridge_low(x, y, u, dt):
    """The minimum of the bridge from x to y over dt, sampled with u.  numpy's
    log1p, not math's: numpy's vectorised log1p can round otherwise than the
    C library's, and a numpy scalar rounds as an array element does."""
    d = y - x
    return 0.5 * (x + y - np.sqrt(d * d - 2.0 * dt * np.log1p(-u)))


def _dual_reference(x0, j0, grid, seed, i):
    """X and J* of path i of bessel_dual_ensemble at every node, one scalar
    step at a time from a new path_stream: J* takes the sampled bridge
    maximum of every step, near its running maximum or not."""
    u0, z, u = _fresh_stream_draws(seed, i, grid.n_steps, True, j0 is None)
    J = x0 * u0 if j0 is None else j0
    Y = 2 * J - x0
    xs, js = [2 * J - Y], [J]
    for dt, zn, un in zip(grid.dt, z, u):
        Y1 = Y + np.sqrt(dt) * zn
        d = Y1 - Y
        top = 0.5 * (Y + Y1 + np.sqrt(d * d - 2.0 * dt * np.log1p(-un)))
        J, Y = max(J, Y1, top), Y1
        xs.append(2 * J - Y)
        js.append(J)
    return np.array(xs), np.array(js)


def _drifted_reference(f, x0, grid, seed, i):
    """X of path i of drifted_ensemble at every node, whether it survived,
    and whether a bridge (not a node) absorbed it, one scalar step at a time
    from a new path_stream: every step samples the bridge at a finite lower
    edge, near it or not."""
    _, z, u = _fresh_stream_draws(seed, i, grid.n_steps, True, False)
    lo = f.domain[0]
    lo_g = lo + pathlab.EDGE_GUARD * (1 + abs(lo)) if np.isfinite(lo) else lo
    X, alive, bridged, xs = x0, True, False, [x0]
    for dt, zn, un in zip(grid.dt, z, u):
        if alive:
            prop = X - 0.5 * f.pre(np.array([X]))[0] * dt + np.sqrt(dt) * zn
            if not lo_g < prop:
                X, alive = lo_g, False
            elif np.isfinite(lo_g) and _bridge_low(X - lo_g, prop - lo_g,
                                                   un, dt) <= 0:
                X, alive, bridged = lo_g, False, True
            else:
                X = prop
        xs.append(X)
    return np.array(xs), alive, bridged


def test_drifted_and_dual_runners_match_scalar_references():
    # the pinned rows, and more paths of a map that absorbs at its lower edge
    # and one with no edge, on the three-segment grid; the references
    # sample every step's bridge, so they also check that the runners' near
    # filters skip only bridges that cannot reach their level
    grid = TimeGrid.uniform(1.0, 1061)
    rec = [0, 511, 512, 513, 1061]
    duals = {"dual_fixed_floor": (1.0, 0.9), "dual_random_floor": (0.2, None)}
    for name, (x0, j0) in duals.items():
        refs = [_dual_reference(x0, j0, grid, SEED, i) for i in (7, 8)]
        for k, want in enumerate(_PINNED[name]):
            np.testing.assert_array_equal(
                [ref[k][rec] for ref in refs], want, err_msg=name)
    refs = [_drifted_reference(reciprocal_map(), 1.0, grid, SEED, i)
            for i in (7, 8)]
    np.testing.assert_array_equal([ref[0][rec] for ref in refs],
                                  _PINNED["drifted"][0])
    assert [ref[1] for ref in refs] == _PINNED["drifted"][1]

    every = range(grid.n_steps + 1)
    bridged = 0
    for f, x0 in [(power_law_map(1.0), 0.3), (affine_map(1.0, 0.0), 1.0)]:
        X, alive = drifted_ensemble(f, x0, grid, 12, SEED, every)
        for i in range(12):
            want, survived, by_bridge = _drifted_reference(f, x0, grid, SEED,
                                                           i)
            np.testing.assert_array_equal(X[i], want)
            assert alive[i] == survived
            bridged += by_bridge
    assert bridged
    X, J = bessel_dual_ensemble(0.5, grid, 6, SEED, every, 0.5)
    for i in range(6):
        want_x, want_j = _dual_reference(0.5, 0.5, grid, SEED, i)
        np.testing.assert_array_equal(X[i], want_x)
        np.testing.assert_array_equal(J[i], want_j)


def test_bessel_dual_ensemble_random_floor_law():
    # with j0 drawn uniform(0, x0) the terminal mean matches the
    # unconditioned Bessel-3 mean (quadrature value 1.8493204 at x=T=1)
    grid = TimeGrid.uniform(1.0, 8192)
    vals, _ = bessel_dual_ensemble(1.0, grid, 8192, SEED, [8192])
    m = vals[:, 0].mean()
    se = vals[:, 0].std(ddof=1) / np.sqrt(len(vals))
    assert abs(m - 1.8493204333) < 3 * se + 2 * 0.5826 * np.sqrt(1 / 8192)


# ---------------------------------------------------------------------------
# functionals


def test_future_infimum_backward_min():
    grid = TimeGrid.uniform(1.0, 4)
    X = np.array([3.0, 1.0, 2.0, 0.5, 4.0])
    p = PathBundle(grid=grid, X=X, seed=0, path_index=0)
    np.testing.assert_array_equal(future_infimum(p), [0.5, 0.5, 0.5, 0.5, 4.0])


def test_change_of_measure_closes_to_bessel_mean():
    """Weighting stopped Wiener paths by the 1/x functional reproduces the
    Bessel-3 stopped mean (an h-transform identity), within joint MC error."""
    grid = TimeGrid.uniform(0.25, 512)
    band = (0.4, 2.5)
    mean, se = change_of_measure_expectation(
        reciprocal_map(), lambda x: x, 1.0, grid, 4000, SEED, band)
    # direct simulation of the weighted law: Bessel-3 stopped at the band exit
    tot = 0.0
    tot2 = 0.0
    n = 4000
    paths, _ = drifted_ensemble(reciprocal_map(), 1.0, grid, n, SEED + 1,
                                range(grid.n_steps + 1))
    for X in paths:
        exit_ = np.where((X <= band[0]) | (X >= band[1]))[0]
        stop = int(exit_[0]) if len(exit_) else len(X) - 1
        v = min(max(X[stop], band[0]), band[1])
        tot += v
        tot2 += v * v
    m2 = tot / n
    se2 = np.sqrt((tot2 / n - m2 ** 2) / n)
    z = (mean - m2) / np.hypot(se, se2)
    assert abs(z) < 3.0


def _measure_reference(s, payoff, x0, grid, n, seed, band):
    """change_of_measure_expectation path by path, on schwarzian_process and
    the payoff of each stopped value; also returns every path's stop node."""
    lo, hi = band
    X = wiener_ensemble(x0, grid, n, seed, range(grid.n_steps + 1))
    vals, stops = np.empty(n), np.empty(n, dtype=int)
    for i, row in enumerate(X):
        outside = (row <= lo) | (row >= hi)
        stop = int(np.argmax(outside)) if outside.any() else grid.n_steps
        row[stop] = min(max(row[stop], lo), hi)
        p = PathBundle(grid=TimeGrid(grid.nodes[:stop + 1]), X=row[:stop + 1],
                       seed=seed, path_index=i)
        vals[i] = schwarzian_process(s, p)[-1] * payoff(row[stop])
        stops[i] = stop
    return (float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n))), stops


def test_change_of_measure_matches_per_path_reference(monkeypatch):
    # shares of at least 3 paths, stepped in blocks of at most 7, so that
    # 22 paths in two shares of 11 each step unequal blocks of 5 and 6
    grid = TimeGrid.uniform(0.05, 16)
    monkeypatch.setattr(pathlab, "_WEIGHT_ROWS", 3)
    monkeypatch.setattr(pathlab, "_BLOCK", 7)
    payoff = _MEASURE_PAYOFFS["mixed"]
    for s in (power_law_map(3.0),
              f_from_sigma({"kind": "power", "coefficient": 1.0,
                            "exponent": 2.0})):
        got = change_of_measure_expectation(s, payoff, 1.0, grid, 22, SEED,
                                            (0.95, 1.5))
        want, stops = _measure_reference(s, payoff, 1.0, grid, 22, SEED,
                                         (0.95, 1.5))
        assert got == want
        # some paths leave the band at the first step, some never do
        assert stops.min() == 1 and stops.max() == grid.n_steps
        # a narrow band: every path of every block leaves before T, so each
        # block stops stepping once its last path has retired
        narrow = (0.99, 1.01)
        got = change_of_measure_expectation(s, payoff, 1.0, grid, 22, SEED,
                                            narrow)
        want, stops = _measure_reference(s, payoff, 1.0, grid, 22, SEED,
                                         narrow)
        assert got == want
        assert stops.max() < grid.n_steps


def test_change_of_measure_supermartingale_bound():
    # the weight alone (payoff == 1) has expectation <= 1 + 3 se
    grid = TimeGrid.uniform(0.5, 256)
    mean, se = change_of_measure_expectation(
        power_law_map(3.0), lambda x: 1.0, 2.0, grid, 2000, SEED, (0.5, 4.0))
    assert mean <= 1.0 + 3 * se


# the measure change's case list: maps whose S_f is zero, positive, negative
# and composed, a constant, linear and nonlinear payoff of the stopped
# value, and grids of one to three stream segments and clustered steps
_MEASURE_MAPS = {
    "reciprocal": reciprocal_map,
    "cube": lambda: power_law_map(3.0),
    "sqrt_shifted": lambda: power_law_map(0.5, xi=-0.1),
    "log_shifted": lambda: log_map(xi=-0.1),
    "reciprocal_of_square": lambda: compose(reciprocal_map(),
                                            power_law_map(2.0)),
}
_MEASURE_PAYOFFS = {
    "one": lambda x: 1.0,
    "end": lambda x: x,
    "mixed": lambda x: x * x - 2.0 / x,
}
_MEASURE_CASES = [(TimeGrid.uniform(0.25, 512), 1000, (0.4, 2.5)),
                  (TimeGrid.uniform(0.05, 16), 50, (0.95, 1.5)),
                  (TimeGrid.uniform(0.5, 777), 300, (0.5, 3.0)),
                  (TimeGrid.uniform(1.0, 1061), 600, (0.3, 4.0)),
                  (TimeGrid.clustered(0.5, 100), 2000, (0.6, 2.0))]


@pytest.mark.slow
def test_change_of_measure_shares_keep_every_bit(monkeypatch):
    # shares of at least 24 paths, so that every case runs as up to three
    # shares
    monkeypatch.setattr(pathlab, "_WEIGHT_ROWS", 24)
    forks = []
    fork_share = pathlab._fork_share
    monkeypatch.setattr(pathlab, "_fork_share",
                        lambda work: forks.append(work) or fork_share(work))
    maps = {name: make() for name, make in _MEASURE_MAPS.items()}
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(pathlab, "_cpu_count", lambda: workers)
        forks.clear()
        runs.append([change_of_measure_expectation(s, payoff, 1.0, grid, n,
                                                   SEED, band)
                     for s in maps.values()
                     for payoff in _MEASURE_PAYOFFS.values()
                     for grid, n, band in _MEASURE_CASES])
        assert len(forks) == len(maps) * len(_MEASURE_PAYOFFS) * sum(
            min(workers, n // 24) - 1 for _, n, _ in _MEASURE_CASES)
    assert len(runs[0]) == 75
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_change_of_measure_payoff_error_in_a_share_reaches_the_caller(
        monkeypatch):
    monkeypatch.setattr(pathlab, "_cpu_count", lambda: 2)
    caller = os.getpid()

    def payoff(x):
        if os.getpid() != caller:
            raise DomainError("payoff refused in the child")
        return 1.0

    grid = TimeGrid.uniform(0.05, 16)
    n = 2 * pathlab._WEIGHT_ROWS
    with pytest.raises(DomainError, match="payoff refused") as info:
        change_of_measure_expectation(reciprocal_map(), payoff, 1.0, grid, n,
                                      SEED, (0.5, 2.0))
    assert info.value.__notes__ == [
        f"raised in the share of paths {n // 2} ... {n - 1}, "
        "in a forked worker"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
