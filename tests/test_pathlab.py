"""Simulator tests: stream reproducibility, the reflection/dual couplings,
and the path functionals."""

import dataclasses

import numpy as np
import pytest

from bubblepde import (DomainError, affine_map, f_from_sigma, pathlab,
                       power_law_map, reciprocal_map)
from bubblepde.pathlab import (
    PathBundle,
    TimeGrid,
    bessel_dual_ensemble,
    change_of_measure_expectation,
    drifted_ensemble,
    first_hitting,
    future_infimum,
    path_stream,
    reflected_ensemble,
    simulate_bessel3_dual,
    simulate_drifted,
    simulate_skorokhod,
    simulate_wiener,
    wiener_ensemble,
)
from bubblepde.smoothmaps import schwarzian_process

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
# single-path simulators


def test_wiener_uses_grid_and_stream():
    grid = TimeGrid.uniform(1.0, 16)
    p = simulate_wiener(2.0, grid, SEED, 0)
    assert p.X[0] == 2.0
    incr = path_stream(SEED, 0).standard_normal(16) * np.sqrt(grid.dt)
    np.testing.assert_array_equal(p.X, np.add.accumulate(np.concatenate(([2.0], incr))))


def test_drifted_affine_reduces_to_wiener_bitwise():
    grid = TimeGrid.uniform(1.0, 64)
    w = simulate_wiener(1.5, grid, SEED, 7)
    d = simulate_drifted(affine_map(1.0, 0.0), 1.5, grid, SEED, 7)
    np.testing.assert_array_equal(w.X, d.X)


def test_drifted_absorption_flag():
    # a map on (0, inf) with zero drift: plain BM, eventually exits for a low start
    f = power_law_map(1.0)
    grid = TimeGrid.uniform(4.0, 4096)
    absorbed = 0
    for k in range(20):
        p = simulate_drifted(f, 0.05, grid, SEED, k)
        if p.truncated_at is not None:
            absorbed += 1
            n = p.truncated_at
            assert np.all(p.X[n:] == p.X[n])  # parked at the guarded edge
    assert absorbed > 10


def test_bessel_dual_invariants():
    grid = TimeGrid.uniform(1.0, 512)
    p = simulate_bessel3_dual(1.0, 0.4, grid, SEED, 2)
    assert p.X[0] == pytest.approx(1.0)
    assert p.Jstar[0] == pytest.approx(0.4)
    assert np.all(np.diff(p.Jstar) >= 0)
    assert np.all(p.X >= p.Jstar - 1e-12)


def test_bessel_dual_rejects_bad_floor():
    grid = TimeGrid.uniform(1.0, 4)
    with pytest.raises(DomainError):
        simulate_bessel3_dual(1.0, 1.5, grid, SEED, 0)
    with pytest.raises(DomainError):
        simulate_bessel3_dual(1.0, 0.0, grid, SEED, 0)


def test_skorokhod_stays_above_floor():
    f = reciprocal_map()
    grid = TimeGrid.uniform(1.0, 512)
    for k in range(10):
        p = simulate_skorokhod(f, 1.0, 0.5, grid, SEED, k)
        assert np.all(p.X >= p.Jstar - 1e-12)
        assert np.all(np.diff(p.Jstar) >= 0)


def test_stopped_at_keeps_truncation_only_if_before_node():
    grid = TimeGrid.uniform(1.0, 10)
    X = np.linspace(1.0, 2.0, 11)
    p = PathBundle(grid=grid, X=X, seed=0, path_index=0,
                   truncated_at=7)
    assert p.stopped_at(5).truncated_at is None
    assert p.stopped_at(8).truncated_at == 7
    assert len(p.stopped_at(5).X) == 6


# ---------------------------------------------------------------------------
# ensembles: bit-identity with the single-path simulators


def test_reflected_ensemble_matches_single_path_bitwise():
    f = reciprocal_map()
    grid = TimeGrid.uniform(1.0, 128)
    vals, contact, floors = reflected_ensemble(f, 0.5, 0.5, grid, 6, SEED, [64, 128])
    floor = floors[:, -1]
    for k in range(6):
        p = simulate_skorokhod(f, 1.0, 0.5, grid, SEED, k)
        assert vals[k, 0] == p.X[64]
        assert vals[k, 1] == p.X[128]
        assert floor[k] == p.Jstar[-1]
        assert contact[k] == (p.Jstar[-1] > 0.5)

    # every node of 64 paths x 512 steps
    grid = TimeGrid.uniform(1.0, 512)
    vals, _, floors = reflected_ensemble(f, 0.5, 0.5, grid, 64, SEED, range(513))
    for k in range(64):
        p = simulate_skorokhod(f, 1.0, 0.5, grid, SEED, k)
        np.testing.assert_array_equal(vals[k], p.X)
        np.testing.assert_array_equal(floors[k], p.Jstar)

    # a finite upper domain edge: a path stays where it is from its first
    # node at or above the edge
    edge = affine_map(1.0, 0.0, domain=(0.0, 1.2))
    grid = TimeGrid.uniform(1.0, 64)
    vals, _, floors = reflected_ensemble(edge, 0.5, 0.5, grid, 8, SEED, range(65))
    for k in range(8):
        p = simulate_skorokhod(edge, 1.0, 0.5, grid, SEED, k)
        np.testing.assert_array_equal(vals[k], p.X)
        np.testing.assert_array_equal(floors[k], p.Jstar)
        n = len(p.X) if p.truncated_at is None else p.truncated_at
        assert np.all(p.X[:n] < 1.2)
        assert np.all(p.X[n:] == p.X[-1])


def test_drifted_ensemble_matches_single_path_bitwise():
    f = reciprocal_map()
    grid = TimeGrid.uniform(1.0, 128)
    vals, alive = drifted_ensemble(f, 1.0, grid, 5, SEED, [128])
    for k in range(5):
        p = simulate_drifted(f, 1.0, grid, SEED, k)
        if p.truncated_at is None:
            assert alive[k]
            assert vals[k, -1] == p.X[-1]
        else:
            assert not alive[k]

    # every node of 64 paths x 512 steps
    grid = TimeGrid.uniform(1.0, 512)
    vals, alive = drifted_ensemble(f, 1.0, grid, 64, SEED, range(513))
    for k in range(64):
        p = simulate_drifted(f, 1.0, grid, SEED, k)
        np.testing.assert_array_equal(vals[k], p.X)
        assert alive[k] == (p.truncated_at is None)


@pytest.mark.parametrize("f", [
    f_from_sigma({"kind": "power", "coefficient": 1.0, "exponent": 2.0}),
    reciprocal_map(),
], ids=["sigma_y2", "reciprocal"])
def test_closed_form_drift_matches_d2_over_d1_drift(f):
    # the same map with T_f evaluated as d2/d1 steps with the drift of the
    # chain-rule derivatives; the closed form differs from it by roundoff only
    old = dataclasses.replace(f, pre=lambda x: f.d2(x) / f.d1(x))
    grid = TimeGrid.uniform(1.0, 512)
    new_v, new_c, new_l = reflected_ensemble(f, 0.75, 0.25, grid, 64, SEED, range(513))
    old_v, old_c, old_l = reflected_ensemble(old, 0.75, 0.25, grid, 64, SEED, range(513))
    np.testing.assert_allclose(new_v, old_v, rtol=1e-12, atol=0)
    np.testing.assert_allclose(new_l, old_l, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(new_c, old_c)
    assert new_c.any()

    new_v, new_a = drifted_ensemble(f, 0.3, grid, 64, SEED, range(513))
    old_v, old_a = drifted_ensemble(old, 0.3, grid, 64, SEED, range(513))
    np.testing.assert_allclose(new_v, old_v, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(new_a, old_a)


def test_ensemble_partition_independence(monkeypatch):
    # values depend only on (seed, path index), not on ensemble size
    f = reciprocal_map()
    grid = TimeGrid.uniform(1.0, 64)
    small, _, _ = reflected_ensemble(f, 0.0, 0.3, grid, 3, SEED, [64])
    big, _, _ = reflected_ensemble(f, 0.0, 0.3, grid, 9, SEED, [64])
    np.testing.assert_array_equal(small, big[:3])

    # nor on how the runner cuts the ensemble into blocks and segments: a
    # path long enough for several stream segments, run whole and then in
    # blocks of two paths with a draw budget of one segment per block, for
    # every runner (the random-floor dual reads its floor's uniform first)
    grid = TimeGrid.uniform(1.0, 2 * pathlab._SEGMENT + 37)
    rec = [pathlab._SEGMENT - 1, grid.n_steps]
    runs = [
        lambda n: reflected_ensemble(f, 0.0, 0.3, grid, n, SEED, rec),
        lambda n: (wiener_ensemble(1.0, grid, n, SEED, rec),),
        lambda n: bessel_dual_ensemble(1.0, grid, n, SEED, rec),
        lambda n: drifted_ensemble(f, 1.0, grid, n, SEED, rec),
    ]
    whole = [run(3) for run in runs]
    monkeypatch.setattr(pathlab, "_BLOCK", 2)
    monkeypatch.setattr(pathlab, "_CHUNK_BUDGET", 2 * 2 * pathlab._SEGMENT)
    for run, outs in zip(runs, whole):
        for a, b in zip(outs, run(9)):
            np.testing.assert_array_equal(a, b[:3])


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


@pytest.mark.parametrize("seed,first",
                         [(SEED, 0), (2 ** 63 + 12345, 2 ** 64 - 3)],
                         ids=["small", "past_2_64"])
@pytest.mark.parametrize("bridge,lead", [(False, False), (True, False),
                                         (False, True)])
def test_rekeyed_streams_equal_fresh_streams(monkeypatch, seed, first,
                                             bridge, lead):
    # blocks of two paths, so seven paths re-key the pool three times; the
    # path indices of the second case wrap past 2**64
    n_paths, n_steps = 7, pathlab._SEGMENT + 5
    monkeypatch.setattr(pathlab, "_CHUNK_BUDGET", 2 * 2 * pathlab._SEGMENT)
    built = []
    stream = pathlab.path_stream
    monkeypatch.setattr(pathlab, "path_stream",
                        lambda *a: built.append(a) or stream(*a))
    z = np.empty((n_paths, n_steps))
    u = np.empty((n_paths, n_steps if bridge else 0))
    u0 = np.empty(n_paths)
    blocks = 0
    for rows, lead_u, _, steps in pathlab._path_steps(
            seed, first, n_paths, n_steps, [n_steps], bridge, lead):
        blocks += 1
        if lead:
            u0[rows] = lead_u
        for n, zn, un, _ in steps:
            z[rows, n] = zn
            if bridge:
                u[rows, n] = un
    assert blocks == 4 and len(built) == 2
    for p in range(n_paths):
        want = _fresh_stream_draws(seed, first + p, n_steps, bridge, lead)
        if lead:
            assert u0[p] == want[0]
        np.testing.assert_array_equal(z[p], want[1])
        np.testing.assert_array_equal(u[p], want[2])

    # an ensemble runner over re-keyed streams: the walk summed path by path
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


# Values of paths 7 and 8 (seed SEED, 1061 steps on [0, 1]) at nodes 0, 511,
# 512, 513 and 1061, which straddle the first stream segment's end.  They pin
# the stream layout and the step arithmetic of each runner.
_PINNED = {
    "wiener": [
        [[1.0, 0.484966295682148, 0.47810705348976074, 0.4995437947838205,
          0.5401851850933865],
         [1.0, 0.6333332068943717, 0.6879569140723928, 0.6808771865540556,
          0.8090344544715551]]],
    "dual_fixed_floor": [
        [[1.0, 1.7113295951536531, 1.7181888373460403, 1.6967520960519806,
          1.656110705742414],
         [1.0, 1.3666667931056278, 1.3120430859276064, 1.3191228134459436,
          1.4226989986874965]],
        [[0.9, 0.9981479454179015, 0.9981479454179015, 0.9981479454179015,
          0.9981479454179015],
         [0.9, 0.9, 0.9, 0.9, 1.0158667265795256]]],
    "dual_random_floor": [
        [[0.2, 0.8392924260671719, 0.8178556847731121, 0.8146947184916078,
          0.81762193390706],
         [0.2, 0.5096502786653831, 0.5167300061837203, 0.5539953792204414,
          0.5649104548865946]],
        [[0.057461598431257956, 0.11925153413903722, 0.11925153413903722,
          0.11925153413903722, 0.11925153413903722],
         [0.07945357832231646, 0.07945357832231646, 0.07945357832231646,
          0.07945357832231646, 0.17716669048639713]]],
    "drifted": [
        [[1.0, 0.9454911686571881, 0.9396287703275961, 0.962068574851057,
          1.4499921476562607],
         [1.0, 1.1282761874549194, 1.183735246011692, 1.1774517329103698,
          1.63212321630787]],
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
    # the single-path tests compare a runner with itself; these values catch
    # a change to the stream layout or to the per-step arithmetic
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
        "reflected": reflected_ensemble(f, 0.0, 0.3, grid, 2, SEED, rec, 7),
    }
    for name, outs in got.items():
        assert len(outs) == len(_PINNED[name])
        for a, want in zip(outs, _PINNED[name]):
            np.testing.assert_array_equal(a, np.array(want), err_msg=name)


def test_bessel_dual_ensemble_fixed_floor_matches_single():
    grid = TimeGrid.uniform(1.0, 64)
    vals, jst = bessel_dual_ensemble(1.0, grid, 4, SEED, [64], j0=0.25)
    for k in range(4):
        p = simulate_bessel3_dual(1.0, 0.25, grid, SEED, k)
        assert vals[k, 0] == p.X[-1]
        assert jst[k, 0] == p.Jstar[-1]


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


def test_first_hitting_interpolates():
    grid = TimeGrid.uniform(1.0, 4)
    X = np.array([1.0, 0.8, 0.4, 0.9, 1.2])
    p = PathBundle(grid=grid, X=X, seed=0, path_index=0)
    t = first_hitting(p, 0.6)
    # crossing between nodes 1 (t=0.25, X=0.8) and 2 (t=0.5, X=0.4)
    assert t == pytest.approx(0.25 + 0.25 * (0.8 - 0.6) / (0.8 - 0.4))
    assert first_hitting(p, 0.1) is None
    with pytest.raises(DomainError):
        first_hitting(p, 2.0)


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
        reciprocal_map(), lambda p: float(p.X[-1]), 1.0, grid, 4000, SEED, band)
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
    """change_of_measure_expectation path by path, on schwarzian_process;
    also returns every path's stop node."""
    lo, hi = band
    X = wiener_ensemble(x0, grid, n, seed, range(grid.n_steps + 1))
    vals, stops = np.empty(n), np.empty(n, dtype=int)
    for i, row in enumerate(X):
        outside = (row <= lo) | (row >= hi)
        stop = int(np.argmax(outside)) if outside.any() else grid.n_steps
        row[stop] = min(max(row[stop], lo), hi)
        p = PathBundle(grid=grid, X=row, seed=seed,
                       path_index=i).stopped_at(stop)
        vals[i] = schwarzian_process(s, p)[-1] * payoff(p)
        stops[i] = stop
    return (float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n))), stops


def test_change_of_measure_matches_per_path_reference(monkeypatch):
    # chunks of 3 paths in blocks of 7: 20 paths make 3 blocks and 8 chunks
    grid = TimeGrid.uniform(0.05, 16)
    monkeypatch.setattr(pathlab, "_WEIGHT_ROWS", 3)
    monkeypatch.setattr(pathlab, "_CHUNK_BUDGET", 2 * 7 * 17)
    payoff = lambda p: float(p.X[-1]) * len(p.X) + p.path_index
    for s in (power_law_map(3.0), f_from_sigma(lambda y: y ** 2)):
        got = change_of_measure_expectation(s, payoff, 1.0, grid, 20, SEED,
                                            (0.95, 1.5))
        want, stops = _measure_reference(s, payoff, 1.0, grid, 20, SEED,
                                         (0.95, 1.5))
        assert got == want
        # some paths leave the band at the first step, some never do
        assert stops.min() == 1 and stops.max() == grid.n_steps


def test_change_of_measure_supermartingale_bound():
    # the weight alone (payoff == 1) has expectation <= 1 + 3 se
    grid = TimeGrid.uniform(0.5, 256)
    mean, se = change_of_measure_expectation(
        power_law_map(3.0), lambda p: 1.0, 2.0, grid, 2000, SEED, (0.5, 4.0))
    assert mean <= 1.0 + 3 * se
