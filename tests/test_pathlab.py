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
)

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

    # nor on how the runner cuts the ensemble into blocks and time chunks:
    # a path long enough for several stream segments, run whole and then in
    # blocks of two paths with a draw budget of one segment per block
    grid = TimeGrid.uniform(1.0, 2 * pathlab._SEGMENT + 37)
    rec = [pathlab._SEGMENT - 1, grid.n_steps]
    whole = reflected_ensemble(f, 0.0, 0.3, grid, 3, SEED, rec)
    monkeypatch.setattr(pathlab, "_BLOCK", 2)
    monkeypatch.setattr(pathlab, "_CHUNK_BUDGET", 2 * 2 * pathlab._SEGMENT)
    cut = reflected_ensemble(f, 0.0, 0.3, grid, 9, SEED, rec)
    for a, b in zip(whole, cut):
        np.testing.assert_array_equal(a, b[:3])


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


def test_change_of_measure_supermartingale_bound():
    # the weight alone (payoff == 1) has expectation <= 1 + 3 se
    grid = TimeGrid.uniform(0.5, 256)
    mean, se = change_of_measure_expectation(
        power_law_map(3.0), lambda p: 1.0, 2.0, grid, 2000, SEED, (0.5, 4.0))
    assert mean <= 1.0 + 3 * se
