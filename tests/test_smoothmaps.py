"""Tests for the smooth-map layer: constructors, derivative identities, and
the multiplicative path functional."""

import dataclasses

import numpy as np
import pytest

from bubblepde import (
    DomainError,
    affine_map,
    compose,
    f_from_sigma,
    from_descriptor,
    log_map,
    mobius_map,
    power_law_map,
    pre_schwarzian,
    reciprocal_map,
    schwarzian,
    schwarzian_process,
    shift_map,
)
from bubblepde.pathlab import PathBundle, TimeGrid, wiener_ensemble
from bubblepde.smoothmaps import _fd_cross_check

RNG = np.random.default_rng(991)


def fd(fun, x, eps):
    return (fun(x + eps) - fun(x - eps)) / (2 * eps)


# ---------------------------------------------------------------------------
# constructors and derivatives


def test_power_law_values_and_derivatives():
    f = power_law_map(0.5)
    x = np.array([0.25, 1.0, 4.0])
    np.testing.assert_allclose(f(x), np.sqrt(x))
    np.testing.assert_allclose(f.d1(x), 0.5 / np.sqrt(x))
    # closed forms for the two differential invariants
    np.testing.assert_allclose(pre_schwarzian(f, x), (0.5 - 1.0) / x)
    np.testing.assert_allclose(schwarzian(f, x), (1 - 0.25) / (2 * x * x))


def test_power_law_alpha_zero_is_log():
    f = log_map()
    x = np.array([0.5, 2.0])
    np.testing.assert_allclose(f(x), np.log(x))
    assert schwarzian(f, 2.0) == pytest.approx(1.0 / 8.0)


def test_power_law_shifted_domain():
    f = power_law_map(2.0, xi=1.0)
    assert f(2.0) == pytest.approx(1.0)
    assert not f.contains(0.5)
    # raw eval is unchecked (hot path); the invariant evaluators enforce domains
    with pytest.raises(DomainError):
        pre_schwarzian(f, 0.5)
    with pytest.raises(DomainError):
        f.require(0.5)


def test_mobius_basics():
    f = mobius_map((2.0, 3.0, 1.0, 1.0))
    assert f(1.0) == pytest.approx(2.5)
    # S vanishes identically on Mobius maps
    x = RNG.uniform(0.1, 10.0, 50)
    assert np.max(np.abs(schwarzian(f, x))) < 1e-9 * np.max(1 + x ** -2)


def test_mobius_degenerate_rejected():
    with pytest.raises(DomainError):
        mobius_map((1.0, 2.0, 2.0, 4.0))  # ad - bc = 0


def test_reciprocal_is_mobius_0110():
    f = reciprocal_map()
    assert f(4.0) == pytest.approx(0.25)
    assert f.d1(2.0) == pytest.approx(-0.25)
    assert schwarzian(f, 3.0) == 0.0


def test_affine_pre_schwarzian_zero():
    f = affine_map(3.0, -2.0)
    x = RNG.uniform(-5, 5, 40)
    assert np.max(np.abs(pre_schwarzian(f, x))) == 0.0


def test_derivatives_match_finite_differences():
    # spot-check d1 and d2 of a nontrivial composition against central FD
    f = compose(mobius_map((1.0, 0.5, 0.3, 1.2)), power_law_map(1.7))
    for x in (0.7, 1.3, 2.9):
        eps = 1e-5 * (1 + abs(x))
        assert f.d1(x) == pytest.approx(fd(f, x, eps), rel=1e-4)
        assert f.d2(x) == pytest.approx(fd(f.d1, x, eps), rel=1e-4)


def test_compose_rejects_range_mismatch():
    # inner range includes negatives; outer needs positives
    with pytest.raises(DomainError):
        compose(power_law_map(0.5), affine_map(1.0, -10.0))


def test_shift_map():
    f = power_law_map(2.0)
    g = shift_map(f, 0.5)
    assert g(1.0) == pytest.approx(f(1.5))
    assert g.d1(1.0) == pytest.approx(f.d1(1.5))
    assert g.contains(-0.25) and not g.contains(-0.75)


def test_descriptor_round_trip():
    maps = [power_law_map(1.5, 0.2), mobius_map((0.0, 1.0, 1.0, 0.0)),
            affine_map(2.0, 1.0), compose(reciprocal_map(), power_law_map(2.0))]
    x = np.array([1.1, 2.3])
    for f in maps:
        g = from_descriptor(f.descriptor)
        np.testing.assert_allclose(g(x), f(x), rtol=1e-14)
        np.testing.assert_allclose(g.d2(x), f.d2(x), rtol=1e-12)


# ---------------------------------------------------------------------------
# the closed-form pre-Schwarzian T_f against d2/d1


PRE_MAPS = {
    **{f"power_{a}": (lambda a=a: power_law_map(a)) for a in (-1.0, 0.5, 1.0, 1.7, 3.0)},
    "log": log_map,
    "mobius": lambda: mobius_map((2.0, 3.0, 1.0, 1.0)),
    "reciprocal": reciprocal_map,
    "affine": lambda: affine_map(3.0, -2.0),
    "affine_domain": lambda: affine_map(1.0, 0.5, domain=(0.0, 4.0)),
    "nested_compose": lambda: compose(
        mobius_map((1.0, 0.5, 0.3, 1.2)),
        compose(power_law_map(1.7), affine_map(2.0, 1.0, domain=(0.0, 5.0)))),
    "shift": lambda: shift_map(power_law_map(2.0), 0.5),
    "sigma_power": lambda: f_from_sigma(
        {"kind": "power", "coefficient": 2.0, "exponent": 1.5}),
}


def _interior(f):
    lo, _ = f.domain
    base = lo if np.isfinite(lo) else -2.3
    return base + np.array([0.3, 0.9, 1.7, 3.1])


@pytest.mark.parametrize("name", sorted(PRE_MAPS))
def test_pre_matches_d2_over_d1(name):
    f = PRE_MAPS[name]()
    x = _interior(f)
    np.testing.assert_allclose(f.pre(x), f.d2(x) / f.d1(x), rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", sorted(PRE_MAPS))
def test_schw_matches_central_difference_of_pre(name):
    # S_f = T_f' - T_f^2 / 2, with T_f' by central difference of the
    # closed-form pre: an independent check of every closed-form schw
    f = PRE_MAPS[name]()
    x = _interior(f)
    eps = 1e-5 * (1 + np.abs(x))
    want = fd(f.pre, x, eps) - 0.5 * f.pre(x) ** 2
    np.testing.assert_allclose(f.schw(x), want, rtol=1e-6, atol=1e-6)


def test_compose_affine_outer_keeps_inner_pre_bitwise():
    x = np.array([0.3, 0.9, 1.7, 3.1])
    for g in (power_law_map(-1.0), power_law_map(1.7), reciprocal_map(), log_map()):
        for outer in (affine_map(2.5, -1.0), affine_map(1.0, 0.0, domain=(-100.0, 100.0))):
            np.testing.assert_array_equal(compose(outer, g).pre(x), g.pre(x))
        # a Moebius outer map has S = 0, so the composition keeps S_g's bits
        for outer in (affine_map(2.5, -1.0), mobius_map((1.0, 2.0, 0.5, 3.0))):
            np.testing.assert_array_equal(compose(outer, g).schw(x), g.schw(x))


@pytest.mark.parametrize("name", ["power_1.7", "log", "reciprocal",
                                  "nested_compose", "sigma_power"])
def test_fd_cross_check_rejects_a_wrong_pre(name):
    f = PRE_MAPS[name]()
    _fd_cross_check(f)
    bad = dataclasses.replace(f, pre=lambda x: 1.01 * f.pre(x))
    with pytest.raises(DomainError, match="pre-Schwarzian"):
        _fd_cross_check(bad)


@pytest.mark.parametrize("name", ["power_1.7", "log", "nested_compose",
                                  "shift", "sigma_power"])
def test_fd_cross_check_rejects_a_wrong_schwarzian(name):
    f = PRE_MAPS[name]()
    _fd_cross_check(f)
    bad = dataclasses.replace(f, schw=lambda x: 1.01 * f.schw(x))
    with pytest.raises(DomainError, match="Schwarzian cross-check"):
        _fd_cross_check(bad)


# ---------------------------------------------------------------------------
# the identity battery (T2), (T5), (S2), (S3)


def _random_pair(rng):
    f = power_law_map(rng.uniform(0.3, 2.5))
    g = mobius_map((rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0),
                    rng.uniform(0.1, 0.8), rng.uniform(0.8, 1.5)))
    return f, g


def test_chain_rule_identities_at_random_points():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        f, g = _random_pair(rng)
        gf = compose(g, f)
        x = rng.uniform(0.6, 3.0, 100)
        lhs = pre_schwarzian(gf, x)
        rhs = pre_schwarzian(g, f(x)) * f.d1(x) + pre_schwarzian(f, x)
        worst = max(worst, np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1.0)))
        lhs = schwarzian(gf, x)
        rhs = schwarzian(g, f(x)) * f.d1(x) ** 2 + schwarzian(f, x)
        worst = max(worst, np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1.0)))
    assert worst < 1e-7


def test_reciprocal_composition_identity():
    # T_{1/f} = T_f - 2 f'/f
    rng = np.random.default_rng(8)
    f = power_law_map(2.0)
    x = rng.uniform(0.6, 3.0, 100)
    lhs = pre_schwarzian(compose(reciprocal_map(), f), x)
    rhs = pre_schwarzian(f, x) - 2 * f.d1(x) / f(x)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-7)


def test_schwarzian_invariant_under_mobius_postcomposition():
    # S_{phi o f} = S_f for Mobius phi
    rng = np.random.default_rng(9)
    f = power_law_map(1.3)
    phi = mobius_map((1.0, 2.0, 0.5, 3.0))
    x = rng.uniform(0.6, 3.0, 100)
    np.testing.assert_allclose(schwarzian(compose(phi, f), x), schwarzian(f, x),
                               rtol=1e-7, atol=1e-12)


def test_affine_precomposition_scales_schwarzian():
    # S_{f o g} = (S_f o g) * slope^2 for affine g
    f = power_law_map(0.5)
    g = affine_map(2.0, 0.5, domain=(0.0, np.inf))
    x = np.array([0.5, 1.0, 2.0])
    np.testing.assert_allclose(schwarzian(compose(f, g), x),
                               schwarzian(f, g(x)) * 4.0, rtol=1e-12)


# ---------------------------------------------------------------------------
# schwarzian_process


def test_process_mobius_closed_form():
    phi = mobius_map((2.0, 3.0, 1.0, 1.0))
    grid = TimeGrid.uniform(1.0, 200)
    X = wiener_ensemble(5.0, grid, 1, 12, range(201))[0]
    p = PathBundle(grid=grid, X=X, seed=12, path_index=0)
    s = schwarzian_process(phi, p)
    ref = (p.X + 1.0) / (p.X[0] + 1.0)
    np.testing.assert_allclose(s, ref[: len(s)], atol=1e-13)


def test_process_power_law_closed_form():
    """The power-law process equals its closed form evaluated with the same
    trapezoid rule — agreement is to roundoff, not discretization, accuracy."""
    alpha = 1.7
    f = power_law_map(alpha)
    grid = TimeGrid.uniform(0.5, 300)
    X = wiener_ensemble(3.0, grid, 1, 77, range(301), 4)[0]
    p = PathBundle(grid=grid, X=X, seed=77, path_index=4)
    s = schwarzian_process(f, p)
    X = p.X[: len(s)]
    t = grid.nodes[: len(s)]
    integ = np.concatenate(([0.0], np.cumsum(
        0.5 * (1 / X[:-1] ** 2 + 1 / X[1:] ** 2) * np.diff(t))))
    ref = (X[0] / X) ** ((alpha - 1) / 2) * np.exp((1 - alpha ** 2) / 8 * integ)
    np.testing.assert_allclose(s, ref, rtol=1e-12)


def test_process_constant_path():
    f = power_law_map(1.0)  # identity: S == 0
    grid = TimeGrid.uniform(1.0, 10)
    p = PathBundle(grid=grid, X=np.full(11, 2.0),
                   seed=0, path_index=0)
    np.testing.assert_array_equal(schwarzian_process(f, p), np.ones(11))


def test_process_truncates_at_domain_exit():
    f = power_law_map(0.5)  # needs X > 0
    grid = TimeGrid.uniform(1.0, 4)
    X = np.array([1.0, 0.5, -0.1, 0.2, 0.3])
    p = PathBundle(grid=grid, X=X, seed=0, path_index=0)
    s = schwarzian_process(f, p)
    assert len(s) == 2
    assert s[0] == 1.0


def test_process_rejects_start_outside_domain():
    f = power_law_map(0.5)
    grid = TimeGrid.uniform(1.0, 2)
    p = PathBundle(grid=grid, X=np.array([-1.0, 1.0, 1.0]),
                   seed=0, path_index=0)
    with pytest.raises(DomainError):
        schwarzian_process(f, p)


def test_process_composition_multiplicativity_mobius_outer():
    """With a Mobius outer map the composition law holds exactly (the outer
    Schwarzian vanishes, so no quadratic-variation bookkeeping enters)."""
    phi = mobius_map((2.0, 3.0, 1.0, 1.0))
    g = power_law_map(2.0)
    grid = TimeGrid.uniform(1.0, 256)
    checked = 0
    for k, X in enumerate(wiener_ensemble(2.0, grid, 60, 314, range(257))):
        p = PathBundle(grid=grid, X=X, seed=314, path_index=k)
        if np.any(p.X <= 0.05):
            continue
        comp = schwarzian_process(compose(phi, g), p)
        inner = schwarzian_process(g, p)
        gX = g(p.X)
        pg = PathBundle(grid=grid, X=gX,
                        seed=p.seed, path_index=p.path_index)
        outer = schwarzian_process(phi, pg)
        np.testing.assert_allclose(comp, outer * inner, atol=1e-12)
        checked += 1
    assert checked >= 20
