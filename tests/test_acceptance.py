"""End-to-end acceptance checks, one test per shipping requirement.

Every stochastic leg runs at the resolution the requirement pins, under a
single seed fixed in advance of any numerical work (the build date), so each
number here reproduces bit for bit. Each test states its requirement as
written: a discretisation bias is removed from the program, never absorbed
into a wider tolerance.
"""

import time

import numpy as np
import pytest

from bubblepde import (
    FundraiserScheme,
    NaiveDirichletScheme,
    PayoffSpec,
    SpaceGrid,
    TaperedTerminalScheme,
    TimeGrid,
    affine_map,
    bond_bm,
    compose,
    estimate_theta,
    f_from_sigma,
    forward_bm_fundraiser,
    forward_recip_bessel_fundraiser,
    forward_recip_bessel_investor,
    future_infimum,
    is_strict_local_martingale,
    log_map,
    mobius_map,
    power_law_map,
    pre_schwarzian,
    price_fundraiser_mc,
    reciprocal_map,
    schwarzian,
    schwarzian_process,
    solve,
)
from bubblepde.pathlab import (PathBundle, bessel_dual_ensemble,
                               drifted_ensemble, wiener_ensemble)

SEED = 20260814  # build date; fixed before any run
FORWARD = PayoffSpec.forward()
BOND = PayoffSpec.bond()
SIG_SQUARE = {"kind": "power", "coefficient": 1.0, "exponent": 2.0}


def quadratic_taus(T, n):
    """Boundary-data time nodes clustered near 0, where theta varies fastest."""
    k = np.arange(n, dtype=float)
    return T * (k / (n - 1)) ** 2


def test_pde_forward_price_approaches_small_floor_limit():
    """Floor-anchored PDE solve of the sigma = y^2 forward at floor 0.02
    reproduces the vanishing-floor closed form within 1% in under a minute."""
    t0 = time.perf_counter()
    f = f_from_sigma(SIG_SQUARE)
    table = estimate_theta(f, 0.02, quadratic_taus(1.0, 33), FORWARD,
                           n_paths=20000, grid_resolution=768, seed=SEED)
    sol = solve(SIG_SQUARE, FORWARD, 1.0, FundraiserScheme(j=0.02, theta=table),
                grid=SpaceGrid.geometric(50 * 1e-5, 50.0, 800),
                times=TimeGrid.uniform(1.0, 2048))
    v = sol.value_at(0.0, 1.0)
    ref = forward_recip_bessel_investor(1.0, 1.0)
    assert abs(v - ref) / ref < 0.01
    assert time.perf_counter() - t0 < 60.0


@pytest.mark.slow
@pytest.mark.parametrize("x,j,T", [(1.0, 0.5, 1.0),
                                   (1.0, 0.25, 1.0),
                                   (2.0, 1.0, 0.5)])
def test_mc_forward_price_matches_reciprocal_bessel_closed_form(x, j, T):
    """Reflected-walk Monte Carlo against the two-term closed form at 1e5
    paths and dt = T/2048.

    Each step reflects on the exact minimum of its Brownian bridge, so an
    excursion below the floor between two nodes moves the floor as it does
    in the continuous process. A walk reflected only at the nodes would lose
    those excursions and price high by O(sqrt(dt)), by more than this band
    at this resolution. With the drift frozen over each step, the z-scores
    at this seed are +0.04, +0.55 and +0.33. The step count, the band and
    the seed are part of the requirement."""
    t0 = time.perf_counter()
    mc, se = price_fundraiser_mc(reciprocal_map(), x, j, T, FORWARD,
                                 n_paths=100_000, grid_resolution=2048,
                                 seed=SEED)
    ref = forward_recip_bessel_fundraiser(x, j, T)
    assert abs(mc - ref) <= 3.0 * se
    assert time.perf_counter() - t0 < 120.0


@pytest.mark.slow
def test_mc_forward_price_and_delta_match_brownian_closed_form():
    """Driftless reflected walk (identity transform): price against the
    closed form, and the finite-difference delta at the floor, where the
    closed form gives exactly -1.

    The delta uses a one-sided bump with common random numbers -- the spot
    cannot be bumped down without crossing the floor. One-sided truncation
    contributes ~0.04 for this bump size (half the bump times the local
    curvature 4*phi(0)), about half of the 0.1 acceptance window."""
    f = power_law_map(1.0)
    mc, se = price_fundraiser_mc(f, 1.0, 1.0, 1.0, FORWARD,
                                 n_paths=65536, grid_resolution=20000,
                                 seed=SEED)
    ref = forward_bm_fundraiser(1.0, 1.0, 1.0)
    assert abs(mc - ref) <= 3.0 * se

    eps = 0.05
    up, _ = price_fundraiser_mc(f, 1.0 + eps, 1.0, 1.0, FORWARD,
                                n_paths=8192, grid_resolution=8192, seed=SEED)
    base, _ = price_fundraiser_mc(f, 1.0, 1.0, 1.0, FORWARD,
                                  n_paths=8192, grid_resolution=8192,
                                  seed=SEED)
    delta = (up - base) / eps
    assert abs(delta - (-1.0)) < 0.1


@pytest.mark.slow
def test_absorbed_walk_survival_prices_bond_below_par():
    """Survival frequency of the driftless absorbed walk matches the closed
    form -- and prices the unit payout strictly below par."""
    n = 65536
    grid = TimeGrid.uniform(1.0, 15000)
    _, alive = drifted_ensemble(power_law_map(1.0), 1.0, grid, n, SEED,
                                [15000])
    p = alive.mean()
    se = np.sqrt(p * (1.0 - p) / n)
    ref = bond_bm(1.0, 1.0)
    assert abs(p - ref) <= 3.0 * se
    assert p + 3.0 * se < 1.0


@pytest.mark.slow
def test_bridge_monitored_kernels_meet_closed_forms_at_512_steps():
    """At 512 steps, over seeds 1-10 fixed before any run and 20 000 paths
    each, the absorbed walk's survival from 1 to T = 1 matches bond_bm and
    the dual's E[1/X_T] from 1 matches forward_recip_bessel_investor: every
    |z| <= 3, and each kernel's mean z lies within 3/sqrt(10) of 0.  Both
    kernels sample each step's Brownian bridge; monitored at the nodes only,
    they read z = +2.6 ... +5.4 here."""
    n, steps = 20000, 512
    grid = TimeGrid.uniform(1.0, steps)
    ref = forward_recip_bessel_investor(1.0, 1.0)
    zs = {"absorbed": [], "dual": []}
    for seed in range(1, 11):
        _, alive = drifted_ensemble(power_law_map(1.0), 1.0, grid, n, seed,
                                    [steps])
        p = alive.mean()
        zs["absorbed"].append((p - bond_bm(1.0, 1.0))
                              / np.sqrt(p * (1.0 - p) / n))
        vals, _ = bessel_dual_ensemble(1.0, grid, n, seed, [steps])
        inv = 1.0 / vals[:, 0]
        zs["dual"].append((inv.mean() - ref) / (inv.std(ddof=1) / np.sqrt(n)))
    for name, z in zs.items():
        assert np.max(np.abs(z)) <= 3.0, (name, z)
        assert abs(np.mean(z)) <= 3.0 / np.sqrt(10), (name, z)


def test_volatility_growth_detector_and_solution_nonuniqueness():
    """sigma = y^2 admits two distinct solutions of the same terminal-value
    problem: the cap-extension scheme preserves v = y exactly (its stencil
    annihilates linear functions) while the floor-anchored scheme prices
    strictly lower. The integral detector separates the sigma regimes."""
    assert is_strict_local_martingale(SIG_SQUARE)
    assert not is_strict_local_martingale(
        {"kind": "power", "coefficient": 1.0, "exponent": 1.0})

    naive = solve(SIG_SQUARE, FORWARD, 1.0, NaiveDirichletScheme(cap=50.0),
                  grid=SpaceGrid.geometric_with_zero(50 * 1e-5, 50.0, 400),
                  times=TimeGrid.uniform(1.0, 512))
    assert abs(naive.value_at(0.0, 1.0) - 1.0) < 1e-9

    f = f_from_sigma(SIG_SQUARE)
    table = estimate_theta(f, 0.02, quadratic_taus(1.0, 17), FORWARD,
                           n_paths=4000, grid_resolution=256, seed=SEED)
    fund = solve(SIG_SQUARE, FORWARD, 1.0,
                 FundraiserScheme(j=0.02, theta=table),
                 grid=SpaceGrid.geometric(50 * 1e-5, 50.0, 400),
                 times=TimeGrid.uniform(1.0, 512))
    assert fund.value_at(0.0, 1.0) < 1.0 - 0.05


def test_scheme_ordering_and_floor_ladder():
    """Tightening the floor raises the floor-anchored price (up to MC noise
    in the boundary data); the taper-at-the-cap scheme prices below it at
    matched refinement; and the value stays below the closed form plus three
    times the boundary-data error. The PDE value is deterministic given the
    boundary table, and by the discrete maximum principle its stochastic
    error is bounded by the sup of the boundary error -- hence
    sigma := max-over-tau of the table stderr."""
    f = f_from_sigma(SIG_SQUARE)
    taus = quadratic_taus(1.0, 33)
    values, sigmas = [], []
    for j in (0.4, 0.2, 0.1, 0.05, 0.02):
        cap = float(f(j))
        table = estimate_theta(f, j, taus, FORWARD,
                               n_paths=20000, grid_resolution=768, seed=SEED)
        sol = solve(SIG_SQUARE, FORWARD, 1.0,
                    FundraiserScheme(j=j, theta=table),
                    grid=SpaceGrid.geometric(cap * 1e-5, cap, 800),
                    times=TimeGrid.uniform(1.0, 2048))
        values.append(sol.value_at(0.0, 1.0))
        sigmas.append(float(np.max(table.stderr)))
    for k in range(len(values) - 1):
        assert values[k + 1] >= values[k] - 2.0 * np.hypot(sigmas[k],
                                                           sigmas[k + 1])
    tapered = solve(SIG_SQUARE, FORWARD, 1.0, TaperedTerminalScheme(n=50.0),
                    grid=SpaceGrid.geometric_with_zero(50 * 1e-5, 50.0, 800),
                    times=TimeGrid.uniform(1.0, 2048))
    assert tapered.value_at(0.0, 1.0) <= values[-1]
    oracle = forward_recip_bessel_fundraiser(1.0, 0.02, 1.0)
    assert values[-1] <= oracle + 3.0 * sigmas[-1]


def test_derivative_identities_and_process_composition():
    """Pointwise: the pre-Schwarzian and Schwarzian chain rules, the
    reciprocal rule, Mobius invariance, and the vanishing characterizations,
    at 100 random points within 1e-7 relative. Pathwise: the Mobius closed
    form, and multiplicativity of the multiplicative functional under
    composition on 100 simulated paths -- exact for a Mobius outer map; for
    a general outer map the inner factor must be read in the inner path's
    own quadratic-variation clock, re-expressed here on the trapezoid
    time-changed grid, which converges at first order in dt."""
    rng = np.random.default_rng(SEED)
    x = rng.uniform(0.6, 3.0, 100)

    def rel(a, b):
        return np.max(np.abs(a - b) / np.maximum(np.abs(b), 1.0))

    worst = 0.0
    for _ in range(10):
        fp = power_law_map(rng.uniform(0.3, 2.5))
        gm = mobius_map((rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0),
                         rng.uniform(0.1, 0.8), rng.uniform(0.8, 1.5)))
        gf = compose(gm, fp)
        worst = max(worst, rel(
            pre_schwarzian(gf, x),
            pre_schwarzian(gm, fp(x)) * fp.d1(x) + pre_schwarzian(fp, x)))
        worst = max(worst, rel(
            schwarzian(gf, x),
            schwarzian(gm, fp(x)) * fp.d1(x) ** 2 + schwarzian(fp, x)))
    f2 = power_law_map(2.0)
    worst = max(worst, rel(
        pre_schwarzian(compose(reciprocal_map(), f2), x),
        pre_schwarzian(f2, x) - 2.0 * f2.d1(x) / f2(x)))
    phi = mobius_map((1.0, 2.0, 0.5, 3.0))
    f13 = power_law_map(1.3)
    worst = max(worst, np.max(
        np.abs(schwarzian(compose(phi, f13), x) - schwarzian(f13, x))
        / np.abs(schwarzian(f13, x))))
    assert worst < 1e-7

    aff = affine_map(2.0, 0.5)
    assert np.max(np.abs(pre_schwarzian(aff, x))) == 0.0
    assert np.max(np.abs(schwarzian(phi, x))) < 1e-13
    assert np.min(np.abs(pre_schwarzian(f2, x))) > 0.0
    assert np.min(np.abs(schwarzian(f13, x))) > 0.0

    grid = TimeGrid.uniform(1.0, 1024)
    nodes = range(grid.n_steps + 1)
    # paths 0 ... 99 of the Wiener ensembles from 1 and from 2
    paths = {x0: [PathBundle(grid=grid, X=X, seed=SEED, path_index=k)
                  for k, X in enumerate(wiener_ensemble(x0, grid, 100, SEED,
                                                        nodes))]
             for x0 in (1.0, 2.0)}
    phi2 = mobius_map((2.0, 3.0, 1.0, 4.0))
    for p in paths[1.0]:
        s = schwarzian_process(phi2, p)
        ref = (p.X[: len(s)] + 4.0) / (p.X[0] + 4.0)
        np.testing.assert_allclose(s, ref, atol=1e-12)

    g2 = power_law_map(2.0)
    checked = 0
    for p in paths[2.0]:
        if np.any(p.X <= 0.05):
            continue
        comp = schwarzian_process(compose(phi2, g2), p)
        inner = schwarzian_process(g2, p)
        gX = g2(p.X)
        pg = PathBundle(grid=grid, X=gX, seed=p.seed,
                        path_index=p.path_index)
        outer = schwarzian_process(phi2, pg)
        np.testing.assert_allclose(comp, outer * inner, atol=1e-12)
        checked += 1
    assert checked >= 50

    pairs = [
        (log_map(), g2, 0.3, 1e-2),
        (power_law_map(3.0), mobius_map((2.0, 3.0, 1.0, 1.0)), 0.05, 1e-4),
    ]
    for fo, gi, floor, tol in pairs:
        checked = 0
        for p in paths[2.0]:
            if np.any(p.X <= floor):
                continue
            comp = schwarzian_process(compose(fo, gi), p)
            inner = schwarzian_process(gi, p)
            gX = gi(p.X)
            d1sq = gi.d1(p.X) ** 2
            tau = np.concatenate(([0.0], np.cumsum(
                0.5 * (d1sq[:-1] + d1sq[1:]) * np.diff(grid.nodes))))
            pg = PathBundle(grid=TimeGrid(tau), X=gX,
                            seed=p.seed, path_index=p.path_index)
            outer = schwarzian_process(fo, pg)
            assert np.max(np.abs(comp - outer * inner) / np.abs(comp)) < tol
            checked += 1
        assert checked >= 50


@pytest.mark.slow
def test_reflection_duality_invariants_and_cross_simulator_moments():
    """The max-minus-walk dual construction satisfies its pathwise order
    relations exactly; its terminal law agrees with the drifted simulator
    within joint MC error.  The dual's running maximum takes each step's
    sampled Brownian-bridge maximum, so it has no running-max bias at any
    step count; the drifted walk, absorbed on bridges too, still freezes its
    singular drift over each step, a bias that 4096 steps put below the
    noise floor."""
    grid = TimeGrid.uniform(1.0, 1024)
    slack = 2.0 * np.sqrt(1.0 / 1024)
    X, J = bessel_dual_ensemble(1.0, grid, 1000, SEED, range(1025), j0=0.5)
    assert np.all(np.diff(J, axis=1) >= 0.0)
    assert np.all(X >= J)
    for k, (x, j) in enumerate(zip(X, J)):
        p = PathBundle(grid=grid, X=x, seed=SEED, path_index=k)
        assert np.all(future_infimum(p) >= j - slack)

    n = 16384
    dual, _ = bessel_dual_ensemble(1.0, TimeGrid.uniform(1.0, 32768), n,
                                   SEED, [32768])
    drift_vals, alive = drifted_ensemble(power_law_map(-1.0), 1.0,
                                         TimeGrid.uniform(1.0, 4096), n,
                                         SEED + 1, [4096])
    a, b = dual[:, 0], drift_vals[alive, 0]
    for pa, pb in ((a, b), (a ** 2, b ** 2)):
        se = np.hypot(pa.std(ddof=1) / np.sqrt(len(pa)),
                      pb.std(ddof=1) / np.sqrt(len(pb)))
        assert abs(pa.mean() - pb.mean()) <= 3.0 * se


def test_bond_prices_at_par_across_methods_and_models():
    """Unit payout: every pricing route returns 1 on both benchmark models.
    The closed form is the constant 1; each MC draw is exactly 1; the PDE
    stencil's zero row sums keep a constant profile stationary to roundoff."""
    tol = 1e-6
    taus = quadratic_taus(1.0, 9)

    f = f_from_sigma(SIG_SQUARE)
    mc, se = price_fundraiser_mc(f, 1.0, 0.02, 1.0, BOND,
                                 n_paths=2000, grid_resolution=256, seed=SEED)
    assert abs(mc - 1.0) <= max(3.0 * se, tol)
    table = estimate_theta(f, 0.02, taus, BOND, n_paths=2000,
                           grid_resolution=128, seed=SEED)
    grid = SpaceGrid.geometric(50 * 1e-5, 50.0, 400)
    sol = solve(SIG_SQUARE, BOND, 1.0, FundraiserScheme(j=0.02, theta=table),
                grid=grid, times=TimeGrid.uniform(1.0, 512))
    prof = np.array([sol.value_at(0.0, y) for y in grid.nodes])
    assert np.max(np.abs(prof - 1.0)) <= tol

    sig_flat = {"kind": "power", "coefficient": 1.0, "exponent": 0.0}
    f0 = affine_map(1.0, 0.0)
    mc0, se0 = price_fundraiser_mc(f0, 1.0, 0.5, 1.0, BOND,
                                   n_paths=2000, grid_resolution=256,
                                   seed=SEED)
    assert abs(mc0 - 1.0) <= max(3.0 * se0, tol)
    table0 = estimate_theta(f0, 0.5, taus, BOND, n_paths=2000,
                            grid_resolution=128, seed=SEED)
    grid0 = SpaceGrid.geometric(0.5 * 1e-5, 0.5, 400)
    sol0 = solve(sig_flat, BOND, 1.0, FundraiserScheme(j=0.5, theta=table0),
                 grid=grid0, times=TimeGrid.uniform(1.0, 512))
    prof0 = np.array([sol0.value_at(0.0, y) for y in grid0.nodes])
    assert np.max(np.abs(prof0 - 1.0)) <= tol
