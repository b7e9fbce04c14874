"""Finite-difference solver tests: the bubble detector, scale-map recovery,
grids, the four boundary treatments, the stepper against a per-step
reference, the stacked stepper against solve, and the corner-defect
diagnostic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded, solveh_banded

from bubblepde import (
    ConfigError,
    DomainError,
    NumericsError,
    PayoffSpec,
    ThetaTable,
    estimate_theta,
    forward_recip_bessel_investor,
    pdesolve,
    reciprocal_map,
)
from bubblepde.pathlab import TimeGrid
from bubblepde.pdesolve import (
    FundraiserScheme,
    NaiveDirichletScheme,
    NeumannCapScheme,
    SpaceGrid,
    TaperedTerminalScheme,
    TransformedCauchyScheme,
    _taper,
    corner_defect,
    f_from_sigma,
    is_strict_local_martingale,
    solve,
)

SEED = 787
SIG2 = {"kind": "power", "coefficient": 1.0, "exponent": 2.0}
FWD = PayoffSpec.forward()


# ---------------------------------------------------------------------------
# detector


def test_detector_power_laws():
    assert is_strict_local_martingale(SIG2)
    assert not is_strict_local_martingale({"kind": "power", "coefficient": 1.0,
                                           "exponent": 1.0})


def test_detector_near_critical_exponent():
    # integral of y^(1-2p): converges for p = 1.01, diverges for p = 1
    assert is_strict_local_martingale({"kind": "power", "coefficient": 1.0,
                                       "exponent": 1.01})


def test_detector_callable_sigma():
    assert is_strict_local_martingale(lambda y: y * np.sqrt(1.0 + y))
    assert not is_strict_local_martingale(lambda y: np.sqrt(y))


# ---------------------------------------------------------------------------
# f from sigma


def test_f_from_sigma_power_fast_path():
    f = f_from_sigma(SIG2)
    x = np.array([0.5, 1.0, 2.0])
    np.testing.assert_allclose(f(x), 1.0 / x, rtol=1e-12)
    np.testing.assert_allclose(f.d1(x), -1.0 / x ** 2, rtol=1e-12)
    assert np.all(f.d1(np.geomspace(1e-3, 1e3, 13)) < 0)  # decreasing


def test_f_from_sigma_rejects_true_martingale_exponent():
    with pytest.raises(DomainError):
        f_from_sigma({"kind": "power", "coefficient": 1.0, "exponent": 1.0})
    with pytest.raises(DomainError):
        f_from_sigma({"kind": "power", "coefficient": 1.0, "exponent": 0.5})


def test_f_from_sigma_refuses_a_sigma_without_a_closed_form():
    for sigma in (lambda y: y ** 1.5, {"kind": "exp", "rate": 1.0}):
        with pytest.raises(ConfigError, match="power sigma descriptor"):
            f_from_sigma(sigma)


# ---------------------------------------------------------------------------
# grids


def test_space_grid_constructors():
    u = SpaceGrid.uniform(0.0, 2.0, 4)
    np.testing.assert_allclose(u.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
    g = SpaceGrid.geometric(0.01, 10.0, 6)
    assert g.nodes[0] == pytest.approx(0.01)
    assert g.nodes[-1] == pytest.approx(10.0)
    ratios = g.nodes[1:] / g.nodes[:-1]
    np.testing.assert_allclose(ratios, ratios[0])
    z = SpaceGrid.geometric_with_zero(0.01, 10.0, 6)
    assert z.nodes[0] == 0.0
    assert z.m == 6
    # the top node is the cap exactly: exp(log cap) misses these by an ulp
    for cap in (1 / 0.02, 1 / 0.05, 1 / 0.2):
        for make in (SpaceGrid.geometric, SpaceGrid.geometric_with_zero):
            assert make(cap * 1e-5, cap, 60).nodes[-1] == cap


def test_space_grid_validation():
    with pytest.raises(ConfigError):
        SpaceGrid(nodes=np.array([0.0, 1.0, 0.5]))
    with pytest.raises(ConfigError):
        SpaceGrid(nodes=np.array([0.0, 1.0]))


@pytest.mark.parametrize("nodes, bad", [
    ([0.0, 1.0, np.nan, 3.0, 4.0], "i=2 is not finite: nan"),
    ([0.0, 1.0, 2.0, 3.0, np.inf], "i=4 is not finite: inf"),
    ([-np.inf, 0.0, np.nan, 2.0, 3.0], "i=0 is not finite: -inf"),
])
def test_space_grid_names_its_first_non_finite_node(nodes, bad):
    # a NaN compares false, so the increasing-order check alone passes it
    with pytest.raises(ConfigError, match=f"node {bad}$"):
        SpaceGrid(nodes=nodes)


@pytest.mark.parametrize("y", [np.nan, np.inf, -np.inf, 5.0,
                               np.array([1.0, np.nan])])
def test_space_grid_interp_rejects_points_off_the_grid(y):
    # nan compares False both ways, so a range test alone let it through
    grid = SpaceGrid.geometric(1e-3, 4.0, 20)
    with pytest.raises(DomainError):
        grid.interp(grid.nodes, y)


# the pinned table is built when a case runs: _pinned_table is defined below
@pytest.mark.parametrize("make, error, match", [
    (lambda: SpaceGrid(nodes=[0.0, 1.0, 0.5, 2.0]), ConfigError,
     "strictly increasing"),
    (lambda: SpaceGrid(nodes=[0.0, 1.0, 1.0, 2.0]), ConfigError,
     "strictly increasing"),
    (lambda: TimeGrid(nodes=[0.0]), DomainError, "at least two nodes"),
    (lambda: FundraiserScheme(j=0.0, theta=_pinned_table(0.1, 10.0)),
     ConfigError, "floor j must be positive"),
    (lambda: solve(SIG2, FWD, 1.0,
                   FundraiserScheme(j=0.1, theta=_pinned_table(0.1, 10.0)),
                   grid=SpaceGrid.geometric_with_zero(1e-4, 10.0, 50),
                   times=TimeGrid.uniform(1.0, 8)),
     ConfigError, "lives on y > 0"),
    (lambda: NeumannCapScheme(n=0.0), ConfigError, "cap n must be positive"),
    (lambda: TaperedTerminalScheme(n=-1.0), ConfigError,
     "cap n must be positive"),
    (lambda: NaiveDirichletScheme(cap=0.0), ConfigError, "cap must be positive"),
], ids=["space-decreasing", "space-repeated", "time-one-node",
        "fundraiser-floor-zero", "fundraiser-grid-with-zero",
        "neumann-cap-zero", "tapered-cap-negative", "naive-cap-zero"])
def test_grids_and_schemes_refuse_bad_input(make, error, match):
    with pytest.raises(error, match=match):
        make()


def test_price_point_must_lie_on_a_solved_node():
    # under y = 1/x a floor of 1e-5 puts the fundraiser grid's bottom node,
    # which holds payoff(0), at f(x0) = 1 itself
    grid = pdesolve.fundraiser_grid(1e5, 800)
    assert grid.nodes[0] == pytest.approx(1.0)
    for y in (1.0, float(np.nextafter(grid.nodes[1], 0.0)), np.nan):
        with pytest.raises(ConfigError, match="first node the PDE solves"):
            pdesolve.check_price_point(grid, y)
    pdesolve.check_price_point(grid, float(grid.nodes[1]))
    pdesolve.check_price_point(pdesolve.fundraiser_grid(1e4, 800), 1.0)
    # the fundraiser scheme builds the same grid
    scheme = FundraiserScheme(j=0.1, theta=_pinned_table(0.1, 10.0))
    assert np.array_equal(scheme.grid(800).nodes,
                          pdesolve.fundraiser_grid(10.0, 800).nodes)


# ---------------------------------------------------------------------------
# scheme plumbing


def _theta_table(j, payoff=FWD, taus=(0.0, 0.25, 1.0), n=2000, res=96):
    return estimate_theta(reciprocal_map(), j, list(taus), payoff, n, res, SEED)


def _every_scheme(tab):
    return (FundraiserScheme(j=0.1, theta=tab), NeumannCapScheme(n=10.0),
            TaperedTerminalScheme(n=10.0), TransformedCauchyScheme(n=10.0),
            NaiveDirichletScheme(cap=10.0))


def test_default_grid_is_the_scheme_grid():
    times = TimeGrid.uniform(1.0, 32)
    for scheme in _every_scheme(_theta_table(0.1)):  # cap f(0.1) = 10
        grid = scheme.grid(800)
        assert grid.m == 800 and grid.nodes[-1] == pytest.approx(10.0, rel=1e-12)
        assert grid.nodes[-1] == pytest.approx(scheme.cap, rel=1e-12)
        assert (grid.nodes[0] == 0.0) == (scheme.kind != "fundraiser")
        got = solve(SIG2, FWD, 1.0, scheme, times=times).values
        want = solve(SIG2, FWD, 1.0, scheme, grid=grid, times=times).values
        assert np.array_equal(got, want), scheme.kind
        assert corner_defect(FWD, 1.0, scheme) \
            == corner_defect(FWD, 1.0, scheme, grid=grid), scheme.kind


def test_fundraiser_scheme_checks_theta_floor():
    tab = _theta_table(0.1)
    with pytest.raises(ConfigError):
        FundraiserScheme(j=0.2, theta=tab)


def test_solve_validates_theta_weight_and_grid():
    tab = _theta_table(0.1)
    sch = FundraiserScheme(j=0.1, theta=tab)
    with pytest.raises(ConfigError):
        solve(SIG2, FWD, 1.0, sch, theta_weight=1.5)
    bad = SpaceGrid.geometric(1e-4, 5.0, 50)  # cap should be 10
    with pytest.raises(ConfigError):
        solve(SIG2, FWD, 1.0, sch, grid=bad)
    with pytest.raises(ConfigError, match="time grid does not end at T"):
        solve(SIG2, FWD, 1.0, sch, times=TimeGrid.uniform(0.5, 8))


def test_solve_requires_theta_coverage():
    tab = _theta_table(0.1, taus=(0.0, 0.25, 0.5))
    with pytest.raises(ConfigError):
        solve(SIG2, FWD, 1.0, FundraiserScheme(j=0.1, theta=tab))


def test_monotonicity_guard_trips_on_bad_transformed_grid():
    # the convection term sigma^2/y demands h_plus <= y_i; a node close to
    # zero followed by a wide panel violates it (uniform grids sit exactly
    # on the boundary, y_1 == h, and stay legal)
    grid = SpaceGrid(nodes=np.array([0.0, 0.5, 2.0, 3.5, 5.0, 7.5, 10.0]))
    with pytest.raises(NumericsError):
        solve(SIG2, PayoffSpec.call(1.0), 1.0, TransformedCauchyScheme(n=10.0),
              grid=grid, times=TimeGrid.uniform(1.0, 16))


def test_solve_fails_closed_on_non_finite_sigma():
    with pytest.raises(NumericsError, match=r"node i=\d+, y="):
        solve(lambda y: np.where(y > 2, np.inf, y ** 2), FWD, 1.0,
              NeumannCapScheme(4.0))


# ---------------------------------------------------------------------------
# the stepper against the per-step reference


def _reference_data(sig, payoff, T, scheme, grid, times):
    """What both per-step references start from: the interior stencil rows
    (a, b, c), the terminal datum, the bottom value and the top-row datum of
    step k (computed step by step)."""
    y = grid.nodes
    yi = y[1:-1]
    sig2 = np.asarray(sig(yi), dtype=float) ** 2
    hm = yi - y[:-2]
    hp = y[2:] - yi
    a = sig2 / (hm * (hm + hp))
    c = sig2 / (hp * (hm + hp))
    transformed = isinstance(scheme, TransformedCauchyScheme)
    if transformed:
        conv = sig2 / yi
        a = a - conv * hp / (hm * (hm + hp))
        c = c + conv * hm / (hp * (hm + hp))
    b = -(a + c)
    if isinstance(scheme, TaperedTerminalScheme):
        v = _taper(payoff, scheme.n, y)
    elif transformed:
        v = np.zeros_like(y)
        v[1:] = np.asarray(payoff(y[1:]), dtype=float) / y[1:]
    else:
        v = np.asarray(payoff(y), dtype=float)
    bottom = 0.0 if transformed else float(payoff(0.0))
    if isinstance(scheme, FundraiserScheme):
        theta_of = scheme.theta.interpolator()
        top_of = lambda k: theta_of(T - times.nodes[k])
    elif isinstance(scheme, NaiveDirichletScheme):
        top_of = lambda k: float(payoff(scheme.cap))
    else:
        top_of = lambda k: 0.0
    return (a, b, c), v, bottom, top_of


def _lu_reference(sig, payoff, T, scheme, grid, times, th):
    """The discrete equations on every node, boundary rows included, as a
    tridiagonal matrix built and handed to solve_banded (an LU solve) at
    every step.  The implicit matrix takes the dt of the last step whose dt
    moved by more than a relative 1e-12, the explicit part each step's own
    dt.  A row whose stencil is all zero is an identity row."""
    y = grid.nodes
    m = grid.m
    (a, b, c), v, bottom, top_of = _reference_data(sig, payoff, T, scheme,
                                                   grid, times)
    transformed = isinstance(scheme, TransformedCauchyScheme)
    n_t = times.n_steps
    out = np.empty((n_t + 1, m + 1))
    out[n_t] = v * y if transformed else v
    ab = np.zeros((3, m + 1))
    rhs = np.empty(m + 1)
    dt_m = None
    for k in range(n_t - 1, -1, -1):
        dt = times.dt[k]
        if dt_m is None or abs(dt - dt_m) > 1e-12 * dt_m:
            dt_m = dt
        expl = v[1:-1].copy()
        if th < 1.0:
            expl += (1 - th) * dt * (a * v[:-2] + b * v[1:-1] + c * v[2:])
        rhs[1:-1] = expl
        ab[:] = 0.0
        ab[0, 2:] = -th * dt_m * c
        ab[1, 0] = 1.0
        ab[1, 1:-1] = 1.0 - th * dt_m * b
        ab[2, 0:m - 1] = -th * dt_m * a
        rhs[0] = bottom
        ab[1, m] = 1.0
        if isinstance(scheme, NeumannCapScheme):
            ab[2, m - 1] = -1.0  # the cap row v_M - v_{M-1} = 0
        rhs[m] = top_of(k)
        v = solve_banded((1, 1), ab, rhs)
        out[k] = v * y if transformed else v
    return out


def _stepped_reference(sig, payoff, T, scheme, grid, times, th):
    """The time loop in the scaled interior unknowns u = D v: at every step
    the symmetric positive-definite tridiagonal system of the interior
    rows, its boundary rows eliminated into the rhs, built and handed to
    solveh_banded (LAPACK ptsv, which is pttrf + pttrs), with the top-row
    datum computed step by step.  Every constant of a step takes the dt of
    the last step whose dt moved by more than a relative 1e-12 (solve's
    rule for refactoring).  D_{i+1} / D_i = sqrt(c_i / a_{i+1}), summed in
    log space and centred on the midpoint of its range."""
    y = grid.nodes
    m = grid.m
    (a, b, c), v, bottom, top_of = _reference_data(sig, payoff, T, scheme,
                                                   grid, times)
    transformed = isinstance(scheme, TransformedCauchyScheme)
    neumann = isinstance(scheme, NeumannCapScheme)
    log_d = np.concatenate([[0.0], np.cumsum(0.5 * (np.log(c[:-1])
                                                    - np.log(a[1:])))])
    log_d -= (log_d.max() + log_d.min()) / 2
    d = np.exp(log_d)
    off = np.sqrt(c[:-1]) * np.sqrt(a[1:])
    diag = b.copy()
    if neumann:
        diag[-1] += c[-1]  # v_M = v_{M-1}
    n_t = times.n_steps
    out = np.empty((n_t + 1, m + 1))
    out[n_t] = v * y if transformed else v
    u = v[1:-1] * d
    # the explicit half's old boundary data: the terminal datum on the
    # first step (for the Neumann cap the part v_{M-1} does not cover)
    old_bottom = v[0]
    old_top = v[m] - v[m - 1] if neumann else v[m]
    ab = np.zeros((2, m - 1))
    dt_m = None
    for k in range(n_t - 1, -1, -1):
        dt = times.dt[k]
        if dt_m is None or abs(dt - dt_m) > 1e-12 * dt_m:
            dt_m = dt
        if th < 1.0:
            rhs = (1.0 + (1 - th) * dt_m * diag) * u
            rhs[1:] += (1 - th) * dt_m * off * u[:-1]
            rhs[:-1] += (1 - th) * dt_m * off * u[1:]
        else:
            rhs = u.copy()
        new_top = top_of(k)
        rhs[0] += d[0] * a[0] * (th * dt_m * bottom
                                 + (1 - th) * dt_m * old_bottom)
        rhs[-1] += d[-1] * c[-1] * (th * dt_m * new_top
                                    + (1 - th) * dt_m * old_top)
        ab[0, 1:] = -th * dt_m * off
        ab[1] = 1.0 - th * dt_m * diag
        u = solveh_banded(ab, rhs)
        row = np.empty(m + 1)
        row[0] = bottom
        row[1:-1] = u / d
        row[m] = row[m - 1] + new_top if neumann else new_top
        out[k] = row * y if transformed else row
        old_bottom, old_top = bottom, new_top
    return out


@pytest.mark.parametrize("times", [TimeGrid.uniform(1.0, 60),
                                   TimeGrid.clustered(1.0, 64)],
                         ids=["uniform", "clustered"])
@pytest.mark.parametrize("th", [1.0, 0.5])
def test_stepper_matches_per_step_reference_bitwise(times, th):
    # uniform(1, 60) has dt that differ in their last bits (one factoring
    # for the whole grid); clustered changes dt at every step.  The LU
    # reference solves the same discrete equations unscaled, so it checks
    # them: the largest difference measured was 3.5e-15 * max|v|.
    sig = lambda y: y ** 2
    tab = _theta_table(0.1)  # cap f(0.1) = 10
    geo = SpaceGrid.geometric(1e-4, 10.0, 60)
    geo0 = SpaceGrid.geometric_with_zero(1e-4, 10.0, 60)
    for scheme, grid in ((FundraiserScheme(j=0.1, theta=tab), geo),
                         (NeumannCapScheme(n=10.0), geo0),
                         (TaperedTerminalScheme(n=10.0), geo0),
                         (TransformedCauchyScheme(n=10.0), geo0),
                         (NaiveDirichletScheme(cap=10.0), geo0)):
        got = solve(sig, FWD, 1.0, scheme, grid=grid, times=times,
                    theta_weight=th).values
        want = _stepped_reference(sig, FWD, 1.0, scheme, grid, times, th)
        assert np.array_equal(got, want), scheme.kind
        lu = _lu_reference(sig, FWD, 1.0, scheme, grid, times, th)
        assert np.max(np.abs(got - lu)) <= 1e-12 * np.max(np.abs(lu)), \
            scheme.kind


@pytest.mark.parametrize("th", [1.0, 0.5])
@pytest.mark.parametrize("exponent, cap, dead", [(60.0, 4.0, 68),
                                                 (60.0, 300.0, 0),
                                                 (1e300, 1.0, 199)])
def test_extreme_exponent_matches_lu_reference(exponent, cap, dead, th):
    # sigma = y^60: at cap 4, sigma^2 underflows to 0 below y ~ 2e-3, and
    # those rows hold their terminal datum; at cap 300 the live sigma^2
    # spans 1e-303 .. 1e297, and the centred scale D stays within 1e+-149.
    # sigma = y^1e300 is 0 at every interior node of a cap-1 grid.
    sig = lambda y: y ** exponent
    scheme = NeumannCapScheme(n=cap)
    grid, times = scheme.grid(200), TimeGrid.uniform(1.0, 64)
    a, _, c = pdesolve.stencil(sig, scheme, grid)
    live, scale, _ = pdesolve._symmetric(a, c, grid.nodes)
    assert np.sum(~live) == dead
    assert np.all(np.isfinite(scale)) and np.all(np.isfinite(1 / scale))
    got = solve(sig, FWD, 1.0, scheme, grid, times, th).values
    want = _lu_reference(sig, FWD, 1.0, scheme, grid, times, th)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    held = np.flatnonzero(~live) + 1
    assert np.array_equal(got[:, held], np.broadcast_to(got[-1, held],
                                                         got[:, held].shape))


def test_one_sided_coupling_is_rejected():
    # y_3 = 2 y_2: the convection stencil's a_2 is exactly 0 while c_1 > 0,
    # so the step matrix is not diagonally similar to a symmetric one
    grid = SpaceGrid(nodes=[0.0, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0])
    with pytest.raises(NumericsError, match=r"one-sided .* node i=2, y=2:"):
        solve(SIG2, FWD, 1.0, TransformedCauchyScheme(n=10.0), grid=grid,
              times=TimeGrid.uniform(1.0, 16))


def test_solve_factors_once_per_step_size(monkeypatch):
    # linspace's 777 steps differ in their last bits; only the clustered
    # grid's steps, which all differ, are new step sizes
    calls = []
    factor = pdesolve._factor_step
    monkeypatch.setattr(pdesolve, "_factor_step",
                        lambda *a: calls.append(a[0]) or factor(*a))
    grid = SpaceGrid.geometric_with_zero(1e-4, 10.0, 40)
    for times, want in ((TimeGrid.uniform(1.0, 777), 1),
                        (TimeGrid.clustered(1.0, 777), 777)):
        assert len(set(times.dt)) > 1
        calls.clear()
        solve(lambda y: y ** 2, FWD, 1.0, NeumannCapScheme(n=10.0),
              grid=grid, times=times)
        assert len(calls) == want


def _blocks_of_five_sizes(tab):
    """Every scheme with cap 10, each on a grid of its own size."""
    return [(FundraiserScheme(j=0.1, theta=tab),
             SpaceGrid.geometric(1e-4, 10.0, 60)),
            (NeumannCapScheme(n=10.0),
             SpaceGrid.geometric_with_zero(1e-4, 10.0, 48)),
            (TaperedTerminalScheme(n=10.0),
             SpaceGrid.geometric_with_zero(1e-4, 10.0, 33)),
            (TransformedCauchyScheme(n=10.0),
             SpaceGrid.geometric_with_zero(1e-4, 10.0, 60)),
            (NaiveDirichletScheme(cap=10.0),
             SpaceGrid.geometric_with_zero(1e-4, 10.0, 41))]


@pytest.mark.parametrize("times", [TimeGrid.uniform(1.0, 60),
                                   TimeGrid.clustered(1.0, 64)],
                         ids=["uniform", "clustered"])
@pytest.mark.parametrize("th", [1.0, 0.5])
def test_stacked_rows_equal_solve_bitwise(times, th):
    # the clustered grid refactors the stack at every step; the orders put
    # the Neumann cap next to Dirichlet caps and the transformed block
    # (v = y * w) among the others
    sig = lambda y: y ** 2
    blocks = _blocks_of_five_sizes(_theta_table(0.1))
    want = [solve(sig, FWD, 1.0, scheme, grid, times, th).values[0]
            for scheme, grid in blocks]
    for order in ((0, 1, 2, 3, 4), (4, 3, 2, 1, 0), (1, 4), (4, 1, 3), (3,),
                  (2, 0, 1)):
        got = pdesolve.solve_start(sig, FWD, 1.0, [blocks[i] for i in order],
                                   times, th)
        assert len(got) == len(order)
        for i, row in zip(order, got):
            assert row.tobytes() == want[i].tobytes(), (order, blocks[i][0].kind)


@pytest.mark.filterwarnings("ignore:overflow encountered",
                            "ignore:invalid value encountered")
@pytest.mark.parametrize("th", [1.0, 0.5])
def test_stacked_failure_raises_the_error_of_the_failing_block(th):
    # a payoff of 1e308 at the cap overflows the cap-10 block while it
    # steps; the NaN crosses the zero junctions (0 * nan) into both
    # neighbours, so the stack re-solves its blocks one at a time to blame
    sig = lambda y: y ** 2
    payoff = PayoffSpec.from_table([0.0, 4.0, 10.0], [0.0, 4.0, 1e308])
    times = TimeGrid.uniform(1.0, 16)
    bad = (NaiveDirichletScheme(cap=10.0), SpaceGrid.geometric(0.5, 10.0, 30))
    pairs = [(NaiveDirichletScheme(cap=4.0),
              SpaceGrid.geometric_with_zero(1e-4, 4.0, 20)), bad,
             (TaperedTerminalScheme(n=3.0),
              SpaceGrid.geometric_with_zero(1e-4, 3.0, 25))]
    stacked_times, blocks = pdesolve._setup(sig, payoff, 1.0, pairs, times, th)
    rows = pdesolve._by_block(
        blocks, pdesolve._march(blocks, stacked_times, th, False))
    assert not any(np.all(np.isfinite(row)) for row in rows)
    for scheme, grid in pairs[::2]:
        assert np.all(np.isfinite(solve(sig, payoff, 1.0, scheme, grid, times,
                                        th).values))
    with pytest.raises(NumericsError, match=r"y=0\.5") as alone:
        solve(sig, payoff, 1.0, *bad, times, th)
    with pytest.raises(NumericsError) as stacked:
        pdesolve.solve_start(sig, payoff, 1.0, pairs, times, th)
    assert str(stacked.value) == str(alone.value)


@pytest.mark.parametrize("bad, error", [
    ((NaiveDirichletScheme(cap=10.0), SpaceGrid.geometric(1e-4, 5.0, 20)),
     ConfigError),
    ((TransformedCauchyScheme(n=10.0),
      SpaceGrid(nodes=np.array([0.0, 0.5, 2.0, 3.5, 5.0, 7.5, 10.0]))),
     NumericsError)], ids=["cap", "stencil"])
def test_stack_checks_every_block_as_solve_does(bad, error):
    times = TimeGrid.uniform(1.0, 16)
    good = (TaperedTerminalScheme(n=10.0),
            SpaceGrid.geometric_with_zero(1e-4, 10.0, 20))
    with pytest.raises(error) as alone:
        solve(SIG2, FWD, 1.0, *bad, times)
    with pytest.raises(error) as stacked:
        pdesolve.solve_start(SIG2, FWD, 1.0, [good, bad], times)
    assert str(stacked.value) == str(alone.value)


def test_fundraiser_scheme_builds_its_cap_map_once(monkeypatch):
    tab = _theta_table(0.1, n=200)
    want = solve(SIG2, FWD, 1.0, FundraiserScheme(j=0.1, theta=tab),
                 times=TimeGrid.uniform(1.0, 32)).values
    calls = []
    build = pdesolve.from_descriptor
    monkeypatch.setattr(pdesolve, "from_descriptor",
                        lambda desc: calls.append(desc) or build(desc))
    scheme = FundraiserScheme(j=0.1, theta=tab)
    got = solve(SIG2, FWD, 1.0, scheme, times=TimeGrid.uniform(1.0, 32)).values
    assert calls == [tab.map_descriptor]
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# solutions


def test_naive_dirichlet_reproduces_linear_function_exactly():
    # the stencil annihilates linear data, so v == y survives the march
    sol = solve(SIG2, FWD, 1.0, NaiveDirichletScheme(cap=50.0),
                times=TimeGrid.uniform(1.0, 256))
    v = sol.value_at(0.0, 1.0)
    assert v == pytest.approx(1.0, abs=1e-9)


def test_bond_is_stationary_for_anchored_and_neumann_and_naive():
    bond = PayoffSpec.bond()
    tab = _theta_table(0.1, payoff=bond)
    for scheme in (FundraiserScheme(j=0.1, theta=tab),
                   NeumannCapScheme(n=10.0),
                   NaiveDirichletScheme(cap=10.0)):
        sol = solve(SIG2, bond, 1.0, scheme, times=TimeGrid.uniform(1.0, 64))
        assert np.max(np.abs(sol.values - 1.0)) < 1e-9


def _flat_theta(cap, T, values):
    """A Theta table for the reciprocal map at the floor j = 1/cap, so that
    the anchored scheme's cap is f(j) = cap, over taus 0, T/2, T."""
    return ThetaTable(j=1.0 / cap, taus=[0.0, T / 2, T], theta=values,
                      stderr=[0.0] * 3, n_paths=2, seed=0,
                      map_descriptor=reciprocal_map().descriptor)


@settings(max_examples=100)
@given(coefficient=st.floats(0.3, 2.0), exponent=st.floats(0.5, 2.0),
       cap=st.floats(2.0, 20.0), m=st.integers(8, 60),
       steps=st.integers(4, 64), T=st.floats(0.1, 2.0),
       h=st.lists(st.floats(0.0, 2.0), min_size=6, max_size=6),
       bump=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
       theta=st.lists(st.floats(0.0, 2.0), min_size=3, max_size=3),
       kind=st.sampled_from(["fundraiser", "naive_dirichlet",
                             "tapered_terminal", "neumann_cap"]))
def test_implicit_solve_invariants(coefficient, exponent, cap, m, steps, T,
                                   h, bump, theta, kind):
    """Implicit Euler: a bond stays at par, the solution is monotone in its
    data (payoff and Theta), and every value lies between the least and the
    greatest boundary datum (the discrete maximum principle).  The data are
    the terminal row, the bottom column and, under a Dirichlet cap, the cap
    column; the Neumann cap row v_M = v_{M-1} sets no datum."""
    sigma = {"kind": "power", "coefficient": coefficient,
             "exponent": exponent}
    nodes = np.linspace(0.0, cap, 6)
    low = PayoffSpec.from_table(nodes, h)
    high = PayoffSpec.from_table(nodes, np.add(h, bump))
    make = {"fundraiser": lambda th: FundraiserScheme(
                j=1.0 / cap, theta=_flat_theta(cap, T, th)),
            "naive_dirichlet": lambda th: NaiveDirichletScheme(cap=cap),
            "tapered_terminal": lambda th: TaperedTerminalScheme(n=cap),
            "neumann_cap": lambda th: NeumannCapScheme(n=cap)}[kind]
    scheme = make(theta)
    grid, times = scheme.grid(m), TimeGrid.uniform(T, steps)

    def run(payoff, scheme):
        return solve(sigma, payoff, T, scheme, grid=grid, times=times).values

    tol = 1e-12
    if kind != "tapered_terminal":  # the taper bends a bond's datum
        bond = run(PayoffSpec.bond(), make([1.0] * 3))
        assert np.max(np.abs(bond - 1.0)) < tol
    v = run(low, scheme)
    assert np.all(v <= run(high, make(np.add(theta, 0.5))) + tol)
    data = [v[-1], v[:, 0]]
    if not scheme.neumann:
        data.append(v[:, -1])
    data = np.concatenate(data)
    assert data.min() - tol <= v.min() and v.max() <= data.max() + tol


def test_transformed_scheme_bond_truncation_deficit():
    """w = 1/y is stationary for the interior convection operator, but the
    zero Dirichlet datum at the cap absorbs the paths that reach it, leaving
    a deficit ~ 1/n at y = 1 (measured 1.7% at n=20). The deficit must
    shrink as the cap grows -- the truncation pathology the floor-anchored
    scheme is built to avoid."""
    def bond_at_one(n):
        sol = solve(SIG2, PayoffSpec.bond(), 1.0, TransformedCauchyScheme(n=n),
                    times=TimeGrid.uniform(1.0, 64))
        return sol.value_at(0.0, 1.0)

    d20 = 1.0 - bond_at_one(20.0)
    d40 = 1.0 - bond_at_one(40.0)
    assert 0.0 < d40 < d20 < 0.03


def test_fundraiser_beats_truncation_schemes_on_bubble_benchmark():
    """sigma = y^2 forward: the anchored scheme lands near the stochastic
    solution; plain truncation at the same cap stays below it."""
    taus = [float(t) for t in np.linspace(0.0, 1.0, 9) ** 2]
    tab = estimate_theta(reciprocal_map(), 0.05, taus, FWD, 8000, 384, SEED)
    cap = 20.0
    grid = SpaceGrid.geometric(cap * 1e-5, cap, 400)
    times = TimeGrid.uniform(1.0, 512)
    v_fund = solve(SIG2, FWD, 1.0, FundraiserScheme(j=0.05, theta=tab),
                   grid=grid, times=times).value_at(0.0, 1.0)
    gridz = SpaceGrid.geometric_with_zero(cap * 1e-5, cap, 400)
    v_taper = solve(SIG2, FWD, 1.0, TaperedTerminalScheme(n=cap),
                    grid=gridz, times=times).value_at(0.0, 1.0)
    oracle = forward_recip_bessel_investor(1.0, 1.0)
    assert v_taper <= v_fund
    assert abs(v_fund - oracle) < 0.01
    assert v_fund < 1.0  # the bubble discount at y = 1


def test_transformed_consistency_with_anchored_scheme():
    # benchmark scale: cap 50, M=800, N=2048, j=0.02
    taus = [float(t) for t in np.linspace(0.0, 1.0, 33) ** 2]
    tab = estimate_theta(reciprocal_map(), 0.02, taus, FWD, 20000, 768, SEED)
    grid = SpaceGrid.geometric(50.0 * 1e-5, 50.0, 800)
    times = TimeGrid.uniform(1.0, 2048)
    v_fund = solve(SIG2, FWD, 1.0, FundraiserScheme(j=0.02, theta=tab),
                   grid=grid, times=times).value_at(0.0, 1.0)
    gridz = SpaceGrid.geometric_with_zero(50.0 * 1e-5, 50.0, 800)
    v_tc = solve(SIG2, FWD, 1.0, TransformedCauchyScheme(n=50.0),
                 grid=gridz, times=times).value_at(0.0, 1.0)
    assert abs(v_tc - v_fund) / v_fund < 0.02


def test_crank_nicolson_close_to_implicit():
    sol_im = solve(SIG2, FWD, 1.0, NaiveDirichletScheme(cap=20.0),
                   times=TimeGrid.uniform(1.0, 256), theta_weight=1.0)
    sol_cn = solve(SIG2, FWD, 1.0, NaiveDirichletScheme(cap=20.0),
                   times=TimeGrid.uniform(1.0, 256), theta_weight=0.5)
    assert sol_im.value_at(0.0, 2.0) == pytest.approx(sol_cn.value_at(0.0, 2.0),
                                                      abs=1e-6)


def test_value_at_rejects_points_outside_the_solution():
    sol = solve(SIG2, FWD, 1.0, NaiveDirichletScheme(cap=10.0),
                times=TimeGrid.uniform(1.0, 32))
    with pytest.raises(DomainError, match=r"y=11\.0 outside the space grid "
                       r"\[0\.0, 10\.0\]"):
        sol.value_at(0.0, 11.0)
    with pytest.raises(DomainError):
        sol.value_at(2.0, 1.0)


# ---------------------------------------------------------------------------
# corner defect and the study helper


def test_corner_defect_by_scheme():
    tab = _theta_table(0.1)
    assert corner_defect(FWD, 1.0, FundraiserScheme(j=0.1, theta=tab)) \
        == pytest.approx(0.0, abs=1e-12)
    assert corner_defect(FWD, 1.0, TaperedTerminalScheme(n=10.0)) == 0.0
    # forward slope mismatch at the cap for the Neumann treatment
    assert corner_defect(FWD, 1.0, NeumannCapScheme(n=10.0)) \
        == pytest.approx(1.0, rel=1e-6)
    # transformed terminal at the cap is payoff(n)/n = 1 against a zero datum
    assert corner_defect(FWD, 1.0, TransformedCauchyScheme(n=10.0)) \
        == pytest.approx(1.0, rel=1e-6)
    assert corner_defect(FWD, 1.0, NaiveDirichletScheme(cap=10.0)) == 0.0


def _reference_corner_defect(scheme, payoff, y):
    """The corner defect as each scheme once stated it in a formula of its
    own, beside the rows the solver steps: the reference those rows must
    reproduce bit for bit."""
    cap = scheme.cap
    if scheme.kind == "fundraiser":
        return abs(float(payoff(cap)) - float(scheme.theta.theta[0]))
    if scheme.kind == "neumann_cap":
        h = np.asarray(payoff(y[-2:]), dtype=float)
        return abs(h[1] - h[0]) / (y[-1] - y[-2])
    if scheme.kind == "tapered_terminal":
        return abs(float(_taper(payoff, scheme.n, np.array([cap]))[0]) - 0.0)
    if scheme.kind == "transformed_cauchy":
        return abs(float(payoff(cap)) / cap - 0.0)
    return abs(float(payoff(cap)) - float(payoff(cap)))


def _pinned_table(j, theta0):
    """A hand-made Theta table of the reciprocal map at floor j whose value
    at tau = 0 is theta0."""
    return ThetaTable(j=j, taus=np.array([0.0, 0.25, 1.0]),
                      theta=np.array([theta0, 5.5, 4.0]),
                      stderr=np.zeros(3), n_paths=1, seed=0,
                      map_descriptor=reciprocal_map().descriptor)


def _hand_grid(scheme):
    """Geometric nodes halving down from the cap, with a y = 0 node for
    the schemes whose domain is [0, cap]."""
    nodes = scheme.cap * 2.0 ** -np.arange(24, -1, -1)
    if scheme.kind != "fundraiser":
        nodes = np.concatenate([[0.0], nodes])
    return SpaceGrid(nodes)


@pytest.mark.parametrize("T", [0.5, 1.0])
@pytest.mark.parametrize("payoff", [
    FWD, PayoffSpec.bond(), PayoffSpec.call(5.0), PayoffSpec.call(20.0),
    PayoffSpec.from_table([0.0, 2.0, 8.0, 12.0], [0.0, 1.5, 3.0, 3.5])],
    ids=["forward", "bond", "call-half-cap", "call-twice-cap", "table"])
def test_corner_defect_equals_the_per_scheme_formulas_bitwise(payoff, T):
    # theta(0) = 7.25 against the forward's 10 makes the floor-anchored
    # defect nonzero too
    for scheme in _every_scheme(_pinned_table(0.1, 7.25)):  # cap 10
        for grid in (scheme.grid(800), _hand_grid(scheme)):
            got = corner_defect(payoff, T, scheme, grid=grid)
            want = _reference_corner_defect(scheme, payoff, grid.nodes)
            assert got.hex() == float(want).hex(), (scheme.kind, grid.m)


@pytest.mark.parametrize("scheme, payoff, grid, T", [
    (FundraiserScheme(j=0.1, theta=_pinned_table(0.1, 10.0)), FWD, None, 2.0),
    # payoff(y)/y = 1/y passes 1e12 at the first node above 0
    (TransformedCauchyScheme(n=10.0), PayoffSpec.bond(),
     SpaceGrid(np.concatenate([[0.0], 10.0 * 2.0 ** -np.arange(46, -1, -1)])),
     2.0),
    # a grid ending below the cap, and maturities solve refuses
    (NeumannCapScheme(n=10.0), FWD,
     SpaceGrid.geometric_with_zero(1e-4, 5.0, 50), 2.0),
    (NeumannCapScheme(n=10.0), FWD, None, 0.0),
    (NeumannCapScheme(n=10.0), FWD, None, -1.0),
], ids=["theta-table-short-of-T", "transformed-unbounded-ratio",
        "grid-off-the-cap", "T-zero", "T-negative"])
def test_corner_defect_raises_the_config_error_of_solve(scheme, payoff, grid,
                                                        T):
    with pytest.raises(ConfigError) as solved:
        solve(SIG2, payoff, T, scheme, grid=grid,
              times=TimeGrid.uniform(T, 8) if T > 0 else None)
    with pytest.raises(ConfigError) as defect:
        corner_defect(payoff, T, scheme, grid=grid)
    assert str(defect.value) == str(solved.value)


def test_fundraiser_solves_on_a_time_grid_ending_past_T_by_roundoff():
    # the top-row datum at maturity is Theta at tau = 0, not at T - t_N < 0
    scheme = FundraiserScheme(j=0.1, theta=_pinned_table(0.1, 10.0))
    times = TimeGrid(np.linspace(0.0, 1.0 + 1e-13, 9))
    sol = solve(SIG2, FWD, 1.0, scheme, grid=scheme.grid(40), times=times)
    assert np.all(np.isfinite(sol.values))
