"""Closed-form benchmark values and the special-function layer.

The normal CDF here is built on the C library's erfc (math.erfc, applied
elementwise as closedform.erfc) and N(d) - N(-d) on its erf (closedform.erf);
the tests check them against mpmath's arbitrary-precision functions to
1e-15 relative, and erfc also against a Lentz-style continued fraction for
the upper tail.  CI runs these tests on Linux and on macOS, since each
platform brings its own libm.
"""

import dataclasses
import warnings

import mpmath
import numpy as np
import pytest

from bubblepde import (
    DomainError,
    PayoffSpec,
    affine_map,
    bond_bm,
    delta_bm_fundraiser,
    f_from_sigma,
    forward_bm_fundraiser,
    forward_bm_investor,
    forward_recip_bessel_fundraiser,
    forward_recip_bessel_investor,
    norm_cdf,
    norm_pdf,
    power_law_map,
    reciprocal_map,
    theta_recip_bessel_forward,
)
from bubblepde.closedform import ORACLES, _recip_bessel_integral, erf, \
    erfc, oracle_rows
from bubblepde.smoothmaps import log_map, mobius_map


def erfc_continued_fraction(x, terms=120):
    """Upper-tail continued fraction erfc(x) = exp(-x^2)/sqrt(pi) * 1/(x + 1/2/(x + 1/(x + 3/2/(x + ...)))), x > 0."""
    acc = 0.0
    for k in range(terms, 0, -1):
        acc = (k / 2.0) / (x + acc)
    return float(np.exp(-x * x) / np.sqrt(np.pi) / (x + acc))


# ---------------------------------------------------------------------------
# special functions


def test_erfc_and_erf_agree_with_mpmath_to_1e_15_relative():
    # 1e-15 is 4.5 ulp at worst; below about 2.2e-308 (x > 26.5) erfc is
    # subnormal and keeps fewer digits, so those points are left out.
    # scipy.special.erfc fails this on the grid (5.7e-14 at x = 26.26)
    mpmath.mp.dps = 40
    xs = np.linspace(-6.0, 27.0, 3301)
    for ours, theirs in ((erfc, mpmath.erfc), (erf, mpmath.erf)):
        want = np.array([float(theirs(mpmath.mpf(float(x)))) for x in xs])
        got = np.array([ours(float(x)) for x in xs])
        normal = np.abs(want) >= np.finfo(float).tiny
        rel = np.abs(got[normal] - want[normal]) / np.abs(want[normal])
        assert np.max(rel) <= 1e-15, (ours.__name__, xs[normal][np.argmax(rel)])
        assert np.all(got[~normal & (want == 0)] == 0)
    # arrays go through elementwise, in their shape
    grid = xs[::300].reshape(4, 3)
    assert np.array_equal(erfc(grid), np.vectorize(erfc)(grid))
    assert erfc(grid).shape == (4, 3)


def test_erfc_against_continued_fraction():
    for x in np.linspace(1.0, 6.0, 23):
        assert erfc(x) == pytest.approx(erfc_continued_fraction(x), rel=1e-12)


def test_erfc_against_mpmath_dense():
    mpmath.mp.dps = 30
    xs = np.linspace(-8.0, 8.0, 1000)
    vals = np.array([float(mpmath.erfc(mpmath.mpf(float(x)))) for x in xs])
    ours = np.array([erfc(float(x)) for x in xs])
    assert np.max(np.abs(ours - vals)) < 1e-12


def test_norm_cdf_known_points():
    assert norm_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert norm_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-12)
    assert norm_cdf(-1.0) + norm_cdf(1.0) == pytest.approx(1.0, abs=1e-14)
    assert norm_cdf(-40.0) == 0.0
    assert norm_cdf(40.0) == 1.0


def test_norm_pdf():
    assert norm_pdf(0.0) == pytest.approx(1 / np.sqrt(2 * np.pi), abs=1e-15)
    assert norm_pdf(2.0) == pytest.approx(np.exp(-2.0) / np.sqrt(2 * np.pi), rel=1e-14)


# ---------------------------------------------------------------------------
# closed forms, driftless model


def test_bond_bm_value():
    # N(1) - N(-1)
    assert bond_bm(1.0, 1.0) == pytest.approx(0.6826894921370859, abs=1e-12)
    assert bond_bm(10.0, 1.0) == pytest.approx(1.0, abs=1e-10)


def test_forward_bm_investor_is_spot():
    assert forward_bm_investor(1.3, 2.0) == pytest.approx(1.3)


def test_forward_bm_fundraiser_pinned_value():
    # x = j = T = 1: x + 4 sqrt(T) phi(0) = 1 + 4/sqrt(2 pi)
    v = forward_bm_fundraiser(1.0, 1.0, 1.0)
    assert v == pytest.approx(1.0 + 4.0 / np.sqrt(2 * np.pi), abs=1e-12)
    assert v == pytest.approx(2.5957691, abs=5e-8)


def test_forward_bm_fundraiser_reduces_to_spot_far_from_floor():
    # deep above the floor the funding optionality is worthless
    assert forward_bm_fundraiser(10.0, 0.1, 1.0) == pytest.approx(10.0, rel=1e-9)


def test_delta_bm_fundraiser():
    assert delta_bm_fundraiser(1.0, 1.0, 1.0) == pytest.approx(-1.0, abs=1e-12)
    # far from the floor, delta -> 1 - 4 N(-inf) = 1
    assert delta_bm_fundraiser(10.0, 0.1, 1.0) == pytest.approx(1.0, rel=1e-9)


def test_forward_bm_fundraiser_validates():
    with pytest.raises(DomainError):
        forward_bm_fundraiser(1.0, 2.0, 1.0)  # j > x


@pytest.mark.parametrize("form, args, match", [
    (bond_bm, (0.0, 1.0), "x > 0, T >= 0"),
    (bond_bm, (1.0, -1.0), "x > 0, T >= 0"),
    (forward_bm_investor, (0.0, 1.0), "x > 0"),
    (forward_bm_fundraiser, (1.0, 0.5, 0.0), "T > 0"),
    (delta_bm_fundraiser, (1.0, 2.0, 1.0), "j <= x"),
    (delta_bm_fundraiser, (1.0, 0.5, 0.0), "T > 0"),
    (forward_recip_bessel_investor, (0.0, 1.0), "x > 0, T >= 0"),
    (forward_recip_bessel_investor, (1.0, -1.0), "x > 0, T >= 0"),
    (forward_recip_bessel_fundraiser, (1.0, 0.0, 1.0), "0 < j <= x"),
    (forward_recip_bessel_fundraiser, (1.0, 2.0, 1.0), "0 < j <= x"),
    (forward_recip_bessel_fundraiser, (1.0, 0.5, 0.0), "T > 0"),
    (theta_recip_bessel_forward, (1.0, 0.0), "j > 0"),
    (theta_recip_bessel_forward, (-1.0, 0.5), "tau >= 0"),
], ids=["bond-x", "bond-T", "bm-investor-x", "bm-fundraiser-T",
        "delta-j", "delta-T", "recip-investor-x", "recip-investor-T",
        "recip-fundraiser-j-zero", "recip-fundraiser-j-above-x",
        "recip-fundraiser-T", "theta-j", "theta-tau"])
def test_closed_forms_refuse_points_outside_their_domain(form, args, match):
    with pytest.raises(DomainError, match=f"{form.__name__} needs {match}"):
        form(*args)


@pytest.mark.parametrize("form, args, want", [
    (bond_bm, (0.7, 0.0), 1.0),
    (forward_recip_bessel_investor, (0.8, 0.0), 1.25),
    (theta_recip_bessel_forward, (0.0, 0.4), 2.5),
], ids=["bond", "recip-investor", "recip-theta"])
def test_closed_forms_at_zero_time(form, args, want):
    # no time to move: the bond pays par and the forward is the spot 1/x
    assert form(*args) == want


# ---------------------------------------------------------------------------
# closed forms, reciprocal model


def test_forward_recip_bessel_investor_pinned_value():
    assert forward_recip_bessel_investor(1.0, 1.0) \
        == pytest.approx(0.6826894921370859, abs=1e-12)


def test_forward_recip_bessel_fundraiser_at_floor_matches_theta():
    # starting exactly at the floor, the fundraiser price IS the boundary
    # function, bit for bit; the reference is Theta's own integral form
    for tau in (1e-6, 1e-3, 0.01, 0.05, 0.25, 0.5, 1.0, 2.0, 4.0, 10.0):
        for j in (1e-4, 1e-3, 0.02, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0):
            a = j / np.sqrt(tau)
            want = float(2.0 * _recip_bessel_integral(a, 0.0) / j)
            got = theta_recip_bessel_forward(tau, j)
            assert got.hex() == want.hex(), (tau, j)
            assert forward_recip_bessel_fundraiser(j, j, tau).hex() == want.hex()


def test_forward_recip_bessel_fundraiser_vanishing_floor_limit():
    # j -> 0: the floor is never touched and the two agents price alike
    # (the r-integral carries a j^2 factor and the first term's d -> x/sqrt(T))
    assert forward_recip_bessel_fundraiser(1.0, 1e-8, 1.0) \
        == pytest.approx(forward_recip_bessel_investor(1.0, 1.0), abs=1e-6)


def _mp_central_mass(d):
    return mpmath.erf(mpmath.mpf(d) / mpmath.sqrt(2))


def _mp_recip_fundraiser(x, j, T):
    """The fundraiser forward in mpmath: erf(d/sqrt 2)/x + (2/x) int_0^inf
    (a/(s+a))^2 phi(d+s) ds, a = j/sqrt(T), d = (x-j)/sqrt(T)."""
    x, j, T = map(mpmath.mpf, (x, j, T))
    a, d = j / mpmath.sqrt(T), (x - j) / mpmath.sqrt(T)

    def integrand(s):
        return (a / (s + a)) ** 2 * mpmath.npdf(d + s)

    cuts = sorted({mpmath.mpf(0), a, 10 * a, mpmath.mpf(1), max(d, 1) + 1})
    integral = mpmath.quad(integrand, [*cuts, mpmath.inf])
    return _mp_central_mass(d) / x + 2 * integral / x


@pytest.mark.parametrize("x, T", [(1e-3, 1e4), (1e-4, 1.0), (1e-5, 0.5)])
def test_central_mass_keeps_its_digits_at_small_d(x, T):
    # N(d) - N(-d) at d = x/sqrt(T) << 1 cancels as a difference of CDFs
    mpmath.mp.dps = 30
    d = x / np.sqrt(T)
    want = _mp_central_mass(d)
    assert bond_bm(x, T) == pytest.approx(float(want), rel=1e-15)
    assert forward_recip_bessel_investor(x, T) \
        == pytest.approx(float(want / mpmath.mpf(x)), rel=1e-15)
    # the fundraiser's first term: a tiny floor under a small spot
    j = x * 1e-6
    assert forward_recip_bessel_fundraiser(x, j, T) \
        == pytest.approx(float(_mp_recip_fundraiser(x, j, T)), rel=1e-14)


def test_recip_bessel_forms_agree_with_mpmath_on_the_grid():
    mpmath.mp.dps = 30
    worst = 0.0
    for x in (0.3, 1.0, 2.0, 5.0):
        for ratio in (1e-4, 1e-3, 0.02, 0.25, 0.7, 1.0):
            j = ratio * x
            for T in (0.01, 0.25, 1.0, 4.0):
                # theta is the fundraiser form started at the floor x = j
                for got, want in (
                        (forward_recip_bessel_fundraiser(x, j, T),
                         _mp_recip_fundraiser(x, j, T)),
                        (theta_recip_bessel_forward(T, j),
                         _mp_recip_fundraiser(j, j, T))):
                    worst = max(worst, abs(got - float(want)) / float(want))
    assert worst < 1e-13


def test_theta_small_floor_approaches_investor_start():
    # as j -> 0 the floor start matches a start at y -> inf; the forward
    # value approaches the full funding stream value 2/j... just pin shape:
    # theta grows as the floor drops
    assert theta_recip_bessel_forward(1.0, 0.1) > theta_recip_bessel_forward(1.0, 0.5)


# ---------------------------------------------------------------------------
# oracle case table


def test_oracle_table_keeps_its_order_and_closed_forms():
    x, j, T = 1.3, 0.4, 0.7
    direct = {
        "bond_bm": bond_bm(x, T),
        "bond_bm_fundraiser": 1.0,
        "forward_bm_investor": forward_bm_investor(x, T),
        "forward_bm_fundraiser": forward_bm_fundraiser(x, j, T),
        "delta_bm_fundraiser": delta_bm_fundraiser(x, j, T),
        "bond_recip_bessel_investor": 1.0,
        "bond_recip_bessel_fundraiser": 1.0,
        "forward_recip_bessel_investor": forward_recip_bessel_investor(x, T),
        "forward_recip_bessel_fundraiser": forward_recip_bessel_fundraiser(x, j, T),
        "bond_fundraiser": 1.0,
    }
    assert tuple(case for case, _form in ORACLES.values()) == tuple(direct)
    for case, form in ORACLES.values():
        assert form(x, j, T) == direct[case], case

    def rows(f, payoff):
        return [(case, side, form(x, j, T))
                for case, side, form in oracle_rows(f, payoff)]

    recip_forward = [
        ("forward_recip_bessel_investor", "investor",
         direct["forward_recip_bessel_investor"]),
        ("forward_recip_bessel_fundraiser", "fundraiser",
         direct["forward_recip_bessel_fundraiser"])]
    bm_forward = [
        ("forward_bm_investor", "investor", direct["forward_bm_investor"]),
        ("forward_bm_fundraiser", "fundraiser", direct["forward_bm_fundraiser"]),
        ("delta_bm_fundraiser", "fundraiser_delta",
         direct["delta_bm_fundraiser"])]
    assert rows(reciprocal_map(), PayoffSpec.forward()) == recip_forward
    # a call struck at 0 is the forward, the Brownian delta among its rows
    assert rows(power_law_map(1.0), PayoffSpec.call(0.0)) == bm_forward
    # the bond pays 1 where no path is absorbed; calls have no row yet
    assert rows(log_map(), PayoffSpec.bond()) \
        == [("bond_fundraiser", "fundraiser", 1.0)]
    assert rows(reciprocal_map(), PayoffSpec.bond()) == [
        ("bond_recip_bessel_investor", "investor", 1.0),
        ("bond_recip_bessel_fundraiser", "fundraiser", 1.0)]
    assert rows(power_law_map(1.0), PayoffSpec.call(0.5)) == []
    assert rows(reciprocal_map(), PayoffSpec.from_table([0, 1], [0, 1])) == []


# the bond's rows in each market: every market has one
_BOND_CASES = {"recip": ["bond_recip_bessel_investor",
                         "bond_recip_bessel_fundraiser"],
               "bm": ["bond_bm", "bond_bm_fundraiser"],
               "other": ["bond_fundraiser"]}


@pytest.mark.parametrize("f, market", [
    (reciprocal_map(), "recip"),
    (power_law_map(-1.0), "recip"),
    (f_from_sigma({"kind": "power", "coefficient": 1.0, "exponent": 2.0}),
     "recip"),
    (power_law_map(1.0), "bm"),
    (dataclasses.replace(affine_map(1.0, 0.0), domain=(0.0, np.inf)), "bm"),
    # y = x on the whole line: no path is absorbed, so the bond is 1
    (affine_map(1.0, 0.0), "other"),
    (mobius_map((1.0, 0.0, 0.0, 1.0)), "other"),
    (f_from_sigma({"kind": "power", "coefficient": 1.0, "exponent": 1.5}),
     "other"),
    (log_map(), "other"),
    # domains that miss a probe: the map is not evaluated there
    (log_map(0.5), "other"),
    (power_law_map(1.0, 0.5), "other"),
], ids=["reciprocal", "power-minus-one", "sigma-y2", "power-one", "affine",
        "affine-whole-line", "mobius-whole-line", "sigma-y1.5", "log",
        "log-shifted", "power-one-shifted"])
def test_oracle_rows_tell_the_market_by_values_inside_the_domain(f, market):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = oracle_rows(f, PayoffSpec.bond())
    assert [case for case, _side, _form in rows] == _BOND_CASES[market]
