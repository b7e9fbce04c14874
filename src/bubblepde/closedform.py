"""High-precision analytic oracles.

Normal CDF/PDF and the closed-form bond/forward prices of the two solvable
benchmark markets (driftless unit map and reciprocal-Bessel map).  The
closed forms are also rows of one table, ORACLES, keyed by (market, payoff
kind, side); oracle_rows picks the rows that apply to a map and a payoff,
and both the `oracle` subcommand and the price reports read them.

The normal CDF is computed from the C library's complementary error
function (math.erfc), applied elementwise to arrays, and N(d) - N(-d) as
math.erf(d/sqrt(2)), which keeps its digits at small d where the difference
of the two CDFs cancels; neither needs scipy.  The test suite checks both
against mpmath to 1e-15 relative over [-6, 27], where scipy's erfc drifts
to 6e-14 in the far tail, and erfc against a continued-fraction reference.

The reciprocal-Bessel fundraiser forms need one integral,
int_0^inf (a/(s+a))^2 phi(d+s) ds, which a fixed exp-sinh rule (Takahasi &
Mori 1974) evaluates on 257 nodes s_k = exp(pi/2 sinh(k h)), h = 1/32,
k = -160..96: the nodes run from 1e-51 to 7e6 on a log scale, so one rule
serves every pole distance a and every Gaussian offset d.
"""

from __future__ import annotations

import math
from math import erf

import numpy as np

from .errors import DomainError

_SQRT2 = np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)

# the exp-sinh rule: nodes s_k and weights h ds/dt at t_k = k h
_T_NODES = np.arange(-160, 97) / 32.0
_S_NODES = np.exp(0.5 * np.pi * np.sinh(_T_NODES))
_S_WEIGHTS = (0.5 * np.pi / 32.0) * np.cosh(_T_NODES) * _S_NODES


def erfc(x):
    """The C library's complementary error function, elementwise on arrays;
    a float64 scalar for a scalar."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.erfc, x.flat), float, x.size).reshape(x.shape)[()]


def norm_cdf(x):
    """Standard normal CDF via the scaled complementary error function."""
    return 0.5 * erfc(-np.asarray(x, dtype=float) / _SQRT2)


def norm_pdf(x):
    x = np.asarray(x, dtype=float)
    return _INV_SQRT2PI * np.exp(-0.5 * x * x)


def _central_mass(d: float) -> float:
    """N(d) - N(-d) = erf(d/sqrt(2)), without the cancellation at small d."""
    return erf(d / _SQRT2)


def _recip_bessel_integral(a: float, d: float) -> float:
    """int_0^inf (a/(s+a))^2 phi(d+s) ds by the exp-sinh rule."""
    s = _S_NODES
    return float(np.dot(_S_WEIGHTS, (a / (s + a)) ** 2 * norm_pdf(d + s)))


# ---------------------------------------------------------------------------
# Closed forms for the driftless benchmark (price map y = x, scale map 1/x).

def bond_bm(x: float, T: float) -> float:
    """Investor zero-coupon bond: N(x/sqrt(T)) - N(-x/sqrt(T)) (< 1: the arbitrage)."""
    if x <= 0 or T < 0:
        raise DomainError("bond_bm needs x > 0, T >= 0")
    if T == 0:
        return 1.0
    return _central_mass(x / np.sqrt(T))


def forward_bm_investor(x: float, T: float) -> float:
    """Investor forward: the driftless price is the spot itself."""
    if x <= 0:
        raise DomainError("forward_bm_investor needs x > 0")
    return float(x)


def forward_bm_fundraiser(x: float, j: float, T: float) -> float:
    """Fundraiser forward: x + 4 sqrt(T) (N'(z) + z N(z)), z = (j-x)/sqrt(T).

    The model domain is 0 < j <= x; values for j <= 0 are exposed as a
    diagnostic of the j -> -inf limit (where the price tends to the investor
    value x) and are flagged by no error on purpose.
    """
    if j > x:
        raise DomainError("forward_bm_fundraiser needs j <= x")
    if T <= 0:
        raise DomainError("forward_bm_fundraiser needs T > 0")
    z = (j - x) / np.sqrt(T)
    return float(x + 4.0 * np.sqrt(T) * (norm_pdf(z) + z * norm_cdf(z)))


def delta_bm_fundraiser(x: float, j: float, T: float) -> float:
    """Spot delta of the fundraiser forward: 1 - 4 N((j-x)/sqrt(T)); -1 at x=j."""
    if j > x:
        raise DomainError("delta_bm_fundraiser needs j <= x")
    if T <= 0:
        raise DomainError("delta_bm_fundraiser needs T > 0")
    return float(1.0 - 4.0 * norm_cdf((j - x) / np.sqrt(T)))


# ---------------------------------------------------------------------------
# Closed forms for the reciprocal-Bessel benchmark (price map y = 1/x).

def forward_recip_bessel_investor(x: float, T: float) -> float:
    """(1/x)(N(x/sqrt(T)) - N(-x/sqrt(T))): strictly below the spot 1/x for T > 0."""
    if x <= 0 or T < 0:
        raise DomainError("forward_recip_bessel_investor needs x > 0, T >= 0")
    if T == 0:
        return 1.0 / x
    return float(_central_mass(x / np.sqrt(T)) / x)


def forward_recip_bessel_fundraiser(x: float, j: float, T: float) -> float:
    """First term (1/x)(N(d) - N(-d)), d=(x-j)/sqrt(T), plus the r-integral.

    The integral term (2/x) int_d^inf (j/(r sqrt(T) - x + 2j))^2 phi(r) dr
    is, with r = d + s and a = j/sqrt(T), (2/x) int_0^inf (a/(s+a))^2
    phi(d+s) ds, evaluated by the module's exp-sinh rule.
    """
    if not (0 < j <= x):
        raise DomainError("forward_recip_bessel_fundraiser needs 0 < j <= x")
    if T <= 0:
        raise DomainError("forward_recip_bessel_fundraiser needs T > 0")
    sqT = np.sqrt(T)
    d = (x - j) / sqT
    first = _central_mass(d) / x
    return float(first + 2.0 * _recip_bessel_integral(j / sqT, d) / x)


def theta_recip_bessel_forward(tau: float, j: float) -> float:
    """Boundary value of the forward payoff at the floor: the x=j case above,
    forward_recip_bessel_fundraiser(j, j, tau), and 1/j at tau = 0.

    Theta(tau, j) = (2/j) int_0^inf (a/(r+a))^2 phi(r) dr, a = j/sqrt(tau).
    """
    if j <= 0:
        raise DomainError("theta_recip_bessel_forward needs j > 0")
    if tau < 0:
        raise DomainError("theta_recip_bessel_forward needs tau >= 0")
    if tau == 0:
        return 1.0 / j
    return forward_recip_bessel_fundraiser(j, j, tau)


# ---------------------------------------------------------------------------
# The oracle table: (market, payoff kind, side) -> (case name, closed form of
# (x, j, T)).  Market "bm" is the price map y = x, "recip" the
# reciprocal-Bessel map y = 1/x, and "other" any other map; the side is the
# investor's or the fundraiser's price, or the fundraiser's spot delta.  Each
# closed form looks its function up by name when called, so wrapping a module
# function (as a profiler does) covers the table.  The bond pays 1 wherever no
# price path is absorbed: the reflected (fundraiser) path never is, in any
# market, nor is the Bessel-3 path behind y = 1/x.

def _par(x, j, T) -> float:
    return 1.0


ORACLES = {
    ("bm", "bond", "investor"): ("bond_bm", lambda x, j, T: bond_bm(x, T)),
    ("bm", "bond", "fundraiser"): ("bond_bm_fundraiser", _par),
    ("bm", "forward", "investor"):
        ("forward_bm_investor", lambda x, j, T: forward_bm_investor(x, T)),
    ("bm", "forward", "fundraiser"):
        ("forward_bm_fundraiser", lambda x, j, T: forward_bm_fundraiser(x, j, T)),
    ("bm", "forward", "fundraiser_delta"):
        ("delta_bm_fundraiser", lambda x, j, T: delta_bm_fundraiser(x, j, T)),
    ("recip", "bond", "investor"): ("bond_recip_bessel_investor", _par),
    ("recip", "bond", "fundraiser"): ("bond_recip_bessel_fundraiser", _par),
    ("recip", "forward", "investor"):
        ("forward_recip_bessel_investor",
         lambda x, j, T: forward_recip_bessel_investor(x, T)),
    ("recip", "forward", "fundraiser"):
        ("forward_recip_bessel_fundraiser",
         lambda x, j, T: forward_recip_bessel_fundraiser(x, j, T)),
    ("other", "bond", "fundraiser"): ("bond_fundraiser", _par),
}

# the solvable markets are the maps y = x and y = 1/x on (0, inf); a map on
# that domain is told from them by its values here
_PROBES = np.array([0.31, 1.1, 3.7])


def _market(f) -> str:
    """The ORACLES market of the map f, told by its domain and its values at
    _PROBES, so that every descriptor spelling is recognized; a map on any
    other domain, such as y = x on the whole line, is 'other' and is not
    evaluated."""
    if tuple(f.domain) != (0.0, np.inf):
        return "other"
    vals = f(_PROBES)
    if np.max(np.abs(vals * _PROBES - 1.0)) < 1e-9:
        return "recip"
    if np.max(np.abs(vals - _PROBES)) < 1e-9:
        return "bm"
    return "other"


def oracle_rows(f, payoff) -> list:
    """The ORACLES rows that price `payoff` in the market of the map f, as
    (case, side, form) in table order: a call struck at 0 is the forward."""
    kind = "forward" if payoff.kind == "call" and payoff.strike == 0.0 \
        else payoff.kind
    market = _market(f)
    return [(case, side, form)
            for (row_market, row_kind, side), (case, form) in ORACLES.items()
            if (row_market, row_kind) == (market, kind)]
