"""Boundary-function estimation, payoff specs, and the theta table format."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bubblepde import (
    ConfigError,
    DomainError,
    PayoffSpec,
    ThetaTable,
    affine_map,
    compose,
    decompose_phi_psi,
    estimate_theta,
    forward_bm_fundraiser,
    forward_recip_bessel_fundraiser,
    log_map,
    pathlab,
    price_and_decompose,
    power_law_map,
    price_fundraiser_mc,
    reciprocal_map,
    theta_recip_bessel_forward,
)
from bubblepde.boundary import price_pass, theta_pass

SEED = 555


# ---------------------------------------------------------------------------
# payoffs


def test_payoff_call():
    h = PayoffSpec.call(2.0)
    np.testing.assert_allclose(h(np.array([1.0, 2.0, 3.5])), [0.0, 0.0, 1.5])
    assert isinstance(h(1.0), float)


def test_payoff_bond_and_forward():
    assert PayoffSpec.bond()(0.3) == 1.0
    assert PayoffSpec.forward()(0.3) == pytest.approx(0.3)


def test_payoff_table_interpolates_with_constant_tails():
    h = PayoffSpec.from_table([0.0, 1.0, 2.0], [0.0, 1.0, 0.5])
    assert h(0.5) == pytest.approx(0.5)
    assert h(1.5) == pytest.approx(0.75)
    assert h(5.0) == pytest.approx(0.5)   # constant extension
    assert h(-1.0) == pytest.approx(0.0)


def test_payoff_table_validation():
    with pytest.raises(ConfigError):
        PayoffSpec.from_table([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ConfigError):
        PayoffSpec.from_table([0.0, 1.0], [1.0])


@pytest.mark.parametrize("kind, strike, table, match", [
    ("butterfly", 0.0, None, "unknown payoff kind"),
    ("call", -1.0, None, "strike must be finite and >= 0"),
    ("call", np.inf, None, "strike must be finite and >= 0"),
    ("call", np.nan, None, "strike must be finite and >= 0"),
    ("table", 0.0, None, "needs \\(nodes, values\\)"),
    ("table", 0.0, ([0.0], [1.0]), "matching 1-d nodes and values"),
    ("table", 0.0, ([[0.0, 1.0]], [[1.0, 2.0]]), "matching 1-d nodes"),
    ("table", 0.0, ([0.0, np.nan], [1.0, 2.0]), "must be finite"),
    ("table", 0.0, ([0.0, 1.0], [1.0, np.inf]), "must be finite"),
    ("table", 0.0, ([0.0, 1.0], [1.0, -0.5]), "must be nonnegative"),
], ids=["unknown-kind", "strike-negative", "strike-inf", "strike-nan",
        "table-missing", "table-one-node", "table-2d", "table-nan-node",
        "table-inf-value", "table-negative-value"])
def test_payoff_spec_refuses_bad_input(kind, strike, table, match):
    with pytest.raises(ConfigError, match=match):
        PayoffSpec(kind, strike=strike, table=table)


def test_payoff_descriptor_round_trip():
    for h in (PayoffSpec.call(1.5), PayoffSpec.bond(), PayoffSpec.forward(),
              PayoffSpec.from_table([0.0, 1.0], [0.0, 2.0])):
        h2 = PayoffSpec.from_descriptor(h.descriptor)
        y = np.array([0.2, 0.7, 1.9])
        np.testing.assert_allclose(h2(y), h(y))


FINITE = st.floats(-1e300, 1e300)  # room for y - strike without overflow
# strictly increasing table nodes with nonnegative values of the same length
TABLE_PAYOFFS = st.lists(FINITE, min_size=2, max_size=8, unique=True).flatmap(
    lambda ys: st.tuples(st.just(sorted(ys)),
                         st.lists(st.floats(0, 1e300), min_size=len(ys),
                                  max_size=len(ys))))
PAYOFFS = st.one_of(
    st.just(PayoffSpec.bond()), st.just(PayoffSpec.forward()),
    st.floats(0, 1e300).map(PayoffSpec.call),
    TABLE_PAYOFFS.map(lambda t: PayoffSpec.from_table(*t)))


@given(PAYOFFS, st.lists(FINITE, min_size=1, max_size=6))
def test_payoff_from_descriptor_evaluates_bitwise_alike(h, ys):
    y = np.array(ys)
    # as built in memory and as read back from a JSON config or side file
    for desc in (h.descriptor, json.loads(json.dumps(h.descriptor))):
        h2 = PayoffSpec.from_descriptor(desc)
        assert h2.kind == h.kind
        assert h2(y).tobytes() == h(y).tobytes()
        assert np.float64(h2(ys[0])).tobytes() == np.float64(h(ys[0])).tobytes()


MAP_DESCRIPTORS = st.sampled_from([
    reciprocal_map().descriptor, power_law_map(1.7, -0.5).descriptor,
    compose(reciprocal_map(), power_law_map(2.0)).descriptor])


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.floats(1e-300, 1e6), min_size=1, max_size=6, unique=True),
       st.data(), MAP_DESCRIPTORS, PAYOFFS, st.floats(1e-300, 1e300),
       st.integers(2, 2 ** 31 - 1), st.integers(0, 2 ** 64 - 1))
def test_table_save_load_round_trip_property(tmp_path, taus, data, map_desc,
                                             payoff, j, n_paths, seed):
    taus = [0.0] + sorted(taus)
    theta, stderr = (data.draw(st.lists(FINITE, min_size=len(taus),
                                        max_size=len(taus))) for _ in "ts")
    t = ThetaTable(j=j, taus=taus, theta=theta, stderr=stderr,
                   n_paths=n_paths, seed=seed, map_descriptor=map_desc,
                   payoff_descriptor=payoff.descriptor)
    p = tmp_path / "theta.csv"  # each example overwrites the last
    t.save(p)
    t2 = ThetaTable.load(p)
    for name in ("taus", "theta", "stderr"):
        assert getattr(t2, name).tobytes() == getattr(t, name).tobytes()
    assert (t2.j, t2.n_paths, t2.seed) == (t.j, t.n_paths, t.seed)
    assert t2.map_descriptor == map_desc
    assert t2.payoff_descriptor == payoff.descriptor
    assert t2.stream == t.stream == {}


def test_payoff_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        PayoffSpec.from_descriptor({"kind": "butterfly"})


# ---------------------------------------------------------------------------
# theta tables


def _tiny_table():
    taus = np.array([0.0, 0.25, 1.0])
    return ThetaTable(j=0.5, taus=taus, theta=np.array([2.0, 1.9, 1.7]),
                      stderr=np.array([0.0, 0.01, 0.02]), n_paths=100, seed=1,
                      map_descriptor={"kind": "mobius", "a": 0.0, "b": 1.0,
                                      "c": 1.0, "d": 0.0})


def test_table_validation():
    with pytest.raises(ConfigError):
        ThetaTable(j=0.5, taus=np.array([0.1, 0.5]), theta=np.zeros(2),
                   stderr=np.zeros(2), n_paths=1, seed=0, map_descriptor={})
    with pytest.raises(ConfigError):
        ThetaTable(j=0.5, taus=np.array([0.0, 0.5, 0.5]), theta=np.zeros(3),
                   stderr=np.zeros(3), n_paths=1, seed=0, map_descriptor={})


def test_table_covers():
    t = _tiny_table()
    assert t.covers(1.0)
    assert t.covers(0.8)
    assert not t.covers(1.1)


def test_interpolator_range():
    t = _tiny_table()
    th = t.interpolator()
    assert th(0.0) == pytest.approx(2.0)
    assert th(1.0) == pytest.approx(1.7)
    # monotone data -> monotone interpolant between knots
    assert 1.7 < th(0.6) < 1.9
    with pytest.raises(DomainError):
        th(1.2)


def test_interpolator_is_scipys_pchip_bit_for_bit():
    # scipy is the reference here only; the package builds the PCHIP itself
    from scipy.interpolate import PchipInterpolator

    rng = np.random.default_rng(26)
    for trial in range(300):
        n = int(rng.integers(2, 41))
        taus = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, n - 1))])
        theta = [np.cumsum(rng.exponential(1.0, n)),  # increasing
                 rng.normal(size=n),  # sign changes
                 np.round(rng.normal(size=n))][trial % 3]  # flat segments, zeros
        table = ThetaTable(j=0.5, taus=taus, theta=theta, stderr=np.zeros(n),
                           n_paths=1, seed=0)
        mid = taus[:-1] + rng.uniform(0.0, 1.0, n - 1) * np.diff(taus)
        q = np.concatenate([taus, mid, rng.uniform(0.0, taus[-1], 20)])
        ours = table.interpolator()(q)
        ref = PchipInterpolator(taus, theta, extrapolate=False)(q)
        np.testing.assert_array_equal(ours.view(np.int64), ref.view(np.int64))
        # scalars, the top edge and its roundoff grace
        th = table.interpolator()
        assert th(taus[-1]) == ref[n - 1]
        assert th(taus[-1] * (1 + 1e-13)) == ref[n - 1]
        for bad in (-1e-300, taus[-1] * 1.01, np.nan):
            with pytest.raises(DomainError):
                th(bad)
        with pytest.raises(DomainError):
            th(np.array([0.0, taus[-1] * 1.01]))


def test_table_save_load_round_trip(tmp_path):
    t = _tiny_table()
    p = tmp_path / "theta.csv"
    t.save(p)
    # the body must be plain round-trip floats, no numpy scalar reprs
    body = p.read_text()
    assert "np.float" not in body
    assert body.splitlines()[0] == "tau,theta,stderr"
    t2 = ThetaTable.load(p)
    np.testing.assert_array_equal(t2.taus, t.taus)
    np.testing.assert_array_equal(t2.theta, t.theta)
    assert t2.j == t.j
    assert t2.map_descriptor == t.map_descriptor
    # a re-save is byte-identical
    t2.save(tmp_path / "theta2.csv")
    assert (tmp_path / "theta2.csv").read_text() == body


def test_table_load_rejects_malformed(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("tau,theta,stderr\n0.0,1.0\n")
    (tmp_path / "bad.csv.meta.json").write_text(json.dumps(
        {"j": 0.5, "n_paths": 1, "seed": 0, "map": {}}))
    with pytest.raises(ConfigError):
        ThetaTable.load(p)
    with pytest.raises(ConfigError):
        ThetaTable.load(tmp_path / "missing.csv")
    # a well-formed body with a side file that is not JSON or lacks a key
    p.write_text("tau,theta,stderr\n0.0,1.0,0.0\n1.0,0.9,0.01\n")
    for meta in ('{"j": 0.5', '{"j": 0.5, "seed": 0}', '[0.5]'):
        (tmp_path / "bad.csv.meta.json").write_text(meta)
        with pytest.raises(ConfigError, match="bad.csv.meta.json: malformed side file"):
            ThetaTable.load(p)


# ---------------------------------------------------------------------------
# estimation


def test_estimate_theta_anchor_is_exact():
    f = reciprocal_map()
    taus = [0.0, 0.1, 0.5, 1.0]
    tab = estimate_theta(f, 0.5, taus, PayoffSpec.forward(), 400, 64, SEED)
    assert tab.taus[0] == 0.0
    assert tab.theta[0] == float(f(0.5))  # h(f(j)) exactly
    assert tab.stderr[0] == 0.0
    assert tab.n_paths == 400
    assert tab.covers(1.0)


def test_estimate_theta_prepends_zero():
    f = reciprocal_map()
    tab = estimate_theta(f, 0.5, [0.25, 1.0], PayoffSpec.bond(), 100, 32, SEED)
    assert tab.taus[0] == 0.0
    assert len(tab.taus) == 3


def test_estimate_theta_converges_to_closed_form():
    """Floor-started paths sit on the floor from the first step, so a scheme
    that lost the excursions below it between nodes would bias Theta high
    here first. The bridge-reflected estimate matches the closed form within
    3 of its own standard errors on both a coarse (128) and a finer (512)
    clustered grid."""
    f = reciprocal_map()
    j, tau = 0.5, 0.7
    ref = theta_recip_bessel_forward(tau, j)
    for res in (128, 512):
        tab = estimate_theta(f, j, [tau], PayoffSpec.forward(), 20000, res, SEED)
        k = int(np.argmin(np.abs(tab.taus - tau)))
        assert abs(tab.theta[k] - ref) <= 3.0 * tab.stderr[k]


def test_estimate_theta_bond_is_exactly_one():
    tab = estimate_theta(reciprocal_map(), 0.3, [0.5, 1.0], PayoffSpec.bond(),
                         500, 64, SEED)
    np.testing.assert_array_equal(tab.theta, 1.0)
    np.testing.assert_array_equal(tab.stderr, 0.0)


def test_estimate_theta_rejects_bad_floor():
    with pytest.raises(DomainError):
        estimate_theta(reciprocal_map(), -0.5, [1.0], PayoffSpec.bond(), 10, 8, SEED)


def _raising(x):
    raise ValueError("no value here")


@pytest.mark.parametrize("f, j, taus, match", [
    (reciprocal_map(), 0.5, [-0.5, 1.0], "tau values must be nonnegative"),
    (reciprocal_map(), 0.5, [0.0], "at least one positive tau"),
    (dataclasses.replace(reciprocal_map(), pre=_raising), 0.5, [1.0],
     "map not regular at the floor j=0.5: no value here"),
    (dataclasses.replace(reciprocal_map(), pre=lambda x: np.inf * x), 0.5,
     [1.0], "T_f\\(j\\)=inf at j=0.5: the drift is singular"),
], ids=["negative-tau", "no-positive-tau", "pre-raises", "pre-infinite"])
def test_theta_pass_refuses_before_any_path(monkeypatch, f, j, taus, match):
    monkeypatch.setattr(pathlab, "_path_steps",
                        lambda *a, **k: pytest.fail("a stream was read"))
    with pytest.raises(DomainError, match=match):
        theta_pass(f, j, taus, PayoffSpec.forward(), 10, 8, SEED)


@pytest.mark.parametrize("f, x0, j0, match", [
    (reciprocal_map(), 1.0, 1.5, "need 0 < j0 <= x0"),
    (reciprocal_map(), 1.0, 0.0, "need 0 < j0 <= x0"),
    (log_map(0.5), 1.0, 0.25, "floor j0=0.25 outside the domain"),
], ids=["floor-above-spot", "floor-zero", "floor-off-domain"])
def test_price_pass_refuses_before_any_path(f, x0, j0, match):
    with pytest.raises(DomainError, match=match):
        price_pass(f, x0, j0, 1.0, PayoffSpec.forward(), 8)


def test_theta_side_file_records_the_stream_layout(tmp_path):
    tab = estimate_theta(reciprocal_map(), 0.5, [0.5, 1.0],
                         PayoffSpec.forward(), 10, 8, SEED)
    assert tab.stream == pathlab.STREAM_LAYOUT
    p = tmp_path / "theta.csv"
    tab.save(p)
    meta_path = tmp_path / "theta.csv.meta.json"
    meta = json.loads(meta_path.read_text())
    assert meta["stream"] == pathlab.STREAM_LAYOUT
    assert meta["stream"]["segment_steps"] == pathlab._SEGMENT
    assert ThetaTable.load(p).stream == pathlab.STREAM_LAYOUT
    # a side file written before tables recorded the layout still loads
    del meta["stream"]
    meta_path.write_text(json.dumps(meta))
    old = ThetaTable.load(p)
    assert old.stream == {}
    np.testing.assert_array_equal(old.theta, tab.theta)


# ---------------------------------------------------------------------------
# pricing and the contact decomposition


def test_price_fundraiser_mc_brownian_model():
    f = affine_map(1.0, 0.0)
    mc, se = price_fundraiser_mc(f, 1.0, 0.5, 1.0, PayoffSpec.forward(),
                                 20000, 512, SEED)
    ref = forward_bm_fundraiser(1.0, 0.5, 1.0)
    assert se > 0
    # without drift the bridge-reflected scheme is exact in law at any step
    assert abs(mc - ref) < 4 * se


def test_reflected_forward_at_512_steps_pooled_over_ten_seeds():
    # the price command's Monte Carlo pass runs at 512 steps; what is left of
    # the drift-freezing bias there must not show at ten times its paths.
    # Seeds 1..10 were fixed before any run.
    runs = [price_fundraiser_mc(reciprocal_map(), 1.0, 0.25, 1.0,
                                PayoffSpec.forward(), 20000, 512, seed)
            for seed in range(1, 11)]
    means, ses = np.array(runs).T
    pooled = means.mean()
    pooled_se = np.sqrt(np.sum(ses ** 2)) / len(runs)
    ref = forward_recip_bessel_fundraiser(1.0, 0.25, 1.0)
    assert abs(pooled - ref) < 3 * pooled_se


def test_price_fundraiser_bond_exact():
    mc, se = price_fundraiser_mc(reciprocal_map(), 1.0, 0.5, 1.0,
                                 PayoffSpec.bond(), 200, 64, SEED)
    assert mc == 1.0
    assert se == 0.0


def test_decompose_phi_psi_sums_to_price():
    f = affine_map(1.0, 0.0)
    args = (f, 1.0, 0.5, 1.0, PayoffSpec.forward(), 4000, SEED)
    phi, psi, (se_phi, se_psi) = decompose_phi_psi(*args, grid_resolution=256)
    mc, _ = price_fundraiser_mc(f, 1.0, 0.5, 1.0, PayoffSpec.forward(),
                                4000, 256, SEED)
    assert phi + psi == pytest.approx(mc, abs=1e-12)
    assert phi > 0 and psi > 0
    assert se_phi > 0 and se_psi > 0


def test_decompose_phi_psi_floor_start_is_all_contact():
    phi, psi, _ = decompose_phi_psi(reciprocal_map(), 0.5, 0.5, 0.5,
                                    PayoffSpec.forward(), 500, SEED,
                                    grid_resolution=128)
    assert phi == 0.0
    assert psi > 0.0


def test_price_and_decompose_equals_separate_calls():
    f = reciprocal_map()
    price, parts = price_and_decompose(f, 1.0, 0.5, 1.0, PayoffSpec.forward(),
                                       3000, 200, SEED)
    assert price == price_fundraiser_mc(f, 1.0, 0.5, 1.0, PayoffSpec.forward(),
                                        3000, 200, SEED)
    assert parts == decompose_phi_psi(f, 1.0, 0.5, 1.0, PayoffSpec.forward(),
                                      3000, SEED, grid_resolution=200)
