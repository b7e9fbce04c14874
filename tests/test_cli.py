"""End-to-end tests of the experiment harness: config validation, every
subcommand at toy scale, and report determinism."""

import contextlib
import copy
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bubblepde import (ConfigError, DomainError, NumericsError, PayoffSpec,
                       ThetaTable, cli, estimate_theta, f_from_sigma, pathlab,
                       pdesolve, price_and_decompose)
from bubblepde.cli import config_hash, main, resolve_config
from bubblepde.closedform import oracle_rows

RECIP_F = {"kind": "mobius", "a": 0.0, "b": 1.0, "c": 1.0, "d": 0.0}
BM_F = {"kind": "power_law", "alpha": 1.0, "xi": 0.0}
SIG2 = {"kind": "power", "coefficient": 1.0, "exponent": 2.0}

TINY_NUMERICS = {
    "paths": 400, "time_steps": 96, "theta_paths": 400,
    "theta_time_steps": 48, "theta_taus": 5, "space_nodes": 60,
    "seed": 99, "levels": 2, "dump_paths": 3,
}


FIVE_SCHEMES = ("fundraiser", "neumann_cap", "tapered_terminal",
                "transformed_cauchy", "naive_dirichlet")


def write_config(tmp_path, **overrides):
    cfg = {
        "model": {"sigma": SIG2, "x0": 1.0, "j0": 0.25, "T": 1.0},
        "payoff": {"kind": "forward"},
        "numerics": dict(TINY_NUMERICS),
        "output": {"dir": str(tmp_path / "out")},
    }
    cfg.update(overrides)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return p


# ---------------------------------------------------------------------------
# config resolution


def test_resolve_fills_defaults():
    cfg = resolve_config({"model": {"sigma": SIG2, "x0": 1.0, "j0": 0.5,
                                    "T": 1.0},
                          "payoff": {"kind": "bond"}}, {})
    assert cfg["numerics"]["paths"] == 20000
    assert cfg["numerics"]["theta_weight"] == 1.0
    assert cfg["output"]["dir"] == "out"


def test_resolve_rejects_model_problems():
    base = {"payoff": {"kind": "bond"}}
    with pytest.raises(Exception, match="model"):
        resolve_config({"model": {"x0": 1.0, "j0": 0.5, "T": 1.0}, **base}, {})
    with pytest.raises(Exception, match="sigma|f"):
        resolve_config({"model": {"sigma": SIG2, "f": RECIP_F, "x0": 1.0,
                                  "j0": 0.5, "T": 1.0}, **base}, {})
    with pytest.raises(Exception, match="j0"):
        resolve_config({"model": {"sigma": SIG2, "x0": 1.0, "j0": 2.0,
                                  "T": 1.0}, **base}, {})


def test_resolve_applies_overrides():
    cfg = resolve_config({"model": {"sigma": SIG2, "x0": 1.0, "j0": 0.5,
                                    "T": 1.0},
                          "payoff": {"kind": "bond"}},
                         {"seed": 7, "paths": 123, "dir": "elsewhere"})
    assert cfg["numerics"]["seed"] == 7
    assert cfg["numerics"]["paths"] == 123
    assert cfg["output"]["dir"] == "elsewhere"


def test_config_hash_ignores_output_location():
    raw = {"model": {"sigma": SIG2, "x0": 1.0, "j0": 0.5, "T": 1.0},
           "payoff": {"kind": "bond"}}
    a = config_hash(resolve_config(raw, {"dir": "here"}))
    b = config_hash(resolve_config(raw, {"dir": "there"}))
    c = config_hash(resolve_config(raw, {"seed": 1}))
    assert a == b
    assert a != c


def test_resolve_convergence_sequence():
    raw = {"model": {"sigma": SIG2, "x0": 1.0, "j0": 0.5, "T": 1.0},
           "payoff": {"kind": "bond"},
           "convergence": {"j_sequence": [0.4, 0.2]}}
    cfg = resolve_config(raw, {})
    assert cfg["convergence"]["j_sequence"] == [0.4, 0.2]
    raw["convergence"]["j_sequence"] = [0.2, 0.4]
    with pytest.raises(Exception, match="j_sequence"):
        resolve_config(raw, {})


@pytest.mark.parametrize("ladder", [None, [0.3, 0.1]])
def test_convergence_ladder_above_x0_names_its_key(tmp_path, capsys, ladder):
    # the default ladder starts at 0.4 and [0.3, 0.1] at 0.3, both above
    # x0 = 0.2: every rung j needs 0 < j <= x0
    model = {"sigma": SIG2, "x0": 0.2, "j0": 0.2, "T": 1.0}
    extra = {} if ladder is None else {"convergence": {"j_sequence": ladder}}
    cfgp = write_config(tmp_path, model=model, **extra)
    assert main(["convergence", "--config", str(cfgp)]) == 2
    err = capsys.readouterr().err
    assert "config key convergence.j_sequence: rungs " in err
    assert "must not exceed model.x0=0.2" in err
    assert not (tmp_path / "out" / "convergence.csv").exists()
    if ladder is None:  # the default ladder matters to convergence alone
        assert "(the default)" in err
        assert main(["theta", "--config", str(cfgp)]) == 0
        assert "convergence" not in json.loads(
            (tmp_path / "out" / "resolved_config.json").read_text())
    else:
        with pytest.raises(ConfigError, match="convergence.j_sequence"):
            resolve_config(json.loads(cfgp.read_text()), {})


# log(x - 0.5) lives on (0.5, inf): a floor at or below 0.5 is no floor of
# that map, whether it is model.j0 or a rung of the ladder, the default one
# (0.4, 0.2, ...) included
@pytest.mark.parametrize("command, j0, ladder, key, floor", [
    ("price", 0.25, None, "model.j0", 0.25),
    ("convergence", 0.25, None, "model.j0", 0.25),
    ("simulate", 0.25, None, "model.j0", 0.25),
    ("oracle", 0.25, None, "model.j0", 0.25),
    ("convergence", 0.75, None, "convergence.j_sequence", 0.4),
    ("convergence", 0.75, [0.9, 0.3], "convergence.j_sequence", 0.3),
], ids=["price", "convergence", "simulate", "oracle", "default-ladder",
        "ladder"])
def test_floor_outside_the_map_domain_names_its_key(tmp_path, capsys, command,
                                                    j0, ladder, key, floor):
    model = {"f": {"kind": "log", "xi": 0.5}, "x0": 1.0, "j0": j0, "T": 1.0}
    extra = {} if ladder is None else {"convergence": {"j_sequence": ladder}}
    cfgp = write_config(tmp_path, model=model, **extra)
    assert main([command, "--config", str(cfgp)]) == 2
    assert f"config key {key}: floor {floor} lies outside the domain " \
           "(0.5, inf) of the model's map" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Under sigma = y^2 the fundraiser grid starts at f(j0) * 1e-5 = 1e-5 / j0
# and holds payoff(0) there, so at j0 = 1e-5 its bottom node is f(x0) = 1
# (price read 3.2e-18 against 0.68) and at 1e-6 f(x0) lies off the grid
# (exit 3); a deep rung reaches it alike, and so does a coarse
# compare-schemes level: at 1.15e-5 node 1 lies at 0.96 on 120 space steps
# but at 1.05 on level 0's 60
@pytest.mark.parametrize("command, j0, ladder, key, floor, steps", [
    ("price", 1e-5, None, "model.j0", 1e-5, 120),
    ("price", 1e-6, None, "model.j0", 1e-6, 120),
    ("compare-schemes", 1e-5, None, "model.j0", 1e-5, 60),
    ("compare-schemes", 1.15e-5, None, "model.j0", 1.15e-5, 60),
    ("convergence", 0.25, [0.1, 1e-5], "convergence.j_sequence", 1e-5, 120),
], ids=["price-silent-zero", "price-off-the-grid", "compare-schemes",
        "compare-schemes-coarse-level", "convergence-rung"])
def test_a_floor_too_deep_for_the_pde_grid_names_its_key(
        tmp_path, capsys, monkeypatch, command, j0, ladder, key, floor, steps):
    monkeypatch.setattr(pathlab, "_path_steps",
                        lambda *a, **k: pytest.fail("a stream was read"))
    extra = {} if ladder is None else {"convergence": {"j_sequence": ladder}}
    # 120 space steps: level 0 of compare-schemes has 60
    cfgp = write_config(tmp_path, model=dict(MODEL, sigma=SIG2, j0=j0),
                        numerics=dict(TINY_NUMERICS, space_nodes=120), **extra)
    assert main([command, "--config", str(cfgp)]) == 2
    err = capsys.readouterr().err
    assert f"config key {key}: floor {floor!r} is too deep for the " \
           f"fundraiser grid with {steps} space steps: " in err
    assert "the price point y=1.0 lies below" in err
    assert not (tmp_path / "out").exists()
    # the commands that build no PDE grid run at that floor
    if command == "price":
        assert main(["oracle", "--config", str(cfgp)]) == 0


@pytest.mark.parametrize("j0", [1e-4, 1e-3])
def test_floors_the_pde_grid_holds_still_price(tmp_path, j0):
    cfgp = write_config(tmp_path, model=dict(MODEL, sigma=SIG2, j0=j0))
    assert main(["price", "--config", str(cfgp)]) == 0
    rows = {row[0]: row[1] for row in _body(tmp_path / "out" / "report.csv")}
    # within a few per cent of the closed form, which a price read off the
    # bottom node (payoff(0) = 0) is not
    oracle = float(rows["oracle_fundraiser"])
    assert abs(float(rows["pde_price"]) - oracle) < 0.05 * oracle


def test_valid_configs_keep_their_hash():
    # every CSV header carries the digest, so a valid config must keep it
    readme = {
        "model": {"sigma": SIG2, "x0": 1.0, "j0": 0.25, "T": 1.0},
        "payoff": {"kind": "forward"},
        "numerics": {"paths": 20000, "time_steps": 2048, "theta_paths": 20000,
                     "theta_time_steps": 768, "theta_taus": 33,
                     "theta_table": None, "space_nodes": 800,
                     "theta_weight": 1.0, "seed": 12345, "levels": 2,
                     "dump_paths": 10},
        "output": {"dir": "out"},
        "convergence": {"j_sequence": [0.4, 0.2, 0.1, 0.05, 0.02]},
        "simulate": {"kind": "skorokhod"},
    }
    pinned_call = {"model": {"f": RECIP_F, "x0": 2, "j0": 1, "T": 0.5},
                   "payoff": {"kind": "call", "strike": 0.5},
                   "numerics": {"theta_weight": 0.5, "theta_table": "t.csv"}}
    table = {"model": {"sigma": SIG2, "x0": 1.0, "j0": 0.5, "T": 1.0},
             "payoff": {"kind": "table", "nodes": [0, 1, 10],
                        "values": [0, 0.5, 2]}}
    digests = [config_hash(resolve_config(raw, {}))
               for raw in (readme, pinned_call, table)]
    assert digests == [
        "388bbad20707db071bc8574fff629e26429b85edcc48217454ad0a88e4f26323",
        "e57d2724938ab86fc0d06ee44f98336cc8024c5a75d15c66a7f16931c0137ad5",
        "a7c6015e9223458f48a06d90ae48ba62046b9eaca24ae2ce8c85117aae6ad813"]


MODEL = {"x0": 1.0, "j0": 0.25, "T": 1.0}


@pytest.mark.parametrize("key, section, value", [
    ("payoff.strike", "payoff", {"kind": "call", "strike": "abc"}),
    ("payoff.strike", "payoff", {"kind": "call", "strike": None}),
    ("payoff.strike", "payoff", {"kind": "call", "strike": [1]}),
    ("payoff.values", "payoff",
     {"kind": "table", "nodes": [0.0, 1.0], "values": "x"}),
    ("model.sigma.exponent", "model", dict(MODEL, sigma=dict(SIG2, exponent="x"))),
    ("model.sigma", "model", dict(MODEL, sigma={"kind": "exp", "rate": 1.0})),
    ("model.sigma", "model", dict(MODEL, sigma="y**2")),
    ("model.f", "model", dict(MODEL, f={"kind": "power_law"})),
    ("model.f", "model", dict(MODEL, f={"kind": "no_such_map"})),
    # values each builder would have taken through float() or as a number
    ("payoff.strike", "payoff", {"kind": "call", "strike": True}),
    ("payoff.strike", "payoff", {"kind": "call", "strike": "1.5"}),
    ("payoff.nodes.0", "payoff",
     {"kind": "table", "nodes": ["0", "2"], "values": [0.0, 1.0]}),
    ("payoff.values.0", "payoff",
     {"kind": "table", "nodes": [0.0, 2.0], "values": [False, True]}),
    ("model.sigma.coefficient", "model",
     dict(MODEL, sigma=dict(SIG2, coefficient="1"))),
    ("model.sigma.exponent", "model", dict(MODEL, sigma=dict(SIG2, exponent="2"))),
    ("model.f.alpha", "model",
     dict(MODEL, f={"kind": "power_law", "alpha": "-1"})),
    ("model.f.alpha", "model", dict(MODEL, f={"kind": "power_law", "alpha": True})),
    ("model.f.outer.alpha", "model",
     dict(MODEL, f={"kind": "compose", "inner": BM_F,
                    "outer": {"kind": "power_law", "alpha": "-1"}})),
    # lists only under a table's nodes and values, objects only as the
    # parts of a composition
    ("payoff.nodes", "payoff", {"kind": "table", "nodes": 1.0,
                                "values": [0.0, 1.0]}),
    ("model.f.xi", "model", dict(MODEL, f={"kind": "log", "xi": [0.5]})),
    ("model.f.inner", "model",
     dict(MODEL, f={"kind": "compose", "inner": [1.0], "outer": RECIP_F})),
    # numbers f_from_sigma refuses
    ("model.sigma", "model", dict(MODEL, sigma=dict(SIG2, coefficient=0.0))),
    ("model.sigma", "model", dict(MODEL, sigma=dict(SIG2, coefficient=-1.0))),
], ids=["strike-abc", "strike-null", "strike-list", "table-values",
        "sigma-exponent", "sigma-not-power", "sigma-not-a-descriptor",
        "f-missing-alpha", "f-unknown-kind", "strike-bool", "strike-string",
        "table-string-nodes", "table-bool-values", "sigma-string-coefficient",
        "sigma-string-exponent", "f-string-alpha", "f-bool-alpha",
        "f-nested-string-alpha", "table-number-nodes", "f-list-xi",
        "f-nested-list", "sigma-zero-coefficient",
        "sigma-negative-coefficient"])
def test_malformed_descriptor_value_is_a_config_error(tmp_path, key, section,
                                                      value):
    cfgp = write_config(tmp_path, **{section: value})
    with pytest.raises(ConfigError, match=f"config key {key}: "):
        resolve_config(json.loads(cfgp.read_text()), {})
    assert main(["price", "--config", str(cfgp)]) == 2


# the model.f keys below are set on a composed map
COMPOSED_MODEL = dict(MODEL, f={"kind": "compose",
                                "outer": {"kind": "reciprocal"}, "inner": BM_F})


@pytest.mark.parametrize("key", [
    "numerics.path", "model.typo", "payoff.strik", "output.dri", "outptu",
    # every descriptor, a nested one too: a misspelt coefficient would
    # otherwise price the coefficient-1 model, and "domain" is a key no
    # map descriptor has
    "model.sigma.coeficient", "model.f.domain", "model.f.outer.alpha",
    "model.f.inner.domain"])
def test_unknown_config_key_is_rejected(tmp_path, key):
    model = {"model": COMPOSED_MODEL} if key.startswith("model.f.") else {}
    raw = json.loads(write_config(tmp_path, **model).read_text())
    *sections, leaf = key.split(".")
    reduce(getitem, sections, raw)[leaf] = 1
    with pytest.raises(ConfigError, match=f"config key {key}: unknown key"):
        resolve_config(raw, {})
    cfgp = tmp_path / "typo.json"
    cfgp.write_text(json.dumps(raw))
    assert main(["price", "--config", str(cfgp)]) == 2


# Valid starting points for the mutation property: every section present,
# a sigma model and a composed map model.
FUZZ_BASES = [
    {"model": {"sigma": SIG2, "x0": 1.0, "j0": 0.25, "T": 1.0},
     "payoff": {"kind": "call", "strike": 0.5},
     "numerics": dict(TINY_NUMERICS, theta_weight=0.5, theta_table="t.csv"),
     "output": {"dir": "out"},
     "convergence": {"j_sequence": [0.4, 0.2]},
     "simulate": {"kind": "wiener"}},
    {"model": {"f": {"kind": "compose", "outer": RECIP_F,
                     "inner": {"kind": "power_law", "alpha": 1.0, "xi": 0.0}},
               "x0": 1.0, "j0": 0.5, "T": 1.0},
     "payoff": {"kind": "table", "nodes": [0.0, 1.0, 10.0],
                "values": [0.0, 0.5, 2.0]}},
]
# the strings are relative paths: "." is a directory and "config.json" the
# config file itself once the test through main has written it
FUZZ_VALUES = st.sampled_from([
    None, True, 0, -1, 1, 3, 0.5, 1e300, float("inf"), float("nan"), 10 ** 400,
    "x", "", ".", "config.json", [], [1.0], [0.2, 0.4], {}, {"kind": "x"},
    {"kind": "power"}]
).map(copy.deepcopy)  # a later step may add keys into a drawn object
FUZZ_KEYS = st.sampled_from(["typo", "kind", "strike", "exponent", "alpha",
                             "x0", "dir", "j_sequence", "theta_table"])
# A uniform draw seldom pairs a rare value with the one key it matters for,
# so half the mutated configs set a size or a path key to one of its edge
# values.  No size here resolves to more than a tiny run: 2**31 is rejected.
FUZZ_SIZE_KEYS = ("paths", "theta_paths", "theta_taus", "time_steps",
                  "space_nodes")
FUZZ_EDGES = st.one_of(
    st.tuples(st.just("numerics"), st.sampled_from(FUZZ_SIZE_KEYS),
              st.sampled_from([-1, 0, 1, 2, 3, 2 ** 31])),
    st.tuples(st.sampled_from([("output", "dir"),
                               ("numerics", "theta_table")]),
              st.sampled_from(["", ".", "config.json", "config.json/t.csv",
                               "out", "out/theta.csv", "missing/t.csv"])
              ).map(lambda kv: (*kv[0], kv[1])),
)


def _key_paths(obj, prefix=()):
    """Every key path into the nested objects of obj."""
    for key, val in obj.items():
        yield prefix + (key,)
        if isinstance(val, dict):
            yield from _key_paths(val, prefix + (key,))


@st.composite
def mutated_configs(draw, bases=FUZZ_BASES):
    """A valid config with one size or path key set to an edge value, or
    with one to three keys dropped, retyped or added."""
    raw = copy.deepcopy(draw(st.sampled_from(bases)))
    if draw(st.booleans()):
        # alone, so that the rest of the config is valid and a run reaches
        # the code that reads the key
        section, key, value = draw(FUZZ_EDGES)
        raw.setdefault(section, {})[key] = value
        return raw
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_key_paths(raw))
        op = draw(st.sampled_from(["drop", "retype", "add"]))
        if op == "add" or not paths:
            owner = raw if not paths else reduce(
                getitem, draw(st.sampled_from([()] + paths)), raw)
            if isinstance(owner, dict):
                owner[draw(FUZZ_KEYS)] = draw(FUZZ_VALUES)
            continue
        *sections, leaf = draw(st.sampled_from(paths))
        owner = reduce(getitem, sections, raw)
        if op == "drop":
            del owner[leaf]
        else:
            owner[leaf] = draw(FUZZ_VALUES)
    return raw


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # e.g. a Mobius map with c = d = 0
@given(mutated_configs())
def test_mutated_config_resolves_or_fails_closed(raw):
    try:
        resolve_config(raw, {})
    except (ConfigError, DomainError, NumericsError):
        pass


# Starting points for the mutation property through main: the tiny test
# config with a sigma model, and a composed map model (as in FUZZ_BASES).
MAIN_FUZZ_BASES = [
    {"model": {"sigma": SIG2, "x0": 1.0, "j0": 0.25, "T": 1.0},
     "payoff": {"kind": "call", "strike": 0.5},
     "numerics": dict(TINY_NUMERICS, theta_weight=0.5),
     "output": {"dir": "out"},
     "convergence": {"j_sequence": [0.4, 0.2]},
     "simulate": {"kind": "skorokhod"}},
    FUZZ_BASES[1],
]
SUBCOMMANDS = ("price", "theta", "simulate", "compare-schemes", "convergence",
               "oracle")


@pytest.mark.slow
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=800)
@given(mutated_configs(MAIN_FUZZ_BASES), st.sampled_from(SUBCOMMANDS))
def test_mutated_config_runs_or_fails_closed_through_main(raw, command):
    # a resolved config can still fail later, so run the subcommand; a
    # dropped size falls back to its tiny value, not the full-scale default
    if isinstance(raw.get("numerics", {}), dict):
        raw["numerics"] = dict(TINY_NUMERICS, **raw.get("numerics", {}))
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # every path a config can name is relative, so output stays in tmp
        os.chdir(tmp)
        try:
            with open("config.json", "w") as fh:
                json.dump(raw, fh)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--config", "config.json"])
        finally:
            os.chdir(home)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# subcommands (toy scale)


def test_price_writes_report(tmp_path):
    cfgp = write_config(tmp_path)
    assert main(["price", "--config", str(cfgp)]) == 0
    report = tmp_path / "out" / "report.csv"
    lines = report.read_text().splitlines()
    assert lines[0].startswith("# config_hash: ")
    assert lines[1] == "quantity,value,stderr"
    rows = {l.split(",")[0]: l.split(",")[1] for l in lines[2:]}
    assert "mc_price" in rows and "pde_price" in rows
    # the contact decomposition reassembles the MC price exactly
    assert float(rows["phi"]) + float(rows["psi"]) == pytest.approx(
        float(rows["mc_price"]), abs=1e-12)
    # runtimes live in the side file, never the CSV
    meta = json.loads((tmp_path / "out" / "report.meta.json").read_text())
    assert "runtime_s" in meta
    assert "runtime" not in report.read_text()


def test_price_deterministic_across_out_dirs(tmp_path):
    cfgp = write_config(tmp_path)
    assert main(["price", "--config", str(cfgp), "--out",
                 str(tmp_path / "a")]) == 0
    assert main(["price", "--config", str(cfgp), "--out",
                 str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "report.csv").read_bytes() \
        == (tmp_path / "b" / "report.csv").read_bytes()


def test_price_and_compare_schemes_run_from_the_floor(tmp_path):
    # at x0 = j0 the price point f(x0) is the cap, the grid's top node, which
    # exp(log cap) used to miss by an ulp at 0.02, 0.05 and 0.2 (exit 3)
    numerics = dict(TINY_NUMERICS, paths=64, time_steps=16, theta_paths=64,
                    theta_time_steps=16, theta_taus=3)
    for j in (0.01, 0.02, 0.05, 0.1, 0.2, 0.5):
        cfgp = write_config(tmp_path, numerics=numerics, model={
            "sigma": SIG2, "x0": j, "j0": j, "T": 1.0})
        assert main(["price", "--config", str(cfgp)]) == 0, j
        rows = {row[0]: row[1:]
                for row in _body(tmp_path / "out" / "report.csv")}
        assert math.isfinite(float(rows["pde_price"][0])), j
        assert main(["compare-schemes", "--config", str(cfgp)]) == 0, j


@pytest.mark.parametrize("time_steps, mc_steps", [(96, 96), (640, 512)])
def test_mc_rows_are_price_and_decompose_at_most_512_steps(
        tmp_path, time_steps, mc_steps):
    # the PDE takes time_steps; the direct Monte Carlo pass stops at 512
    cfgp = write_config(tmp_path,
                        numerics=dict(TINY_NUMERICS, time_steps=time_steps))
    assert main(["price", "--config", str(cfgp)]) == 0
    rows = {row[0]: row[1:] for row in _body(tmp_path / "out" / "report.csv")}
    f = f_from_sigma(SIG2)
    (mc, mc_se), (phi, psi, (phi_se, psi_se)) = price_and_decompose(
        f, 1.0, 0.25, 1.0, PayoffSpec.forward(), TINY_NUMERICS["paths"],
        mc_steps, TINY_NUMERICS["seed"])
    assert rows["mc_price"] == [repr(mc), repr(mc_se)]
    assert rows["phi"] == [repr(phi), repr(phi_se)]
    assert rows["psi"] == [repr(psi), repr(psi_se)]


def test_theta_subcommand_writes_table(tmp_path):
    cfgp = write_config(tmp_path)
    assert main(["theta", "--config", str(cfgp)]) == 0
    table = tmp_path / "out" / "theta.csv"
    assert table.exists()
    assert (tmp_path / "out" / "theta.csv.meta.json").exists()
    body = table.read_text()
    assert body.splitlines()[0] == "tau,theta,stderr"
    assert "np.float" not in body


def test_theta_with_a_pinned_table_names_the_file_it_read(tmp_path, capsys):
    cfgp = write_config(tmp_path)
    assert main(["theta", "--config", str(cfgp)]) == 0
    pinned = tmp_path / "out" / "theta.csv"
    cfg = json.loads(cfgp.read_text())
    cfg["numerics"]["theta_table"] = str(pinned)
    cfgp.write_text(json.dumps(cfg))
    capsys.readouterr()
    out2 = tmp_path / "out2"
    assert main(["theta", "--config", str(cfgp), "--out", str(out2)]) == 0
    said = capsys.readouterr().out
    assert f"paths read from {pinned}\n" in said
    assert str(out2) not in said
    assert sorted(p.name for p in out2.iterdir()) == ["resolved_config.json"]


def test_price_accepts_pinned_theta_table(tmp_path):
    cfgp = write_config(tmp_path)
    assert main(["theta", "--config", str(cfgp)]) == 0
    cfg = json.loads(cfgp.read_text())
    cfg["numerics"]["theta_table"] = str(tmp_path / "out" / "theta.csv")
    cfgp2 = tmp_path / "config2.json"
    cfgp2.write_text(json.dumps(cfg))
    assert main(["price", "--config", str(cfgp2), "--out",
                 str(tmp_path / "out2")]) == 0


def test_price_rejects_mismatched_theta_table(tmp_path):
    # table computed for a different floor must be refused, exit code 2
    cfgp = write_config(tmp_path)
    assert main(["theta", "--config", str(cfgp)]) == 0
    cfg = json.loads(cfgp.read_text())
    cfg["model"]["j0"] = 0.5  # table was built for j0 = 0.25
    cfg["numerics"]["theta_table"] = str(tmp_path / "out" / "theta.csv")
    cfgp2 = tmp_path / "config2.json"
    cfgp2.write_text(json.dumps(cfg))
    assert main(["price", "--config", str(cfgp2)]) == 2


def test_pinned_theta_table_must_cover_T(tmp_path, capsys):
    # a table estimated up to T = 0.5 cannot anchor a price at T = 1
    short = dict(MODEL, sigma=SIG2, T=0.5)
    assert main(["theta", "--config",
                 str(write_config(tmp_path, model=short))]) == 0
    pinned = dict(TINY_NUMERICS, theta_table=str(tmp_path / "out" / "theta.csv"))
    cfgp = write_config(tmp_path, numerics=pinned)
    for command in ("price", "theta", "compare-schemes"):
        assert main([command, "--config", str(cfgp), "--out",
                     str(tmp_path / command)]) == 2
        assert ("theta table covers tau <= 0.5, need 1.0"
                in capsys.readouterr().err), command


def test_missing_pinned_theta_table_is_refused_before_the_output_dir(
        tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    cfgp = write_config(tmp_path, numerics=dict(TINY_NUMERICS,
                                                theta_table=str(missing)))
    for command in ("price", "theta", "compare-schemes"):
        out = tmp_path / command
        assert main([command, "--config", str(cfgp), "--out", str(out)]) == 2
        assert str(missing) in capsys.readouterr().err, command
        assert not out.exists(), command


def test_pinned_theta_table_must_match_the_payoff(tmp_path, capsys):
    # a table built for the forward must not anchor the price of a call
    assert main(["theta", "--config", str(write_config(tmp_path))]) == 0
    table = tmp_path / "out" / "theta.csv"
    meta_path = tmp_path / "out" / "theta.csv.meta.json"
    meta = json.loads(meta_path.read_text())
    assert meta["payoff"] == {"kind": "forward"}
    pinned = dict(TINY_NUMERICS, theta_table=str(table))
    call = write_config(tmp_path, payoff={"kind": "call", "strike": 0.9},
                        numerics=pinned)
    assert main(["price", "--config", str(call), "--out",
                 str(tmp_path / "call")]) == 2
    err = capsys.readouterr().err
    assert "'payoff': {'kind': 'forward'}" in err
    assert "'payoff': {'kind': 'call', 'strike': 0.9}" in err
    # a side file from before tables recorded their payoff is refused too
    del meta["payoff"]
    meta_path.write_text(json.dumps(meta))
    forward = write_config(tmp_path, numerics=pinned)
    assert main(["price", "--config", str(forward), "--out",
                 str(tmp_path / "forward")]) == 2
    err = capsys.readouterr().err
    assert "'payoff': {}" in err and "'payoff': {'kind': 'forward'}" in err


def _output_dir_is_a_file(tmp_path):
    (tmp_path / "taken").write_text("")
    return write_config(tmp_path, output={"dir": str(tmp_path / "taken")}), \
        "config key output.dir: "


def _config_is_a_directory(tmp_path):
    return tmp_path, str(tmp_path)


def _config_is_not_utf8(tmp_path):
    cfgp = write_config(tmp_path)
    cfgp.write_bytes(cfgp.read_bytes().replace(b"forward", b"forw\xe4rd"))
    return cfgp, str(cfgp)


def _config_is_not_json(tmp_path):
    cfgp = write_config(tmp_path)
    cfgp.write_text(cfgp.read_text()[:-1])
    return cfgp, "config is not valid JSON"


def _config_root_is_a_list(tmp_path):
    cfgp = write_config(tmp_path)
    cfgp.write_text(f"[{cfgp.read_text()}]")
    return cfgp, "config root must be a JSON object"


def _theta_table_is_not_utf8(tmp_path):
    assert main(["theta", "--config", str(write_config(tmp_path))]) == 0
    table = tmp_path / "out" / "theta.csv"
    table.write_bytes(table.read_bytes().replace(b"tau", b"t\xe4u", 1))
    return write_config(tmp_path, numerics=dict(TINY_NUMERICS,
                                                theta_table=str(table))), \
        str(table)


def _theta_table_is_the_working_directory(tmp_path):
    # "." has an empty file name, which the side file's name is built from
    return write_config(tmp_path, numerics=dict(TINY_NUMERICS,
                                                theta_table=".")), \
        "theta table file . is unreadable"


@pytest.mark.parametrize("make", [_output_dir_is_a_file, _config_is_a_directory,
                                  _config_is_not_utf8, _config_is_not_json,
                                  _config_root_is_a_list,
                                  _theta_table_is_not_utf8,
                                  _theta_table_is_the_working_directory],
                         ids=["output-dir-is-a-file", "config-is-a-directory",
                              "config-not-utf8", "config-not-json",
                              "config-root-is-a-list", "theta-table-not-utf8",
                              "theta-table-is-dot"])
def test_unusable_file_fails_closed(tmp_path, capsys, make):
    cfgp, named = make(tmp_path)
    capsys.readouterr()
    assert main(["price", "--config", str(cfgp)]) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("weight", [-0.5, 1.5])
def test_theta_weight_outside_the_unit_interval_is_rejected(tmp_path, capsys,
                                                            weight):
    cfgp = write_config(tmp_path,
                        numerics=dict(TINY_NUMERICS, theta_weight=weight))
    assert main(["price", "--config", str(cfgp)]) == 2
    assert (f"config key numerics.theta_weight: must lie in [0, 1], "
            f"got {weight}") in capsys.readouterr().err


@pytest.mark.parametrize("key", ["paths", "theta_paths"])
def test_path_count_below_two_is_rejected(tmp_path, capsys, key):
    # one path has no standard error
    cfgp = write_config(tmp_path, numerics=dict(TINY_NUMERICS, **{key: 1}))
    assert main(["price", "--config", str(cfgp)]) == 2
    assert f"config key numerics.{key}: must be at least 2, got 1" \
        in capsys.readouterr().err
    if key == "paths":
        assert main(["price", "--config", str(write_config(tmp_path)),
                     "--paths", "1"]) == 2


def test_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {"sigma": SIG2, "x0": 1.0, "j0": 2.0,
                                         "T": 1.0},
                               "payoff": {"kind": "forward"}}))
    assert main(["price", "--config", str(bad)]) == 2
    assert main(["price", "--config", str(tmp_path / "missing.json")]) == 2


def test_theta_taus_below_two_is_rejected(tmp_path):
    cfgp = write_config(tmp_path, numerics=dict(TINY_NUMERICS, theta_taus=1))
    with pytest.raises(ConfigError, match="numerics.theta_taus"):
        resolve_config(json.loads(cfgp.read_text()), {})
    assert main(["theta", "--config", str(cfgp)]) == 2


@pytest.mark.parametrize("nodes", [1, 2, 3])
def test_space_nodes_below_four_is_rejected(tmp_path, capsys, nodes):
    # price used to exit 2 without naming the key, compare-schemes exit 3
    cfgp = write_config(tmp_path,
                        numerics=dict(TINY_NUMERICS, space_nodes=nodes))
    for command in ("price", "compare-schemes"):
        assert main([command, "--config", str(cfgp)]) == 2
        assert (f"config key numerics.space_nodes: must be at least 4, "
                f"got {nodes}") in capsys.readouterr().err
    raw = json.loads(cfgp.read_text())
    raw["numerics"]["space_nodes"] = 4
    assert resolve_config(raw, {})["numerics"]["space_nodes"] == 4


@pytest.mark.parametrize("key", ["time_steps", "space_nodes"])
@pytest.mark.parametrize("value", [1e300, 2 ** 31])
def test_oversized_size_fails_closed(tmp_path, capsys, key, value):
    # resolution fails before anything of that size is allocated
    cfgp = write_config(tmp_path, numerics=dict(TINY_NUMERICS, **{key: value}))
    assert main(["price", "--config", str(cfgp)]) == 2
    err = capsys.readouterr().err
    assert f"config key numerics.{key}: must be at most 2147483647" in err
    assert "Traceback" not in err
    raw = json.loads(cfgp.read_text())
    raw["numerics"][key] = 2 ** 31 - 1
    assert resolve_config(raw, {})["numerics"][key] == 2 ** 31 - 1


def test_oversized_paths_override_fails_closed(tmp_path, capsys):
    cfgp = write_config(tmp_path)
    assert main(["price", "--config", str(cfgp), "--paths", str(2 ** 31)]) == 2
    assert "config key numerics.paths: " in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("convergence", [0.4]),
                                        ("simulate", "wiener")])
def test_non_object_optional_section_is_rejected(tmp_path, key, value):
    cfgp = write_config(tmp_path, **{key: value})
    with pytest.raises(ConfigError, match=f"config key {key}: must be an object"):
        resolve_config(json.loads(cfgp.read_text()), {})
    assert main(["price", "--config", str(cfgp)]) == 2


def test_price_rejects_non_numeric_theta_cell(tmp_path):
    cfgp = write_config(tmp_path)
    assert main(["theta", "--config", str(cfgp)]) == 0
    table = tmp_path / "out" / "theta.csv"
    rows = table.read_text().splitlines()
    rows[2] = "abc," + rows[2].split(",", 1)[1]
    table.write_text("\n".join(rows) + "\n")
    with pytest.raises(ConfigError, match=r"theta.csv line 3: tau cell 'abc'"):
        ThetaTable.load(table)
    cfg = json.loads(cfgp.read_text())
    cfg["numerics"]["theta_table"] = str(table)
    cfgp.write_text(json.dumps(cfg))
    assert main(["price", "--config", str(cfgp), "--out",
                 str(tmp_path / "out2")]) == 2


@pytest.mark.parametrize("bad, why", [
    ("nan", "non-finite entries in theta table"),
    ("swap", "taus must be strictly increasing"),
    ("header", "expected header 'tau,theta,stderr'")])
def test_pinned_theta_table_failing_its_checks_names_its_file(
        tmp_path, capsys, bad, why):
    cfgp = write_config(tmp_path)
    assert main(["theta", "--config", str(cfgp)]) == 0
    table = tmp_path / "out" / "theta.csv"
    rows = table.read_text().splitlines()
    if bad == "nan":
        rows[3] = rows[3].split(",", 1)[0] + ",nan," + rows[3].split(",")[2]
    elif bad == "swap":
        rows[2], rows[3] = rows[3], rows[2]
    else:
        rows[0] = "tau,value,stderr"
    table.write_text("\n".join(rows) + "\n")
    cfg = json.loads(cfgp.read_text())
    cfg["numerics"]["theta_table"] = str(table)
    cfgp.write_text(json.dumps(cfg))
    assert main(["price", "--config", str(cfgp), "--out",
                 str(tmp_path / "out2")]) == 2
    err = capsys.readouterr().err
    assert f"config error: {table}: {why}" in err


def _assert_runtimes_name_every_solve(meta, schemes, levels):
    """Every (scheme, level) appears in exactly one runtimes_s key, which
    names its level and its schemes: level<L>/<scheme>+<scheme>..."""
    named = []
    for key in meta["runtimes_s"]:
        level, kinds = key.split("/")
        assert level.startswith("level"), key
        named += [(kind, int(level[len("level"):])) for kind in kinds.split("+")]
    assert sorted(named) == sorted((name, lev) for name in schemes
                                   for lev in range(levels))


def test_compare_schemes(tmp_path):
    cfgp = write_config(tmp_path)
    assert main(["compare-schemes", "--config", str(cfgp)]) == 0
    body = (tmp_path / "out" / "compare.csv").read_text()
    lines = body.splitlines()
    assert lines[1].split(",")[0] == "scheme"
    names = {l.split(",")[0] for l in lines[2:]}
    # default comparison set: fundraiser vs the three truncation rivals
    assert names == {"fundraiser", "neumann_cap", "tapered_terminal",
                     "transformed_cauchy"}
    # two refinement levels per scheme
    assert len(lines[2:]) == 2 * len(names)
    # fundraiser has no boundary-corner mismatch; neumann does
    defect = {}
    for l in lines[2:]:
        cols = l.split(",")
        defect.setdefault(cols[0], []).append(float(cols[5]))
    assert all(d == 0.0 for d in defect["fundraiser"])
    assert all(d > 0.5 for d in defect["neumann_cap"])
    assert "runtime" not in body
    meta = json.loads((tmp_path / "out" / "compare.meta.json").read_text())
    _assert_runtimes_name_every_solve(meta, names, 2)


def test_compare_schemes_accepts_exactly_the_five_kinds(tmp_path):
    cfgp = write_config(tmp_path, numerics=dict(TINY_NUMERICS, levels=1))
    assert main(["compare-schemes", "--config", str(cfgp),
                 "--scheme", ",".join(FIVE_SCHEMES)]) == 0
    lines = (tmp_path / "out" / "compare.csv").read_text().splitlines()
    assert sorted(l.split(",")[0] for l in lines[2:]) == sorted(FIVE_SCHEMES)
    for bad in ("Fundraiser", "neumann", "fundraiser,cauchy", "dirichlet"):
        assert main(["compare-schemes", "--config", str(cfgp),
                     "--scheme", bad, "--out", str(tmp_path / "bad")]) == 2


@pytest.mark.parametrize("model,scheme", [
    ({"f": RECIP_F, "x0": 1.0, "j0": 0.25, "T": 1.0}, None),
    ({"sigma": SIG2, "x0": 1.0, "j0": 0.25, "T": 1.0}, "fundraiser,cauchy"),
], ids=["map_model", "unknown_scheme"])
def test_compare_schemes_fails_before_the_set_up(tmp_path, capsys, model,
                                                 scheme):
    # a config compare-schemes cannot run leaves no output directory behind
    cfgp = write_config(tmp_path, model=model)
    argv = ["compare-schemes", "--config", str(cfgp)]
    assert main(argv + (["--scheme", scheme] if scheme else [])) == 2
    assert ("model.sigma" if scheme is None else "'cauchy'") in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_compare_schemes_rejects_a_repeated_scheme(tmp_path, capsys):
    # a repeated name would run its solves twice and write its rows twice
    cfgp = write_config(tmp_path)
    assert main(["compare-schemes", "--config", str(cfgp), "--scheme",
                 "naive_dirichlet,fundraiser,naive_dirichlet"]) == 2
    err = capsys.readouterr().err
    assert "--scheme" in err and "'naive_dirichlet'" in err
    assert "'fundraiser'" not in err
    assert not (tmp_path / "out").exists()


def test_compare_schemes_subset_flag(tmp_path):
    cfgp = write_config(tmp_path)
    assert main(["compare-schemes", "--config", str(cfgp),
                 "--scheme", "naive_dirichlet"]) == 0
    lines = (tmp_path / "out" / "compare.csv").read_text().splitlines()
    names = {l.split(",")[0] for l in lines[2:]}
    assert names == {"naive_dirichlet"}


@pytest.mark.parametrize("nodes, failing, hint", [
    (16, "level 1 has 16 space nodes", "; raise space_nodes\n"),
    (32, "level 0 has 16 space nodes", "; raise space_nodes or lower levels"),
    (48, None, None)])
def test_compare_schemes_too_coarse_level_names_its_keys(tmp_path, capsys,
                                                         nodes, failing, hint):
    # at levels 2 the coarse level has nodes // 2 space nodes: 16 make the
    # transformed scheme's convection row non-monotone, 24 do not.  The
    # check runs before the output directory or the Theta table is made.
    cfgp = write_config(tmp_path,
                        numerics=dict(TINY_NUMERICS, space_nodes=nodes))
    code = main(["compare-schemes", "--config", str(cfgp)])
    err = capsys.readouterr().err
    if failing is None:
        assert code == 0 and err == ""
        return
    assert code == 2
    assert "numerics.space_nodes" in err and "numerics.levels" in err
    assert failing in err and hint in err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# compare-schemes solves in forked workers

# the tiny config's two levels, and three (at 60 space nodes the coarsest of
# three levels is too coarse for the transformed scheme)
COMPARE_NUMERICS = {"2_levels": TINY_NUMERICS,
                    "3_levels": dict(TINY_NUMERICS, space_nodes=120, levels=3)}


def _compare_schemes(cfgp, out, schemes):
    """Run compare-schemes into out: (compare.csv bytes, its meta)."""
    assert main(["compare-schemes", "--config", str(cfgp), "--out", str(out),
                 "--scheme", schemes]) == 0
    return ((out / "compare.csv").read_bytes(),
            json.loads((out / "compare.meta.json").read_text()))


@pytest.mark.parametrize("schemes", [",".join(FIVE_SCHEMES), "naive_dirichlet",
                                     "transformed_cauchy,fundraiser"])
@pytest.mark.parametrize("levels", sorted(COMPARE_NUMERICS))
def test_compare_schemes_bytes_do_not_depend_on_the_worker_count(
        tmp_path, monkeypatch, capsys, levels, schemes):
    numerics = COMPARE_NUMERICS[levels]
    cfgp = write_config(tmp_path, numerics=numerics)
    solves = len(schemes.split(",")) * numerics["levels"]
    forks = []
    fork_share = pathlab._fork_share
    monkeypatch.setattr(pathlab, "_fork_share",
                        lambda work: forks.append(work) or fork_share(work))
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(pathlab, "_cpu_count", lambda: workers)
        forks.clear()
        body, meta = _compare_schemes(cfgp, tmp_path / f"w{workers}", schemes)
        assert meta["workers"] == min(workers, solves)
        assert len(forks) == meta["workers"] - 1
        _assert_runtimes_name_every_solve(meta, schemes.split(","),
                                          numerics["levels"])
        # each worker's summed solve time
        assert len(meta["load_s"]) == meta["workers"]
        assert sum(meta["load_s"]) == pytest.approx(
            sum(meta["runtimes_s"].values()))
        # the printed value rows, without the line naming the output file
        runs.append((body, capsys.readouterr().out.splitlines()[:-1]))
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert len(runs[0][1]) == solves


def test_compare_schemes_balances_by_space_nodes_times_time_steps(
        tmp_path, monkeypatch):
    # every scheme's step is one tridiagonal solve, so a solve costs its
    # space nodes times its time steps
    costs = []
    balance = cli._balance
    monkeypatch.setattr(cli, "_balance",
                        lambda c, workers: costs.extend(c) or balance(c, workers))
    numerics = COMPARE_NUMERICS["3_levels"]
    _compare_schemes(write_config(tmp_path, numerics=numerics),
                     tmp_path / "out", ",".join(FIVE_SCHEMES))
    sizes = cli._level_sizes(dict(cli._NUMERIC_DEFAULTS, **numerics))
    want = [m * steps for _ in FIVE_SCHEMES for m, steps in sizes]
    assert costs == want


def test_compare_schemes_steps_each_level_of_a_worker_once(tmp_path,
                                                          monkeypatch):
    # one worker stacks the solves of a level into one stepping loop:
    # five schemes at three levels step three times
    monkeypatch.setattr(pathlab, "_cpu_count", lambda: 1)
    loops = []
    march = pdesolve._march
    monkeypatch.setattr(pdesolve, "_march",
                        lambda blocks, *a: loops.append(len(blocks))
                        or march(blocks, *a))
    _, meta = _compare_schemes(
        write_config(tmp_path, numerics=COMPARE_NUMERICS["3_levels"]),
        tmp_path / "out", ",".join(FIVE_SCHEMES))
    assert loops == [5, 5, 5]
    assert sorted(meta["runtimes_s"]) == [
        f"level{lev}/" + "+".join(FIVE_SCHEMES) for lev in range(3)]


@pytest.mark.parametrize("where", ["child", "caller"])
def test_compare_schemes_solve_failure_exits_3_and_no_child_remains(
        tmp_path, monkeypatch, capsys, where):
    monkeypatch.setattr(pathlab, "_cpu_count", lambda: 2)
    caller, solve_level = os.getpid(), cli._solve_level

    def refusing(*args):
        if (os.getpid() == caller) == (where == "caller"):
            raise NumericsError(f"solve refused in the {where}")
        if where == "caller":
            time.sleep(60)  # a slow child, killed when the caller fails
        return solve_level(*args)

    monkeypatch.setattr(cli, "_solve_level", refusing)
    cfgp = write_config(tmp_path)
    start = time.monotonic()
    assert main(["compare-schemes", "--config", str(cfgp)]) == 3
    assert time.monotonic() - start < 30
    assert f"numeric failure: solve refused in the {where}" \
        in capsys.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_live_thread_keeps_compare_schemes_in_process(tmp_path, monkeypatch):
    cfgp = write_config(tmp_path)
    schemes = ",".join(FIVE_SCHEMES)
    monkeypatch.setattr(pathlab, "_cpu_count", lambda: 1)
    want, _ = _compare_schemes(cfgp, tmp_path / "serial", schemes)
    monkeypatch.setattr(pathlab, "_cpu_count", lambda: 3)
    monkeypatch.setattr(pathlab, "_fork_share",
                        lambda work: pytest.fail("forked while a thread ran"))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        got, meta = _compare_schemes(cfgp, tmp_path / "threaded", schemes)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert got == want and meta["workers"] == 1


def test_convergence_subcommand(tmp_path):
    cfgp = write_config(tmp_path, convergence={"j_sequence": [0.25, 0.125]})
    assert main(["convergence", "--config", str(cfgp)]) == 0
    lines = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
    assert lines[1].split(",")[0] == "j"
    assert len(lines) == 4  # hash + header + one row per j
    # per-j theta tables are kept under distinct names
    assert (tmp_path / "out" / "theta_j0.25.csv").exists()
    assert (tmp_path / "out" / "theta_j0.125.csv").exists()


def _body(path):
    """The CSV rows below the hash and header lines, split into cells."""
    return [line.split(",") for line in path.read_text().splitlines()[2:]]


def test_price_compare_and_convergence_agree(tmp_path):
    # one floor-anchored price reached through three subcommands
    cfgp = write_config(tmp_path,
                        numerics=dict(TINY_NUMERICS, space_nodes=200,
                                      time_steps=256),
                        convergence={"j_sequence": [0.5, 0.25]})
    outs = {cmd: tmp_path / cmd
            for cmd in ("price", "compare-schemes", "convergence")}
    for cmd, out in outs.items():
        assert main([cmd, "--config", str(cfgp), "--out", str(out)]) == 0
    report = {row[0]: row[1:] for row in _body(outs["price"] / "report.csv")}
    fund = [row for row in _body(outs["compare-schemes"] / "compare.csv")
            if row[0] == "fundraiser"]
    finest = max(fund, key=lambda row: int(row[1]))
    assert finest[2:4] == ["200", "256"]
    assert finest[4] == report["pde_price"][0]
    at_j0 = {row[0]: row for row in _body(outs["convergence"] / "convergence.csv")}
    assert at_j0["0.25"][1:4] == [*report["mc_price"], report["pde_price"][0]]
    assert not (outs["convergence"] / "theta.csv").exists()


# the tiny numerics with both reflected passes on 96 steps, so that price's
# Monte Carlo and Theta passes share one read of the path streams; with
# 300 paths in the Monte Carlo pass they read apart
SHARED_NUMERICS = dict(TINY_NUMERICS, theta_time_steps=96)
APART_NUMERICS = dict(SHARED_NUMERICS, paths=300)
LADDER = [0.5, 0.25, 0.125]


@pytest.mark.parametrize("command, numerics, reads", [
    ("price", SHARED_NUMERICS, 1),
    ("convergence", SHARED_NUMERICS, 1),
    ("price", APART_NUMERICS, 2),
    ("convergence", APART_NUMERICS, 2),
    ("price", TINY_NUMERICS, 2),
], ids=["price", "convergence", "price-paths-apart",
        "convergence-paths-apart", "price-steps-apart"])
def test_passes_of_one_seed_share_one_read(tmp_path, monkeypatch, command,
                                           numerics, reads):
    # the passes of one path count share a read when their step counts
    # allow it (96 and 48 steps do not); the side file names each read
    monkeypatch.setattr(pathlab, "_cpu_count", lambda: 1)
    steps, path_steps = [], pathlab._path_steps
    monkeypatch.setattr(pathlab, "_path_steps", lambda *a, **k: (
        steps.append(a[2:4]) or path_steps(*a, **k)))
    cfgp = write_config(tmp_path, numerics=numerics,
                        convergence={"j_sequence": LADDER})
    assert main([command, "--config", str(cfgp)]) == 0
    assert len(steps) == reads
    meta = json.loads((tmp_path / "out" / (
        "report.meta.json" if command == "price"
        else "convergence.meta.json")).read_text())
    assert meta["config_hash"] == config_hash(
        resolve_config(json.loads(cfgp.read_text()), {}))
    assert meta["runtime_s"] > 0
    # how the numbers were drawn: the seed and the stream layout
    assert meta["seed"] == numerics["seed"]
    assert meta["stream"] == {"generator": "Philox",
                              "key": ["seed", "path index"],
                              "segment_steps": pathlab._SEGMENT,
                              "segment": ["normals", "bridge uniforms"]}
    assert set(meta["stages_s"]) == {"passes", "reduce", "pde", "write"}
    assert [(read["paths"], read["steps"]) for read in meta["reads"]] == steps
    js = [0.25] if command == "price" else LADDER
    labels = [label for read in meta["reads"] for label in read["passes"]]
    assert sorted(labels) == sorted(f"{kind} j={j!r}" for j in js
                                    for kind in ("mc", "theta"))


def _separate_prices(cfgp, j, theta_path):
    """price's values at floor j from its own price_and_decompose and
    estimate_theta calls and a solve of its own; the table is saved to
    theta_path."""
    cfg, f, payoff = cli._resolve(json.loads(cfgp.read_text()), {})
    model, num = cfg["model"], cfg["numerics"]
    T = model["T"]
    mc, split = price_and_decompose(f, model["x0"], j, T, payoff,
                                    num["paths"], min(num["time_steps"], 512),
                                    num["seed"])
    table = estimate_theta(
        f, j, pathlab.TimeGrid.clustered(T, num["theta_taus"] - 1).nodes,
        payoff, num["theta_paths"], num["theta_time_steps"], num["seed"])
    table.save(theta_path)
    scheme = pdesolve.FundraiserScheme(j=j, theta=table)
    sol = pdesolve.solve(model["sigma"], payoff, T, scheme,
                         grid=scheme.grid(num["space_nodes"]),
                         times=pathlab.TimeGrid.uniform(T, num["time_steps"]))
    return mc, split, sol.grid.interp(sol.values[0], float(f(model["x0"])))


@pytest.mark.parametrize("numerics", [SHARED_NUMERICS, APART_NUMERICS],
                         ids=["shared", "apart"])
def test_price_and_convergence_bodies_equal_separate_passes(tmp_path,
                                                            numerics):
    cfgp = write_config(tmp_path, numerics=numerics,
                        convergence={"j_sequence": LADDER})
    digest = config_hash(resolve_config(json.loads(cfgp.read_text()), {}))
    sep = tmp_path / "separate"
    sep.mkdir()
    fmt = cli._fmt
    forms = {side: form for _, side, form
             in oracle_rows(f_from_sigma(SIG2), PayoffSpec.forward())}

    assert main(["price", "--config", str(cfgp), "--out",
                 str(tmp_path / "price")]) == 0
    (mc, mc_se), (phi, psi, (phi_se, psi_se)), pde = _separate_prices(
        cfgp, 0.25, sep / "theta.csv")
    investor, fundraiser = (forms[side](1.0, 0.25, 1.0)
                            for side in ("investor", "fundraiser"))
    assert (tmp_path / "price" / "report.csv").read_text() == "\n".join([
        f"# config_hash: {digest}", "quantity,value,stderr",
        f"mc_price,{fmt(mc)},{fmt(mc_se)}", f"pde_price,{fmt(pde)},",
        f"oracle_investor,{fmt(investor)},",
        f"oracle_fundraiser,{fmt(fundraiser)},",
        f"phi,{fmt(phi)},{fmt(phi_se)}", f"psi,{fmt(psi)},{fmt(psi_se)}",
        ""])
    assert (tmp_path / "price" / "theta.csv").read_bytes() \
        == (sep / "theta.csv").read_bytes()

    assert main(["convergence", "--config", str(cfgp), "--out",
                 str(tmp_path / "convergence")]) == 0
    lines = [f"# config_hash: {digest}",
             "j,mc_price,mc_stderr,pde_price,diff,oracle,oracle_gap"]
    prev = None
    for j in LADDER:
        table = f"theta_j{j!r}.csv"
        (mc, mc_se), _, pde = _separate_prices(cfgp, j, sep / table)
        oracle = forms["fundraiser"](1.0, j, 1.0)
        lines.append(",".join(fmt(c) for c in (
            j, mc, mc_se, pde, None if prev is None else pde - prev, oracle,
            pde - oracle)))
        prev = pde
        assert (tmp_path / "convergence" / table).read_bytes() \
            == (sep / table).read_bytes()
    assert (tmp_path / "convergence" / "convergence.csv").read_text() \
        == "\n".join(lines + [""])


_SIMULATE_RUNNERS = {"wiener": "wiener_ensemble",
                     "bessel3": "bessel_dual_ensemble",
                     "drifted": "drifted_ensemble",
                     "skorokhod": "reflected_ensemble"}


@pytest.mark.parametrize("kind", ["wiener", "bessel3", "drifted", "skorokhod"])
def test_simulate_kinds(tmp_path, monkeypatch, kind):
    # every path runs once: the dumped ones with every node recorded, the
    # rest from the next index with the end node only; the summary is that
    # of all paths run at once
    name = _SIMULATE_RUNNERS[kind]
    runner, runs = getattr(cli, name), []
    sig = inspect.signature(runner)

    def counted(*args, **kwargs):
        call = sig.bind(*args, **kwargs)
        call.apply_defaults()
        runs.append((call.arguments["first_index"], call.arguments["n_paths"],
                     len(call.arguments["record"])))
        return runner(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)
    cfgp = write_config(tmp_path, simulate={"kind": kind})
    assert main(["simulate", "--config", str(cfgp)]) == 0
    n, steps = TINY_NUMERICS["paths"], TINY_NUMERICS["time_steps"]
    assert runs == [(0, 3, steps + 1), (3, n - 3, 1)]
    f = cli._resolve(json.loads(cfgp.read_text()), {})[1]
    grid = pathlab.TimeGrid.uniform(1.0, steps)
    args = {"wiener": (1.0, grid, n, 99, [steps]),
            "bessel3": (1.0, grid, n, 99, [steps], 0.25),
            "drifted": (f, 1.0, grid, n, 99, [steps]),
            "skorokhod": (f, 0.75, 0.25, grid, n, 99, [steps])}[kind]
    out = runner(*args)
    ends = (out if kind == "wiener" else out[0])[:, 0]
    summary = (tmp_path / "out" / "ensemble_summary.csv").read_text()
    assert (f"X_T_mean,{cli._fmt(ends.mean())},"
            f"{cli._fmt(ends.std(ddof=1) / n ** 0.5)}\n") in summary
    if kind == "bessel3":
        jends = out[1][:, 0]
        assert f"Jstar_T_mean,{cli._fmt(jends.mean())}," in summary
    outdir = tmp_path / "out"
    dumps = sorted(outdir.glob("path_*.csv"))
    assert len(dumps) == 3
    head = dumps[0].read_text().splitlines()
    assert head[0] == "t,X,Jstar"
    # Jstar column populated only for the two floor-carrying kinds
    has_jstar = head[1].split(",")[2] != ""
    assert has_jstar == (kind in ("bessel3", "skorokhod"))
    summary = (outdir / "ensemble_summary.csv").read_text().splitlines()
    assert any(r.startswith("X_T_mean,") for r in summary)
    if kind in ("bessel3", "skorokhod"):
        assert any(r.startswith("Jstar_T_mean,") for r in summary)


def test_simulate_bessel3_is_skorokhod_under_the_identity_map(tmp_path):
    # Pitman's theorem end to end: under f(x) = x the reflected walk is the
    # Bessel-3 dual, so both kinds write the same path files and summary
    # body; only the hash line, which names the kind, differs
    outs = {}
    for kind in ("bessel3", "skorokhod"):
        cfgp = write_config(tmp_path, model=dict(MODEL, f=BM_F),
                            simulate={"kind": kind})
        outs[kind] = tmp_path / kind
        assert main(["simulate", "--config", str(cfgp), "--out",
                     str(outs[kind])]) == 0
    names = sorted(p.name for p in outs["bessel3"].glob("path_*.csv"))
    assert len(names) == 3
    for name in names:
        assert ((outs["bessel3"] / name).read_bytes()
                == (outs["skorokhod"] / name).read_bytes())
    bodies = [(outs[k] / "ensemble_summary.csv").read_text().splitlines()
              for k in outs]
    assert bodies[0][0] != bodies[1][0] and bodies[0][1:] == bodies[1][1:]


@pytest.mark.parametrize("kind", ["wiener", "bessel3", "drifted", "skorokhod"])
def test_simulate_dumping_every_path(tmp_path, kind):
    # dump_paths at and past paths: every path is dumped and the rest of the
    # ensemble is a call of no paths; the summary is that of the dumps
    for dump in (5, 8):
        out = tmp_path / f"dump{dump}"
        cfgp = write_config(tmp_path, simulate={"kind": kind},
                            numerics=dict(TINY_NUMERICS, paths=5,
                                          dump_paths=dump),
                            output={"dir": str(out)})
        assert main(["simulate", "--config", str(cfgp)]) == 0
        dumps = sorted(out.glob("path_*.csv"))
        assert len(dumps) == 5
        ends = np.array([float(d.read_text().splitlines()[-1].split(",")[1])
                         for d in dumps])
        summary = (out / "ensemble_summary.csv").read_text()
        assert (f"X_T_mean,{cli._fmt(ends.mean())},"
                f"{cli._fmt(ends.std(ddof=1) / 5 ** 0.5)}\n") in summary


@pytest.mark.parametrize("payoff, key", [
    ({"kind": "table", "nodes": [0, 2, 8], "values": [0, float("nan"), 8]},
     "payoff.values.1"),
    ({"kind": "table", "nodes": [0, 2, float("inf")], "values": [0, 1, 8]},
     "payoff.nodes.2"),
    ({"kind": "call", "strike": float("inf")}, "payoff.strike")],
    ids=["nan-value", "inf-node", "inf-strike"])
def test_non_finite_payoff_names_its_key(tmp_path, capsys, payoff, key):
    # json reads NaN and Infinity; such a payoff used to pass resolution,
    # after which price failed naming no key and oracle exited 0
    cfgp = write_config(tmp_path, payoff=payoff)
    for command in ("price", "oracle"):
        assert main([command, "--config", str(cfgp)]) == 2
        err = capsys.readouterr().err
        assert f"config key {key}: " in err and "finite" in err, err
    assert not (tmp_path / "out").exists()


def test_oracle_subcommand(tmp_path, capsys):
    cfgp = write_config(tmp_path)
    assert main(["oracle", "--config", str(cfgp)]) == 0
    out = capsys.readouterr().out
    assert "forward_recip_bessel_fundraiser" in out
    assert (tmp_path / "out" / "oracle.csv").exists()


@pytest.mark.parametrize("model, payoff, cases", [
    ({"sigma": SIG2}, {"kind": "forward"},
     ["forward_recip_bessel_investor", "forward_recip_bessel_fundraiser"]),
    ({"f": BM_F}, {"kind": "forward"},
     ["forward_bm_investor", "forward_bm_fundraiser", "delta_bm_fundraiser"]),
    ({"f": BM_F}, {"kind": "bond"}, ["bond_bm", "bond_bm_fundraiser"]),
    ({"sigma": SIG2}, {"kind": "call", "strike": 0.5}, []),
    ({"sigma": dict(SIG2, exponent=1.5)}, {"kind": "forward"}, []),
    ({"sigma": SIG2}, {"kind": "bond"},
     ["bond_recip_bessel_investor", "bond_recip_bessel_fundraiser"]),
    ({"sigma": dict(SIG2, exponent=1.5)}, {"kind": "bond"},
     ["bond_fundraiser"]),
    # y = x on the whole line: no path is absorbed, so no bond_bm
    ({"f": {"kind": "mobius", "a": 1.0, "b": 0.0, "c": 0.0, "d": 1.0}},
     {"kind": "bond"}, ["bond_fundraiser"]),
], ids=["sigma-y2", "brownian", "brownian-bond", "sigma-y2-call",
        "sigma-y1.5", "sigma-y2-bond", "sigma-y1.5-bond", "whole-line-bond"])
def test_oracle_writes_only_the_market_rows(tmp_path, capsys, model, payoff,
                                            cases):
    # rows of the configured market and payoff; a call struck at 0.5 has none
    cfgp = write_config(tmp_path, model=dict(MODEL, **model), payoff=payoff)
    assert main(["oracle", "--config", str(cfgp)]) == 0
    lines = (tmp_path / "out" / "oracle.csv").read_text().splitlines()
    assert lines[1] == "case,x,j,T,value"
    assert [line.split(",")[0] for line in lines[2:]] == cases
    out = capsys.readouterr().out
    if cases:
        assert out.splitlines() == lines[1:]
    else:
        assert "no closed form applies" in out


def test_oracle_and_price_evaluate_the_map_inside_its_domain(tmp_path):
    # log(x - 0.5) is not defined at the market probe 0.31, so telling the
    # market must not evaluate it there.  The warnings are recorded, not
    # raised: a RuntimeWarning raised inside a broad except would hide
    cfgp = write_config(tmp_path, model={"f": {"kind": "log", "xi": 0.5},
                                         "x0": 1.0, "j0": 0.75, "T": 1.0},
                        payoff={"kind": "bond"})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for cmd in ("oracle", "price"):
            assert main([cmd, "--config", str(cfgp), "--out",
                         str(tmp_path / cmd)]) == 0
    assert [str(w.message) for w in caught] == []
    assert _body(tmp_path / "oracle" / "oracle.csv") \
        == [["bond_fundraiser", "1.0", "0.75", "1.0", "1.0"]]


@pytest.mark.parametrize("model", [{"sigma": SIG2}, {"f": BM_F},
                                   {"sigma": dict(SIG2, exponent=1.5)}],
                         ids=["sigma-y2", "brownian", "sigma-y1.5"])
def test_price_and_oracle_agree_on_the_bond(tmp_path, model):
    # both commands read the one oracle table
    cfgp = write_config(tmp_path, model=dict(MODEL, **model),
                        payoff={"kind": "bond"})
    for cmd in ("price", "oracle"):
        assert main([cmd, "--config", str(cfgp), "--out",
                     str(tmp_path / cmd)]) == 0
    report = {row[0]: row[1] for row in _body(tmp_path / "price" / "report.csv")}
    listed = [row[4] for row in _body(tmp_path / "oracle" / "oracle.csv")]
    priced = [report[key] for key in ("oracle_investor", "oracle_fundraiser")
              if report[key]]
    assert listed == priced and "1.0" in listed


# ---------------------------------------------------------------------------
# cold start: each test runs in a fresh interpreter on the source tree

SRC = Path(cli.__file__).resolve().parents[1]
# runs each argv given as a JSON argument through main, then prints the
# scipy modules the process has loaded
LOADED_SCIPY = """
import json, sys
from bubblepde import cli
for argv in map(json.loads, sys.argv[1:]):
    assert cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _fresh_python(*args):
    """A new interpreter run with the package's source tree on its path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))


def _scipy_loaded_after(*argvs):
    proc = _fresh_python("-c", LOADED_SCIPY, *map(json.dumps, argvs))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert _scipy_loaded_after() == []


# the public scipy subpackages each command loads: LAPACK's tridiagonal
# solver alone, since the closed forms rest on the C library's erfc and erf
# and the PCHIP of Θ, the oracle integral and the Schwarzian's trapezoid are
# numpy
@pytest.mark.parametrize("command, subpackages", [
    ("price", ["linalg"]),
    ("convergence", ["linalg"]),
    ("compare-schemes", ["linalg"]),
    ("oracle", []),
])
def test_each_command_loads_only_the_scipy_it_calls(tmp_path, command,
                                                    subpackages):
    loaded = _scipy_loaded_after([command, "--config",
                                  str(write_config(tmp_path))])
    # a subpackage is loaded when a module inside it is (scipy.version and
    # scipy.__config__ are plain modules, scipy._lib a private package)
    names = {m.split(".")[1] for m in loaded if m.count(".") >= 2}
    assert sorted(n for n in names if not n.startswith("_")) == subpackages


# runs each argv given as a JSON argument through main, every closed form of
# ORACLES and the strict-local-martingale detector with scipy unimportable,
# then prints the scipy modules the process has loaded
WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None  # an import of scipy or a subpackage now fails
from bubblepde import cli, closedform, is_strict_local_martingale
for argv in map(json.loads, sys.argv[1:]):
    assert cli.main(argv) == 0, argv
for case, form in closedform.ORACLES.values():
    assert form(1.3, 0.4, 0.7) > 0, case
power = {"kind": "power", "coefficient": 1.0}
assert is_strict_local_martingale(dict(power, exponent=2.0))
assert not is_strict_local_martingale(dict(power, exponent=1.0))
print(json.dumps(sorted(m for m, mod in sys.modules.items()
                        if m.split(".")[0] == "scipy" and mod is not None)))
"""


def test_oracle_theta_simulate_and_the_closed_forms_run_without_scipy(
        tmp_path):
    argvs = [[cmd, "--config", str(write_config(tmp_path)), "--out",
              str(tmp_path / cmd)] for cmd in ("oracle", "theta")]
    for kind in ("wiener", "bessel3", "drifted", "skorokhod"):
        (tmp_path / kind).mkdir()
        cfgp = write_config(tmp_path / kind, simulate={"kind": kind})
        argvs.append(["simulate", "--config", str(cfgp)])
    proc = _fresh_python("-c", WITHOUT_SCIPY, *map(json.dumps, argvs))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


# runs argv[1], a JSON argv for main or "measure" for a measure change, on
# two workers, and fails if scipy loads inside a share of _run_shares or a
# timed span (from a process's first perf_counter call on): such a load
# would repeat in every forked worker, or be timed as the work
SCIPY_UP_FRONT = """
import json, os, sys, time, types
from bubblepde import cli, pathlab
from bubblepde.smoothmaps import power_law_map

def scipy_loaded():
    return {m for m in sys.modules if m.split(".")[0] == "scipy"}

def loads_none(work):
    def run():
        before = scipy_loaded()
        out = work()
        assert scipy_loaded() == before, "a share loaded scipy"
        return out
    return run

marks, clock = {}, time.perf_counter

def perf_counter():
    now = scipy_loaded()
    assert marks.setdefault(os.getpid(), now) == now, "a timed span loaded scipy"
    return clock()

cli.time = types.SimpleNamespace(perf_counter=perf_counter)
pathlab._cpu_count = lambda: 2
shares = pathlab._run_shares
pathlab._run_shares = cli._run_shares = (
    lambda works, labels: shares([loads_none(w) for w in works], labels))
if sys.argv[1] == "measure":
    pathlab.change_of_measure_expectation(
        power_law_map(3.0), lambda x: 1.0, 1.0, pathlab.TimeGrid.uniform(0.25, 16),
        2 * pathlab._WEIGHT_ROWS, 7, (0.5, 2.0))
else:
    assert cli.main(json.loads(sys.argv[1])) == 0
"""


@pytest.mark.parametrize("command", ["price", "compare-schemes", "convergence",
                                     "measure"])
def test_scipy_loads_before_the_clock_and_the_fork(tmp_path, command):
    arg = "measure" if command == "measure" else json.dumps(
        [command, "--config", str(write_config(tmp_path))])
    proc = _fresh_python("-c", SCIPY_UP_FRONT, arg)
    assert proc.returncode == 0, proc.stderr


def test_python_dash_m_runs_the_command(tmp_path):
    cfgp = write_config(tmp_path)
    proc = _fresh_python("-m", "bubblepde", "oracle", "--config", str(cfgp))
    assert proc.returncode == 0, proc.stderr
    assert "forward_recip_bessel_fundraiser" in proc.stdout
    assert (tmp_path / "out" / "oracle.csv").exists()
    # the exit code is main's
    proc = _fresh_python("-m", "bubblepde", "oracle", "--config",
                         str(tmp_path / "missing.json"))
    assert proc.returncode == 2 and "config error" in proc.stderr


def test_oracle_at_a_tiny_floor(tmp_path):
    # j0 = 1e-6 puts the integrand's pole 1e-6 below the lower limit, so
    # the integrand falls by 1e12 within the first 1e-3 of its range
    import mpmath

    cfgp = write_config(tmp_path, model={"sigma": SIG2, "x0": 1.0,
                                         "j0": 1e-6, "T": 1.0})
    proc = _fresh_python("-m", "bubblepde", "oracle", "--config", str(cfgp))
    assert proc.returncode == 0, proc.stderr
    values = {row[0]: float(row[4])
              for row in _body(tmp_path / "out" / "oracle.csv")}
    mpmath.mp.dps = 30
    x, j = mpmath.mpf(1), mpmath.mpf("1e-6")
    d = x - j
    integral = mpmath.quad(lambda s: (j / (s + j)) ** 2 * mpmath.npdf(d + s),
                           [0, j, 10 * j, 1, mpmath.inf])
    want = {"forward_recip_bessel_investor": mpmath.erf(x / mpmath.sqrt(2)),
            "forward_recip_bessel_fundraiser":
                mpmath.erf(d / mpmath.sqrt(2)) + 2 * integral}
    for case, value in want.items():
        assert abs(values[case] - float(value)) <= 1e-12 * float(value), case
