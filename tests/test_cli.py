"""End-to-end tests of the experiment harness: config validation, every
subcommand at toy scale, and report determinism."""

import json
from pathlib import Path

import pytest

from bubblepde import ConfigError
from bubblepde.cli import config_hash, main, resolve_config

RECIP_F = {"kind": "mobius", "a": 0.0, "b": 1.0, "c": 1.0, "d": 0.0}
SIG2 = {"kind": "power", "coefficient": 1.0, "exponent": 2.0}

TINY_NUMERICS = {
    "paths": 400, "time_steps": 96, "theta_paths": 400,
    "theta_time_steps": 48, "theta_taus": 5, "space_nodes": 60,
    "seed": 99, "levels": 2, "dump_paths": 3,
}


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


def test_theta_subcommand_writes_table(tmp_path):
    cfgp = write_config(tmp_path)
    assert main(["theta", "--config", str(cfgp)]) == 0
    table = tmp_path / "out" / "theta.csv"
    assert table.exists()
    assert (tmp_path / "out" / "theta.csv.meta.json").exists()
    body = table.read_text()
    assert body.splitlines()[0] == "tau,theta,stderr"
    assert "np.float" not in body


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
    assert "fundraiser/level0" in meta["runtimes_s"]


def test_compare_schemes_subset_flag(tmp_path):
    cfgp = write_config(tmp_path)
    assert main(["compare-schemes", "--config", str(cfgp),
                 "--scheme", "naive_dirichlet"]) == 0
    lines = (tmp_path / "out" / "compare.csv").read_text().splitlines()
    names = {l.split(",")[0] for l in lines[2:]}
    assert names == {"naive_dirichlet"}


def test_convergence_subcommand(tmp_path):
    cfgp = write_config(tmp_path, convergence={"j_sequence": [0.25, 0.125]})
    assert main(["convergence", "--config", str(cfgp)]) == 0
    lines = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
    assert lines[1].split(",")[0] == "j"
    assert len(lines) == 4  # hash + header + one row per j
    # per-j theta tables are kept under distinct names
    assert (tmp_path / "out" / "theta_j0.25.csv").exists()
    assert (tmp_path / "out" / "theta_j0.125.csv").exists()


@pytest.mark.parametrize("kind", ["wiener", "bessel3", "drifted", "skorokhod"])
def test_simulate_kinds(tmp_path, kind):
    cfgp = write_config(tmp_path, simulate={"kind": kind})
    assert main(["simulate", "--config", str(cfgp)]) == 0
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


def test_oracle_subcommand(tmp_path, capsys):
    cfgp = write_config(tmp_path)
    assert main(["oracle", "--config", str(cfgp)]) == 0
    out = capsys.readouterr().out
    assert "forward_recip_bessel_fundraiser" in out
    assert (tmp_path / "out" / "oracle.csv").exists()
