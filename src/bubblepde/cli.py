"""Command-line experiment harness: config parsing, the price / theta /
simulate / compare-schemes / convergence / oracle subcommands, and CSV
emission.

Reports are plain CSV with deterministic bodies (repr-formatted floats, no
timestamps); runtimes and environment notes go to `.meta.json` side files so
identical resolved configs produce byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import closedform as cf
from .boundary import PayoffSpec, ThetaTable, estimate_theta, price_pass, \
    theta_pass
from .errors import ConfigError, DomainError, NonMonotoneError, NumericsError
from .pathlab import STREAM_LAYOUT, TimeGrid, _run_shares, _worker_count, \
    bessel_dual_ensemble, drifted_ensemble, read_plan, reflected_ensemble, \
    reflected_passes, wiener_ensemble
from .pdesolve import FundraiserScheme, NaiveDirichletScheme, NeumannCapScheme, \
    TaperedTerminalScheme, TransformedCauchyScheme, check_price_point, \
    corner_defect, f_from_sigma, fundraiser_grid, solve_start, stencil
from .smoothmaps import from_descriptor

_NUMERIC_DEFAULTS = {
    "paths": 20000,
    "time_steps": 2048,
    "theta_paths": 20000,
    "theta_time_steps": 768,
    "theta_taus": 33,
    "space_nodes": 800,
    "theta_weight": 1.0,
    "seed": 12345,
    "levels": 2,
    "dump_paths": 10,
}

# the truncation rivals by kind; each is built from the cap f(j0) alone
_RIVALS = {cls.kind: cls for cls in (NeumannCapScheme, TaperedTerminalScheme,
                                     TransformedCauchyScheme,
                                     NaiveDirichletScheme)}
_SCHEME_NAMES = (FundraiserScheme.kind, *_RIVALS)
# compare-schemes without --scheme
_COMPARED = ("fundraiser", "neumann_cap", "tapered_terminal",
             "transformed_cauchy")

# most steps of the direct Monte Carlo pass of price and convergence: the
# bridge-reflected walk keeps only the O(dt) drift-freezing bias.  At 512
# steps that was at most a tenth of the 20 000-path standard error in five
# cases off the floor (README); from the floor (x0 = j0) it was +0.5 to 1%,
# or 1.1 to 2.0 standard errors
_MC_TIME_STEPS = 512

_SECTIONS = ("model", "payoff", "numerics", "output", "convergence", "simulate")
_MODEL_KEYS = ("sigma", "f", "x0", "j0", "T")
# the keys each descriptor kind takes besides "kind", by the descriptor's
# config key: a table's nodes and values are lists of numbers, a
# composition's outer and inner are map descriptors, and every other value
# is a number
_MAP_KEYS = {"power_law": ("alpha", "xi"), "log": ("xi",),
             "mobius": ("a", "b", "c", "d"), "reciprocal": (),
             "compose": ("outer", "inner")}
_DESCRIPTOR_KEYS = {
    "model.sigma": {"power": ("coefficient", "exponent")},
    "model.f": _MAP_KEYS,
    "payoff": {"bond": (), "forward": (), "call": ("strike",),
               "table": ("nodes", "values")},
}

# what building a payoff or a map raises on a malformed descriptor value
_MALFORMED = (KeyError, ValueError, TypeError, OverflowError)


# ---------------------------------------------------------------------------
# Config handling.

def _fail(path: str, why: str):
    raise ConfigError(f"config key {path}: {why}")


def _section(cfg: dict, name: str, required: bool = True) -> dict:
    sec = cfg.get(name)
    if sec is None:
        if required:
            _fail(name, "missing section")
        return {}
    if not isinstance(sec, dict):
        _fail(name, "must be an object")
    return sec


def _known(sec: dict, path: str, keys) -> None:
    """Reject the first key of sec, in sorted order, that is not in keys."""
    unknown = sorted(set(sec) - set(keys), key=str)
    if unknown:
        _fail(f"{path}.{unknown[0]}" if path else str(unknown[0]), "unknown key")


def _build(path: str, build, desc):
    """build(desc), with a malformed descriptor reported as a ConfigError
    naming the config key path, after _check_values of a descriptor
    object."""
    if isinstance(desc, dict):
        _check_values(path, desc, _DESCRIPTOR_KEYS[path])
    try:
        return build(desc)
    except ConfigError as exc:
        _fail(path, str(exc))
    except _MALFORMED as exc:
        _fail(path, f"malformed descriptor ({type(exc).__name__}: {exc})")


def _number(sec: dict, path: str, key, default=None, positive=False,
            integer=False):
    val = sec.get(key, default)
    if val is None:
        _fail(f"{path}.{key}", "missing required value")
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        _fail(f"{path}.{key}", f"expected a number, got {val!r}")
    try:
        finite = math.isfinite(val)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        _fail(f"{path}.{key}", f"must be finite, got {val!r}")
    if integer and int(val) != val:
        _fail(f"{path}.{key}", f"expected an integer, got {val!r}")
    if positive and val <= 0:
        _fail(f"{path}.{key}", f"must be positive, got {val!r}")
    return int(val) if integer else float(val)


def _check_values(path: str, desc: dict, kinds: dict) -> None:
    """Every key of the descriptor desc one that its kind takes in kinds,
    and every value but its kind a number, a list of numbers or a map
    descriptor as kinds says, each named by its full key path.  A kind that
    kinds lacks is left to _build's build call, which refuses it."""
    kind = desc.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        return
    _known(desc, path, ("kind", *kinds[kind]))
    for key, val in desc.items():
        if key in ("outer", "inner"):
            if not isinstance(val, dict):
                _fail(f"{path}.{key}", "must be a map descriptor object")
            _check_values(f"{path}.{key}", val, _MAP_KEYS)
        elif key in ("nodes", "values"):
            if not isinstance(val, list):
                _fail(f"{path}.{key}",
                      f"expected a list of numbers, got {val!r}")
            entries = dict(enumerate(val))
            for i in entries:
                _number(entries, f"{path}.{key}", i)
        elif key != "kind":
            _number(desc, path, key)


def _check_floor(path: str, j: float, f) -> None:
    """A floor j must lie inside the domain of the map f."""
    if not f.contains(j):
        lo, hi = f.domain
        _fail(path, f"floor {j} lies outside the domain ({lo:g}, {hi:g}) "
                    "of the model's map")


def _check_ladder(js: list, x0: float, f, note: str = "") -> None:
    """Every rung j of the convergence ladder needs 0 < j <= x0 inside the
    domain of f."""
    if js[0] > x0:
        _fail("convergence.j_sequence",
              f"rungs {js}{note} must not exceed model.x0={x0}")
    for j in js:
        _check_floor("convergence.j_sequence", j, f)


def _ladder(cfg: dict) -> list:
    """The floors of convergence: convergence.j_sequence, else the default
    ladder."""
    return cfg.get("convergence", {}).get("j_sequence",
                                          [0.4, 0.2, 0.1, 0.05, 0.02])


def _check_price_points(cfg: dict, f, command: str, names=None) -> None:
    """f(x0) at or above node 1 of every PDE grid that price, convergence or
    a compare-schemes level builds for a model.sigma config
    (pdesolve.check_price_point), naming the floor's config key: model.j0,
    or convergence.j_sequence for a rung.  main checks it before it creates
    the output directory, so before any path runs."""
    model, num = cfg["model"], cfg["numerics"]
    if "sigma" not in model or command not in ("price", "convergence",
                                               "compare-schemes"):
        return
    floors = ([("convergence.j_sequence", j) for j in _ladder(cfg)]
              if command == "convergence" else [("model.j0", model["j0"])])
    kinds, sizes = [FundraiserScheme.kind], [num["space_nodes"]]
    if command == "compare-schemes":
        kinds, sizes = names or _COMPARED, [m for m, _ in _level_sizes(num)]
    y = float(f(model["x0"]))
    for key, j in floors:
        cap = float(f(j))
        for kind in kinds:
            for m in sizes:
                grid = (fundraiser_grid(cap, m) if kind == FundraiserScheme.kind
                        else _RIVALS[kind](cap).grid(m))
                try:
                    check_price_point(grid, y)
                except ConfigError as exc:
                    _fail(key, f"floor {j!r} is too deep for the {kind} "
                               f"grid with {m} space steps: {exc}")


def resolve_config(raw: dict, overrides: dict) -> dict:
    """Validate the raw config dict, fill defaults, apply CLI overrides.
    Returns the resolved config; raises ConfigError naming the violated key.
    """
    return _resolve(raw, overrides)[0]


def _resolve(raw: dict, overrides: dict):
    """resolve_config's work: (resolved config, the model's map, the payoff),
    the last two as built while checking them."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _known(raw, "", _SECTIONS)
    model = dict(_section(raw, "model"))
    _known(model, "model", _MODEL_KEYS)
    if ("sigma" in model) == ("f" in model):
        _fail("model", "exactly one of 'sigma' or 'f' must be given")
    if "f" in model and not isinstance(model["f"], dict):
        _fail("model.f", "must be a map descriptor object")
    x0 = _number(model, "model", "x0", positive=True)
    j0 = _number(model, "model", "j0", positive=True)
    T = _number(model, "model", "T", positive=True)
    if j0 > x0:
        _fail("model.j0", f"j0={j0} violates 0 < j0 <= x0 (x0={x0})")
    model["x0"], model["j0"], model["T"] = x0, j0, T
    if "sigma" in model:
        f = _build("model.sigma", f_from_sigma, model["sigma"])
    else:
        f = _build("model.f", from_descriptor, model["f"])
    _check_floor("model.j0", j0, f)

    payoff_desc = _section(raw, "payoff")
    payoff = _build("payoff", PayoffSpec.from_descriptor, payoff_desc)

    numerics = dict(_NUMERIC_DEFAULTS)
    numerics.update(_section(raw, "numerics", required=False))
    # the CLI's --seed and --paths are checked like the values they replace
    numerics.update((key, overrides[key]) for key in ("seed", "paths")
                    if overrides.get(key) is not None)
    _known(numerics, "numerics", (*_NUMERIC_DEFAULTS, "theta_table"))
    table = numerics.get("theta_table")
    if table is not None and not isinstance(table, str):
        _fail("numerics.theta_table", f"expected a file path, got {table!r}")
    for key in ("paths", "time_steps", "theta_paths", "theta_time_steps",
                "theta_taus", "space_nodes", "levels", "dump_paths"):
        size = _number(numerics, "numerics", key, positive=True, integer=True)
        # an array with more entries than a 32-bit index reaches is never
        # allocated: fail here rather than deep inside numpy
        if size > 2 ** 31 - 1:
            _fail(f"numerics.{key}",
                  f"must be at most {2 ** 31 - 1}, got {numerics[key]!r}")
        numerics[key] = size
    # a standard error needs two paths, the theta table two tau nodes, and
    # the space grid four nodes
    for key, least in (("paths", 2), ("theta_paths", 2), ("theta_taus", 2),
                       ("space_nodes", 4)):
        if numerics[key] < least:
            _fail(f"numerics.{key}",
                  f"must be at least {least}, got {numerics[key]}")
    numerics["seed"] = _number(numerics, "numerics", "seed", integer=True)
    tw = _number(numerics, "numerics", "theta_weight")
    if not 0.0 <= tw <= 1.0:
        _fail("numerics.theta_weight", f"must lie in [0, 1], got {tw}")
    numerics["theta_weight"] = tw

    output = dict(_section(raw, "output", required=False))
    _known(output, "output", ("dir",))
    output.setdefault("dir", "out")
    if overrides.get("dir") is not None:
        output["dir"] = overrides["dir"]
    if not isinstance(output["dir"], str):
        _fail("output.dir", f"expected a directory path, got {output['dir']!r}")

    resolved = {"model": model, "payoff": payoff_desc, "numerics": numerics,
                "output": output}
    if raw.get("convergence") is not None:
        sec = _section(raw, "convergence", required=False)
        _known(sec, "convergence", ("j_sequence",))
        seq = sec.get("j_sequence")
        if not isinstance(seq, list) or len(seq) < 1:
            _fail("convergence.j_sequence",
                  "must be a decreasing list of positive numbers")
        js = [_number(dict(enumerate(seq)), "convergence.j_sequence", i,
                      positive=True) for i in range(len(seq))]
        if any(b >= a for a, b in zip(js, js[1:])):
            _fail("convergence.j_sequence",
                  "must be a decreasing list of positive numbers")
        _check_ladder(js, x0, f)
        resolved["convergence"] = {"j_sequence": js}
    if raw.get("simulate") is not None:
        sec = _section(raw, "simulate", required=False)
        _known(sec, "simulate", ("kind",))
        kind = sec.get("kind", "skorokhod")
        if kind not in ("wiener", "bessel3", "drifted", "skorokhod"):
            _fail("simulate.kind", f"unknown simulator {kind!r}")
        resolved["simulate"] = {"kind": kind}
    return resolved, f, payoff


def config_hash(resolved: dict) -> str:
    """Digest of the semantic experiment: everything except where the output
    lands, so runs into different directories still compare equal."""
    body = {k: v for k, v in resolved.items() if k != "output"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _load_config(path_str: str, overrides: dict):
    """_resolve of the JSON config file at path_str."""
    path = Path(path_str)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} is unreadable: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return _resolve(raw, overrides)


def _write_csv(path: Path, digest: str, header: str, rows: list[str]) -> None:
    body = [f"# config_hash: {digest}", header] + rows
    path.write_text("\n".join(body) + "\n")


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


# ---------------------------------------------------------------------------
# Subcommand bodies.

def _load_theta(cfg: dict, f, payoff: PayoffSpec, j: float, pinned):
    """The Theta table saved at `pinned`, after checking that it belongs to
    this (f, j, payoff) and covers T."""
    table = ThetaTable.load(pinned)
    want = {"map": f.descriptor, "j": j, "payoff": payoff.descriptor}
    got = {"map": table.map_descriptor, "j": table.j,
           "payoff": table.payoff_descriptor}
    if json.dumps(want, sort_keys=True) != json.dumps(got, sort_keys=True):
        # a side file written before tables recorded their payoff has
        # none, and such a table may belong to any payoff
        raise ConfigError(
            f"theta table {pinned} was built for (map, j, payoff)={got}, "
            f"this run needs {want}")
    T = cfg["model"]["T"]
    if not table.covers(T):
        raise ConfigError(
            f"theta table covers tau <= {table.taus[-1]}, need {T}")
    return table


def _theta_taus(cfg: dict) -> np.ndarray:
    """The tau nodes of an estimated Theta table."""
    return TimeGrid.clustered(cfg["model"]["T"],
                              cfg["numerics"]["theta_taus"] - 1).nodes


def _pinned_theta(cfg: dict, f, payoff: PayoffSpec, command: str,
                  names=None):
    """The Theta table numerics.theta_table pins, loaded and checked
    (_load_theta), for the commands that read it: theta, price under
    model.sigma and compare-schemes running the fundraiser scheme; else
    None.  main loads it before it creates the output directory and hands
    it to the run."""
    pinned, model = cfg["numerics"].get("theta_table"), cfg["model"]
    if pinned and (command == "theta"
                   or (command == "price" and "sigma" in model)
                   or (command == "compare-schemes"
                       and FundraiserScheme.kind in (names or _COMPARED))):
        return _load_theta(cfg, f, payoff, model["j0"], pinned)
    return None


def _make_theta(cfg: dict, f, payoff: PayoffSpec, j: float, target: Path,
                table):
    """The Theta table of (f, j, payoff): the pinned table when given,
    otherwise estimated and saved to `target`."""
    if table is not None:
        return table
    num = cfg["numerics"]
    table = estimate_theta(f, j, _theta_taus(cfg), payoff, num["theta_paths"],
                           num["theta_time_steps"], num["seed"])
    table.save(target)
    return table


def _solve_level(cfg: dict, payoff: PayoffSpec, schemes, m: int, steps: int):
    """The t = 0 row of the model's pricing equation under each of `schemes`
    on its grid of m space steps, all on `steps` uniform time steps and
    stepped as one stacked system: [(grid, row), ...]."""
    model = cfg["model"]
    grids = [scheme.grid(m) for scheme in schemes]
    rows = solve_start(model["sigma"], payoff, model["T"],
                       list(zip(schemes, grids)),
                       TimeGrid.uniform(model["T"], steps),
                       theta_weight=cfg["numerics"]["theta_weight"])
    return list(zip(grids, rows))


@contextlib.contextmanager
def _timed(stages: dict, name: str):
    """Add the wall time of the block to stages[name]."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        stages[name] = stages.get(name, 0.0) + time.perf_counter() - t0


def _run_passes(f, seed: int, jobs, stages: dict):
    """Each job (label, n_paths, pass, reduce) of jobs run and reduced:
    (reduce of its pass's outputs over paths 0 ... n_paths - 1 of seed, in
    job order; the stream reads that ran, each as its path and step counts
    and the labels of its passes).  The passes of equal path count run as
    one reflected_passes call, in which they share reads as read_plan
    allows."""
    by_paths = {}
    for i, (_, n_paths, _, _) in enumerate(jobs):
        by_paths.setdefault(n_paths, []).append(i)
    outputs, reads = [None] * len(jobs), []
    with _timed(stages, "passes"):
        for n_paths, idx in by_paths.items():
            passes = [jobs[i][2] for i in idx]
            for i, out in zip(idx, reflected_passes(f, passes, n_paths,
                                                    seed)):
                outputs[i] = out
            reads += [{"paths": n_paths,
                       "steps": max(passes[r].grid.n_steps for r in read),
                       "passes": [jobs[idx[r]][0] for r in read]}
                      for read in read_plan(passes)]
    with _timed(stages, "reduce"):
        results = [job[3](out) for job, out in zip(jobs, outputs)]
    return results, reads


def price_at_floors(cfg: dict, f, payoff: PayoffSpec, floors, stages: dict):
    """The fundraiser prices at each (j, theta_path, pinned) of floors:
    ([((mc, mc_se), (phi, psi, (phi_se, psi_se)), pde_value), ...] in floor
    order, the stream reads of _run_passes).  pde_value is anchored on the
    Theta table at j: the loaded table `pinned`, or when that is None the
    table estimated and saved to `theta_path`; it is None without
    model.sigma, where pinned is None too.

    Every floor's reflected passes -- the Monte Carlo pass, on at most
    _MC_TIME_STEPS of numerics.time_steps steps, and the Theta pass of a
    table not pinned -- are set up and checked before any runs; then they
    all run through one _run_passes, so passes of one path count share
    their reads of the path streams.  The PDEs of all floors step as one
    stacked system on numerics.time_steps steps.  stages accumulates the
    wall time of the passes, the reductions, the PDE and the table
    writes."""
    model, num = cfg["model"], cfg["numerics"]
    x0, T = model["x0"], model["T"]
    jobs, loaded = [], []
    for j, _, pinned in floors:
        jobs.append((f"mc j={j!r}", num["paths"], *price_pass(
            f, x0, j, T, payoff, min(num["time_steps"], _MC_TIME_STEPS))))
        table = pinned  # main loads a pinned table under model.sigma only
        if "sigma" in model and table is None:
            jobs.append((f"theta j={j!r}", num["theta_paths"], *theta_pass(
                f, j, _theta_taus(cfg), payoff, num["theta_paths"],
                num["theta_time_steps"], num["seed"])))
        loaded.append(table)
    results, reads = _run_passes(f, num["seed"], jobs, stages)

    done = iter(results)
    prices, schemes = [], []
    for (j, theta_path, _), table in zip(floors, loaded):
        prices.append(next(done))
        if "sigma" not in model:
            continue
        if table is None:
            table = next(done)
            with _timed(stages, "write"):
                table.save(theta_path)
        schemes.append(FundraiserScheme(j=j, theta=table))
    pde_values = [None] * len(floors)
    if schemes:
        with _timed(stages, "pde"):
            solved = _solve_level(cfg, payoff, schemes, num["space_nodes"],
                                  num["time_steps"])
        pde_values = [grid.interp(row, float(f(x0))) for grid, row in solved]
    return ([(mc, split, pde) for (mc, split), pde in zip(prices, pde_values)],
            reads)


def run_theta(cfg: dict, f, payoff: PayoffSpec, out: Path, digest: str,
              theta=None) -> int:
    pinned = cfg["numerics"].get("theta_table")
    table = _make_theta(cfg, f, payoff, cfg["model"]["j0"], out / "theta.csv",
                        theta)
    where = f"read from {pinned}" if pinned else f"-> {out / 'theta.csv'}"
    print(f"theta table: {len(table.taus)} tau nodes on [0, {table.taus[-1]}], "
          f"j={table.j}, {table.n_paths} paths {where}")
    print(f"  anchor theta(0)={float(table.theta[0])!r}, "
          f"theta(T)={table.theta[-1]:.6f} +- {table.stderr[-1]:.6f}")
    return 0


def run_price(cfg: dict, f, payoff: PayoffSpec, out: Path, digest: str,
              theta=None) -> int:
    # the scipy module a price calls, loaded before the clock starts, so
    # that runtime_s times the pricing, not the import
    import scipy.linalg.lapack

    t_start = time.perf_counter()
    model = cfg["model"]
    x0, j0, T = model["x0"], model["j0"], model["T"]

    stages = {}
    [((mc, mc_se), (phi, psi, (phi_se, psi_se)), pde_value)], reads = \
        price_at_floors(cfg, f, payoff, [(j0, out / "theta.csv", theta)],
                        stages)
    oracle = {side: form(x0, j0, T)
              for _, side, form in cf.oracle_rows(f, payoff)}
    inv_oracle, fund_oracle = oracle.get("investor"), oracle.get("fundraiser")

    rows = [
        f"mc_price,{_fmt(mc)},{_fmt(mc_se)}",
        f"pde_price,{_fmt(pde_value)},",
        f"oracle_investor,{_fmt(inv_oracle)},",
        f"oracle_fundraiser,{_fmt(fund_oracle)},",
        f"phi,{_fmt(phi)},{_fmt(phi_se)}",
        f"psi,{_fmt(psi)},{_fmt(psi_se)}",
    ]
    with _timed(stages, "write"):
        _write_csv(out / "report.csv", digest, "quantity,value,stderr", rows)
    _write_meta(out / "report.meta.json", digest, cfg["numerics"]["seed"],
                t_start, stages, reads)

    print(f"fundraiser MC price   {mc:.6f} +- {mc_se:.6f}")
    if pde_value is not None:
        print(f"fundraiser PDE price  {pde_value:.6f}")
    if fund_oracle is not None:
        print(f"fundraiser closed form {fund_oracle:.6f}")
    if inv_oracle is not None:
        print(f"investor closed form  {inv_oracle:.6f}")
    print(f"phi (no floor contact) {phi:.6f} +- {phi_se:.6f}")
    print(f"psi (floor contact)    {psi:.6f} +- {psi_se:.6f}")
    print(f"report -> {out / 'report.csv'}")
    return 0


def _write_meta(path: Path, digest: str, seed: int, t_start: float,
                stages: dict, reads) -> None:
    """The side file of price and convergence: the config hash, the Monte
    Carlo seed and the stream layout its paths were drawn in
    (pathlab.STREAM_LAYOUT), the run's wall time since t_start, the seconds
    of each stage of price_at_floors (the path passes, their reductions, the
    PDE and the CSV and table writes) and its stream reads."""
    path.write_text(json.dumps(
        {"config_hash": digest, "seed": seed, "stream": STREAM_LAYOUT,
         "runtime_s": time.perf_counter() - t_start, "stages_s": stages,
         "reads": reads},
        indent=2, sort_keys=True) + "\n")


def _level_sizes(num: dict):
    """(space nodes, time steps) of each compare-schemes level, coarsest
    first: level l of L halves the finest grid L - 1 - l times."""
    levels = num["levels"]
    return [(max(8, num["space_nodes"] // 2 ** (levels - 1 - lev)),
             max(8, num["time_steps"] // 2 ** (levels - 1 - lev)))
            for lev in range(levels)]


def _check_compare_schemes(cfg: dict, f, names) -> None:
    """What compare-schemes needs of the config and of --scheme; main checks
    it before it creates the output directory.  That includes the stencil of
    every rival at every level, which the config alone decides."""
    model, num = cfg["model"], cfg["numerics"]
    if "sigma" not in model:
        raise ConfigError("compare-schemes needs model.sigma")
    for k, name in enumerate(names or ()):
        if name not in _SCHEME_NAMES:
            raise ConfigError(f"unknown scheme {name!r}; choose from "
                              f"{', '.join(_SCHEME_NAMES)}")
        if name in names[:k]:
            raise ConfigError(f"--scheme names {name!r} more than once")
    sizes = _level_sizes(num)
    for name in names or _RIVALS:
        if name not in _RIVALS:
            continue
        scheme = _RIVALS[name](float(f(model["j0"])))
        # finest first: when the finest grid fails, fewer levels cannot help
        for lev in reversed(range(len(sizes))):
            m = sizes[lev][0]
            try:
                stencil(model["sigma"], scheme, scheme.grid(m))
            except NonMonotoneError as exc:
                hint = ("raise space_nodes" if lev == len(sizes) - 1
                        else "raise space_nodes or lower levels")
                raise ConfigError(
                    f"config keys numerics.space_nodes and numerics.levels: "
                    f"level {lev} has {m} space nodes, too few for the "
                    f"{name} scheme ({exc}); {hint}") from None


def _balance(costs, workers: int) -> list[list[int]]:
    """Task indices per worker: the tasks, costliest first (ties in task
    order), each to the worker with the least cost so far (ties to the
    first)."""
    loads = [[] for _ in range(workers)]
    totals = [0] * workers
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        w = totals.index(min(totals))
        loads[w].append(i)
        totals[w] += costs[i]
    return loads


def run_compare_schemes(cfg: dict, f, payoff: PayoffSpec, out: Path,
                        digest: str, names=None, theta=None) -> int:
    model, num = cfg["model"], cfg["numerics"]
    j0 = model["j0"]
    y_ref = float(f(model["x0"]))
    schemes = []
    for name in names or _COMPARED:
        if name in _RIVALS:
            schemes.append(_RIVALS[name](float(f(j0))))
        else:
            table = _make_theta(cfg, f, payoff, j0, out / "theta.csv", theta)
            schemes.append(FundraiserScheme(j=j0, theta=table))

    tasks = [(scheme, lev, m, steps) for scheme in schemes
             for lev, (m, steps) in enumerate(_level_sizes(num))]
    loads = _balance([m * steps for _, _, m, steps in tasks],
                     _worker_count(len(tasks)))
    # the scipy module the solves call, loaded once before the workers
    # fork, and outside the timed solves
    import scipy.linalg.lapack

    def solve_load(load):
        """(CSV rows, wall time of the stacked solve) of each level of a
        load: its solves at one level step as one system."""
        levels = {}
        for i in load:
            levels.setdefault(tasks[i][1:], []).append(tasks[i][0])
        done = []
        for (lev, m, steps), group in levels.items():
            t0 = time.perf_counter()
            solved = _solve_level(cfg, payoff, group, m, steps)
            elapsed = time.perf_counter() - t0
            done.append(([(scheme.kind, lev, m, steps, grid.interp(row, y_ref),
                           corner_defect(payoff, model["T"], scheme,
                                         grid=grid))
                          for scheme, (grid, row) in zip(group, solved)],
                         elapsed))
        return done

    # each load's worker returns rows and times only, never a solution
    results = _run_shares(
        [functools.partial(solve_load, load) for load in loads],
        ["the solves of " + ", ".join(f"{tasks[i][0].kind} level {tasks[i][1]}"
                                      for i in load) for load in loads])
    rows, runtimes = [], {}
    for done in results:
        for level_rows, elapsed in done:
            rows.extend(level_rows)
            runtimes[f"level{level_rows[0][1]}/"
                     + "+".join(row[0] for row in level_rows)] = elapsed
    rows.sort(key=lambda r: (r[0], r[1]))
    body = [f"{n},{lev},{m},{steps},{_fmt(v)},{_fmt(d)}"
            for n, lev, m, steps, v, d in rows]
    _write_csv(out / "compare.csv", digest,
               "scheme,level,space_nodes,time_steps,value,corner_defect", body)
    (out / "compare.meta.json").write_text(json.dumps(
        {"config_hash": digest, "runtimes_s": runtimes,
         "load_s": [sum(elapsed for _, elapsed in done) for done in results],
         "workers": len(loads)}, indent=2, sort_keys=True) + "\n")
    width = max(len(n) for n, *_ in rows)
    for n, lev, m, steps, v, d in rows:
        print(f"{n:<{width}}  level {lev}  M={m:<5d} N={steps:<6d} "
              f"value={v:.6f}  corner_defect={d:.4g}")
    print(f"table -> {out / 'compare.csv'}")
    return 0


def run_convergence(cfg: dict, f, payoff: PayoffSpec, out: Path,
                    digest: str) -> int:
    # the scipy module the prices call, loaded before the clock starts, as
    # in run_price
    import scipy.linalg.lapack

    t_start = time.perf_counter()
    model = cfg["model"]
    x0, T = model["x0"], model["T"]
    fund_form = {side: form for _, side, form
                 in cf.oracle_rows(f, payoff)}.get("fundraiser")
    js = _ladder(cfg)  # checked by _resolve, or as the default by main

    # tables are per-j here, so a pinned numerics.theta_table never applies
    stages = {}
    priced, reads = price_at_floors(
        cfg, f, payoff, [(j, out / f"theta_j{j!r}.csv", None) for j in js],
        stages)
    rows = []
    prev = None
    for j, ((mc, mc_se), _, pde_value) in zip(js, priced):
        fund_oracle = None if fund_form is None else fund_form(x0, j, T)
        ref = pde_value if pde_value is not None else mc
        diff = None if prev is None else ref - prev
        gap = None if fund_oracle is None else ref - fund_oracle
        prev = ref
        rows.append((j, mc, mc_se, pde_value, diff, fund_oracle, gap))

    body = [",".join(_fmt(c) for c in row) for row in rows]
    with _timed(stages, "write"):
        _write_csv(out / "convergence.csv", digest,
                   "j,mc_price,mc_stderr,pde_price,diff,oracle,oracle_gap",
                   body)
    _write_meta(out / "convergence.meta.json", digest,
                cfg["numerics"]["seed"], t_start, stages, reads)
    for j, mc, se, pv, diff, orc, gap in rows:
        extras = "".join(f"  {name}={v:.6f}" for name, v in
                         (("pde", pv), ("oracle", orc)) if v is not None)
        print(f"j={j:<6g} mc={mc:.6f}+-{se:.6f}{extras}")
    print(f"table -> {out / 'convergence.csv'}")
    return 0


def run_simulate(cfg: dict, f, payoff: PayoffSpec, out: Path,
                 digest: str) -> int:
    model, num = cfg["model"], cfg["numerics"]
    x0, j0, T = model["x0"], model["j0"], model["T"]
    kind = cfg.get("simulate", {}).get("kind", "skorokhod")
    grid = TimeGrid.uniform(T, num["time_steps"])
    seed, n_paths = num["seed"], num["paths"]

    def run(first, n, record):
        """X, and J* for the floor-carrying kinds, at the recorded nodes of
        paths first ... first + n - 1."""
        if kind == "wiener":
            return wiener_ensemble(x0, grid, n, seed, record, first), None
        if kind == "bessel3":
            return bessel_dual_ensemble(x0, grid, n, seed, record, j0, first)
        if kind == "drifted":
            return drifted_ensemble(f, x0, grid, n, seed, record,
                                    first)[0], None
        vals, _contact, floors = reflected_ensemble(
            f, x0 - j0, j0, grid, n, seed, record, first, floors=True)
        return vals, floors

    # the dumped paths run once, every node recorded; the rest, end only
    n_dump = min(num["dump_paths"], n_paths)
    paths, jpaths = run(0, n_dump, range(grid.n_steps + 1))
    for i in range(n_dump):
        lines = ["t,X,Jstar"]
        for k_node in range(len(grid.nodes)):
            jcell = "" if jpaths is None else repr(float(jpaths[i, k_node]))
            lines.append(f"{float(grid.nodes[k_node])!r},"
                         f"{float(paths[i, k_node])!r},{jcell}")
        (out / f"path_{i:04d}.csv").write_text("\n".join(lines) + "\n")

    ends, jends = run(n_dump, n_paths - n_dump, [grid.n_steps])
    ends = np.concatenate([paths[:, -1], ends[:, 0]])
    if jends is not None:
        jends = np.concatenate([jpaths[:, -1], jends[:, 0]])

    rows = [f"X_T_mean,{_fmt(ends.mean())},{_fmt(ends.std(ddof=1) / np.sqrt(n_paths))}",
            f"X_T_var,{_fmt(ends.var(ddof=1))},"]
    if jends is not None:
        rows.append(f"Jstar_T_mean,{_fmt(jends.mean())},"
                    f"{_fmt(jends.std(ddof=1) / np.sqrt(n_paths))}")
    _write_csv(out / "ensemble_summary.csv", digest,
               "functional,value,stderr", rows)
    print(f"{kind}: {n_paths} paths on {grid.n_steps} steps; "
          f"dumped {n_dump} path files")
    print(f"E[X_T] = {ends.mean():.6f} +- {ends.std(ddof=1) / np.sqrt(n_paths):.6f}")
    print(f"summary -> {out / 'ensemble_summary.csv'}")
    return 0


def run_oracle(cfg: dict, f, payoff: PayoffSpec, out: Path, digest: str) -> int:
    model = cfg["model"]
    x0, j0, T = model["x0"], model["j0"], model["T"]
    rows = [f"{case},{_fmt(x0)},{_fmt(j0)},{_fmt(T)},{_fmt(form(x0, j0, T))}"
            for case, _side, form in cf.oracle_rows(f, payoff)]
    if rows:
        print("\n".join(["case,x,j,T,value", *rows]))
    else:
        print("no closed form applies to this market and payoff")
    _write_csv(out / "oracle.csv", digest, "case,x,j,T,value", rows)
    return 0


# ---------------------------------------------------------------------------
# Entry point.

# name -> (runner, help); main calls runner(cfg, f, payoff, out, digest)
_COMMANDS = {
    "price": (run_price, "fundraiser price by MC and PDE, with references"),
    "theta": (run_theta, "estimate the boundary table Theta(tau, j)"),
    "simulate": (run_simulate, "dump simulated paths and ensemble summaries"),
    "compare-schemes": (run_compare_schemes,
                        "rival boundary schemes at matched refinement"),
    "convergence": (run_convergence, "price along a decreasing floor sequence"),
    "oracle": (run_oracle, "closed-form reference values"),
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bubblepde",
        description="Option pricing in diffusion markets with bubbles: "
                    "Monte Carlo boundary estimation, finite-difference "
                    "schemes, and closed-form references.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_run, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--paths", type=int, default=None,
                       help="Monte Carlo path count")
        p.add_argument("--out", default=None, help="output directory")
        if name == "compare-schemes":
            p.add_argument("--scheme", default=None,
                           help="comma-separated scheme names "
                                f"({', '.join(_SCHEME_NAMES)})")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {"seed": args.seed, "paths": args.paths, "dir": args.out}
    # compare-schemes alone takes --scheme
    names = getattr(args, "scheme", None)
    names = names.split(",") if names else None
    try:
        cfg, f, payoff = _load_config(args.config, overrides)
        if args.command == "compare-schemes":
            _check_compare_schemes(cfg, f, names)
        if args.command == "convergence" and "convergence" not in cfg:
            _check_ladder(_ladder(cfg), cfg["model"]["x0"], f,
                          " (the default)")
        _check_price_points(cfg, f, args.command, names)
        theta = _pinned_theta(cfg, f, payoff, args.command, names)
        out = Path(cfg["output"]["dir"])
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"config key output.dir: cannot create the "
                              f"directory {out}: {exc}") from None
        digest = config_hash(cfg)
        (out / "resolved_config.json").write_text(
            json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        run = _COMMANDS[args.command][0]
        return run(cfg, f, payoff, out, digest,
                   **({"names": names} if names else {}),
                   **({"theta": theta} if theta is not None else {}))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, DomainError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
