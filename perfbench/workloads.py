"""The benchmark's three workloads.

Each workload has a ``setup`` that turns the workload seed into inputs on disk
(configs, and for ``scheme_sweep`` a Theta table), a ``load`` that reads them
back, a ``warmup`` that runs a cheaper operation of the same shape, and an
``op`` that runs one operation in-process and checks its outputs.  ``op`` returns an ``OpResult``; every failed check is one entry in
``violations``, so a wrong answer is counted, never raised.  See README.md for
why each workload exists.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bubblepde import boundary, cli, closedform, pathlab, smoothmaps
from bubblepde.boundary import PayoffSpec
from bubblepde.pathlab import TimeGrid

SIGMA = {"kind": "power", "coefficient": 1.0, "exponent": 2.0}
MODEL = {"sigma": SIGMA, "x0": 1.0, "j0": 0.25, "T": 1.0}
FORWARD = PayoffSpec.forward()
# A price may miss its closed form by the known O(sqrt(dt)) discretisation
# bias (up to ~2% at 512 steps) but not by this much.
GROSS_REL_TOL = 0.10
SCHEMES = ("fundraiser", "neumann_cap", "tapered_terminal",
           "transformed_cauchy", "naive_dirichlet")


def derive_seed(seed: int, part: int) -> int:
    """Per-part master seed, a fixed function of the workload seed."""
    state = np.random.SeedSequence([seed, part]).generate_state(1, np.uint64)
    return int(state[0] >> np.uint64(1))


@dataclass
class OpResult:
    body: bytes = b""            # deterministic CSV output of the operation
    values: dict = field(default_factory=dict)   # every reported number
    gap: float = math.nan        # distance from the closed forms (README.md)
    violations: list = field(default_factory=list)
    notes: list = field(default_factory=list)    # printed diagnostics

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.violations.append(what)

    def check_finite(self) -> None:
        for name, v in self.values.items():
            self.expect(v is not None and math.isfinite(v),
                        f"{name} is not finite: {v!r}")


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return path


def _csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [ln.split(",") for ln in lines[2:]]  # skip hash and header


def _run_cli(res: OpResult, argv: list[str]) -> bool:
    rc = cli.main(argv)
    res.expect(rc == 0, f"{argv[0]} exited with {rc}")
    return rc == 0


class Workload:
    """Inputs live in ``workdir``; ``seed`` is the workload seed."""

    def __init__(self, workdir: Path, seed: int):
        self.dir, self.seed = workdir, seed

    def _config(self, tag: str, part: int, **numerics) -> Path:
        """Write a CLI config for MODEL with the forward payoff."""
        numerics["seed"] = derive_seed(self.seed, part)
        return _write_json(self.dir / f"{tag}.json",
                           {"model": MODEL, "payoff": {"kind": "forward"},
                            "numerics": numerics})


class PriceDefault(Workload):
    """``bubblepde price`` at the README default config."""

    name = "price_default"

    def setup(self) -> None:
        self._config("price", 1)
        # full path counts, fewer steps: the warm-up touches the same buffers
        self._config("price_warmup", 1, time_steps=256, theta_time_steps=96)

    def load(self) -> None:
        x0, j0, T = MODEL["x0"], MODEL["j0"], MODEL["T"]
        self.ref = closedform.forward_recip_bessel_fundraiser(x0, j0, T)
        self.ref_investor = closedform.forward_recip_bessel_investor(x0, T)

    def warmup(self) -> None:
        cli.main(["price", "--config", str(self.dir / "price_warmup.json"),
                  "--out", str(self.dir / "warmup")])

    def op(self, k: int) -> OpResult:
        res = OpResult()
        out = self.dir / f"op{k}"
        if not _run_cli(res, ["price", "--config", str(self.dir / "price.json"),
                              "--out", str(out)]):
            return res
        res.body = (out / "report.csv").read_bytes()
        rows = {r[0]: r[1:] for r in _csv_rows(out / "report.csv")}
        num = {name: float(v[0]) for name, v in rows.items()}
        mc_se = float(rows["mc_price"][1])
        res.values = dict(num, mc_stderr=mc_se)
        res.check_finite()
        mc, pde = num["mc_price"], num["pde_price"]
        res.expect(abs(num["oracle_fundraiser"] - self.ref) <= 1e-12 * self.ref,
                   "report oracle_fundraiser differs from the closed form")
        res.expect(abs(num["oracle_investor"] - self.ref_investor)
                   <= 1e-12 * self.ref_investor,
                   "report oracle_investor differs from the closed form")
        res.expect(abs(num["phi"] + num["psi"] - mc) <= 1e-9,
                   "phi + psi does not reproduce mc_price")
        for name, v in (("mc_price", mc), ("pde_price", pde)):
            res.expect(abs(v - self.ref) <= GROSS_REL_TOL * self.ref,
                       f"{name}={v} is more than {GROSS_REL_TOL:.0%} off "
                       f"the closed form {self.ref}")
        res.gap = abs(pde - self.ref) / self.ref
        res.notes.append(f"mc_abs_z={abs(mc - self.ref) / mc_se:.4f} "
                         f"(mc {mc:.6f} +- {mc_se:.6f}, oracle {self.ref:.6f})")
        res.notes.append(f"pde_rel_err={res.gap:.6f} (pde {pde:.6f})")
        return res


class SchemeSweep(Workload):
    """``bubblepde compare-schemes`` over all five schemes at three levels,
    implicit and Crank-Nicolson, against a Theta table built in setup."""

    name = "scheme_sweep"
    WEIGHTS = (("implicit", 1.0), ("cn", 0.5))

    def setup(self) -> None:
        theta_cfg = self._config("sweep_theta", 2)
        rc = cli.main(["theta", "--config", str(theta_cfg),
                       "--out", str(self.dir / "theta")])
        if rc != 0:
            raise RuntimeError(f"theta table set-up exited with {rc}")
        table = str((self.dir / "theta" / "theta.csv").resolve())
        for tag, weight in self.WEIGHTS:
            self._config(f"sweep_{tag}", 2, levels=3, theta_weight=weight,
                         theta_table=table)
            self._config(f"sweep_{tag}_warmup", 2, levels=1, time_steps=256,
                         theta_weight=weight, theta_table=table)

    def load(self) -> None:
        x0, j0, T = MODEL["x0"], MODEL["j0"], MODEL["T"]
        self.ref = closedform.forward_recip_bessel_fundraiser(x0, j0, T)
        self.y_ref = 1.0 / x0  # f(x) = 1/x for sigma = y^2

    def _sweep(self, res: OpResult, tag: str, out: Path) -> list | None:
        argv = ["compare-schemes", "--config", str(self.dir / f"sweep_{tag}.json"),
                "--out", str(out), "--scheme", ",".join(SCHEMES)]
        if not _run_cli(res, argv):
            return None
        return _csv_rows(out / "compare.csv")

    def warmup(self) -> None:
        for tag, _ in self.WEIGHTS:
            self._sweep(OpResult(), f"{tag}_warmup", self.dir / "warmup" / tag)

    def op(self, k: int) -> OpResult:
        res = OpResult()
        errors = []
        for tag, _ in self.WEIGHTS:
            out = self.dir / f"op{k}" / tag
            rows = self._sweep(res, tag, out)
            if rows is None:
                continue
            res.body += (out / "compare.csv").read_bytes()
            finest = max(int(r[1]) for r in rows)
            for scheme, lev, _m, _n, value, defect in rows:
                v = float(value)
                res.values[f"{tag}.{scheme}.{lev}.value"] = v
                res.values[f"{tag}.{scheme}.{lev}.corner_defect"] = float(defect)
                if scheme == "naive_dirichlet":
                    res.expect(abs(v - self.y_ref) <= 1e-9,
                               f"{tag} naive_dirichlet level {lev} left v=y: {v}")
                if scheme == "fundraiser":
                    res.expect(v < self.y_ref - 0.05,
                               f"{tag} fundraiser level {lev} not below y-0.05: {v}")
                    if int(lev) == finest:
                        errors.append((v - self.ref) / self.ref)
                        res.expect(abs(errors[-1]) <= GROSS_REL_TOL,
                                   f"{tag} fundraiser finest value {v} is more "
                                   f"than {GROSS_REL_TOL:.0%} off {self.ref}")
        res.check_finite()
        if len(errors) == len(self.WEIGHTS):
            res.gap = math.sqrt(sum(e * e for e in errors) / len(errors))
            res.notes.append("pde_rel_err={:.6f} (implicit {:.6f}, cn {:.6f})"
                             .format(res.gap, *(abs(e) for e in errors)))
        else:
            res.violations.append("fundraiser finest level missing")
        return res


@dataclass
class Part:
    """One estimate compared with its closed form."""
    name: str
    estimate: float
    stderr: float
    reference: float
    seconds: float

    @property
    def z(self) -> float:
        return (self.estimate - self.reference) / self.stderr

    @property
    def rel(self) -> float:
        return (self.estimate - self.reference) / self.reference


def _reflected_part(name, f, x, j, T, n_paths, steps, seed, oracle):
    t0 = time.perf_counter()
    est, se = boundary.price_fundraiser_mc(f, x, j, T, FORWARD, n_paths, steps,
                                           seed)
    ref = oracle(x, j, T)
    return Part(name, est, se, ref, time.perf_counter() - t0)


def recip_forward_part(x, j, T, n_paths, steps, seed):
    return _reflected_part(f"recip_forward_{x:g}_{j:g}_{T:g}",
                           smoothmaps.reciprocal_map(), x, j, T, n_paths,
                           steps, seed,
                           closedform.forward_recip_bessel_fundraiser)


def bm_forward_part(n_paths, steps, seed):
    return _reflected_part("bm_forward_floor_1_1_1",
                           smoothmaps.power_law_map(1.0), 1.0, 1.0, 1.0,
                           n_paths, steps, seed,
                           closedform.forward_bm_fundraiser)


class OracleSuite(Workload):
    """Each Monte Carlo route against its closed form, at 512 steps."""

    name = "oracle_suite"
    PATHS, STEPS, MEASURE_PATHS = 20000, 512, 4000
    CASES = ((1.0, 0.5, 1.0), (1.0, 0.25, 1.0), (2.0, 1.0, 0.5))

    def setup(self) -> None:
        _write_json(self.dir / "oracle.json",
                    {"seeds": [derive_seed(self.seed, 10 + i) for i in range(7)]})

    def load(self) -> None:
        self.seeds = json.loads((self.dir / "oracle.json").read_text())["seeds"]

    def warmup(self) -> None:
        self._parts(self.PATHS, self.STEPS // 4, self.MEASURE_PATHS // 4)

    def _parts(self, n, steps, n_measure) -> list[Part]:
        s = self.seeds
        parts = [recip_forward_part(x, j, T, n, steps, s[i])
                 for i, (x, j, T) in enumerate(self.CASES)]
        parts.append(bm_forward_part(n, steps, s[3]))
        grid = TimeGrid.uniform(1.0, steps)

        t0 = time.perf_counter()
        _, alive = pathlab.drifted_ensemble(smoothmaps.power_law_map(1.0), 1.0,
                                            grid, n, s[4], [steps])
        p = float(alive.mean())
        parts.append(Part("bm_absorbed_survival_1_1", p,
                          math.sqrt(p * (1 - p) / n),
                          closedform.bond_bm(1.0, 1.0), time.perf_counter() - t0))

        t0 = time.perf_counter()
        vals, _ = pathlab.bessel_dual_ensemble(1.0, grid, n, s[5], [steps])
        inv = 1.0 / vals[:, 0]
        parts.append(Part("bessel_dual_inverse_1_1", float(inv.mean()),
                          float(inv.std(ddof=1) / math.sqrt(n)),
                          closedform.forward_recip_bessel_investor(1.0, 1.0),
                          time.perf_counter() - t0))

        t0 = time.perf_counter()
        est, se = pathlab.change_of_measure_expectation(
            smoothmaps.reciprocal_map(), lambda path: 1.0, 1.0, grid,
            n_measure, s[6], (0.4, 2.5))
        # S_f = 0 for the reciprocal map, so optional stopping gives 1
        parts.append(Part("measure_change_unit_0.4_2.5", est, se, 1.0,
                          time.perf_counter() - t0))
        return parts

    def op(self, k: int) -> OpResult:
        res = OpResult()
        parts = self._parts(self.PATHS, self.STEPS, self.MEASURE_PATHS)
        lines = ["part,estimate,stderr,reference"]
        for p in parts:
            lines.append(f"{p.name},{p.estimate!r},{p.stderr!r},{p.reference!r}")
            res.values[f"{p.name}.estimate"] = p.estimate
            res.values[f"{p.name}.stderr"] = p.stderr
            res.values[f"{p.name}.reference"] = p.reference
            res.expect(p.stderr > 0, f"{p.name} has zero stderr")
            res.expect(abs(p.rel) <= GROSS_REL_TOL,
                       f"{p.name}={p.estimate} is more than "
                       f"{GROSS_REL_TOL:.0%} off {p.reference}")
            res.notes.append(f"{p.name:30s} est={p.estimate:.6f} "
                             f"se={p.stderr:.6f} ref={p.reference:.6f} "
                             f"z={p.z:+.3f} rel={p.rel:+.5f} t={p.seconds:.3f}s")
        res.body = ("\n".join(lines) + "\n").encode()
        (self.dir / f"op{k}.csv").write_bytes(res.body)
        res.check_finite()
        if not res.violations:
            res.gap = math.sqrt(sum(p.z ** 2 for p in parts) / len(parts))
            mse = sum(p.rel ** 2 for p in parts) / len(parts)
            seconds = sum(p.seconds for p in parts)
            res.notes.append(f"oracle_rms_z={res.gap:.4f}")
            res.notes.append(f"oracle_mse_x_s={mse * seconds:.6g} s "
                             f"(mean relative squared error {mse:.4g} "
                             f"x {seconds:.3f} s)")
        return res

    def ladder(self, n_paths: int) -> list[dict]:
        """Error against cost over a step-count ladder (diagnostic only)."""
        rows = []
        for steps in (128, 256, 512, 1024, 2048):
            for part in (recip_forward_part(1.0, 0.5, 1.0, n_paths, steps,
                                            self.seeds[0]),
                         bm_forward_part(n_paths, steps, self.seeds[3])):
                rows.append({"part": part.name, "steps": steps,
                             "abs_z": abs(part.z), "seconds": part.seconds})
        return rows


WORKLOADS = {w.name: w for w in (PriceDefault, SchemeSweep, OracleSuite)}
