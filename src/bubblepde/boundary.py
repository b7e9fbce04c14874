"""Monte Carlo layer: the boundary function Theta(tau, j) estimated on
floor-started reflected ensembles, direct MC pricing of the floor-constrained
claim, and the contact/no-contact decomposition of its value.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, DomainError
from .pathlab import STREAM_LAYOUT, ReflectedPass, TimeGrid, \
    reflected_ensemble
from .smoothmaps import SmoothMap


@dataclass(frozen=True)
class PayoffSpec:
    """Terminal payoff h(y): call, bond, forward, or a tabulated curve.

    Payoffs are nonnegative with at most linear growth; a tabulated payoff is
    interpolated linearly inside its node range and held constant outside it.
    """

    kind: str
    strike: float = 0.0
    table: Optional[tuple] = None  # (y nodes, values) for kind="table"

    _KINDS = ("call", "bond", "forward", "table")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ConfigError(f"unknown payoff kind {self.kind!r}")
        if self.kind == "call" and not 0 <= self.strike < np.inf:
            raise ConfigError(f"call strike must be finite and >= 0, got "
                              f"{self.strike!r}")
        if self.kind == "table":
            if self.table is None:
                raise ConfigError("payoff kind 'table' needs (nodes, values)")
            y, h = (np.asarray(a, dtype=float) for a in self.table)
            if y.ndim != 1 or y.shape != h.shape or len(y) < 2:
                raise ConfigError("payoff table needs matching 1-d nodes and values")
            if not (np.all(np.isfinite(y)) and np.all(np.isfinite(h))):
                raise ConfigError("payoff table nodes and values must be finite")
            if np.any(np.diff(y) <= 0):
                raise ConfigError("payoff table nodes must be strictly increasing")
            if np.any(h < 0):
                raise ConfigError("payoff values must be nonnegative")
            object.__setattr__(self, "table", (y, h))

    @classmethod
    def call(cls, strike: float) -> "PayoffSpec":
        return cls("call", strike=float(strike))

    @classmethod
    def bond(cls) -> "PayoffSpec":
        return cls("bond")

    @classmethod
    def forward(cls) -> "PayoffSpec":
        return cls("forward")

    @classmethod
    def from_table(cls, nodes, values) -> "PayoffSpec":
        return cls("table", table=(nodes, values))

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        if self.kind == "bond":
            out = np.ones_like(y)
        elif self.kind == "forward":
            out = y.copy()
        elif self.kind == "call":
            out = np.maximum(y - self.strike, 0.0)
        else:
            nodes, values = self.table
            out = np.interp(y, nodes, values)
        return float(out) if out.ndim == 0 else out

    @property
    def descriptor(self) -> dict:
        if self.kind == "call":
            return {"kind": "call", "strike": self.strike}
        if self.kind == "table":
            nodes, values = self.table
            return {"kind": "table", "nodes": list(nodes), "values": list(values)}
        return {"kind": self.kind}

    @classmethod
    def from_descriptor(cls, desc: dict) -> "PayoffSpec":
        kind = desc.get("kind")
        if kind == "call":
            return cls.call(desc["strike"])
        if kind == "bond":
            return cls.bond()
        if kind == "forward":
            return cls.forward()
        if kind == "table":
            return cls.from_table(desc["nodes"], desc["values"])
        raise ConfigError(f"unknown payoff descriptor kind {kind!r}")


@dataclass(frozen=True)
class ThetaTable:
    """Boundary values Theta(tau, j) on a tau grid, with their MC standard
    errors and the provenance needed to hand the table to the PDE solver:
    the descriptors of the map and of the payoff it was estimated for, and
    the stream layout its paths were drawn in (pathlab.STREAM_LAYOUT; empty
    for a table that records none)."""

    j: float
    taus: np.ndarray
    theta: np.ndarray
    stderr: np.ndarray
    n_paths: int
    seed: int
    map_descriptor: dict = field(default_factory=dict)
    payoff_descriptor: dict = field(default_factory=dict)
    stream: dict = field(default_factory=dict)

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        theta = np.asarray(self.theta, dtype=float)
        stderr = np.asarray(self.stderr, dtype=float)
        if not (taus.shape == theta.shape == stderr.shape) or taus.ndim != 1:
            raise ConfigError("taus, theta, stderr must be matching 1-d arrays")
        if len(taus) < 2 or np.any(np.diff(taus) <= 0):
            raise ConfigError("taus must be strictly increasing with >= 2 entries")
        if taus[0] != 0.0:
            raise ConfigError("the table must include the tau=0 anchor")
        if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(stderr))):
            raise ConfigError("non-finite entries in theta table")
        for name, arr in (("taus", taus), ("theta", theta), ("stderr", stderr)):
            object.__setattr__(self, name, arr)

    def covers(self, T: float) -> bool:
        return self.taus[-1] >= T - 1e-12 * max(1.0, abs(T))

    def interpolator(self):
        """Monotone piecewise-cubic interpolant of tau -> Theta; querying
        outside [0, max tau] raises (extrapolation is forbidden).

        The cubic is the PCHIP of Fritsch & Butland (1984), built and
        evaluated in the same floating-point steps as scipy's
        PchipInterpolator, so its values carry the same bits."""
        x = self.taus
        c0, c1, c2, c3 = _pchip_coefficients(x, self.theta)
        hi = x[-1]
        grace = hi * (1 + 1e-12) + 1e-15  # tolerate roundoff at the top edge

        def theta_of(tau):
            t = np.asarray(tau, dtype=float)
            t = np.where((t > hi) & (t <= grace), hi, t)
            if not np.all((t >= x[0]) & (t <= hi)):
                raise DomainError("Theta queried outside its tabulated range")
            # interval i with x[i] <= t < x[i+1], closed at the top edge
            i = np.minimum(np.searchsorted(x, t, side="right") - 1, len(x) - 2)
            s = t - x[i]
            ss = s * s
            out = c3[i] + c2[i] * s + c1[i] * ss + c0[i] * (ss * s)
            return float(out) if out.ndim == 0 else out

        return theta_of

    def save(self, path) -> None:
        """CSV body `tau,theta,stderr` (round-trip float repr) plus a
        JSON side file `<name>.meta.json` with j, n_paths, seed, the
        stream layout, and the descriptors of the map and the payoff the
        table was computed under."""
        path = Path(path)
        lines = ["tau,theta,stderr"]
        for t, v, s in zip(self.taus, self.theta, self.stderr):
            lines.append(f"{float(t)!r},{float(v)!r},{float(s)!r}")
        path.write_text("\n".join(lines) + "\n")
        meta = {"j": self.j, "n_paths": self.n_paths, "seed": self.seed,
                "map": self.map_descriptor, "payoff": self.payoff_descriptor,
                "stream": self.stream}
        Path(f"{path}.meta.json").write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "ThetaTable":
        path = Path(path)
        meta_path = Path(f"{path}.meta.json")
        texts = []
        for p in (path, meta_path):
            try:
                texts.append(p.read_text(encoding="utf-8"))
            except FileNotFoundError:
                raise ConfigError(f"theta table {path} or its .meta.json "
                                  f"side file missing") from None
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"theta table file {p} is unreadable: "
                                  f"{exc}") from None
        rows = texts[0].strip().splitlines()
        if not rows or rows[0].strip() != "tau,theta,stderr":
            raise ConfigError(f"{path}: expected header 'tau,theta,stderr'")
        data = np.empty((len(rows) - 1, 3))
        for i, row in enumerate(rows[1:]):
            cells = row.split(",")
            if len(cells) != 3:
                raise ConfigError(f"{path} line {i + 2}: expected 3 cells "
                                  f"tau,theta,stderr, got {len(cells)}")
            for k, (name, cell) in enumerate(zip(("tau", "theta", "stderr"), cells)):
                try:
                    data[i, k] = float(cell)
                except ValueError:
                    raise ConfigError(f"{path} line {i + 2}: {name} cell "
                                      f"{cell!r} is not a number") from None
        try:
            meta = json.loads(texts[1])
            j, n_paths, seed = float(meta["j"]), int(meta["n_paths"]), int(meta["seed"])
            map_descriptor = meta.get("map", {})
            payoff_descriptor = meta.get("payoff", {})
            stream = meta.get("stream", {})
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ConfigError(f"{meta_path}: malformed side file: {exc!r}") from None
        try:
            return cls(j=j, taus=data[:, 0], theta=data[:, 1], stderr=data[:, 2],
                       n_paths=n_paths, seed=seed, map_descriptor=map_descriptor,
                       payoff_descriptor=payoff_descriptor, stream=stream)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None


def _pchip_coefficients(x: np.ndarray, y: np.ndarray):
    """Coefficients (c0, c1, c2, c3) of the PCHIP through (x, y), so that
    on [x[i], x[i+1]] it is c3 + c2 s + c1 s^2 + c0 s^3 with s = t - x[i].

    Interior slopes are the Fritsch-Butland weighted harmonic mean of the
    neighbouring secants, zero where these change sign or vanish; the end
    slopes are the one-sided three-point estimates, limited to keep the
    shape; two nodes give the straight line.  Each expression is scipy's,
    in its order, as a test checks bit for bit."""
    h = np.diff(x)
    m = np.diff(y) / h
    if len(x) == 2:
        d = np.array([m[0], m[0]])
    else:
        d = np.zeros_like(y)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d[1:-1][~flat] = 1.0 / whmean[~flat]
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    # scipy sums the cubic from 0.0, which turns a value -0.0 into 0.0
    return t / h, (m - d[:-1]) / h - t, d[:-1], 0.0 + y[:-1]


def _pchip_end_slope(h0, h1, m0, m1) -> float:
    """One-sided three-point end slope, set to zero where its sign differs
    from the end secant's and capped at 3 m0 where the secants change
    sign."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _floor_grid(horizon: float, taus: np.ndarray, grid_resolution: int) -> TimeGrid:
    """Quadratically clustered step grid over [0, horizon], augmented so every
    requested tau is an exact node.  Clustering near 0 keeps the small-tau
    boundary estimates honest where Theta bends fastest."""
    base = TimeGrid.clustered(horizon, grid_resolution).nodes
    nodes = np.unique(np.concatenate([base, taus]))
    return TimeGrid(nodes)


def estimate_theta(f: SmoothMap, j: float, taus, payoff: PayoffSpec, n_paths: int,
                   grid_resolution: int, seed: int) -> ThetaTable:
    """Estimate Theta(tau, j) = E[h(f_j(X_tau))] for the reflected ensemble
    started exactly at the floor, f_j(x) = f(x + j), (chi_0, l_0) = (0, 0).
    The ensemble runs under f itself from (chi_0, l_0) = (0, j), which is
    the same process with the floor level carried in X.

    One ensemble serves every tau (common random numbers): paths are recorded
    at each tau node of a shared time grid.  The tau=0 value is the exact
    anchor h(f(j)) with zero standard error.  theta_pass splits it into its
    pass and its reduction.
    """
    spec, table_of = theta_pass(f, j, taus, payoff, n_paths, grid_resolution,
                                seed)
    return table_of(reflected_ensemble(f, spec.chi0, spec.l0, spec.grid,
                                       n_paths, seed, spec.record))


def theta_pass(f: SmoothMap, j: float, taus, payoff: PayoffSpec, n_paths: int,
               grid_resolution: int, seed: int):
    """estimate_theta in two parts: (its reflected pass, the reduction
    table_of), so that estimate_theta is table_of of the pass's outputs
    over n_paths paths of seed.  The arguments are checked here, before any
    path runs."""
    taus = np.unique(np.concatenate([[0.0], np.asarray(taus, dtype=float)]))
    if np.any(taus < 0):
        raise DomainError("tau values must be nonnegative")
    if taus[-1] <= 0:
        raise DomainError("need at least one positive tau")
    lo, hi = f.domain
    if not (lo < j < hi):
        raise DomainError(f"floor j={j} outside the domain of the map")
    try:
        t0 = float(f.pre(j))
    except Exception as exc:
        raise DomainError(f"map not regular at the floor j={j}: {exc}") from exc
    if not np.isfinite(t0):
        raise DomainError(
            f"T_f(j)={t0} at j={j}: the drift is singular at the floor, "
            "so the floor-started ensemble is not defined")

    grid = _floor_grid(float(taus[-1]), taus, grid_resolution)
    rec = [int(np.searchsorted(grid.nodes, t)) for t in taus]
    for r, t in zip(rec, taus):
        if abs(grid.nodes[r] - t) > 1e-12 * max(1.0, t):
            raise DomainError(f"tau={t} missing from the simulation grid")
    return (ReflectedPass(0.0, j, grid, rec),
            functools.partial(_theta_table, f, j, taus, payoff, n_paths, seed))


def _theta_table(f, j, taus, payoff, n_paths, seed, outputs) -> ThetaTable:
    """The ThetaTable of estimate_theta from its pass's outputs."""
    values = outputs[0]
    theta, stderr = np.empty(len(taus)), np.empty(len(taus))
    theta[0], stderr[0] = float(payoff(float(f(j)))), 0.0
    for k in range(1, len(taus)):
        theta[k], stderr[k] = _mean_se(payoff(f(values[:, k])))
    return ThetaTable(j=float(j), taus=taus, theta=theta, stderr=stderr,
                      n_paths=int(n_paths), seed=int(seed),
                      map_descriptor=f.descriptor,
                      payoff_descriptor=payoff.descriptor,
                      stream=STREAM_LAYOUT)


def _mean_se(h: np.ndarray) -> tuple[float, float]:
    return float(h.mean()), float(h.std(ddof=1) / np.sqrt(len(h)))


def price_and_decompose(f: SmoothMap, x0: float, j0: float, T: float,
                        payoff: PayoffSpec, n_paths: int, grid_resolution: int,
                        seed: int):
    """price_fundraiser_mc and decompose_phi_psi from one reflected pass
    from (x0 - j0, j0) on a uniform grid.  price_pass splits it into its
    pass and its reduction.

    Returns ((price, stderr), (phi, psi, (phi_stderr, psi_stderr))).
    """
    spec, split = price_pass(f, x0, j0, T, payoff, grid_resolution)
    return split(reflected_ensemble(f, spec.chi0, spec.l0, spec.grid, n_paths,
                                    seed, spec.record))


def price_pass(f: SmoothMap, x0: float, j0: float, T: float,
               payoff: PayoffSpec, grid_resolution: int):
    """price_and_decompose in two parts: (its reflected pass, the reduction
    split), so that price_and_decompose is split of the pass's outputs over
    its paths.  The arguments are checked here, before any path runs."""
    if not (0 < j0 <= x0):
        raise DomainError("need 0 < j0 <= x0")
    lo, _ = f.domain
    if not lo < j0:
        raise DomainError(f"floor j0={j0} outside the domain of the map")
    grid = TimeGrid.uniform(T, grid_resolution)
    return (ReflectedPass(x0 - j0, j0, grid, [grid.n_steps]),
            functools.partial(_price_split, f, payoff, x0 == j0))


def _price_split(f, payoff, at_floor: bool, outputs):
    """price_and_decompose's estimates from its pass's outputs; a start at
    the floor counts as contact."""
    values, contact, _ = outputs
    if at_floor:
        contact = np.ones_like(contact)
    h = payoff(f(values[:, 0]))
    phi, phi_se = _mean_se(np.where(contact, 0.0, h))
    psi, psi_se = _mean_se(np.where(contact, h, 0.0))
    return _mean_se(h), (phi, psi, (phi_se, psi_se))


def price_fundraiser_mc(f: SmoothMap, x0: float, j0: float, T: float,
                        payoff: PayoffSpec, n_paths: int, grid_resolution: int,
                        seed: int) -> tuple[float, float]:
    """MC mean of h(f(X_T)) over reflected paths started at (x0 - j0, j0).

    The paths reflect on the exact Brownian-bridge minimum of each step
    (see reflected_ensemble), so no sub-step excursion below the floor is
    lost.  Returns (price, stderr).
    """
    return price_and_decompose(f, x0, j0, T, payoff, n_paths,
                               grid_resolution, seed)[0]


def decompose_phi_psi(f: SmoothMap, x0: float, j0: float, T: float,
                      payoff: PayoffSpec, n_paths: int, seed: int,
                      grid_resolution: int = 2048):
    """Split the fundraiser value by floor contact before maturity.

    phi averages h(f(X_T)) over paths that never touch the floor (no
    reflection increment up to T), psi over the complement; on a shared
    ensemble phi + psi reproduces price_fundraiser_mc up to summation order.
    Contact is read off the Brownian-bridge minimum of each step, so a path
    that dips below the floor between two nodes and returns counts as
    touching it.  Starting exactly at the floor (x0 == j0) counts as
    immediate contact.

    Returns (phi, psi, (phi_stderr, psi_stderr)).
    """
    return price_and_decompose(f, x0, j0, T, payoff, n_paths,
                               grid_resolution, seed)[1]
