"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded only from here: the tracer swaps public functions of the
bubblepde modules for timing wrappers while a traced operation runs, and puts
the originals back afterwards.  Nothing under ``src/`` knows about it.  Each
span is ``(id, op, name, parent, start, end, attrs)``; ``op`` is the index of
the benchmark operation the span belongs to (the request identifier), and
``parent`` is the id of the enclosing span.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import inspect
import json
import statistics
import time
from collections import defaultdict

import bubblepde
from bubblepde import (boundary, cli, closedform, pathlab, pdesolve,
                       smoothmaps)

_MODULES = (bubblepde, cli, boundary, pathlab, pdesolve, closedform,
            smoothmaps)


def _path_steps(args) -> dict:
    return {"path_steps": int(args["n_paths"]) * int(args["grid"].n_steps)}


def _reflected_pass(args) -> dict:
    """Work count plus a digest of everything that determines the pass."""
    blob = json.dumps([args["f"].descriptor, float(args["chi0"]),
                       float(args["l0"]),
                       hashlib.sha256(args["grid"].nodes.tobytes()).hexdigest(),
                       int(args["n_paths"]), int(args["seed"]),
                       sorted(int(r) for r in args["record"])], sort_keys=True)
    return dict(_path_steps(args), key=hashlib.sha256(blob.encode()).hexdigest())


def _solve_size(args) -> dict:
    # the CLI always passes both grids
    steps = args["times"].n_steps
    return {"steps": steps, "node_steps": steps * (args["grid"].m + 1)}


# (module that defines it, attribute, span name, attributes from arguments)
_TRACED = [
    (cli, "main", "cli.main", None),
    (boundary, "price_fundraiser_mc", "boundary.price_fundraiser_mc", None),
    (boundary, "decompose_phi_psi", "boundary.decompose_phi_psi", None),
    (boundary, "estimate_theta", "boundary.estimate_theta", None),
    (pathlab, "reflected_ensemble", "pathlab.reflected_ensemble",
     _reflected_pass),
    (pathlab, "drifted_ensemble", "pathlab.drifted_ensemble", _path_steps),
    (pathlab, "bessel_dual_ensemble", "pathlab.bessel_dual_ensemble",
     _path_steps),
    (pathlab, "change_of_measure_expectation", "pathlab.change_of_measure",
     _path_steps),
    (smoothmaps, "schwarzian_process", "smoothmaps.schwarzian_process", None),
    (pdesolve, "solve", "pdesolve.solve", _solve_size),
    (pdesolve, "corner_defect", "pdesolve.corner_defect", None),
] + [(closedform, name, "closedform.oracle", None) for name in (
    "bond_bm", "forward_bm_investor", "forward_bm_fundraiser",
    "delta_bm_fundraiser", "forward_recip_bessel_investor",
    "forward_recip_bessel_fundraiser", "theta_recip_bessel_forward")]

# ensembles whose drift evaluators d1/d2 are wrapped on the way in
_DRIFT_ENSEMBLES = {"pathlab.reflected_ensemble", "pathlab.drifted_ensemble"}


class Tracer:
    """Collects spans for the operations run inside ``operation(k)``."""

    def __init__(self):
        self.spans: list = []
        self.ops: set[int] = set()
        self._stack: list[int] = []
        self._op: int | None = None

    def _run(self, name, fn, args, kwargs, attrs=None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, self._op, name, parent, t0, t1, attrs)

    def _leaf(self, name, fn):
        def traced(*args, **kwargs):
            return self._run(name, fn, args, kwargs)
        return traced

    def _wrap(self, name, fn, describe):
        if describe is None:
            return functools.wraps(fn)(self._leaf(name, fn))
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            attrs = describe(bound.arguments)
            if name in _DRIFT_ENSEMBLES:
                f = bound.arguments["f"]
                bound.arguments["f"] = dataclasses.replace(
                    f, d1=self._leaf("smoothmaps.drift_eval", f.d1),
                    d2=self._leaf("smoothmaps.drift_eval", f.d2))
            return self._run(name, fn, bound.args, bound.kwargs, attrs)

        return traced

    @contextlib.contextmanager
    def operation(self, op: int):
        """Trace one benchmark operation: patch, run the body, restore."""
        saved = []
        for home, attr, name, describe in _TRACED:
            original = getattr(home, attr)
            wrapped = self._wrap(name, original, describe)
            for mod in _MODULES:
                if getattr(mod, attr, None) is original:
                    saved.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
        interpolator = boundary.ThetaTable.interpolator

        def traced_interpolator(table):
            return self._leaf("pdesolve.theta_interp", interpolator(table))

        boundary.ThetaTable.interpolator = traced_interpolator
        self._op = op
        self.ops.add(op)
        try:
            yield
        finally:
            self._op = None
            boundary.ThetaTable.interpolator = interpolator
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def dump(self, path) -> None:
        """Write every span, one JSON object a line."""
        with open(path, "w") as fh:
            for sid, op, name, parent, t0, t1, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "op": op, "name": name,
                                     "parent": parent, "start": t0,
                                     "end": t1, "attrs": attrs}) + "\n")

    def layer_metrics(self) -> dict:
        """Per-operation layer figures as name -> (value, unit): self times
        (span minus the part its children cover), call and work counts, and
        unit costs."""
        child_time = defaultdict(float)
        for _sid, _op, _name, parent, t0, t1, _a in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        total = defaultdict(float)
        selft = defaultdict(float)
        calls = defaultdict(int)
        work = defaultdict(int)
        passes = defaultdict(list)
        for sid, op, name, _p, t0, t1, attrs in self.spans:
            total[name] += t1 - t0
            selft[name] += t1 - t0 - child_time[sid]
            calls[name] += 1
            for k, v in (attrs or {}).items():
                if k == "key":
                    passes[op].append(v)
                else:
                    work[(name, k)] += v
        n_ops = max(1, len(self.ops))

        def per_op(table, name, unit):
            return table[name] / n_ops, unit

        def rate(scale, seconds, count, unit):
            return (scale * seconds / count if count else 0.0), unit

        reflected_steps = work[("pathlab.reflected_ensemble", "path_steps")]
        ratios = [len(set(keys)) / len(keys) for keys in passes.values()]
        return {
            "pathlab.reflected_ensemble_s": per_op(selft, "pathlab.reflected_ensemble", "s"),
            "pathlab.drifted_ensemble_s": per_op(selft, "pathlab.drifted_ensemble", "s"),
            "pathlab.bessel_dual_ensemble_s": per_op(selft, "pathlab.bessel_dual_ensemble", "s"),
            "pathlab.change_of_measure_s": per_op(selft, "pathlab.change_of_measure", "s"),
            "pathlab.path_steps": (sum(v for (_n, k), v in work.items()
                                       if k == "path_steps") / n_ops, "count"),
            "pathlab.ns_per_path_step": rate(1e9, total["pathlab.reflected_ensemble"],
                                             reflected_steps, "ns"),
            "smoothmaps.drift_eval_s": per_op(total, "smoothmaps.drift_eval", "s"),
            "smoothmaps.drift_eval_calls": per_op(calls, "smoothmaps.drift_eval", "count"),
            "smoothmaps.schwarzian_process_s": per_op(total, "smoothmaps.schwarzian_process", "s"),
            "boundary.price_fundraiser_mc_s": per_op(selft, "boundary.price_fundraiser_mc", "s"),
            "boundary.decompose_phi_psi_s": per_op(selft, "boundary.decompose_phi_psi", "s"),
            "boundary.estimate_theta_s": per_op(selft, "boundary.estimate_theta", "s"),
            "boundary.reflected_passes": per_op(calls, "pathlab.reflected_ensemble", "count"),
            "boundary.unique_pass_ratio": (statistics.fmean(ratios) if ratios else 0.0,
                                           "frac"),
            "pdesolve.solve_s": per_op(selft, "pdesolve.solve", "s"),
            "pdesolve.solves": per_op(calls, "pdesolve.solve", "count"),
            "pdesolve.us_per_time_step": rate(1e6, total["pdesolve.solve"],
                                              work[("pdesolve.solve", "steps")], "us"),
            "pdesolve.ns_per_node_step": rate(1e9, total["pdesolve.solve"],
                                              work[("pdesolve.solve", "node_steps")], "ns"),
            "pdesolve.theta_interp_s": per_op(total, "pdesolve.theta_interp", "s"),
            "pdesolve.theta_interp_calls": per_op(calls, "pdesolve.theta_interp", "count"),
            "pdesolve.corner_defect_s": per_op(selft, "pdesolve.corner_defect", "s"),
            "closedform.oracle_s": per_op(selft, "closedform.oracle", "s"),
            "closedform.oracle_calls": per_op(calls, "closedform.oracle", "count"),
            "cli.self_s": per_op(selft, "cli.main", "s"),
        }
