#!/usr/bin/env python3
"""Benchmark for bubblepde: one workload, one closed-loop caller, one result.

    python3 perfbench/run.py --workload price_default --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the package from ``src/``.  The
workload seed generates every input.  Set-up runs SETUP_REPEATS times in fresh
interpreters and reports the median.  Then operations run back to back, each
starting when the previous one returns, until ``--seconds`` have passed (at
least MIN_OPS operations).  Every output is checked; a failed check counts
the operation as failed.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced operations and reports per-layer
metrics from the traced ones.  The last line of stdout is the result as JSON.
Working files go to ``perfbench/out/``.  README.md explains the workloads and
metrics.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads: the process uses at most 2 cores.
BLAS_THREADS = "2"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("price_default", "scheme_sweep", "oracle_suite")
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60
MIN_OPS = 2
LADDER_PATHS = 8000


def use_source_tree() -> None:
    if not (SRC / "bubblepde" / "__init__.py").is_file():
        sys.exit(f"bubblepde sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


def setup_child(args) -> None:
    """Fresh-interpreter set-up: import the package, generate the inputs."""
    t0 = time.perf_counter()
    use_source_tree()
    from workloads import WORKLOADS
    WORKLOADS[args.workload](Path(args.workdir), args.seed).setup()
    print(repr(time.perf_counter() - t0))


def measure_setup(args, workdir: Path) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0",
             "--workdir", str(workdir)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"set-up failed with exit code {proc.returncode}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def environment(seed: int) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = {}
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                             timeout=10).stdout
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0].endswith("CACHE_SIZE"):
                caches[parts[0]] = int(parts[1])
    return {"nproc": os.cpu_count(), "cpu": cpu, "caches_bytes": caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
            "workload_seed": seed}


def keep_going(op_seconds: list, elapsed: float, window: float) -> bool:
    """Start another operation while its expected midpoint falls inside the
    window, so a run lasts about ``window`` seconds whatever the op size."""
    if len(op_seconds) < MIN_OPS:
        return True
    return elapsed + statistics.median(op_seconds) / 2 < window


def run_op(wl, k: int):
    from workloads import OpResult
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return wl.op(k)
    except Exception as exc:  # one broken operation must not end the run
        traceback.print_exc()
        return OpResult(violations=[f"raised {type(exc).__name__}: {exc}"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_only:
        setup_child(args)
        return 0

    use_source_tree()
    workdir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    setup_times = measure_setup(args, workdir)

    from spans import Tracer
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](workdir, args.seed)
    wl.load()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            wl.warmup()
    except Exception:  # the measured operations record the failure
        traceback.print_exc()

    tracer = Tracer() if args.trace else None
    results = []  # (seconds, traced, OpResult)
    t_start = time.perf_counter()
    while keep_going([dt for dt, _, _ in results],
                     time.perf_counter() - t_start, args.seconds):
        k = len(results)
        traced = tracer is not None and k % 2 == 1
        t0 = time.perf_counter()
        with tracer.operation(k) if traced else contextlib.nullcontext():
            res = run_op(wl, k)
        results.append((time.perf_counter() - t0, traced, res))

    first_body = next((r.body for _, _, r in results if r.body), None)
    for k, (dt, traced, res) in enumerate(results):
        if res.body != first_body:
            res.violations.append("CSV body differs from the first operation's")
        print(f"op {k:3d}  {dt:8.3f} s  traced={int(traced)}  "
              f"violations={len(res.violations)}")
        for v in res.violations:
            print(f"    violation: {v}")
    for note in results[0][2].notes:
        print(f"  {note}")

    failed = sum(1 for _, _, r in results if r.violations)
    untraced = [dt for dt, traced, _ in results if not traced]
    op_s = statistics.median(untraced)
    if tracer is None:
        gaps = [r.gap for _, _, r in results if math.isfinite(r.gap)]
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "op_s": (op_s, "s"),
            "ok_frac": (1.0 - failed / len(results), "frac"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
            # 1.0 when no operation produced a usable answer
            "oracle_gap": (statistics.median(gaps) if gaps else 1.0, "1"),
        }
    else:
        traced_s = statistics.median(dt for dt, t, _ in results if t)
        metrics = tracer.layer_metrics()
        metrics["bench.trace_overhead_frac"] = ((traced_s - op_s) / op_s, "frac")
        tracer.dump(workdir / "spans.jsonl")
        if args.workload == "oracle_suite":
            ladder = wl.ladder(LADDER_PATHS)
            (workdir / "ladder.json").write_text(json.dumps(ladder, indent=2))
            print(f"error-vs-cost ladder ({LADDER_PATHS} paths, not gated):")
            for row in ladder:
                print(f"  {row['part']:28s} steps={row['steps']:5d} "
                      f"|z|={row['abs_z']:7.3f} seconds={row['seconds']:.3f}")

    print(f"{args.workload}: {len(results)} operations, {failed} failed; "
          f"op_s is the median of {len(untraced)} untraced operations")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    env = environment(args.seed)
    print("environment " + json.dumps(env, sort_keys=True))
    result = {"correct": failed == 0, "attempted": len(results),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    ops = [{"seconds": dt, "traced": traced, "violations": r.violations}
           for dt, traced, r in results]
    (workdir / "result.json").write_text(json.dumps(
        dict(result, environment=env, setup_times_s=setup_times,
             operations=ops),
        indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
