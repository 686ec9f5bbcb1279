"""Benchmark of the ngn package: one workload per process, checked outputs.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each
    python3 perfbench/compare.py perfbench/results/A perfbench/results/B

Run from the root of a checkout: the package is imported from ``src/``
next to this directory, never from an installed copy. A run sets up its
workload, runs whole units of steady-state work until ``--seconds`` have
passed (at least two units), checks the outputs, then sets up twice more
(``setup_s`` is the median set-up time). The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones. Every run also writes a results file with a manifest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

N_SETUPS = 3      # set-ups per run; setup_s is the median of the untraced ones
MIN_UNITS = 2     # units per run at least, however short --seconds is
TRACED_SETUP = 1  # index of the traced set-up in a traced run


def _import_package():
    """Import ngn from this checkout's src/, or exit without a result."""
    if not (SRC / "ngn" / "__init__.py").is_file():
        sys.exit(f"error: no ngn package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ngn

    if Path(ngn.__file__).resolve().parent != (SRC / "ngn").resolve():
        sys.exit(f"error: ngn was imported from {ngn.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------


def _git_sha() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas() -> dict:
    """BLAS library and its thread count, asked of the loaded library."""
    import ctypes

    import numpy as np

    info: dict = {"threads": None, "library": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = deps.get("name")
    except (KeyError, TypeError, ValueError):
        pass
    # numpy's wheels ship the BLAS they were built against beside the package;
    # loading it again by path returns the copy already in the process
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info.update(library=lib.name, threads=int(fn()))
                return info
    return info


def manifest(args, started: str) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": _blas(),
        "thread_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": started,
    }


# ---------------------------------------------------------------------------
# one workload in this process
# ---------------------------------------------------------------------------


def _same(a, b) -> bool:
    """Bit-for-bit equality of nested unit outputs."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if hasattr(a, "dtype"):
        return getattr(b, "dtype", None) == a.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return type(a) is type(b) and a == b


def run_workload(args) -> dict:
    from tracer import Tracer
    from workloads import WORKLOADS

    args.results.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.results)
    tracer = Tracer() if args.trace else None
    setup_seconds, traced_setup_seconds = [], []

    def timed_setup(traced: bool):
        if traced:
            tracer.phase = "setup"
        t0 = time.perf_counter()
        state = workload.setup()
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.phase = None
        (traced_setup_seconds if traced else setup_seconds).append(elapsed)
        return state

    try:
        if tracer:
            tracer.install()
        state = timed_setup(False)
        # (seconds, items, own items) of every unit; only the last unit is
        # kept whole, so that outputs do not pile up in the peak memory
        timings, traced_seconds, checks = [], [], []
        start = time.perf_counter()
        index = 0
        while index < MIN_UNITS or time.perf_counter() - start < args.seconds:
            last = None  # free the previous output before the next unit runs
            last = workload.unit(state, index)
            timings.append((last.seconds, last.items, last.items if last.own_items is None else last.own_items))
            checks += last.checks
            if tracer:
                tracer.phase = "steady"
                traced = workload.unit(state, index)
                tracer.phase = None
                traced_seconds.append(traced.seconds)
                checks += traced.checks
                checks.append((f"unit {index}: traced output bit-identical", _same(last.output, traced.output)))
                traced = None
            index += 1
        # the peak is read before the repeated set-ups, whose freed memory
        # the allocator may not hand back
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks += workload.final_checks(state, last)
        state = None
        for i in range(1, N_SETUPS):
            timed_setup(tracer is not None and i == TRACED_SETUP)
    finally:
        if tracer:
            tracer.uninstall()
        workload.close()

    rates = [items / seconds for seconds, items, _ in timings]
    own_rates = [own / seconds for seconds, _, own in timings]
    failures = [name for name, ok in checks if not ok]
    result = {
        "workload": workload.name,
        "correct": not failures,
        "attempted": len(checks),
        "failed": len(failures),
        "failures": failures,
        "checks": [[name, bool(ok)] for name, ok in checks],
        "detail": {
            "throughput": {"name": workload.own_metric, "value": statistics.median(own_rates),
                           "unit": f"{workload.own_item or workload.item}/s"},
            "unit_seconds": [seconds for seconds, _, _ in timings],
            "unit_items": [items for _, items, _ in timings],
            "setup_seconds": setup_seconds,
        },
    }
    if tracer:
        steady = statistics.median(traced_seconds) / statistics.median(t[0] for t in timings)
        result["overhead"] = {
            "steady": steady - 1.0,
            "setup": traced_setup_seconds[0] / statistics.median(setup_seconds) - 1.0,
            "traced_unit_seconds": traced_seconds,
            "traced_setup_seconds": traced_setup_seconds,
        }
        metrics = tracer.metrics(n_setups=len(traced_setup_seconds), n_units=len(traced_seconds))
    else:
        metrics = {
            "items_per_s": (statistics.median(rates), "items/s"),
            "setup_s": (statistics.median(setup_seconds), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


def _print_summary(result: dict) -> None:
    detail = result["detail"]
    own = detail["throughput"]
    print(f"workload {result['workload']}: {len(detail['unit_seconds'])} units, "
          f"{own['name']} {own['value']:.4g} {own['unit']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    if "overhead" in result:
        o = result["overhead"]
        print(f"  tracing overhead: steady state {o['steady']:+.1%}, set-up {o['setup']:+.1%}")
    print(f"  operations: {result['attempted']} attempted, {result['failed']} failed")
    for name in result["failures"]:
        print(f"  FAILED: {name}")


# ---------------------------------------------------------------------------
# every workload, each in its own process
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    from workloads import WORKLOADS

    summary = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--results", str(args.results)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=HERE / "results",
                        help="directory for results files (default: perfbench/results)")
    args = parser.parse_args(argv)
    _import_package()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    args.results = args.results.resolve()
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    result = run_workload(args)
    result["manifest"] = manifest(args, started)
    path = args.results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    path.write_text(json.dumps(result, indent=1))
    _print_summary(result)
    print(f"results: {path}")
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
