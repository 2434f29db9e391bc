"""Benchmark of chargepair.

    python3 perfbench/run.py --workload bethe --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --seed 1            # all workloads, one process each

Run from any directory; the package is imported from ``src`` next to this
directory, never from an installed copy.  The metrics, their units and why
each workload was chosen are read from ``BENCHMARK.json`` at the root.  Each
workload runs in its own process with its cells in series.  A run makes one
untimed warm-up pass, then at least five timed whole passes over its cells,
then more while another pass still fits in ``--seconds``; the
``bethe.state_energy`` cache is cleared before every pass, and the seed
shuffles the order of independent cells on every pass.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median wall time of fresh processes that import the package
  (numpy and scipy included) and build the workload's cells;
* ``wall_s``: the time of one pass, first cell start to last cell end, with
  every cell at its fastest latency over the timed passes (the sum of those
  latencies);
* ``cell_tail_s``: the fastest latency of the slowest cell;
* ``peak_rss_mb``: peak resident memory of this process.

A cell does the same work in every pass, so its latencies differ only by
what the shared host takes from it, and that only ever adds time.  On a
two-core VM the host's speed drifts by a fifth or more over tens of seconds,
so a median over one run moves with the drift; the fastest of twenty or more
repetitions of a short cell moves far less.  The same reason rules out a
pooled percentile of cell latency with ten cells above it.

Also printed, outside the result object: ``cell_p50_s``, the median over
cells of their fastest latency.  It is left out of the bounded metrics:
the median cells are checks of a few milliseconds, whose latency varies by a
quarter or more between runs.  Cells that raise or miss their reference are
counted in ``failed`` and named on stdout, with ``fail_frac`` = failed /
attempted.

``--trace 1`` runs one untraced warm-up pass, then one pass with every module
entry point wrapped (see ``tracing.py``), and reports the per-layer metrics;
the spans go to ``perfbench/out/``.  ``trace.overhead_s`` is the calibrated
cost of one wrapper times the number of spans recorded.  The last stdout
line is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; machine and build facts are printed on the line
``facts ...``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 5
MIN_PASSES = 5

SETUP_PROBE = ("import sys; sys.path[:0] = [{bench!r}, {src!r}]; "
               "import workloads; workloads.build({name!r}, {seed})")


def _load_spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        sys.exit(f"benchmark: cannot read {ROOT / 'BENCHMARK.json'}: {exc}")


def _import_program():
    sys.path[:0] = [str(BENCH_DIR), str(SRC)]
    try:
        import chargepair
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import chargepair from {SRC}: {exc}")
    if Path(chargepair.__file__).resolve().parent != SRC / "chargepair":
        sys.exit(f"benchmark: chargepair resolved to {chargepair.__file__}, not under {SRC}")


# --- machine and build facts ------------------------------------------------


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS the process has loaded (numpy and
    scipy each bundle one)."""
    out = {}
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return out
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    is_repo = (ROOT / ".git").exists()
    status = _git("status", "--porcelain") if is_repo else None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git("rev-parse", "HEAD") if is_repo else None,
        "dirty": None if status is None else bool(status),
        "seed": seed,
    }


# --- measurement --------------------------------------------------------------


@dataclass
class Passes:
    #: cell name -> latency, for each pass
    latencies: List[Dict[str, float]] = field(default_factory=list)
    walls: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    def fastest(self) -> Dict[str, float]:
        """Cell name -> its lowest latency over the passes."""
        return {name: min(p[name] for p in self.latencies) for name in self.latencies[0]}


def run_passes(workload, seed: int, seconds: float, clear_cache, tracer=None,
               min_passes: int = MIN_PASSES) -> Passes:
    """At least ``min_passes`` whole passes over the cells, then more while
    another pass fits in ``seconds``."""
    rng = random.Random(seed)
    out = Passes()
    start = time.perf_counter()
    while True:
        clear_cache()
        groups = list(workload.groups)
        rng.shuffle(groups)
        latencies = {}
        t_pass = time.perf_counter()
        for cell in (c for g in groups for c in g):
            t0 = time.perf_counter()
            try:
                with tracer.cell_span(cell.name) if tracer else contextlib.nullcontext():
                    cell.run()
            except Exception as exc:  # a failing cell is counted and named; the run goes on
                out.failures.append(f"{cell.name}: {type(exc).__name__}: {exc}")
            latencies[cell.name] = time.perf_counter() - t0
        now = time.perf_counter()
        out.walls.append(now - t_pass)
        out.latencies.append(latencies)
        if len(out.walls) >= min_passes and now - start + out.walls[-1] > seconds:
            return out


def setup_seconds(name: str, seed: int) -> float:
    code = SETUP_PROBE.format(bench=str(BENCH_DIR), src=str(SRC), name=name, seed=seed)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- one workload ---------------------------------------------------------------


def run_workload(name: str, spec: dict, seed: int, seconds: float, traced: bool) -> int:
    import workloads
    from chargepair import bethe

    state_energy_cache = bethe.state_energy
    facts = machine_facts(seed)
    print("facts " + json.dumps(facts, sort_keys=True))
    setup = None if traced else setup_seconds(name, seed)
    workload = workloads.build(name, seed)
    n_cells = sum(len(g) for g in workload.groups)
    why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
    print(f"workload {name}: {n_cells} cells; {why}")

    warm = run_passes(workload, seed, 0, state_energy_cache.cache_clear, min_passes=1)
    if not traced:
        run = run_passes(workload, seed, seconds, state_energy_cache.cache_clear)
        fastest = run.fastest()
        slowest = max(fastest, key=fastest.get)
        values = {
            "setup_s": setup,
            "wall_s": sum(fastest.values()),
            "cell_tail_s": fastest[slowest],
            "peak_rss_mb": peak_rss_mb(),
        }
        print(f"{len(run.walls)} timed passes after an untimed warm-up pass; setup_s is the "
              f"median of {SETUP_REPEATS} fresh processes")
        print(f"pass walls {run.walls}")
        print(f"fastest latency by cell {json.dumps(fastest)}; slowest cell {slowest}")
        print(f"cell_p50_s {statistics.median_low(fastest.values())} s (not bounded)")
        declared = spec["end_to_end"]
    else:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            run = run_passes(workload, seed, 0, state_energy_cache.cache_clear, tracer,
                             min_passes=1)
        finally:
            tracer.uninstall()
        info = state_energy_cache.cache_info()
        tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.json")
        fired = {s["name"] for s in tracer.spans}
        silent = [s for s in workload.expected_spans if s not in fired]
        if silent:
            sys.exit(f"benchmark: wrappers that never fired on {name}: {', '.join(silent)}")
        values = tracing.layer_metrics(tracer.spans, info.hits, info.misses)
        per_span = tracer.cost_per_span()
        values["trace.overhead_s"] = per_span * len(tracer.spans)
        print(f"bethe.state_energy: {info.hits} hits, {info.misses} misses")
        print(f"traced pass {run.walls[0]:.3f} s after an untraced warm-up pass "
              f"{warm.walls[0]:.3f} s; {len(tracer.spans)} spans at {per_span * 1e6:.2f} us")
        print("self time by layer: " + ", ".join(
            f"{k} {v:.3f} s" for k, v in tracing.self_time_by_layer(tracer.spans).items()))
        declared = spec["per_layer"]

    run.failures += warm.failures
    run.latencies += warm.latencies
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        sys.exit(f"benchmark: metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}")
    for failure in run.failures:
        print(f"FAIL {failure}")
    attempted = sum(len(p) for p in run.latencies)
    print(f"fail_frac {len(run.failures)}/{attempted}")
    for k, v in values.items():
        print(f"metric {k} {v} {units[k]}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    spec = _load_spec()
    _import_program()
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.NAMES,
                   help="one workload; without it every workload runs, each in its own process")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload:
        return run_workload(args.workload, spec, args.seed, args.seconds, bool(args.trace))
    worst = 0
    for name in workloads.NAMES:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        worst = max(worst, done.returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
