"""gkw benchmark: one workload per run, verdicts checked, metrics printed.

    python3 perfbench/run.py --workload catalog-sweep --seed 7 --seconds 10 --trace 0

Run from the repository root (or any copy of it holding ``src/gkw``).  With
``--trace 0`` the run measures the workload's end-to-end metrics with
tracing off; with ``--trace 1`` it makes one untraced and one traced pass
and reports the per-layer metrics, the tracing overhead, and writes the
spans to ``perfbench/out/``.  Every metric is printed by name and unit; the
last line of standard output is one json object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The metric names and units are
those of ``BENCHMARK.json``.

An operation counts as failed when it raised, returned a verdict other
than the golden one (``perfbench/golden``), or gave different bytes when
repeated with the same inputs.  ``--tiny`` shrinks every workload for the
smoke check (``perfbench/smoke.py``); goldens do not apply to it.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
OUT = HERE / "out"

MACHINE_NOTE = ("nothing at machine level (caches, cgroups, CPU frequency) "
                "was changed for these measurements")
SETUP_REPS = 5


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


# -- environment ------------------------------------------------------------------

def _blas_threads():
    """Thread count of the BLAS numpy loaded, asked from the library itself
    when it exports a getter; else the environment variable in force."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "blas" in line.lower() and ".so" in line})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            getter = getattr(lib, sym, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return f"{getter()} ({sym})"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return f"{os.environ[var]} ({var})"
    return "unknown"


def yardstick_s():
    """Median of three timings of a fixed pure-Python Fraction loop.  Not a
    gkw metric: it shows how fast the machine ran around the measurement,
    so that a slow run can be told from a slow machine."""
    from fractions import Fraction
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 30000):
            acc += Fraction(1, i % 97 + 1)
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def environment():
    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "machine": MACHINE_NOTE,
    }


# -- checks -----------------------------------------------------------------------

class Checker:
    """Golden verdicts and determinism: the same key must give the same bytes."""

    def __init__(self, golden):
        self.golden = golden
        self.seen = {}
        self.golden_checked = 0
        self.repeats = 0

    def problems(self, outcome):
        out = []
        previous = self.seen.setdefault(outcome.key, outcome.payload)
        if previous is not outcome.payload:
            self.repeats += 1
            if previous != outcome.payload:
                out.append("not deterministic: bytes differ from an earlier run")
        if self.golden is not None and outcome.key in self.golden:
            self.golden_checked += 1
            if outcome.skeleton != self.golden[outcome.key]:
                out.append("verdict differs from the golden one")
        return out


def load_golden(wl, seed, tiny):
    path = GOLDEN / f"{wl.name}.json"
    if tiny or not path.is_file():
        return None
    doc = json.loads(path.read_text())
    if doc["seed_independent"] or doc["seed"] == seed:
        return doc["ops"]
    return None


class Tally:
    def __init__(self, checker):
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.exit_codes = Counter()
        self.errors = []

    def attempt(self, wl, op):
        """Run one operation; returns its Outcome, or None if it failed."""
        self.attempted += 1
        try:
            outcome = wl.run(op)
        except Exception as exc:  # a raising operation is a counted failure
            self.failed += 1
            self.errors.append(f"{op!r}: raised {exc!r}")
            traceback.print_exc(file=sys.stderr)
            return None
        self.exit_codes[outcome.exit_code] += 1
        problems = self.checker.problems(outcome)
        if problems:
            self.failed += 1
            self.errors.extend(f"{outcome.key}: {p}" for p in problems)
            return None
        return outcome


# -- the two kinds of run -----------------------------------------------------------

def build_cases(cases):
    from gkw.catalog import build_case
    times = {}
    for name in cases:
        t0 = time.perf_counter()
        build_case(name)
        times[name] = time.perf_counter() - t0
    return times


def setup_times(cases, reps):
    """``import gkw`` plus the builds, each time in a fresh process."""
    out = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *cases],
                              cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def measured_run(wl, seed, seconds, tally, setup_reps):
    """Cycle through the workload's operations for ``seconds``.  Repeated
    operations are checked for determinism; if none repeated, the first
    one runs once more, untimed."""
    build_cases(wl.cases())
    setups = setup_times(wl.cases(), setup_reps)
    ops = wl.prepare(seed)
    before = yardstick_s()
    timed = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < wl.min_ops or time.perf_counter() < deadline:
        outcome = tally.attempt(wl, ops[i % len(ops)])
        if outcome is not None:
            timed.append(outcome)
        i += 1
    if tally.checker.repeats == 0:
        tally.attempt(wl, ops[0])
    if not timed:
        raise RuntimeError("every timed operation failed")
    print(f"machine yardstick (fixed Fraction loop): {before:.4f} s before, "
          f"{yardstick_s():.4f} s after the timed loop")
    print(f"timed operations: {len(timed)} of {i}; setup_s samples: "
          + ", ".join(f"{t:.4f}" for t in setups))
    for name, (value, unit) in wl.reported(timed).items():
        print(f"workload metric {name} = {value:.6g} {unit}")
    return {
        "setup_s": statistics.median(setups),
        "verdict_s": wl.verdict_s(timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(wl, seed, tally):
    """One untraced and one traced pass (set-up plus the workload's
    operations); per-layer metrics come from the traced pass."""
    import gkw.catalog
    from tracer import Tracer, install, layer_metrics

    # the first builds pay one-time costs; rebuild so both passes start warm
    original_build = gkw.catalog.build_case
    build_cases(wl.cases())
    original_build.cache_clear()
    ops = wl.prepare(seed)[:wl.min_ops]
    t0 = time.perf_counter()
    build_times = build_cases(wl.cases())
    plain = [tally.attempt(wl, op) for op in ops]
    untraced = time.perf_counter() - t0

    tracer = Tracer()
    install(tracer)
    try:
        original_build.cache_clear()
        t2 = time.perf_counter()
        with tracer.span("bench.setup"):
            build_cases(wl.cases())
        with tracer.span("bench.ops"):
            for op in ops:
                tally.attempt(wl, op)
        traced = time.perf_counter() - t2
    finally:
        tracer.uninstall()

    metrics = layer_metrics(tracer)
    from gkw.catalog import catalog_names
    for name in catalog_names():
        metrics[f"catalog.build_case.{name}_s"] = build_times.get(name, 0.0)
    done = [o for o in plain if o is not None]
    for N in (8, 15, 24, 30):
        metrics[f"deformation.mc.n{N}_s"] = sum(o.timings.get(f"mc.n{N}_s", 0.0)
                                                for o in done)
    for code in (0, 1, 4):
        metrics[f"report.exit_code.{code}"] = tally.exit_codes[code]
    metrics["trace.overhead_s"] = traced - untraced
    print(f"traced pass {traced:.4f} s, untraced pass {untraced:.4f} s")
    for name, (value, unit) in (wl.reported(done).items() if len(done) == len(plain)
                                else ()):
        print(f"workload metric {name} = {value:.6g} {unit} (untraced pass)")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{wl.name}.jsonl"
    tracer.write(path, {"workload": wl.name, "seed": seed,
                        "columns": ["id", "parent", "name", "start_us", "end_us",
                                    "label"]})
    print(f"spans written to {path.relative_to(ROOT)}")
    return metrics


def main(argv=None):
    if not (SRC / "gkw" / "__init__.py").is_file():
        return _fail(f"no gkw sources under {SRC}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return _fail("BENCHMARK.json is missing")
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    from workloads import DEFAULT_SEED, WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = p.parse_args(argv)

    import gkw
    if Path(gkw.__file__).resolve().parent != (SRC / "gkw").resolve():
        return _fail(f"imported gkw from {gkw.__file__}, not from {SRC}")

    wl = WORKLOADS[args.workload](tiny=args.tiny)
    print("environment: " + json.dumps(environment()))
    print(f"workload {wl.name}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}, "
          "closed loop with one caller")
    tally = Tally(Checker(load_golden(wl, args.seed, args.tiny)))
    if args.trace:
        values = traced_run(wl, args.seed, tally)
        declared = spec["per_layer"]
    else:
        values = measured_run(wl, args.seed, args.seconds, tally,
                              1 if args.tiny else SETUP_REPS)
        declared = spec["end_to_end"]
    mismatch = {m["name"] for m in declared} ^ set(values)
    if mismatch:
        return _fail(f"metrics out of step with BENCHMARK.json: {sorted(mismatch)}")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    error_rate = tally.failed / tally.attempted
    print("exit codes: " + ", ".join(f"{c}: {tally.exit_codes[c]}" for c in (0, 1, 4)))
    print(f"golden verdicts checked: {tally.checker.golden_checked}; "
          f"repeats checked for determinism: {tally.checker.repeats}")
    print(f"error_rate = {error_rate:.6g} ({tally.failed} of {tally.attempted} operations)")
    for err in tally.errors:
        print(f"error: {err}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
