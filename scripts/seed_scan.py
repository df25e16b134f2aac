"""Run ``gkw reduce`` over catalog cases x seeds and print its exit codes.

    python3 scripts/seed_scan.py
    python3 scripts/seed_scan.py --cases hirzebruch-2 cpn-2 --seeds 30 33 --samples 16

Each run is ``gkw reduce --case NAME --samples N --seed S`` through
``gkw.cli`` (its report goes to the null device), so an exit code
here is the one the command returns.  The runs are shared out among one
forked worker per usable CPU (``report._map_cases``).  Prints one summary
line, the exit-code histogram (``exit CODE: COUNT``) and then every run that
did not exit 0 (``not 0: CASE seed=S exit CODE``), in case-then-seed order;
exits 1 if there is any such run, else 0.  Defaults: every catalog case,
seeds 1-60, 16 samples.
"""
import argparse
import os
import sys
import time
from collections import Counter
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gkw import cli  # noqa: E402
from gkw.catalog import build_case, catalog_names  # noqa: E402
from gkw.report import _map_cases  # noqa: E402


def exit_code(run, samples):
    """The exit code of ``gkw reduce`` for one (case, seed) run."""
    name, seed = run
    return cli.main(["reduce", "--case", name, "--samples", str(samples), "--seed", str(seed),
                     "--format", "json", "--out", os.devnull])


def scan(cases, seeds, samples):
    """[((case, seed), exit code)] for every case x seed, in that order."""
    for name in cases:
        build_case(name)    # built once here, inherited by the forked workers
    runs = [(name, seed) for name in cases for seed in seeds]
    return list(zip(runs, _map_cases(partial(exit_code, samples=samples), runs)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", nargs="+", default=None, help="default: every catalog case")
    parser.add_argument("--seeds", nargs=2, type=int, default=(1, 60), metavar=("FIRST", "LAST"),
                        help="inclusive seed range (default 1 60)")
    parser.add_argument("--samples", type=int, default=16)
    args = parser.parse_args(argv)
    cases = args.cases or catalog_names()
    first, last = args.seeds
    start = time.perf_counter()
    results = scan(cases, range(first, last + 1), args.samples)
    print(f"reduce: {len(cases)} cases x seeds {first}-{last}, {args.samples} samples: "
          f"{len(results)} runs in {time.perf_counter() - start:.1f} s")
    for code, count in sorted(Counter(code for _, code in results).items()):
        print(f"exit {code}: {count}")
    failed = [(run, code) for run, code in results if code != 0]
    for (name, seed), code in failed:
        print(f"not 0: {name} seed={seed} exit {code}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
