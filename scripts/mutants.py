"""Apply one-line mutants of the verdict code and print which the tests kill.

    python3 scripts/mutants.py              # every mutant
    python3 scripts/mutants.py NAME ...     # the named ones

Each mutant replaces one text of a file under ``src/gkw``, a text that
occurs there exactly once, by another.  It is applied to a copy of
``src``, ``tests`` and ``pyproject.toml`` in a temporary directory, and
its tests run there with ``pytest -x -q`` (so ``gkw`` is imported from the
mutated copy); the mutant is killed when they fail.  The tests of every
mutant run first on the unmutated copy, and must pass there.

Prints one line per mutant: ``killed``, ``survived``, or ``equivalent``
for a survivor listed in ``EQUIVALENT`` with a one-line proof; then a
summary.  Exits 1 if a mutant that is not listed as equivalent survived,
2 if the tests fail on the unmutated copy, else 0.
"""
import argparse
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str       # under src/gkw
    old: str
    new: str
    tests: tuple    # pytest arguments: test files or node ids


MUTANTS = (
    Mutant("eta-orthogonality-off", "linear.py",
           "bad = (r_sq > VALIDATION_TOL) | (r_orth > VALIDATION_TOL)",
           "bad = r_sq > VALIDATION_TOL",
           ("tests/test_linear.py",)),
    Mutant("g-squared-off", "linear.py",
           "bad = (r_inv > VALIDATION_TOL) | (r_orth > VALIDATION_TOL)",
           "bad = r_orth > VALIDATION_TOL",
           ("tests/test_linear.py",)),
    Mutant("g-orthogonality-off", "linear.py",
           "bad = (r_inv > VALIDATION_TOL) | (r_orth > VALIDATION_TOL)",
           "bad = r_inv > VALIDATION_TOL",
           ("tests/test_linear.py",)),
    Mutant("metric-positivity-off", "linear.py",
           "ev_min <= VALIDATION_TOL",
           "ev_min <= -1e30",
           ("tests/test_linear.py",)),
    Mutant("p-isotropy-check-off", "linear.py",
           "if iso > ISOTROPY_TOL:",
           "if iso > ISOTROPY_TOL * 1e30:",
           ("tests/test_linear.py",)),
    Mutant("moment-condition-bound-x1e30", "report.py",
           'r["moment_condition"] < MOMENT_CONDITION_TOL',
           'r["moment_condition"] < MOMENT_CONDITION_TOL * 1e30',
           ("tests/test_cli.py::test_a_moment_map_off_by_a_factor_fails_the_type_table",)),
    Mutant("scenario-invariance-always-true", "report.py",
           '"pass": invariant_along(',
           '"pass": True or invariant_along(',
           ("tests/test_cli.py::test_scenario_file_deformation_is_certified_invariant",)),
    Mutant("pairs-once-swallows-errors", "pipeline.py",
           "                    raise pair\n",
           "                    pass\n",
           ("tests/test_stacked.py::test_pairs_once_raises_the_earliest_failing_points_error",
            "tests/test_pipeline.py::test_a_failed_pair_raises_where_the_pairs_are_built")),
)

# name -> why the mutant cannot change a verdict
EQUIVALENT = {
    "g-orthogonality-off": "the pair's structures passed eta-orthogonality, so "
                           "G^T eta G = J2^T (J1^T eta J1) J2 = J2^T eta J2 = eta",
}


def copy_tree(dest: Path):
    """The parts of the repository the tests of a mutant read."""
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def apply(mutant: Mutant, root: Path):
    path = root / "src" / "gkw" / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: its old text occurs {text.count(mutant.old)} "
                         f"times in {mutant.file}, not once")
    path.write_text(text.replace(mutant.old, mutant.new))


def tests_pass(root: Path, tests) -> bool:
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="default: every mutant")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {sorted(unknown)}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    with tempfile.TemporaryDirectory(prefix="gkw-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        tests = sorted({t for m in chosen for t in m.tests})
        start = time.perf_counter()
        if not tests_pass(clean, tests):
            print("the tests fail on the unmutated copy")
            return 2
        print(f"baseline: {len(tests)} test targets pass unmutated "
              f"({time.perf_counter() - start:.1f} s)")
        counts = {"killed": 0, "equivalent": 0, "survived": 0}
        for mutant in chosen:
            root = Path(tmp) / mutant.name
            copy_tree(root)
            apply(mutant, root)
            start = time.perf_counter()
            survived = tests_pass(root, mutant.tests)
            status = ("killed" if not survived else
                      "equivalent" if mutant.name in EQUIVALENT else "survived")
            counts[status] += 1
            note = f": {EQUIVALENT[mutant.name]}" if status == "equivalent" else ""
            print(f"{status:<10}  {mutant.name:<32} {mutant.file:<11} "
                  f"({time.perf_counter() - start:.1f} s){note}", flush=True)
            shutil.rmtree(root)
    print(f"{len(chosen)} mutants: " + ", ".join(f"{n} {k}" for k, n in counts.items()))
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
