"""Apply one-line mutants of the verdict code and print which the tests kill.

    python3 scripts/mutants.py              # every mutant
    python3 scripts/mutants.py NAME ...     # the named ones

Each mutant replaces one text of a file under ``src/gkw``, a text that
occurs there exactly once, by another.  It is applied to a copy of
``src``, ``tests``, ``perfbench`` and ``pyproject.toml`` in a temporary
directory, and its tests run there with ``pytest -x -q`` (so ``gkw`` is
imported from the mutated copy); the mutant is killed when they fail.  The
tests of every mutant run first on the unmutated copy, and must pass there;
that run's time, times 10 and at least 60 s, limits each mutant's run, and
a mutant whose tests run past it (say, a loop that no longer ends) is
killed.

Prints one line per mutant: ``killed``, ``timeout`` (killed by the time
limit), ``survived``, or ``equivalent`` for a survivor listed in
``EQUIVALENT`` with a one-line proof; then a summary.  Exits 1 if a mutant
that is not listed as equivalent survived, 2 if the tests fail on the
unmutated copy, else 0.
"""
import argparse
import os
import shutil
import signal
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


# the Schouten bracket and its Courant case against the term-by-term oracles
_BRACKET_ORACLES = (
    "tests/test_calculus.py::test_courant_oracle_equivalence_50_seeded",
    "tests/test_calculus.py::test_sparse_coefficients_match_the_raw_oracles",
    "tests/test_deformation.py::test_schouten_oracle_equivalence_50_seeded",
    "tests/test_deformation.py::test_schouten_oracle_general_sections",
)

MUTANTS = (
    Mutant("eta-orthogonality-off", "linear.py",
           "bad = (r_sq > VALIDATION_TOL) | (r_orth > VALIDATION_TOL)",
           "bad = r_sq > VALIDATION_TOL",
           ("tests/test_linear.py",)),
    Mutant("g-squared-off", "linear.py",
           "r_inv > VALIDATION_TOL",
           "r_inv > VALIDATION_TOL * 1e30",
           ("tests/test_linear.py",)),
    Mutant("metric-positivity-off", "linear.py",
           "ev_min <= VALIDATION_TOL",
           "ev_min <= -1e30",
           ("tests/test_linear.py",)),
    Mutant("p-isotropy-check-off", "linear.py",
           "if iso > ISOTROPY_TOL:",
           "if iso > ISOTROPY_TOL * 1e30:",
           ("tests/test_linear.py",)),
    Mutant("w-hat-euclidean-complement", "linear.py",
           "What = nullspace(np.hstack([qb.P, pair.G @ qb.P]).T @ eta(pair.m), "
           "2 * qb.k)",
           "What = nullspace(np.hstack([eta(pair.m) @ qb.P, qb.P]).T, 2 * qb.k)",
           ("tests/test_linear.py::test_reduce_pair_type_formula_100_random",
            "tests/test_linear.py::test_reduction_matches_the_complex_detour_on_seeded_generators")),
    Mutant("nullspace-keeps-largest", "linear.py",
           "vh[..., n - dim:, :]",
           "vh[..., :dim, :]",
           ("tests/test_known_dimensions.py::"
            "test_each_known_dimension_basis_is_a_nullspace_at_the_rank_threshold",)),
    Mutant("deformed-eigenbundle-not-orthonormal", "linear.py",
           "J, u = _real_structures(u, out, u)",
           "J, u = _real_structures(u, out, Leps)",
           ("tests/test_known_dimensions.py::"
            "test_a_deformed_structure_keeps_the_orthonormal_eigenbundle_it_was_built_from",)),
    Mutant("quotient-dual-block-scaled", "linear.py",
           "C[m:, k:] = Vc",
           "C[m:, k:] = 2 * Vc",
           ("tests/test_linear.py::test_quotient_basis_pairs_as_the_standard_eta",)),
    Mutant("quotient-reads-J-on-C", "linear.py",
           "qb.C.T @ (J @ reps)",
           "qb.C.T @ (J @ qb.C)",
           ("tests/test_linear.py::test_reduce_pair_type_formula_100_random",
            "tests/test_linear.py::test_reduction_matches_the_complex_detour_on_catalog_rows",
            "tests/test_linear.py::test_quotient_matrices_match_least_squares_on_catalog_rows")),
    Mutant("moment-condition-bound-x1e30", "report.py",
           'r["moment_condition"] < MOMENT_CONDITION_TOL',
           'r["moment_condition"] < MOMENT_CONDITION_TOL * 1e30',
           ("tests/test_cli.py::test_a_moment_map_off_by_a_factor_fails_the_type_table",)),
    Mutant("scenario-invariance-always-true", "report.py",
           "invariant_along(eps, fields)",
           "True or invariant_along(eps, fields)",
           ("tests/test_cli.py::test_scenario_file_deformation_is_certified_invariant",)),
    Mutant("maurer-cartan-section-always-true", "report.py",
           '"exact_zero": zero, "pass": zero}',
           '"exact_zero": zero, "pass": True}',
           ("tests/test_cli.py::test_scenario_file_off_maurer_cartan_fails_its_section",)),
    Mutant("recorded-t-wrong", "catalog.py",
           '"hirzebruch-2": lambda: build_hirzebruch(2, Fraction(1, 32)),',
           '"hirzebruch-2": lambda: build_hirzebruch(2, Fraction(1, 16)),',
           ("tests/test_catalog.py::test_fit_returns_the_recorded_scale",)),
    Mutant("table-ignores-upstairs-types", "report.py",
           "    if expected_up:\n",
           "    if False:\n",
           ("tests/test_cli.py::test_an_upstairs_type_off_by_one_fails_the_type_table",)),
    Mutant("moment-map-drops-invariance", "pipeline.py",
           '"pass": bool(worst < tol and inv < tol)',
           '"pass": bool(worst < tol)',
           ("tests/test_actions.py::test_a_moment_map_off_the_central_level_fails_invariance",)),
    Mutant("type-formula-drops-j1", "pipeline.py",
           "ok = (r.type_j2 == rhs2) and (r.type_j1 == rhs1)",
           "ok = r.type_j2 == rhs2",
           ("tests/test_pipeline.py::test_a_quotient_j1_type_off_by_two_fails_its_row",)),
    Mutant("closure-drops-symbolic", "pipeline.py",
           "ok = ok and symbolic_zero",
           "ok = ok",
           ("tests/test_pipeline.py::"
            "test_a_bracket_leaving_the_level_set_fails_the_symbolic_check",)),
    Mutant("closure-drops-membership", "pipeline.py",
           "ok = ok and res < MEMBERSHIP_TOL",
           "ok = ok",
           ("tests/test_pipeline.py::test_brackets_outside_the_checked_eigenbundle_fail_membership",)),
    Mutant("closure-tests-one-pair-fewer", "pipeline.py",
           "for i, j in pairs[:self.max_pairs]:",
           "for i, j in pairs[:self.max_pairs - 1]:",
           ("tests/test_bench_golden.py",)),
    Mutant("mask-drops-conjugates", "poly.py",
           "for q, column in enumerate(zip(*self.terms)):",
           "for q, column in enumerate(list(zip(*self.terms))[:self.n]):",
           ("tests/test_poly.py::test_mask_is_the_exponent_positions_in_use",
            "tests/test_calculus.py::test_sparse_coefficients_match_the_raw_oracles")),
    Mutant("trusted-add-keeps-zero", "poly.py",
           "s = terms.get(e, QI_ZERO) + c\n            if s:",
           "s = terms.get(e, QI_ZERO) + c\n            if True:",
           ("tests/test_poly.py::test_canonical_form_no_zero_coefficients",)),
    Mutant("moment-map-reads-the-first-field", "pipeline.py",
           "np.concatenate([Q[:, a], ",
           "np.concatenate([Q[:, 0], ",
           ("tests/test_actions.py::test_a_moment_map_off_the_central_level_fails_invariance",)),
    Mutant("deformed-l2-checked-against-j1", "catalog.py",
           "structure_of=lambda pair: pair.J2",
           "structure_of=lambda pair: pair.J1",
           ("tests/test_pipeline.py::test_brackets_outside_the_checked_eigenbundle_fail_membership",)),
    Mutant("pairs-once-swallows-errors", "pipeline.py",
           "                    raise pair\n",
           "                    pass\n",
           ("tests/test_stacked.py::test_pairs_once_raises_the_earliest_failing_points_error",
            "tests/test_pipeline.py::test_a_failed_pair_raises_where_the_pairs_are_built")),
    Mutant("bihermitian-ignores-valid", "report.py",
           'ok = all(r["valid"] for r in rows)',
           "ok = True",
           ("tests/test_pipeline.py::test_opposite_orientations_fail_the_bihermitian_section",)),
    Mutant("bihermitian-row-reads-the-first-distinct", "pipeline.py",
           "bool(distinct[i])",
           "bool(distinct[0])",
           ("tests/test_pipeline.py::test_quotient_bihermitian_flags",
            "tests/test_stacked.py::test_stacked_bihermitian_equals_its_pairs_one_by_one")),
    Mutant("validate-drops-same-orientation", "linear.py",
           '\n              & checks["same_orientation"])',
           ")",
           ("tests/test_pipeline.py::test_opposite_orientations_fail_the_bihermitian_section",)),
    Mutant("orientation-drops-parity", "linear.py",
           "sign = (-1) ** (m // 2) * np.sign(",
           "sign = np.sign(",
           ("tests/test_linear.py::test_orientation_sign",)),
    Mutant("exact-results-kept-by-case-name", "report.py",
           'memo = case.__dict__.setdefault("_exact", {})',
           'memo = globals().setdefault("_kept_by_name", {}).setdefault(case.name, {})',
           ("tests/test_exact_memo.py::"
            "test_a_replaced_case_does_not_read_the_results_kept_for_its_original",)),
    Mutant("sweep-rows-caller-first", "report.py",
           "results = [rows.get(i) for i in range(len(names))]",
           "results = list(rows.values())",
           ("tests/test_cli.py::test_sweep_equals_the_plain_loop_over_its_rows",)),
    Mutant("sweep-raises-the-last-error", "report.py",
           "raise errors[0]",
           "raise errors[-1]",
           ("tests/test_cli.py::test_a_case_error_reaches_the_caller_as_the_plain_loop_raises_it",)),
    Mutant("indeterminate-drops-intersection-gap", "pipeline.py",
           "indeterminate=not (gap_int and g1u",
           "indeterminate=not (g1u",
           ("tests/test_cli.py::test_a_borderline_intersection_alone_flags_its_row",)),
    Mutant("bracket-drops-dual-pairing", "calculus.py",
           "if a < m and g.mask >> a & 1 or abs(a - b0) == m:",
           "if a < m and g.mask >> a & 1:",
           _BRACKET_ORACLES),
    Mutant("bracket-reads-own-mask", "calculus.py",
           "if a < m and g.mask >> a & 1",
           "if a < m and f.mask >> a & 1",
           _BRACKET_ORACLES),
    Mutant("b-shift-accepts-a-non-real-b", "pipeline.py",
           'raise ValueError("B must be real")',
           "pass",
           ("tests/test_actions.py::test_a_non_real_b_field_is_rejected_not_truncated",)),
    Mutant("two-form-map-keeps-its-imaginary-part", "frames.py",
           'raise ValidationError("the map of the 2-form at the point is not real")',
           "return M",
           ("tests/test_actions.py::test_a_non_real_b_field_is_rejected_not_truncated",)),
    Mutant("contractions-kept-once-for-every-action", "actions.py",
           "kept[action] = tuple(",
           "kept[action] = kept.get(next(iter(kept), None)) or tuple(",
           ("tests/test_actions.py::"
            "test_a_second_action_on_one_moment_map_gets_its_own_contractions",)),
    Mutant("shadowed-stratum-accepted", "report.py",
           "if set(earlier.zeros) <= set(coords):",
           "if False:",
           ("tests/test_cli.py::test_malformed_scenario_fields_exit_3_with_a_message",)),
    Mutant("writer-takes-any-sampler", "report.py",
           "isinstance(sampler, ScalingSampler)",
           "True",
           ("tests/test_cli.py::test_the_writer_refuses_what_the_reader_cannot_give_back",)),
    Mutant("moment-map-sign-flipped", "actions.py",
           "QI(0, Fraction(-1, 2))",
           "QI(0, Fraction(1, 2))",
           ("tests/test_actions.py::test_standard_moment_map_identity_symbolic",
            "tests/test_actions.py::"
            "test_the_generators_give_the_fields_the_moment_map_and_the_central_level")),
    Mutant("writer-takes-any-moment-map", "report.py",
           "scenario.moment == standard_moment_map(action)",
           "True",
           ("tests/test_cli.py::test_the_writer_refuses_what_the_reader_cannot_give_back",)),
)

# name -> why the mutant cannot change a verdict
EQUIVALENT: dict = {}


def copy_tree(dest: Path):
    """The parts of the repository the tests of a mutant read (the golden
    test reads the benchmark's workloads and golden files)."""
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for part in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def apply(mutant: Mutant, root: Path):
    path = root / "src" / "gkw" / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: its old text occurs {text.count(mutant.old)} "
                         f"times in {mutant.file}, not once")
    path.write_text(text.replace(mutant.old, mutant.new))


def tests_pass(root: Path, tests, timeout=None):
    """True if the tests pass, False if they fail, None if they run past
    ``timeout`` seconds (then their whole process group is killed)."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return proc.wait(timeout) == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


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
        baseline = time.perf_counter() - start
        limit = max(60.0, 10 * baseline)
        print(f"baseline: {len(tests)} test targets pass unmutated "
              f"({baseline:.1f} s; limit per mutant {limit:.0f} s)")
        counts = {"killed": 0, "equivalent": 0, "survived": 0}
        for mutant in chosen:
            root = Path(tmp) / mutant.name
            copy_tree(root)
            apply(mutant, root)
            start = time.perf_counter()
            passed = tests_pass(root, mutant.tests, limit)
            status = ("timeout" if passed is None else "killed" if not passed else
                      "equivalent" if mutant.name in EQUIVALENT else "survived")
            counts["killed" if status == "timeout" else status] += 1
            note = f": {EQUIVALENT[mutant.name]}" if status == "equivalent" else ""
            print(f"{status:<10}  {mutant.name:<34} {mutant.file:<11} "
                  f"({time.perf_counter() - start:.1f} s){note}", flush=True)
            shutil.rmtree(root)
    print(f"{len(chosen)} mutants: " + ", ".join(f"{n} {k}" for k, n in counts.items()))
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
