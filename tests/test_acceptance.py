"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line at its stated tolerance.

Criteria 3 and 9 assert the stated Grassmannian n=2 expectations verbatim;
the computed mathematics disagrees there (the deformation dies in the
quotient: the complexified fundamental fields meet pi(L_eps), the quotient
type is 2, and the extracted complex structures coincide), so those two
tests fail honestly.  The analysis lives in the workbench notes; every
other criterion passes.
"""
import time
from fractions import Fraction

import numpy as np

from gkw import frames
from gkw.actions import MomentMapPoly
from gkw.calculus import VectorField, courant_bracket, exterior_derivative
from gkw.catalog import build_case, catalog_names, closure_families, hyperkahler_pair
from gkw.deformation import DeformationBivector, schouten_bracket
from gkw.linear import LinearGC, eta, reduce_gcs, reduce_pair, subspace_intersection_dim
from gkw.pipeline import (DeformedKahlerRecipe, bihermitian_rows, pairs_once,
                          run_closure_families, sample_level_set, verify_moment_map,
                          verify_type_formula)
from gkw.poly import ComplexPolynomial

from generators import (ReductionTally, add, b_transform, cp1xcp1_blowup4_polytope,
                        from_columns, from_sections, point_to_real, projection_to_tangent,
                        rand_antisym, rand_gc, rand_gc_with_admissible_q, rand_lbar_section,
                        rand_pair_with_admissible_q, rand_section, restricted_projection_dim,
                        table, type_of)
from naive_calculus import naive_courant, naive_schouten
from test_calculus import section_to_raw, to_raw

RESULTS = []


def report(num, desc, ok):
    line = f"[ACCEPTANCE] criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {desc}"
    print(line)
    RESULTS.append(line)
    return ok


def _strata_table(name, samples, seed):
    case = build_case(name)
    t0 = time.monotonic()
    _, _, tab = table(case.scenario, samples, seed)
    elapsed = time.monotonic() - t0
    return case, tab, elapsed


def test_criterion_01_cp2_strata():
    case, tab, elapsed = _strata_table("cpn-2", 20, 7)
    on_stratum = [r for r in tab if r.stratum == "z0=0"]
    ok = (len(tab) == 20 and len(on_stratum) >= 5
          and all(r.type_j1 == 0 for r in tab)
          and all(r.type_j2 == 2 for r in on_stratum)
          and all(r.type_j2 == 0 for r in tab if r.stratum == "generic")
          and elapsed < 60.0)
    assert report(1, f"CP^2 strata {{z0=0: 2, generic: 0}} in {elapsed:.1f}s", ok)


def test_criterion_02_cp3_strata():
    case, tab, elapsed = _strata_table("cpn-3", 20, 7)
    on_stratum = [r for r in tab if r.stratum == "z0=0"]
    ok = (len(on_stratum) >= 5
          and all(r.type_j1 == 0 for r in tab)
          and all(r.type_j2 == 3 for r in on_stratum)
          and all(r.type_j2 == 1 for r in tab if r.stratum == "generic")
          and elapsed < 120.0)
    assert report(2, f"CP^3 strata {{z0=0: 3, generic: 1}} in {elapsed:.1f}s", ok)


def test_criterion_03_grassmannian():
    case, tab, _ = _strata_table("grassmann-2-3", 12, 7)
    up_ok = (all(r.type_j2_up == 6 for r in tab if r.stratum == "col0=0")
             and all(r.type_j2_up == 4 for r in tab if r.stratum == "generic"))
    formula_rows = verify_type_formula(case.scenario, tab)
    both_sides_ok = all(r["pass"] for r in formula_rows)
    generic_zero = all(r.type_j2 == 0 for r in tab if r.stratum == "generic")
    ok = up_ok and both_sides_ok and generic_zero
    report(3, "Gr(2,3): upstairs {6,4}"
              f" [{'ok' if up_ok else 'bad'}], formula row-for-row"
              f" [{'ok' if both_sides_ok else 'bad'}], quotient generic type 0"
              f" [{'ok' if generic_zero else 'computed 2: deformation dies in the quotient'}]",
           ok)
    assert up_ok and both_sides_ok
    assert generic_zero, (
        "quotient generic type J~2 is 2, not 0: dim(k_M^C cap pi(L_eps)) = 1 "
        "at every frame with a nonzero first column, so the type formula "
        "gives (nm-2) - n^2 + 2 = 2; the direct computation agrees")


def test_criterion_04_maurer_cartan_certificates():
    ok = True
    for name in ("cpn-2", "cpn-3", "cpn-4", "toric-cp2", "toric-blowup1",
                 "grassmann-1-3", "grassmann-2-3"):
        rec = build_case(name).scenario.recipe
        ok = ok and rec.eps.maurer_cartan_residual().is_zero
    n = 3
    Yb = VectorField(n, {1: ComplexPolynomial.variable(n, 0, conjugated=True)})
    bad = DeformationBivector.from_vector_fields(Yb, VectorField.frame(n, 2))
    ok = ok and not bad.maurer_cartan_residual().is_zero
    assert report(4, "exact Maurer-Cartan certificates (catalog eps zero, "
                     "zbar counterexample nonzero)", ok)


def test_criterion_05_oracle_equivalence():
    rng = np.random.default_rng(424242)
    n = 2
    ok = True
    for _ in range(50):
        s1, s2 = rand_section(rng, n), rand_section(rng, n)
        got = section_to_raw(courant_bracket(s1, s2))
        want = naive_courant(section_to_raw(s1), section_to_raw(s2), n)
        ok = ok and got["vec"] == want["vec"] and got["form"] == want["form"]
    rng2 = np.random.default_rng(515151)
    for _ in range(50):
        c1, f1 = rand_section(rng2, n), [rand_lbar_section(rng2, n) for _ in range(2)]
        A = from_sections(n, ComplexPolynomial.one(n), f1)
        f2 = [rand_lbar_section(rng2, n) for _ in range(2)]
        B = from_sections(n, ComplexPolynomial.one(n), f2)
        got = {k: to_raw(p) for k, p in schouten_bracket(A, B).terms.items()}
        one = ComplexPolynomial.one(n)
        want = naive_schouten([(to_raw(one), [section_to_raw(s) for s in f1])],
                              [(to_raw(one), [section_to_raw(s) for s in f2])], n)
        ok = ok and got == want
    assert report(5, "Courant/Schouten equal the brute-force oracle on 50+50 "
                     "seeded inputs", ok)


def test_criterion_06_reduction_identity_suite():
    ok = True
    # projected-rank identity
    rng = np.random.default_rng(2718)
    for m in (4, 6, 8):
        count = 0
        while count < 100:
            J = rand_gc(rng, m)
            r = int(rng.integers(1, 4))
            R = from_columns(
                rng.standard_normal((2 * m, r)) + 1j * rng.standard_normal((2 * m, r)))
            JR = from_columns(J.J.astype(complex) @ R.basis)
            inter, _ = subspace_intersection_dim(JR, R)
            if inter != 0:
                continue
            lhs = restricted_projection_dim(J, R)
            rhs = projection_to_tangent(add(J.eigenbundle(), R)).dim - R.dim
            ok = ok and lhs == rhs
            count += 1
    # quotient type preservation
    rng = np.random.default_rng(31415)
    tally = ReductionTally(checks=300)
    for m in (4, 6, 8):
        count = 0
        while count < 100:
            made = tally.generate(rand_gc_with_admissible_q, rng, m,
                                  int(rng.integers(1, m // 2)))
            reduced = made and tally.reduce(reduce_gcs, *made)
            if not reduced:
                continue
            (J, Q), (Jq, _) = made, reduced
            ok = ok and type_of(Jq) == type_of(J)
            count += 1
    # pair-quotient type formula, on its reliable domain
    rng = np.random.default_rng(161803)
    tally = ReductionTally(checks=300)
    for m in (4, 6, 8):
        count = 0
        while count < 100:
            made = tally.generate(rand_pair_with_admissible_q, rng, m,
                                  int(rng.integers(1, max(2, m // 2))), allow_hk=False)
            reduced = made and tally.reduce(reduce_pair, *made)
            if not reduced:
                continue
            (pair, Q), (pq, _) = made, reduced
            QC = from_columns(Q.astype(complex))
            piL2 = projection_to_tangent(pair.J2.eigenbundle())
            dcap, gap_ok = subspace_intersection_dim(QC, piL2)
            if not gap_ok:
                continue
            ok = ok and type_of(pq.J2) == type_of(pair.J2) - Q.shape[1] + 2 * dcap
            ok = ok and type_of(pq.J1) == type_of(pair.J1)
            count += 1
    assert report(6, "rank identity + type preservation + pair type formula, "
                     "100 instances each at m in {4,6,8}", ok)


def test_criterion_07_btransform_and_realification():
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(100):
        m = 2 * int(rng.integers(1, 4))
        J = rand_gc(rng, m)
        ok = ok and type_of(b_transform(J, rand_antisym(rng, m))) == type_of(J)
    # realification: the flat hyper-Kahler scenario has exact imaginary part
    # zero and its membership residual stays below 1e-10 at all samples
    case = build_case("hyperkahler-flat")
    scen = case.scenario
    assert scen.moment.is_real
    batch = sample_level_set(scen, 20, 7)
    rows = verify_moment_map([scen.recipe.pair_at(z).J1 for z in batch.points], scen.action,
                             scen.moment, batch, tol=1e-10)
    ok = ok and all(r["pass"] for r in rows)
    assert report(7, "B-transform type invariance on 100 random (J, B); "
                     "realified moment map real to < 1e-10 at samples", ok)


def test_criterion_08_hyperkahler_flat():
    J1m, J2m, (I4, J4m, K4), X, (muI, muJ, muK) = hyperkahler_pair()
    case = build_case("hyperkahler-flat")
    batch = sample_level_set(case.scenario, 20, 7)
    E = eta(4)
    G = -J1m @ J2m
    Q = G.T @ E
    res_pair = max(
        np.linalg.norm(J1m @ J1m + np.eye(8)),
        np.linalg.norm(J2m @ J2m + np.eye(8)),
        np.linalg.norm(J1m @ J2m - J2m @ J1m),
        np.linalg.norm(G @ G - np.eye(8)),
        np.linalg.norm(G.T @ E @ G - E))
    pos = np.linalg.eigvalsh((Q + Q.T) / 2).min()
    f = muI - muJ
    worst_df = 0.0
    for z in batch.points:
        df = frames.one_form_at(exterior_derivative(f), z).real
        dmuK = frames.one_form_at(exterior_derivative(muK), z).real
        xv = point_to_real(z)
        out = J1m @ np.concatenate([np.zeros(4), df])
        worst_df = max(worst_df, np.linalg.norm(out - np.concatenate([-X @ xv, -dmuK])))
    mm = MomentMapPoly((f,), (muK,))
    base = LinearGC(J1m)
    rows = verify_moment_map([base] * len(batch.points), case.scenario.action, mm, batch)
    ok = (res_pair < 1e-10 and pos > 1e-10 and worst_df < 1e-12
          and all(r["pass"] for r in rows))
    assert report(8, f"hyper-Kahler: pair residuals {res_pair:.1e} < 1e-10, "
                     f"J1 df = -X - dmuK to {worst_df:.1e} < 1e-12, "
                     "moment map f + i muK verified", ok)


def test_criterion_09_bihermitian_extraction():
    ok = True
    details = []
    for name in catalog_names():
        case = build_case(name)
        scen = case.scenario
        _, _, rows = table(scen, 8, 7)
        deformed = isinstance(scen.recipe, DeformedKahlerRecipe) \
            and not scen.recipe.eps.is_zero
        for qb in bihermitian_rows(rows):
            if qb["stratum"] != "generic":
                continue
            good = (qb["g_min_eigenvalue"] > 1e-10
                    and qb["jplus_square"] < 1e-9
                    and qb["jminus_square"] < 1e-9
                    and qb["jplus_orthogonal"] < 1e-9
                    and qb["jminus_orthogonal"] < 1e-9)
            if deformed and not qb["distinct"]:
                good = False
                note = f"{name}: distinct=False at generic samples"
                if note not in details:
                    details.append(note)
            if name == "kahler-c3" and qb["distinct"]:
                good = False
            ok = ok and good
    report(9, "bi-Hermitian validity at generic quotients; distinctness true "
              f"for deformed cases, false for kahler-c3 {details or ''}", ok)
    assert ok, details


def test_criterion_10_toric_feasibility():
    from gkw.polytope import cp2_polytope, find_alpha, hirzebruch_polytope
    r1 = find_alpha(cp2_polytope())
    r2 = find_alpha(hirzebruch_polytope(1))
    r3 = find_alpha(hirzebruch_polytope(2))
    r4 = find_alpha(cp1xcp1_blowup4_polytope())
    npairs = 8 * 7 // 2
    ok = (r1.feasible and r1.alpha == (Fraction(1), Fraction(1))
          and r2.feasible and r2.alpha == (Fraction(1), Fraction(1))
          and r3.feasible
          and not r4.feasible and len(r4.certificates) == npairs)
    assert report(10, "alpha = (1,1) for CP^2 and Hirzebruch; per-pair "
                      "infeasibility certificates for the 4-fold blow-up", ok)


def test_criterion_11_closure_tests():
    ok = True
    for name in catalog_names():
        case = build_case(name)
        batch = sample_level_set(case.scenario, 5, 13)
        rows = run_closure_families(closure_families(case), batch.points,
                                    pairs_once(case.scenario.recipe, batch.points))
        for r in rows:
            ok = ok and r["pass"]
            if "symbolic_zero" in r:
                ok = ok and r["symbolic_zero"]
            if "membership_residual" in r:
                ok = ok and r["membership_residual"] < 1e-9
    assert report(11, "bracket closure families: symbolic contractions zero, "
                      "membership residuals < 1e-9, all catalog scenarios", ok)


def test_zz_all_criteria_reported():
    assert len(RESULTS) == 11
