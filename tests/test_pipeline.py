"""Level-set sampling, pointwise quotients, type tables, closure checks."""
import dataclasses
from functools import lru_cache

import numpy as np
import pytest

from gkw import frames, report
from gkw.calculus import (GeneralizedSection, VectorField, interior_product,
                          standard_symplectic_form)
from gkw.catalog import build_case, catalog_names, closure_families
from gkw.linear import (ISOTROPY_TOL, RANK_TOL, VALIDATION_TOL, ComplexSubspace,
                        ValidationError, extract_bihermitian, orientation_sign,
                        subspace_intersection_dim)
from gkw.pipeline import (MEMBERSHIP_TOL, ClosureFamily, bihermitian_rows,
                          df_contraction_is_zero, pairs_once, run_closure_families,
                          sample_level_set, verify_moment_map, verify_type_formula)
from gkw.poly import QI, ComplexPolynomial
from gkw.report import RunConfig, run

import naive_linear as naive
from generators import from_columns, product_cp1xc_scenario, projection_to_tangent, table


def test_sampling_level_freeness_and_quota():
    case = build_case("cpn-2")
    batch = sample_level_set(case.scenario, 20, 7)
    assert len(batch.points) == 20
    on_stratum = sum(1 for lab in batch.labels if lab == "z0=0")
    assert on_stratum >= 5
    mm = case.scenario.moment
    for z in batch.points:
        assert abs(mm.f[0].evaluate(z).real - 1.0) < 1e-12
        assert np.linalg.norm(z) > 1e-3


def test_sampling_determinism():
    case = build_case("cpn-2")
    b1 = sample_level_set(case.scenario, 10, 3)
    b2 = sample_level_set(case.scenario, 10, 3)
    assert all(np.array_equal(p, q) for p, q in zip(b1.points, b2.points))


def test_sampling_from_a_generator_draws_as_from_its_seed():
    case = build_case("cpn-2")
    b1 = sample_level_set(case.scenario, 10, np.random.default_rng(3))
    b2 = sample_level_set(case.scenario, 10, 3)
    assert all(np.array_equal(p, q) for p, q in zip(b1.points, b2.points))
    assert b1.labels == b2.labels


def test_grassmann_sampler_row_orthonormal():
    case = build_case("grassmann-2-3")
    batch = sample_level_set(case.scenario, 8, 5)
    for z, lab in zip(batch.points, batch.labels):
        Z = np.asarray(z).reshape(2, 3)
        assert np.linalg.norm(Z @ Z.conj().T - np.eye(2)) < 1e-12
        if lab == "col0=0":
            assert np.abs(Z[:, 0]).max() < 1e-12


def test_toric_sampler_hits_level_and_stratum():
    case = build_case("toric-blowup1")
    scen = case.scenario
    batch = sample_level_set(scen, 12, 11)
    level = np.array([float(x) for x in scen.level])
    for z, lab in zip(batch.points, batch.labels):
        vals = np.array([f.evaluate(z).real for f in scen.moment.f])
        assert np.abs(vals - level).max() < 1e-12
    labs = set(batch.labels)
    assert {"z2=0", "z3=0", "generic"} <= labs


def test_quotient_at_point_kahler_baseline():
    case = build_case("kahler-c3")
    _, _, (qf,) = table(case.scenario, 1, 2)
    assert (qf.type_j1, qf.type_j2) == (0, 2)
    assert (qf.type_j1_up, qf.type_j2_up) == (0, 3)
    assert qf.diagnostics["moment_condition"] < 1e-10
    assert qf.diagnostics["p_isotropy"] < 1e-9
    assert qf.qbasis.k == 4


def test_quotient_types_deformed_strata():
    case = build_case("cpn-2")
    _, _, rows = table(case.scenario, 10, 7)
    for qf in rows:
        want = case.expected_strata[qf.stratum]
        assert (qf.type_j1, qf.type_j2) == tuple(want)
        assert qf.dim_k_cap_piL2 == 0


def test_verify_type_formula_and_corruption_control():
    case = build_case("cpn-2")
    _, _, tab = table(case.scenario, 8, 7)
    rows = verify_type_formula(case.scenario, tab)
    assert all(r["pass"] for r in rows)
    # negative control: corrupt one entry and the row check must fail
    tab[0].type_j2 += 1
    rows_bad = verify_type_formula(case.scenario, tab)
    assert not rows_bad[0]["pass"]
    assert all(r["pass"] for r in rows_bad[1:])


def test_a_quotient_j1_type_off_by_two_fails_its_row():
    case = build_case("cpn-2")
    _, _, tab = table(case.scenario, 8, 7)
    tab[0] = dataclasses.replace(tab[0], type_j1=tab[0].type_j1 + 2)
    rows = verify_type_formula(case.scenario, tab)
    assert rows[0]["pass"] is False
    assert all(r["pass"] for r in rows[1:])


def test_a_bracket_leaving_the_level_set_fails_the_symbolic_check():
    # d/dz0 and z0 d/dz1, each with its -i iota_X omega form: the bracket's
    # vector part d/dz1 is not tangent to cpn-2's level sets
    case = build_case("cpn-2")
    n = case.scenario.n
    omega = standard_symplectic_form(n)
    fields = [VectorField(n, {0: ComplexPolynomial.one(n)}),
              VectorField(n, {1: ComplexPolynomial.variable(n, 0)})]
    sections = [GeneralizedSection(X, interior_product(X, omega).scale(QI(0, -1)))
                for X in fields]
    fam = ClosureFamily(name="leaves-level", sections=sections,
                        symbolic_check=df_contraction_is_zero(case.scenario.moment))
    (row,) = run_closure_families([fam], [])
    assert row["symbolic_zero"] is False
    assert row["pass"] is False


def test_closure_families_all_catalog():
    from gkw.catalog import catalog_names
    for name in catalog_names():
        case = build_case(name)
        batch = sample_level_set(case.scenario, 5, 13)
        fams = closure_families(case)
        assert fams, name
        rows = run_closure_families(fams, batch.points,
                                    pairs_once(case.scenario.recipe, batch.points))
        assert rows, name
        bad = [r for r in rows if not r["pass"]]
        assert not bad, (name, bad)


@pytest.mark.parametrize("name, family, other", [
    ("cpn-2", "df-perp+L1", lambda pair: pair.J2),
    ("toric-cp2", "deformed-L2", lambda pair: pair.J1),
], ids=["df-perp-against-j2", "deformed-l2-against-j1"])
def test_brackets_outside_the_checked_eigenbundle_fail_membership(name, family, other):
    # cpn-2's df-perp+L1 brackets lie in L1 but not in the deformed L_eps of
    # J2; toric-cp2's deformed-L2 brackets lie in the L_eps of the pair at
    # each sample, and the first of them, which is not zero, leaves L1.
    # Checked against the other structure, their membership fails the row
    case = build_case(name)
    batch = sample_level_set(case.scenario, 6, 7)
    fam = next(f for f in closure_families(case) if f.name == family)
    pairs = pairs_once(case.scenario.recipe, batch.points)
    rows = run_closure_families([fam], batch.points, pairs)
    assert rows and all(r["pass"] for r in rows)
    against = dataclasses.replace(fam, symbolic_check=None, structure_of=other)
    rows = run_closure_families([against], batch.points, pairs)
    failed = [r for r in rows if r["membership_residual"] > MEMBERSHIP_TOL]
    assert failed
    assert all(r["pass"] is False for r in failed)


def test_quotient_bihermitian_flags():
    case = build_case("cpn-2")
    _, _, rows = table(case.scenario, 8, 7)
    for qb in bihermitian_rows(rows):
        assert qb["valid"], qb
        assert qb["even_type"]
        if qb["stratum"] == "generic":
            assert qb["distinct"]
        else:
            assert not qb["distinct"]


def test_freeness_rejection_reasons_logged():
    case = build_case("cpn-2")
    batch = sample_level_set(case.scenario, 6, 1)
    assert isinstance(batch.rejected, list)


def test_hyperkahler_scenario_types():
    case = build_case("hyperkahler-flat")
    _, _, tab = table(case.scenario, 6, 3)
    for r in tab:
        assert (r.type_j1, r.type_j2) == (0, 1)
        assert (r.type_j1_up, r.type_j2_up) == (0, 0)
        assert r.dim_k_cap_piL2 == 1
    assert all(x["pass"] for x in verify_type_formula(case.scenario, tab))


def _count_pairs_built(monkeypatch, recipe, fail_at=None):
    """The points at which the recipe builds a pair, one entry per pair: a
    row of a ``pairs_at`` stack, or a ``pair_at`` call.  Optionally the
    pair at one point fails validation."""
    cls = type(recipe)
    built = []

    def forced(z):
        return fail_at is not None and np.array_equal(z, fail_at)

    real_pair_at = cls.pair_at

    def pair_at(self, z):
        if self is recipe:
            built.append(z)
            if forced(z):
                raise ValidationError("forced failure")
        return real_pair_at(self, z)
    monkeypatch.setattr(cls, "pair_at", pair_at)
    if hasattr(cls, "pairs_at"):
        real_pairs_at = cls.pairs_at

        def pairs_at(self, points):
            pairs = real_pairs_at(self, points)
            if self is not recipe:
                return pairs
            built.extend(points)
            return [ValidationError("forced failure") if forced(z) else pair
                    for z, pair in zip(points, pairs)]
        monkeypatch.setattr(cls, "pairs_at", pairs_at)
    return built


@pytest.mark.parametrize("name", ["cpn-2", "grassmann-2-3", "hyperkahler-flat"])
def test_reduce_builds_each_pair_once(name, monkeypatch):
    built = _count_pairs_built(monkeypatch, build_case(name).scenario.recipe)
    rep = run(RunConfig(command="reduce", case=name, samples=8, seed=7))
    assert len(rep["sections"]["type_table"]["rows"]) == 8
    assert len(rep["sections"]["bihermitian"]["rows"]) == 8
    assert len(built) == 8
    assert len({np.asarray(z).tobytes() for z in built}) == 8


def test_a_failed_pair_raises_where_the_pairs_are_built(monkeypatch):
    # the failing point's error leaves pairs_once, so no report holds a
    # failed pair: a stacked recipe builds its whole stack first, a recipe
    # without pairs_at stops at the failing point
    for name, built_before_raising in (("cpn-2", 4), ("hyperkahler-flat", 2)):
        case = build_case(name)
        batch = sample_level_set(case.scenario, 4, 7)
        built = _count_pairs_built(monkeypatch, case.scenario.recipe,
                                   fail_at=batch.points[1])
        with pytest.raises(ValidationError, match="^forced failure$"):
            pairs_once(case.scenario.recipe, batch.points)
        assert len(built) == built_before_raising
        with pytest.raises(ValidationError, match="^forced failure$"):
            run(RunConfig(command="deform", case=name, samples=4, seed=7))


@pytest.mark.parametrize("name", ["cpn-2", "grassmann-2-3", "toric-blowup1"])
def test_sampler_frames_are_the_quotient_frames(name):
    scen = build_case(name).scenario
    batch = sample_level_set(scen, 6, 5)
    n = scen.n
    for z, Q, DF in zip(batch.points, batch.Q, batch.DF, strict=True):
        assert np.array_equal(Q, np.column_stack(
            [frames.section_at(s, z)[:2 * n].real for s in scen.fields]))
        assert np.array_equal(DF, np.column_stack(
            [frames.one_form_at(df, z).real for df in scen.moment.df]))


# -- decisions shared with the quotient's construction ---------------------------

@lru_cache(maxsize=None)
def _catalog_rows(name, seed):
    """(Q, pair, row) of each type-table row of a case at 12 samples, the
    pairs built as a report builds them."""
    batch, pairs, rows = table(build_case(name).scenario, 12, seed)
    return list(zip(batch.Q, pairs, rows))


def _projector(S: ComplexSubspace):
    return S.basis @ S.basis.conj().T


@pytest.mark.parametrize("seed", [7, 8])
@pytest.mark.parametrize("name", catalog_names())
def test_k_m_and_pi_l2_are_the_spans_a_second_decision_would_give(name, seed):
    # k_M is the frame quotient_basis orthonormalized, pi(L2) comes with
    # type(J2); thresholding each span again, at the run's tol, gives the same
    # subspaces and the same dim(k_M cap pi L2)
    for Q, pair, row in _catalog_rows(name, seed):
        kM = ComplexSubspace(row.qbasis.Q.astype(complex))
        for tol in (RANK_TOL, 1e-6, 1e-4):
            again = from_columns(Q.astype(complex), tol)
            assert again.dim == kM.dim
            assert np.abs(_projector(again) - _projector(kM)).max() < 1e-12
            piL2 = pair.J2.tangent_projection(tol)
            again = projection_to_tangent(pair.J2.eigenbundle(), tol)
            assert again.dim == piL2.dim
            assert np.abs(_projector(again) - _projector(piL2)).max() < 1e-12
        old_kM = from_columns(Q.astype(complex))
        old_piL2 = projection_to_tangent(pair.J2.eigenbundle())
        assert subspace_intersection_dim(old_kM, old_piL2)[0] == row.dim_k_cap_piL2


@pytest.mark.parametrize("seed", [7, 8])
@pytest.mark.parametrize("name", catalog_names())
def test_orientation_of_every_bihermitian_row_matches_the_gram_schmidt_oracle(name, seed):
    for _, _, row in _catalog_rows(name, seed):
        data = extract_bihermitian([row.pair_quot])
        for J in (data.Jplus[0], data.Jminus[0]):
            assert orientation_sign(J) == naive.orientation_sign(J)


def test_opposite_orientations_fail_the_bihermitian_section():
    # J1 = J_omega + J_I has type 1, and so has the quotient's J1: I+ and I-
    # orient the quotient oppositely, and that alone fails every row
    scenario = product_cp1xc_scenario()
    batch, pairs, rows = table(scenario, 12, 7)
    for r in rows:
        assert (r.type_j1, r.type_j2, r.dim_k_cap_piL2) == (1, 1, 0)
        assert (r.type_j1_up, r.type_j2_up) == (1, 2)
    assert all(x["pass"] for x in verify_type_formula(scenario, rows))
    moment = verify_moment_map([pair.J1 for pair in pairs],
                               scenario.action, scenario.moment, batch)
    assert all(x["pass"] for x in moment)
    section = report._bihermitian_section(rows)
    assert section["pass"] is False
    assert len(section["rows"]) == 8
    for row in section["rows"]:
        assert row["valid"] is False and row["same_orientation"] is False
        assert row["g_min_eigenvalue"] > VALIDATION_TOL
        assert max(row[k] for k in ("jplus_square", "jminus_square", "jplus_orthogonal",
                                    "jminus_orthogonal")) < ISOTROPY_TOL
