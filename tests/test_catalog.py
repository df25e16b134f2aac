"""Catalog builders: golden strata, invariances, cross-builder consistency."""
from fractions import Fraction

import numpy as np
import pytest

from gkw import catalog
from gkw.catalog import (build_case, build_cpn, build_grassmannian, build_hirzebruch,
                         build_toric, catalog_names,
                         cpn_su2_invariance, hyperkahler_data, hyperkahler_pair,
                         torus_invariance, unitary_invariance)
from gkw.linear import ValidationError, eta
from gkw.pipeline import sample_level_set, type_table, verify_type_formula
from gkw.polytope import cp2_blowup1_polytope, cp2_polytope

from generators import point_to_real


def test_catalog_names_cover_advertised_cases():
    names = catalog_names()
    for want in ("cpn-2", "cpn-3", "toric-cp2", "toric-blowup1",
                 "grassmann-1-3", "grassmann-2-3", "hyperkahler-flat",
                 "kahler-c3"):
        assert want in names
    assert any(n.startswith("hirzebruch-") for n in names)


@pytest.mark.parametrize("name", [
    "kahler-c3", "cpn-2", "cpn-3", "toric-cp2", "toric-blowup1",
    "hirzebruch-1", "grassmann-1-3", "grassmann-2-3", "hyperkahler-flat"])
def test_expected_strata_match_computed(name):
    case = build_case(name)
    tab = type_table(case.scenario, 10, 7)
    seen = {}
    for r in tab.rows:
        seen.setdefault(r.stratum, set()).add((r.type_j1, r.type_j2))
        assert r.type_j2_up == case.expected_upstairs_j2[r.stratum]
    for lab, types in seen.items():
        assert types == {tuple(case.expected_strata[lab])}, (name, lab, types)
    assert all(r["pass"] for r in verify_type_formula(case.scenario, tab))


@pytest.mark.parametrize("n, m", [(2, 4), (2, 5)])
def test_grassmannian_expected_strata_follow_the_generic_intersection(n, m):
    # the col0 family meets k_M in max(0, n + 2 - m) dimensions at generic
    # frames, which is 0 here, so the generic quotient type is n*m - 2 - n^2
    case = build_grassmannian(n, m)
    assert case.expected_distinct is True
    for r in type_table(case.scenario, 8, 7).rows:
        assert (r.type_j1, r.type_j2) == case.expected_strata[r.stratum], (r.stratum, r.point_id)
        assert r.type_j2_up == case.expected_upstairs_j2[r.stratum]


def test_cross_builder_cp2_consistency():
    a = build_case("cpn-2")
    b = build_case("toric-cp2")
    va = sorted(tuple(v) for v in a.expected_strata.values())
    vb = sorted(tuple(v) for v in b.expected_strata.values())
    assert va == vb
    ta = type_table(a.scenario, 8, 3)
    tb = type_table(b.scenario, 8, 3)
    sa = sorted({(r.type_j1, r.type_j2) for r in ta.rows})
    sb = sorted({(r.type_j1, r.type_j2) for r in tb.rows})
    assert sa == sb


def test_all_catalog_mc_residuals():
    from gkw.pipeline import DeformedKahlerRecipe
    for name in catalog_names():
        case = build_case(name)
        rec = case.scenario.recipe
        if isinstance(rec, DeformedKahlerRecipe):
            assert rec.eps.maurer_cartan_residual().is_zero, name


def test_invariances():
    assert torus_invariance(build_case("cpn-3"))
    assert torus_invariance(build_case("toric-blowup1"))
    assert torus_invariance(build_case("hirzebruch-2"))
    assert cpn_su2_invariance(build_case("cpn-2"))
    assert unitary_invariance(build_case("grassmann-1-3"))
    assert unitary_invariance(build_case("grassmann-2-3"))


def test_build_cpn_requires_n_at_least_two():
    with pytest.raises(ValueError):
        build_cpn(1)


def test_build_toric_rejects_infeasible():
    from gkw.polytope import cp1xcp1_blowup4_polytope
    with pytest.raises(ValidationError):
        build_toric(cp1xcp1_blowup4_polytope(), name="blowup4")


def test_build_toric_custom_level():
    # a scaled level inside the image still samples correctly
    poly = cp2_polytope()
    level = (Fraction(1, 2),)
    case = build_toric(poly, level=level, name="toric-cp2-small")
    batch = sample_level_set(case.scenario, 6, 3)
    for z in batch.points:
        assert abs(case.scenario.moment.f[0].evaluate(z).real - 0.5) < 1e-12
    with pytest.raises(ValidationError):
        build_toric(poly, level=(Fraction(-1),), name="bad")


def test_hyperkahler_exact_data():
    (I4, J4, K4), X, (muI, muJ, muK) = hyperkahler_data()
    assert np.allclose(I4 @ J4, K4)
    assert np.allclose(I4 @ I4, -np.eye(4))
    # tri-Hamiltonian identities symbolically: d mu_A = iota_X omega_A
    from gkw.calculus import exterior_derivative
    from gkw import frames as fr
    rng = np.random.default_rng(2)
    for A, mu in ((I4, muI), (J4, muJ), (K4, muK)):
        for _ in range(5):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            xv = point_to_real(z)
            lhs = fr.one_form_at(exterior_derivative(mu), z).real
            assert np.allclose(lhs, A @ (X @ xv), atol=1e-12)
    # mu_I - mu_J invariant under the circle
    act_field = X
    # symbolic invariance through the torus action object
    from gkw.actions import TorusAction
    act = TorusAction(((1, -1),))
    f = muI - muJ
    assert act.fundamental_field(0).vec.apply_to(f).is_zero
    assert act.fundamental_field(0).vec.apply_to(muK).is_zero


def test_hyperkahler_pair_validity_at_20_samples():
    J1, J2, _, X, _ = hyperkahler_pair()
    E = eta(4)
    assert np.linalg.norm(J1 @ J1 + np.eye(8)) < 1e-10
    assert np.linalg.norm(J2 @ J2 + np.eye(8)) < 1e-10
    assert np.linalg.norm(J1 @ J2 - J2 @ J1) < 1e-10
    G = -J1 @ J2
    Q = G.T @ E
    assert np.linalg.eigvalsh((Q + Q.T) / 2).min() > 1e-10
    case = build_case("hyperkahler-flat")
    batch = sample_level_set(case.scenario, 20, 7)
    for z in batch.points:
        case.scenario.recipe.pair_at(z)   # raises if any residual too large


def test_deformation_scales_are_stored_fractions():
    for name in ("cpn-2", "toric-cp2", "grassmann-2-3", "hirzebruch-1"):
        t = build_case(name).scenario.recipe.t
        assert isinstance(t, Fraction) and 0 < t <= 1


FITTED_SCALES = [
    ("cpn-2", Fraction(1, 2)), ("cpn-3", Fraction(1, 2)), ("cpn-4", Fraction(1, 2)),
    ("grassmann-1-3", Fraction(1, 2)), ("grassmann-2-3", Fraction(1, 2)),
    ("toric-cp2", Fraction(1, 2)), ("toric-blowup1", Fraction(1, 2)),
    ("hirzebruch-1", Fraction(1, 8)), ("hirzebruch-2", Fraction(1, 32))]

# each deformed named case through its public builder with t = None, so
# that the scale fit runs
_FITTING_BUILDERS = {
    "cpn-2": lambda: build_cpn(2),
    "cpn-3": lambda: build_cpn(3),
    "cpn-4": lambda: build_cpn(4),
    "grassmann-1-3": lambda: build_grassmannian(1, 3),
    "grassmann-2-3": lambda: build_grassmannian(2, 3),
    "toric-cp2": lambda: build_toric(cp2_polytope(), name="toric-cp2"),
    "toric-blowup1": lambda: build_toric(cp2_blowup1_polytope(), name="toric-blowup1"),
    "hirzebruch-1": lambda: build_hirzebruch(1),
    "hirzebruch-2": lambda: build_hirzebruch(2),
}


@pytest.mark.parametrize("name, t", FITTED_SCALES)
def test_fitted_deformation_scales(name, t):
    assert build_case(name).scenario.recipe.t == t


@pytest.mark.parametrize("name, t", FITTED_SCALES)
def test_fit_returns_the_recorded_scale(name, t):
    # a named case is built at its recorded t; the fit, rerun here, must
    # return that t, so a change in the fit, the sampler or the validation
    # shows
    fitted = _FITTING_BUILDERS[name]()
    assert fitted.name == name
    assert fitted.scenario.recipe.t == build_case(name).scenario.recipe.t == t


def count_probe_calls(monkeypatch):
    """Count the probe sampling and the probe rounds the scale fit makes."""
    calls = {"sample_level_set": 0, "pairs_once": 0}
    for fname in calls:
        real = getattr(catalog, fname)

        def counting(*args, _fname=fname, _real=real):
            calls[_fname] += 1
            return _real(*args)
        monkeypatch.setattr(catalog, fname, counting)
    return calls


def test_named_cases_are_built_without_a_probe_search(monkeypatch):
    build_case.cache_clear()
    calls = count_probe_calls(monkeypatch)
    for name in catalog_names():
        build_case(name)
    assert calls == {"sample_level_set": 0, "pairs_once": 0}


def test_a_parametric_hirzebruch_name_still_fits_its_scale(monkeypatch):
    build_case.cache_clear()
    calls = count_probe_calls(monkeypatch)
    assert build_case("hirzebruch-3").scenario.recipe.t == Fraction(1, 128)
    assert calls["sample_level_set"] == catalog.PROBE_ROUNDS
    assert calls["pairs_once"] > 0


def test_realified_hyperkahler_maps_df_to_minus_field():
    # the consistent version of the realified identity: J'_1 df = -X, i.e.
    # J'_1(X) = df, on the level set
    case = build_case("hyperkahler-flat")
    scen = case.scenario
    from gkw.calculus import exterior_derivative
    from gkw import frames as fr
    J1m, J2m, _, X, (muI, muJ, muK) = hyperkahler_pair()
    f = muI - muJ
    batch = sample_level_set(scen, 10, 7)
    worst = 0.0
    for z in batch.points:
        pair = scen.recipe.pair_at(z)
        df = fr.one_form_at(exterior_derivative(f), z).real
        xv = point_to_real(z)
        out = pair.J1.J @ np.concatenate([np.zeros(4), df])
        worst = max(worst, np.linalg.norm(out - np.concatenate([-X @ xv, np.zeros(4)])))
    assert worst < 1e-10


def test_realify_connection_choices_agree_on_flat_metric():
    # "metric" and "euclidean" coincide here because the extracted pair
    # metric is the flat one
    from gkw.pipeline import realify
    from gkw.actions import MomentMapPoly
    from gkw.catalog import hyperkahler_pair as hk
    from gkw.pipeline import ConstantPairRecipe, RaySampler, Scenario
    J1, J2, _, X, (muI, muJ, muK) = hk()
    act = __import__("gkw.actions", fromlist=["TorusAction"]).TorusAction(((1, -1),))
    mm = MomentMapPoly((muI - muJ,), (muK,))
    base = ConstantPairRecipe(2, J1, J2)
    scen = Scenario(name="hk", n=2, recipe=base, action=act, moment=mm,
                    level=(Fraction(0),), sampler=RaySampler(muI - muJ, 0.0))
    ra = realify(scen, theta="metric")
    rb = realify(scen, theta="euclidean")
    rng = np.random.default_rng(1)
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert np.allclose(ra.recipe.b_map_at(z), rb.recipe.b_map_at(z), atol=1e-10)
