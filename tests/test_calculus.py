"""Exterior calculus identities and Courant bracket, against frozen
hand-computed values and the independent term-by-term oracle."""
from itertools import combinations

import numpy as np
import pytest

from gkw.calculus import (Form, GeneralizedSection, LMultivector, VectorField,
                          courant_bracket, exterior_derivative, interior_product,
                          lie_derivative, pairing_poly, standard_symplectic_form)
from gkw.frames import real_coordinates
from gkw.poly import QI_HALF, ComplexPolynomial

from generators import (ddy_field, rand_poly, rand_qi, rand_section, rand_section_parts,
                        rand_sparse_poly, rand_sparse_section, real_coframe)
from naive_calculus import (TwoPartSection, naive_courant, naive_d, naive_iota_form, p_add,
                            p_diff, p_mul, p_scale, two_part_pairing_poly,
                            unfolded_courant_bracket)


def to_raw(p):
    return {e: (c.re, c.im) for e, c in p.terms.items()}


def section_to_raw(s):
    return {"vec": {a: to_raw(p) for a, p in s.vec.comps.items()},
            "form": {a: to_raw(p) for (a,), p in s.form.comps.items()}}


def test_exterior_derivative_examples():
    n = 1
    z = ComplexPolynomial.variable(n, 0)
    zb = ComplexPolynomial.variable(n, 0, conjugated=True)
    df = exterior_derivative(z * zb * QI_HALF)
    assert df == Form(n, 1, {(0,): zb * QI_HALF, (1,): z * QI_HALF})
    assert exterior_derivative(Form.frame(n, 0)).is_zero  # d(dz) = 0


def test_d_squared_zero_random():
    rng = np.random.default_rng(5)
    n = 2
    for _ in range(30):
        w = Form(n, 1, {(int(rng.integers(0, 2 * n)),): rand_poly(rng, n, 2, 2)})
        assert exterior_derivative(exterior_derivative(w)).is_zero
    for _ in range(20):
        w = Form(n, 2, {(0, int(rng.integers(1, 2 * n))): rand_poly(rng, n, 2, 2)})
        assert exterior_derivative(exterior_derivative(w)).is_zero


def test_real_frame_exterior_derivative():
    # d(x dy) = dx ^ dy expanded through the fixed frame change
    n = 1
    x, _ = real_coordinates(n)
    dx, dy = real_coframe(n)
    w = Form(n, 1, {k: x * p for k, p in dy.comps.items()})
    assert exterior_derivative(w) == dx.wedge(dy)


def test_interior_product_examples():
    n = 2
    w = Form(n, 2, {(0, 1): ComplexPolynomial.one(n)})  # dz0 ^ dz1
    assert interior_product(VectorField.frame(n, 0), w) == Form(n, 1, {(1,): ComplexPolynomial.one(n)})
    assert interior_product(VectorField.frame(n, 1), Form.frame(n, 0)).is_zero
    # iota_{z0 d/dz1}(dzb0 ^ dz1) = -z0 dzb0
    z0 = ComplexPolynomial.variable(n, 0)
    w2 = Form(n, 2, {(1, 2): -ComplexPolynomial.one(n)})  # dzb0 ^ dz1 in sorted key
    got = interior_product(VectorField(n, {1: z0}), w2)
    assert got == Form(n, 1, {(2,): -z0})
    with pytest.raises(ValueError):
        interior_product(VectorField.frame(n, 0), Form.from_function(z0))


@pytest.mark.parametrize("n", [2, 3])
def test_interior_product_matches_the_raw_oracle(n):
    """The contracted index at every position of every 2- and 3-form key:
    the same keys and terms, in the same order, as ``naive_iota_form``."""
    rng = np.random.default_rng(1910 + n)
    for degree in (2, 3):
        keys = list(combinations(range(2 * n), degree))
        for idx in keys:
            for a in idx:
                X = VectorField(n, {a: rand_poly(rng, n, 3, 2)} | {
                    b: rand_poly(rng, n, 3, 2) for b in range(2 * n) if b != a and rng.random() < 0.3})
                w = Form(n, degree, {idx: rand_poly(rng, n, 3, 2)} | {
                    k: rand_poly(rng, n, 3, 2) for k in keys if k != idx and rng.random() < 0.3})
                got = interior_product(X, w)
                want = naive_iota_form({b: to_raw(p) for b, p in X.comps.items()},
                                       {k: to_raw(p) for k, p in w.comps.items()})
                assert (got.n, got.degree) == (n, degree - 1)
                assert [(k, to_raw(p)) for k, p in got.comps.items()] == list(want.items())


def test_interior_product_square_zero_on_two_forms():
    rng = np.random.default_rng(8)
    n = 2
    for _ in range(20):
        X = VectorField(n, {int(rng.integers(0, 2 * n)): rand_poly(rng, n)})
        w = Form(n, 2, {(0, 2): rand_poly(rng, n), (1, 3): rand_poly(rng, n)})
        assert interior_product(X, interior_product(X, w)).is_zero


def test_lie_derivative_examples():
    n = 1
    x, _ = real_coordinates(n)
    dx, dy = real_coframe(n)
    X = VectorField(n, {a: x * p for a, p in ddy_field(n, 0).comps.items()})
    assert lie_derivative(X, dy) == dx
    n = 2
    z0 = ComplexPolynomial.variable(n, 0)
    assert lie_derivative(VectorField.frame(n, 0), Form(n, 1, {(1,): z0})) \
        == Form(n, 1, {(1,): ComplexPolynomial.one(n)})


def test_lie_derivative_naturality():
    # L_X df = d(Xf)
    rng = np.random.default_rng(11)
    n = 2
    for _ in range(15):
        X = VectorField(n, {int(rng.integers(0, 2 * n)): rand_poly(rng, n, 2, 2)})
        f = rand_poly(rng, n, 2, 2)
        assert lie_derivative(X, exterior_derivative(f)) == exterior_derivative(X.apply_to(f))


def test_cartan_identity_exact_random():
    rng = np.random.default_rng(13)
    n = 2
    for _ in range(25):
        X = VectorField(n, {int(rng.integers(0, 2 * n)): rand_poly(rng, n, 2, 2)})
        w = Form(n, 1, {(int(rng.integers(0, 2 * n)),): rand_poly(rng, n, 2, 2)})
        lhs = lie_derivative(X, w)
        rhs = exterior_derivative(interior_product(X, w)) + interior_product(X, exterior_derivative(w))
        assert lhs == rhs


def test_courant_worked_examples():
    n = 1
    x, _ = real_coordinates(n)
    dx, dy = real_coframe(n)
    X = VectorField(n, {a: x * p for a, p in ddy_field(n, 0).comps.items()})
    s1 = GeneralizedSection.from_vector(X)
    br = courant_bracket(s1, GeneralizedSection.from_form(dy))
    assert br.vec.is_zero and br.form == dx.scale(QI_HALF)
    assert courant_bracket(s1, GeneralizedSection.from_form(dx)).is_zero
    n = 2
    assert courant_bracket(GeneralizedSection.frame(n, 0),
                           GeneralizedSection.frame(n, 1)).is_zero


def test_courant_antisymmetry_200_seeded_pairs():
    rng = np.random.default_rng(2024)
    n = 2
    for _ in range(200):
        s1 = rand_section(rng, n)
        s2 = rand_section(rng, n)
        br12 = courant_bracket(s1, s2)
        br21 = courant_bracket(s2, s1)
        assert (br12 + br21).is_zero


def test_courant_conjugation_equivariance():
    rng = np.random.default_rng(77)
    n = 2
    for _ in range(40):
        s1 = rand_section(rng, n)
        s2 = rand_section(rng, n)
        lhs = courant_bracket(s1, s2).conjugate()
        rhs = courant_bracket(s1.conjugate(), s2.conjugate())
        assert lhs == rhs


def test_courant_oracle_equivalence_50_seeded():
    rng = np.random.default_rng(424242)
    n = 2
    for _ in range(50):
        s1 = rand_section(rng, n)
        s2 = rand_section(rng, n)
        got = section_to_raw(courant_bracket(s1, s2))
        want = naive_courant(section_to_raw(s1), section_to_raw(s2), n)
        assert got["vec"] == {a: p for a, p in want["vec"].items()}
        assert got["form"] == {a: p for a, p in want["form"].items()}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sparse_coefficients_match_the_raw_oracles(n):
    """Coefficients missing some of the z or zbar variables, whose
    derivatives along those directions are skipped: d of functions and
    1-forms, X(f) and the Courant bracket equal the term-by-term oracles."""
    rng = np.random.default_rng(2650 + n)
    for _ in range(30):
        f = rand_sparse_poly(rng, n)
        s1, s2 = rand_sparse_section(rng, n), rand_sparse_section(rng, n)
        assert {b: to_raw(p) for (b,), p in exterior_derivative(f).comps.items()} \
            == naive_d(to_raw(f), n)
        raw_form = {b: to_raw(p) for (b,), p in s1.form.comps.items()}
        want = {}
        for a, b in combinations(range(2 * n), 2):
            c = p_add(p_diff(raw_form.get(b, {}), a),
                      p_scale(p_diff(raw_form.get(a, {}), b), (-1, 0)))
            if c:
                want[(a, b)] = c
        got = {k: to_raw(p) for k, p in exterior_derivative(s1.form).comps.items()}
        assert got == want
        want = {}
        for a, p in s1.vec.comps.items():
            want = p_add(want, p_mul(to_raw(p), p_diff(to_raw(f), a)))
        assert to_raw(s1.vec.apply_to(f)) == want
        got = section_to_raw(courant_bracket(s1, s2))
        want = naive_courant(section_to_raw(s1), section_to_raw(s2), n)
        assert got == want


def test_courant_matches_the_unfolded_formula_200_seeded_pairs():
    # the Cartan-folded form part equals L_X b - L_Y a - d(iota_X b - iota_Y a)/2
    rng = np.random.default_rng(1729)
    for k in range(200):
        n = 1 + k % 3
        s1 = rand_section(rng, n, max_terms=3, max_deg=2)
        s2 = rand_section(rng, n, max_terms=3, max_deg=2)
        assert courant_bracket(s1, s2) == unfolded_courant_bracket(s1, s2)


def test_courant_matches_the_unfolded_formula_on_every_catalog_closure_pair():
    from gkw.catalog import build_case, catalog_names, closure_families
    pairs = 0
    for name in catalog_names():
        for fam in closure_families(build_case(name)):
            secs = fam.sections
            for i in range(len(secs)):
                for j in range(i + 1, len(secs)):
                    assert (courant_bracket(secs[i], secs[j])
                            == unfolded_courant_bracket(secs[i], secs[j])), (name, fam.name, i, j)
                    pairs += 1
    assert pairs >= 345


def test_pairing_polynomial():
    n = 1
    s = GeneralizedSection(VectorField.frame(n, 0), Form.frame(n, 0))
    assert pairing_poly(s, s) == ComplexPolynomial.one(n)


def test_reality_check_exact():
    n = 1
    X = VectorField(n, {0: ComplexPolynomial.variable(n, 0, conjugated=True),
                        1: ComplexPolynomial.variable(n, 0)})
    s = GeneralizedSection.from_vector(X)
    assert s.is_real
    s2 = GeneralizedSection.from_vector(VectorField.frame(n, 0))
    assert not s2.is_real
    assert GeneralizedSection.zero(n).is_real


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_section_matches_the_two_part_oracle(n):
    rng = np.random.default_rng(40 + n)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for _ in range(25):
        parts1, parts2 = rand_section_parts(rng, n), rand_section_parts(rng, n)
        s1, s2 = GeneralizedSection(*parts1), GeneralizedSection(*parts2)
        o1, o2 = TwoPartSection(*parts1), TwoPartSection(*parts2)
        c = rand_qi(rng)
        cases = ((s1, o1), (s1 + s2, o1 + o2), (s1 - s2, o1 - o2), (-s1, -o1),
                 (s1.scale(c), o1.scale(c)), (s1.conjugate(), o1.conjugate()),
                 (s1 + s1.conjugate(), o1 + o1.conjugate()), (s1 - s1, o1 - o1))
        for got, want in cases:
            assert type(got) is GeneralizedSection
            assert (got.vec, got.form) == (want.vec, want.form)
            assert got.is_zero == want.is_zero
            assert got.is_real == want.is_real
            assert np.array_equal(got.evaluate(z), want.evaluate(z))
        assert (s1 == s2) == (o1 == o2)
        assert pairing_poly(s1, s2) == two_part_pairing_poly(o1, o2)
        assert pairing_poly(s2, s1) == two_part_pairing_poly(o2, o1)
        assert pairing_poly(s1, s1) == two_part_pairing_poly(o1, o1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_section_views_are_typed_and_rebuild_the_section(n):
    rng = np.random.default_rng(50 + n)
    for _ in range(25):
        vec, form = rand_section_parts(rng, n)
        s = GeneralizedSection(vec, form)
        assert isinstance(s, LMultivector) and s.degree == 1
        assert type(s.vec) is VectorField and type(s.form) is Form
        assert s.vec == vec and s.form == form
        assert GeneralizedSection(s.vec, s.form) == s
        assert s.as_section() == s
        with pytest.raises(AttributeError):
            s.vec = vec
    for a in range(4 * n):
        want = (GeneralizedSection.from_vector(VectorField.frame(n, a)) if a < 2 * n
                else GeneralizedSection.from_form(Form.frame(n, a - 2 * n)))
        assert GeneralizedSection.frame(n, a) == want


def test_standard_symplectic_matches_real_frame():
    # omega_std = sum dy^dx written in z/zbar equals the wedge of the
    # real-frame forms
    n = 2
    cov = real_coframe(n)
    w = Form.zero(n, 2)
    for j in range(n):
        w = w + cov[2 * j + 1].wedge(cov[2 * j])
    assert w == standard_symplectic_form(n)
