"""The one expansion against the engine's earlier per-type copies
(``naive_calculus``, ``naive_deformation``): conjugation, evaluation, repr,
frame elements, wedge, from_sections, d, d_L and the bivector products of
the deformation agree exactly, down to the order of the keys and of each
coefficient's terms, on seeded random fields, forms, sections and
bivectors."""
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import naive_calculus as old
import naive_deformation
from gkw.calculus import (Form, GeneralizedSection, LMultivector, VectorField,
                          exterior_derivative)
from gkw.deformation import DeformationBivector
from gkw.poly import QI

from generators import from_sections, rand_poly, rand_qi, rand_section

NS = [1, 2, 3, 4]


def assert_same(got, want):
    """Same type, n, degree, key order, and per key the same terms in the same order."""
    assert type(got) is type(want)
    assert (got.n, got.degree) == (want.n, want.degree)
    assert_same_comps(got.comps, want.comps)


def assert_same_comps(got, want):
    assert list(got) == list(want)
    for key, p in got.items():
        assert list(p.terms.items()) == list(want[key].terms.items())


def rand_field(rng, n):
    return VectorField(n, {a: rand_poly(rng, n, 3, 2) for a in range(2 * n) if rng.random() < 0.6})


def rand_form(rng, n, degree):
    return Form(n, degree, {idx: rand_poly(rng, n, 3, 2)
                            for idx in combinations(range(2 * n), degree) if rng.random() < 0.6})


def rand_multivector(rng, n, degree):
    keys = list(combinations(range(4 * n), degree))
    return LMultivector(n, degree, {keys[int(i)]: rand_poly(rng, n, 3, 2)
                                    for i in rng.integers(0, len(keys), 4)})


def rand_bivector(rng, n, max_terms=3, max_deg=2):
    pairs = list(combinations(range(n), 2))
    return DeformationBivector(
        n, *({ij: rand_poly(rng, n, max_terms, max_deg) for ij in pairs if rng.random() < 0.7}
             for _ in range(2)))


def rand_point(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.mark.parametrize("n", NS)
def test_conjugate_matches_the_per_type_copies(n):
    rng = np.random.default_rng(1800 + n)
    for _ in range(15):
        X = rand_field(rng, n)
        assert_same(X.conjugate(), old.field_conjugate(X))
        for k in range(4):
            w = rand_form(rng, n, k)
            assert_same(w.conjugate(), old.form_conjugate(w))
        s = rand_section(rng, n, 3, 2)
        assert_same(s.conjugate(), old.section_conjugate(s))
        assert s.conjugate().conjugate() == s


def test_conjugate_of_a_deformation_is_a_multivector():
    rng = np.random.default_rng(1805)
    for n in (2, 3):
        eps = rand_bivector(rng, n)
        c = eps.conjugate()
        assert type(c) is LMultivector
        assert all(n <= i < j < 2 * n or 2 * n <= i < j < 3 * n for i, j in c.comps)
        assert c.conjugate() == eps.to_multivector()


@pytest.mark.parametrize("n", NS)
def test_evaluate_matches_the_per_type_copies(n):
    rng = np.random.default_rng(1810 + n)
    for _ in range(15):
        z = rand_point(rng, n)
        X, w, s = rand_field(rng, n), rand_form(rng, n, 1), rand_section(rng, n, 3, 2)
        assert np.array_equal(X.evaluate(z), old.field_evaluate(X, z))
        assert np.array_equal(w.evaluate(z), old.form_evaluate(w, z))
        assert np.array_equal(s.evaluate(z), old.section_evaluate(s, z))
    for k in (0, 2):
        with pytest.raises(ValueError):
            rand_form(rng, n, k).evaluate(rand_point(rng, n))


@pytest.mark.parametrize("n", NS)
def test_repr_matches_the_per_type_copies(n):
    rng = np.random.default_rng(1820 + n)
    for _ in range(10):
        X = rand_field(rng, n)
        assert repr(X) == old.field_repr(X)
        for k in range(4):
            w = rand_form(rng, n, k)
            assert repr(w) == old.form_repr(w)
        s = rand_section(rng, n, 3, 2)
        eps = rand_bivector(rng, n)
        assert repr(s) == old.multivector_repr(s)
        assert repr(eps) == old.multivector_repr(eps)
        for k in (1, 2, 3):
            A = rand_multivector(rng, n, k)
            assert repr(A) == old.multivector_repr(A)
    assert repr(VectorField.zero(n)) == repr(Form.zero(n, 2)) == repr(LMultivector.zero(n, 2)) == "0"


@pytest.mark.parametrize("n", NS)
def test_frame_matches_the_per_type_copies(n):
    for a in range(2 * n):
        assert_same(VectorField.frame(n, a), old.field_frame(n, a))
        assert_same(Form.frame(n, a), old.form_frame(n, a))
    for a in range(4 * n):
        assert_same(GeneralizedSection.frame(n, a), old.section_frame(n, a))
        assert_same(LMultivector.frame(n, a), old.section_frame(n, a))
        assert_same(DeformationBivector.frame(n, a), old.section_frame(n, a))


@pytest.mark.parametrize("n", NS)
def test_wedge_matches_the_form_copy(n):
    rng = np.random.default_rng(1830 + n)
    for _ in range(10):
        for p in range(4):
            for q in range(4 - p):
                w1, w2 = rand_form(rng, n, p), rand_form(rng, n, q)
                assert_same(w1.wedge(w2), old.form_wedge(w1, w2))


@pytest.mark.parametrize("n", NS)
def test_from_sections_matches_the_product_loop(n):
    rng = np.random.default_rng(1840 + n)
    for _ in range(10):
        for k in range(4):
            factors = [rand_section(rng, n, 2, 1) for _ in range(k)]
            coeff = rand_poly(rng, n, 3, 2) if rng.random() < 0.7 else int(rng.integers(-3, 4))
            got = from_sections(n, coeff, factors)
            assert_same(got, old.from_sections(n, coeff, factors))
    s = GeneralizedSection.frame(n, 0)
    assert from_sections(n, 1, [s, s]).is_zero


@pytest.mark.parametrize("n", NS)
def test_exterior_derivative_matches_the_form_loop(n):
    rng = np.random.default_rng(1850 + n)
    for _ in range(10):
        f = rand_poly(rng, n, 3, 2)
        assert_same(exterior_derivative(f), old.exterior_derivative_per_type(f))
        for k in range(4):
            w = rand_form(rng, n, k)
            assert_same(exterior_derivative(w), old.exterior_derivative_per_type(w))


@pytest.mark.parametrize("n", NS)
def test_algebroid_differential_matches_the_bivector_loop(n):
    rng = np.random.default_rng(1860 + n)
    for _ in range(10):
        eps = rand_bivector(rng, n)
        assert_same(eps.algebroid_differential(), old.algebroid_differential(eps))


@pytest.mark.parametrize("n", NS)
def test_bivector_products_match_the_two_half_copies(n):
    """from_vector_fields and pullback_linear sign their keys through the
    one signed merge; the two-half copies multiply by +-1."""
    rng = np.random.default_rng(1870 + n)
    for _ in range(6):
        Y, Z = (VectorField(n, {a: rand_poly(rng, n, 3, 2) for a in range(n) if rng.random() < 0.7})
                for _ in range(2))
        hol, _ = naive_deformation.from_vector_fields(Y, Z)
        assert_same_comps(dict(DeformationBivector.from_vector_fields(Y, Z).hol), hol)
        # unit upper-triangular plus a diagonal phase: invertible over QI
        A = [[QI(1) if i == j else (rand_qi(rng) if i < j else QI(0)) for j in range(n)]
             for i in range(n)]
        A[0][0] = QI(0, 1)
        A[n - 1][n - 1] = A[n - 1][n - 1] * QI(Fraction(3, 2))
        eps = rand_bivector(rng, n, 2, 1)
        got = eps.pullback_linear(A)
        want = naive_deformation.pullback_linear(n, (dict(eps.hol), dict(eps.form)), A)
        assert_same_comps(dict(got.hol), want[0])
        assert_same_comps(dict(got.form), want[1])


def test_generalized_section_zero_takes_the_common_signature():
    for n in NS:
        z = GeneralizedSection.zero(n, 1)
        assert type(z) is GeneralizedSection and z.is_zero and z.degree == 1
        assert z == GeneralizedSection.zero(n) == GeneralizedSection.frame(n, 0) - \
            GeneralizedSection.frame(n, 0)
        for degree in (0, 2):
            with pytest.raises(ValueError):
                GeneralizedSection.zero(n, degree)


def test_vector_field_zero_takes_the_common_signature():
    for n in NS:
        z = VectorField.zero(n, 1)
        assert type(z) is VectorField and z.is_zero and z.degree == 1
        assert z == VectorField.zero(n) == VectorField.frame(n, 0) - VectorField.frame(n, 0)
        for degree in (0, 2):
            with pytest.raises(ValueError):
                VectorField.zero(n, degree)
