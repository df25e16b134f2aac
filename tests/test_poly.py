"""Exact coefficient-ring laws and Wirtinger calculus."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkw.poly import QI, ComplexPolynomial, LinearSubstitution

from generators import rand_sparse_poly
from naive_calculus import p_diff

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
qis = st.builds(QI, fractions, fractions)


def poly_strategy(n=2, max_terms=3, max_deg=2):
    exps = st.tuples(*[st.integers(0, max_deg) for _ in range(2 * n)])
    return st.dictionaries(exps, qis, max_size=max_terms).map(
        lambda d: ComplexPolynomial(n, d))


@settings(max_examples=60, deadline=None)
@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_laws_exact(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p + (-p) == ComplexPolynomial.zero(2)


@settings(max_examples=60, deadline=None)
@given(poly_strategy())
def test_conjugation_involution(p):
    assert p.conjugate().conjugate() == p


@settings(max_examples=40, deadline=None)
@given(poly_strategy(), poly_strategy())
def test_conjugation_is_ring_map(p, q):
    assert (p * q).conjugate() == p.conjugate() * q.conjugate()
    assert (p + q).conjugate() == p.conjugate() + q.conjugate()


def derived_polys(p, q):
    """Every ring, conjugation and Wirtinger result of p and q, with the
    sums, differences and products that cancel terms."""
    n = p.n
    out = [p + q, p - q, p + (-p), p - p, -p, p * q, (p + q) * (p - q), p * 0, p * QI(0, 2),
           p + 3, (p + q) - q, p.conjugate(), (p * q.conjugate()).conjugate()]
    out += [r.wirtinger(j, holomorphic=h) for r in (p, p * q) for j in range(n)
            for h in (True, False)]
    return out


def test_canonical_form_no_zero_coefficients():
    n = 2
    p = ComplexPolynomial(n, {(1, 0, 0, 0): QI(1)}) - ComplexPolynomial.variable(n, 0)
    assert p.is_zero and p.terms == {}
    z0, z1 = ComplexPolynomial.variable(n, 0), ComplexPolynomial.variable(n, 1)
    assert (z0 + z1) * (z0 - z1) == ComplexPolynomial(n, {(2, 0, 0, 0): 1, (0, 2, 0, 0): -1})
    # the results built without the public constructor's checks are the
    # public constructor's results, with no zero coefficient
    rng = np.random.default_rng(2600)
    for n in (1, 2, 3):
        for _ in range(40):
            p, q = rand_sparse_poly(rng, n), rand_sparse_poly(rng, n)
            for r in derived_polys(p, q) + derived_polys(p, p * QI(-1)):
                assert r == ComplexPolynomial(r.n, r.terms)
                assert all(r.terms.values())


def used_positions(p):
    return sum(1 << q for q in range(2 * p.n) if any(e[q] for e in p.terms))


def test_mask_is_the_exponent_positions_in_use():
    n = 2
    zb1 = ComplexPolynomial.variable(n, 1, conjugated=True)
    assert zb1.mask == 0b1000
    assert (ComplexPolynomial.variable(n, 0) * zb1 + 5).mask == 0b1001
    assert ComplexPolynomial.const(n, 2).mask == 0 and ComplexPolynomial.zero(n).mask == 0
    rng = np.random.default_rng(2601)
    for n in (1, 2, 3):
        for _ in range(40):
            p, q = rand_sparse_poly(rng, n), rand_sparse_poly(rng, n)
            for r in [p, q] + derived_polys(p, q):
                assert r.mask == used_positions(r)


def test_wirtinger_worked_examples():
    n = 2
    z0 = ComplexPolynomial.variable(n, 0)
    zb1 = ComplexPolynomial.variable(n, 1, conjugated=True)
    assert (z0 * z0).wirtinger(0) == z0 * 2
    assert (z0 * z0).wirtinger(0, holomorphic=False).is_zero
    assert (z0 * zb1 + ComplexPolynomial.const(n, 3)).wirtinger(0) == zb1


def test_wirtinger_leibniz():
    n = 2
    p = ComplexPolynomial.variable(n, 0) * ComplexPolynomial.variable(n, 1, conjugated=True)
    q = ComplexPolynomial.variable(n, 0, conjugated=True) ** 2 + ComplexPolynomial.one(n)
    left = (p * q).wirtinger(0, holomorphic=False)
    right = p.wirtinger(0, holomorphic=False) * q + p * q.wirtinger(0, holomorphic=False)
    assert left == right


@pytest.mark.parametrize("n", [1, 2, 3])
def test_wirtinger_matches_the_raw_oracle(n):
    """Non-real coefficients, exponents up to 3, every one of the 2n
    directions: the same terms in the same order as ``p_diff``, and zero
    exactly along the directions outside the mask (sparse polynomials miss
    some of the z and zbar variables)."""
    rng = np.random.default_rng(1900 + n)
    polys = []
    for _ in range(25):
        terms = {}
        for _ in range(int(rng.integers(1, 7))):
            e = tuple(int(rng.integers(0, 4)) for _ in range(2 * n))
            terms[e] = QI(Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 5))),
                          Fraction(int(rng.choice([-3, -2, -1, 1, 2, 3])), int(rng.integers(1, 5))))
        polys.append(ComplexPolynomial(n, terms))
    polys += [rand_sparse_poly(rng, n) for _ in range(40)]
    for p in polys:
        raw = {e: (c.re, c.im) for e, c in p.terms.items()}
        for idx in range(2 * n):
            got = p.wirtinger(idx % n, holomorphic=idx < n)
            assert [(e, (c.re, c.im)) for e, c in got.terms.items()] == list(p_diff(raw, idx).items())
            assert got.is_zero == (not p.mask >> idx & 1)


def test_evaluate_matches_float_arithmetic():
    n = 2
    p = (ComplexPolynomial.variable(n, 0) ** 2
         * ComplexPolynomial.variable(n, 1, conjugated=True)
         + ComplexPolynomial.const(n, QI(Fraction(1, 2), Fraction(-3))))
    z = np.array([0.3 + 0.7j, -1.1 + 0.2j])
    want = z[0] ** 2 * np.conj(z[1]) + (0.5 - 3j)
    assert abs(p.evaluate(z) - want) < 1e-14


def _evaluate_term_by_term(p, z):
    """Reference evaluation: every coefficient converted at the call, every
    factor of every term in the order z_1, zbar_1, z_2, zbar_2, ..."""
    zb = [complex(w).conjugate() for w in z]
    total = 0j
    for e, c in p.terms.items():
        val = c.to_complex()
        for j in range(p.n):
            if e[j]:
                val *= complex(z[j]) ** e[j]
            if e[p.n + j]:
                val *= zb[j] ** e[p.n + j]
        total += val
    return total


def _bits(c):
    return c.real.hex(), c.imag.hex()


coords = st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False)


@settings(max_examples=80, deadline=None)
@given(poly_strategy(n=3, max_terms=5, max_deg=3),
       st.lists(st.tuples(coords, coords, coords), min_size=1, max_size=3))
def test_compiled_evaluate_is_bit_identical_to_term_by_term(p, points):
    for pt in points:
        for z in (np.array(pt, dtype=complex), list(pt)):
            got = p.evaluate(z)     # the first call compiles, later ones reuse
            want = _evaluate_term_by_term(p, z)
            assert got == want
            assert _bits(got) == _bits(want)


def test_substitute_linear_composes():
    n = 2
    p = (ComplexPolynomial.variable(n, 0)
         * ComplexPolynomial.variable(n, 1, conjugated=True))
    A = [[QI(0), QI(1)], [QI(-1), QI(0)]]
    ps = p.substitute_linear(A)
    z = np.array([0.4 + 0.1j, -0.3 + 0.9j])
    Az = np.array([z[1], -z[0]])
    assert abs(ps.evaluate(z) - p.evaluate(Az)) < 1e-14


@settings(max_examples=30, deadline=None)
@given(poly_strategy(n=2, max_terms=3, max_deg=2))
def test_pow_is_repeated_multiplication(p):
    want = ComplexPolynomial.one(p.n)
    for k in range(7):
        assert p ** k == want
        want = want * p


@settings(max_examples=30, deadline=None)
@given(st.lists(poly_strategy(n=2, max_terms=4, max_deg=3), min_size=1, max_size=4),
       st.lists(qis, min_size=4, max_size=4))
def test_shared_substitution_matches_one_per_polynomial(polys, entries):
    A = [entries[:2], entries[2:]]
    sub = LinearSubstitution(2, A)
    for p in polys:
        shared = p.substitute_linear(sub)
        alone = p.substitute_linear(A)
        assert shared == alone
        assert list(shared.terms) == list(alone.terms)


# -- zero-aware Gaussian-rational arithmetic --------------------------------

parts = st.one_of(st.integers(-5, 5), fractions).filter(lambda v: v != 0)


def _shapes(re, im):
    """Zero, real only, imaginary only and general, from nonzero parts."""
    return [QI(0, 0), QI(re, 0), QI(0, im), QI(re, im)]


def _parts(v):
    return (v.re, v.im) if isinstance(v, QI) else (Fraction(v), Fraction(0))


def _four_product_formula(op, u, v):
    (a, b), (c, d) = _parts(u), _parts(v)
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    return a * c - b * d, a * d + b * c


@settings(max_examples=100, deadline=None)
@given(parts, parts, parts, parts, st.integers(-5, 5), fractions)
def test_qi_arithmetic_equals_the_four_product_formula(a, b, c, d, k, q):
    # every shape against every shape, a bare int or Fraction, and operands
    # made from x so that parts cancel to 0: x - x, x + (-x), x * conj(x)
    # and x * (im + re i)
    ops = {"+": lambda u, v: u + v, "-": lambda u, v: u - v, "*": lambda u, v: u * v}
    for x in _shapes(a, b):
        for y in _shapes(c, d) + [k, q, x, -x, x.conjugate(), QI(x.im, x.re)]:
            for op, f in ops.items():
                for u, v in ((x, y), (y, x)):
                    got = f(u, v)
                    assert isinstance(got, QI)
                    assert type(got.re) is Fraction and type(got.im) is Fraction
                    want = _four_product_formula(op, u, v)
                    assert (got.re, got.im) == want
                    assert got == QI(*want) and hash(got) == hash(QI(*want))
        assert not (x - x) and not (x + (-x))
        assert (x * x.conjugate()).im == 0 and (x * QI(x.im, x.re)).re == 0


def test_qi_exactness_guard():
    with pytest.raises(TypeError):
        QI.of(0.5 + 0j)
