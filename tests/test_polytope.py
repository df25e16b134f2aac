"""Polytope data, kernel weights, and the exact feasibility search."""
from fractions import Fraction

import pytest

from gkw.polytope import (PolytopeSpec, cp1xcp1_blowup4_polytope,
                          cp2_blowup1_polytope, cp2_polytope, find_alpha,
                          hirzebruch_polytope)

from generators import interior_point, slacks


def test_primitive_normal_enforced():
    with pytest.raises(ValueError):
        PolytopeSpec(((2, 0), (0, -1), (1, 1)), (0, 0, 1))


def test_redundant_facet_rejected_at_construction():
    # x + y <= 1 only touches the square [0, 1/2]^2 at its corner (1/2, 1/2)
    with pytest.raises(ValueError, match="facet 4 "):
        PolytopeSpec(((-1, 0), (0, -1), (1, 0), (0, 1), (1, 1)),
                     (0, 0, Fraction(1, 2), Fraction(1, 2), 1))


@pytest.mark.parametrize("make", [cp2_polytope, cp2_blowup1_polytope,
                                  lambda: hirzebruch_polytope(1),
                                  lambda: hirzebruch_polytope(2),
                                  cp1xcp1_blowup4_polytope])
def test_stock_polytopes_construct(make):
    poly = make()
    assert all(len(poly.facet_vertices(j)) >= poly.d for j in range(poly.num_facets))


def test_cp2_kernel_and_vertices():
    poly = cp2_polytope()
    assert poly.kernel_weights() == ((1, 1, 1),)
    verts = poly.vertices()
    assert sorted(tuple(v) for v in verts) == [(0, 0), (0, 1), (1, 0)]
    x0 = interior_point(poly)
    assert poly.contains(x0)
    assert all(s > 0 for s in slacks(poly, x0))


def test_blowup1_kernel():
    poly = cp2_blowup1_polytope()
    W = poly.kernel_weights()
    assert len(W) == 2
    for row in W:
        assert sum(w * e for w, e in zip(row, [n[0] for n in poly.normals])) == 0
        assert sum(w * e for w, e in zip(row, [n[1] for n in poly.normals])) == 0


def test_default_level_is_slack_invariant():
    poly = hirzebruch_polytope(2)
    W = poly.kernel_weights()
    xi = poly.default_level()
    for x in (interior_point(poly), poly.vertices()[0]):
        s = slacks(poly, x)
        for row, want in zip(W, xi):
            assert sum(Fraction(w) * sv for w, sv in zip(row, s)) == want


def test_find_alpha_cp2():
    res = find_alpha(cp2_polytope())
    assert res.feasible
    assert res.pair == (0, 1)
    assert res.alpha == (Fraction(1), Fraction(1))
    assert res.exponents == (0, 0, 2)


def test_find_alpha_blowup1():
    res = find_alpha(cp2_blowup1_polytope())
    assert res.feasible and res.pair == (0, 1)
    assert res.exponents == (0, 0, 2, 1)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_find_alpha_hirzebruch(k):
    res = find_alpha(hirzebruch_polytope(k))
    assert res.feasible
    assert res.alpha == (Fraction(1), Fraction(1))
    assert res.exponents == (0, 0, 1, k + 1)


def test_find_alpha_blowup4_infeasible_every_pair():
    poly = cp1xcp1_blowup4_polytope()
    res = find_alpha(poly)
    assert not res.feasible
    npairs = poly.num_facets * (poly.num_facets - 1) // 2
    assert len(res.certificates) == npairs
    pairs = {c["pair"] for c in res.certificates}
    assert len(pairs) == npairs
    for c in res.certificates:
        assert c["reason"]


def test_blowup4_polytope_is_the_octagon():
    poly = cp1xcp1_blowup4_polytope()
    assert len(poly.vertices()) == 8
