"""Schouten bracket, algebroid differential, Maurer-Cartan certificates."""
from fractions import Fraction

import numpy as np
import pytest

from gkw.calculus import (GeneralizedSection, VectorField, courant_bracket,
                          interior_product, pairing_poly, standard_symplectic_form)
from gkw.deformation import DeformationBivector, LMultivector, schouten_bracket
from gkw.poly import QI, ComplexPolynomial

import naive_deformation
from generators import (from_sections, group_element_exact, rand_lbar_section, rand_poly,
                        rand_qi, rand_section, type_of)
from naive_calculus import expand_decomposable, naive_schouten, p_add, p_diff, p_scale
from test_calculus import section_to_raw, to_raw


def test_schouten_constant_bivector_squares_to_zero():
    n = 2
    A = LMultivector(n, 2, {(0, 1): ComplexPolynomial.one(n)})
    assert schouten_bracket(A, A).is_zero


def test_schouten_holomorphic_in_other_coords_vanishes():
    # [F d0^d1, G d0^d1] = 0 when F, G depend only on z2.. (the quotient
    # closure computation)
    n = 3
    F = ComplexPolynomial.variable(n, 2) ** 2
    G = ComplexPolynomial.variable(n, 2) + ComplexPolynomial.const(n, 5)
    A = LMultivector(n, 2, {(0, 1): F})
    B = LMultivector(n, 2, {(0, 1): G})
    assert schouten_bracket(A, B).is_zero


def test_schouten_repeated_factor_collapse():
    # [z0 d0^d1, z0 d0^d1] = 0: the only surviving term carries d1^d0^d1
    n = 2
    A = LMultivector(n, 2, {(0, 1): ComplexPolynomial.variable(n, 0)})
    assert schouten_bracket(A, A).is_zero


def test_schouten_degree_one_reduces_to_courant():
    rng = np.random.default_rng(31)
    n = 2
    for _ in range(20):
        s1 = rand_lbar_section(rng, n)
        s2 = rand_lbar_section(rng, n)
        A = from_sections(n, ComplexPolynomial.one(n), [s1])
        B = from_sections(n, ComplexPolynomial.one(n), [s2])
        got = schouten_bracket(A, B).as_section()
        want = courant_bracket(s1, s2)
        assert got == want


def test_schouten_function_bracket():
    n = 2
    f = ComplexPolynomial.variable(n, 0) * ComplexPolynomial.variable(n, 1)
    Y = from_sections(n, ComplexPolynomial.one(n), [GeneralizedSection.frame(n, 0)])
    F = LMultivector.from_function(f)
    got = schouten_bracket(Y, F)
    assert got.terms[()] == ComplexPolynomial.variable(n, 1)
    assert schouten_bracket(F, Y).terms[()] == -ComplexPolynomial.variable(n, 1)


def test_schouten_oracle_equivalence_50_seeded():
    rng = np.random.default_rng(515151)
    n = 2
    for _ in range(50):
        decs_a = [(rand_poly(rng, n, 1, 1), [rand_lbar_section(rng, n),
                                             rand_lbar_section(rng, n)])]
        decs_b = [(rand_poly(rng, n, 1, 1), [rand_lbar_section(rng, n),
                                             rand_lbar_section(rng, n)])]
        A = LMultivector.zero(n, 2)
        for c, fs in decs_a:
            A = A + from_sections(n, c, fs)
        B = LMultivector.zero(n, 2)
        for c, fs in decs_b:
            B = B + from_sections(n, c, fs)
        got = schouten_bracket(A, B)
        raw_a = [(to_raw(c), [section_to_raw(s) for s in fs]) for c, fs in decs_a]
        raw_b = [(to_raw(c), [section_to_raw(s) for s in fs]) for c, fs in decs_b]
        want = naive_schouten(raw_a, raw_b, n)
        assert {k: to_raw(p) for k, p in got.terms.items()} == want


def _frame_decomposables(M):
    """M's stored terms as the oracle's decomposables: each coefficient on
    the first of its constant frame sections."""
    n = M.n
    return [(to_raw(c), [section_to_raw(GeneralizedSection.frame(n, a)) for a in idx])
            for idx, c in M.terms.items()]


def _random_multivector(rng, n, degree):
    """c * s_1 ^ ... ^ s_k for general (non-isotropic) random sections."""
    return from_sections(n, rand_poly(rng, n, 1, 1),
                         [rand_section(rng, n, 1) for _ in range(degree)])


def _pairs_first_factor(A, B):
    """Whether some term pair reaches <e_a, e_b> != 0 in the frame Leibniz
    rule: a frame of one term against the first frame of the other."""
    two_n = 2 * A.n
    return any(abs(a - idxB[0]) == two_n or abs(idxA[0] - b) == two_n
               for idxA in A.terms for idxB in B.terms
               for a in idxA for b in idxB)


@pytest.mark.parametrize("p, q", [(1, 2), (2, 1), (2, 2), (1, 3), (3, 2)])
def test_schouten_oracle_general_sections(p, q):
    # general sections pair nontrivially, so the <e_a, e_b>(g df - f dg)
    # part of the frame Leibniz rule runs; the catalog deformations lie in
    # an isotropic bundle and never reach it
    rng = np.random.default_rng(100 * p + q)
    n = 2
    paired = False
    for _ in range(3):
        A = _random_multivector(rng, n, p)
        B = _random_multivector(rng, n, q)
        paired = paired or _pairs_first_factor(A, B)
        got = schouten_bracket(A, B)
        want = naive_schouten(_frame_decomposables(A), _frame_decomposables(B), n)
        assert {k: to_raw(c) for k, c in got.terms.items()} == want
    assert paired


# -- deformation bivectors ------------------------------------------------------

def cpn_eps(n):
    Y = VectorField(n, {1: ComplexPolynomial.variable(n, 0) ** 2})
    Z = VectorField.frame(n, 2)
    return DeformationBivector.from_vector_fields(Y, Z)


def test_paper_form_expansion():
    # eps built from (Y, Z) equals Y^Z + iota_Y omega ^ iota_Z omega by
    # construction; verify the expansion against a hand count: the form part
    # carries coefficient -1/4 F for the standard symplectic form
    n = 3
    eps = cpn_eps(n)
    z0sq = ComplexPolynomial.variable(n, 0) ** 2
    assert eps.hol == {(1, 2): z0sq}
    assert eps.form == {(1, 2): z0sq * QI(Fraction(-1, 4))}


def test_eps_fixes_symplectic_structure_mixed_type():
    # a^b decomposition into u/v frames is mixed exactly when the form
    # coefficient is -1/4 of the bivector one; cross-check numerically that
    # the deformed pair commutes (t small)
    from gkw.catalog import build_case
    case = build_case("cpn-2")
    scen = case.scenario
    from gkw.pipeline import sample_level_set
    z = sample_level_set(scen, 3, 9).points[-1]
    pair = scen.recipe.pair_at(z)   # KahlerPairNum validates commuting
    assert type_of(pair.J1) == 0


def test_algebroid_differential_examples():
    n = 3
    eps = cpn_eps(n)
    assert eps.algebroid_differential().is_zero     # z0^2 is holomorphic
    const = DeformationBivector(n, {(1, 2): ComplexPolynomial.one(n)},
                                {(1, 2): ComplexPolynomial.one(n)})
    assert const.algebroid_differential().is_zero
    bad = DeformationBivector(n, {(1, 2): ComplexPolynomial.variable(n, 0, conjugated=True)})
    d = bad.algebroid_differential()
    assert not d.is_zero
    assert (1, 2, 3 * n + 0) in d.terms   # contains a dzbar0 factor


def test_algebroid_differential_against_definition_formula():
    """Degree-2 cross-check of coefficient-wise dbar against the alternating
    sum formula evaluated on frame triples of the eigenbundle (whose frame
    sections have vanishing pairwise brackets)."""
    rng = np.random.default_rng(7)
    n = 2
    for _ in range(10):
        eps = DeformationBivector(
            n,
            {(0, 1): rand_poly(rng, n, 2, 2)},
            {(0, 1): rand_poly(rng, n, 2, 2)})
        d = eps.algebroid_differential()
        # frame of L = T01 + T*10: sections with pi = d/dzbar_k or 0
        frame = [GeneralizedSection.frame(n, n + k) for k in range(n)] \
            + [GeneralizedSection.frame(n, 2 * n + k) for k in range(n)]

        def ev2(m2, X, Y):
            # evaluate a degree-2 multivector on (X, Y) via the pairing
            # identification (factor 2 per slot)
            total = ComplexPolynomial.zero(n)
            for (a, b), p in m2.terms.items():
                ea, eb = _frame_sec(n, a), _frame_sec(n, b)
                total = total + p * (
                    (pairing_poly(X, ea) * pairing_poly(Y, eb)
                     - pairing_poly(X, eb) * pairing_poly(Y, ea)) * 4)
            return total

        def ev3(m3, X, Y, Z):
            total = ComplexPolynomial.zero(n)
            for (a, b, c), p in m3.terms.items():
                es = [_frame_sec(n, a), _frame_sec(n, b), _frame_sec(n, c)]
                det = ComplexPolynomial.zero(n)
                for perm, sign in _perms3():
                    term = (pairing_poly(X, es[perm[0]])
                            * pairing_poly(Y, es[perm[1]])
                            * pairing_poly(Z, es[perm[2]]))
                    det = det + term * (8 * sign)
                total = total + p * det
            return total

        for i in range(len(frame)):
            for j in range(i + 1, len(frame)):
                for k in range(j + 1, len(frame)):
                    X, Y, Z = frame[i], frame[j], frame[k]
                    lhs = ev3(d, X, Y, Z)
                    rhs = (X.vec.apply_to(ev2(eps.to_multivector(), Y, Z))
                           - Y.vec.apply_to(ev2(eps.to_multivector(), X, Z))
                           + Z.vec.apply_to(ev2(eps.to_multivector(), X, Y)))
                    assert lhs == rhs


def _frame_sec(n, a):
    return GeneralizedSection.frame(n, a if a < 2 * n else a)


def _perms3():
    return [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
            ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)]


def test_maurer_cartan_certificates():
    for n in (3, 4, 5):
        assert cpn_eps(n).maurer_cartan_residual().is_zero
    n = 3
    Yb = VectorField(n, {1: ComplexPolynomial.variable(n, 0, conjugated=True)})
    bad = DeformationBivector.from_vector_fields(Yb, VectorField.frame(n, 2))
    assert not bad.maurer_cartan_residual().is_zero


def test_maurer_cartan_toric_and_grassmann():
    from gkw.catalog import build_case
    for name in ("toric-cp2", "toric-blowup1", "grassmann-1-3", "grassmann-2-3"):
        case = build_case(name)
        assert case.scenario.recipe.eps.maurer_cartan_residual().is_zero, name


def test_maurer_cartan_residual_matches_oracle():
    # d_L eps term by term (dzbar_k ^ frames, coefficient dbar_k), plus half
    # the oracle's bracket of eps's frame terms with themselves
    rng = np.random.default_rng(2024)
    n = 3
    Y = VectorField(n, {0: rand_poly(rng, n, 2, 1), 2: rand_poly(rng, n, 2, 1)})
    Z = VectorField(n, {1: rand_poly(rng, n, 2, 1), 2: rand_poly(rng, n, 2, 1)})
    eps = DeformationBivector.from_vector_fields(Y, Z)
    m = eps.to_multivector()
    want = {}
    for key, c in naive_schouten(_frame_decomposables(m), _frame_decomposables(m), n).items():
        want[key] = p_scale(c, (Fraction(1, 2), Fraction(0)))
    for idx, c in m.terms.items():
        frames = [section_to_raw(GeneralizedSection.frame(n, a)) for a in idx]
        for k in range(n):
            dzbar = section_to_raw(GeneralizedSection.frame(n, 3 * n + k))
            dc = p_diff(to_raw(c), n + k)
            for key, poly in expand_decomposable(dc, [dzbar] + frames, n).items():
                total = p_add(want.get(key, {}), poly)
                if total:
                    want[key] = total
                else:
                    want.pop(key, None)
    got = eps.maurer_cartan_residual()
    assert not got.is_zero
    assert {k: to_raw(c) for k, c in got.terms.items()} == want


def _grassmannian_col0(n, m, control=False):
    """The col0 deformation of the Gr(n, m) builder, without its t-fit:
    eps from Y = sum_i c_i d/dz_i1 and Z = sum_i c_i d/dz_i2 with c_i = z_i0,
    or with c_i = conj(z_i0) + z_i1 for the control."""
    from gkw.actions import UnitaryAction
    action = UnitaryAction(n, m)
    N = action.ambient_n

    def c(i):
        z = ComplexPolynomial.variable
        if control:
            return z(N, action.flat(i, 0), conjugated=True) + z(N, action.flat(i, 1))
        return z(N, action.flat(i, 0))
    Y = VectorField(N, {action.flat(i, 1): c(i) for i in range(n)})
    Z = VectorField(N, {action.flat(i, 2): c(i) for i in range(n)})
    return DeformationBivector.from_vector_fields(Y, Z)


@pytest.mark.parametrize("n, m", [(4, 6), (5, 6)])
def test_maurer_cartan_large_grassmannian(n, m):
    assert _grassmannian_col0(n, m).maurer_cartan_residual().is_zero


def test_maurer_cartan_large_grassmannian_control():
    # a bracket that returned zero without computing would pass the test above
    residual = _grassmannian_col0(4, 6, control=True).maurer_cartan_residual()
    assert len(residual.terms) == 120


def test_lie_derivative_of_bivector():
    # rotation-invariance of the cpn deformation: the diagonal field has
    # weight 2 on z0^2 and -1 on each of d1, d2 and dzb1, dzb2
    from gkw.actions import TorusAction
    n = 3
    eps = cpn_eps(n)
    act = TorusAction(((1, 1, 1),))
    assert eps.lie_derivative(act.fundamental_field(0).vec).is_zero
    act2 = TorusAction(((1, 0, 0),))
    assert not eps.lie_derivative(act2.fundamental_field(0).vec).is_zero


def _lie_derivative_by_components(eps, X):
    """L_X eps from the component formulas on the full antisymmetric
    components, (L_X pi)^ab = X(pi^ab) - pi^cb d_c X^a - pi^ac d_c X^b and
    (L_X w)_ab = X(w_ab) + w_cb d_a X^c + w_ac d_b X^c, over all 2n frame
    directions; returns the a < b entries of each."""
    n = eps.n
    zero = ComplexPolynomial.zero(n)

    def full(part, shift):
        comps = {}
        for (i, j), p in part.items():
            comps[(i + shift, j + shift)] = p
            comps[(j + shift, i + shift)] = -p
        return comps

    def dX(a, c):
        return X.comps.get(a, zero).wirtinger(c % n, holomorphic=c < n)

    pi, w = full(eps.hol, 0), full(eps.form, n)
    lpi, lw = {}, {}
    for a in range(2 * n):
        for b in range(a + 1, 2 * n):
            v = X.apply_to(pi.get((a, b), zero))
            u = X.apply_to(w.get((a, b), zero))
            for c in range(2 * n):
                v = v - pi.get((c, b), zero) * dX(a, c) - pi.get((a, c), zero) * dX(b, c)
                u = u + w.get((c, b), zero) * dX(c, a) + w.get((a, c), zero) * dX(c, b)
            if not v.is_zero:
                lpi[(a, b)] = v
            if not u.is_zero:
                lw[(a, b)] = u
    return lpi, lw


def _rand_linear_field(rng, n, real):
    """X = sum A_ab z_b d/dz_a, plus its conjugate when ``real``."""
    comps = {}
    for a in range(n):
        p = ComplexPolynomial.zero(n)
        for b in range(n):
            if rng.random() < 0.6:
                p = p + ComplexPolynomial.variable(n, b) * rand_qi(rng)
        if not p.is_zero:
            comps[a] = p
            if real:
                comps[a + n] = p.conjugate()
    return VectorField(n, comps)


def test_lie_derivative_of_bivector_matches_the_component_formula():
    rng = np.random.default_rng(4711)
    for k in range(40):
        n = 2 + k % 3
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        hol = {ij: rand_poly(rng, n, 3, 2) for ij in pairs if rng.random() < 0.7}
        form = {ij: rand_poly(rng, n, 3, 2) for ij in pairs if rng.random() < 0.7}
        eps = DeformationBivector(n, hol, form)
        X = _rand_linear_field(rng, n, real=k % 2 == 0)
        got = eps.lie_derivative(X)
        lpi, lw = _lie_derivative_by_components(eps, X)
        assert all(b < n for _, b in lpi) and all(a >= n for a, _ in lw)
        assert got.hol == lpi
        assert got.form == {(a - n, b - n): p for (a, b), p in lw.items()}


def _with_eps(case, eps):
    """The catalog case with its deformation replaced by eps (same t)."""
    from dataclasses import replace
    from gkw.pipeline import DeformedKahlerRecipe
    scen = case.scenario
    return replace(case, scenario=replace(
        scen, recipe=DeformedKahlerRecipe(scen.n, eps, scen.recipe.t)))


def _unit(t):
    """The rational point ((1 - t^2) + 2ti) / (1 + t^2) of the unit circle."""
    d = 1 + t * t
    return QI((1 - t * t) / d, 2 * t / d)


def _power(u, w):
    out = QI(1)
    for _ in range(abs(w)):
        out = out * (u if w > 0 else u.conjugate())
    return out


def _embedded(N, block, rows):
    """The N x N identity with ``block`` on the coordinate lists ``rows``:
    entry (rows[a][k], rows[b][k]) is block[a][b] for every k."""
    A = [[QI(1 if i == j else 0) for j in range(N)] for i in range(N)]
    for a, ra in enumerate(rows):
        for b, rb in enumerate(rows):
            for i, j in zip(ra, rb):
                A[i][j] = block[a][b]
    return A


_PARAMS = ((Fraction(1, 2), Fraction(-2, 3)), (Fraction(-3, 5), Fraction(4, 7)))


def _group_sides(case):
    """(exact certificate, exact group elements) for each group the report
    certifies on the case.  Tori: rational unit-circle diagonals.  SU(2) on
    (z1, z2) of cpn-2 and U(n) on the rows: det-1 ``group_element_exact``
    blocks, and for U(n) also unit-circle scalars."""
    from gkw.actions import TorusAction, UnitaryAction
    from gkw.catalog import cpn_su2_invariance, torus_invariance, unitary_invariance
    act = case.scenario.action
    N = case.scenario.n
    sides = []
    if isinstance(act, TorusAction):
        diags = []
        for t, _ in _PARAMS:
            # generator a turns by the angle of _unit(t + a)
            us = [_unit(t + a) for a in range(act.k)]
            diag = [QI(1)] * N
            for u, row in zip(us, act.weights):
                diag = [e * _power(u, w) for e, w in zip(diag, row)]
            diags.append([[diag[i] if i == j else QI(0) for j in range(N)]
                          for i in range(N)])
        sides.append((torus_invariance, diags))
        if case.name == "cpn-2":
            blocks = [group_element_exact(UnitaryAction(2, 1), [(0, 1, t1, t2)])
                      for t1, t2 in _PARAMS]
            sides.append((cpn_su2_invariance, [_embedded(N, B, [[1], [2]]) for B in blocks]))
    else:
        blocks = [[[_unit(t1) if i == j else QI(0) for j in range(act.n)]
                   for i in range(act.n)] for t1, _ in _PARAMS]
        if act.n >= 2:
            blocks += [group_element_exact(act, [(0, 1, t1, t2)]) for t1, t2 in _PARAMS]
        rows = [[act.flat(i, j) for j in range(act.m)] for i in range(act.n)]
        sides.append((unitary_invariance, [_embedded(N, B, rows) for B in blocks]))
    return sides


def test_invariance_certificate_agrees_with_exact_group_elements():
    # oracle for the L_X eps = 0 certificate: on every deformed catalog case
    # the exact pullback along elements of the same connected groups fixes eps
    from gkw.catalog import build_case, catalog_names
    from gkw.pipeline import DeformedKahlerRecipe
    cases = [build_case(name) for name in catalog_names()]
    cases = [c for c in cases if isinstance(c.scenario.recipe, DeformedKahlerRecipe)]
    assert len(cases) == 9
    for case in cases:
        eps = case.scenario.recipe.eps
        for check, elements in _group_sides(case):
            assert check(case), (case.name, check.__name__)
            for A in elements:
                assert eps.pullback_linear(A) == eps, (case.name, check.__name__)


def test_group_element_blocks_have_determinant_one():
    from gkw.actions import UnitaryAction
    for t1, t2 in _PARAMS:
        (a, b), (c, d) = group_element_exact(UnitaryAction(2, 1), [(0, 1, t1, t2)])
        assert a * d - b * c == QI(1)


def test_invariance_checks_reject_a_non_invariant_deformation():
    # both the certificate and the exact group elements reject
    from gkw.catalog import build_case
    # z1 d/dz0 ^ d/dz1 has weight -1 under the diagonal circle and is moved
    # by SU(2) on (z1, z2)
    n = 3
    bad = DeformationBivector.from_vector_fields(
        VectorField(n, {0: ComplexPolynomial.variable(n, 1)}), VectorField.frame(n, 1))
    rejected = [_with_eps(build_case("cpn-2"), bad)]
    for name in ("grassmann-1-3", "grassmann-2-3"):
        case = build_case(name)
        act = case.scenario.action
        # a row-0 deformation: moved by U(1) scalars and by rotations of the rows
        N = act.ambient_n
        bad = DeformationBivector.from_vector_fields(
            VectorField(N, {act.flat(0, 1): ComplexPolynomial.variable(N, act.flat(0, 0))}),
            VectorField.frame(N, act.flat(0, 2)))
        rejected.append(_with_eps(case, bad))
    for case in rejected:
        eps = case.scenario.recipe.eps
        sides = _group_sides(case)
        assert len(sides) == (2 if case.name == "cpn-2" else 1)
        for check, elements in sides:
            assert not check(case), (case.name, check.__name__)
            assert any(eps.pullback_linear(A) != eps for A in elements), \
                (case.name, check.__name__)


def test_pullback_invariance_su2():
    from gkw.catalog import build_case, cpn_su2_invariance
    case = build_case("cpn-2")
    assert cpn_su2_invariance(case)


def test_paper_form_expansion_random_fields():
    # the builder output equals the independently expanded wedge
    # Y^Z + iota_Y omega ^ iota_Z omega for random holomorphic-frame fields
    from gkw.calculus import interior_product, standard_symplectic_form
    rng = np.random.default_rng(21)
    n = 3
    for _ in range(10):
        Y = VectorField(n, {int(rng.integers(0, n)): rand_poly(rng, n, 2, 1)})
        Z = VectorField(n, {int(rng.integers(0, n)): rand_poly(rng, n, 2, 1)})
        eps = DeformationBivector.from_vector_fields(Y, Z)
        hol = {}
        for a, pa in Y.comps.items():
            for b, pb in Z.comps.items():
                if a == b:
                    continue
                key, sgn = ((a, b), 1) if a < b else ((b, a), -1)
                cur = hol.get(key, ComplexPolynomial.zero(n))
                val = cur + pa * pb * sgn
                if val.is_zero:
                    hol.pop(key, None)
                else:
                    hol[key] = val
        assert eps.hol == hol
        omega = standard_symplectic_form(n)
        w = interior_product(Y, omega).wedge(interior_product(Z, omega))
        assert eps.form == {(i - n, j - n): p for (i, j), p in w.comps.items()}


def test_evaluate_structure_preserved():
    n = 3
    eps = cpn_eps(n)
    z = np.array([2.0 + 0j, 0.3 + 0.1j, -0.2 + 0.4j])
    hol, form = eps.evaluate(z)
    assert hol == [((1, 2), pytest.approx(4.0 + 0j))]
    assert form[0][0] == (1, 2) and form[0][1] == pytest.approx(-1.0 + 0j)
    # z0 = 0 kills every coefficient
    z0 = np.array([0j, 1.0 + 0j, 2.0 + 0j])
    hol0, form0 = eps.evaluate(z0)
    assert all(abs(c) < 1e-15 for _, c in hol0 + form0)


def test_vector_field_evaluate_example():
    n = 3
    X = VectorField(n, {1: ComplexPolynomial.variable(n, 0)})
    out = X.evaluate(np.array([2.0 + 0j, 0j, 0j]))
    assert out[1] == pytest.approx(2.0 + 0j)
    assert np.abs(np.delete(out, 1)).max() == 0.0


# -- one multivector against the two-half oracle ---------------------------------

@pytest.fixture(scope="module")
def deformed_cases():
    from gkw.catalog import build_case, catalog_names
    from gkw.pipeline import DeformedKahlerRecipe
    cases = [build_case(name) for name in catalog_names()]
    cases = [c for c in cases if isinstance(c.scenario.recipe, DeformedKahlerRecipe)]
    assert len(cases) == 9
    return cases


def _random_bivectors():
    """Seeded random eps for n = 2..4, bivector and form parts independent."""
    rng = np.random.default_rng(1616)
    out = []
    for k in range(12):
        n = 2 + k % 3
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        hol = {ij: rand_poly(rng, n, 3, 2) for ij in pairs if ij == (0, 1) or rng.random() < 0.7}
        form = {ij: rand_poly(rng, n, 3, 2) for ij in pairs if rng.random() < 0.7}
        out.append(DeformationBivector(n, hol, form))
    return out


def _halves(eps):
    return dict(eps.hol), dict(eps.form)


def _recipes(deformed_cases):
    from gkw.pipeline import DeformedKahlerRecipe
    recipes = [c.scenario.recipe for c in deformed_cases]
    return recipes + [DeformedKahlerRecipe(eps.n, eps, Fraction(2, 7))
                      for eps in _random_bivectors()]


def test_keys_are_the_frame_keys_of_both_halves():
    n = 3
    one = ComplexPolynomial.one(n)
    eps = DeformationBivector(n, {(0, 2): one}, {(1, 2): one * 3})
    assert isinstance(eps, LMultivector) and eps.degree == 2
    assert eps.comps == {(0, 2): one, (3 * n + 1, 3 * n + 2): one * 3}
    assert eps.to_multivector() == LMultivector(n, 2, eps.comps)
    with pytest.raises(TypeError):
        eps.hol[(0, 1)] = one
    for bad in ({(1, 1): one}, {(2, 1): one}, {(1, n): one}):
        with pytest.raises(ValueError):
            DeformationBivector(n, bad)
        with pytest.raises(ValueError):
            DeformationBivector(n, None, bad)


def test_from_vector_fields_matches_the_omega_contractions():
    rng = np.random.default_rng(404)
    for k in range(15):
        n = 2 + k % 3
        Y = VectorField(n, {a: rand_poly(rng, n, 2, 2) for a in range(n) if rng.random() < 0.7})
        Z = VectorField(n, {a: rand_poly(rng, n, 2, 2) for a in range(n) if rng.random() < 0.7})
        assert _halves(DeformationBivector.from_vector_fields(Y, Z)) \
            == naive_deformation.from_vector_fields(Y, Z)
    for n, m in ((1, 3), (2, 3)):
        eps = _grassmannian_col0(n, m)
        assert dict(eps.form) == {k: p * QI(Fraction(-1, 4)) for k, p in eps.hol.items()}
    with pytest.raises(ValueError):
        DeformationBivector.from_vector_fields(VectorField.frame(2, 2), VectorField.frame(2, 1))


def test_standard_symplectic_form_is_the_hand_written_one():
    for n in range(1, 7):
        assert standard_symplectic_form(n) == naive_deformation.standard_symplectic_form(n)


def test_ring_operations_match_the_two_half_oracle(deformed_cases):
    epss = [c.scenario.recipe.eps for c in deformed_cases] + _random_bivectors()
    c = QI(Fraction(-2, 3), Fraction(1, 5))
    for eps, other in zip(epss, epss[1:] + epss[:1]):
        assert _halves(eps.scale(c)) == naive_deformation.scale(_halves(eps), c)
        if eps.n == other.n:
            assert _halves(eps + other) == naive_deformation.add(_halves(eps), _halves(other))
            assert (eps == other) == (_halves(eps) == _halves(other))
        assert eps == DeformationBivector(eps.n, eps.hol, eps.form)
        assert eps != eps.scale(2)
        assert (eps + eps.scale(-1)).is_zero and not eps.is_zero


def test_contractions_match_the_two_half_oracle(deformed_cases):
    rng = np.random.default_rng(99)
    for recipe in _recipes(deformed_cases):
        n = recipe.n
        points = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(3)]
        got = recipe.contractions_at(points)
        assert got.shape == (3, 4 * n, 4 * n)
        assert np.array_equal(got, naive_deformation.contractions_at(n, _halves(recipe.eps),
                                                                     points))


def test_upstairs_sections_match_the_two_half_oracle(deformed_cases):
    for recipe in _recipes(deformed_cases):
        assert recipe.upstairs_sections() == naive_deformation.upstairs_sections(
            recipe.n, _halves(recipe.eps), recipe.t)


def test_lie_derivative_matches_the_two_half_oracle(deformed_cases):
    rng = np.random.default_rng(5150)
    fundamental = {id(c.scenario.recipe): [s.vec for s in c.scenario.fields]
                   for c in deformed_cases}
    moved = 0
    for recipe in _recipes(deformed_cases):
        eps, n = recipe.eps, recipe.n
        fields = fundamental.get(id(recipe), []) + [_rand_linear_field(rng, n, real=r)
                                                    for r in (True, False)]
        for X in fields:
            got = eps.lie_derivative(X)
            assert type(got) is DeformationBivector
            assert _halves(got) == naive_deformation.lie_derivative(n, _halves(eps), X)
            moved += not got.is_zero
    assert moved >= 20


def test_lie_derivative_out_of_shape_raises():
    # z1 d/dzbar0 turns d/dz1 into -d/dzbar0, and z0 d/dzbar1 turns dzbar1
    # into dz0: each leaves the (2,0) + (0,2) shape
    n = 3
    one = ComplexPolynomial.one(n)
    eps = DeformationBivector(n, {(1, 2): one}, {(1, 2): one})
    for X in (VectorField(n, {n + 0: ComplexPolynomial.variable(n, 1)}),
              VectorField(n, {n + 1: ComplexPolynomial.variable(n, 0)})):
        with pytest.raises(ValueError):
            eps.lie_derivative(X)
        with pytest.raises(ValueError):
            naive_deformation.lie_derivative(n, _halves(eps), X)


def test_inherited_constructors_build_lmultivectors():
    # zero and from_function build an LMultivector whatever subclass they
    # are called on, and a wedge of sections, from which
    # generators.from_sections builds, is an LMultivector too
    n = 3
    f = ComplexPolynomial.variable(n, 0) * ComplexPolynomial.variable(n, 1, conjugated=True)
    factors = [GeneralizedSection.frame(n, 0), GeneralizedSection.frame(n, 2 * n + 1)]
    for cls in (DeformationBivector, GeneralizedSection):
        assert cls.from_function(f) == LMultivector.from_function(f)
    assert type(factors[0].wedge(factors[1])) is LMultivector
    assert from_sections(n, 2, factors) == factors[0].wedge(factors[1]).scale(2)
    assert from_sections(n, f, factors[:1]) == LMultivector(n, 1, {(0,): f})
    assert DeformationBivector.zero(n, 2) == LMultivector.zero(n, 2)
