"""Group actions, moment maps, shifts, and realification."""
from fractions import Fraction

import numpy as np
import pytest

from gkw import frames
from gkw.actions import (MomentMapPoly, TorusAction, UnitaryAction, central_level,
                         grassmannian_moment_map, linear_field,
                         moment_from_hamiltonian_identity, shift_by_bfield,
                         standard_moment_map, unitary_lie_basis)
from gkw.calculus import (VectorField, exterior_derivative, interior_product,
                          standard_symplectic_form)
from gkw.catalog import build_case
from gkw.frames import real_coordinates
from gkw.linear import LinearGC, ValidationError
from gkw.pipeline import (BShiftedRecipe, GenuineKahlerRecipe,
                          ScalingSampler, Scenario, realify, sample_level_set,
                          verify_moment_map)
from gkw.poly import QI, ComplexPolynomial

from generators import grassmannian_matrix_polynomials, group_element_exact, real_coframe


def test_fundamental_field_real_frame():
    # diagonal circle on C^1: x d/dy - y d/dx
    act = TorusAction(((1,),))
    X = act.fundamental_field(0).vec
    n = 1
    expect = VectorField(n, {0: ComplexPolynomial.variable(n, 0) * QI(0, 1),
                             1: ComplexPolynomial.variable(n, 0, conjugated=True) * QI(0, -1)})
    assert X == expect
    # same thing written in the real frame
    xv, yv = real_coordinates(n)
    from generators import ddx_field, ddy_field
    real_version = VectorField(n, {})
    for a, p in ddy_field(n, 0).comps.items():
        real_version = real_version + VectorField(n, {a: xv * p})
    for a, p in ddx_field(n, 0).comps.items():
        real_version = real_version + VectorField(n, {a: -(yv * p)})
    assert X == real_version


def test_fundamental_field_zero_weight():
    act = TorusAction(((1, 0),))
    X = act.fundamental_field(0).vec
    assert 1 not in X.comps and 1 + 2 not in X.comps


def test_torus_flow_preserves_moment_polynomials():
    act = TorusAction(((1, 2, -1), (0, 1, 1)))
    mm = standard_moment_map(act)
    for a in range(act.k):
        X = act.fundamental_field(a).vec
        for f in mm.f:
            assert X.apply_to(f).is_zero


def test_standard_moment_map_identity_symbolic():
    # dPhi^xi = iota_{xi_M} omega exactly, for weighted actions
    for weights in (((1, 1, 1),), ((2, -1),), ((1, 0), (0, 3))):
        act = TorusAction(weights)
        mm = standard_moment_map(act)
        omega = standard_symplectic_form(act.n)
        for a in range(act.k):
            lhs = exterior_derivative(mm.f[a])
            rhs = interior_product(act.fundamental_field(a).vec, omega)
            assert lhs == rhs


def test_moment_from_identity_matches_standard():
    act = TorusAction(((1, 3),))
    mm = standard_moment_map(act)
    mm2 = moment_from_hamiltonian_identity([act.fundamental_field(0)])
    assert mm.f == mm2.f


def test_diagonal_moment_is_half_norm():
    act = TorusAction(((1, 1, 1),))
    mm = standard_moment_map(act)
    n = 3
    want = ComplexPolynomial.zero(n)
    for j in range(n):
        want = want + (ComplexPolynomial.variable(n, j)
                       * ComplexPolynomial.variable(n, j, conjugated=True)) * QI(Fraction(1, 2))
    assert mm.f[0] == want


def test_unitary_fundamental_fields_match_linearization():
    act = UnitaryAction(2, 3)
    rng = np.random.default_rng(3)
    Z = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    z = Z.reshape(-1)
    for idx, xi in enumerate(act.lie_basis()):
        vel = (xi @ Z).reshape(-1)
        got = act.fundamental_field(idx).vec.evaluate(z)
        assert np.allclose(got[:6], vel) and np.allclose(got[6:], vel.conj())


def test_linear_field_is_the_flow_velocity():
    # the field of z -> e^{tM} z has holomorphic part M z and its conjugate
    rng = np.random.default_rng(5)
    N = 4
    z = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    for _ in range(10):
        M = {(int(i), int(j)): QI(int(a), int(b))
             for (i, j), (a, b) in zip(rng.integers(0, N, size=(5, 2)),
                                       rng.integers(-2, 3, size=(5, 2)))}
        Mc = np.zeros((N, N), dtype=complex)
        for (i, j), c in M.items():
            Mc[i, j] = c.to_complex()
        got = linear_field(N, M).evaluate(z)
        assert np.allclose(got[:N], Mc @ z) and np.allclose(got[N:], (Mc @ z).conj())


def test_unitary_df_perp_fields_are_right_multiplication():
    from gkw.catalog import _unitary_df_perp_fields
    act = UnitaryAction(2, 3)
    rng = np.random.default_rng(4)
    Z = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    fields = _unitary_df_perp_fields(act)
    assert len(fields) == 4
    for X, A in zip(fields, unitary_lie_basis(3)):
        vel = (Z @ A).reshape(-1)
        got = X.evaluate(Z.reshape(-1))
        assert np.allclose(got[:6], vel) and np.allclose(got[6:], vel.conj())


def test_grassmannian_moment_identity_and_matrix():
    act = UnitaryAction(2, 3)
    mm = grassmannian_moment_map(act)
    omega = standard_symplectic_form(act.ambient_n)
    for a in range(act.dim_group):
        assert exterior_derivative(mm.f[a]) == interior_product(
            act.fundamental_field(a).vec, omega)
    # matrix form equals Z Z-dagger entrywise, symbolically Hermitian
    P = grassmannian_matrix_polynomials(act)
    for a in range(2):
        for b in range(2):
            assert P[a][b].conjugate() == P[b][a]
    # diagonal component relates to the iE_aa moment by the 1/2-trace pairing
    assert mm.f[0] * 2 == P[0][0]
    # level residual after row Gram-Schmidt
    rngs = np.random.default_rng(5)
    Z = rngs.standard_normal((2, 3)) + 1j * rngs.standard_normal((2, 3))
    Z[0] /= np.linalg.norm(Z[0])
    Z[1] -= (Z[0].conj() @ Z[1]) * Z[0]
    Z[1] /= np.linalg.norm(Z[1])
    vals = np.array([f.evaluate(Z.reshape(-1)).real for f in mm.f])
    assert np.abs(vals - central_level(act)).max() < 1e-12


def test_n1_grassmannian_is_scalar_norm():
    act = UnitaryAction(1, 1)
    P = grassmannian_matrix_polynomials(act)
    z = ComplexPolynomial.variable(1, 0)
    zb = ComplexPolynomial.variable(1, 0, conjugated=True)
    assert P[0][0] == z * zb


def test_verify_moment_map_pass_and_fail():
    n = 3
    act = TorusAction((tuple([1] * n),))
    mm = standard_moment_map(act)
    rng = np.random.default_rng(9)
    pts = []
    for _ in range(20):
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        pts.append(w * np.sqrt(1.0 / (0.5 * np.linalg.norm(w) ** 2)))
    J1 = LinearGC.from_symplectic(frames.omega_std_map(n))
    rows = verify_moment_map(lambda z: J1, act, mm, pts)
    assert all(r["pass"] for r in rows)
    # the complex-type structure is never Hamiltonian: pi(L_J) has no real
    # vectors, so membership fails at every sample
    JJ = LinearGC.from_complex(frames.complex_structure_std(n))
    rows_bad = verify_moment_map(lambda z: JJ, act, mm, pts)
    assert all(not r["pass"] for r in rows_bad)
    assert min(r["membership"] for r in rows_bad) > 1e-2


def test_a_moment_map_off_the_central_level_fails_invariance():
    # grassmann-2-3's U(2) moment map with J_omega at sampled frames whose
    # second row is doubled: Z Z-dagger is no longer central, so the
    # contraction iota_{xi_M} dmu^eta reads 3 while membership still holds
    scen = build_case("grassmann-2-3").scenario
    act = scen.action
    J1 = LinearGC.from_symplectic(frames.omega_std_map(scen.n))
    points = sample_level_set(scen, 4, 7).points
    assert all(r["pass"] for r in verify_moment_map(lambda z: J1, act, scen.moment, points))
    off = []
    for z in points:
        w = np.array(z, dtype=complex)
        w[[act.flat(1, j) for j in range(act.m)]] *= 2
        off.append(w)
    rows = verify_moment_map(lambda z: J1, act, scen.moment, off)
    assert all(r["membership"] < 1e-12 for r in rows)
    assert all(abs(r["invariance"] - 3.0) < 1e-12 for r in rows)
    assert all(r["pass"] is False for r in rows)


def test_shift_by_bfield_and_roundtrip():
    # B = dx0 ^ dy0 (constant): iota_{xi}B = dPhi with Phi = (-1/2|z0|^2, 0)
    n = 2
    act = TorusAction(((1, 0), (0, 1)))
    mm = standard_moment_map(act)
    dx0, dy0 = real_coframe(n)[:2]
    B = dx0.wedge(dy0)
    z0 = ComplexPolynomial.variable(n, 0)
    zb0 = ComplexPolynomial.variable(n, 0, conjugated=True)
    phi0 = z0 * zb0 * QI(Fraction(-1, 2))
    phi = MomentMapPoly((phi0, ComplexPolynomial.zero(n)),
                        (ComplexPolynomial.zero(n), ComplexPolynomial.zero(n)))
    # symbolic identity iota_{xi_M} B = dPhi^xi
    for a in range(act.k):
        assert interior_product(act.fundamental_field(a).vec, B) \
            == exterior_derivative(phi.f[a])
    shifted = shift_by_bfield(mm, phi)
    assert shifted.h[0] == phi0 and shifted.f == mm.f
    assert shift_by_bfield(mm, MomentMapPoly(
        (ComplexPolynomial.zero(n),) * 2, (ComplexPolynomial.zero(n),) * 2)).h == mm.h

    # end-to-end: the shifted pair verifies with mu + i Phi, then realifying
    # returns a scenario whose moment map is the original real part
    base = GenuineKahlerRecipe(n)
    rec = BShiftedRecipe(base, B)
    level = (Fraction(1), Fraction(1, 2))

    class TwoLevelSampler:
        def raw(self, rng, nn, stratum=None):
            z = rng.standard_normal(nn) + 1j * rng.standard_normal(nn)
            z[0] *= np.sqrt(2 * float(level[0])) / abs(z[0])
            z[1] *= np.sqrt(2 * float(level[1])) / abs(z[1])
            return z

    scen = Scenario(name="shifted", n=n, recipe=rec, action=act,
                    moment=shifted, level=level, sampler=TwoLevelSampler())
    batch = sample_level_set(scen, 8, 3)
    rows = verify_moment_map(lambda z: rec.pair_at(z).J1, act, shifted, batch.points)
    assert all(r["pass"] for r in rows), rows
    real_scen = realify(scen)
    assert real_scen.moment.is_real
    assert real_scen.moment.f == mm.f
    rows2 = verify_moment_map(lambda z: real_scen.recipe.pair_at(z).J1, act,
                              real_scen.moment, batch.points, tol=1e-10)
    assert all(r["pass"] for r in rows2), rows2


def test_realify_identity_when_real():
    n = 2
    act = TorusAction(((1, 1),))
    mm = standard_moment_map(act)
    scen = Scenario(name="k", n=n, recipe=GenuineKahlerRecipe(n), action=act,
                    moment=mm, level=(Fraction(1),),
                    sampler=ScalingSampler(mm, (1.0,)))
    assert realify(scen) is scen


def test_realify_requires_nonvanishing_fields():
    # Gram determinant vanishes at the origin-ray points
    from gkw.catalog import build_case
    case = build_case("hyperkahler-flat")
    rec = case.scenario.recipe
    with pytest.raises(ValidationError):
        rec.b_map_at(np.array([0j, 0j]))


def test_exact_unitary_elements():
    act = UnitaryAction(2, 3)
    A = group_element_exact(act, [(0, 1, Fraction(1, 3), Fraction(-2, 5))])
    # unitarity: A A-dagger = I exactly
    for i in range(2):
        for j in range(2):
            s = QI(0)
            for k in range(2):
                s = s + A[i][k] * A[j][k].conjugate()
            assert s == QI(1 if i == j else 0)
