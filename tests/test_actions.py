"""Group actions, moment maps, shifts, and realification."""
from fractions import Fraction

import numpy as np
import pytest

from gkw import frames
from gkw.actions import (MomentMapPoly, TorusAction, UnitaryAction, central_level,
                         linear_field, shift_by_bfield, standard_moment_map,
                         unitary_lie_basis)
from gkw.calculus import (Form, VectorField, exterior_derivative, interior_product,
                          standard_symplectic_form)
from gkw.catalog import build_case, catalog_names
from gkw.frames import real_coordinates
from gkw.linear import LinearGC, ValidationError
from gkw.pipeline import (BShiftedRecipe, GenuineKahlerRecipe,
                          ScalingSampler, Scenario, realify, sample_level_set,
                          verify_moment_map)
from gkw.poly import QI, ComplexPolynomial

from generators import (as_matrix, batch_at, grassmannian_matrix_polynomials,
                        group_element_exact, moment_from_hamiltonian_identity, real_coframe)


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


@pytest.mark.parametrize(
    "source", [*catalog_names(), (1, 3), (2, 3), (2, 4), (2, 5), (3, 5), (3, 6)],
    ids=lambda s: s if isinstance(s, str) else "unitary-%d-%d" % s)
def test_the_generators_give_the_fields_the_moment_map_and_the_central_level(source):
    # a catalog case's action, or U(n) on C^{n x m} for source (n, m)
    if isinstance(source, tuple):
        act = UnitaryAction(*source)
    else:
        act = build_case(source).scenario.action
    N = act.ambient_n
    omega = standard_symplectic_form(N)
    mm = standard_moment_map(act)
    gens = act.generators()
    assert len(gens) == act.k == mm.k
    for a, A in enumerate(gens):
        for r, c in set(A) | {(c, r) for r, c in A}:
            assert A.get((r, c), QI(0)) == -A.get((c, r), QI(0)).conjugate()
        assert act.fundamental_field(a).vec == linear_field(N, A)
        assert exterior_derivative(mm.f[a]) == interior_product(
            act.fundamental_field(a).vec, omega)
    oracle = moment_from_hamiltonian_identity(act.fundamental_fields())
    assert (mm.f, mm.h) == (oracle.f, oracle.h)
    if isinstance(act, UnitaryAction):
        level = central_level(act)
        assert all(type(x) is Fraction for x in level)
        assert level == (Fraction(1, 2),) * act.n + (Fraction(0),) * (act.k - act.n)


def test_unitary_fundamental_fields_match_linearization():
    act = UnitaryAction(2, 3)
    rng = np.random.default_rng(3)
    Z = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    z = Z.reshape(-1)
    for idx, xi in enumerate(unitary_lie_basis(2)):
        vel = (as_matrix(xi, 2) @ Z).reshape(-1)
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
        vel = (Z @ as_matrix(A, 3)).reshape(-1)
        got = X.evaluate(Z.reshape(-1))
        assert np.allclose(got[:6], vel) and np.allclose(got[6:], vel.conj())


def test_grassmannian_moment_identity_and_matrix():
    act = UnitaryAction(2, 3)
    mm = standard_moment_map(act)
    omega = standard_symplectic_form(act.ambient_n)
    for a in range(act.k):
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
    assert np.abs(vals - np.array(central_level(act), dtype=float)).max() < 1e-12


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
    batch = batch_at(act, mm, pts)
    rows = verify_moment_map([J1] * len(pts), act, mm, batch)
    assert all(r["pass"] for r in rows)
    # the complex-type structure is never Hamiltonian: pi(L_J) has no real
    # vectors, so membership fails at every sample
    JJ = LinearGC.from_complex(frames.complex_structure_std(n))
    rows_bad = verify_moment_map([JJ] * len(pts), act, mm, batch)
    assert all(not r["pass"] for r in rows_bad)
    assert min(r["membership"] for r in rows_bad) > 1e-2


def test_a_moment_map_off_the_central_level_fails_invariance():
    # grassmann-2-3's U(2) moment map with J_omega at sampled frames whose
    # second row is doubled: Z Z-dagger is no longer central, so the
    # contraction iota_{xi_M} dmu^eta reads 3 while membership still holds
    scen = build_case("grassmann-2-3").scenario
    act = scen.action
    J1 = LinearGC.from_symplectic(frames.omega_std_map(scen.n))
    batch = sample_level_set(scen, 4, 7)
    assert all(r["pass"] for r in verify_moment_map([J1] * 4, act, scen.moment, batch))
    off = []
    for z in batch.points:
        w = np.array(z, dtype=complex)
        w[[act.flat(1, j) for j in range(act.m)]] *= 2
        off.append(w)
    rows = verify_moment_map([J1] * 4, act, scen.moment, batch_at(act, scen.moment, off))
    assert all(r["membership"] < 1e-12 for r in rows)
    assert all(abs(r["invariance"] - 3.0) < 1e-12 for r in rows)
    assert all(r["pass"] is False for r in rows)


def test_a_second_moment_check_on_the_same_action_builds_no_contraction(monkeypatch):
    # the contractions iota_{xi_a} dmu^b are kept on the moment map, so a
    # second check of the same (moment map, action) builds none of them
    import gkw.actions
    import gkw.pipeline
    scen = build_case("grassmann-2-3").scenario
    moment = MomentMapPoly(scen.moment.f, scen.moment.h)     # nothing kept yet
    J1 = LinearGC.from_symplectic(frames.omega_std_map(scen.n))
    batch = sample_level_set(scen, 4, 7)
    calls = []

    def counted(X, w):
        calls.append(1)
        return interior_product(X, w)
    for module in (gkw.actions, gkw.pipeline):
        monkeypatch.setattr(module, "interior_product", counted)
    first = verify_moment_map([J1] * 4, scen.action, moment, batch)
    assert calls
    calls.clear()
    assert verify_moment_map([J1] * 4, scen.action, moment, batch) == first
    assert not calls


def test_a_second_action_on_one_moment_map_gets_its_own_contractions():
    # U(2) on C^2 and a rank-4 torus on C^2 have k = 4 each; the torus
    # fields commute with the diagonal U(2) moments only, so the two
    # actions' contractions differ
    u = UnitaryAction(2, 1)
    torus = TorusAction(((1, 0), (0, 1), (1, 1), (1, -1)))
    mm = standard_moment_map(u)
    first, second = mm.contractions(u), mm.contractions(torus)
    assert first == MomentMapPoly(mm.f, mm.h).contractions(u)
    assert second == MomentMapPoly(mm.f, mm.h).contractions(torus)
    assert first != second


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
    rows = verify_moment_map([rec.pair_at(z).J1 for z in batch.points], act, shifted, batch)
    assert all(r["pass"] for r in rows), rows
    real_scen = realify(scen)
    assert real_scen.moment.is_real
    assert real_scen.moment.f == mm.f
    rows2 = verify_moment_map([real_scen.recipe.pair_at(z).J1 for z in batch.points], act,
                              real_scen.moment, batch, tol=1e-10)
    assert all(r["pass"] for r in rows2), rows2


def test_a_non_real_b_field_is_rejected_not_truncated():
    # B = dz0 ^ dz1 is closed but not real: its map has imaginary part 1.0,
    # and cast to float it would shift the pair by Re B instead of by B
    n = 2
    B = Form(n, 2, {(0, 1): ComplexPolynomial.one(n)})
    assert exterior_derivative(B).is_zero and B != B.conjugate()
    z = np.array([0.3 + 0.1j, -0.2j])
    with pytest.raises(ValueError, match="^B must be real$"):
        BShiftedRecipe(GenuineKahlerRecipe(n), B)
    with pytest.raises(ValidationError, match="not real"):
        frames.two_form_map_at(B, z)
    # its real part, B + conj(B), is accepted, and its map is real
    real = B + B.conjugate()
    M = frames.two_form_map_at(real, z)
    assert M.dtype == float and np.abs(M).max() > 0
    pair = BShiftedRecipe(GenuineKahlerRecipe(n), real).pair_at(z)
    assert pair.J1.J.dtype == float


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
