"""Pointwise linear algebra: constructors, types, reductions, extraction."""
import numpy as np
import pytest

from gkw import linear
from gkw.catalog import build_case, catalog_names
from gkw.linear import (IndeterminateRankError,
                        KahlerPairNum, LinearGC, ValidationError, deform_gcs,
                        eta, extract_bihermitian, numerical_rank, pairing,
                        reduce_gcs, reduce_pair, subspace_intersection_dim)
from gkw.pipeline import sample_level_set

from generators import (ReductionTally, add, b_transform, contains, from_columns,
                        from_eigenbundle, hk_block_pair, intersect, perp, product,
                        projection_to_tangent, rand_antisym, rand_compatible_kahler,
                        rand_complex_structure, rand_gc, rand_gc_with_admissible_q,
                        rand_pair_with_admissible_q, rand_symplectic_map,
                        restricted_projection_dim, type_of)
import naive_linear as naive


def std_omega_map(n):
    M = np.zeros((2 * n, 2 * n))
    for q in range(n):
        M[2 * q + 1, 2 * q] = -1.0
        M[2 * q, 2 * q + 1] = 1.0
    return M


def std_complex(n):
    J = np.zeros((2 * n, 2 * n))
    for q in range(n):
        J[2 * q + 1, 2 * q] = 1.0
        J[2 * q, 2 * q + 1] = -1.0
    return J


# -- pairing and subspaces -------------------------------------------------------

def test_pairing_values():
    m = 2
    dx = np.zeros(2 * m); dx[m] = 1
    ex = np.zeros(2 * m); ex[0] = 1
    assert pairing(ex + dx, ex + dx) == pytest.approx(1.0)
    assert pairing(ex, ex) == 0.0
    assert pairing(ex, dx) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        pairing(np.zeros(3), np.zeros(3))


def test_perp_examples():
    m = 2
    V = from_columns(np.vstack([np.eye(m), np.zeros((m, m))]))
    assert perp(V).dim == m
    assert np.linalg.norm(perp(V).basis[m:, :]) < 1e-12  # perp(V) = V
    whole = from_columns(np.eye(2 * m, dtype=complex))
    assert perp(whole).dim == 0
    one = from_columns(np.eye(2 * m, 1, dtype=complex))
    assert perp(one).dim == 2 * m - 1


def test_numerical_rank_gap_detection():
    A = np.diag([1.0, 1e-2, 3e-15])
    rank, gap_ok, _ = numerical_rank(A)
    assert rank == 2 and gap_ok
    B = np.diag([1.0, 5e-9])     # sits inside the audit band around 1e-9
    with pytest.raises(IndeterminateRankError):
        numerical_rank(B, require_determinate=True)


# -- constructors ------------------------------------------------------------------

def test_from_symplectic_type_and_eigenbundle():
    J = LinearGC.from_symplectic(std_omega_map(1))
    assert type_of(J) == 0
    # eigenbundle contains dx-vec - i dy-cov? for omega = dy^dx the map has
    # M ex = -dy; the from_symplectic contract is {X - i iota_X omega}:
    w = np.array([1, 0, 0, 1j]) * 1.0   # ex - i * (M ex = -dy) = ex + i dy
    L = J.eigenbundle()
    assert contains(L, w)


def test_from_symplectic_eigenbundle_dxdy_orientation():
    # the other orientation, omega = dx^dy: L contains ex - i dy and ey + i dx
    M = -std_omega_map(1)   # map for dx^dy: M ex = dy
    J = LinearGC.from_symplectic(M)
    L = J.eigenbundle()
    assert contains(L, np.array([1, 0, 0, -1j]))
    assert contains(L, np.array([0, 1, 1j, 0]))
    with pytest.raises(ValidationError):
        LinearGC.from_symplectic(np.zeros((2, 2)))


def test_from_complex_type_and_projection():
    n = 2
    J = LinearGC.from_complex(std_complex(n))
    assert type_of(J) == n
    piL = projection_to_tangent(J.eigenbundle())
    assert piL.dim == n
    # pi(L) = T01: contains ex + i ey per coordinate
    v = np.zeros(2 * n, dtype=complex)
    v[0], v[1] = 1, 1j
    assert contains(piL, v)
    with pytest.raises(ValidationError):
        LinearGC.from_complex(np.eye(4))


def test_constructor_validity_200_seeded():
    rng = np.random.default_rng(123)
    for _ in range(200):
        m = 2 * int(rng.integers(1, 4))
        J = LinearGC.from_symplectic(rand_symplectic_map(rng, m))
        E = eta(m)
        assert np.linalg.norm(J.J @ J.J + np.eye(2 * m)) < 1e-10 * max(1, np.linalg.norm(J.J)**2)
        assert np.linalg.norm(J.J.T @ E @ J.J - E) < 1e-9
    for _ in range(200):
        m = 2 * int(rng.integers(1, 4))
        J = LinearGC.from_complex(rand_complex_structure(rng, m))
        L = J.eigenbundle()
        E = eta(m)
        assert np.abs(L.basis.T @ E @ L.basis).max() < 1e-9


def test_structure_check_rejects_a_square_root_of_minus_one_that_is_not_orthogonal():
    # S J S^-1 squares to -1 exactly, but for S not eta-orthogonal its +i
    # eigenbundle is not isotropic; the one check that implies isotropy
    # rejects it and names both of its conditions
    S = np.diag([2.0, 1.0, 1.0, 1.0])
    J = S @ LinearGC.from_complex(std_complex(1)).J @ np.linalg.inv(S)
    assert np.array_equal(J @ J, -np.eye(4))
    L = linear.nullspace(J - 1j * np.eye(4), 2)
    assert np.abs(L.T @ eta(2) @ L).max() > 0.1
    with pytest.raises(ValidationError, match=r"^not a generalized complex structure: "
                       r"\|J\^2\+I\|=0\.000e\+00, \|J\^T eta J - eta\|=1\.976e-01 \(J\^2 = -1 "
                       r"and eta-orthogonality, which make the \+i eigenbundle isotropic\)$"):
        LinearGC(J)


def test_product_type_additivity():
    rng = np.random.default_rng(3)
    J1 = LinearGC.from_symplectic(rand_symplectic_map(rng, 2))
    J2 = LinearGC.from_symplectic(rand_symplectic_map(rng, 4))
    assert type_of(product(J1, J2)) == 0
    Jc = LinearGC.from_complex(std_complex(1))
    mix = product(J1, Jc)
    assert type_of(mix) == 1
    assert mix.m == 4


def test_b_transform_identity_and_exactness():
    rng = np.random.default_rng(4)
    J = rand_gc(rng, 4)
    assert np.allclose(b_transform(J, np.zeros((4, 4))).J, J.J)
    m = 4
    B = rand_antisym(rng, m)
    eB = np.eye(2 * m); eB[m:, :m] = B
    eBm = np.eye(2 * m); eBm[m:, :m] = -B
    assert np.allclose(eB @ eBm, np.eye(2 * m))   # e^B e^-B = I exactly


def test_b_transform_type_invariance_100_random():
    rng = np.random.default_rng(99)
    for _ in range(100):
        m = 2 * int(rng.integers(1, 4))
        J = rand_gc(rng, m)
        B = rand_antisym(rng, m)
        JB = b_transform(J, B)
        assert type_of(JB) == type_of(J)
        # eigenbundle of the transform is e^B(L)
        L = J.eigenbundle().basis
        eB = np.eye(2 * m); eB[m:, :m] = B
        LB = JB.eigenbundle()
        assert max(LB.residual(eB @ L[:, k]) for k in range(L.shape[1])) < 1e-8


def test_from_eigenbundle_roundtrip():
    rng = np.random.default_rng(17)
    for _ in range(20):
        J = rand_gc(rng, 4)
        J2 = from_eigenbundle(J.eigenbundle())
        assert np.allclose(J.J, J2.J, atol=1e-8)


# -- projected-dimension identity ---------------------------------------------

def test_projected_rank_identity_random():
    """dim pi(L cap R-perp cap J(R)-perp) = dim pi(L + R) - dim R for
    J(R) cap R = 0, over random structures and random complex R."""
    rng = np.random.default_rng(2718)
    checked = 0
    for m in (4, 6, 8):
        while checked < 100 * (1 if m == 4 else 1):
            J = rand_gc(rng, m)
            r = int(rng.integers(1, 4))
            R = from_columns(
                rng.standard_normal((2 * m, r)) + 1j * rng.standard_normal((2 * m, r)))
            JR = from_columns(J.J.astype(complex) @ R.basis)
            inter, _ = subspace_intersection_dim(JR, R, require_determinate=False)
            if inter != 0:
                continue
            lhs = restricted_projection_dim(J, R)
            LR = add(J.eigenbundle(), R)
            rhs = projection_to_tangent(LR).dim - R.dim
            assert lhs == rhs
            checked += 1
        checked = 0


def test_projected_rank_identity_r_zero():
    rng = np.random.default_rng(5)
    J = rand_gc(rng, 4)
    R = from_columns(np.zeros((8, 0), dtype=complex))
    assert restricted_projection_dim(J, R) == projection_to_tangent(J.eigenbundle()).dim


# -- reduction ----------------------------------------------------------------------

def test_reduce_gcs_trivial_and_sphere_circle():
    # Q = 0 gives J back
    J = LinearGC.from_symplectic(std_omega_map(2))
    Jq, qb = reduce_gcs(J, np.zeros((4, 0)))
    assert Jq is J
    # symplectic C^2, circle direction at a sphere point -> type 0 on R^2
    z = np.array([0.6 + 0.2j, -0.4 + 0.66332495807108j])
    xv = np.zeros(4)
    for q, zz in enumerate(z):
        xv[2 * q] = -zz.imag
        xv[2 * q + 1] = zz.real
    Jq, qb = reduce_gcs(J, xv.reshape(-1, 1))
    assert qb.k == 2
    assert type_of(Jq) == 0


def test_reduce_gcs_type_preserved_100_random():
    rng = np.random.default_rng(31415)
    done = 0
    for m in (4, 6, 8):
        for _ in range(34):
            qdim = int(rng.integers(1, m // 2))
            J, Q = rand_gc_with_admissible_q(rng, m, qdim)
            Jq, qb = reduce_gcs(J, Q)
            assert type_of(Jq) == type_of(J)
            done += 1
    assert done >= 100


def test_reduce_pair_trivial():
    pair = rand_compatible_kahler(np.random.default_rng(8), 4)
    pq, qb = reduce_pair(pair, np.zeros((4, 0)))
    assert pq is pair


def test_reduce_pair_type_formula_100_random():
    """type(J~2) = type(J2) - dim Q + 2 dim(Q_C cap pi(L2)), both sides
    computed independently, over random Kahler-block pairs with vanishing
    Q-projection overlap (the displayed formula's reliable domain; see the
    corrected-identity test below for the general population)."""
    rng = np.random.default_rng(161803)
    tally = ReductionTally(checks=3 * 34)
    done = 0
    for m in (4, 6, 8):
        count = 0
        while count < 34:
            qdim = int(rng.integers(1, max(2, m // 2)))
            made = tally.generate(rand_pair_with_admissible_q, rng, m, qdim, allow_hk=False)
            reduced = made and tally.reduce(reduce_pair, *made)
            if not reduced:
                continue
            (pair, Q), (pq, qb) = made, reduced
            QC = from_columns(Q.astype(complex))
            piL2 = projection_to_tangent(pair.J2.eigenbundle())
            dcap, gap_ok = subspace_intersection_dim(QC, piL2, require_determinate=False)
            if not gap_ok:
                continue
            t2 = type_of(pair.J2)
            assert type_of(pq.J1) == type_of(pair.J1)
            assert type_of(pq.J2) == t2 - Q.shape[1] + 2 * dcap
            count += 1
            done += 1
    assert done >= 100


def _hat_projection_overlap(pair, qb):
    """dim(pi(L2-hat) cap Q_C): the true amount the final projection drops."""
    P = from_columns(qb.P.astype(complex))
    J2P = from_columns(pair.J2.J.astype(complex) @ qb.P)
    S = intersect(intersect(pair.J2.eigenbundle(), perp(P)), perp(J2P))
    QC = from_columns(qb.Q.astype(complex))
    d, _ = subspace_intersection_dim(projection_to_tangent(S), QC,
                                     require_determinate=False)
    return d


def test_reduce_pair_corrected_type_identity_general():
    """On the full admissible population (hyper-Kahler blocks included) the
    rigorous identity is

        type(J~2) = type(J2) - dim Q + dim(Q_C cap pi(L2))
                    + dim(pi(L2-hat) cap Q_C),

    which coincides with the displayed formula exactly when the hat-overlap
    equals dim(Q_C cap pi(L2)); instances where the displayed formula fails
    exist (hyper-Kahler blocks with Q meeting pi(L2) but not pi(L2-hat))."""
    rng = np.random.default_rng(161804)
    tally = ReductionTally(checks=80)
    saw_disagreement = False
    count = 0
    while count < 80:
        m = int(rng.choice([4, 6, 8]))
        qdim = int(rng.integers(1, max(2, m // 2)))
        made = tally.generate(rand_pair_with_admissible_q, rng, m, qdim, allow_hk=True)
        reduced = made and tally.reduce(reduce_pair, *made)
        if not reduced:
            continue
        (pair, Q), (pq, qb) = made, reduced
        QC = from_columns(Q.astype(complex))
        piL2 = projection_to_tangent(pair.J2.eigenbundle())
        dcap, gap_ok = subspace_intersection_dim(QC, piL2, require_determinate=False)
        if not gap_ok:
            continue
        hat = _hat_projection_overlap(pair, qb)
        t2 = type_of(pair.J2)
        assert type_of(pq.J2) == t2 - Q.shape[1] + dcap + hat
        if hat != dcap:
            assert type_of(pq.J2) != t2 - Q.shape[1] + 2 * dcap
            saw_disagreement = True
        count += 1
    assert saw_disagreement, "expected at least one hat-overlap counterexample"


def test_reduce_pair_nonzero_intersection_cases():
    """Hyper-Kahler-normalized blocks give dim(Q_C cap pi(L2)) = dim Q for
    one-dimensional Q, where the displayed formula does hold."""
    rng = np.random.default_rng(55)
    pair = hk_block_pair()
    for _ in range(10):
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        Q = v.reshape(-1, 1)
        pq, qb = reduce_pair(pair, Q)
        QC = from_columns(Q.astype(complex))
        piL2 = projection_to_tangent(pair.J2.eigenbundle())
        dcap, _ = subspace_intersection_dim(QC, piL2)
        assert dcap == 1
        assert type_of(pq.J2) == type_of(pair.J2) - 1 + 2


# -- pairs and extraction --------------------------------------------------------

def test_positive_metric_rejects_negative_control():
    J = LinearGC.from_symplectic(std_omega_map(2))
    Jneg = LinearGC(-J.J)
    with pytest.raises(ValidationError, match="positive"):
        KahlerPairNum(J, Jneg)


def test_wrong_omega_orientation_rejected():
    # (J_{dx^dy}, J_std) is negative definite under the fixed conventions
    n = 2
    with pytest.raises(ValidationError, match="positive"):
        KahlerPairNum(LinearGC.from_symplectic(-std_omega_map(n)),
                      LinearGC.from_complex(std_complex(n)))


def test_pair_check_rejects_two_structures_that_do_not_commute():
    # J_std conjugated by a shear is tamed by omega_std but not compatible
    # with it: both structures are valid and G^T eta stays positive
    # definite, but J1 J2 != J2 J1, so G^2 != 1
    A = np.eye(4)
    A[0, 2] = 0.3
    J1 = LinearGC.from_symplectic(std_omega_map(2))
    J2 = LinearGC.from_complex(A @ std_complex(2) @ np.linalg.inv(A))
    assert np.abs(J1.J @ J2.J - J2.J @ J1.J).max() > 0.1
    GTE = (J1.J @ J2.J).T @ eta(4)
    assert np.linalg.eigvalsh(-(GTE + GTE.T)).min() > 0.1
    with pytest.raises(ValidationError, match=r"^G = -J1 J2 fails G\^2 = 1: "
                       r"\|G\^2-I\|=6\.433e-01 \(G\^2 = 1 exactly when J1 and J2 commute; "
                       r"G\^T eta G = eta follows from the structures' eta-orthogonality\)$"):
        KahlerPairNum(J1, J2)


def test_quotient_basis_keeps_the_p_isotropy_it_checked():
    # Q = span(d/dx1, d/dx2) is Lagrangian for omega_std, so P = Q + J(Q)
    # is isotropic; Q = span(d/dx1, d/dy1) is symplectic, and it is not
    J = LinearGC.from_symplectic(std_omega_map(2))
    qb = linear.quotient_basis(J, np.eye(4)[:, [0, 2]])
    assert qb.isotropy == np.abs(qb.P.T @ eta(4) @ qb.P).max() <= linear.ISOTROPY_TOL
    with pytest.raises(ValidationError, match=r"^P = Q \+ J\(Q\) is not isotropic"):
        linear.quotient_basis(J, np.eye(4)[:, :2])


def test_extract_bihermitian_genuine_kahler():
    n = 2
    pair = KahlerPairNum(LinearGC.from_symplectic(std_omega_map(n)),
                         LinearGC.from_complex(std_complex(n)))
    bih = extract_bihermitian(pair)
    assert np.allclose(bih.Jplus, bih.Jminus, atol=1e-9)
    assert np.allclose(bih.Jplus, std_complex(n), atol=1e-9)
    assert np.allclose(bih.g, np.eye(2 * n), atol=1e-9)
    ok, checks = bih.validate()
    assert ok
    assert not bih.distinct()


def test_extract_bihermitian_random_kahler_pairs():
    rng = np.random.default_rng(101)
    for _ in range(20):
        pair = rand_compatible_kahler(rng, 4)
        bih = extract_bihermitian(pair)
        ok, checks = bih.validate()
        assert ok, checks
        assert np.linalg.norm(bih.Jplus - bih.Jminus) < 1e-8 * max(1, np.linalg.norm(bih.Jplus))


def test_deform_gcs_types():
    # eps = d1^d2 + dzb1^dzb2 (constant coefficients) on C^3: type at a
    # generic point is n - 2 = 1
    from gkw import frames
    n = 3
    Tt = frames.tangent_frame_matrix(n)
    Tc = frames.covector_frame_matrix(n)
    a1 = np.zeros(4 * n, dtype=complex); a1[:2 * n] = Tt[:, 1]
    a2 = np.zeros(4 * n, dtype=complex); a2[:2 * n] = Tt[:, 2]
    b1 = np.zeros(4 * n, dtype=complex); b1[2 * n:] = Tc[:, n + 1]
    b2 = np.zeros(4 * n, dtype=complex); b2[2 * n:] = Tc[:, n + 2]
    from gkw.linear import contraction_operator
    K = contraction_operator([(a1, a2), (b1, b2)], 2 * n)
    J2 = LinearGC.from_complex(std_complex(n))
    Je = deform_gcs(J2, K, 0.25)
    assert type_of(Je) == n - 2
    # zero deformation: unchanged
    J0 = deform_gcs(J2, np.zeros((4 * n, 4 * n)), 1.0)
    assert np.allclose(J0.J, J2.J, atol=1e-9)


def test_orientation_sign():
    from gkw.linear import orientation_sign
    n = 2
    J = std_complex(n)
    assert orientation_sign(J) == orientation_sign(-J)   # m = 4: flip keeps it
    J1 = std_complex(1)
    assert orientation_sign(J1) != orientation_sign(-J1)  # m = 2: flip changes
    for k in (1, 2, 3, 4):   # J x_j = y_j orients (x_1, y_1, ...) positively
        assert orientation_sign(std_complex(k)) == 1


def test_orientation_sign_matches_the_gram_schmidt_oracle():
    # A J0 A^-1 has the orientation of J0 times sign det A
    rng = np.random.default_rng(1414)
    for m in (2, 4, 6, 8):
        seen = set()
        for _ in range(40):
            A = rng.standard_normal((m, m))
            J = A @ std_complex(m // 2) @ np.linalg.inv(A)
            for K in (J, -J):
                sign = linear.orientation_sign(K)
                assert sign == naive.orientation_sign(K)
                seen.add(sign)
            assert linear.orientation_sign(J) == int(np.sign(np.linalg.det(A)))
        assert seen == {1, -1}


def test_type_is_decided_once_per_rank_threshold(monkeypatch):
    # the top block of J_omega's eigenbundle has singular values 1/sqrt(2):
    # clear of the default threshold, within the gap factor of 0.1; pi(L)
    # comes from the same decision as the type
    J = LinearGC.from_symplectic(std_omega_map(2))
    calls = []
    real = linear._decide_rank

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(linear, "_decide_rank", counting)
    for _ in range(2):
        assert J.type_with_gap() == (0, True)
        assert J.type_with_gap(0.1) == (0, False)
        assert J.tangent_projection(0.1).dim == 4
    assert len(calls) == 2


# -- the reduction's real nullspaces against the complex detour ------------------

def test_nullspace_is_real_for_a_real_matrix_and_complex_for_a_complex_one():
    A = np.array([[1, 2, 3], [2, 4, 6]])
    N = linear.nullspace(A, 2)
    assert N.dtype == np.float64 and N.shape == (3, 2)
    assert np.abs(A @ N).max() < 1e-12 and np.abs(N.T @ N - np.eye(2)).max() < 1e-12
    assert linear.nullspace(np.zeros((0, 3)), 3).dtype == np.float64
    Ac = np.array([[1.0, 1j, 0.0]])
    Nc = linear.nullspace(Ac, 2)
    assert Nc.dtype == np.complex128 and Nc.shape == (3, 2)
    assert np.abs(Ac @ Nc).max() < 1e-12
    assert np.abs(Nc.conj().T @ Nc - np.eye(2)).max() < 1e-12
    assert linear.nullspace(np.zeros((0, 3), dtype=complex), 3).dtype == np.complex128


def test_quotient_basis_pairs_as_the_standard_eta():
    rng = np.random.default_rng(2718)
    for m in (4, 6, 8):
        for _ in range(10):
            J, Q = rand_gc_with_admissible_q(rng, m, int(rng.integers(1, m // 2)))
            qb = linear.quotient_basis(J, Q)
            assert np.linalg.norm(qb.C.T @ eta(m) @ qb.C - eta(qb.k)) < 1e-12


def _reduced(reduction, *args):
    """The result of the reduction, or the ValidationError it raises."""
    try:
        return reduction(*args)
    except ValidationError as exc:
        return exc


def _close(A, B):
    return np.abs(A - B).max() <= 1e-9 * max(1.0, np.abs(B).max())


def _same_reduction(new, old, structures):
    """Both reductions reject, or both give quotient structures of equal
    types whose matrices agree to 1e-9 in one frame: the two C are
    orthonormal frames of one subspace, and T = C_old^T C_new is the
    orthogonal change between them."""
    assert isinstance(new, ValidationError) == isinstance(old, ValidationError)
    if isinstance(new, ValidationError):
        return False
    (new_q, new_qb), (old_q, old_qb) = new, old
    T = old_qb.C.T @ new_qb.C
    assert _close(T.T @ T, np.eye(len(T)))
    for a, b in zip(structures(new_q), structures(old_q)):
        assert type(a) is type(b)
        assert a.type_with_gap() == b.type_with_gap()
        assert _close(a.J, T.T @ b.J @ T)
    return True


def _pair_structures(pair):
    return pair.J1, pair.J2


def _same_bihermitian(pair):
    new, old = _reduced(extract_bihermitian, pair), _reduced(naive.extract_bihermitian, pair)
    assert isinstance(new, ValidationError) == isinstance(old, ValidationError)
    if not isinstance(new, ValidationError):
        for field in ("g", "Jplus", "Jminus"):
            assert _close(getattr(new, field), getattr(old, field))


def test_reduction_matches_the_complex_detour_on_seeded_generators():
    rng = np.random.default_rng(161804)
    compared = 0
    for _ in range(60):
        m = int(rng.choice([4, 6, 8]))
        qdim = int(rng.integers(1, max(2, m // 2)))
        try:
            pair, Q = rand_pair_with_admissible_q(rng, m, qdim, allow_hk=True)
        except (ValidationError, RuntimeError):
            continue
        new = _reduced(reduce_pair, pair, Q)
        if _same_reduction(new, _reduced(naive.reduce_pair, pair, Q), _pair_structures):
            _same_bihermitian(new[0])
            compared += 1
        _same_bihermitian(pair)
        J, Q = rand_gc_with_admissible_q(rng, m, int(rng.integers(1, m // 2)))
        _same_reduction(_reduced(reduce_gcs, J, Q), _reduced(naive.reduce_gcs, J, Q),
                        lambda J: (J,))
    assert compared >= 50


@pytest.mark.parametrize("name", catalog_names())
def test_reduction_matches_the_complex_detour_on_catalog_rows(name):
    scenario = build_case(name).scenario
    batch = sample_level_set(scenario, 4, 7)
    for z, Q in zip(batch.points, batch.Q):
        pair = scenario.recipe.pair_at(z)
        new = _reduced(reduce_pair, pair, Q)
        assert _same_reduction(new, _reduced(naive.reduce_pair, pair, Q), _pair_structures)
        _same_bihermitian(new[0])
