"""Reference oracle for the reduction's subspaces: the complex detour.

This is the engine's earlier code, kept apart from ``gkw.linear`` so that
the real nullspaces the reduction now takes are checked against an
independent copy.  Every subspace is found in C^{2m} and its real span
taken back; W-hat is the intersection of two complex nullspaces; the dual
basis of the quotient frame is a least-squares solve whose pairing is
checked afterwards; the quotient matrices are least-squares fits in both
stages (``quotient_matrices``); C+- come from an eigendecomposition of G,
split at a window around +-1.  Each of these subspaces is a nullspace
thresholded at RANK_TOL, and its dimension is checked against the one the
mathematics fixes.

The structure check is the earlier one too (``structure``): after J^2 = -1
and eta-orthogonality, the +i eigenbundle L, a thresholded nullspace of
J - i, must have dimension m and meet its conjugate only in 0.  A
deformation (``deform_gcs``) also counts the thresholded span of L_eps and
decides the rank of [u, conj u] again before that check.

``orientation_sign`` is the earlier Gram-Schmidt one: standard basis
vectors, each taken with its image under J after its least-squares residual
against the columns so far, skipping a vector whose residual is below 1e-8.
"""
import numpy as np

from gkw.linear import (ISOTROPY_TOL, RANK_TOL, BiHermitianData, ComplexSubspace,
                        KahlerPairNum, LinearGC, QuotientBasis, ValidationError,
                        eta, numerical_rank, orthonormal_columns)

from generators import complex_nullspace, from_eigenbundle, intersect

PAIRING_TOL = 1e-8   # |C^T eta C - eta(k)| of the least-squares dual basis
SPLIT_TOL = 1e-8     # |w -+ 1| of an eigenvalue of G counted in C+-


def structure(J) -> LinearGC:
    """LinearGC(J), then the checks that J^2 = -1 with eta-orthogonality
    imply: dim L = m and L cap conj(L) = 0, each decided at RANK_TOL."""
    J = LinearGC(J)
    m = J.m
    L = complex_nullspace(J.J - 1j * np.eye(2 * m))
    if L.shape[1] != m:
        raise ValidationError(f"eigenbundle has dimension {L.shape[1]}, expected {m}")
    if numerical_rank(np.hstack([L, L.conj()]))[0] != 2 * m:
        raise ValidationError("L cap conj(L) != 0")
    return J


def deform_gcs(J2: LinearGC, K, t: float) -> LinearGC:
    """The structure with eigenbundle L_eps = L2 + t K eta L2: admissible
    when [L_eps, conj L_eps] has rank 2m with a clear gap; then the span u
    of L_eps thresholded at RANK_TOL must be maximal with [u, conj u] of a
    determinate full rank (``from_eigenbundle``), and the structure must
    pass ``structure``."""
    m = J2.m
    L2 = J2.eigenbundle().basis
    Leps = L2 + t * (K @ (eta(m) @ L2))
    rank, gap_ok, _ = numerical_rank(np.hstack([Leps, Leps.conj()]))
    if rank != 2 * m or not gap_ok:
        raise ValidationError(
            f"deformation not admissible at t={t}: L_eps cap conj(L_eps) != 0")
    u, s, _ = np.linalg.svd(Leps, full_matrices=False)
    span = ComplexSubspace(u[:, :int((s > RANK_TOL * max(1.0, s[0])).sum())])
    return structure(from_eigenbundle(span).J)


def real_span(X):
    """Orthonormal real basis of the real span of the columns of X and of
    their conjugates."""
    return orthonormal_columns(np.hstack([X.real, X.imag]))


def quotient_basis(J1: LinearGC, Q) -> QuotientBasis:
    m = J1.m
    Q = orthonormal_columns(np.asarray(Q, dtype=float))
    q = Q.shape[1]
    Wq = np.vstack([Q, np.zeros((m, q))])
    JWq = J1.J @ Wq
    if np.linalg.norm(JWq[:m, :]) > 1e-8:
        raise ValidationError("J(Q) is not contained in V*")
    JQ = JWq[m:, :]
    P = np.hstack([Wq, JWq])
    E = eta(m)
    iso = float(np.abs(P.T @ E @ P).max()) if q else 0.0
    if iso > ISOTROPY_TOL:
        raise ValidationError(f"P = Q + J(Q) is not isotropic: residual {iso:.3e}")
    # V0 = annihilator of J(Q) in V; complement of Q inside it
    V0 = real_span(complex_nullspace(JQ.T))
    Vc = orthonormal_columns(V0 - Q @ (Q.T @ V0))
    k = Vc.shape[1]
    if k != m - 2 * q:
        raise ValidationError(f"quotient dimension {k} != m - 2q = {m - 2 * q}")
    # duals: beta_i in ann(Q) with beta_i(v_j) = delta_ij (minimal norm)
    A = np.vstack([Vc.T, Q.T])
    rhs = np.vstack([np.eye(k), np.zeros((q, k))])
    B, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    C = np.hstack([np.vstack([Vc, np.zeros((m, k))]),
                   np.vstack([np.zeros((m, k)), B])])
    resid = np.linalg.norm(C.T @ E @ C - eta(k))
    if resid > PAIRING_TOL:
        raise ValidationError(f"quotient basis pairing residual {resid:.3e}")
    return QuotientBasis(Q=Q, P=P, C=C, k=k, isotropy=iso)


def quotient_matrices(W, qb: QuotientBasis, *Js):
    """Each J on the quotient, in the C-basis, by two least-squares fits:
    the representatives r of C in W, a complement of P inside P-perp, are
    the W-part of the solution of [W, P] x = C; then J r = C a + P b is
    solved for (a, b) and a kept."""
    sol, *_ = np.linalg.lstsq(np.hstack([W, qb.P]), qb.C, rcond=None)
    reps = W @ sol[:W.shape[1], :]
    CP = np.hstack([qb.C, qb.P])
    return [np.linalg.lstsq(CP, J @ reps, rcond=None)[0][:qb.C.shape[1], :] for J in Js]


def reduce_gcs(J: LinearGC, Q):
    qb = quotient_basis(J, Q)
    if qb.k == J.m:
        return J, qb
    Pperp = real_span(complex_nullspace(qb.P.T @ eta(J.m)))
    W0 = orthonormal_columns(Pperp - qb.P @ np.linalg.lstsq(qb.P, Pperp, rcond=None)[0])
    (Jq,) = quotient_matrices(W0, qb, J.J)
    return structure(Jq), qb


def reduce_pair(pair: KahlerPairNum, Q):
    qb = quotient_basis(pair.J1, Q)
    if qb.k == pair.m:
        return pair, qb
    E = eta(pair.m)
    What_a = complex_nullspace(qb.P.T @ E)
    What_b = complex_nullspace((pair.G @ qb.P).T @ E)
    What = real_span(intersect(ComplexSubspace(What_a), ComplexSubspace(What_b)).basis)
    if What.shape[1] != 2 * qb.k:
        raise ValidationError(
            f"W-hat has dimension {What.shape[1]}, expected {2 * qb.k}")
    J1q, J2q = quotient_matrices(What, qb, pair.J1.J, pair.J2.J)
    return KahlerPairNum(structure(J1q), structure(J2q)), qb


def extract_bihermitian(pair: KahlerPairNum) -> BiHermitianData:
    m = pair.m
    E = eta(m)
    w, v = np.linalg.eig(pair.G)
    out = {}
    for s in (1, -1):
        sel = np.abs(w - s) < SPLIT_TOL
        if int(sel.sum()) != m:
            raise ValidationError("metric eigenspace split failed tolerance")
        Cb = real_span(v[:, sel])
        if Cb.shape[1] != m:
            raise ValidationError("metric eigenspace split failed tolerance")
        lift = Cb @ np.linalg.inv(Cb[:m, :])
        g = s * (lift.T @ E @ lift)
        out[s] = ((g + g.T) / 2, (pair.J1.J @ lift)[:m, :])
    gp, Ap = out[1]
    gm, Am = out[-1]
    if np.linalg.norm(gp - gm) > 1e-8 * max(1.0, np.linalg.norm(gp)):
        raise ValidationError("C+ and C- induce different tangent metrics")
    return BiHermitianData(g=gp, Jplus=-Ap, Jminus=Am)


def orientation_sign(J) -> int:
    """Sign of det[e, Je, ...] over the standard basis vectors e that
    leave the span of the columns chosen so far."""
    J = np.asarray(J, dtype=float)
    m = J.shape[0]
    cols: list[np.ndarray] = []
    for k in range(m):
        e = np.zeros(m)
        e[k] = 1.0
        if cols:
            Bas = np.array(cols).T
            resid = e - Bas @ np.linalg.lstsq(Bas, e, rcond=None)[0]
            if np.linalg.norm(resid) < 1e-8:
                continue
            e = resid
        cols.append(e)
        cols.append(J @ e)
        if len(cols) == m:
            break
    return int(np.sign(np.linalg.det(np.array(cols).T)))
