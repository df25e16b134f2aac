"""Pointwise linear algebra of generalized complex structures.

Everything lives on W = V + V* with V = R^m in the fixed coordinate order
(x_1, y_1, ..., x_{m/2}, y_{m/2}); the pairing is <X+a, Y+b> = (a(Y)+b(X))/2,
extended bilinearly (not hermitianly) to the complexification.  Structures
are stored as real 2m x 2m matrices; eigenbundle work happens in C^{2m}.

Every subspace whose dimension the mathematics fixes is read at that
dimension: ``nullspace(A, dim)`` keeps the right singular vectors of the
``dim`` smallest singular values of A, with no threshold and no shape check.
The reduction by P = Q + J1(Q) stays in R^{2m}, as Q, J1(Q), P and
G = -J1 J2 are real: each of its subspaces is one real nullspace.  With
E = eta(m): the quotient frame V_c = ker [J1(Q), Q]^T (dimension m - 2q),
the complement of Q in ann(J1(Q)), is its own dual basis in ann(Q), so
C = diag(V_c, V_c) pairs as eta(k); a pair's representatives are W-hat =
ker([P, GP]^T E) = P-perp cap G(P)-perp, a structure's W_0 = ker [E P, P]^T
(the Euclidean complement of P in P-perp), both of dimension 2k; and
C+- = ker(G -+ 1), each of dimension m.

The validation checks of a structure and of a pair act on the last two axes
of their arrays, so one pass checks a whole stack (S, 2m, 2m) of them, and
a single structure is checked as a stack of one.  A structure check is
J^2 = -1 with eta-orthogonality, and nothing more: a real J with J^2 = -1 is
diagonalizable with eigenvalues +-i, and its -i eigenspace is the conjugate
of its +i eigenspace L, so C^{2m} = L + conj(L) with dim L = m; and
eta-orthogonality makes L isotropic (<v, w> = <Jv, Jw> = -<v, w> on L).  A
pair check is G = -J1 J2 with G^2 = 1 (for two structures, exactly when
they commute), then G^T eta positive definite; G is eta-orthogonal because
J1 and J2 are.  A row of a stack is rejected at its first failed check,
with that check's error.

Every rank threshold is an explicit argument.  The ranks a structure's
construction still decides (a deformation's admissibility, the span of Q)
are cut at the fixed RANK_TOL, and structures are validated at the fixed
VALIDATION_TOL, so a structure never depends on the threshold of the run
that asks about it.  The span of Q is decided
once: the orthonormal frame ``quotient_basis`` keeps is the one P is built
from and the one k_M is read from.
Only the ranks a report shows take the run's threshold: a structure's type
(``LinearGC.type_with_gap(tol)``), decided once per structure and threshold,
so a structure shared by many points or asked by several report sections
costs one rank decision.  pi(L) comes with the type: the SVD of the V-block
of L that decides it also gives pi(L), the left singular vectors of the
rank it keeps (``LinearGC.tangent_projection(tol)``).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

RANK_TOL = 1e-9         # singular values below RANK_TOL * smax count as zero
VALIDATION_TOL = 1e-10  # J^2 = -1, orthogonality, metric positivity
ISOTROPY_TOL = 1e-9
ANTISYMMETRY_TOL = 1e-12  # |M + M^T| relative to max(1, |M|) for omega and B maps
DISTINCT_TOL = 1e-6     # |J+ -/+ J-| above this: the bi-Hermitian pair is distinct
GAP_FACTOR = 10.0       # rank is 'indeterminate' if any sv falls within
                        # (threshold/GAP_FACTOR, threshold*GAP_FACTOR)


class ValidationError(ValueError):
    """A structure failed its defining residual checks."""


class IndeterminateRankError(ValueError):
    """Singular values too close to the rank threshold to call."""


@lru_cache(maxsize=None)
def eta(m: int) -> np.ndarray:
    """The pairing matrix on V + V* (dim V = m); built once per m, read-only."""
    E = np.zeros((2 * m, 2 * m))
    E[:m, m:] = np.eye(m) / 2
    E[m:, :m] = np.eye(m) / 2
    E.setflags(write=False)
    return E


def pairing(w1, w2):
    """<X+a, Y+b> = (a(Y) + b(X))/2, bilinear in both slots."""
    w1 = np.asarray(w1)
    w2 = np.asarray(w2)
    if w1.shape != w2.shape or w1.shape[0] % 2:
        raise ValueError("pairing needs two vectors of equal even dimension")
    m = w1.shape[0] // 2
    return (w1[m:] @ w2[:m] + w2[m:] @ w1[:m]) / 2


# The stacked checks below reduce with ndarray methods rather than the np.*
# wrappers: on the small matrices checked one at a time, the wrappers'
# Python overhead exceeds the arithmetic.

def _threshold(s, tol):
    """tol * max(1, smax) for singular values s (..., k) in descending
    order, shaped (..., 1) to compare with s."""
    return tol * np.maximum(1.0, s[..., :1])


def _decide_rank(s, tol):
    """(rank, gap_ok, threshold) for singular values s (..., k) in
    descending order: the count above the threshold, and whether none lies
    within a factor GAP_FACTOR of it."""
    thr = _threshold(s, tol)
    rank = (s > thr).sum(-1)
    gap_ok = ~((s > thr / GAP_FACTOR) & (s < thr * GAP_FACTOR)).any(-1)
    return rank, gap_ok, thr[..., 0]


def _ranks(A, tol):
    """(rank, gap_ok, s, threshold) of each matrix in the stack A."""
    s = np.linalg.svd(A, compute_uv=False)
    rank, gap_ok, thr = _decide_rank(s, tol)
    return rank, gap_ok, s, thr


def _norm2(A):
    """Spectral norm of each matrix in the stack A."""
    return np.linalg.svd(A, compute_uv=False)[..., 0]


def _fro(A):
    """Frobenius norm of each real matrix in the stack A: the square root
    of one dot product of its entries, the sum ``np.linalg.norm`` takes of
    a single matrix, so a stack of one gives its value to the last bit."""
    flat = A.reshape(A.shape[:-2] + (A.shape[-2] * A.shape[-1],))
    return np.sqrt((flat[..., None, :] @ flat[..., :, None])[..., 0, 0])


def _indeterminate(s, thr) -> IndeterminateRankError:
    return IndeterminateRankError(
        f"rank indeterminate: singular values {s} vs threshold {thr:.3e}")


def numerical_rank(A, tol=RANK_TOL, require_determinate=False):
    """Thresholded rank with a spectral-gap audit.

    Returns (rank, gap_ok, svals).  gap_ok is False when a singular value
    lies within a factor GAP_FACTOR of the threshold, meaning the rank
    decision is tolerance-sensitive.
    """
    A = np.asarray(A)
    if A.size == 0:
        return 0, True, np.zeros(0)
    rank, gap_ok, s, thr = _ranks(A, tol)
    if require_determinate and not gap_ok:
        raise _indeterminate(s, thr)
    return int(rank), bool(gap_ok), s


def orthonormal_columns(A, tol=RANK_TOL):
    """Orthonormal basis of the numerical column span of A: real for a real
    A, complex otherwise."""
    A = np.asarray(A)
    A = A.astype(complex if np.iscomplexobj(A) else float, copy=False)
    if A.ndim != 2 or A.shape[1] == 0:
        return np.zeros((A.shape[0], 0), dtype=A.dtype)
    u, s, _ = np.linalg.svd(A, full_matrices=False)
    return u[:, :int((s > _threshold(s, tol)).sum())]


def nullspace(A, dim):
    """Orthonormal basis of the nullspace of A, of the dimension ``dim``
    that the caller knows: the right singular vectors of the ``dim``
    smallest singular values, with no threshold.  Real for a real A,
    complex otherwise; a stack (..., r, n) gives a stack (..., n, dim)."""
    A = np.asarray(A)
    n = A.shape[-1]
    if A.shape[-2] == 0:
        return np.eye(n, dtype=complex if np.iscomplexobj(A) else float)[:, n - dim:]
    vh = np.linalg.svd(A, full_matrices=True)[2]
    return np.swapaxes(vh[..., n - dim:, :].conj(), -1, -2)


class _Outcomes:
    """Per-row results of checks run on a stack: the rows still passing
    every check so far, and for each row that failed the error its first
    failed check raises when the row is checked on its own."""

    def __init__(self, count: int):
        self.alive = np.arange(count)
        self.results = [None] * count

    def reject(self, bad, error_at, *arrays):
        """Record ``error_at(k)`` for each alive row k with ``bad[k]``, drop
        those rows, and return ``arrays`` (aligned with the alive rows) cut
        to the rows that stay."""
        if not np.count_nonzero(bad):
            return arrays
        for k in np.flatnonzero(bad):
            self.results[self.alive[k]] = error_at(k)
        self.alive = self.alive[~bad]
        return tuple(a[~bad] for a in arrays)

    def raise_first(self):
        """Raise the error of the first row that failed, if any."""
        for r in self.results:
            if isinstance(r, Exception):
                raise r


def _checked(cls, **fields):
    """An instance of a frozen structure class whose checks already ran as
    part of a stack."""
    obj = object.__new__(cls)
    for k, v in fields.items():
        object.__setattr__(obj, k, v)
    return obj


@dataclass(frozen=True)
class ComplexSubspace:
    """A complex subspace of C^d held as an orthonormal column basis."""

    basis: np.ndarray

    @property
    def ambient_dim(self):
        return self.basis.shape[0]

    @property
    def dim(self):
        return self.basis.shape[1]

    def residual(self, vec) -> float:
        """Relative norm of the component of vec outside the subspace."""
        v = np.asarray(vec, dtype=complex)
        nv = np.linalg.norm(v)
        if nv == 0:
            return 0.0
        r = v - self.basis @ (self.basis.conj().T @ v)
        return float(np.linalg.norm(r) / nv)


def subspace_intersection_dim(A: ComplexSubspace, B: ComplexSubspace,
                              require_determinate=True, tol=RANK_TOL):
    """dim(A cap B) with a rank-gap audit: dim = dimA + dimB - rank[A B]."""
    if A.dim == 0 or B.dim == 0:
        return 0, True
    rank, gap_ok, _ = numerical_rank(np.hstack([A.basis, B.basis]), tol,
                                     require_determinate=require_determinate)
    return A.dim + B.dim - rank, gap_ok


@dataclass(frozen=True)
class LinearGC:
    """A generalized complex structure on V = R^m: real orthogonal J with
    J^2 = -1 on V + V*, validated at construction."""

    J: np.ndarray

    def __post_init__(self):
        J = np.asarray(self.J, dtype=float)
        object.__setattr__(self, "J", J)
        if J.ndim != 2 or J.shape[0] != J.shape[1] or J.shape[0] % 2:
            raise ValidationError("J must be square of even dimension 2m")
        out = _Outcomes(1)
        _check_structures(J[None], out)
        out.raise_first()
        L = nullspace(J - 1j * np.eye(J.shape[0]), self.m)
        object.__setattr__(self, "_L", ComplexSubspace(L))

    @property
    def m(self) -> int:
        return self.J.shape[0] // 2

    def eigenbundle(self) -> ComplexSubspace:
        """The +i eigenspace L in the complexification, an orthonormal basis
        found with the structure."""
        return self._L

    def _type_decision(self, tol):
        """(type, gap_ok, u) at rank threshold ``tol``, all from one SVD of
        the V-block of L, kept per threshold: u holds its left singular
        vectors, and the first m - type of them span pi(L)."""
        memo = self.__dict__.setdefault("_types", {})
        if tol not in memo:
            u, s, _ = np.linalg.svd(self._L.basis[:self.m, :], full_matrices=False)
            rank, gap_ok, _ = _decide_rank(s, tol)
            memo[tol] = (self.m - int(rank), bool(gap_ok), u)
        return memo[tol]

    def type_with_gap(self, tol=RANK_TOL):
        """(type, gap_ok): the value at rank threshold ``tol`` plus the audit
        flag; used by table builders that report borderline rows instead of
        raising.  Decided once per structure and threshold."""
        return self._type_decision(tol)[:2]

    def tangent_projection(self, tol=RANK_TOL) -> ComplexSubspace:
        """pi(L), the V-block span of the eigenbundle, at the rank that
        ``type_with_gap(tol)`` decides."""
        type_, _, u = self._type_decision(tol)
        return ComplexSubspace(u[:, :self.m - type_])

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_symplectic(cls, Momega) -> "LinearGC":
        """J_omega = [[0, -M^-1],[M, 0]] for the map M: X -> iota_X omega;
        eigenbundle {X - i iota_X omega}."""
        M = np.asarray(Momega, dtype=float)
        if np.linalg.norm(M + M.T) > ANTISYMMETRY_TOL * max(1.0, np.linalg.norm(M)):
            raise ValidationError("omega map must be antisymmetric")
        try:
            Minv = np.linalg.inv(M)
        except np.linalg.LinAlgError as exc:
            raise ValidationError("omega is singular") from exc
        m = M.shape[0]
        J = np.zeros((2 * m, 2 * m))
        J[:m, m:] = -Minv
        J[m:, :m] = M
        return cls(J)

    @classmethod
    def from_complex(cls, Jc) -> "LinearGC":
        """J_J = diag(-Jc, Jc^T); eigenbundle T01 + T*10."""
        Jc = np.asarray(Jc, dtype=float)
        m = Jc.shape[0]
        if np.linalg.norm(Jc @ Jc + np.eye(m)) > VALIDATION_TOL * max(1.0, np.linalg.norm(Jc)**2):
            raise ValidationError("not an almost complex structure: Jc^2 != -I")
        J = np.zeros((2 * m, 2 * m))
        J[:m, :m] = -Jc
        J[m:, m:] = Jc.T
        return cls(J)


def _check_structures(J, out: _Outcomes, *carry):
    """The check of LinearGC on a stack J of real 2m x 2m matrices (the
    rows of ``out`` still alive): J^2 = -1 and eta-orthogonality.  These
    imply the rest: a real J with J^2 = -1 is diagonalizable with
    eigenvalues +-i, and its +-i eigenspaces are conjugate, so its +i
    eigenbundle L has dim L = m and L cap conj(L) = 0; eta-orthogonality
    makes L isotropic.  Returns the ``carry`` arrays cut to the rows that
    pass."""
    d = J.shape[-1]
    E = eta(d // 2)
    scale = np.maximum(1.0, _norm2(J))
    r_sq = _fro(J @ J + np.eye(d)) / scale
    r_orth = _fro(np.swapaxes(J, -1, -2) @ E @ J - E) / scale ** 2
    bad = (r_sq > VALIDATION_TOL) | (r_orth > VALIDATION_TOL)
    return out.reject(bad, lambda k: ValidationError(
        f"not a generalized complex structure: |J^2+I|={r_sq[k]:.3e}, "
        f"|J^T eta J - eta|={r_orth[k]:.3e} (J^2 = -1 and eta-orthogonality, "
        f"which make the +i eigenbundle isotropic)"), *carry)


def _real_structures(L, out: _Outcomes, *carry):
    """J = S diag(i, -i) S^-1 for S = [L, conj L], on a stack L of bases
    (2m x m) of eigenbundles whose [L, conj L] the caller knows to have
    full rank; a row whose J is not real is rejected.  Returns (J, *carry)
    for the rows that pass, J real and contiguous."""
    m = L.shape[-2] // 2
    S = np.concatenate([L, L.conj()], axis=-1)
    J = S @ np.diag([1j] * m + [-1j] * m) @ np.linalg.inv(S)
    not_real = _fro(J.imag) > 1e-8 * np.maximum(1.0, _fro(J.real))
    (J, *carry) = out.reject(not_real, lambda k: ValidationError(
        "reconstructed structure is not real"), J, *carry)
    return (np.ascontiguousarray(J.real), *carry)


def b_field_matrix(B, m):
    """e^B on V + V* (dim V = m) for a map B: V -> V*."""
    eB = np.eye(2 * m)
    eB[m:, :m] = np.asarray(B, dtype=float)
    return eB


def b_conjugate(J, B) -> np.ndarray:
    """e^B J e^-B: the B-field transform of a structure matrix J on V + V*."""
    m = J.shape[0] // 2
    return b_field_matrix(B, m) @ J @ b_field_matrix(-B, m)


@dataclass(frozen=True)
class KahlerPairNum:
    """Commuting pair (J1, J2) with positive metric G = -J1 J2."""

    J1: LinearGC
    J2: LinearGC

    def __post_init__(self):
        J1, J2 = self.J1.J, self.J2.J
        if J1.shape != J2.shape:
            raise ValidationError("pair members act on different spaces")
        out = _Outcomes(1)
        _check_pairs(J1[None], J2[None], out)
        out.raise_first()

    @property
    def m(self):
        return self.J1.m

    @property
    def G(self) -> np.ndarray:
        return -self.J1.J @ self.J2.J


def _check_pairs(J1, J2, out: _Outcomes, *carry):
    """The checks of KahlerPairNum on stacks J1, J2 of structures (the rows
    of ``out`` still alive), in order: G = -J1 J2 has G^2 = 1 (J1 and J2
    commute), then G^T eta is positive definite.  G is eta-orthogonal
    without a check, as the structures are: G^T eta G = J2^T (J1^T eta J1)
    J2 = eta.  Returns the ``carry`` arrays cut to the rows that pass."""
    d = J2.shape[-1]
    G = -J1 @ J2
    GT = np.swapaxes(G, -1, -2)
    r_inv = _fro(G @ G - np.eye(d)) / np.maximum(1.0, _norm2(G) ** 2)
    (GT, *carry) = out.reject(r_inv > VALIDATION_TOL, lambda k: ValidationError(
        f"G = -J1 J2 fails G^2 = 1: |G^2-I|={r_inv[k]:.3e} (G^2 = 1 exactly when J1 and "
        f"J2 commute; G^T eta G = eta follows from the structures' eta-orthogonality)"),
        GT, *carry)
    Q = GT @ eta(d // 2)
    ev_min = np.linalg.eigvalsh((Q + np.swapaxes(Q, -1, -2)) / 2).min(axis=-1)
    return out.reject(ev_min <= VALIDATION_TOL, lambda k: ValidationError(
        f"metric not positive definite: min eigenvalue {ev_min[k]:.3e}"), *carry)


# -- reduction ---------------------------------------------------------------

@dataclass
class QuotientBasis:
    """Representative frame for W~ = P-perp / P inside the ambient W.

    C's columns are (v_1..v_k; beta_1..beta_k): the v_i are an orthonormal
    basis of ker [J(Q), Q]^T, the complement of Q in ann(J(Q)), and
    beta_i = v_i, which lies in ann(Q) with beta_i(v_j) = delta_ij; so the
    induced pairing in this basis is exactly the standard eta.
    """

    Q: np.ndarray          # m x q, real, subspace of V
    P: np.ndarray          # 2m x 2q
    C: np.ndarray          # 2m x 2k representative basis
    k: int                 # quotient V~ dimension
    isotropy: float        # max |<P, P>|, at most ISOTROPY_TOL


def quotient_basis(J1: LinearGC, Q) -> QuotientBasis:
    """Build the representative basis for the quotient by P = Q + J1(Q).

    Preconditions (checked): Q < V real, J1(Q) < V*, P isotropic.
    """
    m = J1.m
    Q = orthonormal_columns(np.asarray(Q, dtype=float))
    q = Q.shape[1]
    Wq = np.vstack([Q, np.zeros((m, q))])
    JWq = J1.J @ Wq
    if np.linalg.norm(JWq[:m, :]) > 1e-8:
        raise ValidationError("J(Q) is not contained in V*")
    JQ = JWq[m:, :]
    P = np.hstack([Wq, JWq])
    iso = float(np.abs(P.T @ eta(m) @ P).max()) if q else 0.0
    if iso > ISOTROPY_TOL:
        raise ValidationError(f"P = Q + J(Q) is not isotropic: residual {iso:.3e}")
    k = m - 2 * q
    Vc = nullspace(np.hstack([JQ, Q]).T, k)
    C = np.kron(np.eye(2), Vc)    # diag(Vc, Vc)
    return QuotientBasis(Q=Q, P=P, C=C, k=k, isotropy=iso)


def _quotient_matrices(W, qb: QuotientBasis, *Js):
    """Lift the C-basis to representatives in W, a complement of P inside
    P-perp, then express each J's image of them back in the C-basis mod P."""
    sol, *_ = np.linalg.lstsq(np.hstack([W, qb.P]), qb.C, rcond=None)
    reps = W @ sol[:W.shape[1], :]
    CP = np.hstack([qb.C, qb.P])
    return [np.linalg.lstsq(CP, J @ reps, rcond=None)[0][:qb.C.shape[1], :] for J in Js]


def reduce_gcs(J: LinearGC, Q) -> tuple[LinearGC, QuotientBasis]:
    """Quotient structure on V~ = ann(J(Q))/Q; type is preserved.

    Representatives are taken in the Euclidean complement of P inside
    P-perp (no metric is available for a single structure).
    """
    qb = quotient_basis(J, Q)
    if qb.k == J.m:
        return J, qb
    W0 = nullspace(np.hstack([eta(J.m) @ qb.P, qb.P]).T, 2 * qb.k)
    (Jq,) = _quotient_matrices(W0, qb, J.J)
    return LinearGC(Jq), qb


def reduce_pair(pair: KahlerPairNum, Q) -> tuple[KahlerPairNum, QuotientBasis]:
    """Generalized Kahler quotient by P = Q + J1(Q), represented through the
    canonical complement W-hat = P-perp cap G(P)-perp."""
    qb = quotient_basis(pair.J1, Q)
    if qb.k == pair.m:
        return pair, qb
    What = nullspace(np.hstack([qb.P, pair.G @ qb.P]).T @ eta(pair.m), 2 * qb.k)
    J1q, J2q = _quotient_matrices(What, qb, pair.J1.J, pair.J2.J)
    return KahlerPairNum(LinearGC(J1q), LinearGC(J2q)), qb


# -- deformation --------------------------------------------------------------

def contraction_operator(pairs, m):
    """K with iota_W eps = K eta W for eps = sum of decomposables (a, b),
    normalized iota_W(a^b) = 2<W,a> b - 2<W,b> a.  Vectors with leading
    axes give a stack of operators, one per point."""
    K = np.zeros((2 * m, 2 * m), dtype=complex)
    for a, b in pairs:
        K = K + 2 * (b[..., :, None] * a[..., None, :] - a[..., :, None] * b[..., None, :])
    return K


def _deformed_structures(J2: LinearGC, K, t: float, out: _Outcomes):
    """The checks of deform_gcs on a stack K of contraction operators.
    Admissibility is one decision: [L_eps, conj L_eps] has rank 2m with a
    clear gap at RANK_TOL, for L_eps = L2 + t K eta L2; so L_eps has
    dimension m and meets its conjugate only in 0.  Then J = S diag(i, -i)
    S^-1 for S = [u, conj u], u an orthonormal basis of L_eps, must be real
    and pass the structure check.  Returns (J, u) for the rows that pass;
    u is the eigenbundle of J."""
    m = J2.m
    L2 = J2.eigenbundle().basis
    Leps = L2 + t * (K @ (eta(m) @ L2))
    rank, gap_ok, _, _ = _ranks(np.concatenate([Leps, Leps.conj()], axis=-1), RANK_TOL)
    (Leps,) = out.reject((rank != 2 * m) | ~gap_ok, lambda k: ValidationError(
        f"deformation not admissible at t={t}: L_eps cap conj(L_eps) != 0"), Leps)
    u = np.linalg.svd(Leps, full_matrices=False)[0]
    J, u = _real_structures(u, out, u)
    return _check_structures(J, out, J, u)


def _structures(J, L) -> list:
    """The LinearGC of each row that passed _check_structures, with
    eigenbundle L[k]."""
    return [_checked(LinearGC, J=J[k].copy(), _L=ComplexSubspace(L[k]))
            for k in range(len(J))]


def deform_gcs(J2: LinearGC, K: np.ndarray, t: float) -> LinearGC:
    """Structure with eigenbundle L_eps = {Y + t iota_Y eps : Y in L(J2)}."""
    out = _Outcomes(1)
    structures = _structures(*_deformed_structures(J2, np.asarray(K)[None], t, out))
    out.raise_first()
    return structures[0]


def deform_pair(pair: KahlerPairNum, K: np.ndarray, t: float):
    """Deform J2 by t*eps while keeping J1; revalidates the pair.

    K is one contraction operator, or a stack (S, 4n, 4n) of them, one per
    point.  A stack is checked in one pass and gives a list: per point the
    validated pair, or the exception that the call with that point's
    operator alone raises."""
    K = np.asarray(K)
    stack = K if K.ndim == 3 else K[None]
    out = _Outcomes(len(stack))
    J, L = _deformed_structures(pair.J2, stack, t, out)
    J, L = _check_pairs(np.broadcast_to(pair.J1.J, J.shape), J, out, J, L)
    for i, J2 in zip(out.alive, _structures(J, L)):
        out.results[i] = _checked(KahlerPairNum, J1=pair.J1, J2=J2)
    if K.ndim == 3:
        return out.results
    out.raise_first()
    return out.results[0]


# -- bi-Hermitian extraction ---------------------------------------------------
#
# Extraction, its checks and the orientation act on the last two axes of
# their arrays, as the structure and pair checks do: one pass handles a
# stack of pairs, and a single pair is a stack of one.

@dataclass(frozen=True)
class BiHermitianData:
    """The metric g and complex structures I+ (Jplus) and I- (Jminus) on V,
    each m x m, or stacks (S, m, m) of them, one entry per pair."""

    g: np.ndarray
    Jplus: np.ndarray
    Jminus: np.ndarray

    def validate(self):
        """(ok, checks): g positive, I+- squaring to -1 and g-orthogonal, and
        I+ and I- orienting V alike.  On a stack, ok and every check are
        arrays with one entry per pair; on a single one, Python scalars."""
        single = self.g.ndim == 2
        g, Jp, Jm = (a[None] if single else a for a in (self.g, self.Jplus, self.Jminus))
        m = g.shape[-1]
        jscale = np.maximum(1.0, _norm2(Jp)) ** 2
        oscale = np.maximum(1.0, _norm2(g)) * jscale
        checks = {
            "g_min_eigenvalue": np.linalg.eigvalsh((g + np.swapaxes(g, -1, -2)) / 2)[..., 0],
            "jplus_square": _fro(Jp @ Jp + np.eye(m)) / jscale,
            "jminus_square": _fro(Jm @ Jm + np.eye(m)) / jscale,
            "jplus_orthogonal": _fro(np.swapaxes(Jp, -1, -2) @ g @ Jp - g) / oscale,
            "jminus_orthogonal": _fro(np.swapaxes(Jm, -1, -2) @ g @ Jm - g) / oscale,
            "same_orientation": orientation_sign(Jp) == orientation_sign(Jm),
        }
        ok = ((checks["g_min_eigenvalue"] > VALIDATION_TOL)
              & (checks["jplus_square"] < ISOTROPY_TOL)
              & (checks["jminus_square"] < ISOTROPY_TOL)
              & (checks["jplus_orthogonal"] < ISOTROPY_TOL)
              & (checks["jminus_orthogonal"] < ISOTROPY_TOL)
              & checks["same_orientation"])
        if single:
            return bool(ok[0]), {k: v[0].item() for k, v in checks.items()}
        return ok, checks

    def distinct(self):
        """I+ differs from both I- and -I- (an array on a stack)."""
        apart = ((_fro(self.Jplus - self.Jminus) > DISTINCT_TOL)
                 & (_fro(self.Jplus + self.Jminus) > DISTINCT_TOL))
        return apart if self.g.ndim > 2 else bool(apart)


def orientation_sign(J):
    """Orientation class of an almost complex structure J on R^m: the sign
    of det[x_1, J x_1, ..., x_{m/2}, J x_{m/2}] for a complex basis x of
    (R^m, J).  u = x - iJx is a basis of the +i eigenspace, read at its
    dimension m/2, and [x, Jx] = [Re u, -Im u], hence the sign (-1)^{m/2};
    any other basis of the eigenspace gives the same sign, as the real form
    of a complex change of basis has determinant |det|^2 > 0.  A stack
    (S, m, m) gives an integer array of S signs."""
    J = np.asarray(J, dtype=float)
    m = J.shape[-1]
    u = nullspace(J - 1j * np.eye(m), m // 2)
    frame = np.stack([u.real, u.imag], axis=-1).reshape(u.shape[:-1] + (m,))
    sign = (-1) ** (m // 2) * np.sign(np.linalg.det(frame)).astype(int)
    return sign if J.ndim > 2 else int(sign)


def extract_bihermitian(pairs) -> BiHermitianData:
    """Transport J1 through the +1 and -1 eigenbundles of G = -J1 J2.

    On C+, J2 = J1 and on C-, J2 = -J1, so the two transports carry the
    full pair.  The overall sign on the C+ transport is chosen so a genuine
    Kahler pair returns Jplus = Jminus = J.  The metric is the one C+
    induces: G^T eta is positive definite, so C+ is a positive subspace,
    C- = C+-perp is negative, and the two are the graphs of b + g and b - g
    over V for one b and g, which makes the metric C- induces the same g.

    ``pairs`` is one KahlerPairNum, or a sequence of pairs on one V,
    extracted as one stack: then every array of the result has a leading
    axis with one entry per pair.
    """
    single = isinstance(pairs, KahlerPairNum)
    stack = [pairs] if single else list(pairs)
    m = stack[0].m
    J1 = np.stack([p.J1.J for p in stack])
    G = -J1 @ np.stack([p.J2.J for p in stack])
    lifts = []
    for s in (1, -1):
        Cb = nullspace(G - s * np.eye(2 * m), m)
        lifts.append(Cb @ np.linalg.inv(Cb[:, :m, :]))
    lift_plus, lift_minus = lifts
    g = np.swapaxes(lift_plus, -1, -2) @ eta(m) @ lift_plus
    g = (g + np.swapaxes(g, -1, -2)) / 2
    Jplus = -(J1 @ lift_plus)[:, :m, :]
    Jminus = (J1 @ lift_minus)[:, :m, :]
    if single:
        return BiHermitianData(g=g[0], Jplus=Jplus[0], Jminus=Jminus[0])
    return BiHermitianData(g=g, Jplus=Jplus, Jminus=Jminus)
