"""Pointwise linear algebra of generalized complex structures.

Everything lives on W = V + V* with V = R^m in the fixed coordinate order
(x_1, y_1, ..., x_{m/2}, y_{m/2}); the pairing is <X+a, Y+b> = (a(Y)+b(X))/2,
extended bilinearly (not hermitianly) to the complexification.  Structures
are stored as real 2m x 2m matrices; eigenbundle work happens in C^{2m}.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

RANK_TOL = 1e-9         # singular values below RANK_TOL * smax count as zero
VALIDATION_TOL = 1e-10  # J^2 = -1, orthogonality, metric positivity
ISOTROPY_TOL = 1e-9
GAP_FACTOR = 10.0       # rank is 'indeterminate' if any sv falls within
                        # (threshold/GAP_FACTOR, threshold*GAP_FACTOR)

_TOLS = {"rank": RANK_TOL}


def current_rank_tol() -> float:
    return _TOLS["rank"]


from contextlib import contextmanager


@contextmanager
def rank_tolerance(tol: float):
    """Override the rank threshold for the dynamic extent of a run."""
    old = _TOLS["rank"]
    _TOLS["rank"] = float(tol)
    try:
        yield
    finally:
        _TOLS["rank"] = old


class ValidationError(ValueError):
    """A structure failed its defining residual checks."""


class IndeterminateRankError(ValueError):
    """Singular values too close to the rank threshold to call."""


def eta(m: int) -> np.ndarray:
    E = np.zeros((2 * m, 2 * m))
    E[:m, m:] = np.eye(m) / 2
    E[m:, :m] = np.eye(m) / 2
    return E


def pairing(w1, w2):
    """<X+a, Y+b> = (a(Y) + b(X))/2, bilinear in both slots."""
    w1 = np.asarray(w1)
    w2 = np.asarray(w2)
    if w1.shape != w2.shape or w1.shape[0] % 2:
        raise ValueError("pairing needs two vectors of equal even dimension")
    m = w1.shape[0] // 2
    return (w1[m:] @ w2[:m] + w2[m:] @ w1[:m]) / 2


def numerical_rank(A, tol=None, require_determinate=False):
    """Thresholded rank with a spectral-gap audit.

    Returns (rank, gap_ok, svals).  gap_ok is False when a singular value
    lies within a factor GAP_FACTOR of the threshold, meaning the rank
    decision is tolerance-sensitive.
    """
    tol = current_rank_tol() if tol is None else tol
    A = np.asarray(A)
    if A.size == 0:
        return 0, True, np.zeros(0)
    s = np.linalg.svd(A, compute_uv=False)
    smax = s[0] if s.size and s[0] > 0 else 1.0
    thr = tol * max(1.0, smax)
    rank = int(np.sum(s > thr))
    gap_ok = not np.any((s > thr / GAP_FACTOR) & (s < thr * GAP_FACTOR))
    if require_determinate and not gap_ok:
        raise IndeterminateRankError(
            f"rank indeterminate: singular values {s} vs threshold {thr:.3e}")
    return rank, gap_ok, s


def orthonormal_columns(A, tol=None):
    tol = current_rank_tol() if tol is None else tol
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[1] == 0:
        return np.zeros((A.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(A, full_matrices=False)
    r = int(np.sum(s > tol * max(1.0, s[0] if s.size else 1.0)))
    return u[:, :r]


def nullspace(A, tol=None):
    tol = current_rank_tol() if tol is None else tol
    A = np.asarray(A, dtype=complex)
    if A.shape[0] == 0:
        return np.eye(A.shape[1], dtype=complex)
    u, s, vh = np.linalg.svd(A, full_matrices=True)
    s = np.concatenate([s, np.zeros(max(0, A.shape[1] - len(s)))])
    r = int(np.sum(s > tol * max(1.0, s[0] if s.size else 1.0)))
    return vh[r:].conj().T


@dataclass(frozen=True)
class ComplexSubspace:
    """A complex subspace of C^d held as an orthonormal column basis."""

    basis: np.ndarray
    tol: float = None

    def __post_init__(self):
        if self.tol is None:
            object.__setattr__(self, "tol", current_rank_tol())

    @classmethod
    def from_columns(cls, cols, tol=None):
        tol = current_rank_tol() if tol is None else tol
        return cls(orthonormal_columns(np.asarray(cols, dtype=complex), tol), tol)

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

    def contains(self, vec, tol=None) -> bool:
        return self.residual(vec) < (self.tol if tol is None else tol)

    def perp(self) -> "ComplexSubspace":
        """Perpendicular w.r.t. the bilinear pairing eta (not hermitian)."""
        m = self.ambient_dim // 2
        E = eta(m)
        if self.dim == 0:
            return ComplexSubspace(np.eye(self.ambient_dim, dtype=complex), self.tol)
        return ComplexSubspace(nullspace(self.basis.T @ E, self.tol), self.tol)

    def intersect(self, other: "ComplexSubspace") -> "ComplexSubspace":
        if self.dim == 0 or other.dim == 0:
            return ComplexSubspace(self.basis[:, :0], self.tol)
        N = nullspace(np.hstack([self.basis, -other.basis]), self.tol)
        if N.shape[1] == 0:
            return ComplexSubspace(self.basis[:, :0], self.tol)
        return ComplexSubspace.from_columns(self.basis @ N[:self.dim, :], self.tol)

    def add(self, other: "ComplexSubspace") -> "ComplexSubspace":
        return ComplexSubspace.from_columns(np.hstack([self.basis, other.basis]), self.tol)

    def conjugated(self) -> "ComplexSubspace":
        return ComplexSubspace(self.basis.conj(), self.tol)

    def projection_to_tangent(self) -> "ComplexSubspace":
        """pi(S): the V-block span (first half of the coordinates)."""
        m = self.ambient_dim // 2
        return ComplexSubspace.from_columns(self.basis[:m, :], self.tol)


def subspace_intersection_dim(A: ComplexSubspace, B: ComplexSubspace,
                              require_determinate=True):
    """dim(A cap B) with a rank-gap audit: dim = dimA + dimB - rank[A B]."""
    if A.dim == 0 or B.dim == 0:
        return 0, True
    rank, gap_ok, _ = numerical_rank(np.hstack([A.basis, B.basis]),
                                     require_determinate=require_determinate)
    return A.dim + B.dim - rank, gap_ok


@dataclass(frozen=True)
class LinearGC:
    """A generalized complex structure on V = R^m: real orthogonal J with
    J^2 = -1 on V + V*, validated at construction."""

    J: np.ndarray
    tol: float = VALIDATION_TOL

    def __post_init__(self):
        J = np.asarray(self.J, dtype=float)
        object.__setattr__(self, "J", J)
        if J.ndim != 2 or J.shape[0] != J.shape[1] or J.shape[0] % 2:
            raise ValidationError("J must be square of even dimension 2m")
        m = J.shape[0] // 2
        scale = max(1.0, float(np.linalg.norm(J, ord=2)) if J.size else 1.0)
        r_sq = np.linalg.norm(J @ J + np.eye(2 * m)) / scale
        E = eta(m)
        r_orth = np.linalg.norm(J.T @ E @ J - E) / scale ** 2
        if r_sq > self.tol or r_orth > self.tol:
            raise ValidationError(
                f"not a generalized complex structure: |J^2+I|={r_sq:.3e}, "
                f"|J^T eta J - eta|={r_orth:.3e}")
        L = self.eigenbundle()
        if L.dim != m:
            raise ValidationError(f"eigenbundle has dimension {L.dim}, expected {m}")
        iso = np.abs(L.basis.T @ E @ L.basis).max()
        if iso > ISOTROPY_TOL:
            raise ValidationError(f"eigenbundle not isotropic: max pairing {iso:.3e}")
        rank, _, _ = numerical_rank(np.hstack([L.basis, L.basis.conj()]))
        if rank != 2 * m:
            raise ValidationError("L cap conj(L) != 0")

    @property
    def m(self) -> int:
        return self.J.shape[0] // 2

    def eigenbundle(self) -> ComplexSubspace:
        """The +i eigenspace L in the complexification."""
        cached = getattr(self, "_L", None)
        if cached is None:
            J = self.J.astype(complex)
            cached = ComplexSubspace(nullspace(J - 1j * np.eye(2 * self.m)))
            object.__setattr__(self, "_L", cached)
        return cached

    def type_of(self) -> int:
        """Codimension of pi(L) in V_C; integer from a thresholded rank.
        Raises IndeterminateRankError on a borderline spectrum rather than
        guessing."""
        L = self.eigenbundle()
        rank, _, _ = numerical_rank(L.basis[:self.m, :], require_determinate=True)
        return self.m - rank

    def type_with_gap(self):
        """(type, gap_ok): the thresholded value plus the audit flag; used
        by table builders that report borderline rows instead of raising."""
        L = self.eigenbundle()
        rank, gap_ok, _ = numerical_rank(L.basis[:self.m, :])
        return self.m - rank, gap_ok

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_symplectic(cls, Momega) -> "LinearGC":
        """J_omega = [[0, -M^-1],[M, 0]] for the map M: X -> iota_X omega;
        eigenbundle {X - i iota_X omega}."""
        M = np.asarray(Momega, dtype=float)
        if np.linalg.norm(M + M.T) > 1e-12 * max(1.0, np.linalg.norm(M)):
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
        if np.linalg.norm(Jc @ Jc + np.eye(m)) > 1e-10 * max(1.0, np.linalg.norm(Jc)**2):
            raise ValidationError("not an almost complex structure: Jc^2 != -I")
        J = np.zeros((2 * m, 2 * m))
        J[:m, :m] = -Jc
        J[m:, m:] = Jc.T
        return cls(J)

    @classmethod
    def from_eigenbundle(cls, L: ComplexSubspace) -> "LinearGC":
        """Unique real structure with +i eigenspace L (L max isotropic,
        L cap conj(L) = 0)."""
        d = L.ambient_dim
        mm = d // 2
        if L.dim != mm:
            raise ValidationError("eigenbundle must be maximal")
        S = np.hstack([L.basis, L.basis.conj()])
        rank, _, _ = numerical_rank(S, require_determinate=True)
        if rank != d:
            raise ValidationError("L cap conj(L) != 0: no real structure")
        D = np.diag([1j] * mm + [-1j] * mm)
        J = S @ D @ np.linalg.inv(S)
        if np.linalg.norm(J.imag) > 1e-8 * max(1.0, np.linalg.norm(J.real)):
            raise ValidationError("reconstructed structure is not real")
        return cls(J.real.copy())

    def b_transform(self, B) -> "LinearGC":
        """e^B J e^-B for an antisymmetric map B: V -> V*; same type."""
        B = np.asarray(B, dtype=float)
        if np.linalg.norm(B + B.T) > 1e-12 * max(1.0, np.linalg.norm(B)):
            raise ValidationError("B must be antisymmetric")
        m = self.m
        eB = np.eye(2 * m)
        eB[m:, :m] = B
        eBm = np.eye(2 * m)
        eBm[m:, :m] = -B
        return LinearGC(eB @ self.J @ eBm)

    def product(self, other: "LinearGC") -> "LinearGC":
        """Block structure on V1 + V2 with interleaved V/V* blocks."""
        m1, m2 = self.m, other.m
        m = m1 + m2
        J = np.zeros((2 * m, 2 * m))
        sl = (slice(0, m1), slice(m1, m), slice(m, m + m1), slice(m + m1, 2 * m))
        a = (slice(0, m1), slice(m1, 2 * m1))
        b = (slice(0, m2), slice(m2, 2 * m2))
        for r in range(2):
            for c in range(2):
                J[sl[2 * r], sl[2 * c]] = self.J[a[r], a[c]]
                J[sl[2 * r + 1], sl[2 * c + 1]] = other.J[b[r], b[c]]
        return LinearGC(J)

    def apply(self, w):
        return self.J @ np.asarray(w)


def b_field_matrix(B, m):
    eB = np.eye(2 * m)
    eB[m:, :m] = np.asarray(B, dtype=float)
    return eB


def restricted_projection_dim(J: LinearGC, R: ComplexSubspace) -> int:
    """dim pi(L cap R-perp cap J(R)-perp), defined when J(R) cap R = 0."""
    JR = ComplexSubspace.from_columns(J.J.astype(complex) @ R.basis)
    inter_dim, _ = subspace_intersection_dim(JR, R)
    if inter_dim != 0:
        raise ValidationError("precondition J(R) cap R = 0 fails")
    L = J.eigenbundle()
    S = L.intersect(R.perp()).intersect(JR.perp())
    rank, _, _ = numerical_rank(S.basis[:J.m, :], require_determinate=True)
    return rank


@dataclass(frozen=True)
class KahlerPairNum:
    """Commuting pair (J1, J2) with positive metric G = -J1 J2."""

    J1: LinearGC
    J2: LinearGC
    tol: float = VALIDATION_TOL

    def __post_init__(self):
        J1, J2 = self.J1.J, self.J2.J
        if J1.shape != J2.shape:
            raise ValidationError("pair members act on different spaces")
        m = self.m
        scale = max(1.0, np.linalg.norm(J1, 2) * np.linalg.norm(J2, 2))
        r_comm = np.linalg.norm(J1 @ J2 - J2 @ J1) / scale
        if r_comm > 1e-9:
            raise ValidationError(f"structures do not commute: residual {r_comm:.3e}")
        G = self.G
        gscale = max(1.0, np.linalg.norm(G, 2) ** 2) if G.size else 1.0
        r_inv = np.linalg.norm(G @ G - np.eye(2 * m)) / gscale
        E = eta(m)
        r_orth = np.linalg.norm(G.T @ E @ G - E) / gscale
        if r_inv > self.tol or r_orth > self.tol:
            raise ValidationError(f"G fails metric identities: |G^2-I|={r_inv:.3e}")
        Q = G.T @ E
        ev_min = float(np.linalg.eigvalsh((Q + Q.T) / 2).min())
        if ev_min <= 1e-10:
            raise ValidationError(f"metric not positive definite: min eigenvalue {ev_min:.3e}")

    @property
    def m(self):
        return self.J1.m

    @property
    def G(self) -> np.ndarray:
        return -self.J1.J @ self.J2.J

    def types(self):
        return self.J1.type_of(), self.J2.type_of()


# -- reduction ---------------------------------------------------------------

@dataclass
class QuotientBasis:
    """Representative frame for W~ = P-perp / P inside the ambient W.

    C's columns are (v_1..v_k; beta_1..beta_k): v_i spans a complement of
    Q in ann(J(Q)), beta_i in ann(Q) with beta_i(v_j) = delta_ij, so the
    induced pairing in this basis is exactly the standard eta.
    """

    Q: np.ndarray          # m x q, real, subspace of V
    JQ: np.ndarray         # m x q covectors J(Q)
    P: np.ndarray          # 2m x 2q
    C: np.ndarray          # 2m x 2k representative basis
    k: int                 # quotient V~ dimension


def _real_orthonormal(cols, tol=None):
    tol = current_rank_tol() if tol is None else tol
    cols = np.asarray(cols, dtype=float)
    if cols.size == 0:
        return cols.reshape(cols.shape[0], 0)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    r = int(np.sum(s > tol * max(1.0, s[0] if s.size else 1.0)))
    return u[:, :r]


def quotient_basis(J1: LinearGC, Q) -> QuotientBasis:
    """Build the representative basis for the quotient by P = Q + J1(Q).

    Preconditions (checked): Q < V real, J1(Q) < V*, P isotropic.
    """
    m = J1.m
    Q = _real_orthonormal(np.asarray(Q, dtype=float))
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
    V0 = nullspace(JQ.T.astype(complex))
    V0 = _real_orthonormal(np.hstack([V0.real, V0.imag]))
    Vc = _real_orthonormal(V0 - Q @ (Q.T @ V0))
    k = Vc.shape[1]
    if k != m - 2 * q:
        raise ValidationError(f"quotient dimension {k} != m - 2q = {m - 2 * q}")
    # duals: beta_i in ann(Q) with beta_i(v_j) = delta_ij (minimal norm)
    A = np.vstack([Vc.T, Q.T])
    rhs = np.vstack([np.eye(k), np.zeros((q, k))])
    B, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    C = np.hstack([np.vstack([Vc, np.zeros((m, k))]),
                   np.vstack([np.zeros((m, k)), B])])
    qb = QuotientBasis(Q=Q, JQ=JQ, P=P, C=C, k=k)
    resid = np.linalg.norm(C.T @ E @ C - eta(k))
    if resid > 1e-8:
        raise ValidationError(f"quotient basis pairing residual {resid:.3e}")
    return qb


def _project_through(J, reps, qb: QuotientBasis):
    """Map w in C-basis to J(rep(w)) expressed back in the C-basis mod P."""
    CP = np.hstack([qb.C, qb.P])
    sol, *_ = np.linalg.lstsq(CP, J @ reps, rcond=None)
    return sol[:qb.C.shape[1], :]


def reduce_gcs(J: LinearGC, Q) -> tuple[LinearGC, QuotientBasis]:
    """Quotient structure on V~ = ann(J(Q))/Q; type is preserved.

    Representatives are taken in the Euclidean complement of P inside
    P-perp (no metric is available for a single structure).
    """
    qb = quotient_basis(J, Q)
    if qb.k == J.m:
        return J, qb
    E = eta(J.m)
    Pperp = nullspace(qb.P.T.astype(complex) @ E)
    Pperp = _real_orthonormal(np.hstack([Pperp.real, Pperp.imag]))
    # representative of [c]: component of c in P-perp cap (euclidean P complement)
    W0 = _real_orthonormal(Pperp - qb.P @ np.linalg.lstsq(qb.P, Pperp, rcond=None)[0])
    WP = np.hstack([W0, qb.P])
    sol, *_ = np.linalg.lstsq(WP, qb.C, rcond=None)
    reps = W0 @ sol[:W0.shape[1], :]
    Jq = _project_through(J.J, reps, qb)
    return LinearGC(Jq), qb


def reduce_pair(pair: KahlerPairNum, Q) -> tuple[KahlerPairNum, QuotientBasis]:
    """Generalized Kahler quotient by P = Q + J1(Q), represented through the
    canonical complement W-hat = P-perp cap G(P)-perp."""
    qb = quotient_basis(pair.J1, Q)
    if qb.k == pair.m:
        return pair, qb
    E = eta(pair.m)
    G = pair.G
    GP = G @ qb.P
    What_a = nullspace(qb.P.T.astype(complex) @ E)
    What_b = nullspace(GP.T.astype(complex) @ E)
    What = ComplexSubspace(What_a).intersect(ComplexSubspace(What_b))
    What_r = _real_orthonormal(np.hstack([What.basis.real, What.basis.imag]))
    if What_r.shape[1] != 2 * qb.k:
        raise ValidationError(
            f"W-hat has dimension {What_r.shape[1]}, expected {2 * qb.k}")
    WP = np.hstack([What_r, qb.P])
    sol, *_ = np.linalg.lstsq(WP, qb.C, rcond=None)
    reps = What_r @ sol[:What_r.shape[1], :]
    J1q = LinearGC(_project_through(pair.J1.J, reps, qb))
    J2q = LinearGC(_project_through(pair.J2.J, reps, qb))
    return KahlerPairNum(J1q, J2q), qb


# -- deformation --------------------------------------------------------------

def contraction_operator(pairs, m):
    """K with iota_W eps = K eta W for eps = sum of decomposables (a, b),
    normalized iota_W(a^b) = 2<W,a> b - 2<W,b> a."""
    K = np.zeros((2 * m, 2 * m), dtype=complex)
    for a, b in pairs:
        K += 2 * (np.outer(b, a) - np.outer(a, b))
    return K


def deform_gcs(J2: LinearGC, K: np.ndarray, t: float) -> LinearGC:
    """Structure with eigenbundle L_eps = {Y + t iota_Y eps : Y in L(J2)}."""
    m = J2.m
    E = eta(m)
    L2 = J2.eigenbundle().basis
    Leps = L2 + t * (K @ (E @ L2))
    rank, gap_ok, _ = numerical_rank(np.hstack([Leps, Leps.conj()]))
    if rank != 2 * m or not gap_ok:
        raise ValidationError(
            f"deformation not admissible at t={t}: L_eps cap conj(L_eps) != 0")
    return LinearGC.from_eigenbundle(ComplexSubspace.from_columns(Leps))


def deform_pair(pair: KahlerPairNum, K: np.ndarray, t: float) -> KahlerPairNum:
    """Deform J2 by t*eps while keeping J1; revalidates the pair."""
    return KahlerPairNum(pair.J1, deform_gcs(pair.J2, K, t))


# -- bi-Hermitian extraction ---------------------------------------------------

@dataclass(frozen=True)
class BiHermitianData:
    g: np.ndarray
    Jplus: np.ndarray
    Jminus: np.ndarray

    def validate(self, tol=ISOTROPY_TOL):
        m = self.g.shape[0]
        ev = np.linalg.eigvalsh((self.g + self.g.T) / 2)
        gscale = max(1.0, float(np.linalg.norm(self.g, 2)))
        jscale = max(1.0, float(np.linalg.norm(self.Jplus, 2)) ** 2)
        checks = {
            "g_min_eigenvalue": float(ev.min()),
            "jplus_square": float(np.linalg.norm(self.Jplus @ self.Jplus + np.eye(m))) / jscale,
            "jminus_square": float(np.linalg.norm(self.Jminus @ self.Jminus + np.eye(m))) / jscale,
            "jplus_orthogonal": float(np.linalg.norm(
                self.Jplus.T @ self.g @ self.Jplus - self.g)) / (gscale * jscale),
            "jminus_orthogonal": float(np.linalg.norm(
                self.Jminus.T @ self.g @ self.Jminus - self.g)) / (gscale * jscale),
            "same_orientation": orientation_sign(self.Jplus) == orientation_sign(self.Jminus),
        }
        ok = (checks["g_min_eigenvalue"] > 1e-10
              and checks["jplus_square"] < tol and checks["jminus_square"] < tol
              and checks["jplus_orthogonal"] < tol and checks["jminus_orthogonal"] < tol
              and checks["same_orientation"])
        return ok, checks

    def distinct(self, tol=1e-6) -> bool:
        return bool(np.linalg.norm(self.Jplus - self.Jminus) > tol
                    and np.linalg.norm(self.Jplus + self.Jminus) > tol)


def orientation_sign(J) -> int:
    """Orientation class of an almost complex structure on R^m."""
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


def extract_bihermitian(pair: KahlerPairNum) -> BiHermitianData:
    """Transport J1 through the +1 and -1 eigenbundles of G = -J1 J2.

    On C+, J2 = J1 and on C-, J2 = -J1, so the two transports carry the
    full pair.  The overall sign on the C+ transport is chosen so a genuine
    Kahler pair returns Jplus = Jminus = J.
    """
    m = pair.m
    E = eta(m)
    G = pair.G
    w, v = np.linalg.eig(G)
    out = {}
    for s in (1, -1):
        sel = np.abs(w - s) < 1e-8
        if int(sel.sum()) != m:
            raise ValidationError("metric eigenspace split failed tolerance")
        Cb = _real_orthonormal(np.hstack([v[:, sel].real, v[:, sel].imag]))
        if Cb.shape[1] != m:
            raise ValidationError("metric eigenspace split failed tolerance")
        top = Cb[:m, :]
        lift = Cb @ np.linalg.inv(top)
        g = s * (lift.T @ E @ lift)
        out[s] = ((g + g.T) / 2, (pair.J1.J @ lift)[:m, :])
    gp, Ap = out[1]
    gm, Am = out[-1]
    if np.linalg.norm(gp - gm) > 1e-8 * max(1.0, np.linalg.norm(gp)):
        raise ValidationError("C+ and C- induce different tangent metrics")
    return BiHermitianData(g=gp, Jplus=-Ap, Jminus=Am)
