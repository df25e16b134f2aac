"""Seeded random generators shared by the property-test modules."""
from fractions import Fraction

import numpy as np

from gkw.actions import TorusAction, standard_moment_map
from gkw.calculus import Form, GeneralizedSection, LMultivector, VectorField
from gkw.frames import _frame_rows
from gkw.linear import (ANTISYMMETRY_TOL, RANK_TOL, ComplexSubspace, KahlerPairNum,
                        LinearGC, ValidationError, _Outcomes, _real_structures, b_conjugate,
                        b_field_matrix, eta, numerical_rank, orthonormal_columns,
                        subspace_intersection_dim)
from gkw.pipeline import ConstantPairRecipe, Scenario, ScalingSampler, _standard_pair
from gkw.poly import QI, QI_I, ComplexPolynomial


REDUCTION_REJECT_SHARE = 0.05


class ReductionTally:
    """The two kinds of rejection in a seeded loop that checks a reduction
    on ``checks`` generated instances, counted apart: the generator failing
    to build an instance, and the reduction rejecting an admissible one.

    The reduction may reject at most REDUCTION_REJECT_SHARE * ``checks``
    inputs; that is also at most that share of all its inputs, since the
    loop hands it at least ``checks`` more.  The tally fails at the first
    rejection past that bound, so a reduction that rejects every input
    fails instead of keeping the loop running.  A generator or reduction
    consumes the loop's rng exactly as it would called directly."""

    def __init__(self, checks: int):
        self.checks = checks
        self.generator_rejected = 0
        self.inputs = 0
        self.rejected = 0

    def generate(self, generator, *args, **kwargs):
        """generator(*args, **kwargs), or None if it builds no instance."""
        try:
            return generator(*args, **kwargs)
        except (ValidationError, RuntimeError):
            self.generator_rejected += 1
            return None

    def reduce(self, reduction, *args):
        """reduction(*args), or None if it rejects its admissible input."""
        self.inputs += 1
        try:
            return reduction(*args)
        except ValidationError as exc:
            self.rejected += 1
            assert self.rejected <= REDUCTION_REJECT_SHARE * self.checks, (
                f"the reduction rejected {self.rejected} of {self.inputs} admissible "
                f"inputs, the last with: {exc}")
            return None


def rand_qi(rng, den=4):
    return QI(Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, den))),
              Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, den))))


def rand_poly(rng, n, max_terms=2, max_deg=1):
    terms = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        e = tuple(int(rng.integers(0, max_deg + 1)) for _ in range(2 * n))
        terms[e] = rand_qi(rng)
    return ComplexPolynomial(n, terms)


def rand_sparse_poly(rng, n, max_terms=4, max_deg=2):
    """A polynomial over a random subset of the 2n exponent positions, so
    that some z and some zbar variables are often missing; possibly zero."""
    used = [q for q in range(2 * n) if rng.random() < 0.5]
    terms = {}
    for _ in range(int(rng.integers(0, max_terms + 1))):
        e = [0] * (2 * n)
        for q in used:
            e[q] = int(rng.integers(0, max_deg + 1))
        terms[tuple(e)] = rand_qi(rng)
    return ComplexPolynomial(n, terms)


def rand_sparse_section(rng, n):
    """A section whose coefficients are ``rand_sparse_poly`` polynomials."""
    comps = {a: rand_sparse_poly(rng, n) for a in range(2 * n) if rng.random() < 0.6}
    form = {(a,): rand_sparse_poly(rng, n) for a in range(2 * n) if rng.random() < 0.6}
    return GeneralizedSection(VectorField(n, comps), Form(n, 1, form))


def rand_section_parts(rng, n, max_terms=2, max_deg=1, frame_indices=None):
    """The vector field and 1-form of a random section."""
    vec = {}
    form = {}
    idx = frame_indices if frame_indices is not None else range(2 * n)
    for a in idx:
        if rng.random() < 0.5:
            vec[a] = rand_poly(rng, n, max_terms, max_deg)
    for a in idx:
        if rng.random() < 0.5:
            form[(a,)] = rand_poly(rng, n, max_terms, max_deg)
    return VectorField(n, vec), Form(n, 1, form)


def rand_section(rng, n, max_terms=2, max_deg=1, frame_indices=None):
    return GeneralizedSection(*rand_section_parts(rng, n, max_terms, max_deg, frame_indices))


def rand_lbar_section(rng, n, max_deg=1):
    """Random section of the antihol-closed bundle T10 + T*01 (for the
    Schouten caller contract)."""
    vec = {a: rand_poly(rng, n, 2, max_deg) for a in range(n) if rng.random() < 0.7}
    form = {(n + a,): rand_poly(rng, n, 2, max_deg) for a in range(n) if rng.random() < 0.7}
    if not vec and not form:
        vec[0] = ComplexPolynomial.one(n)
    return GeneralizedSection(VectorField(n, vec), Form(n, 1, form))


# -- numeric structures ---------------------------------------------------------

def rand_antisym(rng, m, scale=1.0):
    A = rng.standard_normal((m, m)) * scale
    return A - A.T


def rand_invertible(rng, m):
    while True:
        A = rng.standard_normal((m, m))
        if abs(np.linalg.det(A)) > 0.1:
            return A


def rand_symplectic_map(rng, m):
    """Random invertible antisymmetric omega map."""
    while True:
        M = rand_antisym(rng, m)
        if abs(np.linalg.det(M)) > 1e-3:
            return M


def rand_complex_structure(rng, m):
    J0 = np.zeros((m, m))
    for q in range(m // 2):
        J0[2 * q + 1, 2 * q] = 1.0
        J0[2 * q, 2 * q + 1] = -1.0
    A = rand_invertible(rng, m)
    return A @ J0 @ np.linalg.inv(A)


def gl_conjugate(J, A):
    """Conjugation by diag(A, A^-T), which preserves the pairing."""
    m = J.J.shape[0] // 2
    O = np.zeros((2 * m, 2 * m))
    O[:m, :m] = A
    O[m:, m:] = np.linalg.inv(A).T
    Oi = np.linalg.inv(O)
    return LinearGC(O @ J.J @ Oi)


def product(J1: LinearGC, J2: LinearGC) -> LinearGC:
    """Block structure on V1 + V2 with interleaved V/V* blocks."""
    m1, m2 = J1.m, J2.m
    m = m1 + m2
    J = np.zeros((2 * m, 2 * m))
    sl = (slice(0, m1), slice(m1, m), slice(m, m + m1), slice(m + m1, 2 * m))
    a = (slice(0, m1), slice(m1, 2 * m1))
    b = (slice(0, m2), slice(m2, 2 * m2))
    for r in range(2):
        for c in range(2):
            J[sl[2 * r], sl[2 * c]] = J1.J[a[r], a[c]]
            J[sl[2 * r + 1], sl[2 * c + 1]] = J2.J[b[r], b[c]]
    return LinearGC(J)


def product_cp1xc_scenario() -> Scenario:
    """C^3 = C^2 x C with J1 = J_omega + J_I and J2 = J_I + J_omega, a
    constant pair whose J1 has type 1, reduced by the circle of weights
    (1, 1, 0) at level 1: the quotient is CP^1 x C with types (1, 1), and
    its I+ and I- have opposite orientations."""
    c2, c1 = _standard_pair(2), _standard_pair(1)
    recipe = ConstantPairRecipe(3, product(c2.J1, c1.J2).J, product(c2.J2, c1.J1).J,
                                label="product-cp1xc")
    action = TorusAction(((1, 1, 0),))
    moment = standard_moment_map(action)
    return Scenario(name="product-cp1xc", n=3, recipe=recipe, action=action,
                    moment=moment, level=(Fraction(1),),
                    sampler=ScalingSampler(moment, [1.0]))


def rand_gc(rng, m):
    """Random generalized complex structure on R^m (m even)."""
    kind = rng.integers(0, 4)
    if kind == 0:
        J = LinearGC.from_symplectic(rand_symplectic_map(rng, m))
    elif kind == 1:
        J = LinearGC.from_complex(rand_complex_structure(rng, m))
    elif kind == 2 and m >= 4:
        m1 = 2 * int(rng.integers(1, m // 2))
        J = product(rand_gc(rng, m1), rand_gc(rng, m - m1))
    else:
        J = LinearGC.from_symplectic(rand_symplectic_map(rng, m))
    if rng.random() < 0.5:
        J = b_transform(J, rand_antisym(rng, m, 0.5))
    if rng.random() < 0.5:
        J = gl_conjugate(J, rand_invertible(rng, m))
    return J


def rand_compatible_kahler(rng, m):
    """Genuine Kahler block: random J plus J-invariant positive g; the pair
    (J_omega, J_J) with omega map M = -g J is positive."""
    Jc = rand_complex_structure(rng, m)
    S = rng.standard_normal((m, m))
    g0 = S @ S.T + m * np.eye(m)
    g = g0 + Jc.T @ g0 @ Jc
    M = -g @ Jc
    return KahlerPairNum(LinearGC.from_symplectic(M), LinearGC.from_complex(Jc))


def hk_block_pair():
    """Flat hyper-Kahler pair normalized so J1 is honestly symplectic
    (B-transform by -omega_K): (J_{sig-}, e^{-2K} J_{sig+} e^{2K})."""
    from gkw.catalog import hyperkahler_pair
    J1, J2, (I4, J4, K4), X, mus = hyperkahler_pair()
    eB = b_field_matrix(-K4, 4)
    eBm = b_field_matrix(K4, 4)
    return KahlerPairNum(LinearGC(eB @ J1 @ eBm), LinearGC(eB @ J2 @ eBm))


def rand_pair_with_admissible_q(rng, m, qdim=1, allow_hk=True):
    """Random generalized Kahler pair on R^m whose J1 is symplectic-type,
    plus an omega-isotropic Q (so P = Q + J1(Q) is isotropic); built from
    genuine Kahler and (optionally) flat hyper-Kahler blocks, B-transformed
    by forms vanishing on Q and GL-conjugated."""
    blocks = []
    left = m
    while left > 0:
        if allow_hk and left >= 4 and rng.random() < 0.4:
            blocks.append(("hk", 4))
            left -= 4
        else:
            take = 2 * int(rng.integers(1, left // 2 + 1))
            blocks.append(("kahler", take))
            left -= take
    pair = None
    for kind, size in blocks:
        blk = hk_block_pair() if kind == "hk" else rand_compatible_kahler(rng, size)
        if pair is None:
            pair = blk
        else:
            pair = KahlerPairNum(product(pair.J1, blk.J1), product(pair.J2, blk.J2))
    # omega map of J1 (its lower-left block)
    M = pair.J1.J[m:, :m]
    Q = np.zeros((m, 0))
    for _ in range(qdim):
        for _attempt in range(50):
            v = rng.standard_normal(m)
            if Q.shape[1]:
                # project v into the annihilator of M Q (sigma-orthogonal)
                W = (M @ Q).T
                u, s, vh = np.linalg.svd(W, full_matrices=True)
                ns = vh[(s > 1e-10 * max(1, s[0] if len(s) else 1)).sum():].T
                v = ns @ (ns.T @ v)
            if np.linalg.norm(v) > 1e-6:
                v = v / np.linalg.norm(v)
                Q = np.column_stack([Q, v])
                break
        else:
            raise RuntimeError("failed to extend isotropic Q")
    if rng.random() < 0.5:
        B = rand_antisym(rng, m, 0.3)
        # make B vanish on Q: B' = P^T B P with P the projector killing Q
        P = np.eye(m) - Q @ np.linalg.pinv(Q)
        B = P.T @ B @ P
        pair = KahlerPairNum(b_transform(pair.J1, B), b_transform(pair.J2, B))
    if rng.random() < 0.5:
        A = rand_invertible(rng, m)
        pair = KahlerPairNum(gl_conjugate(pair.J1, A), gl_conjugate(pair.J2, A))
        Q = A @ Q
    return pair, Q


def rand_gc_with_admissible_q(rng, m, qdim=1):
    """Random J with J(Q) < V* and P isotropic: symplectic (+ complex
    factors) with omega-isotropic Q in the symplectic part."""
    m1 = m if rng.random() < 0.5 or m < 4 else 2 * int(rng.integers(1, m // 2 + 1))
    M = rand_symplectic_map(rng, m1)
    J = LinearGC.from_symplectic(M)
    if m1 < m:
        J = product(J, LinearGC.from_complex(rand_complex_structure(rng, m - m1)))
    Q = np.zeros((m, 0))
    for _ in range(qdim):
        for _attempt in range(50):
            v = np.concatenate([rng.standard_normal(m1), np.zeros(m - m1)])
            if Q.shape[1]:
                W = np.zeros((Q.shape[1], m))
                W[:, :m1] = (M @ Q[:m1, :]).T
                u, s, vh = np.linalg.svd(W, full_matrices=True)
                ns = vh[(s > 1e-10 * max(1, s[0] if len(s) else 1)).sum():].T
                v = ns @ (ns.T @ v)
                v[m1:] = 0
            if np.linalg.norm(v) > 1e-6:
                Q = np.column_stack([Q, v / np.linalg.norm(v)])
                break
        else:
            raise RuntimeError("failed to extend isotropic Q")
    if rng.random() < 0.5:
        B = rand_antisym(rng, m, 0.3)
        P = np.eye(m) - Q @ np.linalg.pinv(Q)
        B = P.T @ B @ P
        J = b_transform(J, B)
    if rng.random() < 0.5:
        A = rand_invertible(rng, m)
        J = gl_conjugate(J, A)
        Q = A @ Q
    return J, Q


def ddx_field(n, j):
    return VectorField(n, {j: ComplexPolynomial.one(n), j + n: ComplexPolynomial.one(n)})


def ddy_field(n, j):
    return VectorField(n, {j: ComplexPolynomial.const(n, QI_I),
                           j + n: ComplexPolynomial.const(n, -QI_I)})


def point_to_real(z) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    out = np.zeros(2 * len(z))
    out[0::2] = z.real
    out[1::2] = z.imag
    return out


def grassmannian_matrix_polynomials(action):
    """The Hermitian matrix Phi(Z) = Z Z-dagger as exact polynomials."""
    N = action.ambient_n
    out = [[ComplexPolynomial.zero(N) for _ in range(action.n)] for _ in range(action.n)]
    for a in range(action.n):
        for b in range(action.n):
            p = ComplexPolynomial.zero(N)
            for j in range(action.m):
                p = p + (ComplexPolynomial.variable(N, action.flat(a, j))
                         * ComplexPolynomial.variable(N, action.flat(b, j), conjugated=True))
            out[a][b] = p
    return out


def group_element_exact(action, params):
    """A rational-entry element of U(n), n = action.n, from tangent-half-angle
    data.

    params: list of (a, b, t1, t2) Givens-style blocks; each yields the
    exact unitary [[c, -s w], [s conj(w), c]] on rows (a, b) with
    c = (1-t1^2)/(1+t1^2), s = 2 t1/(1+t1^2), w = rational unit complex
    from t2.  Entries are QI."""
    n = action.n
    A = [[QI(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for (a, b, t1, t2) in params:
        c, s = _tan_half(t1)
        cw, sw = _tan_half(t2)
        w = QI(cw, sw)
        B = [[QI(1 if i == j else 0) for j in range(n)] for i in range(n)]
        B[a][a] = QI(c)
        B[b][b] = QI(c)
        B[a][b] = -QI(s) * w
        B[b][a] = QI(s) * w.conjugate()
        A = [[sum((A[i][k] * B[k][j] for k in range(n)), QI(0))
              for j in range(n)] for i in range(n)]
    return A


def _tan_half(t: Fraction):
    """Exact point on the unit circle: (cos, sin) = ((1-t^2), 2t)/(1+t^2)."""
    t = Fraction(t)
    d = 1 + t * t
    return (1 - t * t) / d, 2 * t / d


def interior_point(poly):
    """The mean of the exact vertices of a PolytopeSpec."""
    verts = poly.vertices()
    return [sum(v[i] for v in verts) / len(verts) for i in range(poly.d)]


def slacks(poly, x):
    """s_i(x) = c_i - <eta_i, x>, so |z_i|^2 = 2 s_i on the level set."""
    return [c - sum(Fraction(a) * Fraction(v) for a, v in zip(eta, x))
            for eta, c in zip(poly.normals, poly.offsets)]


# -- helpers of the tests only ----------------------------------------------------

def b_transform(J: LinearGC, B) -> LinearGC:
    """e^B J e^-B for an antisymmetric map B: V -> V*; same type."""
    B = np.asarray(B, dtype=float)
    if np.linalg.norm(B + B.T) > ANTISYMMETRY_TOL * max(1.0, np.linalg.norm(B)):
        raise ValidationError("B must be antisymmetric")
    return LinearGC(b_conjugate(J.J, B))


def from_sections(n, coeff, factors) -> LMultivector:
    """coeff ^ s_1 ^ ... ^ s_k, expanded over the frame."""
    if not isinstance(coeff, ComplexPolynomial):
        coeff = ComplexPolynomial.const(n, coeff)
    out = LMultivector.from_function(coeff)
    for s in factors:
        out = out.wedge(s)
    return out


def real_coframe(n: int):
    """dx_1, dy_1, ..., dx_n, dy_n as constant 1-forms: the real covector
    e^r takes d/dz_a to T[r][a]."""
    return tuple(Form(n, 1, {(a,): ComplexPolynomial.const(n, c) for a, c in row})
                 for row in _frame_rows(n)[0])


def from_columns(cols, tol=RANK_TOL) -> ComplexSubspace:
    """The subspace spanned by the columns, thresholded at ``tol``."""
    return ComplexSubspace(orthonormal_columns(np.asarray(cols, dtype=complex), tol))


def contains(S: ComplexSubspace, vec, tol=RANK_TOL) -> bool:
    return S.residual(vec) < tol


def projection_to_tangent(S: ComplexSubspace, tol=RANK_TOL) -> ComplexSubspace:
    """pi(S): the V-block span (first half of the coordinates)."""
    return from_columns(S.basis[:S.ambient_dim // 2, :], tol)


def type_of(J: LinearGC) -> int:
    """Codimension of pi(L) in V_C; integer from a thresholded rank.
    Raises IndeterminateRankError on a borderline spectrum rather than
    guessing."""
    rank, _, _ = numerical_rank(J.eigenbundle().basis[:J.m, :], require_determinate=True)
    return J.m - rank


def from_eigenbundle(L: ComplexSubspace) -> LinearGC:
    """Unique real structure with +i eigenspace L (L max isotropic,
    L cap conj(L) = 0).  L must be maximal and [L, conj L] of full rank,
    decided at RANK_TOL; a rank within the gap window raises
    IndeterminateRankError."""
    if L.dim != L.ambient_dim // 2:
        raise ValidationError("eigenbundle must be maximal")
    rank, _, _ = numerical_rank(np.hstack([L.basis, L.basis.conj()]),
                                require_determinate=True)
    if rank != L.ambient_dim:
        raise ValidationError("L cap conj(L) != 0: no real structure")
    out = _Outcomes(1)
    (J,) = _real_structures(L.basis[None], out)
    out.raise_first()
    return LinearGC(J[0])


def complex_nullspace(A, tol=RANK_TOL):
    """Orthonormal complex basis of the numerical nullspace of A, of the
    dimension that singular values above tol * max(1, smax) leave."""
    A = np.asarray(A, dtype=complex)
    if A.shape[0] == 0:
        return np.eye(A.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    rank = int((s > tol * max(1.0, s[0])).sum())
    return vh[rank:].conj().T


def perp(S: ComplexSubspace) -> ComplexSubspace:
    """Perpendicular w.r.t. the bilinear pairing eta (not hermitian)."""
    m = S.ambient_dim // 2
    if S.dim == 0:
        return ComplexSubspace(np.eye(S.ambient_dim, dtype=complex))
    return ComplexSubspace(complex_nullspace(S.basis.T @ eta(m)))


def intersect(S: ComplexSubspace, T: ComplexSubspace) -> ComplexSubspace:
    if S.dim == 0 or T.dim == 0:
        return ComplexSubspace(S.basis[:, :0])
    N = complex_nullspace(np.hstack([S.basis, -T.basis]))
    if N.shape[1] == 0:
        return ComplexSubspace(S.basis[:, :0])
    return from_columns(S.basis @ N[:S.dim, :])


def add(S: ComplexSubspace, T: ComplexSubspace) -> ComplexSubspace:
    return from_columns(np.hstack([S.basis, T.basis]))


def restricted_projection_dim(J: LinearGC, R: ComplexSubspace) -> int:
    """dim pi(L cap R-perp cap J(R)-perp), defined when J(R) cap R = 0."""
    JR = from_columns(J.J.astype(complex) @ R.basis)
    inter_dim, _ = subspace_intersection_dim(JR, R)
    if inter_dim != 0:
        raise ValidationError("precondition J(R) cap R = 0 fails")
    S = intersect(intersect(J.eigenbundle(), perp(R)), perp(JR))
    rank, _, _ = numerical_rank(S.basis[:J.m, :], require_determinate=True)
    return rank
