"""Bridge between the symbolic z/zbar frame and real coordinates.

Real coordinates are ordered (x_1, y_1, ..., x_n, y_n) with z_j = x_j + i y_j,
so V = R^{2n} and W = V + V* is 4n-dimensional.  The frame change is written
once, as the exact matrix ``tangent_frame_exact(n)``; the numeric frame
matrices are its complex copies, and the exact conversions of real-frame
data (coordinates, coframe, linear fields, constant 2-forms, metric
pairings, quadratics) are products with it.  The standard ambient
structures used by every scenario:

    omega_std = sum_j dy_j ^ dx_j      (map  M dx_j = -dy_j, M dy_j = dx_j)
    J_std     dx_j -> dy_j

With the pairing <X+a, Y+b> = (a(Y)+b(X))/2 these make (J_omega, J_J) a
positive generalized Kahler pair and give dPhi = iota_{xi} omega for
Phi = 1/2 sum w_j |z_j|^2 with the counterclockwise rotation field.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .calculus import Form, VectorField
from .poly import QI, QI_HALF, QI_ZERO, ComplexPolynomial


def _frozen(T: np.ndarray) -> np.ndarray:
    T.setflags(write=False)
    return T


@lru_cache(maxsize=None)
def tangent_frame_exact(n: int):
    """Columns: real coordinates of d/dz_1..d/dz_n, d/dzbar_1..d/dzbar_n,
    exactly (d/dz = (d/dx - i d/dy)/2, d/dzbar = (d/dx + i d/dy)/2): a tuple
    of 2n rows of QI.  The one place the frame convention is written down;
    every frame matrix and real-frame conversion below is read off it."""
    T = [[QI_ZERO] * (2 * n) for _ in range(2 * n)]
    for q in range(n):
        T[2 * q][q] = T[2 * q][n + q] = QI_HALF
        T[2 * q + 1][q] = QI(0, Fraction(-1, 2))
        T[2 * q + 1][n + q] = QI(0, Fraction(1, 2))
    return tuple(tuple(row) for row in T)


@lru_cache(maxsize=None)
def tangent_frame_matrix(n: int) -> np.ndarray:
    """The complex copy of ``tangent_frame_exact(n)``, built once per n and
    returned read-only, like the other frame matrices."""
    return _frozen(np.array([[c.to_complex() for c in row] for row in tangent_frame_exact(n)]))


@lru_cache(maxsize=None)
def tangent_frame_inverse(n: int) -> np.ndarray:
    """The inverse of ``tangent_frame_matrix(n)``: real coordinates to the z/zbar frame."""
    return _frozen(np.linalg.inv(tangent_frame_matrix(n)))


@lru_cache(maxsize=None)
def covector_frame_matrix(n: int) -> np.ndarray:
    """Columns: real coordinates of dz_1..dz_n, dzbar_1..dzbar_n: 2 conj(T),
    the transpose of T^-1."""
    return _frozen(2 * np.conj(tangent_frame_matrix(n)))


def _sparse(A):
    """The nonzero entries (k, A[r][k]) of each row r of a matrix, as
    ``_apply`` takes it: every entry is tested for zero once."""
    return tuple(tuple((k, c) for k, c in enumerate(row) if c) for row in A)


def _apply(rows, v, zero):
    """The product A v of a QI matrix, given by its ``_sparse`` rows, and a
    vector of QI or polynomials: each entry sums the nonzero coefficients'
    terms in order."""
    out = []
    for row in rows:
        total = zero
        for k, c in row:
            total = total + v[k] * c
        out.append(total)
    return out


def _exact(M):
    """The entries of a real matrix (Fraction, int or float) as QI; a float
    converts to its exact binary value."""
    return [[QI.of(x) for x in row] for row in M]


def _transpose(M):
    return list(zip(*M))


@lru_cache(maxsize=None)
def _frame_rows(n: int):
    """The ``_sparse`` rows of T, of T^T and of T^-1 = 2 conj(T)^T
    (d/dx = d/dz + d/dzbar, d/dy = i(d/dz - d/dzbar)), kept with T."""
    Tt = _transpose(tangent_frame_exact(n))
    return (_sparse(tangent_frame_exact(n)), _sparse(Tt),
            _sparse([[c.conjugate() * 2 for c in col] for col in Tt]))


@lru_cache(maxsize=None)
def real_coordinates(n: int):
    """x_1, y_1, ..., x_n, y_n as exact polynomials: T applied to (z, zbar),
    so x_j = (z_j + zbar_j)/2 and y_j = (z_j - zbar_j)/(2i)."""
    zs = [ComplexPolynomial.variable(n, a % n, conjugated=a >= n) for a in range(2 * n)]
    return tuple(_apply(_frame_rows(n)[0], zs, ComplexPolynomial.zero(n)))


def real_linear_field(A) -> VectorField:
    """The vector field of x -> A x, A a real 2n x 2n matrix in the real
    coordinates: z/zbar components T^-1 A x."""
    A = _sparse(_exact(A))
    n = len(A) // 2
    zero = ComplexPolynomial.zero(n)
    Tinv = _frame_rows(n)[2]
    return VectorField(n, dict(enumerate(_apply(Tinv, _apply(A, real_coordinates(n), zero), zero))))


def constant_two_form(M) -> Form:
    """The constant 2-form w of a real antisymmetric map M: X -> iota_X w,
    with components w(d/dz_a, d/dz_b) = (T^T M^T T)[a][b], summed over the
    nonzero entries M[s][r] as T[r][a] M[s][r] T[s][b]."""
    M = _sparse(_exact(M))
    n = len(M) // 2
    T = _frame_rows(n)[0]
    W = [[QI_ZERO] * (2 * n) for _ in range(2 * n)]
    for s, row in enumerate(M):
        for r, m in row:
            for a, ta in T[r]:
                for b, tb in T[s]:
                    W[a][b] = W[a][b] + ta * m * tb
    return Form(n, 2, {(a, b): ComplexPolynomial.const(n, W[a][b])
                       for b in range(2 * n) for a in range(b)})


def metric_pairing(g, X: VectorField) -> Form:
    """g(., X) as an exact 1-form, g a constant real 2n x 2n metric: the
    components T^T g T X over dz/dzbar."""
    n = X.n
    T, Tt, _ = _frame_rows(n)
    zero = ComplexPolynomial.zero(n)
    frame = [X.comps.get(a, zero) for a in range(2 * n)]
    u = _apply(Tt, _apply(_sparse(_exact(g)), _apply(T, frame, zero), zero), zero)
    return Form(n, 1, {(b,): p for b, p in enumerate(u)})


def real_quadratic(S) -> ComplexPolynomial:
    """1/2 x^T S x over the real coordinates, S a real symmetric matrix."""
    S = _sparse(_exact(S))
    n = len(S) // 2
    x = real_coordinates(n)
    zero = ComplexPolynomial.zero(n)
    return _apply(_sparse([x]), _apply(S, x, zero), zero)[0] * QI_HALF


@lru_cache(maxsize=None)
def section_frame_matrix(n: int) -> np.ndarray:
    T = np.zeros((4 * n, 4 * n), dtype=complex)
    T[:2 * n, :2 * n] = tangent_frame_matrix(n)
    T[2 * n:, 2 * n:] = covector_frame_matrix(n)
    return _frozen(T)


def omega_std_map(n: int) -> np.ndarray:
    """M: X -> iota_X omega_std as a real 2n x 2n matrix: J_std^T, the
    Kahler relation omega = g J with g = 1."""
    return complex_structure_std(n).T


def complex_structure_std(n: int) -> np.ndarray:
    J = np.zeros((2 * n, 2 * n))
    for q in range(n):
        J[2 * q + 1, 2 * q] = 1.0
        J[2 * q, 2 * q + 1] = -1.0
    return J


def one_form_at(a, z) -> np.ndarray:
    n = a.n
    return covector_frame_matrix(n) @ a.evaluate(z)


def section_at(s, z) -> np.ndarray:
    n = s.n
    return section_frame_matrix(n) @ s.evaluate(z)


def two_form_map_at(w, z) -> np.ndarray:
    """Evaluate a symbolic 2-form to the real matrix of X -> iota_X w."""
    if w.degree != 2:
        raise ValueError("expected a 2-form")
    n = w.n
    # z-frame contraction matrix: (iota_e_a w) over frame e_a
    Kz = np.zeros((2 * n, 2 * n), dtype=complex)
    for (i, j), p in w.comps.items():
        c = p.evaluate(z)
        Kz[j, i] += c
        Kz[i, j] -= c
    # iota_{Tt u} w = Tc Kz u for u in z-frame; real map = Tc Kz Tt^-1
    M = covector_frame_matrix(n) @ Kz @ tangent_frame_inverse(n)
    if np.linalg.norm(M.imag) > 1e-9 * max(1.0, np.linalg.norm(M.real)):
        return M
    return M.real
