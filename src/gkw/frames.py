"""Bridge between the symbolic z/zbar frame and real coordinates.

Real coordinates are ordered (x_1, y_1, ..., x_n, y_n) with z_j = x_j + i y_j,
so V = R^{2n} and W = V + V* is 4n-dimensional.  The standard ambient
structures used by every scenario:

    omega_std = sum_j dy_j ^ dx_j      (map  M dx_j = -dy_j, M dy_j = dx_j)
    J_std     dx_j -> dy_j

With the pairing <X+a, Y+b> = (a(Y)+b(X))/2 these make (J_omega, J_J) a
positive generalized Kahler pair and give dPhi = iota_{xi} omega for
Phi = 1/2 sum w_j |z_j|^2 with the counterclockwise rotation field.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np


def _frozen(T: np.ndarray) -> np.ndarray:
    T.setflags(write=False)
    return T


@lru_cache(maxsize=None)
def tangent_frame_matrix(n: int) -> np.ndarray:
    """Columns: real coordinates of d/dz_1..d/dz_n, d/dzbar_1..d/dzbar_n.
    Built once per n and returned read-only, like the other frame matrices."""
    T = np.zeros((2 * n, 2 * n), dtype=complex)
    for q in range(n):
        T[2 * q, q] = 0.5
        T[2 * q + 1, q] = -0.5j
        T[2 * q, n + q] = 0.5
        T[2 * q + 1, n + q] = 0.5j
    return _frozen(T)


@lru_cache(maxsize=None)
def tangent_frame_inverse(n: int) -> np.ndarray:
    """The inverse of ``tangent_frame_matrix(n)``: real coordinates to the z/zbar frame."""
    return _frozen(np.linalg.inv(tangent_frame_matrix(n)))


@lru_cache(maxsize=None)
def covector_frame_matrix(n: int) -> np.ndarray:
    """Columns: real coordinates of dz_1..dz_n, dzbar_1..dzbar_n."""
    T = np.zeros((2 * n, 2 * n), dtype=complex)
    for q in range(n):
        T[2 * q, q] = 1.0
        T[2 * q + 1, q] = 1.0j
        T[2 * q, n + q] = 1.0
        T[2 * q + 1, n + q] = -1.0j
    return _frozen(T)


@lru_cache(maxsize=None)
def section_frame_matrix(n: int) -> np.ndarray:
    T = np.zeros((4 * n, 4 * n), dtype=complex)
    T[:2 * n, :2 * n] = tangent_frame_matrix(n)
    T[2 * n:, 2 * n:] = covector_frame_matrix(n)
    return _frozen(T)


def omega_std_map(n: int) -> np.ndarray:
    """M: X -> iota_X omega_std as a real 2n x 2n matrix."""
    M = np.zeros((2 * n, 2 * n))
    for q in range(n):
        M[2 * q + 1, 2 * q] = -1.0
        M[2 * q, 2 * q + 1] = 1.0
    return M


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
