"""Reference oracle for the real <-> z/zbar frame conversions: the
hand-written x/y/dx/dy formulas, the hand-built numeric frame matrices and
the four loops that each converted one kind of real-frame data on its own.

This is the engine's earlier code, kept apart from ``gkw.frames`` so that
the conversions read off its one exact frame matrix are checked against an
independent copy.  Matrix entries are taken exactly (``Fraction`` or QI),
where the earlier loops rounded integer-valued floats.
"""
from fractions import Fraction

import numpy as np

from gkw.calculus import Form, VectorField
from gkw.poly import QI, QI_HALF, QI_I, ComplexPolynomial


# x_j = (z_j + zbar_j)/2, y_j = (z_j - zbar_j)/(2i); d/dx = d/dz + d/dzbar,
# d/dy = i(d/dz - d/dzbar); dx = (dz + dzbar)/2, dy = (dz - dzbar)/(2i).

def x_poly(n, j):
    z = ComplexPolynomial.variable(n, j)
    zb = ComplexPolynomial.variable(n, j, conjugated=True)
    return (z + zb) * QI_HALF


def y_poly(n, j):
    z = ComplexPolynomial.variable(n, j)
    zb = ComplexPolynomial.variable(n, j, conjugated=True)
    return (z - zb) * (QI_HALF * (-QI_I))


def dx_form(n, j):
    return Form(n, 1, {(j,): ComplexPolynomial.const(n, QI_HALF),
                       (j + n,): ComplexPolynomial.const(n, QI_HALF)})


def dy_form(n, j):
    c = QI_HALF * (-QI_I)
    return Form(n, 1, {(j,): ComplexPolynomial.const(n, c),
                       (j + n,): ComplexPolynomial.const(n, -c)})


def _real_coords(n):
    coords = []
    for q in range(n):
        coords.append(x_poly(n, q))
        coords.append(y_poly(n, q))
    return coords


def tangent_frame_matrix(n):
    """Columns: real coordinates of d/dz_1..d/dz_n, d/dzbar_1..d/dzbar_n."""
    T = np.zeros((2 * n, 2 * n), dtype=complex)
    for q in range(n):
        T[2 * q, q] = 0.5
        T[2 * q + 1, q] = -0.5j
        T[2 * q, n + q] = 0.5
        T[2 * q + 1, n + q] = 0.5j
    return T


def covector_frame_matrix(n):
    """Columns: real coordinates of dz_1..dz_n, dzbar_1..dzbar_n."""
    T = np.zeros((2 * n, 2 * n), dtype=complex)
    for q in range(n):
        T[2 * q, q] = 1.0
        T[2 * q + 1, q] = 1.0j
        T[2 * q, n + q] = 1.0
        T[2 * q + 1, n + q] = -1.0j
    return T


def metric_pairing_form(g, X: VectorField) -> Form:
    """g(., X) as a polynomial 1-form (g exact rational constant)."""
    n = X.n
    comps = {}
    for a, p in X.comps.items():
        q = a % n
        hol = a < n
        # real coords of the frame vector
        ent = [(2 * q, QI(Fraction(1, 2))),
               (2 * q + 1, QI(0, Fraction(-1, 2)) if hol else QI(0, Fraction(1, 2)))]
        for r, c in ent:
            for s in range(2 * n):
                grs = QI(g[s][r])
                if not grs:
                    continue
                # covector e_s = dx or dy -> z-frame: dx_q = (dz+dzb)/2 etc.
                qq = s // 2
                if s % 2 == 0:
                    zparts = [((qq,), QI(Fraction(1, 2))), ((qq + n,), QI(Fraction(1, 2)))]
                else:
                    zparts = [((qq,), QI(0, Fraction(-1, 2))), ((qq + n,), QI(0, Fraction(1, 2)))]
                for key, zc in zparts:
                    add = p * (c * grs * zc)
                    if key in comps:
                        comps[key] = comps[key] + add
                    else:
                        comps[key] = add
    return Form(n, 1, {k: v for k, v in comps.items() if not v.is_zero})


def constant_map_to_form(M, n):
    """Symbolic 2-form of a constant antisymmetric map matrix (real frame)."""
    cov = []
    for q in range(n):
        cov.append(dx_form(n, q))
        cov.append(dy_form(n, q))
    out = Form.zero(n, 2)
    for r in range(2 * n):
        for s in range(r + 1, 2 * n):
            c = QI.of(M[s][r])
            if c:
                out = out + cov[r].wedge(cov[s]).scale(c)
    return out


def linear_field_from_real_matrix(A):
    """VectorField of x -> A x (real coordinates)."""
    n = len(A) // 2
    coords = _real_coords(n)
    comps = {}
    for r in range(2 * n):
        p = ComplexPolynomial.zero(n)
        for s in range(2 * n):
            c = QI.of(A[r][s])
            if c:
                p = p + coords[s] * c
        if p.is_zero:
            continue
        # real-frame component r: d/dx_q = d/dz_q + d/dzb_q etc.
        q, is_y = divmod(r, 2)
        if not is_y:
            comps[q] = comps.get(q, ComplexPolynomial.zero(n)) + p
            comps[q + n] = comps.get(q + n, ComplexPolynomial.zero(n)) + p
        else:
            comps[q] = comps.get(q, ComplexPolynomial.zero(n)) + p * QI(0, 1)
            comps[q + n] = comps.get(q + n, ComplexPolynomial.zero(n)) - p * QI(0, 1)
    return VectorField(n, {k: v for k, v in comps.items() if not v.is_zero})


def quadratic_poly(S) -> ComplexPolynomial:
    """1/2 x^T S x over real coords (x1, y1, ..., xn, yn) as an exact polynomial."""
    n = len(S) // 2
    coords = _real_coords(n)
    out = ComplexPolynomial.zero(n)
    for r in range(2 * n):
        for s in range(2 * n):
            c = QI.of(S[r][s])
            if c:
                out = out + coords[r] * coords[s] * (c * QI_HALF)
    return out
