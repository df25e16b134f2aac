"""Small exact linear algebra over Fraction and QI matrices.

One Gauss-Jordan elimination, ``rref``, over any exact field; the inverse,
the affine solve and the kernel are read off its result.  Used by the
polytope machinery (kernel weights, feasibility) and by exact pullbacks.
Matrices are lists of lists.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from .poly import QI, QI_ONE, QI_ZERO


def rref(A):
    """Reduced row echelon form of A, whose entries are Fraction or QI
    (anything with exact ``+ - * /`` and a falsy zero); returns
    (R, pivot_columns)."""
    R = [list(row) for row in A]
    rows = len(R)
    cols = len(R[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if R[i][c]), None)
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        inv = 1 / R[r][c]
        R[r] = [x * inv for x in R[r]]
        for i in range(rows):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots


def qi_matrix_inverse(A):
    """Inverse of a square matrix with QI entries: rref([A | I])."""
    n = len(A)
    R, pivots = rref([[QI.of(x) for x in row] + [QI_ONE if j == i else QI_ZERO for j in range(n)]
                      for i, row in enumerate(A)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in R]


def solve_affine(A, b):
    """All exact solutions of A x = b over Fraction: (x0, kernel), one
    solution and a basis of ker A, or None if the system is inconsistent."""
    cols = len(A[0]) if A else 0
    R, pivots = rref([[Fraction(x) for x in row] + [Fraction(y)]
                      for row, y in zip(A, b, strict=True)])
    if pivots and pivots[-1] == cols:
        return None
    x0 = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x0[pc] = R[r][cols]
    kernel = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        kernel.append(v)
    return x0, kernel


def primitive_integer_vector(v):
    """Scale a rational vector to a primitive integer vector (first nonzero > 0)."""
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    ints = [x // g for x in ints]
    lead = next(x for x in ints if x != 0)
    if lead < 0:
        ints = [-x for x in ints]
    return ints


def integer_kernel_basis(columns):
    """Primitive integer basis of the rational kernel of the map e_i -> columns[i].

    ``columns`` is a list of integer vectors (the images); the returned rows
    span ker over Q and are primitive integers (a finite-index sublattice of
    the integer kernel is acceptable for the workbench's purposes).
    """
    d = len(columns[0])
    A = [[columns[j][i] for j in range(len(columns))] for i in range(d)]
    return [primitive_integer_vector(v) for v in solve_affine(A, [0] * d)[1]]
