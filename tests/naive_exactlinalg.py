"""Reference oracle for the exact linear algebra: two separate Gauss-Jordan
loops, one over QI (the inverse) and one over Fraction (the row echelon
form), with the affine solve and the kernel read off as two eliminations.

This is the engine's earlier code, kept apart from ``gkw.exactlinalg`` so
that the single elimination there is checked against an independent copy.
"""
from fractions import Fraction

from gkw.poly import QI


def naive_qi_inverse(A):
    """Inverse of a square QI matrix by Gauss-Jordan on [A | I]."""
    n = len(A)
    M = [[QI.of(A[i][j]) for j in range(n)] + [QI(1 if j == i else 0) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        M[col], M[piv] = M[piv], M[col]
        inv = QI(1) / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [row[n:] for row in M]


def naive_rref(A):
    """Reduced row echelon form over Fraction; returns (R, pivot_columns)."""
    R = [[Fraction(x) for x in row] for row in A]
    rows = len(R)
    cols = len(R[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if R[i][c] != 0), None)
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        inv = 1 / R[r][c]
        R[r] = [x * inv for x in R[r]]
        for i in range(rows):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots


def naive_nullspace(A):
    """Exact rational basis of ker(A)."""
    cols = len(A[0]) if A else 0
    R, pivots = naive_rref(A)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        basis.append(v)
    return basis


def naive_solve(A, b):
    """One exact solution x of A x = b, or None if inconsistent."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    aug = [[Fraction(A[i][j]) for j in range(cols)] + [Fraction(b[i])] for i in range(rows)]
    R, pivots = naive_rref(aug)
    for row in R:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        if pc == cols:
            return None
        x[pc] = R[r][-1]
    return x
