"""The single exact elimination against the two-loop reference oracle, on
seeded random Fraction and QI matrices: invertible, singular,
rank-deficient and inconsistent."""
import random
from fractions import Fraction

import pytest

from gkw.exactlinalg import integer_kernel_basis, qi_matrix_inverse, rref, solve_affine
from gkw.poly import QI

from naive_exactlinalg import naive_nullspace, naive_qi_inverse, naive_rref, naive_solve


def rand_fraction(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def rand_qi(rng):
    # about a third of the entries purely real or purely imaginary
    re, im = rand_fraction(rng), rand_fraction(rng)
    kind = rng.randrange(3)
    return QI(re, 0) if kind == 0 else QI(0, im) if kind == 1 else QI(re, im)


def rand_matrix(rng, rows, cols, entry, rank=None):
    """A rows x cols matrix; with ``rank`` given, a product B C through a
    rank-dimensional middle, so its rank is at most ``rank``."""
    if rank is None:
        return [[entry(rng) for _ in range(cols)] for _ in range(rows)]
    B = rand_matrix(rng, rows, rank, entry)
    C = rand_matrix(rng, rank, cols, entry)
    zero = entry(rng) * 0
    return [[sum((B[i][k] * C[k][j] for k in range(rank)), zero) for j in range(cols)]
            for i in range(rows)]


def matmul(A, B):
    zero = A[0][0] * 0
    return [[sum((A[i][k] * B[k][j] for k in range(len(B))), zero) for j in range(len(B[0]))]
            for i in range(len(A))]


def matvec(A, x):
    return [sum((a * v for a, v in zip(row, x)), Fraction(0)) for row in A]


SHAPES = [(1, 1), (2, 3), (3, 2), (3, 3), (4, 4), (3, 5), (5, 3)]


@pytest.mark.parametrize("seed", range(6))
def test_rref_matches_the_fraction_oracle(seed):
    rng = random.Random(seed)
    for rows, cols in SHAPES:
        for rank in (None, 1, min(rows, cols) - 1 or 1):
            A = rand_matrix(rng, rows, cols, rand_fraction, rank)
            assert rref(A) == naive_rref(A)


@pytest.mark.parametrize("seed", range(4))
def test_rref_over_qi_agrees_with_fraction_on_real_matrices(seed):
    rng = random.Random(100 + seed)
    for rows, cols in SHAPES:
        A = rand_matrix(rng, rows, cols, rand_fraction, rank=min(rows, cols) - 1 or 1)
        R, pivots = rref([[QI(x) for x in row] for row in A])
        want_R, want_pivots = naive_rref(A)
        assert pivots == want_pivots
        assert R == [[QI(x) for x in row] for row in want_R]


@pytest.mark.parametrize("seed", range(4))
def test_rref_over_qi_is_reduced_and_keeps_the_rank(seed):
    rng = random.Random(200 + seed)
    for rows, cols in SHAPES:
        for rank in range(1, min(rows, cols) + 1):
            A = rand_matrix(rng, rows, cols, rand_qi, rank)
            R, pivots = rref(A)
            assert len(pivots) <= rank
            for r, pc in enumerate(pivots):
                assert all(R[i][pc] == (1 if i == r else 0) for i in range(rows))
                assert not any(R[r][:pc])
            assert all(not any(row) for row in R[len(pivots):])


@pytest.mark.parametrize("seed", range(6))
def test_inverse_matches_the_qi_oracle(seed):
    rng = random.Random(300 + seed)
    for n in (1, 2, 3, 4, 5):
        A = rand_matrix(rng, n, n, rand_qi)
        try:
            want = naive_qi_inverse(A)
        except ValueError:
            with pytest.raises(ValueError):
                qi_matrix_inverse(A)
            continue
        got = qi_matrix_inverse(A)
        assert got == want
        eye = [[QI(1 if i == j else 0) for j in range(n)] for i in range(n)]
        assert matmul(A, got) == eye
        assert matmul(got, A) == eye


def test_inverse_accepts_rational_entries():
    A = [[Fraction(2), 1], [0, Fraction(1, 3)]]
    assert qi_matrix_inverse(A) == [[QI(Fraction(1, 2)), QI(Fraction(-3, 2))], [QI(0), QI(3)]]


@pytest.mark.parametrize("seed", range(4))
def test_singular_matrix_raises(seed):
    rng = random.Random(400 + seed)
    for n in (2, 3, 4):
        A = rand_matrix(rng, n, n, rand_qi, rank=n - 1)
        with pytest.raises(ValueError, match="singular"):
            naive_qi_inverse(A)
        with pytest.raises(ValueError, match="singular"):
            qi_matrix_inverse(A)
    with pytest.raises(ValueError, match="singular"):
        qi_matrix_inverse([[QI(0, 1), QI(1)], [QI(-1), QI(0, 1)]])


@pytest.mark.parametrize("seed", range(8))
def test_solve_affine_matches_the_two_elimination_oracle(seed):
    rng = random.Random(500 + seed)
    seen = {"consistent": 0, "inconsistent": 0}
    for rows, cols in SHAPES:
        for rank in (None, 1, min(rows, cols) - 1 or 1):
            A = rand_matrix(rng, rows, cols, rand_fraction, rank)
            if rng.random() < 0.5:
                # a right-hand side in the image of A
                b = matvec(A, [rand_fraction(rng) for _ in range(cols)])
            else:
                b = [rand_fraction(rng) for _ in range(rows)]
            got = solve_affine(A, b)
            want = naive_solve(A, b)
            if want is None:
                assert got is None
                seen["inconsistent"] += 1
                continue
            seen["consistent"] += 1
            x0, kernel = got
            assert x0 == want
            assert kernel == naive_nullspace(A)
            assert matvec(A, x0) == b
            for v in kernel:
                assert not any(matvec(A, v))
            assert len(kernel) == cols - len(naive_rref(A)[1])
    assert seen["consistent"] and seen["inconsistent"]


def test_solve_affine_inconsistent_and_unique_cases():
    # the two rows are parallel with different right-hand sides
    assert solve_affine([[1, 2], [2, 4]], [1, 3]) is None
    # a zero row with a nonzero right-hand side
    assert solve_affine([[1, 0], [0, 0]], [1, 1]) is None
    assert solve_affine([[1, 2], [3, 4]], [5, 6]) == ([Fraction(-4), Fraction(9, 2)], [])
    x0, kernel = solve_affine([[1, 1, 1]], [3])
    assert x0 == [3, 0, 0]
    assert kernel == [[-1, 1, 0], [-1, 0, 1]]


def test_integer_kernel_basis_kills_the_columns():
    columns = [(-1, 0), (0, -1), (1, 1), (1, 0)]
    W = integer_kernel_basis(columns)
    assert len(W) == 2
    for w in W:
        assert all(isinstance(x, int) for x in w)
        assert all(sum(wk * col[i] for wk, col in zip(w, columns)) == 0 for i in range(2))
