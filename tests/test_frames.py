"""The real <-> z/zbar conversions read off ``frames.tangent_frame_exact``,
against the hand-written formulas and loops of ``naive_frames``: exact
equality on seeded random rational data for n = 1, 2, 3 and on the flat
hyper-Kahler inputs."""
from fractions import Fraction

import numpy as np
import pytest

import naive_frames as naive
from gkw import frames
from gkw.calculus import VectorField
from gkw.catalog import build_case, hyperkahler_data

from generators import rand_poly, real_coframe

NS = (1, 2, 3)


def rand_rational(rng, m, symmetry=0):
    """An m x m Fraction matrix with small entries, about a third of them
    zero; ``symmetry`` +1 makes it symmetric, -1 antisymmetric."""
    A = [[Fraction(int(rng.integers(-3, 4)) * int(rng.random() < 0.7), int(rng.integers(1, 4)))
          for _ in range(m)] for _ in range(m)]
    if symmetry:
        A = [[A[r][s] + symmetry * A[s][r] for s in range(m)] for r in range(m)]
    return A


def rand_field(rng, n):
    return VectorField(n, {a: rand_poly(rng, n, 3, 2) for a in range(2 * n) if rng.random() < 0.6})


@pytest.mark.parametrize("n", NS)
def test_numeric_frames_match_the_hand_built_matrices(n):
    T, C = frames.tangent_frame_matrix(n), frames.covector_frame_matrix(n)
    assert np.array_equal(T, naive.tangent_frame_matrix(n))
    assert np.array_equal(C, naive.covector_frame_matrix(n))
    assert np.array_equal(C.T @ T, np.eye(2 * n))
    assert np.array_equal(frames.tangent_frame_inverse(n), np.linalg.inv(T))


@pytest.mark.parametrize("n", NS)
def test_real_coordinates_and_coframe(n):
    x = frames.real_coordinates(n)
    cov = real_coframe(n)
    assert x == tuple(f(n, q) for q in range(n) for f in (naive.x_poly, naive.y_poly))
    assert cov == tuple(f(n, q) for q in range(n) for f in (naive.dx_form, naive.dy_form))


@pytest.mark.parametrize("n", NS)
def test_conversions_on_random_rational_data(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(4):
        A = rand_rational(rng, 2 * n)
        assert frames.real_linear_field(A) == naive.linear_field_from_real_matrix(A)
        M = rand_rational(rng, 2 * n, symmetry=-1)
        assert frames.constant_two_form(M) == naive.constant_map_to_form(M, n)
        S = rand_rational(rng, 2 * n, symmetry=1)
        assert frames.real_quadratic(S) == naive.quadratic_poly(S)
        X = rand_field(rng, n)
        assert frames.metric_pairing(S, X) == naive.metric_pairing_form(S, X)


def test_conversions_on_the_hyperkahler_inputs():
    (I4, J4, K4), X, mus = hyperkahler_data()
    for A in (X, (I4 + J4) @ X / 2):
        assert frames.real_linear_field(A) == naive.linear_field_from_real_matrix(A)
    for M in (I4 - J4, K4):
        assert frames.constant_two_form(M) == naive.constant_map_to_form(M, 2)
    for A, mu in zip((I4, J4, K4), mus):
        assert mu == frames.real_quadratic(A @ X) == naive.quadratic_poly(A @ X)
    scen = build_case("hyperkahler-flat").scenario
    g = scen.recipe._g
    for s in scen.fields:
        assert frames.metric_pairing(g, s.vec) == naive.metric_pairing_form(g, s.vec)
