"""Group actions on C^N, fundamental fields, moment maps, realification.

Conventions (fixed once, echoed in report headers): weight w rotates a
coordinate counterclockwise, z -> e^{i w t} z, so the fundamental field is
X_w = i w (z d/dz - zbar d/dzbar) = w (x d/dy - y d/dx), and the defining
identity dPhi^xi = iota_{xi_M} omega_std holds exactly for the standard
moment map Phi = 1/2 sum_j w_j |z_j|^2.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .calculus import (GeneralizedSection, VectorField, euler_field, exterior_derivative,
                       interior_product, standard_symplectic_form)
from .poly import QI, QI_HALF, QI_I, ComplexPolynomial


def linear_field(N: int, M: dict) -> VectorField:
    """Real vector field of the flow z -> e^{tM} z on C^N, for a Gaussian
    integer matrix M given as {(row, col): QI}: component i is the
    polynomial (M z)_i, component N + i its conjugate, inserted per row in
    increasing row order (zero rows are left out)."""
    rows = {}
    for (i, j) in sorted(M):
        c = QI.of(M[i, j])
        if c:
            term = ComplexPolynomial.variable(N, j) * c
            rows[i] = rows[i] + term if i in rows else term
    comps = {}
    for i, p in rows.items():
        comps[i] = p
        comps[N + i] = p.conjugate()
    return VectorField(N, comps)


@dataclass(frozen=True)
class TorusAction:
    """A k-torus acting on C^N through an integer weight matrix (k x N)."""

    weights: tuple

    def __post_init__(self):
        w = tuple(tuple(int(x) for x in row) for row in self.weights)
        object.__setattr__(self, "weights", w)

    @property
    def k(self):
        return len(self.weights)

    @property
    def n(self):
        return len(self.weights[0])

    def fundamental_field(self, a: int) -> GeneralizedSection:
        """The field of z -> e^{t diag(i w)} z, w the a-th weight row."""
        diag = {(j, j): QI_I * w for j, w in enumerate(self.weights[a]) if w}
        return GeneralizedSection.from_vector(linear_field(self.n, diag))

    def fundamental_fields(self):
        return [self.fundamental_field(a) for a in range(self.k)]


def unitary_lie_basis(n: int):
    """Elementary skew-Hermitian basis in fixed order:
    i E_aa (a = 1..n), then for a<b: E_ab - E_ba, i(E_ab + E_ba)."""
    out = []
    for a in range(n):
        H = np.zeros((n, n), dtype=complex)
        H[a, a] = 1j
        out.append(H)
    for a in range(n):
        for b in range(a + 1, n):
            H = np.zeros((n, n), dtype=complex)
            H[a, b] = 1.0
            H[b, a] = -1.0
            out.append(H)
            H2 = np.zeros((n, n), dtype=complex)
            H2[a, b] = 1j
            H2[b, a] = 1j
            out.append(H2)
    return out


def _qi_of_entry(c: complex) -> QI:
    # lie-basis entries are exact small Gaussian integers
    return QI(Fraction(int(round(c.real))), Fraction(int(round(c.imag))))


@dataclass(frozen=True)
class UnitaryAction:
    """U(n) acting by left multiplication on C^{n x m}, flattened row-major:
    coordinate q = i*m + j for matrix entry (i, j)."""

    n: int
    m: int

    @property
    def dim_group(self):
        return self.n * self.n

    @property
    def ambient_n(self):
        return self.n * self.m

    def flat(self, i, j):
        return i * self.m + j

    def lie_basis(self):
        return unitary_lie_basis(self.n)

    @property
    def k(self):
        return self.dim_group

    def fundamental_field(self, idx: int) -> GeneralizedSection:
        """Linearization of Z -> e^{t xi} Z at t = 0: velocity xi Z, the
        linear field of xi (x) I_m on the flattened coordinates."""
        xi = self.lie_basis()[idx]
        left = {(self.flat(i, j), self.flat(s, j)): _qi_of_entry(xi[i, s])
                for i in range(self.n) for s in range(self.n) for j in range(self.m)}
        return GeneralizedSection.from_vector(linear_field(self.ambient_n, left))

    def fundamental_fields(self):
        return [self.fundamental_field(i) for i in range(self.dim_group)]


@dataclass(frozen=True)
class MomentMapPoly:
    """Generalized moment map mu = f + i h with exact real polynomial parts,
    one component per Lie-algebra basis element."""

    f: tuple
    h: tuple

    def __post_init__(self):
        for p in list(self.f) + list(self.h):
            if not p.is_real:
                raise ValueError("moment map components must be real polynomials")
        object.__setattr__(self, "f", tuple(self.f))
        object.__setattr__(self, "h", tuple(self.h))

    @property
    def k(self):
        return len(self.f)

    @property
    def is_real(self):
        return all(p.is_zero for p in self.h)

    @cached_property
    def df(self) -> tuple:
        """d of each real component, computed once."""
        return tuple(exterior_derivative(f) for f in self.f)

    @cached_property
    def dh(self) -> tuple:
        """d of each imaginary component, computed once."""
        return tuple(exterior_derivative(h) for h in self.h)


def moment_from_hamiltonian_identity(fields) -> MomentMapPoly:
    """mu^xi(z) = 1/2 omega(xi_M(z), z): the exact quadratic potential of a
    linear Hamiltonian field w.r.t. omega_std."""
    if not fields:
        raise ValueError("need at least one fundamental field")
    n = fields[0].n
    omega = standard_symplectic_form(n)
    pos = euler_field(n)
    f = []
    for s in fields:
        w = interior_product(s.vec, omega)
        val = interior_product(pos, w).comps.get((), ComplexPolynomial.zero(n))
        f.append(val * QI_HALF)
    return MomentMapPoly(tuple(f), tuple(ComplexPolynomial.zero(n) for _ in f))


def standard_moment_map(action: TorusAction) -> MomentMapPoly:
    """Phi^a = 1/2 sum_j W[a][j] |z_j|^2 with dPhi^a = iota_{xi_a} omega_std."""
    n = action.n
    f = []
    for row in action.weights:
        p = ComplexPolynomial.zero(n)
        for j, w in enumerate(row):
            if w:
                zj = ComplexPolynomial.variable(n, j)
                zbj = ComplexPolynomial.variable(n, j, conjugated=True)
                p = p + zj * zbj * QI(Fraction(w, 2))
        f.append(p)
    h = tuple(ComplexPolynomial.zero(n) for _ in f)
    return MomentMapPoly(tuple(f), h)


def grassmannian_moment_map(action: UnitaryAction) -> MomentMapPoly:
    """Real components 1/2 tr(H_xi Z Z-dagger) per skew-Hermitian basis
    element xi = i H_xi; assembled so dmu^xi = iota_{xi_M} omega_std."""
    return moment_from_hamiltonian_identity(action.fundamental_fields())


def central_level(action: UnitaryAction) -> np.ndarray:
    """Moment values of the central coadjoint point Z Z-dagger = I:
    mu^xi = 1/2 tr(H_xi)."""
    vals = []
    for xi in action.lie_basis():
        H = (xi / 1j)
        vals.append(0.5 * float(np.trace(H).real))
    return np.array(vals)


def shift_by_bfield(mm: MomentMapPoly, phi: MomentMapPoly) -> MomentMapPoly:
    """mu + i Phi (Phi real): the moment map of the B-transformed structure
    when iota_{xi_M} B = dPhi^xi."""
    if len(phi.f) != len(mm.f):
        raise ValueError("component counts differ")
    if not phi.is_real:
        raise ValueError("shift must be by a real map")
    return MomentMapPoly(mm.f, tuple(h + p for h, p in zip(mm.h, phi.f)))
