"""Group actions on C^N, fundamental fields, moment maps, realification.

Every action is linear and unitary: it exposes its exact skew-Hermitian
Lie-algebra generators A_a on C^N (``generators()``, each {(row, col): QI}),
and these give the rest.  The fundamental field of A_a is the linear field
of z -> e^{t A_a} z, the standard moment map is mu^a = 1/2 z-dagger (-i A_a) z,
and a central level is 1/2 tr(-i xi) per basis element xi.

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

from .calculus import GeneralizedSection, VectorField, exterior_derivative, interior_product
from .poly import QI, QI_I, ComplexPolynomial


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

    @property
    def ambient_n(self):
        return self.n

    def generators(self) -> list:
        """diag(i w) for each weight row w."""
        return [{(j, j): QI_I * w for j, w in enumerate(row) if w} for row in self.weights]

    def fundamental_field(self, a: int) -> GeneralizedSection:
        """The field of z -> e^{t A_a} z, A_a = diag(i w) for the a-th weight row."""
        return GeneralizedSection.from_vector(linear_field(self.n, self.generators()[a]))

    def fundamental_fields(self):
        return [self.fundamental_field(a) for a in range(self.k)]


def unitary_lie_basis(n: int) -> list:
    """Elementary skew-Hermitian basis of u(n) in fixed order, each element
    {(row, col): QI}: i E_aa (a = 1..n), then for a<b: E_ab - E_ba, i(E_ab + E_ba)."""
    out = [{(a, a): QI_I} for a in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            out.append({(a, b): QI(1), (b, a): QI(-1)})
            out.append({(a, b): QI_I, (b, a): QI_I})
    return out


@dataclass(frozen=True)
class UnitaryAction:
    """U(n) acting by left multiplication on C^{n x m}, flattened row-major:
    coordinate q = i*m + j for matrix entry (i, j)."""

    n: int
    m: int

    @property
    def ambient_n(self):
        return self.n * self.m

    def flat(self, i, j):
        return i * self.m + j

    @property
    def k(self):
        return self.n * self.n

    def generators(self) -> list:
        """xi (x) I_m on the flattened coordinates (Z -> xi Z), per element xi
        of ``unitary_lie_basis(n)``."""
        return [{(self.flat(i, j), self.flat(s, j)): c for (i, s), c in xi.items()
                 for j in range(self.m)} for xi in unitary_lie_basis(self.n)]

    def fundamental_field(self, a: int) -> GeneralizedSection:
        """Linearization of Z -> e^{t xi} Z at t = 0: velocity xi Z."""
        return GeneralizedSection.from_vector(linear_field(self.ambient_n, self.generators()[a]))

    def fundamental_fields(self):
        return [self.fundamental_field(i) for i in range(self.k)]


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

    @cached_property
    def _contractions(self) -> dict:
        return {}

    def contractions(self, action) -> tuple:
        """The nonzero exact functions iota_{xi_a} df^b and iota_{xi_a} dh^b
        over the fundamental fields xi_a of ``action`` (a, then b, then df
        before dh), built once per action and kept on this moment map."""
        kept = self._contractions
        if action not in kept:
            comps = [d for pair in zip(self.df, self.dh) for d in pair]
            kept[action] = tuple(
                val for X in action.fundamental_fields() for comp in comps
                if (val := interior_product(X.vec, comp).comps.get(())) is not None)
        return kept[action]


def standard_moment_map(action) -> MomentMapPoly:
    """mu^a = 1/2 z-dagger (-i A_a) z for each generator A_a of ``action``
    (for a torus, 1/2 sum_j W[a][j] |z_j|^2): the exact quadratic potential
    with dmu^a = iota_{xi_a} omega_std."""
    N = action.ambient_n
    f = []
    for A in action.generators():
        p = ComplexPolynomial.zero(N)
        for (r, c), entry in A.items():
            p = p + (ComplexPolynomial.variable(N, r, conjugated=True)
                     * ComplexPolynomial.variable(N, c) * (entry * QI(0, Fraction(-1, 2))))
        f.append(p)
    return MomentMapPoly(tuple(f), tuple(ComplexPolynomial.zero(N) for _ in f))


def central_level(action: UnitaryAction) -> tuple:
    """Moment values of the central coadjoint point Z Z-dagger = I:
    mu^xi = 1/2 tr(-i xi), exactly."""
    return tuple(sum(c.im for (r, s), c in xi.items() if r == s) / Fraction(2)
                 for xi in unitary_lie_basis(action.n))


def shift_by_bfield(mm: MomentMapPoly, phi: MomentMapPoly) -> MomentMapPoly:
    """mu + i Phi (Phi real): the moment map of the B-transformed structure
    when iota_{xi_M} B = dPhi^xi."""
    if len(phi.f) != len(mm.f):
        raise ValueError("component counts differ")
    if not phi.is_real:
        raise ValueError("shift must be by a real map")
    return MomentMapPoly(mm.f, tuple(h + p for h, p in zip(mm.h, phi.f)))
