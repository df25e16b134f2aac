"""Deformations of the standard complex structure's eigenbundle as
multivectors: the Lie-algebroid differential (the dbar case), Maurer-Cartan
residuals and invariance, all exact.

The multivectors and their Schouten bracket live in ``gkw.calculus``
(sections are their degree-1 case) and are imported here, so
``LMultivector`` and ``schouten_bracket`` are also reachable from this
module.

A deformation eps = sum F_ij d/dz_i ^ d/dz_j + sum G_ij dzbar_i ^ dzbar_j
(i < j < n) is one LMultivector of degree 2, a ``DeformationBivector``:
its keys are (i, j) for the bivector part and (3n+i, 3n+j) for the form
part, written once in its constructor.  For eps built from two fields,
Y^Z + iota_Y omega ^ iota_Z omega, the form part is -1/4 of the bivector
part, key for key.
"""
from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType

from .calculus import (LMultivector, VectorField, _differential, _merge, _merge_signed,
                       exterior_derivative, lie_bracket, schouten_bracket)
from .exactlinalg import qi_matrix_inverse
from .poly import QI, QI_HALF, ComplexPolynomial, LinearSubstitution

_QUARTER_NEG = QI(Fraction(-1, 4))


class DeformationBivector(LMultivector):
    """eps = sum F_ij d/dz_i ^ d/dz_j + sum G_ij dzbar_i ^ dzbar_j, i < j < n:
    a degree-2 LMultivector whose keys are (i, j) for the bivector part and
    (3n+i, 3n+j) for the form part.  ``hol`` and ``form`` are read-only
    views of the two parts by (i, j).

    Built from two holomorphic-frame fields via
    eps = Y^Z + iota_Y omega ^ iota_Z omega, the combination that fixes
    J_omega in a deformed pair.
    """

    __slots__ = ()

    def __init__(self, n, hol=None, form=None):
        comps = {}
        for part, shift in ((hol, 0), (form, 3 * n)):
            for (i, j), p in (part or {}).items():
                if not 0 <= i < j < n:
                    raise ValueError("store strictly increasing index pairs below n")
                comps[(shift + i, shift + j)] = p
        super().__init__(n, 2, comps)

    @property
    def hol(self):
        """The bivector part {(i, j): F_ij}."""
        n = self.n
        return MappingProxyType({k: p for k, p in self.comps.items() if k[1] < n})

    @property
    def form(self):
        """The form part {(i, j): G_ij}."""
        s = 3 * self.n
        return MappingProxyType({(i - s, j - s): p for (i, j), p in self.comps.items()
                                 if i >= s})

    @classmethod
    def from_vector_fields(cls, Y: VectorField, Z: VectorField) -> "DeformationBivector":
        """Y^Z + iota_Y omega ^ iota_Z omega for omega = omega_std: since
        iota_{d/dz_a} omega = -(i/2) dzbar_a, the form part is -1/4 of the
        bivector part, key for key."""
        n = Y.n
        if any(a >= n for a in Y.comps) or any(a >= n for a in Z.comps):
            raise ValueError("deformation fields must be holomorphic-frame")
        hol = {}
        for a, pa in Y.comps.items():
            for b, pb in Z.comps.items():
                if a != b:
                    _merge_signed(hol, (a, b), pa * pb, 1)
        return cls(n, hol, {k: p * _QUARTER_NEG for k, p in hol.items()})

    def pullback_linear(self, A) -> "DeformationBivector":
        """Exact pullback along z -> A z (A invertible, QI entries):
        coefficients substitute z -> Az (all of them through one
        substitution, which shares the powers of each coordinate's image),
        tangent frames transform by A^-1, covector frames by conj(A).
        Invariance <=> pullback == self."""
        n = self.n
        Ainv = qi_matrix_inverse(A)
        sub = LinearSubstitution(n, A)
        # frame i maps to sum_a M[i][a] frame a: columns of A^-1 for d/dz_i,
        # conjugated rows of A for dzbar_i
        tangent = list(zip(*Ainv))
        covector = [[QI.of(A[i][a]).conjugate() for a in range(n)] for i in range(n)]
        out = []
        for coeffs, M in ((self.hol, tangent), (self.form, covector)):
            acc = {}
            for (i, j), p in coeffs.items():
                ps = p.substitute_linear(sub)
                for a, ca in enumerate(M[i]):
                    if not ca:
                        continue
                    for b, cb in enumerate(M[j]):
                        if cb and a != b:
                            _merge_signed(acc, (a, b), ps * (ca * cb), 1)
            out.append(acc)
        return DeformationBivector(n, *out)

    def lie_derivative(self, X: VectorField) -> "DeformationBivector":
        """L_X eps by the Leibniz rule over the frame keys, with
        L_X d/dz_v = [X, d/dz_v] and L_X dz_v = d(X^v); exact.  Raises if
        the derivative leaves the (2,0)-bivector + (0,2)-form shape."""
        n = self.n
        zero = ComplexPolynomial.zero(n)
        moved = {}   # frame index -> L_X e_v over frame indices, once per call

        def lie_of_frame(v):
            if v not in moved:
                if v < 2 * n:
                    moved[v] = lie_bracket(X, VectorField.frame(n, v)).comps
                else:
                    dXv = exterior_derivative(X.comps.get(v - 2 * n, zero))
                    moved[v] = {2 * n + a: q for (a,), q in dXv.comps.items()}
            return moved[v]

        terms = {}
        for (x, y), p in self.comps.items():
            _merge(terms, (x, y), X.apply_to(p))
            for a, q in lie_of_frame(x).items():
                _merge_signed(terms, (a, y), p * q, 1)
            for b, q in lie_of_frame(y).items():
                _merge_signed(terms, (x, b), p * q, 1)
        out = self._like(terms)
        if len(out.hol) + len(out.form) != len(out.comps):
            raise ValueError("Lie derivative left the (2,0)-bivector + (0,2)-form shape")
        return out

    def to_multivector(self) -> LMultivector:
        return LMultivector(self.n, 2, self.comps)

    def conjugate(self) -> LMultivector:
        """The conjugate, a (0,2)-bivector + (2,0)-form: an LMultivector."""
        return self.to_multivector().conjugate()

    def algebroid_differential(self) -> LMultivector:
        """d_L for the standard complex structure's eigenbundle: coefficient-wise
        dbar with the new dzbar factor wedged in front."""
        n = self.n
        return LMultivector(n, 3, _differential(self.comps, n,
                                                [(3 * n + k, n + k) for k in range(n)]))

    def maurer_cartan_residual(self) -> LMultivector:
        """d_L eps + [eps, eps]/2; exact zero certifies bracket closure of
        the deformed eigenbundle."""
        return self.algebroid_differential() + schouten_bracket(self, self).scale(QI_HALF)

    def evaluate(self, z):
        """Numeric ((i,j), coeff) entries for the two graded parts."""
        hol = [((i, j), p.evaluate(z)) for (i, j), p in self.hol.items()]
        form = [((i, j), p.evaluate(z)) for (i, j), p in self.form.items()]
        return hol, form
