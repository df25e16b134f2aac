"""Multivector calculus for deformations: Schouten bracket, Lie-algebroid
differential (the dbar case), and Maurer-Cartan residuals, all exact.

An LMultivector of degree k is stored expanded over the 4n generalized
frame directions (0..2n-1 tangent z/zbar frame, 2n..4n-1 covector frame),
keys strictly increasing, so zero-testing is canonical.

A deformation eps = sum F_ij d/dz_i ^ d/dz_j + sum G_ij dzbar_i ^ dzbar_j
(i < j < n) is one such multivector of degree 2, a ``DeformationBivector``:
its keys are (i, j) for the bivector part and (3n+i, 3n+j) for the form
part, written once in its constructor.  For eps built from two fields,
Y^Z + iota_Y omega ^ iota_Z omega, the form part is -1/4 of the bivector
part, key for key.
"""
from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType

from .calculus import (Expansion, Form, GeneralizedSection, VectorField, _merge,
                       _sort_with_sign, exterior_derivative, lie_bracket)
from .poly import QI, QI_HALF, ComplexPolynomial, LinearSubstitution

_QUARTER_NEG = QI(Fraction(-1, 4))


class LMultivector(Expansion):
    """Alternating k-tensor of generalized frame directions with polynomial
    coefficients.  Degree-1 instances are interconvertible with sections."""

    __slots__ = ()

    @property
    def terms(self):
        """The coefficients by frame-index key (``comps``)."""
        return self.comps

    @classmethod
    def zero(cls, n, degree):
        return cls(n, degree)

    @classmethod
    def from_function(cls, f: ComplexPolynomial):
        return cls(f.n, 0, {(): f})

    @classmethod
    def from_sections(cls, n, coeff, factors):
        """coeff * (s_1 ^ ... ^ s_k), expanded over the frame."""
        if not isinstance(coeff, ComplexPolynomial):
            coeff = ComplexPolynomial.const(n, coeff)
        terms = {(): coeff}
        for s in factors:
            new = {}
            entries = [(a, p) for a, p in s.vec.comps.items()]
            entries += [(2 * n + a, p) for (a,), p in s.form.comps.items()]
            for idx, q in terms.items():
                for a, p in entries:
                    key, sign = _sort_with_sign(idx + (a,))
                    if key is None:
                        continue
                    _merge(new, key, q * p * sign)
            terms = new
        return cls(n, len(factors), terms)

    def as_section(self) -> GeneralizedSection:
        if self.degree != 1:
            raise ValueError("only degree-1 multivectors are sections")
        n = self.n
        vec = {}
        form = {}
        for (a,), p in self.comps.items():
            if a < 2 * n:
                vec[a] = p
            else:
                form[(a - 2 * n,)] = p
        return GeneralizedSection(VectorField(n, vec), Form(n, 1, form))

    def __repr__(self):
        def nm(a):
            n = self.n
            if a < n:
                return f"d/dz{a}"
            if a < 2 * n:
                return f"d/dzb{a - n}"
            if a < 3 * n:
                return f"dz{a - 2 * n}"
            return f"dzb{a - 3 * n}"
        if not self.comps:
            return "0"
        return " + ".join(f"({p!r}) {'^'.join(nm(a) for a in idx)}"
                          for idx, p in sorted(self.comps.items()))


def _merge_signed(terms, idx, coeff, sign):
    """terms += sign * coeff * e_idx, sorting idx; a repeated frame is zero."""
    key, s = _sort_with_sign(idx)
    if key is not None:
        _merge(terms, key, coeff if s * sign > 0 else -coeff)


def _leibniz(terms, n, f, g, a, b, rest, sign):
    """terms += sign * f (pi(e_a)(g) e_b - <e_a, e_b> dg) ^ e_rest for frame
    indices a, b: the part of [f e_a, g e_b] ^ e_rest that differentiates g."""
    if a < 2 * n and _sort_with_sign((b,) + rest)[0] is not None:
        dg = g.wirtinger(a % n, holomorphic=a < n)
        if not dg.is_zero:
            _merge_signed(terms, (b,) + rest, f * dg, sign)
    if abs(a - b) == 2 * n and _sort_with_sign(rest)[0] is not None:
        half = f * QI_HALF
        for (c,), dg in exterior_derivative(g).comps.items():
            _merge_signed(terms, (2 * n + c,) + rest, half * dg, -sign)


def schouten_bracket(A: LMultivector, B: LMultivector) -> LMultivector:
    """Graded bracket of multivector sections of an isotropic bracket-closed
    subbundle (the caller guarantees the factors lie in one).

    Degrees (p,q) -> p+q-1.  On (1,1) this is the Courant bracket; the
    function cases are [Y, f] = pi(Y) f = -[f, Y].

    A stored term f e_a0^...^e_a(p-1) carries its coefficient f on the first
    wedge factor; the other factors are constant frame sections.  So in
    [X_0^..^X_(p-1), Y_0^..^Y_(q-1)] = sum_ij (-1)^(i+j) [X_i, Y_j] ^ rest only
    the brackets with i = 0 or j = 0 survive, and for constant frames the
    Leibniz rule gives

        [f e_a, g e_b] = f pi(e_a)(g) e_b - g pi(e_b)(f) e_a + <e_a, e_b>(g df - f dg),

    with <e_v, e_(2n+v)> = 1/2 for v < 2n the only nonzero pairings.  Sorted
    by the coefficient that is differentiated, the terms f e_A and g e_B give

        sum_i (-1)^i f (pi(e_ai)(g) e_b0 - <e_ai, e_b0> dg) ^ e_(A - ai) ^ e_(B - b0)
      - sum_j (-1)^j g (pi(e_bj)(f) e_a0 - <e_a0, e_bj> df) ^ e_(A - a0) ^ e_(B - bj).
    """
    n = A.n
    p, q = A.degree, B.degree
    if p == 0 and q == 0:
        raise ValueError("bracket of two functions is not defined")
    if q == 0 or p == 0:
        if q == 0 and p == 1:
            f = B.comps.get((), ComplexPolynomial.zero(n))
            return LMultivector.from_function(A.as_section().vec.apply_to(f))
        if p == 0 and q == 1:
            f = A.comps.get((), ComplexPolynomial.zero(n))
            return LMultivector.from_function(-B.as_section().vec.apply_to(f))
        raise ValueError("function brackets supported only against degree-1 multivectors")
    terms = {}
    for idxA, f in A.comps.items():
        for idxB, g in B.comps.items():
            for i, a in enumerate(idxA):
                rest = idxA[:i] + idxA[i + 1:] + idxB[1:]
                _leibniz(terms, n, f, g, a, idxB[0], rest, (-1) ** i)
            for j, b in enumerate(idxB):
                rest = idxA[1:] + idxB[:j] + idxB[j + 1:]
                _leibniz(terms, n, g, f, b, idxA[0], rest, -(-1) ** j)
    return LMultivector(n, p + q - 1, terms)


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
                if a == b:
                    continue
                key = (a, b) if a < b else (b, a)
                _merge(hol, key, pa * pb * (1 if a < b else -1))
        return cls(n, hol, {k: p * _QUARTER_NEG for k, p in hol.items()})

    def pullback_linear(self, A) -> "DeformationBivector":
        """Exact pullback along z -> A z (A invertible, QI entries):
        coefficients substitute z -> Az (all of them through one
        substitution, which shares the powers of each coordinate's image),
        tangent frames transform by A^-1, covector frames by conj(A).
        Invariance <=> pullback == self."""
        from .exactlinalg import qi_matrix_inverse
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
                        if not cb or a == b:
                            continue
                        key = (a, b) if a < b else (b, a)
                        _merge(acc, key, ps * (ca * cb) * (1 if a < b else -1))
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

    def algebroid_differential(self) -> LMultivector:
        """d_L for the standard complex structure's eigenbundle: coefficient-wise
        dbar with the new dzbar factor wedged in front."""
        n = self.n
        terms = {}
        for idx, p in self.comps.items():
            for k in range(n):
                dp = p.wirtinger(k, holomorphic=False)
                if dp.is_zero:
                    continue
                key, sign = _sort_with_sign((3 * n + k,) + idx)
                if key is None:
                    continue
                _merge(terms, key, dp * sign)
        return LMultivector(n, 3, terms)

    def maurer_cartan_residual(self) -> LMultivector:
        """d_L eps + [eps, eps]/2; exact zero certifies bracket closure of
        the deformed eigenbundle."""
        return self.algebroid_differential() + schouten_bracket(self, self).scale(QI_HALF)

    def evaluate(self, z):
        """Numeric ((i,j), coeff) entries for the two graded parts."""
        hol = [((i, j), p.evaluate(z)) for (i, j), p in self.hol.items()]
        form = [((i, j), p.evaluate(z)) for (i, j), p in self.form.items()]
        return hol, form
