"""Multivector calculus for deformations: Schouten bracket, Lie-algebroid
differential (the dbar case), and Maurer-Cartan residuals, all exact.

An LMultivector of degree k is stored expanded over the 4n generalized
frame directions (0..2n-1 tangent z/zbar frame, 2n..4n-1 covector frame),
keys strictly increasing, so zero-testing is canonical.
"""
from __future__ import annotations

from .calculus import (Expansion, Form, GeneralizedSection, VectorField, _merge,
                       _sort_with_sign, exterior_derivative, interior_product,
                       lie_bracket, standard_symplectic_form)
from .poly import QI, QI_HALF, ComplexPolynomial, LinearSubstitution


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


class DeformationBivector:
    """eps = sum F_ij d/dz_i ^ d/dz_j + sum G_ij dzbar_i ^ dzbar_j.

    Only the i<j representatives are stored.  Built from two
    holomorphic-frame fields via eps = Y^Z + iota_Y omega ^ iota_Z omega,
    the combination that fixes J_omega in a deformed pair.
    """

    __slots__ = ("n", "hol", "form")

    def __init__(self, n, hol=None, form=None):
        self.n = n
        self.hol = {}
        self.form = {}
        for src, dst in ((hol, self.hol), (form, self.form)):
            if src:
                for (i, j), p in src.items():
                    if i >= j:
                        raise ValueError("store strictly increasing index pairs")
                    if not p.is_zero:
                        dst[(i, j)] = p

    @classmethod
    def from_vector_fields(cls, Y: VectorField, Z: VectorField,
                           omega: Form | None = None) -> "DeformationBivector":
        n = Y.n
        if any(a >= n for a in Y.comps) or any(a >= n for a in Z.comps):
            raise ValueError("deformation fields must be holomorphic-frame")
        omega = omega if omega is not None else standard_symplectic_form(n)
        hol = {}
        for a, pa in Y.comps.items():
            for b, pb in Z.comps.items():
                if a == b:
                    continue
                key = (a, b) if a < b else (b, a)
                _merge(hol, key, pa * pb * (1 if a < b else -1))
        w = interior_product(Y, omega).wedge(interior_product(Z, omega))
        form = {}
        for (i, j), p in w.comps.items():
            if i < n or j < n:
                raise ValueError("contracted factors must be antiholomorphic")
            form[(i - n, j - n)] = p
        return cls(n, hol, form)

    @property
    def is_zero(self):
        return not self.hol and not self.form

    def scale(self, c):
        return DeformationBivector(self.n,
                                   {k: p * c for k, p in self.hol.items()},
                                   {k: p * c for k, p in self.form.items()})

    def __add__(self, other):
        hol = dict(self.hol)
        form = dict(self.form)
        for k, p in other.hol.items():
            _merge(hol, k, p)
        for k, p in other.form.items():
            _merge(form, k, p)
        return DeformationBivector(self.n, hol, form)

    def __eq__(self, other):
        return (isinstance(other, DeformationBivector) and self.n == other.n
                and self.hol == other.hol and self.form == other.form)

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
        """L_X eps by the Leibniz rule; exact.  Raises if the derivative
        leaves the (2,0)-bivector + (0,2)-form shape."""
        from .calculus import lie_derivative as lie_d
        n = self.n
        brackets = {}   # src -> [X, d/dz_src], built once per call
        out_h = {}
        for (i, j), p in self.hol.items():
            _merge(out_h, (i, j), X.apply_to(p))
            for pos, (src, other) in enumerate(((i, j), (j, i))):
                br = brackets.get(src)
                if br is None:
                    br = brackets[src] = lie_bracket(X, VectorField.frame(n, src))
                for a, q in br.comps.items():
                    if a >= n:
                        raise ValueError("Lie derivative left the holomorphic bivector bundle")
                    if a == other:
                        continue
                    # term p * [X, d/dz_src] ^ d/dz_other, slot order preserved
                    lo, hi = (a, other) if a < other else (other, a)
                    sign = 1 if a < other else -1
                    if pos == 1:
                        sign = -sign  # factor order (d/dz_i, [X, d/dz_j])
                    _merge(out_h, (lo, hi), p * q * sign)
        out_f = {}
        for (i, j), p in self.form.items():
            lw = lie_d(X, Form(n, 2, {(i + n, j + n): p}))
            for (a, b), q in lw.comps.items():
                if a < n or b < n:
                    raise ValueError("Lie derivative left the antiholomorphic form bundle")
                _merge(out_f, (a - n, b - n), q)
        return DeformationBivector(n, out_h, out_f)

    def to_multivector(self) -> LMultivector:
        n = self.n
        terms = {}
        for (i, j), p in self.hol.items():
            terms[(i, j)] = p
        for (i, j), p in self.form.items():
            _merge(terms, (3 * n + i, 3 * n + j), p)
        return LMultivector(n, 2, terms)

    def algebroid_differential(self) -> LMultivector:
        """d_L for the standard complex structure's eigenbundle: coefficient-wise
        dbar with the new dzbar factor wedged in front."""
        n = self.n
        terms = {}
        for idx, p in self.to_multivector().comps.items():
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
        m = self.to_multivector()
        return self.algebroid_differential() + schouten_bracket(m, m).scale(QI_HALF)

    def evaluate(self, z):
        """Numeric ((i,j), coeff) entries for the two graded parts."""
        hol = [((i, j), p.evaluate(z)) for (i, j), p in self.hol.items()]
        form = [((i, j), p.evaluate(z)) for (i, j), p in self.form.items()]
        return hol, form

    def __repr__(self):
        return f"DeformationBivector(hol={self.hol!r}, form={self.form!r})"
