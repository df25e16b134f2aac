"""Exact exterior calculus on C^n viewed as R^2n, in the z/zbar frame.

Vector fields, forms and multivectors are one expansion (``Expansion``):
polynomial coefficients over keys of the 4n generalized frame d/dz, d/dzbar,
dz, dzbar (indices 0..4n-1, the conjugate half of each frame offset by n),
each type with its own layout.  A vector field is keyed by bare indices
0..2n-1 of the tangent frame, a k-form by strictly increasing tuples 0..2n-1
of the covector frame, a multivector (``LMultivector``) by strictly
increasing tuples over all 4n, so zero-testing is canonical.  Conjugation,
wedge, evaluation, repr, frame elements and the d-type differentials are
written once on that layout.  A section X + alpha of (T + T*)_C is a
degree-1 multivector (``GeneralizedSection``), and the Courant bracket is
the (1,1) case of the one Schouten bracket.  All coefficients are
ComplexPolynomial, so identities (Cartan's formula, d^2 = 0, bracket
antisymmetry) hold exactly.

Tangent frame direction a < 2n differentiates along exponent position a, so
every derivative is gated on the coefficient's ``mask``: ``apply_to``, the
differentials d and d_L and the Schouten bracket's Leibniz rule skip a
direction whose bit is clear before they call ``wirtinger``, since that
derivative is zero.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .poly import QI_HALF, ComplexPolynomial


def _merge(terms, key, val):
    s = terms.get(key)
    s = val if s is None else s + val
    if s.is_zero:
        terms.pop(key, None)
    else:
        terms[key] = s


def _sort_with_sign(idx):
    """Sort a frame-index tuple, tracking the permutation sign; None if repeated."""
    idx = list(idx)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i] == idx[i - 1]:
            return None, 0
    return tuple(idx), sign


def _merge_signed(terms, idx, coeff, sign):
    """terms += sign * coeff * e_idx, sorting idx; a repeated frame is zero."""
    key, s = _sort_with_sign(idx)
    if key is not None:
        _merge(terms, key, coeff if s * sign > 0 else -coeff)


def _build(cls, n, degree, comps):
    """The expansion of type ``cls`` over already-checked, zero-free keys ``comps``."""
    out = object.__new__(cls)
    out.n, out.degree, out.comps = n, degree, comps
    return out


_FRAME_NAMES = ("d/dz", "d/dzb", "dz", "dzb")


class Expansion:
    """Zero-free dict ``comps`` of polynomial coefficients over frame keys,
    all of one degree, with the operations that vector fields, forms and
    multivectors share.  A subclass fixes its frame layout: ``_indices``
    and ``_key`` turn a key into its tuple of frame indices and back, index
    0 sits at block ``_first`` of the 4n frame d/dz, d/dzbar, dz, dzbar
    (in blocks of n), and the frame is ``_width`` blocks wide."""

    __slots__ = ("n", "degree", "comps")

    _first = 0
    _width = 2

    def __init__(self, n, degree, comps=None):
        self.n = n
        self.degree = degree
        self.comps = {}
        if comps:
            for key, p in comps.items():
                if len(self._indices(key)) != degree:
                    raise ValueError(f"key {key} does not match degree {degree}")
                if not p.is_zero:
                    self.comps[key] = p

    @staticmethod
    def _indices(key):
        return key

    @staticmethod
    def _key(indices):
        return indices

    @classmethod
    def frame(cls, n, a):
        """The frame element a of the layout: d/dz_a (a < n) or d/dzbar_(a-n)
        of a field, dz_a or dzbar_(a-n) of a form, and for a multivector
        the section of the tangent frame (a < 2n) or covector frame (a - 2n)."""
        if issubclass(cls, LMultivector):
            cls = GeneralizedSection
        return _build(cls, n, 1, {cls._key((a,)): ComplexPolynomial.one(n)})

    def _like(self, comps):
        """Same type, n and degree, over already-checked keys."""
        return _build(type(self), self.n, self.degree,
                      {k: p for k, p in comps.items() if not p.is_zero})

    def __add__(self, other):
        if type(other) is not type(self) or self.degree != other.degree:
            raise ValueError("cannot add expansions of different type or degree")
        comps = dict(self.comps)
        for key, p in other.comps.items():
            _merge(comps, key, p)
        return self._like(comps)

    def __neg__(self):
        return self._like({k: -p for k, p in self.comps.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return self._like({k: p * c for k, p in self.comps.items()})

    @property
    def is_zero(self):
        return not self.comps

    def __eq__(self, other):
        return (type(other) is type(self) and self.n == other.n
                and self.degree == other.degree and self.comps == other.comps)

    def conjugate(self):
        """Conjugation swaps the z and zbar halves of each frame,
        a -> a - a mod 2n + (a + n) mod 2n, and re-sorts each key with its sign."""
        n, m = self.n, 2 * self.n
        terms = {}
        for key, p in self.comps.items():
            _merge_signed(terms, tuple(a - a % m + (a + n) % m for a in self._indices(key)),
                          p.conjugate(), 1)
        return _build(type(self), n, self.degree, {self._key(k): p for k, p in terms.items()})

    def wedge(self, other):
        """self ^ other over the frame keys; the product of multivectors is
        an ``LMultivector``.  Each key is sorted before its product is
        taken, so a repeated frame costs no multiplication."""
        comps = {}
        for i1, p1 in self.comps.items():
            for i2, p2 in other.comps.items():
                key, sign = _sort_with_sign(i1 + i2)
                if key is not None:
                    _merge(comps, key, p1 * p2 if sign > 0 else -(p1 * p2))
        cls = LMultivector if isinstance(self, LMultivector) else type(self)
        return _build(cls, self.n, self.degree + other.degree, comps)

    def evaluate(self, z):
        """Numeric components of a degree-1 expansion over its frame; a key,
        bare or a 1-tuple, indexes the array as it is."""
        if self.degree != 1:
            raise ValueError("numeric evaluation implemented for degree 1")
        out = np.zeros(self._width * self.n, dtype=complex)
        for key, p in self.comps.items():
            out[key] = p.evaluate(z)
        return out

    def __repr__(self):
        if not self.comps:
            return "0"
        n, first = self.n, self._first * self.n

        def name(a):
            block, j = divmod(first + a, n)
            return f"{_FRAME_NAMES[block]}{j}"
        return " + ".join(f"({p!r}) {'^'.join(map(name, self._indices(key)))}" if self.degree
                          else f"({p!r})" for key, p in sorted(self.comps.items()))


class VectorField(Expansion):
    """Complexified polynomial vector field on C^n; keys are bare indices
    0..2n-1 of the tangent frame d/dz, d/dzbar."""

    __slots__ = ()

    def __init__(self, n, comps=None):
        super().__init__(n, 1, comps)

    @staticmethod
    def _indices(key):
        return (key,)

    @staticmethod
    def _key(indices):
        return indices[0]

    @classmethod
    def zero(cls, n, degree=1):
        if degree != 1:
            raise ValueError("a vector field has degree 1")
        return cls(n)

    def apply_to(self, f: ComplexPolynomial) -> ComplexPolynomial:
        """Directional derivative X(f), over the directions in f's mask."""
        out = ComplexPolynomial.zero(self.n)
        mask = f.mask
        for a, p in self.comps.items():
            if mask >> a & 1:
                out = out + p * f.wirtinger(a % self.n, holomorphic=a < self.n)
        return out


class Form(Expansion):
    """Polynomial k-form; keys are strictly increasing index tuples 0..2n-1
    of the covector frame dz, dzbar."""

    __slots__ = ()

    _first = 2

    @classmethod
    def zero(cls, n, degree=1):
        return cls(n, degree)

    @classmethod
    def from_function(cls, f: ComplexPolynomial):
        return cls(f.n, 0, {(): f})


def _differential(comps, n, directions):
    """For each (v, a) of ``directions``: every coefficient differentiated
    along the tangent frame direction a in its mask, with the frame key v
    wedged in front.  The one loop of d and of the algebroid differential d_L."""
    terms = {}
    for idx, p in comps.items():
        mask = p.mask
        for v, a in directions:
            if mask >> a & 1:
                _merge_signed(terms, (v,) + idx, p.wirtinger(a % n, holomorphic=a < n), 1)
    return terms


def exterior_derivative(w) -> Form:
    """d on functions and k-forms; d = del + delbar in the z/zbar frame."""
    if isinstance(w, ComplexPolynomial):
        w = Form.from_function(w)
    n = w.n
    return Form(n, w.degree + 1, _differential(w.comps, n, [(a, a) for a in range(2 * n)]))


def interior_product(X: VectorField, w: Form) -> Form:
    """Contraction in the first slot; rejects degree-0 input."""
    if w.degree < 1:
        raise ValueError("interior product needs a form of degree >= 1")
    comps = {}
    for a, p in X.comps.items():
        for idx, q in w.comps.items():
            if a not in idx:
                continue
            pos = idx.index(a)
            pq = p * q
            _merge(comps, idx[:pos] + idx[pos + 1:], -pq if pos % 2 else pq)
    return Form(w.n, w.degree - 1, comps)


def lie_derivative(X: VectorField, w: Form) -> Form:
    """Cartan's formula L_X = d iota_X + iota_X d, exactly."""
    if w.degree == 0:
        f = w.comps.get((), ComplexPolynomial.zero(w.n))
        return Form.from_function(X.apply_to(f))
    return exterior_derivative(interior_product(X, w)) + interior_product(X, exterior_derivative(w))


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    comps = {}
    for b, q in Y.comps.items():
        _merge(comps, b, X.apply_to(q))
    for a, p in X.comps.items():
        _merge(comps, a, -Y.apply_to(p))
    return VectorField(X.n, comps)


class LMultivector(Expansion):
    """Alternating k-tensor of generalized frame directions with polynomial
    coefficients, keys strictly increasing over the 4n frame indices
    (0..2n-1 tangent z/zbar frame, 2n..4n-1 covector frame).  Degree-1
    instances are sections (``as_section``)."""

    __slots__ = ()

    _width = 4

    @property
    def terms(self):
        """The coefficients by frame-index key (``comps``)."""
        return self.comps

    @classmethod
    def zero(cls, n, degree):
        return LMultivector(n, degree)

    @classmethod
    def from_function(cls, f: ComplexPolynomial):
        return LMultivector(f.n, 0, {(): f})

    def as_section(self) -> "GeneralizedSection":
        if self.degree != 1:
            raise ValueError("only degree-1 multivectors are sections")
        return _build(GeneralizedSection, self.n, 1, dict(self.comps))


class GeneralizedSection(LMultivector):
    """A section X + alpha of the complexified generalized tangent bundle:
    a degree-1 LMultivector whose key is (a,) for the frame field a < 2n and
    (2n+a,) for the frame covector a.  ``vec`` and ``form`` are read-only
    views of the two parts."""

    __slots__ = ()

    def __init__(self, vec: VectorField, form: Form):
        if form.degree != 1:
            raise ValueError("generalized section needs a 1-form part")
        if vec.n != form.n:
            raise ValueError("mismatched coordinate counts")
        n = vec.n
        comps = {(a,): p for a, p in vec.comps.items()}
        comps.update({(2 * n + a,): p for (a,), p in form.comps.items()})
        super().__init__(n, 1, comps)

    @property
    def vec(self) -> VectorField:
        """The vector part X."""
        n = self.n
        return VectorField(n, {a: p for (a,), p in self.comps.items() if a < 2 * n})

    @property
    def form(self) -> Form:
        """The 1-form part alpha."""
        n = self.n
        return Form(n, 1, {(a - 2 * n,): p for (a,), p in self.comps.items() if a >= 2 * n})

    @classmethod
    def zero(cls, n, degree=1):
        if degree != 1:
            raise ValueError("a section has degree 1")
        return _build(GeneralizedSection, n, 1, {})

    @classmethod
    def from_vector(cls, X):
        return cls(X, Form.zero(X.n, 1))

    @classmethod
    def from_form(cls, a):
        return cls(VectorField.zero(a.n), a)

    @property
    def is_real(self):
        return self == self.conjugate()


def _leibniz(terms, n, f, g, a, b, rest, sign):
    """terms += sign * f (pi(e_a)(g) e_b - <e_a, e_b> dg) ^ e_rest for frame
    indices a, b: the part of [f e_a, g e_b] ^ e_rest that differentiates g.

    Only a live term is built: the derivative is taken only along a
    direction in g's mask, and the key (b,) + rest is sorted only then."""
    if a < 2 * n and g.mask >> a & 1:
        _merge_signed(terms, (b,) + rest, f * g.wirtinger(a % n, holomorphic=a < n), sign)
    if abs(a - b) == 2 * n and _sort_with_sign(rest)[0] is not None:
        half = f * QI_HALF
        for (c,), dg in exterior_derivative(g).comps.items():
            _merge_signed(terms, (2 * n + c,) + rest, half * dg, -sign)


def schouten_bracket(A: LMultivector, B: LMultivector) -> LMultivector:
    """Graded bracket of multivector sections of an isotropic bracket-closed
    subbundle (the caller guarantees the factors lie in one).

    Degrees (p,q) -> p+q-1.  On (1,1) it needs no isotropy: it is the
    Courant bracket of any two sections (the Leibniz rule below with an
    empty rest).  The function cases are [Y, f] = pi(Y) f = -[f, Y].

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

    Only live terms are built.  A covector factor e_ai (ai >= 2n) acts on no
    function, so it contributes only through its pairing with e_b0, and a
    covector position not dual to the other term's leading index is skipped
    without entering ``_leibniz``, which takes each derivative before it
    sorts the key.
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
    m = 2 * n
    for idxA, f in A.comps.items():
        a0 = idxA[0]
        for idxB, g in B.comps.items():
            b0 = idxB[0]
            for i, a in enumerate(idxA):
                if a < m or a - m == b0:
                    rest = idxA[:i] + idxA[i + 1:] + idxB[1:]
                    _leibniz(terms, n, f, g, a, b0, rest, (-1) ** i)
            for j, b in enumerate(idxB):
                if b < m or b - m == a0:
                    rest = idxA[1:] + idxB[:j] + idxB[j + 1:]
                    _leibniz(terms, n, g, f, b, a0, rest, -(-1) ** j)
    return LMultivector(n, p + q - 1, terms)


def pairing_poly(s1: GeneralizedSection, s2: GeneralizedSection) -> ComplexPolynomial:
    """<X+a, Y+b> = (a(Y) + b(X))/2 as an exact polynomial: frame key a
    pairs with its dual (a + 2n) mod 4n."""
    n = s1.n
    out = ComplexPolynomial.zero(n)
    for (a,), p in s1.comps.items():
        q = s2.comps.get(((a + 2 * n) % (4 * n),))
        if q is not None:
            out = out + p * q
    return out * QI_HALF


def courant_bracket(s1: GeneralizedSection, s2: GeneralizedSection) -> GeneralizedSection:
    """[X+a, Y+b] = [X,Y] + L_X b - L_Y a - d(iota_X b - iota_Y a)/2: the
    (1,1) case of ``schouten_bracket``."""
    return schouten_bracket(s1, s2).as_section()


@lru_cache(maxsize=None)
def standard_symplectic_form(n) -> Form:
    """omega_std = sum_j dy_j ^ dx_j = (i/2) sum_j dzbar_j ^ dz_j: the
    constant 2-form of ``frames.omega_std_map(n)``, built once per n and
    shared, so callers never mutate it.

    This orientation makes (J_omega, J_J) a positive generalized Kahler
    pair and dPhi = iota_{xi} omega for Phi = 1/2 sum w |z|^2 with the
    counterclockwise rotation field.
    """
    from .frames import constant_two_form, omega_std_map   # frames imports calculus
    return constant_two_form(omega_std_map(n))


def euler_field(n) -> VectorField:
    """Position vector field sum_j (z_j d/dz_j + zbar_j d/dzbar_j)."""
    comps = {}
    for j in range(n):
        comps[j] = ComplexPolynomial.variable(n, j)
        comps[j + n] = ComplexPolynomial.variable(n, j, conjugated=True)
    return VectorField(n, comps)
