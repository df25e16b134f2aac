"""Exact exterior calculus on C^n viewed as R^2n, in the z/zbar frame.

Vector fields are expanded over d/dz_1..d/dz_n, d/dzbar_1..d/dzbar_n
(indices 0..2n-1, conjugate half offset by n); k-forms over dz/dzbar with
the same indexing.  All coefficients are ComplexPolynomial, so identities
(Cartan's formula, d^2 = 0, bracket antisymmetry) hold exactly.
"""
from __future__ import annotations

from functools import lru_cache

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


class Expansion:
    """Zero-free dict ``comps`` of polynomial coefficients over frame keys,
    all of one degree, with the ring operations that vector fields, forms
    and multivectors share.  A subclass checks its own keys."""

    __slots__ = ("n", "degree", "comps")

    keys_are_index_tuples = True   # else the key length is not checked

    def __init__(self, n, degree, comps=None):
        self.n = n
        self.degree = degree
        self.comps = {}
        if comps:
            check = self.keys_are_index_tuples
            for key, p in comps.items():
                if check and len(key) != degree:
                    raise ValueError(f"key {key} does not match degree {degree}")
                if not p.is_zero:
                    self.comps[key] = p

    def _like(self, comps):
        """Same type, n and degree, over already-checked keys."""
        out = object.__new__(type(self))
        out.n, out.degree = self.n, self.degree
        out.comps = {k: p for k, p in comps.items() if not p.is_zero}
        return out

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


class VectorField(Expansion):
    """Complexified polynomial vector field on C^n; keys are frame indices."""

    __slots__ = ()

    def __init__(self, n, comps=None):
        super().__init__(n, 1, comps)

    keys_are_index_tuples = False

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def frame(cls, n, a):
        """The frame field d/dz_a (a < n) or d/dzbar_{a-n}."""
        return cls(n, {a: ComplexPolynomial.one(n)})

    def conjugate(self):
        n = self.n
        return VectorField(n, {(a + n) % (2 * n): p.conjugate() for a, p in self.comps.items()})

    def apply_to(self, f: ComplexPolynomial) -> ComplexPolynomial:
        """Directional derivative X(f)."""
        out = ComplexPolynomial.zero(self.n)
        for a, p in self.comps.items():
            out = out + p * f.wirtinger(a % self.n, holomorphic=a < self.n)
        return out

    def evaluate(self, z):
        """Numeric components over the 2n-dim z/zbar frame."""
        import numpy as np
        out = np.zeros(2 * self.n, dtype=complex)
        for a, p in self.comps.items():
            out[a] = p.evaluate(z)
        return out

    def __repr__(self):
        if not self.comps:
            return "0"
        names = [f"d/dz{a}" if a < self.n else f"d/dzb{a - self.n}" for a in sorted(self.comps)]
        return " + ".join(f"({self.comps[a]!r}) {nm}" for a, nm in zip(sorted(self.comps), names))


class Form(Expansion):
    """Polynomial k-form; keys are strictly increasing covector-index tuples."""

    __slots__ = ()

    @classmethod
    def zero(cls, n, degree=1):
        return cls(n, degree)

    @classmethod
    def from_function(cls, f: ComplexPolynomial):
        return cls(f.n, 0, {(): f})

    @classmethod
    def frame(cls, n, a):
        """dz_a (a < n) or dzbar_{a-n}."""
        return cls(n, 1, {(a,): ComplexPolynomial.one(n)})

    def conjugate(self):
        n = self.n
        comps = {}
        for idx, p in self.comps.items():
            key, sign = _sort_with_sign(tuple((a + n) % (2 * n) for a in idx))
            _merge(comps, key, p.conjugate() * sign)
        return Form(self.n, self.degree, comps)

    def wedge(self, other: "Form") -> "Form":
        comps = {}
        for i1, p1 in self.comps.items():
            for i2, p2 in other.comps.items():
                key, sign = _sort_with_sign(i1 + i2)
                if key is None:
                    continue
                _merge(comps, key, p1 * p2 * sign)
        return Form(self.n, self.degree + other.degree, comps)

    def evaluate(self, z):
        import numpy as np
        if self.degree != 1:
            raise ValueError("numeric evaluation implemented for 1-forms")
        out = np.zeros(2 * self.n, dtype=complex)
        for (a,), p in self.comps.items():
            out[a] = p.evaluate(z)
        return out

    def __repr__(self):
        if not self.comps:
            return "0"
        def nm(a):
            return f"dz{a}" if a < self.n else f"dzb{a - self.n}"
        return " + ".join(f"({p!r}) {'^'.join(nm(a) for a in idx)}" if idx else f"({p!r})"
                          for idx, p in sorted(self.comps.items()))


def exterior_derivative(w) -> Form:
    """d on functions and k-forms; d = del + delbar in the z/zbar frame."""
    if isinstance(w, ComplexPolynomial):
        w = Form.from_function(w)
    n = w.n
    comps = {}
    for idx, p in w.comps.items():
        for a in range(2 * n):
            dp = p.wirtinger(a % n, holomorphic=a < n)
            if dp.is_zero:
                continue
            key, sign = _sort_with_sign((a,) + idx)
            if key is None:
                continue
            _merge(comps, key, dp * sign)
    return Form(n, w.degree + 1, comps)


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
            key = idx[:pos] + idx[pos + 1:]
            _merge(comps, key, p * q * ((-1) ** pos))
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


class GeneralizedSection:
    """A section X + alpha of the complexified generalized tangent bundle."""

    __slots__ = ("vec", "form")

    def __init__(self, vec: VectorField, form: Form):
        if form.degree != 1:
            raise ValueError("generalized section needs a 1-form part")
        if vec.n != form.n:
            raise ValueError("mismatched coordinate counts")
        self.vec = vec
        self.form = form

    @property
    def n(self):
        return self.vec.n

    @classmethod
    def zero(cls, n):
        return cls(VectorField.zero(n), Form.zero(n, 1))

    @classmethod
    def from_vector(cls, X):
        return cls(X, Form.zero(X.n, 1))

    @classmethod
    def from_form(cls, a):
        return cls(VectorField.zero(a.n), a)

    @classmethod
    def frame(cls, n, a):
        """Frame section: a < 2n tangent frame, else covector frame (a - 2n)."""
        if a < 2 * n:
            return cls.from_vector(VectorField.frame(n, a))
        return cls.from_form(Form.frame(n, a - 2 * n))

    def __add__(self, other):
        return GeneralizedSection(self.vec + other.vec, self.form + other.form)

    def __sub__(self, other):
        return GeneralizedSection(self.vec - other.vec, self.form - other.form)

    def __neg__(self):
        return GeneralizedSection(-self.vec, -self.form)

    def scale(self, c):
        return GeneralizedSection(self.vec.scale(c), self.form.scale(c))

    @property
    def is_zero(self):
        return self.vec.is_zero and self.form.is_zero

    def __eq__(self, other):
        return isinstance(other, GeneralizedSection) and self.vec == other.vec and self.form == other.form

    def conjugate(self):
        return GeneralizedSection(self.vec.conjugate(), self.form.conjugate())

    @property
    def is_real(self):
        return self == self.conjugate()

    def evaluate(self, z):
        import numpy as np
        return np.concatenate([self.vec.evaluate(z), self.form.evaluate(z)])

    def __repr__(self):
        return f"({self.vec!r}) + ({self.form!r})"


def pairing_poly(s1: GeneralizedSection, s2: GeneralizedSection) -> ComplexPolynomial:
    """<X+a, Y+b> = (a(Y) + b(X))/2 as an exact polynomial."""
    n = s1.n
    out = ComplexPolynomial.zero(n)
    for (a,), p in s1.form.comps.items():
        q = s2.vec.comps.get(a)
        if q is not None:
            out = out + p * q
    for (a,), p in s2.form.comps.items():
        q = s1.vec.comps.get(a)
        if q is not None:
            out = out + p * q
    return out * QI_HALF


def courant_bracket(s1: GeneralizedSection, s2: GeneralizedSection) -> GeneralizedSection:
    """[X+a, Y+b] = [X,Y] + L_X b - L_Y a - d(iota_X b - iota_Y a)/2.

    Cartan's formula L_X b = d iota_X b + iota_X db folds the last term in:
    the form part is iota_X db - iota_Y da + d(iota_X b - iota_Y a)/2,
    three exterior derivatives and four contractions."""
    X, a = s1.vec, s1.form
    Y, b = s2.vec, s2.form
    form = (interior_product(X, exterior_derivative(b))
            - interior_product(Y, exterior_derivative(a)))
    f = interior_product(X, b) - interior_product(Y, a)
    form = form + exterior_derivative(f).scale(QI_HALF)
    return GeneralizedSection(lie_bracket(X, Y), form)


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
