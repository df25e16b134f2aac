"""Independent brute-force oracle for the bracket calculus.

Everything here works on raw dicts of monomials {exponent-tuple: (re, im)}
with Fraction pairs, expanded term by term from the component formulas:

    [X,Y]^b        = sum_a X^a d_a Y^b - Y^a d_a X^b
    (L_X beta)_b   = sum_a X^a d_a beta_b + beta_a d_b X^a
    (iota_X beta)  = sum_a X^a beta_a
    (d g)_b        = d_b g

No code is shared with the engine beyond the test comparing canonical
dictionaries at the end, except in ``unfolded_courant_bracket``, which keeps
the engine's earlier Courant formula as a second oracle, and in
``TwoPartSection``, which keeps the engine's earlier section container (a
vector field and a 1-form held apart) as the oracle of the degree-1
multivector section, and in the per-type copies at the end, which keep the
engine's earlier conjugation, evaluation, repr, frame elements, wedge, d and
d_L of each type as the oracle of the one expansion.
"""
from fractions import Fraction

import numpy as np

from gkw.calculus import (Form, GeneralizedSection, LMultivector, VectorField,
                          exterior_derivative, interior_product, lie_bracket, lie_derivative)
from gkw.poly import QI_HALF, ComplexPolynomial


def mono_mul(e1, e2):
    return tuple(a + b for a, b in zip(e1, e2))


def c_add(c1, c2):
    return (c1[0] + c2[0], c1[1] + c2[1])


def c_mul(c1, c2):
    return (c1[0] * c2[0] - c1[1] * c2[1], c1[0] * c2[1] + c1[1] * c2[0])


def p_add(p1, p2):
    out = dict(p1)
    for e, c in p2.items():
        s = c_add(out.get(e, (Fraction(0), Fraction(0))), c)
        if s == (0, 0):
            out.pop(e, None)
        else:
            out[e] = s
    return out


def p_scale(p, c):
    out = {}
    for e, cc in p.items():
        s = c_mul(cc, c)
        if s != (0, 0):
            out[e] = s
    return out


def p_mul(p1, p2):
    out = {}
    for e1, c1 in p1.items():
        for e2, c2 in p2.items():
            e = mono_mul(e1, e2)
            s = c_add(out.get(e, (Fraction(0), Fraction(0))), c_mul(c1, c2))
            if s == (0, 0):
                out.pop(e, None)
            else:
                out[e] = s
    return out


def p_diff(p, idx):
    out = {}
    for e, c in p.items():
        k = e[idx]
        if k == 0:
            continue
        e2 = list(e)
        e2[idx] = k - 1
        s = c_add(out.get(tuple(e2), (Fraction(0), Fraction(0))),
                  (c[0] * k, c[1] * k))
        if s == (0, 0):
            out.pop(tuple(e2), None)
        else:
            out[tuple(e2)] = s
    return out


def v_diff(p, a, n):
    """Derivative along frame direction a (0..2n-1): d/dz or d/dzbar."""
    return p_diff(p, a)


# sections: dict {"vec": {a: poly}, "form": {a: poly}} with a in 0..2n-1

def naive_lie_bracket(X, Y, n):
    out = {}
    for b in range(2 * n):
        acc = {}
        for a in range(2 * n):
            if a in X:
                acc = p_add(acc, p_mul(X[a], v_diff(Y.get(b, {}), a, n)))
            if a in Y:
                acc = p_add(acc, p_scale(p_mul(Y[a], v_diff(X.get(b, {}), a, n)),
                                         (Fraction(-1), Fraction(0))))
        if acc:
            out[b] = acc
    return out


def naive_lie_derivative(X, beta, n):
    out = {}
    for b in range(2 * n):
        acc = {}
        for a in range(2 * n):
            if a in X:
                acc = p_add(acc, p_mul(X[a], v_diff(beta.get(b, {}), a, n)))
            if a in beta:
                acc = p_add(acc, p_mul(beta[a], v_diff(X.get(a, {}), b, n)))
        if acc:
            out[b] = acc
    return out


def naive_iota(X, beta, n):
    acc = {}
    for a in range(2 * n):
        if a in X and a in beta:
            acc = p_add(acc, p_mul(X[a], beta[a]))
    return acc


def naive_iota_form(X, w):
    """iota_X w of a k-form ``w`` ({index tuple: poly}) in the first slot:
    sum_a X^a w_(..a..) with the sign (-1)^pos of a's position in the key."""
    out = {}
    for a, xa in X.items():
        for idx, wi in w.items():
            if a in idx:
                pos = idx.index(a)
                term = p_scale(p_mul(xa, wi), (Fraction((-1) ** pos), Fraction(0)))
                key = idx[:pos] + idx[pos + 1:]
                acc = p_add(out.get(key, {}), term)
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)
    return out


def naive_d(g, n):
    out = {}
    for b in range(2 * n):
        db = v_diff(g, b, n)
        if db:
            out[b] = db
    return out


def naive_courant(s1, s2, n):
    X, alpha = s1["vec"], s1["form"]
    Y, beta = s2["vec"], s2["form"]
    vec = naive_lie_bracket(X, Y, n)
    form = {}
    lb = naive_lie_derivative(X, beta, n)
    la = naive_lie_derivative(Y, alpha, n)
    for b in set(lb) | set(la):
        acc = p_add(lb.get(b, {}), p_scale(la.get(b, {}), (Fraction(-1), Fraction(0))))
        if acc:
            form[b] = acc
    g = p_add(naive_iota(X, beta, n),
              p_scale(naive_iota(Y, alpha, n), (Fraction(-1), Fraction(0))))
    dg = naive_d(g, n)
    for b, p in dg.items():
        acc = p_add(form.get(b, {}), p_scale(p, (Fraction(-1, 2), Fraction(0))))
        if acc:
            form[b] = acc
        else:
            form.pop(b, None)
    return {"vec": vec, "form": form}


# multivectors: list of (coeff poly, [sections]) decomposables; expansion into
# canonical dict over frame index tuples (vector a -> a, form a -> 2n + a)

def _perm_sign(idx):
    sign = 1
    for i in range(len(idx)):
        for j in range(i + 1, len(idx)):
            if idx[i] > idx[j]:
                sign = -sign
            elif idx[i] == idx[j]:
                return 0
    return sign


def expand_decomposable(coeff, sections, n):
    terms = {(): dict(coeff)}
    for s in sections:
        entries = [(a, p) for a, p in s["vec"].items()] + \
                  [(2 * n + a, p) for a, p in s["form"].items()]
        new = {}
        for idx, q in terms.items():
            for a, p in entries:
                cand = idx + (a,)
                sign = _perm_sign(cand)
                if sign == 0:
                    continue
                key = tuple(sorted(cand))
                add = p_mul(q, p)
                if sign < 0:
                    add = p_scale(add, (Fraction(-1), Fraction(0)))
                cur = new.get(key, {})
                tot = p_add(cur, add)
                if tot:
                    new[key] = tot
                else:
                    new.pop(key, None)
        terms = new
    return terms


def section_scale(s, coeff):
    return {"vec": {a: p_mul(p, coeff) for a, p in s["vec"].items()},
            "form": {a: p_mul(p, coeff) for a, p in s["form"].items()}}


def naive_schouten(A, B, n):
    """A, B: lists of (coeff, [sections]) decomposables; degree (p, q) >= 1."""
    total = {}
    one = {tuple([0] * (2 * n)): (Fraction(1), Fraction(0))}
    for coeffA, Xs_ in A:
        p = len(Xs_)
        for coeffB, Ys_ in B:
            q = len(Ys_)
            Xs = [section_scale(Xs_[0], coeffA)] + list(Xs_[1:])
            Ys = [section_scale(Ys_[0], coeffB)] + list(Ys_[1:])
            for i in range(p):
                for j in range(q):
                    br = naive_courant(Xs[i], Ys[j], n)
                    rest = [Xs[t] for t in range(p) if t != i] + \
                           [Ys[t] for t in range(q) if t != j]
                    sgn = (Fraction((-1) ** (i + j)), Fraction(0))
                    exp = expand_decomposable(one, [br] + rest, n)
                    for key, poly in exp.items():
                        add = p_scale(poly, sgn)
                        tot = p_add(total.get(key, {}), add)
                        if tot:
                            total[key] = tot
                        else:
                            total.pop(key, None)
    return total


def unfolded_courant_bracket(s1, s2):
    """[X+a, Y+b] = [X,Y] + L_X b - L_Y a - d(iota_X b - iota_Y a)/2 term by
    term on the engine's types: two Lie derivatives by Cartan's formula,
    five exterior derivatives and six contractions."""
    X, a = s1.vec, s1.form
    Y, b = s2.vec, s2.form
    form = lie_derivative(X, b) - lie_derivative(Y, a)
    fa = interior_product(X, b) - interior_product(Y, a)
    f = fa.comps.get((), ComplexPolynomial.zero(s1.n))
    form = form - exterior_derivative(f).scale(QI_HALF)
    return GeneralizedSection(lie_bracket(X, Y), form)


class TwoPartSection:
    """A section X + alpha held as a VectorField and a Form, with the ring
    operations, conjugation, reality and evaluation written part by part."""

    def __init__(self, vec, form):
        self.vec = vec
        self.form = form

    @property
    def n(self):
        return self.vec.n

    def __add__(self, other):
        return TwoPartSection(self.vec + other.vec, self.form + other.form)

    def __sub__(self, other):
        return TwoPartSection(self.vec - other.vec, self.form - other.form)

    def __neg__(self):
        return TwoPartSection(-self.vec, -self.form)

    def scale(self, c):
        return TwoPartSection(self.vec.scale(c), self.form.scale(c))

    @property
    def is_zero(self):
        return self.vec.is_zero and self.form.is_zero

    def __eq__(self, other):
        return self.vec == other.vec and self.form == other.form

    def conjugate(self):
        return TwoPartSection(self.vec.conjugate(), self.form.conjugate())

    @property
    def is_real(self):
        return self == self.conjugate()

    def evaluate(self, z):
        return np.concatenate([self.vec.evaluate(z), self.form.evaluate(z)])


def two_part_pairing_poly(s1, s2):
    """<X+a, Y+b> = (a(Y) + b(X))/2, one loop per form part."""
    out = ComplexPolynomial.zero(s1.n)
    for (a,), p in s1.form.comps.items():
        q = s2.vec.comps.get(a)
        if q is not None:
            out = out + p * q
    for (a,), p in s2.form.comps.items():
        q = s1.vec.comps.get(a)
        if q is not None:
            out = out + p * q
    return out * QI_HALF


# -- the engine's per-type copies before the one expansion ---------------------
# Each type wrote its own conjugate, evaluate, repr and frame; forms had their
# own wedge, from_sections its own product loop, and d and d_L each their own
# loop, with signs applied by multiplying by +-1.

def _merge(terms, key, val):
    s = terms.get(key)
    s = val if s is None else s + val
    if s.is_zero:
        terms.pop(key, None)
    else:
        terms[key] = s


def _sort_with_sign(idx):
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
    key, s = _sort_with_sign(idx)
    if key is not None:
        _merge(terms, key, coeff if s * sign > 0 else -coeff)


def _section(n, comps):
    out = object.__new__(GeneralizedSection)
    out.n, out.degree, out.comps = n, 1, dict(comps)
    return out


def field_frame(n, a):
    return VectorField(n, {a: ComplexPolynomial.one(n)})


def form_frame(n, a):
    return Form(n, 1, {(a,): ComplexPolynomial.one(n)})


def section_frame(n, a):
    return _section(n, {(a,): ComplexPolynomial.one(n)})


def field_conjugate(X):
    n = X.n
    return VectorField(n, {(a + n) % (2 * n): p.conjugate() for a, p in X.comps.items()})


def form_conjugate(w):
    n = w.n
    comps = {}
    for idx, p in w.comps.items():
        key, sign = _sort_with_sign(tuple((a + n) % (2 * n) for a in idx))
        _merge(comps, key, p.conjugate() * sign)
    return Form(w.n, w.degree, comps)


def section_conjugate(s):
    m = 2 * s.n
    return _section(s.n, {(a - a % m + (a + s.n) % m,): p.conjugate()
                          for (a,), p in s.comps.items()})


def field_evaluate(X, z):
    out = np.zeros(2 * X.n, dtype=complex)
    for a, p in X.comps.items():
        out[a] = p.evaluate(z)
    return out


def form_evaluate(w, z):
    if w.degree != 1:
        raise ValueError("numeric evaluation implemented for 1-forms")
    out = np.zeros(2 * w.n, dtype=complex)
    for (a,), p in w.comps.items():
        out[a] = p.evaluate(z)
    return out


def section_evaluate(s, z):
    out = np.zeros(4 * s.n, dtype=complex)
    for (a,), p in s.comps.items():
        out[a] = p.evaluate(z)
    return out


def field_repr(X):
    if not X.comps:
        return "0"
    names = [f"d/dz{a}" if a < X.n else f"d/dzb{a - X.n}" for a in sorted(X.comps)]
    return " + ".join(f"({X.comps[a]!r}) {nm}" for a, nm in zip(sorted(X.comps), names))


def form_repr(w):
    if not w.comps:
        return "0"

    def nm(a):
        return f"dz{a}" if a < w.n else f"dzb{a - w.n}"
    return " + ".join(f"({p!r}) {'^'.join(nm(a) for a in idx)}" if idx else f"({p!r})"
                      for idx, p in sorted(w.comps.items()))


def multivector_repr(A):
    n = A.n

    def nm(a):
        if a < n:
            return f"d/dz{a}"
        if a < 2 * n:
            return f"d/dzb{a - n}"
        if a < 3 * n:
            return f"dz{a - 2 * n}"
        return f"dzb{a - 3 * n}"
    if not A.comps:
        return "0"
    return " + ".join(f"({p!r}) {'^'.join(nm(a) for a in idx)}"
                      for idx, p in sorted(A.comps.items()))


def form_wedge(w1, w2):
    comps = {}
    for i1, p1 in w1.comps.items():
        for i2, p2 in w2.comps.items():
            key, sign = _sort_with_sign(i1 + i2)
            if key is None:
                continue
            _merge(comps, key, p1 * p2 * sign)
    return Form(w1.n, w1.degree + w2.degree, comps)


def from_sections(n, coeff, factors):
    if not isinstance(coeff, ComplexPolynomial):
        coeff = ComplexPolynomial.const(n, coeff)
    terms = {(): coeff}
    for s in factors:
        new = {}
        for idx, q in terms.items():
            for (a,), p in s.comps.items():
                _merge_signed(new, idx + (a,), q * p, 1)
        terms = new
    return LMultivector(n, len(factors), terms)


def exterior_derivative_per_type(w):
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


def algebroid_differential(eps):
    n = eps.n
    terms = {}
    for idx, p in eps.comps.items():
        for k in range(n):
            dp = p.wirtinger(k, holomorphic=False)
            if dp.is_zero:
                continue
            key, sign = _sort_with_sign((3 * n + k,) + idx)
            if key is None:
                continue
            _merge(terms, key, dp * sign)
    return LMultivector(n, 3, terms)

