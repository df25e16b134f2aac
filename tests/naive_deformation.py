"""Reference oracle for the deformation bivector: the two-dict code that
stored eps = sum F_ij d/dz_i ^ d/dz_j + sum G_ij dzbar_i ^ dzbar_j as a
bivector part ``hol`` and a form part ``form``, each {(i, j): poly} with
i < j < n, and converted each half to the frame by hand.

This is the engine's earlier code, kept apart from ``gkw.deformation`` and
``gkw.pipeline`` so that the one-multivector versions, which read both
halves through the frame keys (i, j) and (3n+i, 3n+j), are checked against
an independent copy.  A deformation here is a pair (hol, form) of dicts.
"""
import numpy as np

from gkw.calculus import (Form, GeneralizedSection, VectorField, interior_product,
                          lie_bracket, lie_derivative as lie_derivative_of_form)
from gkw.exactlinalg import qi_matrix_inverse
from gkw.linear import contraction_operator
from gkw.poly import QI, QI_HALF, QI_I, ComplexPolynomial, LinearSubstitution

from naive_frames import covector_frame_matrix, tangent_frame_matrix


def _merge(terms, key, val):
    s = terms[key] + val if key in terms else val
    if s.is_zero:
        terms.pop(key, None)
    else:
        terms[key] = s


def standard_symplectic_form(n):
    """omega_std = (i/2) sum_j dzbar_j ^ dz_j, written out by hand."""
    return Form(n, 2, {(j, j + n): ComplexPolynomial.const(n, QI_HALF * (-QI_I))
                       for j in range(n)})


def from_vector_fields(Y, Z, omega=None):
    """Y^Z + iota_Y omega ^ iota_Z omega, the form part by interior products."""
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
    return hol, form


def scale(eps, c):
    return tuple({k: q for k, p in part.items() if not (q := p * c).is_zero} for part in eps)


def add(eps, other):
    hol, form = dict(eps[0]), dict(eps[1])
    for k, p in other[0].items():
        _merge(hol, k, p)
    for k, p in other[1].items():
        _merge(form, k, p)
    return hol, form


def contractions_at(n, eps, points):
    """The stacked contraction operators: the bivector half through the
    tangent frame, the form half through the covector frame shifted by n."""
    Tt, Tc = tangent_frame_matrix(n), covector_frame_matrix(n)
    pairs = []
    for part, frame, shift, half in ((eps[0], Tt, 0, slice(0, 2 * n)),
                                     (eps[1], Tc, n, slice(2 * n, 4 * n))):
        for (i, j), p in part.items():
            c = np.array([p.evaluate(z) for z in points], dtype=complex)
            a = np.zeros((len(c), 4 * n), dtype=complex)
            b = np.zeros(4 * n, dtype=complex)
            a[:, half] = frame[:, shift + i] * c[:, None]
            b[half] = frame[:, shift + j]
            pairs.append((a, b))
    return contraction_operator(pairs, 2 * n)


def upstairs_sections(n, eps, t):
    """d/dzbar_a + t iota eps from the form half, then dz_k + t iota eps
    from the bivector half."""
    hol, form = eps
    t = QI(t)
    out = []
    for a in range(2 * n):
        if a < n:
            base = GeneralizedSection.frame(n, n + a)
            formc = {}
            for (i, j), p in form.items():
                if a == i:
                    formc[(n + j,)] = formc.get((n + j,), ComplexPolynomial.zero(n)) + p * t
                elif a == j:
                    formc[(n + i,)] = formc.get((n + i,), ComplexPolynomial.zero(n)) - p * t
            extra = GeneralizedSection(VectorField.zero(n), Form(n, 1, formc))
        else:
            k = a - n
            base = GeneralizedSection.frame(n, 2 * n + k)
            vecc = {}
            for (i, j), p in hol.items():
                if k == i:
                    vecc[j] = vecc.get(j, ComplexPolynomial.zero(n)) + p * t
                elif k == j:
                    vecc[i] = vecc.get(i, ComplexPolynomial.zero(n)) - p * t
            extra = GeneralizedSection(VectorField(n, vecc), Form.zero(n, 1))
        out.append(base + extra)
    return out


def lie_derivative(n, eps, X):
    """L_X eps: the bivector half by the Leibniz rule with [X, d/dz_a], the
    form half by Cartan's formula on each 2-form term.  Raises when a part
    leaves its bundle."""
    hol, form = eps
    out_h = {}
    for (i, j), p in hol.items():
        _merge(out_h, (i, j), X.apply_to(p))
        for pos, (src, other) in enumerate(((i, j), (j, i))):
            for a, q in lie_bracket(X, VectorField.frame(n, src)).comps.items():
                if a >= n:
                    raise ValueError("Lie derivative left the holomorphic bivector bundle")
                if a == other:
                    continue
                lo, hi = (a, other) if a < other else (other, a)
                sign = 1 if a < other else -1
                if pos == 1:
                    sign = -sign
                _merge(out_h, (lo, hi), p * q * sign)
    out_f = {}
    for (i, j), p in form.items():
        lw = lie_derivative_of_form(X, Form(n, 2, {(i + n, j + n): p}))
        for (a, b), q in lw.comps.items():
            if a < n or b < n:
                raise ValueError("Lie derivative left the antiholomorphic form bundle")
            _merge(out_f, (a - n, b - n), q)
    return out_h, out_f


def pullback_linear(n, eps, A):
    """Pullback along z -> A z: coefficients substitute z -> Az, tangent
    frames transform by A^-1, covector frames by conj(A), each half summed
    into its own dict with the sign of the key order multiplied in."""
    Ainv = qi_matrix_inverse(A)
    sub = LinearSubstitution(n, A)
    tangent = list(zip(*Ainv))
    covector = [[QI.of(A[i][a]).conjugate() for a in range(n)] for i in range(n)]
    out = []
    for coeffs, M in zip(eps, (tangent, covector)):
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
    return tuple(out)
