"""Exact multivariate polynomials over the Gaussian rationals.

Coordinates are z_1..z_n and their conjugates zbar_1..zbar_n, treated as
independent symbols.  An exponent key is a tuple of 2n nonnegative ints,
z-exponents first.  No floating-point number ever enters this module;
coefficients are pairs of ``fractions.Fraction``.

A polynomial's ``mask``, computed at its first use, has bit q set when some
term has a nonzero exponent at position q; the derivative along a position
outside it is zero, and ``wirtinger`` returns it without reading a term.
The ring operations, ``conjugate`` and ``wirtinger`` build their results,
whose terms are canonical by construction, with the trusted ``_poly``; the
public constructor checks and cleans what it is given.
"""
from __future__ import annotations

from fractions import Fraction


class QI:
    """A Gaussian rational re + im*sqrt(-1) with exact Fraction parts.

    ``+``, ``-`` and ``*`` skip the Fraction sums and products of a zero
    part, so a purely real or purely imaginary operand costs one product
    where the general formula takes four products and two sums; every
    result equals the general formula's."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @staticmethod
    def of(value) -> "QI":
        if isinstance(value, QI):
            return value
        if isinstance(value, complex):
            raise TypeError("QI is exact; refuse silent float conversion")
        return QI(value)

    def __add__(self, other):
        other = QI.of(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return _qi((a + c if c else a) if a else c, (b + d if d else b) if b else d)

    __radd__ = __add__

    def __neg__(self):
        return _qi(-self.re, -self.im)

    def __sub__(self, other):
        other = QI.of(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return _qi((a - c if c else a) if a else -c, (b - d if d else b) if b else -d)

    def __rsub__(self, other):
        return QI.of(other) - self

    def __mul__(self, other):
        other = QI.of(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b:
            if not d:
                return _qi(a * c, _ZERO)
            return _qi(a * c, a * d) if c else _qi(_ZERO, a * d)
        if not a:
            if not c:
                return _qi(-(b * d), _ZERO)
            return _qi(-(b * d), b * c) if d else _qi(_ZERO, b * c)
        if not d:
            return _qi(a * c, b * c)
        if not c:
            return _qi(-(b * d), a * d)
        return _qi(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = QI.of(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QI((self.re * other.re + self.im * other.im) / d,
                  (self.im * other.re - self.re * other.im) / d)

    def __rtruediv__(self, other):
        return QI.of(other) / self

    def conjugate(self) -> "QI":
        return QI(self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QI(other)
        if not isinstance(other, QI):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        return f"({self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}*i)"


_ZERO = Fraction(0)


def _qi(re: Fraction, im: Fraction) -> QI:
    """A QI from two Fraction parts, without the conversions of ``QI()``."""
    q = object.__new__(QI)
    q.re = re
    q.im = im
    return q


QI_ZERO = QI(0)
QI_ONE = QI(1)
QI_I = QI(0, 1)
QI_HALF = QI(Fraction(1, 2))


class ComplexPolynomial:
    """Polynomial in z_1..z_n, zbar_1..zbar_n with QI coefficients.

    Stored in canonical form: the ``terms`` dict maps exponent tuples to
    nonzero QI coefficients.  Instances are treated as immutable.
    """

    __slots__ = ("n", "terms", "_program", "_mask")

    def __init__(self, n: int, terms=None):
        self.n = n
        clean = {}
        if terms:
            for exps, c in terms.items():
                c = QI.of(c)
                if c:
                    if len(exps) != 2 * n:
                        raise ValueError(f"exponent tuple {exps} has wrong length for n={n}")
                    clean[tuple(exps)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def const(cls, n, c):
        return cls(n, {tuple([0] * (2 * n)): QI.of(c)})

    @classmethod
    def one(cls, n):
        return cls.const(n, 1)

    @classmethod
    def variable(cls, n, j, conjugated=False):
        exps = [0] * (2 * n)
        exps[j + (n if conjugated else 0)] = 1
        return cls(n, {tuple(exps): QI_ONE})

    # -- ring operations ---------------------------------------------------
    def _check(self, other):
        if self.n != other.n:
            raise ValueError("polynomials over different coordinate counts")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, QI)):
            other = ComplexPolynomial.const(self.n, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, QI_ZERO) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return _poly(self.n, terms)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, QI)):
            other = ComplexPolynomial.const(self.n, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QI)):
            c = QI.of(other)
            if not c:
                return _poly(self.n, {})
            return _poly(self.n, {e: k * c for e, k in self.terms.items()})
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, QI_ZERO) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return _poly(self.n, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = ComplexPolynomial.one(self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        if not isinstance(other, ComplexPolynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def mask(self) -> int:
        """Bit q is set when some term has a nonzero exponent at position q
        (q < n: z_q, q >= n: zbar_{q-n}); computed once, at the first use."""
        try:
            return self._mask
        except AttributeError:
            mask = 0
            for q, column in enumerate(zip(*self.terms)):
                if any(column):
                    mask |= 1 << q
            self._mask = mask
            return mask

    # -- calculus ----------------------------------------------------------
    def conjugate(self) -> "ComplexPolynomial":
        """Swap z_i <-> zbar_i exponents and conjugate coefficients."""
        n = self.n
        terms = {}
        for e, c in self.terms.items():
            terms[e[n:] + e[:n]] = c.conjugate()
        return _poly(n, terms)

    @property
    def is_real(self) -> bool:
        return self == self.conjugate()

    def wirtinger(self, j: int, holomorphic: bool = True) -> "ComplexPolynomial":
        """Exact d/dz_j (or d/dzbar_j); z and zbar are independent symbols.

        Zero at once along a position outside ``mask``.  Lowering one
        exponent maps distinct monomials to distinct ones, so each term is
        written once, its coefficient scaled by the integer exponent on both
        Fraction parts (reused as it is for exponent 1)."""
        idx = j if holomorphic else j + self.n
        terms = {}
        if self.mask >> idx & 1:
            for e, c in self.terms.items():
                k = e[idx]
                if k:
                    terms[e[:idx] + (k - 1,) + e[idx + 1:]] = c if k == 1 else _qi(c.re * k, c.im * k)
        return _poly(self.n, terms)

    # -- evaluation / substitution ------------------------------------------
    def _compile(self):
        """The coordinates used (q < n: z_q, q >= n: zbar_{q-n}) and, per term,
        the complex coefficient and nonzero factors (slot in those, power)."""
        n = self.n
        slots = {}
        terms = []
        for e, c in self.terms.items():
            factors = []
            for j in range(n):
                for q in (j, n + j):
                    if e[q]:
                        factors.append((slots.setdefault(q, len(slots)), e[q]))
            terms.append((c.to_complex(), tuple(factors)))
        return tuple(slots), tuple(terms)

    def evaluate(self, z) -> complex:
        """Evaluate at a point z in C^n (floating arithmetic).

        Terms are summed, and each term's factors multiplied, in a fixed
        order, so a value depends only on the polynomial and the point."""
        n = self.n
        if len(z) != n:
            raise ValueError(f"point has {len(z)} coordinates, polynomial has n={n}")
        try:
            coords, terms = self._program
        except AttributeError:
            coords, terms = self._program = self._compile()
        vals = [complex(z[q]) if q < n else complex(z[q - n]).conjugate() for q in coords]
        total = 0j
        for val, factors in terms:
            for slot, k in factors:
                val *= vals[slot] ** k
            total += val
        return total

    def substitute_linear(self, A) -> "ComplexPolynomial":
        """Pull back through the exact linear map z -> A z (A: n x n of QI,
        or a ``LinearSubstitution`` shared by several polynomials).

        zbar_i substitutes to conj(A)_i. zbar.  Used for group invariance.
        """
        n = self.n
        sub = A if isinstance(A, LinearSubstitution) else LinearSubstitution(n, A)
        out = ComplexPolynomial.zero(n)
        for e, c in self.terms.items():
            term = ComplexPolynomial.const(n, c)
            for j in range(n):
                if e[j]:
                    term = term * sub.power(j, e[j])
                if e[n + j]:
                    term = term * sub.power(n + j, e[n + j])
            out = out + term
        return out

    def __repr__(self):
        if self.is_zero:
            return "0"
        bits = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mono = []
            for j in range(self.n):
                if e[j]:
                    mono.append(f"z{j}" + (f"^{e[j]}" if e[j] > 1 else ""))
                if e[self.n + j]:
                    mono.append(f"zb{j}" + (f"^{e[self.n + j]}" if e[self.n + j] > 1 else ""))
            bits.append(f"{c!r}*{'*'.join(mono)}" if mono else f"{c!r}")
        return " + ".join(bits)


def _poly(n: int, terms: dict) -> ComplexPolynomial:
    """A ComplexPolynomial over ``terms`` as they are: exponent tuples of
    length 2n with nonzero QI coefficients, the checks of the public
    constructor already kept by the caller."""
    p = object.__new__(ComplexPolynomial)
    p.n = n
    p.terms = terms
    return p


class LinearSubstitution:
    """The substitution z -> A z (A: n x n of QI) on polynomials in n
    variables.  The image of each coordinate (z_j -> (A z)_j, zbar_j ->
    (conj(A) zbar)_j) is built once, and each power of an image the first
    time a term asks for it; every polynomial pulled back through the same
    instance shares them."""

    def __init__(self, n: int, A):
        zs = [ComplexPolynomial(n, {tuple((1 if t == k else 0) for t in range(2 * n)): QI_ONE})
              for k in range(2 * n)]
        new_z = []
        new_zb = []
        for i in range(n):
            p = ComplexPolynomial.zero(n)
            q = ComplexPolynomial.zero(n)
            for j in range(n):
                a = QI.of(A[i][j])
                if a:
                    p = p + zs[j] * a
                    q = q + zs[n + j] * a.conjugate()
            new_z.append(p)
            new_zb.append(q)
        self._images = new_z + new_zb
        self._powers = {}

    def power(self, q: int, k: int) -> ComplexPolynomial:
        """The k-th power of the image of coordinate q (q < n: z_q, q >= n:
        zbar_{q-n})."""
        p = self._powers.get((q, k))
        if p is None:
            p = self._powers[(q, k)] = self._images[q] ** k
        return p
