"""Moment polytopes of toric presentations: facet data, kernel-torus
weights, and the exact feasibility search for the deformation exponent
functional.

A polytope is {x in R^d : <eta_i, x> <= c_i} with primitive integer
outward normals eta_i.  The presentation C^N -> M uses the kernel torus K
of p(e_i) = eta_i; its moment level is xi = W c, realized by the slack
parametrization |z_i|^2 = 2 (c_i - <eta_i, x>).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil, floor, gcd

from .exactlinalg import integer_kernel_basis, solve_affine


@dataclass(frozen=True)
class PolytopeSpec:
    """Facet presentation of a compact polytope at desk scale (d <= 3)."""

    normals: tuple
    offsets: tuple

    def __post_init__(self):
        normals = tuple(tuple(int(x) for x in row) for row in self.normals)
        offsets = tuple(Fraction(c) for c in self.offsets)
        if len(normals) != len(offsets):
            raise ValueError("need one offset per facet normal")
        for eta in normals:
            g = 0
            for x in eta:
                g = gcd(g, abs(x))
            if g != 1:
                raise ValueError(f"normal {eta} is not primitive")
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "offsets", offsets)
        verts = self.vertices()
        for j, (eta, c) in enumerate(zip(normals, offsets)):
            on = sum(sum(a * x for a, x in zip(eta, v)) == c for v in verts)
            if on < self.d:
                raise ValueError(f"facet {j} (normal {eta}, offset {c}) is redundant: "
                                 f"it holds {on} of the vertices, fewer than d = {self.d}")

    @property
    def d(self):
        return len(self.normals[0])

    @property
    def num_facets(self):
        return len(self.normals)

    def kernel_weights(self):
        """Rows: primitive basis of the kernel torus of p(e_i) = eta_i."""
        W = integer_kernel_basis([list(eta) for eta in self.normals])
        if len(W) != self.num_facets - self.d:
            raise ValueError("facet normals do not span the ambient torus algebra")
        return tuple(tuple(row) for row in W)

    def contains(self, x) -> bool:
        return all(sum(Fraction(a) * Fraction(v) for a, v in zip(eta, x)) <= c
                   for eta, c in zip(self.normals, self.offsets))

    def vertices(self):
        """Exact vertices (d <= 3): intersections of d facets inside the polytope."""
        verts = []
        for idxs in combinations(range(self.num_facets), self.d):
            A = [list(self.normals[i]) for i in idxs]
            b = [self.offsets[i] for i in idxs]
            sol = solve_affine(A, b)
            if sol is None or sol[1]:   # no common point, or a line of them
                continue
            x = sol[0]
            if self.contains(x) and x not in verts:
                verts.append(x)
        if not verts:
            raise ValueError("polytope has no vertices; check the facet data")
        return verts

    def default_level(self):
        """xi = W c in the kernel-torus dual basis (independent of x)."""
        W = self.kernel_weights()
        return tuple(sum(Fraction(w) * c for w, c in zip(row, self.offsets)) for row in W)


# -- exact Fourier-Motzkin ----------------------------------------------------

def _fm_eliminate(ineqs, var):
    """Eliminate variable ``var`` from a x <= b rows (Fraction lists + rhs)."""
    lower, upper, rest = [], [], []
    for row, rhs in ineqs:
        c = row[var]
        if c == 0:
            rest.append((row, rhs))
        elif c > 0:
            upper.append(([x / c for x in row], rhs / c))
        else:
            lower.append(([x / -c for x in row], rhs / -c))
    out = list(rest)
    for lo, blo in lower:
        for up, bup in upper:
            row = [u + l for u, l in zip(up, lo)]
            row[var] = Fraction(0)
            out.append((row, bup + blo))
    return out


def _feasible_point(ineqs, nvars):
    """A rational point satisfying all a x <= b, or None. Exact F-M."""
    systems = [ineqs]
    for v in range(nvars - 1, 0, -1):
        systems.append(_fm_eliminate(systems[-1], v))
    # innermost system involves only variable 0
    point = [Fraction(0)] * nvars
    for v in range(0, nvars):
        sys_v = systems[nvars - 1 - v]
        lo, hi = None, None
        for row, rhs in sys_v:
            c = row[v]
            acc = rhs - sum(row[u] * point[u] for u in range(v))
            if any(row[u] != 0 for u in range(v + 1, nvars)):
                continue
            if c == 0:
                if acc < 0:
                    return None
            elif c > 0:
                bound = acc / c
                hi = bound if hi is None else min(hi, bound)
            else:
                bound = acc / c
                lo = bound if lo is None else max(lo, bound)
        if lo is not None and hi is not None and lo > hi:
            return None
        point[v] = _pick_in_interval(lo, hi)
    return point


def _pick_in_interval(lo, hi):
    """Deterministic rational choice, preferring integers."""
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return Fraction(min(0, floor(hi)))
    if hi is None:
        return Fraction(max(0, ceil(lo)))
    if lo <= 0 <= hi:
        return Fraction(0)
    c = ceil(lo)
    if lo <= c <= hi:
        return Fraction(c)
    return (lo + hi) / 2


@dataclass(frozen=True)
class AlphaResult:
    feasible: bool
    pair: tuple | None
    alpha: tuple | None
    exponents: tuple | None
    certificates: tuple

    def __bool__(self):
        return self.feasible


def find_alpha(poly: PolytopeSpec) -> AlphaResult:
    """Search ordered facet pairs (i, j), i < j lexicographically, for a
    functional alpha with alpha(eta_i) = alpha(eta_j) = -1 and
    alpha(eta_k) >= 0 otherwise; exact rational arithmetic throughout.

    Returns the first feasible (pair, alpha) or per-pair infeasibility
    certificates.
    """
    d = poly.d
    certs = []
    for i, j in combinations(range(poly.num_facets), 2):
        eqs = [list(poly.normals[i]), list(poly.normals[j])]
        rhs = [Fraction(-1), Fraction(-1)]
        sol = solve_affine(eqs, rhs)
        if sol is None:
            certs.append({"pair": (i, j), "reason": "equalities inconsistent"})
            continue
        part, null = sol
        others = [k for k in range(poly.num_facets) if k not in (i, j)]
        # inequalities -alpha(eta_k) <= 0 in the free parameters s
        ineqs = []
        consts_ok = True
        for k in others:
            base = sum(Fraction(a) * p for a, p in zip(poly.normals[k], part))
            row = [-sum(Fraction(poly.normals[k][t]) * v[t] for t in range(d)) for v in null]
            if not null:
                if base < 0:
                    consts_ok = False
                    certs.append({"pair": (i, j),
                                  "reason": f"alpha(eta_{k}) = {base} < 0 at the unique solution"})
                    break
            else:
                ineqs.append((row, base))
        if not consts_ok:
            continue
        if not null:
            alpha = tuple(part)
        else:
            s = _feasible_point(ineqs, len(null))
            if s is None:
                certs.append({"pair": (i, j), "reason": "inequality system infeasible"})
                continue
            alpha = tuple(p + sum(si * v[t] for si, v in zip(s, null))
                          for t, p in enumerate(part))
        exps = tuple(sum(Fraction(a) * al for a, al in zip(poly.normals[k], alpha))
                     if k not in (i, j) else Fraction(0)
                     for k in range(poly.num_facets))
        return AlphaResult(True, (i, j), alpha, exps, tuple(certs))
    return AlphaResult(False, None, None, None, tuple(certs))


# -- stock polytopes -----------------------------------------------------------

def cp2_polytope() -> PolytopeSpec:
    return PolytopeSpec(((-1, 0), (0, -1), (1, 1)), (0, 0, 1))


def cp2_blowup1_polytope() -> PolytopeSpec:
    return PolytopeSpec(((-1, 0), (0, -1), (1, 1), (1, 0)), (0, 0, 1, Fraction(1, 2)))


def hirzebruch_polytope(k: int) -> PolytopeSpec:
    return PolytopeSpec(((-1, 0), (0, -1), (0, 1), (1, k)), (0, 0, 1, k + 1))
