"""End-to-end reduction: sample level sets, build P = g_M + df pointwise,
reduce, verify type formulas and bracket closure, extract bi-Hermitian data.

A run's record is what it samples and builds once: the ``SampleBatch`` of
the level set (each accepted point, its stratum label, and the
fundamental-field frame Q and moment-map differentials dF the sampler
checked there, the one place they are evaluated) and each sample's
structure pair (``pairs_once``, a list in point order; a deformed recipe
checks its pairs in stacks of at most ``PAIR_STACK_ROWS`` points).  Every
pointwise stage takes a sample's point, label, pair, Q and dF from that
record by its index, and from nowhere else.  A pair passes the checks of
``linear``: per structure J^2 = -1 and eta-orthogonality, which imply that
its +i eigenbundle L is isotropic with dim L = m and L cap conj(L) = 0; per
pair G^2 = 1 (so J1 and J2 commute) and G^T eta positive (G is
eta-orthogonal as J1 and J2 are).  The reduction reads each of its
subspaces at the dimension the mathematics fixes (``linear.nullspace``),
with no rank threshold.  The earliest failure decides: ``pairs_once``
raises the error of the earliest point whose pair fails, as a loop of
``pair_at`` would, so a report holds valid pairs only; the catalog's
deformation-scale fit rejects a probe round by the same rule.
The quotient at each point reads that pair, Q and dF, and is one
``QuotientRow``: the upstairs and quotient types, dim(k_M cap pi L2), the
residual diagnostics (P-isotropy as ``quotient_basis`` checked it), the
quotient pair and its basis.  k_M is the frame of Q that ``quotient_basis``
orthonormalized to build P, and pi(L2) comes from the SVD that decides
type(J2), so neither span is decided a second time.  ``type_table``
is the list of those rows, and the report's type-table, formula and
bi-Hermitian sections read it directly.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import frames
from .actions import MomentMapPoly, TorusAction, UnitaryAction
from .calculus import (Form, courant_bracket, exterior_derivative, interior_product,
                       pairing_poly)
from .deformation import DeformationBivector, LMultivector
from .linear import (RANK_TOL, ComplexSubspace, KahlerPairNum, LinearGC,
                     QuotientBasis, ValidationError, b_conjugate,
                     contraction_operator, deform_pair, extract_bihermitian,
                     reduce_pair, subspace_intersection_dim)
from .poly import QI, ComplexPolynomial

FREENESS_TOL = 1e-8
LEVEL_TOL = 1e-12
MOMENT_CONDITION_TOL = 1e-8   # relative residual of J1(xi_M) = df at a table row
MEMBERSHIP_TOL = 1e-9         # residual of a section outside an eigenbundle
STRATUM_TOL = 1e-10           # |z_j| below this counts as z_j = 0 on a stratum
PAIR_STACK_ROWS = 16          # points per pairs_at stack in pairs_once: nearly
                              # the speed of one stack for a whole run, with a
                              # fraction of its transient memory


# -- structure recipes --------------------------------------------------------

@lru_cache(maxsize=None)
def _standard_pair(n: int) -> KahlerPairNum:
    """(J_omega, J_J) of the flat structures on C^n, validated once per n.
    Every recipe on C^n shares it, so its arrays are read-only."""
    pair = KahlerPairNum(LinearGC.from_symplectic(frames.omega_std_map(n)),
                         LinearGC.from_complex(frames.complex_structure_std(n)))
    for J in (pair.J1, pair.J2):
        J.J.setflags(write=False)
        J.eigenbundle().basis.setflags(write=False)
    return pair


def _b_shifted(pair: KahlerPairNum, B) -> KahlerPairNum:
    """The pair conjugated by e^B for a map B: V -> V*."""
    return KahlerPairNum(LinearGC(b_conjugate(pair.J1.J, B)),
                         LinearGC(b_conjugate(pair.J2.J, B)))


class GenuineKahlerRecipe:
    """(J_omega, J_J) for the standard flat structures on C^n."""

    kind = "genuine-kahler"

    def __init__(self, n: int):
        self.n = n
        self._pair = _standard_pair(n)

    def pair_at(self, z) -> KahlerPairNum:
        return self._pair

    def describe(self):
        return {"kind": self.kind, "n": self.n}


class DeformedKahlerRecipe:
    """(J_omega, J_eps(t)) on C^n: J2 deformed pointwise by t * eps."""

    kind = "deformed"

    def __init__(self, n: int, eps: DeformationBivector, t: Fraction):
        if eps.n != n:
            raise ValueError("deformation lives on a different C^n")
        self.n = n
        self.eps = eps
        self.t = Fraction(t)
        self._base = _standard_pair(n)

    def contractions_at(self, points) -> np.ndarray:
        """The contraction operators of eps at the points, stacked
        (S, 4n, 4n): a key (x, y) of eps pairs columns x and y of the
        section frame matrix; the coefficients are evaluated point by point."""
        frame = frames.section_frame_matrix(self.n)
        pairs = []
        for (x, y), p in self.eps.comps.items():
            c = np.array([p.evaluate(z) for z in points], dtype=complex)
            pairs.append((frame[:, x] * c[:, None], frame[:, y]))
        return contraction_operator(pairs, 2 * self.n)

    def pair_at(self, z) -> KahlerPairNum:
        return pairs_once(self, [z])[0]

    def pairs_at(self, points) -> list:
        """The pair at every point, checked as one stack: per point the
        validated pair, or the error of its first failed check, which
        ``pairs_once`` raises."""
        if self.eps.is_zero:
            return [self._base] * len(points)
        return deform_pair(self._base, self.contractions_at(points), float(self.t))

    def upstairs_sections(self):
        """Polynomial frame sections of L_eps = {Y + t iota_Y eps : Y in L_J},
        one per frame index v = n..3n-1 of L_J (d/dzbar, then dz): e_v plus
        t iota_{e_v} eps, which reads the keys of eps holding the dual
        index (v + 2n) mod 4n."""
        n = self.n
        t = QI(self.t)
        out = []
        for v in range(n, 3 * n):
            dual = (v + 2 * n) % (4 * n)
            terms = {(v,): ComplexPolynomial.one(n)}
            for (x, y), p in self.eps.comps.items():
                if x == dual:
                    terms[(y,)] = p * t
                elif y == dual:
                    terms[(x,)] = -(p * t)
            out.append(LMultivector(n, 1, terms).as_section())
        return out

    def describe(self):
        return {"kind": self.kind, "n": self.n, "t": str(self.t)}


class BShiftedRecipe:
    """e^B-transform of a base recipe by a real closed polynomial 2-form B."""

    kind = "b-shifted"

    def __init__(self, base, B: Form):
        if B.degree != 2:
            raise ValueError("B must be a 2-form")
        if B != B.conjugate():
            raise ValueError("B must be real")
        self.base = base
        self.n = base.n
        self.B = B
        if not exterior_derivative(B).is_zero:
            raise ValueError("B must be closed")

    def pair_at(self, z) -> KahlerPairNum:
        return _b_shifted(self.base.pair_at(z), frames.two_form_map_at(self.B, z))

    def describe(self):
        return {"kind": self.kind, "base": self.base.describe()}


class ConstantPairRecipe:
    """A constant valid pair (the flat hyper-Kahler structures, e.g.)."""

    kind = "constant-pair"

    def __init__(self, n, J1, J2, label="constant"):
        self.n = n
        self.label = label
        self._pair = KahlerPairNum(LinearGC(J1), LinearGC(J2))

    def pair_at(self, z) -> KahlerPairNum:
        return self._pair

    def describe(self):
        return {"kind": self.kind, "label": self.label}


class RealifiedRecipe:
    """Exact-B-transform making the moment map real (connection-based).

    gamma = (theta, h) = w / D with w a polynomial 1-form and D = det of the
    fundamental-field Gram matrix of the pair's tangent metric g; the
    transform at a point is e^{B(p)} with B = d(gamma) = dw/D - (dD ^ w)/D^2,
    evaluated by the quotient rule.  Requires g to be constant (true for the
    flat scenarios this workbench builds).
    """

    kind = "realified"

    def __init__(self, base, action, moment: MomentMapPoly):
        self.base = base
        self.n = base.n
        self.action = action
        probe = np.full(self.n, 0.37 + 0.21j)
        g = extract_bihermitian([base.pair_at(probe)]).g[0]
        g_rat = [[Fraction(x).limit_denominator(1 << 20) for x in row] for row in g]
        if np.abs(np.array([[float(x) for x in row] for row in g_rat]) - g).max() > 1e-9:
            raise ValidationError("pair tangent metric is not rational-constant")
        self._g = g_rat
        n = self.n
        fields = [action.fundamental_field(a).vec for a in range(action.k)]
        k = len(fields)
        # u_a = g(., xi_a) as exact polynomial 1-forms; gram[a][b] = u_b(xi_a)
        us = [frames.metric_pairing(self._g, X) for X in fields]
        gram = [[interior_product(X, u).comps.get((), ComplexPolynomial.zero(n)) for u in us]
                for X in fields]
        D, adj = _det_and_adjugate_poly(gram)
        w = Form.zero(n, 1)
        for a in range(k):
            for b in range(k):
                coeff = adj[a][b] * moment.h[a]
                if not coeff.is_zero:
                    w = w + Form(n, 1, {key: p * coeff for key, p in us[b].comps.items()})
        self.D = D
        self.w = w
        self.dw = exterior_derivative(w)
        self.dD_w = exterior_derivative(D).wedge(w)
        self.moment_real = MomentMapPoly(moment.f, tuple(ComplexPolynomial.zero(n)
                                                         for _ in moment.f))

    def b_map_at(self, z) -> np.ndarray:
        Dv = self.D.evaluate(z)
        if abs(Dv) < 1e-14:
            raise ValidationError("fundamental-field Gram determinant vanishes at the point")
        M1 = frames.two_form_map_at(self.dw, z)
        M2 = frames.two_form_map_at(self.dD_w, z)
        out = M1 / Dv - M2 / Dv ** 2
        return np.real(out)

    def pair_at(self, z) -> KahlerPairNum:
        return _b_shifted(self.base.pair_at(z), self.b_map_at(z))

    def describe(self):
        return {"kind": self.kind, "base": self.base.describe()}


def _det_and_adjugate_poly(gram):
    """Exact determinant and adjugate of a small polynomial matrix."""
    k = len(gram)
    n = gram[0][0].n

    def det(rows, cols):
        if len(rows) == 1:
            return gram[rows[0]][cols[0]]
        out = ComplexPolynomial.zero(n)
        r = rows[0]
        for pos, c in enumerate(cols):
            minor = det(rows[1:], cols[:pos] + cols[pos + 1:])
            term = gram[r][c] * minor
            out = out + (term if pos % 2 == 0 else -term)
        return out

    allr = tuple(range(k))
    D = det(allr, allr)
    adj = [[ComplexPolynomial.zero(n) for _ in range(k)] for _ in range(k)]
    for i in range(k):
        for j in range(k):
            rows = tuple(r for r in allr if r != j)
            cols = tuple(c for c in allr if c != i)
            m = det(rows, cols) if k > 1 else ComplexPolynomial.one(n)
            adj[i][j] = m if (i + j) % 2 == 0 else -m
    return D, adj


# -- scenario -----------------------------------------------------------------

@dataclass(frozen=True)
class Stratum:
    """A labelled stratum: the points whose coordinates ``zeros`` vanish."""
    label: str
    zeros: tuple

    def holds(self, z) -> bool:
        return all(abs(z[j]) < STRATUM_TOL for j in self.zeros)


@dataclass
class Scenario:
    name: str
    n: int
    recipe: object
    action: object
    moment: MomentMapPoly
    level: tuple
    sampler: object
    strata: tuple = ()

    @cached_property
    def fields(self) -> list:
        """The fundamental fields, one per Lie-algebra basis element."""
        return self.action.fundamental_fields()

    def stratum_label(self, z) -> str:
        for s in self.strata:
            if s.holds(z):
                return s.label
        return "generic"

    def describe(self):
        return {
            "name": self.name,
            "ambient_complex_dim": self.n,
            "recipe": self.recipe.describe(),
            "action": ("torus " + repr(list(map(list, self.action.weights)))
                       if isinstance(self.action, TorusAction)
                       else f"U({self.action.n}) on C^({self.action.n}x{self.action.m})"),
            "level": [str(x) for x in self.level],
            "moment_real": self.moment.is_real,
        }


# -- samplers -------------------------------------------------------------------

@dataclass
class SampleBatch:
    points: list
    labels: list
    rejected: list
    Q: list       # per point: the fundamental-field frame, 2n x dim(G), real
    DF: list      # per point: the moment-map differentials, 2n x dim(K), real


class ScalingSampler:
    """Exact radial scaling for a weighted-homogeneous rank-1 torus level."""

    def __init__(self, moment: MomentMapPoly, level):
        self.moment = moment
        self.level = float(level[0])
        if len(moment.f) != 1:
            raise ValueError("scaling sampler needs a one-dimensional level")

    def raw(self, rng, n, stratum=None):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if stratum is not None:
            z[list(stratum.zeros)] = 0.0
        val = self.moment.f[0].evaluate(z).real
        if val <= 0 or self.level / val <= 0:
            return None
        return z * np.sqrt(self.level / val)


class PolytopeSampler:
    """Slack parametrization |z_j|^2 = 2 s_j(x) over polytope points; a
    stratum z_j = 0 is sampled on facet j."""

    def __init__(self, poly):
        self.poly = poly
        exact = poly.vertices()
        self.verts = [[float(c) for c in v] for v in exact]
        lo = np.min(self.verts, axis=0)
        hi = np.max(self.verts, axis=0)
        self.bbox = (lo, hi)
        # per facet, its vertices in the order of the one exact enumeration
        self.facet_verts = [[v for v, x in zip(self.verts, exact)
                             if sum(a * xi for a, xi in zip(eta_, x)) == c]
                            for eta_, c in zip(poly.normals, poly.offsets)]
        self.facets = [([float(a) for a in eta_], float(c))
                       for eta_, c in zip(poly.normals, poly.offsets)]

    def _interior_x(self, rng):
        lo, hi = self.bbox
        for _ in range(200):
            x = lo + rng.random(len(lo)) * (hi - lo)
            if self.poly.contains([Fraction(v).limit_denominator(1 << 30) for v in x]):
                return x
        raise ValidationError("polytope rejection sampling failed")

    def _facet_x(self, rng, j):
        verts = self.facet_verts[j]
        if len(verts) < 2:
            raise ValidationError(f"facet {j} has no interior")
        t = 0.15 + 0.7 * rng.random()
        return (1 - t) * np.array(verts[0]) + t * np.array(verts[1])

    def raw(self, rng, n, stratum=None):
        if stratum is not None:
            (j,) = stratum.zeros
            x = self._facet_x(rng, j)
        else:
            x = self._interior_x(rng)
        s = np.array([c - np.dot(eta_, x) for eta_, c in self.facets])
        s = np.where(np.abs(s) < 1e-13, 0.0, s)
        if np.any(s < 0):
            return None
        phases = np.exp(2j * np.pi * rng.random(n))
        return np.sqrt(2.0 * s) * phases


class FrameSampler:
    """Row Gram-Schmidt onto the central level Z Z-dagger = I."""

    def __init__(self, action: UnitaryAction):
        self.action = action

    def raw(self, rng, n, stratum=None):
        a = self.action
        Z = rng.standard_normal((a.n, a.m)) + 1j * rng.standard_normal((a.n, a.m))
        if stratum is not None:
            Z.flat[list(stratum.zeros)] = 0.0
        for i in range(a.n):
            for s in range(i):
                Z[i] -= (Z[s].conj() @ Z[i]) * Z[s]
            nrm = np.linalg.norm(Z[i])
            if nrm < 1e-8:
                return None
            Z[i] /= nrm
        return Z.reshape(-1)


class RaySampler:
    """Root-solve f(u + s v) = 0 along random rays: samples the zero level
    set of a quadratic f."""

    def __init__(self, fpoly: ComplexPolynomial):
        self.f = fpoly

    def raw(self, rng, n, stratum=None):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        # f(u + s v), s real: sample three values to get the quadratic
        f0 = self.f.evaluate(u).real
        f1 = self.f.evaluate(u + v).real
        fm1 = self.f.evaluate(u - v).real
        a = (f1 + fm1 - 2 * f0) / 2
        b = (f1 - fm1) / 2
        c = f0
        if abs(a) < 1e-14:
            if abs(b) < 1e-14:
                return None
            roots = [-c / b]
        else:
            disc = b * b - 4 * a * c
            if disc < 0:
                return None
            roots = [(-b + np.sqrt(disc)) / (2 * a), (-b - np.sqrt(disc)) / (2 * a)]
        s = roots[0]
        p = u + s * v
        if np.linalg.norm(p) < 1e-3:
            return None
        return p


def sample_level_set(scenario: Scenario, count: int, seed: int | np.random.Generator) -> SampleBatch:
    """Deterministic seeded samples on the level set, stratified over the
    declared strata, with freeness/regularity rejection.  ``seed`` is an int
    or a ``numpy.random.Generator``, which is drawn from as it is."""
    rng = np.random.default_rng(seed)
    n = scenario.n
    level = np.array([float(x) for x in scenario.level])

    per = max(1, int(round(0.3 * count))) if scenario.strata else 0
    quotas = [s for s in scenario.strata for _ in range(per)]
    quotas += [None] * (count - len(quotas))

    points, labels, rejected, Qs, DFs = [], [], [], [], []
    for stratum in quotas:
        want = stratum.label if stratum is not None else None
        accepted = None
        for attempt in range(400):
            z = scenario.sampler.raw(rng, n, stratum)
            if z is None:
                rejected.append((want, "sampler produced no candidate"))
                continue
            fv = np.array([p.evaluate(z).real for p in scenario.moment.f])
            if np.abs(fv - level).max() > LEVEL_TOL:
                rejected.append((want, f"level residual {np.abs(fv - level).max():.2e}"))
                continue
            # Q: the fundamental fields' tangent parts, 2n x dim(G), real
            Q = np.column_stack([frames.section_at(s, z)[:2 * n].real for s in scenario.fields])
            sv = np.linalg.svd(Q, compute_uv=False)
            if sv[-1] < FREENESS_TOL:
                rejected.append((want, f"action not free: sv {sv[-1]:.2e}"))
                continue
            # dF: the real moment-map differentials, 2n x dim(K), real
            DF = np.column_stack([frames.one_form_at(df, z).real for df in scenario.moment.df])
            sv2 = np.linalg.svd(DF, compute_uv=False)
            if sv2[-1] < FREENESS_TOL:
                rejected.append((want, f"level not regular: sv {sv2[-1]:.2e}"))
                continue
            lab = scenario.stratum_label(z)
            if want is not None and lab != want:
                rejected.append((want, f"stratum mismatch: got {lab}"))
                continue
            accepted = (z, lab, Q, DF)
            break
        if accepted is None:
            raise ValidationError(
                f"sampling failed for stratum {want!r}: rejection rate too high")
        points.append(accepted[0])
        labels.append(accepted[1])
        Qs.append(accepted[2])
        DFs.append(accepted[3])
    if len(rejected) > 9 * count:
        raise ValidationError("rejection rate above 90%")
    return SampleBatch(points, labels, rejected, Qs, DFs)


def pairs_once(recipe, points) -> list:
    """The recipe's pair at each point, built once, in point order.  A
    recipe with ``pairs_at`` builds them in stacks of at most
    PAIR_STACK_ROWS points, which return a failed pair's error rather than
    raise it (its ``pair_at`` is a stack of one); the error is raised here.
    The earliest point whose pair fails decides, and no later stack is
    built, as a loop over the points one at a time would raise it first."""
    if hasattr(recipe, "pairs_at"):
        pairs = []
        for i in range(0, len(points), PAIR_STACK_ROWS):
            for pair in recipe.pairs_at(points[i:i + PAIR_STACK_ROWS]):
                if isinstance(pair, Exception):
                    raise pair
                pairs.append(pair)
        return pairs
    return [recipe.pair_at(z) for z in points]


# -- quotients ------------------------------------------------------------------

@dataclass
class QuotientRow:
    """The quotient at one sample: a row of the type table."""

    point_id: int
    stratum: str
    type_j1: int
    type_j2: int
    dim_k_cap_piL2: int
    type_j1_up: int
    type_j2_up: int
    indeterminate: bool
    diagnostics: dict
    pair_quot: KahlerPairNum
    qbasis: QuotientBasis


def quotient_at_point(label, pair, Q, DF, point_id=0, tol=RANK_TOL) -> QuotientRow:
    """The quotient of ``pair`` at a sample of the run's record: its
    stratum ``label``, its pair (``pairs_once``) and the sampler's frames
    ``Q`` and ``DF`` there, none of which is evaluated again; ``point_id``
    numbers the row in its table.  The row's ranks (the four types and
    dim(k_M cap pi L2)) are decided at threshold ``tol``; the quotient
    itself is built at the fixed RANK_TOL."""
    # moment condition J1(xi_M) = df
    lift = np.vstack([Q, np.zeros_like(Q)])
    expect = np.vstack([np.zeros_like(DF), DF])
    r_moment = float(np.linalg.norm(pair.J1.J @ lift - expect)
                     / max(1.0, np.linalg.norm(DF)))
    pair_q, qb = reduce_pair(pair, Q)
    t1u, g1u = pair.J1.type_with_gap(tol)
    t2u, g2u = pair.J2.type_with_gap(tol)
    kM = ComplexSubspace(qb.Q.astype(complex))
    dim_int, gap_int = subspace_intersection_dim(kM, pair.J2.tangent_projection(tol), tol)
    t1q, g1q = pair_q.J1.type_with_gap(tol)
    t2q, g2q = pair_q.J2.type_with_gap(tol)
    return QuotientRow(
        point_id=point_id,
        stratum=label,
        type_j1=t1q, type_j2=t2q,
        dim_k_cap_piL2=dim_int,
        type_j1_up=t1u, type_j2_up=t2u,
        indeterminate=not (gap_int and g1u and g2u and g1q and g2q),
        diagnostics={"moment_condition": r_moment, "p_isotropy": qb.isotropy},
        pair_quot=pair_q, qbasis=qb)


def type_table(batch: SampleBatch, pairs, tol=RANK_TOL) -> list:
    """The run's type table from its record, the sampler's ``batch`` and
    the ``pairs`` built at its points (``pairs_once``): the quotient at
    each sample (``quotient_at_point``), one row per point in point-id
    order, with its ranks decided at threshold ``tol``."""
    return [quotient_at_point(lab, pair, Q, DF, point_id=i, tol=tol)
            for i, (lab, pair, Q, DF) in enumerate(zip(batch.labels, pairs, batch.Q, batch.DF,
                                                       strict=True))]


def verify_type_formula(scenario: Scenario, rows):
    """Check type(J~2) = type(J2) - dim(G)/2 - dim(K)/2 + 2 dim(k_M cap pi L2)
    row by row; both sides were computed independently.  Here K = G, so
    dim(G) = dim(K) = action.k."""
    dim_g = dim_k = scenario.action.k
    results = []
    for r in rows:
        rhs2 = r.type_j2_up - (dim_g + dim_k) // 2 + 2 * r.dim_k_cap_piL2
        rhs1 = r.type_j1_up
        ok = (r.type_j2 == rhs2) and (r.type_j1 == rhs1)
        results.append({
            "point_id": r.point_id, "stratum": r.stratum,
            "type_j1": r.type_j1, "type_j1_formula": rhs1,
            "type_j2": r.type_j2, "type_j2_formula": rhs2,
            "indeterminate": r.indeterminate,
            "pass": bool(ok),
        })
    return results


# -- bi-Hermitian ------------------------------------------------------------------

def bihermitian_rows(rows) -> list:
    """The bi-Hermitian section's row of each type-table row: its sample and
    stratum, whether I+ and I- of its quotient pair are distinct, whether a
    quotient type is even, the checks of ``BiHermitianData.validate`` and
    their verdict ``valid``.  The pairs are extracted and checked as one
    stack."""
    if not rows:
        return []
    data = extract_bihermitian([r.pair_quot for r in rows])
    ok, checks = data.validate()
    distinct = data.distinct()
    return [{"sample": r.point_id, "stratum": r.stratum, "distinct": bool(distinct[i]),
             "even_type": (r.type_j1 % 2 == 0) or (r.type_j2 % 2 == 0),
             **{k: v[i].item() for k, v in checks.items()}, "valid": bool(ok[i])}
            for i, r in enumerate(rows)]


# -- moment-map verification --------------------------------------------------

def verify_moment_map(structures, action, moment: MomentMapPoly, batch,
                      tol=MEMBERSHIP_TOL):
    """At each sample and Lie-algebra basis element: membership residual of
    xi_M - i dmu^xi in the +i eigenbundle of the structure, plus the
    invariance contraction iota_{xi_M} dmu^eta (zero when condition one of
    the moment definition holds for a torus, and at central levels for U(n)).

    ``structures``: the LinearGC at each sample of ``batch``, in point
    order (the J1 the moment map pairs with).  xi_M and df^xi are columns
    of the batch's Q and dF.  The exact contractions iota_{xi_a} dmu^b are
    built once per moment map and action (``MomentMapPoly.contractions``).
    Failures are rows, not exceptions.
    """
    k = action.k
    dhs = moment.dh
    contractions = moment.contractions(action)
    rows = []
    for idx, (z, J, Q, DF) in enumerate(zip(batch.points, structures, batch.Q, batch.DF,
                                            strict=True)):
        L = J.eigenbundle()
        worst = 0.0
        for a in range(k):
            if moment.h[a].is_zero:     # dh^a = 0: nothing to evaluate
                form = -1j * DF[:, a]
            else:
                form = frames.one_form_at(dhs[a], z) - 1j * DF[:, a]
            worst = max(worst, L.residual(np.concatenate([Q[:, a], form])))
        inv = 0.0
        for val in contractions:
            inv = max(inv, abs(val.evaluate(z)))
        rows.append({"sample": idx, "membership": float(worst),
                     "invariance": float(inv),
                     "pass": bool(worst < tol and inv < tol)})
    return rows


def realify(scenario: Scenario) -> Scenario:
    """The scenario, with its name, under the exact B-transform that makes
    its moment map real (``RealifiedRecipe``, whose connection is the pair's
    constant tangent metric); the scenario itself when the imaginary part
    already vanishes."""
    if scenario.moment.is_real:
        return scenario
    recipe = RealifiedRecipe(scenario.recipe, scenario.action, scenario.moment)
    return Scenario(
        name=scenario.name, n=scenario.n, recipe=recipe,
        action=scenario.action, moment=recipe.moment_real,
        level=scenario.level, sampler=scenario.sampler, strata=scenario.strata)


# -- closure families -----------------------------------------------------------

@dataclass(frozen=True)
class ClosureFamily:
    """A family of polynomial sections with its closure checks.

    symbolic_check(bracket) -> bool runs an exact identity; structure_of,
    when given, maps the structure pair at a sample to the LinearGC whose
    eigenbundle the brackets must lie in (membership residuals).  The
    family's exact pass, ``tested``, needs no sample and is computed once
    per family object.
    """

    name: str
    sections: list
    symbolic_check: object = None
    structure_of: object = None
    max_pairs: int = 6

    @cached_property
    def tested(self) -> tuple:
        """((i, j), Courant bracket, symbolic verdict or None: no check) of
        each pair the family tests, the first ``max_pairs`` pairs i < j."""
        secs = self.sections
        pairs = [(i, j) for i in range(len(secs)) for j in range(i + 1, len(secs))]
        out = []
        for i, j in pairs[:self.max_pairs]:
            br = courant_bracket(secs[i], secs[j])
            sym = None if self.symbolic_check is None else bool(self.symbolic_check(br))
            out.append(((i, j), br, sym))
        return tuple(out)


def run_closure_families(families, samples, pairs=None) -> list:
    """One row per tested pair of each family (``ClosureFamily.tested``):
    its symbolic verdict and, given ``pairs`` (the pairs at the samples, in
    point order) and a family ``structure_of``, its membership residual at
    every sample.  A row passes when its symbolic check and its membership
    residual do."""
    rows = []
    for fam in families:
        for ij, bracket, symbolic_zero in fam.tested:
            row = {"family": fam.name, "pair": ij}
            ok = True
            if symbolic_zero is not None:
                row["symbolic_zero"] = symbolic_zero
                ok = ok and symbolic_zero
            if pairs is not None and fam.structure_of is not None:
                res = 0.0
                for z, pair in zip(samples, pairs, strict=True):
                    L = fam.structure_of(pair).eigenbundle()
                    res = max(res, L.residual(frames.section_at(bracket, z)))
                row["membership_residual"] = float(res)
                ok = ok and res < MEMBERSHIP_TOL
            row["pass"] = bool(ok)
            rows.append(row)
        if not fam.tested:
            rows.append({"family": fam.name, "pair": None, "pass": False,
                         "note": "family has fewer than two sections"})
    return rows


def tangent_to_level(moment: MomentMapPoly):
    """Exact check that a vector field X is tangent to the level sets:
    iota_X kills every df^xi (and dh^xi)."""
    dfs = moment.df + tuple(dh for h, dh in zip(moment.h, moment.dh) if not h.is_zero)

    def check(X):
        for df in dfs:
            c = interior_product(X, df).comps.get((), None)
            if c is not None and not c.is_zero:
                return False
        return True
    return check


def df_contraction_is_zero(moment: MomentMapPoly):
    """Exact check that the bracket stays perpendicular to the level set:
    its vector part is tangent to the level sets."""
    tangent = tangent_to_level(moment)
    return lambda br: tangent(br.vec)


def gm_pairing_is_zero(action):
    """Exact check <bracket, xi_M> = 0 for every fundamental field."""
    fields = action.fundamental_fields()

    def check(br):
        return all(pairing_poly(br, f).is_zero for f in fields)
    return check
