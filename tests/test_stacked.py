"""Stacked checks of deformed pairs: ``DeformedKahlerRecipe.pairs_at``, the
deformation-scale fit and the run's ``pairs_once`` that use it, against
per-point ``pair_at`` and the per-point fitting loop; and the stacked
bi-Hermitian section against its pairs one by one."""
import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from gkw import catalog
from gkw.catalog import (PROBE_COUNT, PROBE_ROUNDS, PROBE_SEED, T_MIN, build_case,
                         catalog_names)
from gkw.cli import main
from gkw.linear import (IndeterminateRankError, KahlerPairNum, ValidationError,
                        deform_pair, eta, extract_bihermitian, orientation_sign)
from gkw.pipeline import (PAIR_STACK_ROWS, DeformedKahlerRecipe, _standard_pair,
                          bihermitian_rows, pairs_once, sample_level_set, type_table)
from generators import product_cp1xc_scenario

DEFORMED = ["cpn-2", "cpn-3", "cpn-4", "grassmann-1-3", "grassmann-2-3",
            "toric-cp2", "toric-blowup1", "hirzebruch-1", "hirzebruch-2"]


def _per_point(recipe, points):
    out = []
    for z in points:
        try:
            out.append(recipe.pair_at(z))
        except (ValidationError, IndeterminateRankError) as exc:
            out.append(exc)
    return out


def _assert_same_outcomes(stacked, single):
    assert len(stacked) == len(single)
    for s, p in zip(stacked, single):
        if isinstance(p, Exception):
            assert type(s) is type(p) and str(s) == str(p)
        else:
            assert isinstance(s, KahlerPairNum)
            assert np.array_equal(s.J1.J, p.J1.J)
            assert np.array_equal(s.J2.J, p.J2.J)
            for a, b in ((s.J1, p.J1), (s.J2, p.J2)):
                assert np.array_equal(a.eigenbundle().basis, b.eigenbundle().basis)


@pytest.mark.parametrize("name", DEFORMED)
def test_pairs_at_matches_pair_at(name):
    # at the fitted t every probe passes; at t = 8 some fail (the metric
    # loses positivity) and the others must still come out bit for bit
    scen = build_case(name).scenario
    points = sample_level_set(scen, 2 * PROBE_COUNT, PROBE_SEED).points
    for t in (scen.recipe.t, Fraction(8)):
        recipe = DeformedKahlerRecipe(scen.n, scen.recipe.eps, t)
        stacked = recipe.pairs_at(points)
        _assert_same_outcomes(stacked, _per_point(recipe, points))
        failed = sum(isinstance(r, Exception) for r in stacked)
        assert failed == 0 if t == scen.recipe.t else 0 < failed < len(points)


def test_deform_pair_stack_rejects_each_row_at_its_first_failed_check():
    # a generic operator (L_eps is not isotropic, so J is not
    # eta-orthogonal), one whose L_eps is real at t = 1 (not admissible) and
    # the zero operator; then a cpn-2 probe whose metric is not positive at
    # t = 8 beside the zero operator
    n = 2
    base = _standard_pair(n)
    L2 = base.J2.eigenbundle().basis
    EL2 = eta(2 * n) @ L2
    rng = np.random.default_rng(3)
    generic = 0.05 * (rng.standard_normal((4 * n, 4 * n))
                      + 1j * rng.standard_normal((4 * n, 4 * n)))
    real_leps = (L2.real - L2) @ np.linalg.pinv(EL2)
    scen = build_case("cpn-2").scenario
    big = DeformedKahlerRecipe(scen.n, scen.recipe.eps, Fraction(8))
    points = sample_level_set(scen, PROBE_COUNT, PROBE_SEED).points
    stacked = big.pairs_at(points)
    bad = next(i for i, r in enumerate(stacked) if isinstance(r, ValidationError))
    base3 = _standard_pair(scen.n)
    K3 = big.contractions_at([points[bad]])[0]
    for pair, Ks, t in ((base, [generic, real_leps, np.zeros_like(generic)], 1.0),
                        (base3, [K3, np.zeros_like(K3)], 8.0)):
        stack = np.array(Ks)
        single = []
        for K in Ks:
            try:
                single.append(deform_pair(pair, K, t))
            except ValidationError as exc:
                single.append(exc)
        _assert_same_outcomes(deform_pair(pair, stack, t), single)
        assert any(isinstance(r, Exception) for r in single)
    rows = deform_pair(base, np.array([generic, real_leps]), 1.0)
    assert "not a generalized complex structure" in str(rows[0])
    assert "not admissible" in str(rows[1])


def test_standard_pair_is_shared_and_read_only():
    pair = _standard_pair(3)
    assert _standard_pair(3) is pair
    for J in (pair.J1, pair.J2):
        assert not J.J.flags.writeable
        assert not J.eigenbundle().basis.flags.writeable


# -- the stacked bi-Hermitian section ----------------------------------------------

BIHERMITIAN_FIELDS = ("g", "Jplus", "Jminus")


@pytest.mark.parametrize("seed", [7, 8])
@pytest.mark.parametrize("name", catalog_names() + ["product-cp1xc"])
def test_stacked_bihermitian_equals_its_pairs_one_by_one(name, seed):
    # product-cp1xc fails same_orientation on every row, so both outcomes
    # of that check are compared
    scenario = (product_cp1xc_scenario() if name == "product-cp1xc"
                else build_case(name).scenario)
    rows = type_table(scenario, count=12, seed=seed).rows
    pairs = [r.pair_quot for r in rows]
    stacked = extract_bihermitian(pairs)
    ok, checks = stacked.validate()
    distinct = stacked.distinct()
    signs = {f: orientation_sign(getattr(stacked, f)) for f in ("Jplus", "Jminus")}
    assert all(len(a) == len(pairs) for a in (ok, distinct, *checks.values(), *signs.values()))
    for i, (pair, qb) in enumerate(zip(pairs, bihermitian_rows(rows))):
        single = extract_bihermitian(pair)
        for f in BIHERMITIAN_FIELDS:
            assert np.array_equal(getattr(stacked, f)[i], getattr(single, f))
            assert np.array_equal(getattr(qb.data, f), getattr(single, f))
        one_ok, one_checks = single.validate()
        assert {k: v[i].item() for k, v in checks.items()} == one_checks
        assert qb.checks == {**one_checks, "valid": one_ok} and bool(ok[i]) is one_ok
        assert bool(distinct[i]) is single.distinct() is qb.distinct
        for f in ("Jplus", "Jminus"):
            assert signs[f][i] == orientation_sign(getattr(single, f))
    if name == "product-cp1xc":
        assert not ok.any()


def test_a_single_pair_is_a_stack_of_one():
    pair = build_case("cpn-2").scenario.recipe.pair_at(np.array([1, 0.5j, 0.25]))
    single, stacked = extract_bihermitian(pair), extract_bihermitian([pair])
    for f in BIHERMITIAN_FIELDS:
        assert getattr(single, f).shape == getattr(stacked, f).shape[1:]
        assert np.array_equal(getattr(single, f), getattr(stacked, f)[0])
    ok, checks = single.validate()
    assert type(ok) is bool and type(single.distinct()) is bool
    assert all(type(v) is (bool if k == "same_orientation" else float)
               for k, v in checks.items())
    assert type(orientation_sign(single.Jplus)) is int
    assert bihermitian_rows([]) == []


# -- the stacked run -------------------------------------------------------------

def _stack_sizes(monkeypatch):
    sizes = []
    real = DeformedKahlerRecipe.pairs_at

    def pairs_at(self, points):
        sizes.append(len(points))
        return real(self, points)
    monkeypatch.setattr(DeformedKahlerRecipe, "pairs_at", pairs_at)
    return sizes


@pytest.mark.parametrize("count", [17, 33])
@pytest.mark.parametrize("name", DEFORMED)
def test_pairs_once_matches_pair_at_across_stacks(monkeypatch, name, count):
    scen = build_case(name).scenario
    points = sample_level_set(scen, count, 7).points
    sizes = _stack_sizes(monkeypatch)
    pair_at = pairs_once(scen.recipe, points)
    assert sizes == [PAIR_STACK_ROWS] * (count // PAIR_STACK_ROWS) + [count % PAIR_STACK_ROWS]
    _assert_same_outcomes([pair_at(z) for z in points], _per_point(scen.recipe, points))


def test_pairs_once_raises_the_earliest_failing_points_error(monkeypatch, capsys):
    # the earliest failing point decides, whatever its error: it is raised
    # from its stack, later stacks are not built, and gkw reduce exits 3
    scen = build_case("cpn-2").scenario
    points = sample_level_set(scen, 2 * PAIR_STACK_ROWS, 7).points
    early, late = points[3].tobytes(), points[PAIR_STACK_ROWS + 2].tobytes()
    forced = {}
    sizes = _stack_sizes(monkeypatch)
    real = DeformedKahlerRecipe.pairs_at

    def pairs_at(self, pts):
        return [forced.get(z.tobytes(), r) for z, r in zip(pts, real(self, pts))]
    monkeypatch.setattr(DeformedKahlerRecipe, "pairs_at", pairs_at)
    for first, second in ((ValidationError, IndeterminateRankError),
                          (IndeterminateRankError, ValidationError)):
        forced.update({early: first("first failure"), late: second("second failure")})
        sizes.clear()
        with pytest.raises(first, match="^first failure$"):
            pairs_once(scen.recipe, points)
        assert sizes == [PAIR_STACK_ROWS]
        assert main(["reduce", "--case", "cpn-2", "--samples", str(2 * PAIR_STACK_ROWS)]) == 3
        assert capsys.readouterr().err == "scenario error: first failure\n"
    del forced[early]
    sizes.clear()
    with pytest.raises(ValidationError, match="^second failure$"):
        pairs_once(scen.recipe, points)
    assert sizes == [PAIR_STACK_ROWS] * 2


# -- the deformation-scale fit -------------------------------------------------

def _loop_fit(make_scenario, t0=Fraction(1)):
    """The per-point fitting loop: pair_at at each probe, in point order."""
    rounds = {}

    def valid_at_probes(t):
        scen = make_scenario(t)
        try:
            for round_ in range(PROBE_ROUNDS):
                if round_ not in rounds:
                    rounds[round_] = catalog.sample_level_set(
                        scen, PROBE_COUNT, PROBE_SEED + round_).points
                for z in rounds[round_]:
                    scen.recipe.pair_at(z)
        except ValidationError:
            return False
        return True

    t = Fraction(t0)
    while t >= T_MIN:
        if valid_at_probes(t):
            t = t / 2
            if valid_at_probes(t):
                return t
        t = t / 2
    raise ValidationError("no admissible deformation scale found")


class _ForcedFailures:
    """A deformed recipe whose pairs fail at chosen probe points while t is
    above ``t_ok``: ``failures`` maps (round, point) to an exception class."""

    def __init__(self, recipe, probes, failures, t_ok):
        self.inner = recipe
        self.t = recipe.t
        self.forced = {} if recipe.t <= t_ok else {
            probes[r][p].tobytes(): exc(f"forced failure at round {r} point {p}")
            for (r, p), exc in failures.items()}

    def pair_at(self, z):
        if z.tobytes() in self.forced:
            raise self.forced[z.tobytes()]
        return self.inner.pair_at(z)

    def pairs_at(self, points):
        results = self.inner.pairs_at(points)
        return [self.forced.get(z.tobytes(), r) for z, r in zip(points, results)]


def _forced_scenarios(failures, t_ok):
    scen = build_case("cpn-2").scenario
    probes = [sample_level_set(scen, PROBE_COUNT, PROBE_SEED + r).points
              for r in range(PROBE_ROUNDS)]

    def make(t):
        recipe = DeformedKahlerRecipe(scen.n, scen.recipe.eps, t)
        return dataclasses.replace(
            scen, recipe=_ForcedFailures(recipe, probes, failures, t_ok))
    return make


def _sampled_rounds(monkeypatch, fit, make):
    seeds = []
    real = catalog.sample_level_set

    def counting(scen, count, seed):
        seeds.append(seed - PROBE_SEED)
        return real(scen, count, seed)
    monkeypatch.setattr(catalog, "sample_level_set", counting)
    t = fit(make)
    monkeypatch.setattr(catalog, "sample_level_set", real)
    return t, seeds


@pytest.mark.parametrize("failures, t_ok, expected", [
    ({(0, 0): ValidationError}, Fraction(1, 8), Fraction(1, 16)),
    ({(1, 7): ValidationError}, Fraction(1, 2), Fraction(1, 4)),
    ({(3, 15): ValidationError}, Fraction(1, 32), Fraction(1, 64)),
    # the earliest failing point decides: a ValidationError before an
    # IndeterminateRankError rejects t without raising
    ({(2, 3): ValidationError, (2, 9): IndeterminateRankError},
     Fraction(1, 4), Fraction(1, 8)),
])
def test_stacked_fit_decides_as_the_loop(monkeypatch, failures, t_ok, expected):
    make = _forced_scenarios(failures, t_ok)
    t_loop, rounds_loop = _sampled_rounds(monkeypatch, _loop_fit, make)
    t_stack, rounds_stack = _sampled_rounds(
        monkeypatch, catalog._fit_deformation_scale, make)
    assert t_stack == t_loop == expected
    assert rounds_stack == rounds_loop


@pytest.mark.parametrize("failures", [
    {(1, 3): IndeterminateRankError},
    {(0, 4): IndeterminateRankError, (0, 5): ValidationError},
])
def test_indeterminate_rank_propagates_out_of_the_fit(failures):
    make = _forced_scenarios(failures, Fraction(0))
    for fit in (_loop_fit, catalog._fit_deformation_scale):
        with pytest.raises(IndeterminateRankError, match="forced failure"):
            fit(make)
