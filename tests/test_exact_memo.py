"""The exact results a run keeps per catalog case (``report._exact``): the
Maurer-Cartan residual, the invariance certificates and the closure
brackets with their symbolic checks.  They are kept per CatalogCase object,
as values that no report hands out, and give the reports and closure rows
that computing them afresh gives, cold or warm, in a plain loop or in the
sweep's forked workers.  A process keeps them in the sweep's caller from
its second sweep on."""
import dataclasses
import os

import pytest

from gkw import catalog, report
from gkw.catalog import build_case, catalog_names, closure_families
from gkw.pipeline import pairs_once, run_closure_families, sample_level_set
from gkw.report import RunConfig, emit, run, run_sweep


def _afresh(monkeypatch):
    """Make every run compute its exact results afresh, as before they were kept."""
    monkeypatch.setattr(report, "_exact",
                        lambda part, case, scenario: report._EXACT[part](case, scenario))


def _values(part, result):
    """The comparable values of one part of the exact results."""
    if part != "closure":
        return result
    return [(name, [(t.pair, t.symbolic_zero) for t in tested], of_pair is None)
            for (name, tested), of_pair in result]


def test_a_replaced_case_does_not_read_the_results_kept_for_its_original():
    # same name, another scenario: a deformed torus case and a genuine one
    case = build_case("toric-cp2")
    replaced = dataclasses.replace(case, scenario=build_case("kahler-c3").scenario)
    for c in (case, replaced):      # the original's results are kept first
        for part in report._EXACT:
            kept = report._exact(part, c, c.scenario)
            assert report._exact(part, c, c.scenario) is kept
            assert _values(part, kept) == _values(part, report._EXACT[part](c, c.scenario))
    assert report._exact("maurer_cartan", replaced, replaced.scenario) is None
    assert report._exact("maurer_cartan", case, case.scenario) is True


def _scribble(tree):
    """Overwrite every value of a report's dicts and lists in place."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            _scribble(value)
            tree[key] = "scribbled"
    elif isinstance(tree, list):
        for value in tree:
            _scribble(value)
        tree.append("scribbled")


@pytest.mark.parametrize("name", ["cpn-2", "hyperkahler-flat"])
def test_a_mutated_report_leaves_the_next_run_unchanged(name):
    config = RunConfig("reduce", case=name, samples=8, seed=7)
    first = run(config)
    before = emit(first, "json")
    _scribble(first)
    assert emit(run(config), "json") == before


@pytest.mark.parametrize("seed", [7, 8])
@pytest.mark.parametrize("name", catalog_names())
def test_kept_closure_rows_are_those_of_run_closure_families(monkeypatch, name, seed):
    case = dataclasses.replace(build_case(name))    # a copy with nothing kept yet
    batch = sample_level_set(case.scenario, 12, seed)
    pair_at = pairs_once(case.scenario.recipe, batch.points)
    want = run_closure_families(closure_families(case, pair_at), batch.points[:6])
    for _ in ("cold", "warm"):
        got = report._closure_section(report._exact("closure", case, case.scenario),
                                      batch, pair_at)
        assert got["rows"] == want
    config = RunConfig("reduce", case=name, samples=12, seed=seed)
    kept = run(config)
    assert kept["sections"]["closure"]["rows"] == want
    _afresh(monkeypatch)
    assert emit(run(config), "json") == emit(kept, "json")


def test_sweep_equals_the_plain_loop_with_the_results_cold_and_warm(monkeypatch):
    # a process's first sweep leaves the exact results to its workers; from
    # its second sweep on, the caller keeps them before the workers fork
    config = RunConfig("sweep", seed=8)
    with monkeypatch.context() as m:
        _afresh(m)
        plain = {name: report._sweep_row(name, config) for name in catalog_names()}
    catalog.build_case.cache_clear()    # new case objects: nothing kept
    monkeypatch.setattr(report, "_swept", False)
    in_caller = []
    exact = report._exact

    def exact_in_caller(part, case, scenario):
        in_caller.append(part)
        return exact(part, case, scenario)

    monkeypatch.setattr(report, "_exact", exact_in_caller)
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    first = run_sweep(config)
    assert bool(in_caller) == (usable == 1)     # the plain loop runs in the caller
    second = run_sweep(config)
    assert all("_exact" in build_case(name).__dict__ for name in catalog_names())
    warm = run_sweep(config)
    for sweep in (first, second, warm):
        assert sweep["sections"]["sweep"] == plain
        assert emit(sweep, "json") == emit(first, "json")
