"""The exact results a run keeps per catalog case (``report._exact``): the
Maurer-Cartan residual, the invariance certificates and the closure
families, each of which keeps its exact pass (``ClosureFamily.tested``:
the brackets with their symbolic checks).  They are kept per CatalogCase
object, as values that no report hands out, and give the reports and
closure rows that computing them afresh gives, cold or warm, in a plain
loop or in the sweep's forked workers.  The sweep's caller keeps them for
the rows it runs itself, and computes none for a row a worker runs."""
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
    return [(f.name, [(ij, symbolic_zero) for ij, _, symbolic_zero in f.tested],
             f.structure_of is None) for f in result]


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
    pairs = pairs_once(case.scenario.recipe, batch.points)
    want = run_closure_families(closure_families(case), batch.points[:6], pairs[:6])
    for _ in ("cold", "warm"):
        got = report._closure_section(report._exact("closure", case, case.scenario),
                                      batch, pairs)
        assert got["rows"] == want
    config = RunConfig("reduce", case=name, samples=12, seed=seed)
    kept = run(config)
    assert kept["sections"]["closure"]["rows"] == want
    _afresh(monkeypatch)
    assert emit(run(config), "json") == emit(kept, "json")


def test_sweep_equals_the_plain_loop_with_the_results_cold_and_warm(monkeypatch):
    # the caller computes exact results only for the rows it runs itself:
    # no serial pass over the cases runs before the workers fork
    config = RunConfig("sweep", seed=8)
    with monkeypatch.context() as m:
        _afresh(m)
        plain = {name: report._sweep_row(name, config) for name in catalog_names()}
    catalog.build_case.cache_clear()    # new case objects: nothing kept
    ran, in_caller = [], []
    exact, plain_run = report._exact, report.run

    def exact_in_caller(part, case, scenario):
        in_caller.append(case.name)
        return exact(part, case, scenario)

    def run_in_caller(config):
        ran.append(config.case)
        return plain_run(config)

    monkeypatch.setattr(report, "_exact", exact_in_caller)
    monkeypatch.setattr(report, "run", run_in_caller)
    first = run_sweep(config)
    assert in_caller and set(in_caller) == set(ran)
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if usable == 1:
        assert ran == catalog_names()   # the plain loop runs in the caller
    second = run_sweep(config)
    assert set(in_caller) == set(ran)
    assert all("_exact" in build_case(name).__dict__ for name in ran)
    warm = run_sweep(config)
    for sweep in (first, second, warm):
        assert sweep["sections"]["sweep"] == plain
        assert emit(sweep, "json") == emit(first, "json")
