"""The benchmark's tracer (perfbench/tracer.py) wraps gkw functions by name.

If one of those names disappears or stops being called, a traced benchmark
run (``--trace 1``) breaks or silently reports zeros; these tests catch it.
"""
import importlib.util
from pathlib import Path

from gkw import linear, pipeline, report
from gkw.report import RunConfig

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_and_uninstalls():
    tr = _tracer_module()
    originals = (pipeline.GenuineKahlerRecipe.__dict__["pair_at"],
                 linear.LinearGC.__dict__["__post_init__"],
                 pipeline.type_table, report.run)
    tracer = tr.Tracer()
    tr.install(tracer)      # raises if a wrapped name is gone
    try:
        assert pipeline.type_table is not originals[2]
    finally:
        tracer.uninstall()
    assert (pipeline.GenuineKahlerRecipe.__dict__["pair_at"],
            linear.LinearGC.__dict__["__post_init__"],
            pipeline.type_table, report.run) == originals


def test_traced_run_reaches_the_wrapped_layers():
    tr = _tracer_module()
    tracer = tr.Tracer()
    tr.install(tracer)
    try:
        report.run(RunConfig(command="deform", case="kahler-c3", samples=3, seed=7))
    finally:
        tracer.uninstall()
    calls = tr.analyse(tracer.spans())["calls"]
    assert calls["report.run"] == 1
    assert calls["pipeline.sample_level_set"] == 1
    assert calls["pipeline.type_table"] == 1
    assert calls["pipeline.quotient_at_point"] == 3
    assert calls["pipeline.pair_at"] == 3
    assert calls["linear.reduce_pair"] == 3
    assert calls["linear.type_with_gap"] > 0


def test_traced_maurer_cartan_reaches_schouten_bracket():
    # an inlined bracket would leave deformation.schouten_bracket.self_s at 0
    from gkw.catalog import build_case
    eps = build_case("cpn-2").scenario.recipe.eps
    tr = _tracer_module()
    tracer = tr.Tracer()
    tr.install(tracer)
    try:
        eps.maurer_cartan_residual()
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    names = {s[0]: s[2] for s in spans}
    brackets = [s for s in spans if s[2] == "deformation.schouten_bracket"]
    assert len(brackets) == 1
    assert names[brackets[0][1]] == "deformation.maurer_cartan_residual"


def test_traced_build_reaches_deform_pair(monkeypatch):
    # the t-fit checks its probe rounds through linear.deform_pair; if it
    # bypassed that name, linear.deform_pair.self_s would read 0.  Named
    # cases carry a recorded t, so a parametric name is traced: it still fits
    from gkw import catalog
    from test_catalog import count_probe_calls
    catalog.build_case.cache_clear()
    calls = count_probe_calls(monkeypatch)
    tr = _tracer_module()
    tracer = tr.Tracer()
    tr.install(tracer)
    try:
        catalog.build_case("hirzebruch-3")
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    by_id = {s[0]: s for s in spans}

    def under_build(span):
        while span[1] in by_id:
            span = by_id[span[1]]
            if span[2] == "catalog.build_case":
                return True
        return False
    deform = [s for s in spans if s[2] == "linear.deform_pair" and under_build(s)]
    # one stacked call per probe round the fit checks
    assert calls["pairs_once"] and len(deform) == calls["pairs_once"]
    assert not [s for s in spans if s[2] == "pipeline.pair_at" and under_build(s)]


def test_traced_closure_reaches_courant_bracket():
    # each closure bracket is one calculus.courant_bracket span over one
    # deformation.schouten_bracket; a direct Schouten call from the closure
    # code would leave calculus.courant_bracket.calls at 0
    from gkw.catalog import build_case, closure_families
    case = build_case("cpn-2")
    samples = pipeline.sample_level_set(case.scenario, 2, 7).points
    fams = closure_families(case)
    tr = _tracer_module()
    tracer = tr.Tracer()
    tr.install(tracer)
    try:
        rows = pipeline.run_closure_families(fams, samples)
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    courant = [s for s in spans if s[2] == "calculus.courant_bracket"]
    assert len(courant) == len([r for r in rows if r["pair"] is not None]) > 0
    schouten_parents = [s[1] for s in spans if s[2] == "deformation.schouten_bracket"]
    assert all(s[0] in schouten_parents for s in courant)
