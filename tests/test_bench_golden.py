"""The benchmark's verdicts at its default seed equal its golden files.

A benchmark run counts every operation whose verdict skeleton differs from
``perfbench/golden`` as an error, so a change that moves a verdict fails
there; these tests catch it first.  The workloads module is imported by
path and only read.
"""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads_module():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod    # its dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("name,only", [("dense-points", None),
                                       ("exact-certificates", None),
                                       ("catalog-sweep", "seed=7")])
def test_default_seed_verdicts_match_the_golden_ones(name, only):
    wl_mod = _workloads_module()
    golden = json.loads((PERFBENCH / "golden" / f"{name}.json").read_text())
    assert golden["seed"] == wl_mod.DEFAULT_SEED
    wl = wl_mod.WORKLOADS[name]()
    outcomes = [wl.run(op) for op in wl.prepare(wl_mod.DEFAULT_SEED)
                if only is None or f"seed={op}" == only]
    assert outcomes
    for outcome in outcomes:
        assert outcome.skeleton == golden["ops"][outcome.key], outcome.key
