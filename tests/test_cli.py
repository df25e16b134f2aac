"""CLI driver: determinism, exit codes, emission formats, scenario files."""
import dataclasses
import json
import multiprocessing.pool
import os
import re
import subprocess
import sys

import pytest

import gkw
from gkw import report
from gkw.actions import MomentMapPoly
from gkw.catalog import build_case, catalog_names
from gkw.cli import main
from gkw.linear import ValidationError
from gkw.report import (CSV_HEADER, RunConfig, emit, run, run_sweep, scenario_from_dict,
                        scenario_to_dict)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_csv_schema(capsys):
    code, out = run_cli(["reduce", "--case", "kahler-c3", "--samples", "4",
                         "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    assert lines[1].split(",")[1] == "generic"


def test_type_table_row_key_order():
    rep = run(RunConfig(command="deform", case="kahler-c3", samples=2, seed=7))
    for row in rep["sections"]["type_table"]["rows"]:
        assert list(row) == ["point_id", "stratum", "type_j1", "type_j2",
                             "dim_k_cap_piL2", "type_j1_up", "type_j2_up",
                             "indeterminate", "moment_condition", "p_isotropy"]


def test_json_roundtrip_and_determinism():
    cfg = RunConfig(command="reduce", case="cpn-2", samples=8, seed=7, fmt="json")
    rep1 = run(cfg)
    rep2 = run(cfg)
    b1 = emit(rep1, "json")
    b2 = emit(rep2, "json")
    assert b1 == b2                      # byte-identical across runs
    doc = json.loads(b1)
    assert emit(doc, "json") == b1       # round-trips through a parser
    assert doc["header"]["seed"] == 7
    assert doc["sections"]["type_table"]["pass"] is True


def test_header_echoes_the_tolerances_in_force():
    from gkw import linear, pipeline
    rep = run(RunConfig(command="verify", case="kahler-c3", samples=2))
    tols = rep["header"]["tolerances"]
    assert tols == {"rank": linear.RANK_TOL, "structure_rank": linear.RANK_TOL,
                    "validation": linear.VALIDATION_TOL,
                    "isotropy": linear.ISOTROPY_TOL,
                    "freeness": pipeline.FREENESS_TOL, "level": pipeline.LEVEL_TOL,
                    "moment_condition": pipeline.MOMENT_CONDITION_TOL,
                    "membership": pipeline.MEMBERSHIP_TOL}
    # the same objects, not copies of their values
    assert tols["structure_rank"] is linear.RANK_TOL
    assert tols["isotropy"] is linear.ISOTROPY_TOL
    assert tols["freeness"] is pipeline.FREENESS_TOL
    assert tols["level"] is pipeline.LEVEL_TOL
    assert tols["moment_condition"] is pipeline.MOMENT_CONDITION_TOL
    assert tols["membership"] is pipeline.MEMBERSHIP_TOL


def test_a_moment_map_off_by_a_factor_fails_the_type_table(monkeypatch):
    # kahler-c3 with its moment map and level doubled: the level set is the
    # same, but J1(xi_M) = df differs from d(2f) by df at every row
    case = build_case("kahler-c3")
    scen = case.scenario
    moment = MomentMapPoly(tuple(f * 2 for f in scen.moment.f),
                           tuple(h * 2 for h in scen.moment.h))
    doubled = dataclasses.replace(case, scenario=dataclasses.replace(
        scen, moment=moment, level=tuple(2 * x for x in scen.level)))
    monkeypatch.setattr(report, "build_case", lambda name: doubled)
    rep = run(RunConfig(command="deform", case="kahler-c3", samples=4, seed=7))
    table = rep["sections"]["type_table"]
    assert [r["moment_condition"] for r in table["rows"]] == pytest.approx([0.5] * 4)
    assert table["pass"] is False
    assert rep["exit_code"] == 1


def test_an_upstairs_type_off_by_one_fails_the_type_table(monkeypatch):
    # cpn-2 expecting J2 upstairs one type higher on every stratum: the
    # computed types are unchanged, so the table must report the mismatch
    case = build_case("cpn-2")
    off = dataclasses.replace(case, expected_upstairs_j2={
        k: v + 1 for k, v in case.expected_upstairs_j2.items()})
    assert run(RunConfig(command="reduce", case="cpn-2", samples=6, seed=7))["exit_code"] == 0
    monkeypatch.setattr(report, "build_case", lambda name: off)
    rep = run(RunConfig(command="reduce", case="cpn-2", samples=6, seed=7))
    table = rep["sections"]["type_table"]
    assert table["expected_match"] is False
    assert table["pass"] is False
    assert rep["exit_code"] == 1


def test_seed_changes_output():
    a = emit(run(RunConfig(command="reduce", case="kahler-c3", samples=4,
                           seed=1, fmt="json")), "json")
    b = emit(run(RunConfig(command="reduce", case="kahler-c3", samples=4,
                           seed=2, fmt="json")), "json")
    assert a != b


def test_exit_code_config_error(capsys):
    code, _ = run_cli(["reduce", "--case", "no-such-case"], capsys)
    assert code == 2
    code2, _ = run_cli(["reduce"], capsys)
    assert code2 == 2


def test_exit_code_scenario_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "bad", "ambient_complex_dim": 2,
        "action": {"kind": "torus", "weights": [[1, 1]]},
        "level": ["-1"],   # unreachable level: sampler never hits it
        "structure": {"kind": "genuine-kahler"},
    }))
    code, _ = run_cli(["verify", "--scenario", str(bad), "--samples", "4"], capsys)
    assert code == 3


def test_verify_passes_on_catalog(capsys):
    code, out = run_cli(["verify", "--case", "toric-cp2", "--samples", "6"], capsys)
    assert code == 0
    assert "overall: PASS" in out


def test_reduce_text_has_sections(capsys):
    code, out = run_cli(["reduce", "--case", "cpn-2", "--samples", "8",
                         "--seed", "7"], capsys)
    assert code == 0
    for sec in ("validation", "moment_map", "maurer_cartan", "type_table",
                "type_formula", "closure", "bihermitian"):
        assert sec in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(["reduce", "--case", "kahler-c3", "--samples", "4",
                         "--format", "json", "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["pass"] is True


def test_scenario_file_roundtrip(tmp_path, capsys):
    from gkw.catalog import build_case
    case = build_case("cpn-2")
    doc = scenario_to_dict(case.scenario)
    doc["strata"] = [{"label": "z0=0", "zero_coords": [0]}]
    # rebuild through the parser: deformation travels as exact Y/Z fields
    doc["structure"] = {
        "kind": "deformed", "t": str(case.scenario.recipe.t),
        "deformation": {
            "Y": {"1": [[1, 1, 0, 1, [2, 0, 0, 0, 0, 0]]]},
            "Z": {"2": [[1, 1, 0, 1, [0, 0, 0, 0, 0, 0]]]},
        }}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    scen = scenario_from_dict(json.loads(path.read_text()))
    assert scen.recipe.eps == case.scenario.recipe.eps
    code, out = run_cli(["deform", "--scenario", str(path), "--samples", "6",
                         "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["sections"]["maurer_cartan"]["exact_zero"] is True


def test_scenario_strata_roundtrip():
    from gkw.catalog import build_case
    scenario = build_case("cpn-2").scenario
    doc = json.loads(json.dumps(scenario_to_dict(scenario)))
    doc["structure"] = {"kind": "genuine-kahler"}
    assert doc["strata"] == [{"label": "z0=0", "zero_coords": [0]}]
    assert scenario_from_dict(doc).strata == scenario.strata


def _scenario_with_strata(tmp_path, strata):
    path = tmp_path / "strata.json"
    path.write_text(json.dumps({
        "name": "strata", "ambient_complex_dim": 3,
        "action": {"kind": "torus", "weights": [[1, 1, 1]]},
        "level": ["1"], "strata": strata,
        "structure": {"kind": "genuine-kahler"},
    }))
    return path


@pytest.mark.parametrize("strata, field", [
    ([{"label": "z0=0"}], "zero_coords"),
    ([{"label": "z9=0", "zero_coords": [9]}], "zero_coords"),
    ([{"label": "z-1=0", "zero_coords": [-1]}], "zero_coords"),
    ([{"label": "z0=0", "zero_coords": 9}], "zero_coords"),
])
def test_malformed_strata_exit_3_with_a_message(tmp_path, capsys, strata, field):
    path = _scenario_with_strata(tmp_path, strata)
    code = main(["reduce", "--scenario", str(path), "--samples", "4"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("scenario error:") and field in err


def _scenario_file(tmp_path, edit):
    doc = {
        "name": "edited", "ambient_complex_dim": 3,
        "action": {"kind": "torus", "weights": [[1, 1, 1]]},
        "level": ["1"], "strata": [{"label": "z0=0", "zero_coords": [0]}],
        "structure": {"kind": "deformed", "t": "1/2",
                      "deformation": {"Y": {"1": [[1, 1, 0, 1, [2, 0, 0, 0, 0, 0]]]},
                                      "Z": {"2": [[1, 1, 0, 1, [0, 0, 0, 0, 0, 0]]]}}},
    }
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return path


def _not_invariant(doc):
    # Y = z0 d/dz1 has circle weight 0 and Z = d/dz2 weight -1, so eps = Y^Z
    # + ... is not invariant under the diagonal circle
    doc["strata"] = []
    doc["structure"]["t"] = "1/4"
    doc["structure"]["deformation"]["Y"] = {"1": [[1, 1, 0, 1, [1, 0, 0, 0, 0, 0]]]}


@pytest.mark.parametrize("command", ["verify", "reduce"])
def test_scenario_file_deformation_is_certified_invariant(tmp_path, capsys, command):
    path = _scenario_file(tmp_path, _not_invariant)
    code, out = run_cli([command, "--scenario", str(path), "--samples", "6",
                         "--format", "json"], capsys)
    sections = json.loads(out)["sections"]
    assert sections["invariance"] == {
        "checks": [{"name": "torus-invariance(exact)", "pass": False}], "pass": False}
    assert [name for name, sec in sections.items() if not sec["pass"]] == ["invariance"]
    assert code == 1


def _not_maurer_cartan(doc):
    # Y = zbar0 d/dz1 is not holomorphic, so [eps, eps] != 0 for eps = Y^Z +
    # ...; Y has circle weight -2, so eps is not invariant either
    doc["structure"]["t"] = "1/4"
    doc["structure"]["deformation"]["Y"] = {"1": [[1, 1, 0, 1, [0, 0, 0, 1, 0, 0]]]}


def test_scenario_file_off_maurer_cartan_fails_its_section(tmp_path, capsys):
    path = _scenario_file(tmp_path, _not_maurer_cartan)
    code, out = run_cli(["reduce", "--scenario", str(path), "--samples", "6",
                         "--format", "json"], capsys)
    sections = json.loads(out)["sections"]
    assert sections["maurer_cartan"] == {"applicable": True, "exact_zero": False,
                                         "pass": False}
    assert sections["invariance"]["pass"] is False
    assert code == 1


def test_readme_scenario_file_passes_its_invariance_check(tmp_path, capsys):
    # the unedited file is the README's example up to its name
    path = _scenario_file(tmp_path, lambda doc: None)
    code, out = run_cli(["reduce", "--scenario", str(path), "--samples", "6",
                         "--format", "json"], capsys)
    assert json.loads(out)["sections"]["invariance"] == {
        "checks": [{"name": "torus-invariance(exact)", "pass": True}], "pass": True}
    assert code == 0


@pytest.mark.parametrize("edit, field", [
    (lambda d: d.pop("structure"), "'structure'"),
    (lambda d: d.update(ambient_complex_dim="3"), "'ambient_complex_dim'"),
    (lambda d: d.update(level=[None]), "'level'"),
    (lambda d: d["structure"].pop("t"), "'t'"),
    (lambda d: d["structure"].update(t="1/0"), "'t'"),
    (lambda d: d["action"].update(weights=[]), "'weights'"),
    (lambda d: d["structure"]["deformation"]["Y"].update({"9": []}), "frame index '9'"),
    (lambda d: d["structure"]["deformation"]["Z"]["2"][0].__setitem__(1, 0),
     "zero denominator"),
    (lambda d: d["structure"]["deformation"]["Z"]["2"][0].__setitem__(4, [0]),
     "exponents"),
], ids=["no-structure", "dim-a-string", "level-null",
        "no-t", "t-divides-by-zero", "no-weight-rows", "frame-index-out-of-range",
        "zero-denominator", "short-exponents"])
def test_malformed_scenario_fields_exit_3_with_a_message(tmp_path, capsys, edit, field):
    path = _scenario_file(tmp_path, edit)
    code = main(["reduce", "--scenario", str(path), "--samples", "4"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("scenario error:") and field in err


def _subprocess_env():
    """The environment with the imported gkw package importable, whether or
    not it is installed."""
    src = os.path.dirname(os.path.dirname(gkw.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "gkw.cli", "catalog",
                           "--format", "json"],
                          capture_output=True, text=True, timeout=600,
                          env=_subprocess_env())
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert any(e["name"] == "hyperkahler-flat" for e in doc["sections"]["catalog"])


def test_tol_run_after_a_default_run_matches_a_fresh_process(capsys):
    # the flat structures are shared by every run in a process; at --tol 0.1
    # each J1 rank lies within the gap factor of the threshold, so a type
    # decision carried over from the default run would show
    args = ["reduce", "--case", "kahler-c3", "--samples", "6", "--format", "json"]
    run_cli(args, capsys)
    code, out = run_cli(args + ["--tol", "0.1"], capsys)
    fresh = subprocess.run([sys.executable, "-m", "gkw.cli", *args, "--tol", "0.1"],
                           capture_output=True, text=True, timeout=600,
                           env=_subprocess_env())
    assert (fresh.returncode, fresh.stdout) == (code, out)
    rows = json.loads(out)["sections"]["validation"]["rows"]
    assert rows and not any(r["rank_gap_ok"] for r in rows)


def test_catalog_case_does_not_depend_on_the_first_tol_in_a_process(capsys):
    # a case is built once per process; a --tol run must find the same case
    # whether or not a default run built it first
    args = ["reduce", "--case", "cpn-2", "--samples", "6", "--format", "json"]
    run_cli(args, capsys)
    code = main(args + ["--tol", "0.1"])
    after_default = capsys.readouterr()
    fresh = subprocess.run([sys.executable, "-m", "gkw.cli", *args, "--tol", "0.1"],
                           capture_output=True, text=True, timeout=600,
                           env=_subprocess_env())
    assert ((fresh.returncode, fresh.stdout, fresh.stderr)
            == (code, after_default.out, after_default.err))


def test_tol_reaches_the_reported_ranks_not_the_structure_checks(capsys):
    # cpn-2's t was fitted and its structures are validated at the fixed
    # threshold; --tol 0.1 re-decides only the ranks the report shows
    code, out = run_cli(["reduce", "--case", "cpn-2", "--samples", "6",
                         "--tol", "0.1", "--format", "json"], capsys)
    assert code != 3
    rep = json.loads(out)
    rows = rep["sections"]["validation"]["rows"]
    assert rows and all(r["pass"] for r in rows)
    assert rep["header"]["tolerances"]["rank"] == 0.1
    # the threshold that decided every validation row is echoed beside it
    assert rep["header"]["tolerances"]["structure_rank"] == 1e-9


def test_exit_code_tolerance_indeterminacy(tmp_path, capsys):
    # a deformation at the rank-threshold scale flags rows and exits 4
    doc = {
        "name": "tiny-t", "ambient_complex_dim": 3,
        "action": {"kind": "torus", "weights": [[1, 1, 1]]},
        "level": ["1"], "strata": [],
        "structure": {"kind": "deformed", "t": "1/1000000000",
                      "deformation": {"Y": {"1": [[1, 1, 0, 1, [2, 0, 0, 0, 0, 0]]]},
                                      "Z": {"2": [[1, 1, 0, 1, [0, 0, 0, 0, 0, 0]]]}}},
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["reduce", "--scenario", str(path), "--samples", "4",
                         "--format", "json"], capsys)
    assert code == 4
    rep = json.loads(out)
    rows = rep["sections"]["type_table"]["rows"]
    assert any(r["indeterminate"] for r in rows)


def test_tol_override_resolves_borderline_ranks(tmp_path, capsys):
    doc = {
        "name": "tiny-t", "ambient_complex_dim": 3,
        "action": {"kind": "torus", "weights": [[1, 1, 1]]},
        "level": ["1"], "strata": [],
        "structure": {"kind": "deformed", "t": "1/1000000000",
                      "deformation": {"Y": {"1": [[1, 1, 0, 1, [2, 0, 0, 0, 0, 0]]]},
                                      "Z": {"2": [[1, 1, 0, 1, [0, 0, 0, 0, 0, 0]]]}}},
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    code, _ = run_cli(["reduce", "--scenario", str(path), "--samples", "4",
                       "--tol", "1e-12", "--format", "json"], capsys)
    assert code == 0


# -- sweep and catalog: the cases are shared out among forked workers --------


@pytest.mark.parametrize("seed, tol", [(7, 1e-9), (8, 1e-9), (7, 1e-3)])
def test_sweep_equals_the_plain_loop_over_its_rows(monkeypatch, seed, tol):
    # at --tol 1e-3 the rows differ from case to case (exit codes 0 and 4),
    # so a row filed under the wrong case shows
    config = RunConfig("sweep", seed=seed, tol=tol)
    maps = []
    imap = multiprocessing.pool.Pool.imap
    monkeypatch.setattr(multiprocessing.pool.Pool, "imap",
                        lambda pool, *args: maps.append(pool) or imap(pool, *args))
    forked = emit(run_sweep(config), "json")
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    assert len(maps) == (usable > 1)
    rows = {name: report._sweep_row(name, config) for name in catalog_names()}
    assert json.loads(forked)["sections"]["sweep"] == rows
    # one usable CPU: the same function in a plain loop
    maps.clear()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert emit(run_sweep(config), "json") == forked
    assert not maps


def test_catalog_equals_the_plain_loop_over_its_cases():
    entries = run(RunConfig("catalog"))["sections"]["catalog"]
    assert entries == [build_case(name).describe() for name in catalog_names()]


def test_a_case_error_reaches_the_caller_as_the_plain_loop_raises_it(monkeypatch, capsys):
    # patched before the workers fork, so that they inherit it; of two
    # failing cases, the first in catalog order decides, as in a plain loop
    names = catalog_names()
    failing = (names[2], names[-1])
    plain_run = report.run

    def run_failing(config):
        if config.case in failing:
            raise ValidationError(f"injected at {config.case}")
        return plain_run(config)

    monkeypatch.setattr(report, "run", run_failing)
    with pytest.raises(ValidationError, match=f"^{re.escape(f'injected at {names[2]}')}$"):
        run_sweep(RunConfig("sweep", seed=7))
    assert main(["sweep", "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"scenario error: injected at {names[2]}\n")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_one_usable_cpu_takes_the_inline_path_with_the_same_bytes():
    # the subprocess pins itself to one CPU and forbids pools
    script = "\n".join([
        "import multiprocessing.pool, os, sys",
        f"os.sched_setaffinity(0, {{{min(os.sched_getaffinity(0))}}})",
        "def refuse(*args, **kwargs):",
        "    raise AssertionError('a worker pool on one usable CPU')",
        "multiprocessing.pool.Pool.__init__ = refuse",
        "from gkw.report import RunConfig, emit, run_sweep",
        "sys.stdout.buffer.write(emit(run_sweep(RunConfig('sweep', seed=7)), 'json'))",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          timeout=600, env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == emit(run_sweep(RunConfig("sweep", seed=7)), "json")
