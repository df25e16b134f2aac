"""Deterministic report assembly and scenario-file ingestion.

A report is a plain dict tree built in fixed key order; identical configs
produce byte-identical json.  The reproducibility header echoes the seed,
sample count, tolerances, and the convention set in force.
"""
from __future__ import annotations

import io
import json
import multiprocessing
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np
# numpy loads its random module lazily, at the first draw; loaded here, with
# the report, it is loaded once and inherited by every forked worker of a
# sweep, and a run that only imports gkw never loads it
from numpy.random import default_rng

from . import __version__
from .actions import TorusAction, standard_moment_map
from .calculus import VectorField
from .catalog import (build_case, catalog_names, closure_families,
                      cpn_su2_invariance, invariant_along)
from .deformation import DeformationBivector
from .linear import ISOTROPY_TOL, RANK_TOL, VALIDATION_TOL
from .pipeline import (FREENESS_TOL, LEVEL_TOL, MEMBERSHIP_TOL, MOMENT_CONDITION_TOL,
                       DeformedKahlerRecipe, GenuineKahlerRecipe, ScalingSampler,
                       Scenario, Stratum, bihermitian_rows, closure_brackets,
                       closure_membership, pairs_once, sample_level_set, type_table,
                       verify_moment_map, verify_type_formula)
from .poly import QI, ComplexPolynomial

CONVENTIONS = (
    "pairing <X+a,Y+b> = (a(Y)+b(X))/2; "
    "omega_std = sum dy_j^dx_j; J_std dx_j = dy_j; "
    "weight-w circle flow z -> e^{iwt} z with field X = i w (z d/dz - zbar d/dzbar); "
    "J_omega = [[0,-omega^-1],[omega,0]] (eigenbundle {X - i iota_X omega}); "
    "J_J = diag(-J, J^T) (eigenbundle T01 + T*10); "
    "deformations eps = Y^Z + iota_Y omega ^ iota_Z omega; "
    "iota_W(e1^e2) = 2<W,e1>e2 - 2<W,e2>e1")


@dataclass
class RunConfig:
    command: str
    case: str | None = None
    scenario_file: str | None = None
    samples: int = 20
    seed: int = 7
    tol: float = RANK_TOL
    fmt: str = "text"
    out: str | None = None


def _poly_to_terms(p: ComplexPolynomial):
    return [[c.re.numerator, c.re.denominator, c.im.numerator, c.im.denominator,
             list(e)] for e, c in sorted(p.terms.items())]


def _poly_from_terms(n, terms):
    acc = {}
    for rn, rd, inum, iden, exps in terms:
        acc[tuple(exps)] = QI(Fraction(rn, rd), Fraction(inum, iden))
    return ComplexPolynomial(n, acc)


_JSON_NAMES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _check_type(value, kind, what):
    """A ValueError naming ``what`` unless ``value`` has the json type
    ``kind`` (a type or a tuple of types)."""
    if not isinstance(value, kind) or isinstance(value, bool):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        raise ValueError(f"{what} must be {' or '.join(_JSON_NAMES[k] for k in kinds)}, "
                         f"got {value!r}")


def _field(obj, key, kind, where):
    """``obj[key]`` if ``obj`` is a json object whose ``key`` holds a value
    of the json type ``kind``; else a ValueError naming the field."""
    value = obj.get(key) if isinstance(obj, dict) else None
    _check_type(value, kind, f"{where} field {key!r}")
    return value


def _check_fraction(value, what):
    """A ValueError naming ``what`` unless ``value`` is a string or an
    integer that reads as a fraction."""
    _check_type(value, (str, int), what)
    try:
        Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{what} must be a fraction, got {value!r}") from None


def _check_ints(values, what, length=None):
    """A ValueError naming ``what`` unless ``values`` is a list of integers
    (of ``length`` entries, if given)."""
    if not (isinstance(values, list) and all(type(v) is int for v in values)
            and length in (None, len(values))):
        size = "" if length is None else f" of {length}"
        raise ValueError(f"{what} must be a list{size} integers, got {values!r}")


def _check_scenario_schema(doc):
    """The json types of every field of a scenario file, checked before
    anything is built from it, so that a malformed file raises a ValueError
    naming its first bad field."""
    n = _field(doc, "ambient_complex_dim", int, "scenario")
    if n < 1:
        raise ValueError(f"scenario field 'ambient_complex_dim' must be at least 1, got {n}")
    action = _field(doc, "action", dict, "scenario")
    weights = _field(action, "weights", list, "action")
    if not weights:
        raise ValueError("action field 'weights' must hold at least one row")
    for row in weights:
        _check_ints(row, "each row of action field 'weights'")
    for x in _field(doc, "level", list, "scenario"):
        _check_fraction(x, "each entry of scenario field 'level'")
    strata = doc.get("strata", [])
    _check_type(strata, list, "scenario field 'strata'")
    for s in strata:
        _field(s, "label", str, "stratum")
        _check_ints(_field(s, "zero_coords", list, "stratum"), "stratum field 'zero_coords'")
    structure = _field(doc, "structure", dict, "scenario")
    if _field(structure, "kind", str, "structure") != "deformed":
        return
    _check_fraction(structure.get("t"), "structure field 't'")
    deformation = _field(structure, "deformation", dict, "structure")
    for name in ("Y", "Z"):
        for key, terms in _field(deformation, name, dict, "deformation").items():
            what = f"deformation field {name!r} at frame index {key!r}"
            if not (str(key).isdecimal() and int(key) < 2 * n):
                raise ValueError(f"{what}: the index must be one of 0 .. {2 * n - 1}")
            _check_type(terms, list, what)
            for term in terms:
                if not (isinstance(term, list) and len(term) == 5):
                    raise ValueError(f"{what}: a term must be [re_num, re_den, im_num, "
                                     f"im_den, exponents], got {term!r}")
                _check_ints(term[:4], f"{what}: the numerators and denominators of a term")
                _check_ints(term[4], f"{what}: the exponents of a term", 2 * n)
                if 0 in term[1:4:2]:
                    raise ValueError(f"{what}: a term has a zero denominator: {term!r}")


def scenario_from_dict(doc: dict) -> Scenario:
    """Parse the json mirror of a (torus, standard-moment) scenario."""
    _check_scenario_schema(doc)
    n = doc["ambient_complex_dim"]
    act = doc["action"]
    if act.get("kind") != "torus":
        raise ValueError("scenario files support torus actions")
    action = TorusAction(tuple(tuple(r) for r in act["weights"]))
    if action.n != n:
        raise ValueError("weight matrix width != ambient dimension")
    moment = standard_moment_map(action)
    level = tuple(Fraction(x) for x in doc["level"])
    if len(level) != action.k:
        raise ValueError("level length != torus rank")
    strata = []
    for s in doc.get("strata", []):
        coords = tuple(s["zero_coords"])
        if not all(0 <= c < n for c in coords):
            raise ValueError(f"stratum {s['label']!r}: zero_coords {list(coords)} "
                             f"out of range for ambient_complex_dim {n}")
        strata.append(Stratum(s["label"], coords))
    if action.k != 1:
        raise ValueError("scenario files support rank-one levels (scaling sampler)")
    sampler = ScalingSampler(moment, [float(level[0])])
    st = doc["structure"]
    if st["kind"] == "genuine-kahler":
        recipe = GenuineKahlerRecipe(n)
    elif st["kind"] == "deformed":
        dd = st["deformation"]
        Y = VectorField(n, {int(k): _poly_from_terms(n, v) for k, v in dd["Y"].items()})
        Z = VectorField(n, {int(k): _poly_from_terms(n, v) for k, v in dd["Z"].items()})
        eps = DeformationBivector.from_vector_fields(Y, Z)
        recipe = DeformedKahlerRecipe(n, eps, Fraction(st["t"]))
    else:
        raise ValueError(f"unknown structure kind {st['kind']!r}")
    return Scenario(name=doc.get("name", "scenario"), n=n, recipe=recipe,
                    action=action, moment=moment, level=level,
                    sampler=sampler, strata=tuple(strata))


def scenario_to_dict(scenario: Scenario) -> dict:
    doc = {
        "name": scenario.name,
        "ambient_complex_dim": scenario.n,
        "action": {"kind": "torus", "weights": [list(r) for r in scenario.action.weights]},
        "level": [str(x) for x in scenario.level],
        "strata": [{"label": s.label, "zero_coords": list(s.zeros)} for s in scenario.strata],
        "structure": scenario.recipe.describe(),
    }
    recipe = scenario.recipe
    if isinstance(recipe, DeformedKahlerRecipe):
        doc["structure"] = {
            "kind": "deformed", "t": str(recipe.t),
            "deformation": {
                "hol": {f"{i},{j}": _poly_to_terms(p) for (i, j), p in recipe.eps.hol.items()},
                "form": {f"{i},{j}": _poly_to_terms(p) for (i, j), p in recipe.eps.form.items()},
            }}
    return doc


def _header(config: RunConfig, scenario=None):
    h = {
        "tool": "gkw",
        "version": __version__,
        "numpy": np.__version__,
        "command": config.command,
        "case": config.case,
        "scenario_file": config.scenario_file,
        "samples": config.samples,
        "seed": config.seed,
        "tolerances": {
            "rank": config.tol,
            "structure_rank": RANK_TOL,
            "validation": VALIDATION_TOL,
            "isotropy": ISOTROPY_TOL,
            "freeness": FREENESS_TOL,
            "level": LEVEL_TOL,
            "moment_condition": MOMENT_CONDITION_TOL,
            "membership": MEMBERSHIP_TOL,
        },
        "conventions": CONVENTIONS,
    }
    if scenario is not None:
        h["scenario"] = scenario.describe()
    return h


def _validation_section(batch, pair_at, tol=RANK_TOL):
    """The upstairs types at each sample; ``pairs_once`` already raised at
    a failed pair, so every row passes."""
    rows = []
    for i, z in enumerate(batch.points):
        pair = pair_at(z)
        t1, g1 = pair.J1.type_with_gap(tol)
        t2, g2 = pair.J2.type_with_gap(tol)
        rows.append({"sample": i, "pass": True, "types_upstairs": [t1, t2],
                     "rank_gap_ok": bool(g1 and g2)})
    return {"rows": rows, "pass": True}


def _moment_section(scenario, batch, pair_at):
    rows = verify_moment_map(lambda z: pair_at(z).J1,
                             scenario.action, scenario.moment, batch.points)
    return {"rows": rows, "pass": all(r["pass"] for r in rows)}


# -- exact results ---------------------------------------------------------------
#
# The Maurer-Cartan residual, the invariance certificates and the closure
# brackets with their symbolic checks depend on the scenario alone: not on
# the seed, the sample count or --tol.  For a catalog case each is computed
# once per CatalogCase object and kept on it as plain values, never as a
# section a report hands out; a run builds its sections afresh from them,
# and computes the closure's membership residuals, the one part that reads
# its pairs, itself.

def _maurer_cartan_zero(case, scenario):
    """Whether the Maurer-Cartan residual of a deformed scenario's eps is
    exactly zero; None where there is no deformation."""
    recipe = scenario.recipe
    if isinstance(recipe, DeformedKahlerRecipe) and not recipe.eps.is_zero:
        return recipe.eps.maurer_cartan_residual().is_zero
    return None


def _invariance_checks(case, scenario):
    """(name, pass) of each exact invariance certificate of a deformed
    scenario's eps, from a catalog case or a scenario file: L_X eps = 0
    along every fundamental field, and for cpn-2 along su(2) as well."""
    checks = []
    if isinstance(scenario.recipe, DeformedKahlerRecipe):
        group = "torus" if isinstance(scenario.action, TorusAction) else "unitary"
        eps, fields = scenario.recipe.eps, [s.vec for s in scenario.fields]
        checks.append((f"{group}-invariance(exact)", invariant_along(eps, fields)))
        if case is not None and case.name == "cpn-2":
            checks.append(("su2-invariance(exact)", cpn_su2_invariance(case)))
    return tuple(checks)


def _same_pair(pair):
    return pair


def _closure_brackets(case, scenario):
    """Per closure family of a catalog case: its exact pass
    (``closure_brackets``) and its structure as a function of the pair at a
    sample (None: no membership check).  The families are built over the
    identity lookup, so their ``structure_at`` maps a pair, not a point, to
    the structure a bracket must lie in.  A scenario file has no families."""
    if case is None:
        return ()
    families = closure_families(case, pair_at=_same_pair)
    return tuple(zip(closure_brackets(families), (f.structure_at for f in families)))


_EXACT = {"maurer_cartan": _maurer_cartan_zero, "invariance": _invariance_checks,
          "closure": _closure_brackets}


def _exact(part, case, scenario):
    """``_EXACT[part](case, scenario)``.  For a catalog case it is computed
    once per CatalogCase object and kept in the object's ``__dict__``, which
    ``dataclasses.replace`` does not copy: a case rebuilt or replaced with
    other fields computes its own."""
    if case is None:
        return _EXACT[part](case, scenario)
    memo = case.__dict__.setdefault("_exact", {})
    if part not in memo:
        memo[part] = _EXACT[part](case, scenario)
    return memo[part]


def _mc_section(zero):
    if zero is None:
        return {"applicable": False, "pass": True}
    return {"applicable": True, "exact_zero": zero, "pass": zero}


def _invariance_section(checks):
    return {"checks": [{"name": name, "pass": ok} for name, ok in checks],
            "pass": all(ok for _, ok in checks)}


TABLE_FIELDS = ("point_id", "stratum", "type_j1", "type_j2", "dim_k_cap_piL2",
                "type_j1_up", "type_j2_up", "indeterminate")


def _table_section(scenario, batch, pair_at, tol, expected=None, expected_up=None):
    table = type_table(scenario, batch=batch, pair_at=pair_at, tol=tol)
    rows = [{**{f: getattr(r, f) for f in TABLE_FIELDS}, **r.diagnostics}
            for r in table.rows]
    ok = all(r["moment_condition"] < MOMENT_CONDITION_TOL for r in rows)
    expected_ok = True
    if expected:
        for r in table.rows:
            want = expected.get(r.stratum)
            if want is not None and (r.type_j1, r.type_j2) != tuple(want):
                expected_ok = False
    if expected_up:
        for r in table.rows:
            want = expected_up.get(r.stratum)
            if want is not None and r.type_j2_up != want:
                expected_ok = False
    indeterminate = any(r["indeterminate"] for r in rows)
    return table, {"rows": rows, "expected_match": expected_ok,
                   "indeterminate_rows": indeterminate,
                   "pass": ok and expected_ok}


def _formula_section(scenario, table):
    rows = verify_type_formula(scenario, table)
    return {"rows": rows, "pass": all(r["pass"] for r in rows)}


def _closure_section(closure, batch, pair_at):
    """The closure rows from the exact pass ``closure`` (``_closure_brackets``),
    with membership residuals in this run's pairs at its first six samples."""
    structures = [None if of_pair is None else (lambda z, of_pair=of_pair: of_pair(pair_at(z)))
                  for _, of_pair in closure]
    rows = closure_membership([b for b, _ in closure], structures, batch.points[:6])
    return {"rows": rows, "pass": all(r["pass"] for r in rows)}


def _bihermitian_section(table, expect_distinct=None):
    rows = []
    ok = True
    for r, qb in zip(table.rows[:8], bihermitian_rows(table.rows[:8])):
        row = {"sample": r.point_id, "stratum": r.stratum,
               "distinct": qb.distinct, "even_type": qb.even_type}
        row.update({k: (v if isinstance(v, bool) else float(v))
                    for k, v in qb.checks.items()})
        ok = ok and qb.checks["valid"]
        rows.append(row)
    section = {"rows": rows, "pass": ok}
    if expect_distinct is not None and rows:
        gen = [r for r in rows if r["stratum"] == "generic"]
        match = all(r["distinct"] == expect_distinct for r in gen)
        section["distinct_expected"] = expect_distinct
        section["distinct_match"] = match
        section["pass"] = ok and match
    return section


def run(config: RunConfig) -> dict:
    """Execute the pipeline stages implied by the command; returns the report.
    ``config.tol`` decides the ranks the report shows: the upstairs types of
    the validation rows and every rank of the type table."""
    if config.command == "catalog":
        entries = [build_case(name).describe() for name in catalog_names()]
        return {"header": _header(config), "sections": {"catalog": entries},
                "pass": True, "exit_code": 0}

    case = None
    if config.case is not None:
        try:
            case = build_case(config.case)
        except KeyError:
            raise ConfigError(f"unknown catalog case {config.case!r}") from None
        scenario = case.scenario
    elif config.scenario_file is not None:
        with open(config.scenario_file) as fh:
            doc = json.load(fh)
        scenario = scenario_from_dict(doc)
    else:
        raise ConfigError("need --case or --scenario")

    batch = sample_level_set(scenario, config.samples, default_rng(config.seed))
    pair_at = pairs_once(scenario.recipe, batch.points)
    sections = {}
    sections["validation"] = _validation_section(batch, pair_at, config.tol)
    sections["moment_map"] = _moment_section(scenario, batch, pair_at)
    sections["maurer_cartan"] = _mc_section(_exact("maurer_cartan", case, scenario))
    sections["invariance"] = _invariance_section(_exact("invariance", case, scenario))
    indeterminate = False
    if config.command in ("deform", "reduce"):
        expected_up = case.expected_upstairs_j2 if case else None
        table, sec = _table_section(scenario, batch, pair_at, config.tol,
                                    expected=(case.expected_strata if case and config.command == "reduce" else None),
                                    expected_up=expected_up)
        sections["type_table"] = sec
        indeterminate = sec["indeterminate_rows"]
        if config.command == "reduce":
            sections["type_formula"] = _formula_section(scenario, table)
            sections["closure"] = _closure_section(_exact("closure", case, scenario),
                                                   batch, pair_at)
            sections["bihermitian"] = _bihermitian_section(
                table, expect_distinct=case.expected_distinct if case else None)
    overall = all(s.get("pass", True) for s in sections.values())
    exit_code = 0 if overall else 1
    if indeterminate:
        exit_code = 4
    return {"header": _header(config, scenario), "sections": sections,
            "pass": overall, "exit_code": exit_code}


def _claim_rows(fn, names, claimed, lock) -> dict:
    """``{index: (True, fn(name)) or (False, the exception it raised)}`` of
    every row of ``names`` that this process claims: the next index of the
    count ``claimed``, shared among the processes of ``_map_cases``, until
    the count passes the last row."""
    rows = {}
    while True:
        with lock:
            i = claimed.value
            claimed.value = i + 1
        if i >= len(names):
            return rows
        try:
            rows[i] = (True, fn(names[i]))
        except Exception as exc:
            rows[i] = (False, exc)


def _send_rows(recv, send, *claim):
    """A forked worker of ``_map_cases``: its claimed rows, sent to the caller."""
    recv.close()    # the read end is the caller's: its closing breaks a blocked send
    send.send(_claim_rows(*claim))


def _map_cases(fn, names) -> list:
    """``[fn(name) for name in names]``, run by the caller and one forked
    worker per further usable CPU (``os.sched_getaffinity``).  Each process
    claims the next row of ``names`` not yet claimed, and each worker sends
    its rows back through a pipe; the results, and the first exception in
    ``names`` order (re-raised here with its type and message), are those of
    the plain loop, which is what the claiming amounts to on one usable CPU
    or where fork is not available.  A worker that exits without its rows
    raises a RuntimeError naming them.  The workers inherit what the caller
    holds: the ``build_case`` cache and the lazily built state of every case
    the caller has run, its exact results (``_exact``) among it; and no
    worker outlives the call."""
    fork = "fork" in multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if fork else None)
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    claim = (fn, names, context.RawValue("l", 0), context.Lock())
    workers, conns = [], []
    try:
        for _ in range(min(len(names), usable) - 1 if fork else 0):
            recv, send = context.Pipe(duplex=False)
            workers.append(context.Process(target=_send_rows, args=(recv, send, *claim)))
            workers[-1].start()
            send.close()    # the worker holds the only write end: its exit is EOF
            conns.append(recv)
        rows = _claim_rows(*claim)
        for recv in conns:
            try:
                rows.update(recv.recv())
            except EOFError:    # the worker exited without its rows
                pass
    finally:
        for recv in conns:
            recv.close()
        for worker in workers:
            worker.join()
    results = [rows.get(i) for i in range(len(names))]
    lost = [name for name, row in zip(names, results) if row is None]
    if lost:
        raise RuntimeError(f"a forked worker exited without the rows of {lost}")
    errors = [value for ok, value in results if not ok]
    if errors:
        raise errors[0]
    return [value for _, value in results]


def _sweep_row(name: str, config: RunConfig) -> dict:
    """The sweep's row of one catalog case: its ``reduce`` verdicts."""
    sub = RunConfig(command="reduce", case=name, samples=max(8, config.samples // 2),
                    seed=config.seed, tol=config.tol)
    rep = run(sub)
    return {"pass": rep["pass"], "exit_code": rep["exit_code"],
            "sections": {k: v.get("pass", True) for k, v in rep["sections"].items()}}


def run_sweep(config: RunConfig) -> dict:
    """``reduce`` over the whole catalog, one row per case, shared out by
    ``_map_cases`` between the caller and its forked workers.  The caller
    keeps what its own rows build: each case's exact results (``_exact``)
    and its lazily built state, such as compiled polynomial programs.  The
    workers of a later sweep in the same process inherit it and compute
    only what they do not find, so no serial pass over the cases runs
    before a fork, and a one-shot ``gkw sweep`` pays for none."""
    names = catalog_names()
    cases = dict(zip(names, _map_cases(partial(_sweep_row, config=config), names)))
    ok = all(c["pass"] for c in cases.values())
    indeterminate = any(c["exit_code"] == 4 for c in cases.values())
    return {"header": _header(config), "sections": {"sweep": cases},
            "pass": ok, "exit_code": 4 if indeterminate else (0 if ok else 1)}


class ConfigError(ValueError):
    pass


# -- emission -------------------------------------------------------------------

CSV_HEADER = "point_id,stratum,type_j1,type_j2,dim_k_cap_piL2"


def _json_default(o):
    if isinstance(o, (np.bool_,)):
        return bool(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    raise TypeError(f"{o.__class__.__name__} is not JSON serializable")


def emit(report: dict, fmt: str) -> bytes:
    if fmt == "json":
        return (json.dumps(report, indent=2, allow_nan=False,
                           default=_json_default) + "\n").encode()
    if fmt == "csv":
        rows = report.get("sections", {}).get("type_table", {}).get("rows", [])
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        for r in rows:
            buf.write(f"{r['point_id']},{r['stratum']},{r['type_j1']},"
                      f"{r['type_j2']},{r['dim_k_cap_piL2']}\n")
        return buf.getvalue().encode()
    if fmt == "text":
        buf = io.StringIO()
        h = report["header"]
        buf.write(f"gkw {h['version']} | command={h['command']} case={h.get('case')} "
                  f"samples={h['samples']} seed={h['seed']}\n")
        buf.write(f"conventions: {h['conventions']}\n")
        for name, sec in report["sections"].items():
            if name == "catalog":
                for e in sec:
                    buf.write(f"  {e['name']}: expected strata {e['expected_strata']}\n")
                continue
            if name == "sweep":
                for cname, c in sec.items():
                    buf.write(f"  {cname}: {'PASS' if c['pass'] else 'FAIL'} {c['sections']}\n")
                continue
            status = "PASS" if sec.get("pass", True) else "FAIL"
            buf.write(f"[{status}] {name}\n")
            if name == "type_table":
                for r in sec["rows"]:
                    buf.write(f"    point {r['point_id']:>3} {r['stratum']:>10} "
                              f"types ({r['type_j1']},{r['type_j2']}) "
                              f"up ({r['type_j1_up']},{r['type_j2_up']}) "
                              f"dim_cap {r['dim_k_cap_piL2']}"
                              f"{'  INDETERMINATE' if r['indeterminate'] else ''}\n")
        buf.write(f"overall: {'PASS' if report['pass'] else 'FAIL'}\n")
        return buf.getvalue().encode()
    raise ConfigError(f"unsupported format {fmt!r}")
