"""The three benchmark workloads.

Each workload is a closed loop with one caller: an operation starts only
after the previous one returned.  An operation calls public gkw functions
with inputs made from the benchmark seed and returns an ``Outcome``: the
verdict skeleton (pass flags, exit codes, types, strata, intersection
dimensions; no float residuals), the bytes that must repeat for the same
inputs, and the timings of its parts.

- ``catalog-sweep``: ``report.run_sweep`` at consecutive seeds.  Small
  batches (10 points per case) over every recipe kind, so fixed per-call
  costs dominate.
- ``dense-points``: ``report.run`` with ``deform`` at 200 samples on
  ``cpn-2``, ``grassmann-2-3`` and ``kahler-c3``; the pointwise layer does
  almost all the work, and ``kahler-c3`` bypasses deformation evaluation.
- ``exact-certificates``: Maurer-Cartan residuals of the Grassmannian col0
  deformation at N = 8, 15, 24, 30, plus every catalog case's exact checks
  (MC residual, group invariance, symbolic closure brackets).  No floating
  point; bypasses the pointwise layer.
"""
from __future__ import annotations

import json
import time
from statistics import median
from dataclasses import dataclass, field

DEFAULT_SEED = 7
SWEEP_SEEDS = 4
DENSE_CASES = ("cpn-2", "grassmann-2-3", "kahler-c3")
DENSE_SAMPLES = 200
MC_SIZES = ((2, 4), (3, 5), (4, 6), (5, 6))


@dataclass
class Outcome:
    key: str
    exit_code: int
    skeleton: dict
    payload: bytes
    timings: dict = field(default_factory=dict)


def strip_floats(obj):
    """The verdict skeleton of a json tree: every float value removed."""
    if isinstance(obj, dict):
        return {k: strip_floats(v) for k, v in obj.items() if not isinstance(v, float)}
    if isinstance(obj, list):
        return [strip_floats(v) for v in obj if not isinstance(v, float)]
    return obj


def _report_outcome(key, rep, js, csv, elapsed, **timings):
    doc = json.loads(js)
    skeleton = {"exit_code": doc["exit_code"], "pass": doc["pass"],
                "sections": strip_floats(doc["sections"]),
                "csv": csv.decode()}
    return Outcome(key, rep["exit_code"], skeleton, js + csv,
                   dict(timings, op_s=elapsed))


class CatalogSweep:
    name = "catalog-sweep"
    min_ops = 1
    seed_independent = False

    def __init__(self, tiny=False):
        self.tiny = tiny

    def cases(self):
        from gkw.catalog import catalog_names
        return catalog_names()

    def prepare(self, seed):
        return [seed + i for i in range(2 if self.tiny else SWEEP_SEEDS)]

    def run(self, s) -> Outcome:
        from gkw.report import RunConfig, emit, run_sweep
        # samples=16 gives 8 points per case, the sweep's floor; the default
        # 20 gives the sweep's own 10
        config = RunConfig(command="sweep", seed=s, samples=16 if self.tiny else 20)
        t0 = time.perf_counter()
        rep = run_sweep(config)
        js, csv = emit(rep, "json"), emit(rep, "csv")
        elapsed = time.perf_counter() - t0
        return _report_outcome(f"seed={s}", rep, js, csv, elapsed)

    def verdict_s(self, outcomes):
        return median([o.timings["op_s"] for o in outcomes])

    def reported(self, outcomes):
        return {"sweep_s": (self.verdict_s(outcomes), "s")}


class DensePoints:
    name = "dense-points"
    min_ops = len(DENSE_CASES)
    seed_independent = False

    def __init__(self, tiny=False):
        self.samples = 8 if tiny else DENSE_SAMPLES

    def cases(self):
        return list(DENSE_CASES)

    def prepare(self, seed):
        return [(case, seed) for case in DENSE_CASES]

    def run(self, op) -> Outcome:
        from gkw.report import RunConfig, emit, run
        case, seed = op
        config = RunConfig(command="deform", case=case, samples=self.samples, seed=seed)
        t0 = time.perf_counter()
        rep = run(config)
        js, csv = emit(rep, "json"), emit(rep, "csv")
        elapsed = time.perf_counter() - t0
        return _report_outcome(f"{case} seed={seed}", rep, js, csv, elapsed, case=case)

    def _case_times(self, outcomes):
        return {case: median([o.timings["op_s"] for o in outcomes
                               if o.timings["case"] == case])
                for case in DENSE_CASES
                if any(o.timings["case"] == case for o in outcomes)}

    def verdict_s(self, outcomes):
        """Time for the three verdicts: the sum of each case's median."""
        return sum(self._case_times(outcomes).values())

    def reported(self, outcomes):
        times = self._case_times(outcomes)
        out = {"points_per_s": (self.samples * len(times) / sum(times.values()), "1/s")}
        for case, t in times.items():
            out[f"points_per_s.{case}"] = (self.samples / t, "1/s")
        return out


def grassmannian_col0(n, m):
    """The col0 deformation of ``build_grassmannian(n, m)``, without a t-fit."""
    from gkw.actions import UnitaryAction
    from gkw.calculus import VectorField
    from gkw.deformation import DeformationBivector
    from gkw.poly import ComplexPolynomial
    action = UnitaryAction(n, m)
    N = action.ambient_n
    col0 = {i: ComplexPolynomial.variable(N, action.flat(i, 0)) for i in range(n)}
    Y = VectorField(N, {action.flat(i, 1): p for i, p in col0.items()})
    Z = VectorField(N, {action.flat(i, 2): p for i, p in col0.items()})
    return DeformationBivector.from_vector_fields(Y, Z)


def catalog_exact_checks(case, seed):
    """Every exact check ``gkw reduce`` runs on a catalog case, with the
    symbolic bracket checks of its closure families (no sample points).
    The seed draws the rational group elements of the invariance checks."""
    from gkw.actions import TorusAction
    from gkw.catalog import (closure_families, cpn_su2_invariance, torus_invariance,
                             unitary_invariance)
    from gkw.pipeline import DeformedKahlerRecipe, run_closure_families
    scen = case.scenario
    out = {}
    recipe = scen.recipe
    if isinstance(recipe, DeformedKahlerRecipe) and not recipe.eps.is_zero:
        out["maurer_cartan_zero"] = recipe.eps.maurer_cartan_residual().is_zero
        if isinstance(scen.action, TorusAction):
            out["torus_invariance"] = torus_invariance(case)
            if case.name == "cpn-2":
                out["su2_invariance"] = cpn_su2_invariance(case, seed=seed)
        else:
            out["unitary_invariance"] = unitary_invariance(case, seed=seed)
    rows = run_closure_families(closure_families(case), [])
    out["closure"] = [{"family": r["family"], "pair": list(r["pair"] or []),
                       "symbolic_zero": r.get("symbolic_zero"), "pass": r["pass"]}
                      for r in rows]
    return out


def _all_pass(tree):
    if isinstance(tree, dict):
        return all(_all_pass(v) for k, v in tree.items() if k not in ("family", "pair"))
    if isinstance(tree, list):
        return all(_all_pass(v) for v in tree)
    return tree is not False


class ExactCertificates:
    name = "exact-certificates"
    min_ops = 1
    seed_independent = True     # exact verdicts hold for every seed

    def __init__(self, tiny=False):
        self.sizes = MC_SIZES[:2] if tiny else MC_SIZES
        self.eps = {}

    def cases(self):
        from gkw.catalog import catalog_names
        return catalog_names()

    def prepare(self, seed):
        self.eps = {n * m: grassmannian_col0(n, m) for n, m in self.sizes}
        return [seed]

    def run(self, seed) -> Outcome:
        from gkw.catalog import build_case
        timings = {}
        mc = {}
        t0 = time.perf_counter()
        for N, eps in self.eps.items():
            t = time.perf_counter()
            mc[f"N={N}"] = eps.maurer_cartan_residual().is_zero
            timings[f"mc.n{N}_s"] = time.perf_counter() - t
        t1 = time.perf_counter()
        checks = {name: catalog_exact_checks(build_case(name), seed)
                  for name in self.cases()}
        t2 = time.perf_counter()
        skeleton = {"grassmannian_maurer_cartan_zero": mc, "catalog": checks}
        exit_code = 0 if _all_pass(skeleton) else 1
        skeleton["exit_code"] = exit_code
        timings.update(mc_s=t1 - t0, exact_checks_s=t2 - t1, op_s=t2 - t0)
        payload = json.dumps(skeleton, sort_keys=True).encode()
        return Outcome("certificates", exit_code, skeleton, payload, timings)

    def verdict_s(self, outcomes):
        return median([o.timings["op_s"] for o in outcomes])

    def reported(self, outcomes):
        out = {"mc_s": (median([o.timings["mc_s"] for o in outcomes]), "s"),
               "exact_checks_s": (median([o.timings["exact_checks_s"] for o in outcomes]),
                                  "s")}
        for N in self.eps:
            out[f"deformation.mc.n{N}_s"] = (
                median([o.timings[f"mc.n{N}_s"] for o in outcomes]), "s")
        return out


WORKLOADS = {w.name: w for w in (CatalogSweep, DensePoints, ExactCertificates)}
