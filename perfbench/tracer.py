"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of the ``gkw`` modules from the outside:
every module namespace that holds a wrapped function gets the wrapper, and
methods are replaced on their class.  Nothing under ``src/`` changes; the
originals are restored by ``uninstall``.

A span is ``(id, parent, name, start, end, label)``.  Spans opened by a
thread with an empty stack (the ``type_table`` pool threads) take the
innermost open span of the installing thread as parent, so they are
attributed to their enclosing call.  Some very frequent leaves are counted
instead of spanned (``poly.wirtinger``), which keeps memory and overhead
bounded on the large Maurer-Cartan residuals.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class _ThreadState:
    __slots__ = ("stack", "spans", "counts", "cpu")

    def __init__(self):
        self.stack = []
        self.spans = []
        self.counts = Counter()
        self.cpu = Counter()


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states = []
        self._main = self._state()
        self._patches = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            self._states.append(st)
        return st

    def _parent(self, st: _ThreadState) -> int:
        if st.stack:
            return st.stack[-1]
        main = self._main.stack
        return main[-1] if main else 0

    # -- wrappers ------------------------------------------------------------
    def spanned(self, fn, name, label=None, cpu=False, on_result=None):
        """Wrap ``fn`` so every call records a span; ``label(args)`` tags it,
        ``cpu`` adds the calling thread's CPU time to ``cpu[name]`` and
        ``on_result(result, counts)`` records counts from the result."""
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            parent = tracer._parent(st)
            sid = next(tracer._ids)
            st.stack.append(sid)
            c0 = time.thread_time() if cpu else 0.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                if cpu:
                    st.cpu[name] += time.thread_time() - c0
                st.stack.pop()
                st.spans.append((sid, parent, name, t0, t1,
                                 label(args) if label else None))
            if on_result is not None:
                on_result(result, st.counts)
            return result
        return traced

    def counted(self, fn, name, useful):
        """Wrap ``fn`` to count calls and useful outcomes, without a span."""
        tracer = self

        @functools.wraps(fn)
        def count(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts = tracer._state().counts
            counts[name + ".calls"] += 1
            if useful(result):
                counts[name + ".useful"] += 1
            return result
        return count

    @contextmanager
    def span(self, name, label=None):
        st = self._state()
        parent = self._parent(st)
        sid = next(self._ids)
        st.stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            st.stack.pop()
            st.spans.append((sid, parent, name, t0, t1, label))

    # -- installation --------------------------------------------------------
    def patch_function(self, module, attr, wrapper_of):
        """Replace ``module.attr`` in every gkw module namespace that holds it."""
        original = getattr(module, attr)
        wrapper = wrapper_of(original)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "gkw" or modname.startswith("gkw.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, key, val))
                    setattr(mod, key, wrapper)

    def patch_attr(self, owner, attr, wrapper):
        """Replace one class or module attribute."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            obj, key, val = self._patches.pop()
            setattr(obj, key, val)

    # -- results -------------------------------------------------------------
    def spans(self):
        out = []
        for st in self._states:
            out.extend(st.spans)
        out.sort(key=lambda s: s[0])
        return out

    def counts(self):
        total = Counter()
        for st in self._states:
            total.update(st.counts)
        return total

    def cpu(self):
        total = Counter()
        for st in self._states:
            total.update(st.cpu)
        return total

    def write(self, path, header):
        """Write the spans as json lines: a header, then one span per line
        with times in microseconds from the first span's start."""
        spans = self.spans()
        origin = min((s[3] for s in spans), default=0.0)
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, parent, name, t0, t1, label in spans:
                fh.write(json.dumps([sid, parent, name,
                                     round((t0 - origin) * 1e6, 1),
                                     round((t1 - origin) * 1e6, 1), label]) + "\n")


# -- the gkw layers ---------------------------------------------------------------

SAMPLER_REASONS = (
    ("sampler produced no candidate", "no_candidate"),
    ("level residual", "level_residual"),
    ("action not free", "not_free"),
    ("level not regular", "not_regular"),
    ("stratum mismatch", "stratum_mismatch"),
)


def _sampler_counts(batch, counts):
    counts["sampler.accepted"] += len(batch.points)
    for _want, reason in batch.rejected:
        key = next((k for prefix, k in SAMPLER_REASONS if reason.startswith(prefix)),
                   "other")
        counts["sampler.rejected." + key] += 1


def _run_label(args):
    config = args[0]
    return [config.case, config.samples]


def install(tracer: Tracer):
    """Wrap the public functions of every gkw layer the benchmark reports."""
    import numpy as np
    from gkw import (actions, calculus, catalog, deformation, exactlinalg, frames,
                     linear, pipeline, polytope, poly, report)

    def fn(module, attr, name, **kw):
        tracer.patch_function(module, attr, lambda f: tracer.spanned(f, name, **kw))

    def method(cls, attrs, name, **kw):
        originals = {a: cls.__dict__[a] for a in attrs}
        wrapped = {}
        for a, f in originals.items():
            if f not in wrapped:
                wrapped[f] = tracer.spanned(f, name, **kw)
            tracer.patch_attr(cls, a, wrapped[f])

    P = poly.ComplexPolynomial
    method(P, ["evaluate"], "poly.evaluate")
    method(P, ["__mul__", "__rmul__"], "poly.mul")
    tracer.patch_attr(P, "wirtinger", tracer.counted(
        P.__dict__["wirtinger"], "poly.wirtinger", lambda r: not r.is_zero))

    fn(calculus, "exterior_derivative", "calculus.exterior_derivative")
    fn(calculus, "courant_bracket", "calculus.courant_bracket")

    fn(deformation, "schouten_bracket", "deformation.schouten_bracket")
    D = deformation.DeformationBivector
    method(D, ["maurer_cartan_residual"], "deformation.maurer_cartan_residual")
    method(D, ["pullback_linear"], "deformation.pullback_linear")

    fn(exactlinalg, "qi_matrix_inverse", "exactlinalg.qi_matrix_inverse")

    fn(frames, "section_at", "frames.section_at")
    fn(frames, "one_form_at", "frames.one_form_at")

    for cls in (actions.TorusAction, actions.UnitaryAction):
        method(cls, ["fundamental_field"], "actions.fundamental_field")

    method(polytope.PolytopeSpec, ["contains"], "polytope.contains")

    fn(linear, "reduce_pair", "linear.reduce_pair")
    fn(linear, "deform_pair", "linear.deform_pair")
    fn(linear, "extract_bihermitian", "linear.extract_bihermitian")
    method(linear.LinearGC, ["type_with_gap"], "linear.type_with_gap")
    method(linear.LinearGC, ["__post_init__"], "linear.validate")
    method(linear.KahlerPairNum, ["__post_init__"], "linear.validate")

    fn(pipeline, "quotient_at_point", "pipeline.quotient_at_point", cpu=True)
    fn(pipeline, "type_table", "pipeline.type_table")
    fn(pipeline, "sample_level_set", "pipeline.sample_level_set",
       on_result=_sampler_counts)
    for cls in (pipeline.GenuineKahlerRecipe, pipeline.DeformedKahlerRecipe,
                pipeline.BShiftedRecipe, pipeline.ConstantPairRecipe,
                pipeline.RealifiedRecipe):
        method(cls, ["pair_at"], "pipeline.pair_at")

    fn(catalog, "build_case", "catalog.build_case", label=lambda a: a[0])

    fn(report, "run", "report.run", label=_run_label)
    fn(report, "run_sweep", "report.run_sweep")
    fn(report, "emit", "report.emit")

    for attr in ("svd", "norm"):
        tracer.patch_attr(np.linalg, attr,
                          tracer.spanned(getattr(np.linalg, attr), "numpy.linalg." + attr))


# -- derived metrics ---------------------------------------------------------------

def _union_length(intervals, lo, hi):
    covered = 0.0
    cur_s = cur_e = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_e is None or a > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = a, b
        else:
            cur_e = max(cur_e, b)
    if cur_e is not None:
        covered += cur_e - cur_s
    return covered


def _nearest(by_id, name):
    """A function mapping a span id to its nearest ancestor-or-self span
    called ``name`` (its id, or None)."""
    memo = {}

    def find(sid):
        chain = []
        found = None
        while sid in by_id:
            if sid in memo:
                found = memo[sid]
                break
            chain.append(sid)
            if by_id[sid][2] == name:
                found = sid
                break
            sid = by_id[sid][1]
        for c in chain:
            memo[c] = found
        return found
    return find


def analyse(spans):
    """Per-name calls, total and self time; per-case call counts under
    ``report.run`` spans; the points (samples) each case ran."""
    by_id = {s[0]: s for s in spans}
    kids = defaultdict(list)
    for sid, parent, _name, t0, t1, _label in spans:
        kids[parent].append((t0, t1))
    enclosing_run = _nearest(by_id, "report.run")
    enclosing_build = _nearest(by_id, "catalog.build_case")

    calls = Counter()
    total = Counter()
    self_s = Counter()
    case_calls = Counter()
    points = Counter()
    tfit_pair_at = 0
    type_table_sampling = 0.0
    for sid, parent, name, t0, t1, label in spans:
        dur = t1 - t0
        calls[name] += 1
        total[name] += dur
        self_s[name] += dur - _union_length(kids.get(sid, ()), t0, t1)
        if name == "report.run":
            points[label[0]] += label[1]
        run = enclosing_run(sid)
        if run is not None:
            case = by_id[run][5][0]
            case_calls[(name, case)] += 1
            case_calls[(name, None)] += 1
        if name == "pipeline.pair_at" and enclosing_build(parent) is not None:
            tfit_pair_at += 1
        if (name == "pipeline.sample_level_set" and parent in by_id
                and by_id[parent][2] == "pipeline.type_table"):
            type_table_sampling += dur
    return {"calls": calls, "total": total, "self": self_s,
            "case_calls": case_calls, "points": points,
            "tfit_pair_at": tfit_pair_at, "type_table_sampling": type_table_sampling}


PER_POINT = {
    "poly.evaluate.calls_per_point": "poly.evaluate",
    "poly.mul.calls_per_point": "poly.mul",
    "calculus.exterior_derivative.calls_per_point": "calculus.exterior_derivative",
    "frames.section_at.calls_per_point": "frames.section_at",
    "frames.one_form_at.calls_per_point": "frames.one_form_at",
    "actions.fundamental_field.calls_per_point": "actions.fundamental_field",
    "linear.validations_per_point": "linear.validate",
    "linear.svd_calls_per_point": "numpy.linalg.svd",
    "linear.norm_calls_per_point": "numpy.linalg.norm",
}

SELF_TIMES = {
    "poly.evaluate.self_s": "poly.evaluate",
    "poly.mul.self_s": "poly.mul",
    "calculus.exterior_derivative.self_s": "calculus.exterior_derivative",
    "calculus.courant_bracket.self_s": "calculus.courant_bracket",
    "deformation.schouten_bracket.self_s": "deformation.schouten_bracket",
    "deformation.pullback_linear.self_s": "deformation.pullback_linear",
    "exactlinalg.qi_matrix_inverse.self_s": "exactlinalg.qi_matrix_inverse",
    "linear.reduce_pair.self_s": "linear.reduce_pair",
    "linear.deform_pair.self_s": "linear.deform_pair",
    "linear.extract_bihermitian.self_s": "linear.extract_bihermitian",
    "linear.type_with_gap.self_s": "linear.type_with_gap",
    "pipeline.pair_at.self_s": "pipeline.pair_at",
    "pipeline.sample_level_set.self_s": "pipeline.sample_level_set",
    "polytope.contains.self_s": "polytope.contains",
    "report.emit.self_s": "report.emit",
}

CALLS = {
    "poly.mul.calls": "poly.mul",
    "calculus.courant_bracket.calls": "calculus.courant_bracket",
    "pipeline.pair_at.calls": "pipeline.pair_at",
    "polytope.contains.calls": "polytope.contains",
}

PER_POINT_CASES = ("cpn-2", "grassmann-2-3", "kahler-c3")


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics one traced pass yields (values only)."""
    a = analyse(tracer.spans())
    counts = tracer.counts()
    cpu = tracer.cpu()
    out = {}

    def per_point(name, case):
        pts = sum(a["points"].values()) if case is None else a["points"].get(case, 0)
        return a["case_calls"][(name, case)] / pts if pts else 0.0

    for metric, name in PER_POINT.items():
        out[metric] = per_point(name, None)
        for case in PER_POINT_CASES:
            out[f"{metric}.{case}"] = per_point(name, case)
    for metric, name in SELF_TIMES.items():
        out[metric] = a["self"][name]
    for metric, name in CALLS.items():
        out[metric] = a["calls"][name]

    wcalls = counts["poly.wirtinger.calls"]
    out["poly.wirtinger.calls"] = wcalls
    out["poly.wirtinger.nonzero_ratio"] = (counts["poly.wirtinger.useful"] / wcalls
                                           if wcalls else 0.0)

    busy = cpu["pipeline.quotient_at_point"]
    wall = a["total"]["pipeline.type_table"]
    out["pipeline.quotient_at_point.busy_s"] = busy
    out["pipeline.type_table.wall_s"] = wall
    out["pipeline.type_table.pool_overhead_s"] = (wall - a["type_table_sampling"] - busy
                                                  if wall else 0.0)

    accepted = counts["sampler.accepted"]
    rejected = {k: counts["sampler.rejected." + k] for _p, k in SAMPLER_REASONS}
    rejected["other"] = counts["sampler.rejected.other"]
    attempts = accepted + sum(rejected.values())
    out["pipeline.sampler.accept_ratio"] = accepted / attempts if attempts else 0.0
    for k, v in rejected.items():
        out["pipeline.sampler.rejected." + k] = v

    out["catalog.tfit.pair_at_calls"] = a["tfit_pair_at"]
    out["trace.spans"] = sum(a["calls"].values())
    return out
