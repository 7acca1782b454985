"""Spans around the calls into each loopshift layer, recorded from outside.

Installing a Tracer rebinds every public function of the layer modules (and
the three oracle ``centered_grad`` methods) to a wrapper, wherever loopshift
holds a reference to it, so calls between layers are seen too.  Each call
records a span (name, start, end, parent, thread) in per-thread arrays; the
hottest function is counted only.  ``uninstall`` restores the originals, so
untraced passes run the unmodified code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("polynomials", "lti", "methods", "sectors", "certify", "simulate", "bode", "cli")

# Too hot for a span: a count is all that is recorded.
COUNT_ONLY = {"polynomials.poly_eval"}

# Only the entry point of the CLI layer is wrapped, so its self time is
# parsing, validation, payloads and artifact writes.
CLI_PUBLIC = {"main"}

ORACLE_METHODS = (
    ("QuadraticOracle", "sectors.quadratic"),
    ("PiecewiseLinearOracle", "sectors.pwl"),
    ("SeparableOracle", "sectors.separable"),
)

_THREAD_SHIFT = 40


class _Recorder:
    """Spans of one thread, in compact arrays; ids are (thread, index)."""

    def __init__(self, index: int):
        self.index = index
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._recorders: list[_Recorder] = []
        self._lock = threading.Lock()
        self._main = self._recorder()
        self._patches: list[tuple[object, str, object]] = []

    def _recorder(self) -> _Recorder:
        rec = getattr(self._local, "rec", None)
        if rec is None:
            with self._lock:
                rec = _Recorder(len(self._recorders))
                self._recorders.append(rec)
            self._local.rec = rec
        return rec

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self._recorder().counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        nid = self._name_id(name)
        observe = _OBSERVERS.get(name)
        main = self._main

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            rec = self._recorder()
            if rec.stack:
                parent = rec.stack[-1]
            elif rec is not main and main.stack:
                # A pool thread's top-level span belongs to the call that
                # submitted it, which is still open on the main thread.
                parent = main.stack[-1]
            else:
                parent = -1
            idx = len(rec.name)
            rec.name.append(nid)
            rec.parent.append(parent)
            rec.end.append(0)
            rec.stack.append((rec.index << _THREAD_SHIFT) | idx)
            rec.start.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec.end[idx] = time.perf_counter_ns()
                rec.stack.pop()
                if observe is not None:
                    observe(rec.counts, args, kwargs, None, exc)
                raise
            rec.end[idx] = time.perf_counter_ns()
            rec.stack.pop()
            if observe is not None:
                observe(rec.counts, args, kwargs, result, None)
            return result

        return spanned

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"loopshift.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if name.startswith("_") or (layer == "cli" and name not in CLI_PUBLIC):
                    continue
                wrappers[obj] = self._wrap(obj, f"{layer}.{name}")
        holders = [m for n, m in sys.modules.items() if n == "loopshift" or n.startswith("loopshift.")]
        for mod in holders:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        for cls_name, span_name in ORACLE_METHODS:
            cls = getattr(modules["sectors"], cls_name)
            orig = cls.__dict__["centered_grad"]
            self._patches.append((cls, "centered_grad", orig))
            setattr(cls, "centered_grad", self._wrap(orig, span_name))

    def uninstall(self) -> None:
        for holder, name, obj in reversed(self._patches):
            setattr(holder, name, obj)
        self._patches.clear()

    def export(self) -> dict:
        """Spans as [name, start_ns, end_ns, parent_id, thread] plus counts."""
        spans = []
        for rec in self._recorders:
            for i in range(len(rec.name)):
                spans.append([rec.name[i], rec.start[i], rec.end[i], rec.parent[i], rec.index])
        counts = Counter()
        for rec in self._recorders:
            counts.update(rec.counts)
        return {"names": list(self.names), "spans": spans, "counts": dict(counts)}


def _observe_bisect(counts, args, kwargs, result, exc):
    counts["bisect.calls"] += 1
    if exc is None:
        counts["certify.certificates"] += result.iterations
        counts["bisect.certificates"] += result.iterations
        counts["bisect.solved"] += 1
    elif type(exc).__name__ == "NoCertificateError":
        # The search gave up after the single test just below rho = 1.
        counts["certify.certificates"] += 1
        counts["bisect.certificates"] += 1
        counts["certify.no_certificate"] += 1


def _observe_certify(counts, args, kwargs, result, exc):
    counts["certify.certificates"] += 1


def _observe_simulate(counts, args, kwargs, result, exc):
    iters = kwargs["iters"] if "iters" in kwargs else args[3]
    counts["simulate.steps"] += int(iters)


_OBSERVERS = {
    "certify.bisect_rate": _observe_bisect,
    "certify.certify_rate": _observe_certify,
    "simulate.simulate_run": _observe_simulate,
}


def span_stats(export: dict) -> tuple[dict, dict]:
    """Per span name: calls, self_ns and total_ns.  Self time is a span's
    duration minus the union of its children's intervals (children may
    overlap when they run on pool threads).  Also returns, per name, the
    summed duration of direct children, for overlap ratios."""
    names = export["names"]
    spans = export["spans"]
    ids = {}
    per_thread = Counter()
    for s in spans:
        ids[(s[4] << _THREAD_SHIFT) | per_thread[s[4]]] = s
        per_thread[s[4]] += 1
    children = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    stats = defaultdict(lambda: {"calls": 0, "self_ns": 0, "total_ns": 0})
    child_ns = Counter()
    for sid, s in ids.items():
        start, end = s[1], s[2]
        covered = 0
        kids = children.get(sid)
        if kids:
            kids.sort()
            cur_lo = cur_hi = None
            for lo, hi in kids:
                child_ns[names[s[0]]] += hi - lo
                lo, hi = max(lo, start), min(hi, end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
        st = stats[names[s[0]]]
        st["calls"] += 1
        st["total_ns"] += end - start
        st["self_ns"] += end - start - covered
    return dict(stats), dict(child_ns)


def write_spans(path, exports: list[tuple[str, dict]]) -> None:
    """One JSON line per span: pass tag, name, start_ns, end_ns, parent, thread."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for tag, export in exports:
            names = export["names"]
            for s in export["spans"]:
                fh.write(json.dumps([tag, names[s[0]], s[1], s[2], s[3], s[4]]) + "\n")


# Per-layer metrics of one traced pass (averaged over the traced passes), in
# BENCHMARK.json order, with their units.
LAYER_METRICS = {
    "polynomials.poly_roots.calls": "count",
    "polynomials.poly_roots.self_s": "s",
    "polynomials.self_s": "s",
    "polynomials.poly_eval.calls": "count",
    "lti.hinf_peak.calls": "count",
    "lti.hinf_peak.self_s": "s",
    "lti.stability_radius.calls": "count",
    "lti.stability_radius.self_s": "s",
    "lti.stability_radius.calls_per_cert": "ratio",
    "lti.tf_reduce.calls": "count",
    "lti.tf_reduce.self_s": "s",
    "lti.tf_arg_scale.self_s": "s",
    "lti.realize.calls": "count",
    "methods.build_controller.calls": "count",
    "methods.self_s": "s",
    "sectors.centered_grad.calls": "count",
    "sectors.quadratic.self_s": "s",
    "sectors.pwl.self_s": "s",
    "sectors.separable.self_s": "s",
    "certify.certificates": "count",
    "certify.certs_per_rate": "ratio",
    "certify.certified_ratio": "ratio",
    "certify.no_certificate": "count",
    "certify.loop_shift.self_s": "s",
    "certify.certify_rate.self_s": "s",
    "certify.bisect_rate.self_s": "s",
    "certify.search_stepsize.self_s": "s",
    "certify.search_two_param.self_s": "s",
    "certify.certified_rate_curve.self_s": "s",
    "certify.certified_rate_curve.overlap": "ratio",
    "simulate.simulate_run.calls": "count",
    "simulate.simulate_run.self_s": "s",
    "simulate.steps": "count",
    "simulate.estimate_rate.self_s": "s",
    "simulate.noise_robustness_experiment.self_s": "s",
    "bode.bode_table.self_s": "s",
    "bode.bode_svg_text.self_s": "s",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


class PassTotals:
    """Span statistics and counts summed over traced passes."""

    def __init__(self):
        self.passes = 0
        self.stats = defaultdict(Counter)
        self.child_ns = Counter()
        self.counts = Counter()

    def add_pass(self, exports: list[dict]) -> None:
        self.passes += 1
        for export in exports:
            stats, child_ns = span_stats(export)
            for name, st in stats.items():
                self.stats[name].update(st)
            self.child_ns.update(child_ns)
            self.counts.update(export["counts"])

    def metrics(self, extras: dict) -> dict:
        """``extras`` carries what spans cannot give: cli.interpreter_s,
        cli.import_s, cli.artifact_bytes (per pass) and trace.overhead_frac."""
        n = max(self.passes, 1)

        def calls(name):
            return self.stats[name]["calls"] / n

        def self_s(*names):
            return sum(self.stats[x]["self_ns"] for x in names) / 1e9 / n

        def layer_self(layer):
            return self_s(*[x for x in self.stats if x.startswith(layer + ".")])

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts
        certs = c["certify.certificates"] / n
        curve = "certify.certified_rate_curve"
        values = {
            "polynomials.poly_roots.calls": calls("polynomials.poly_roots"),
            "polynomials.poly_roots.self_s": self_s("polynomials.poly_roots"),
            "polynomials.self_s": layer_self("polynomials"),
            "polynomials.poly_eval.calls": c["polynomials.poly_eval"] / n,
            "lti.hinf_peak.calls": calls("lti.hinf_peak"),
            "lti.hinf_peak.self_s": self_s("lti.hinf_peak"),
            "lti.stability_radius.calls": calls("lti.stability_radius"),
            "lti.stability_radius.self_s": self_s("lti.stability_radius"),
            "lti.stability_radius.calls_per_cert": ratio(calls("lti.stability_radius"), certs),
            "lti.tf_reduce.calls": calls("lti.tf_reduce"),
            "lti.tf_reduce.self_s": self_s("lti.tf_reduce"),
            "lti.tf_arg_scale.self_s": self_s("lti.tf_arg_scale"),
            "lti.realize.calls": calls("lti.realize"),
            "methods.build_controller.calls": calls("methods.build_controller"),
            "methods.self_s": layer_self("methods"),
            "sectors.centered_grad.calls": sum(
                calls(x) for x in ("sectors.quadratic", "sectors.pwl", "sectors.separable")),
            "sectors.quadratic.self_s": self_s("sectors.quadratic"),
            "sectors.pwl.self_s": self_s("sectors.pwl"),
            "sectors.separable.self_s": self_s("sectors.separable"),
            "certify.certificates": certs,
            "certify.certs_per_rate": ratio(c["bisect.certificates"], c["bisect.calls"]),
            "certify.certified_ratio": ratio(c["bisect.solved"], c["bisect.calls"]),
            "certify.no_certificate": c["certify.no_certificate"] / n,
            "certify.loop_shift.self_s": self_s("certify.loop_shift"),
            "certify.certify_rate.self_s": self_s("certify.certify_rate"),
            "certify.bisect_rate.self_s": self_s("certify.bisect_rate"),
            "certify.search_stepsize.self_s": self_s("certify.search_stepsize"),
            "certify.search_two_param.self_s": self_s("certify.search_two_param"),
            "certify.certified_rate_curve.self_s": self_s(curve),
            # Summed child bisection time over the curve's wall time: above 1
            # only when the bisections overlap on pool threads.
            "certify.certified_rate_curve.overlap": ratio(self.child_ns[curve],
                                                          self.stats[curve]["total_ns"]),
            "simulate.simulate_run.calls": calls("simulate.simulate_run"),
            "simulate.simulate_run.self_s": self_s("simulate.simulate_run"),
            "simulate.steps": c["simulate.steps"] / n,
            "simulate.estimate_rate.self_s": self_s("simulate.estimate_rate"),
            "simulate.noise_robustness_experiment.self_s": self_s("simulate.noise_robustness_experiment"),
            "bode.bode_table.self_s": self_s("bode.bode_table"),
            "bode.bode_svg_text.self_s": self_s("bode.bode_svg_text"),
            "cli.main.self_s": self_s("cli.main"),
            **extras,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
