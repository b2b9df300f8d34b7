"""In-memory span tracing around divopt's public functions.

The tracer replaces each traced function at the module attribute its
callers look up (``divopt.solvers.feasible_subset`` is what
``solve_maxmin_improved`` calls), so nested library calls are seen without
touching program code.  Every call records one span: id, parent span,
operation id, layer, start, end and counts read from the returned object.
Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its direct
children.  Because spans nest strictly in one thread, self times of all
spans under an operation add up to the operation's root span, recursion
included, with nothing counted twice.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Optional

ROOT = "bench.op"  # root span of one operation; its self time is glue code

# Counters read from returned objects.  Status enums are compared by value
# so the tracer does not depend on one import of the divopt modules.


def _decide(r) -> dict:
    return {"nodes": r.stats.subsets_or_nodes_explored,
            "feasible": int(r.status.value == "feasible")}


def _packing(r) -> dict:
    return {"nodes": r.stats.subsets_or_nodes_explored,
            "optimal": int(r.status.value == "optimal")}


def _probes(r) -> dict:
    return {"probes": r.stats.decision_solves}


def _original(r) -> dict:
    q = r.stats.q_used
    return {"probes": r.stats.decision_solves,
            "q_sum": q if q is not None else 0, "q_calls": int(q is not None)}


def _graph(r) -> dict:
    pairs = r.n * (r.n - 1) // 2
    return {"density_sum": r.edge_count / pairs if pairs else 0.0}


def _nodes(r) -> dict:
    return {"nodes": r.stats.subsets_or_nodes_explored}


def _optima(r) -> dict:
    return {"optima": len(r)}


def _leaves(r) -> dict:
    return {"leaves": r.optima_enumerated}


def _text(r) -> dict:
    return {"bytes": len(r)}


# (module, attribute, layer, counter).  A function reachable under several
# module names is wrapped under each, since each caller looks up its own.
TRACED: list[tuple[str, str, str, Optional[Callable]]] = [
    ("instances", "generate", "instances.generate", None),
    ("instances", "spectrum_stats", "instances.spectrum", None),
    ("solvers", "spectrum_stats", "instances.spectrum", None),
    ("solvers", "build_threshold_graph", "solvers.threshold_graph", _graph),
    ("solvers", "feasible_subset", "solvers.decide", _decide),
    ("solvers", "max_packing", "solvers.packing", _packing),
    ("solvers", "solve_maxmin_improved", "solvers.maxmin_improved", _probes),
    ("solvers", "solve_maxmin_original", "solvers.maxmin_original", _original),
    ("solvers", "enumerate_maxmin_optima", "solvers.enumerate", _optima),
    ("analysis", "enumerate_maxmin_optima", "solvers.enumerate", _optima),
    ("solvers", "solve_bilevel", "solvers.bilevel", _leaves),
    ("solvers", "solve_maxsum_bnb", "solvers.maxsum_bnb", _nodes),
    ("solvers", "brute_force", "solvers.brute", _nodes),
    ("objectives", "evaluate", "objectives.evaluate", None),
    ("solvers", "evaluate", "objectives.evaluate", None),
    ("solvers", "eval_maxmin", "objectives.evaluate", None),
    ("solvers", "eval_maxsum", "objectives.evaluate", None),
    ("analysis", "evaluate", "objectives.evaluate", None),
    ("milp", "evaluate", "objectives.evaluate", None),
    ("milp", "emit", "milp.emit", _text),
    ("milp", "verify_external", "milp.verify", None),
    ("analysis", "geometry_stats", "analysis.report", None),
    ("analysis", "histogram", "analysis.report", None),
    ("analysis", "cross_model_report", "analysis.report", None),
]


class Tracer:
    """Records spans while installed; a no-op for code it has not wrapped."""

    def __init__(self) -> None:
        # span: [id, parent, op, layer, start, end, counts or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op: Optional[str] = None

    def _open(self, layer: str) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), parent, self.op, layer, 0.0, 0.0, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def wrap(self, fn: Callable, layer: str,
             counter: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            rec = self._open(layer)
            rec[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                rec[6] = counter(result)
            return result
        return traced

    def run_op(self, op_id: str, call: Callable[[], object]) -> object:
        """Run one operation under a root span named ROOT."""
        self.op = op_id
        rec = self._open(ROOT)
        rec[4] = time.perf_counter()
        try:
            return call()
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()
            self.op = None

    def install(self, package, table=TRACED) -> None:
        """Wrap every (module, attribute) of table inside package."""
        for mod_name, attr, layer, counter in table:
            module = getattr(package, mod_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, layer, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def self_times(spans: list[list]) -> dict[int, float]:
    """Self time of every span: duration minus its direct children's."""
    child = defaultdict(float)
    for sid, parent, _op, _layer, start, end, _c in spans:
        if parent is not None:
            child[parent] += end - start
    return {s[0]: (s[5] - s[4]) - child[s[0]] for s in spans}


def layer_totals(spans: list[list]) -> dict[str, dict]:
    """Per layer: summed self time, call count and summed counters."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for rec in spans:
        layer = rec[3]
        row = out.setdefault(layer, {"self_s": 0.0, "calls": 0})
        row["self_s"] += own[rec[0]]
        row["calls"] += 1
        for key, value in (rec[6] or {}).items():
            row[key] = row.get(key, 0) + value
    return out


def root_total(spans: list[list]) -> float:
    """Summed duration of the operations' root spans."""
    return sum(s[5] - s[4] for s in spans if s[3] == ROOT and s[1] is None)


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """The benchmark's per-layer metrics from the spans of one pass.

    Every ``*_s`` figure is a self time, so all of them together with
    ``bench.glue_self_s`` add up to ``trace.ops_total_s``.
    """
    t = layer_totals(spans)

    def g(layer: str, key: str = "self_s") -> float:
        return t.get(layer, {}).get(key, 0)

    orig_q = _frac(g("solvers.maxmin_original", "q_sum"),
                   g("solvers.maxmin_original", "q_calls"))
    return {
        "solvers.decide_self_s": g("solvers.decide"),
        "solvers.decide_calls": g("solvers.decide", "calls"),
        "solvers.decide_nodes": g("solvers.decide", "nodes"),
        "solvers.decide_feasible_frac": _frac(
            g("solvers.decide", "feasible"), g("solvers.decide", "calls")),
        "solvers.packing_self_s": g("solvers.packing"),
        "solvers.packing_calls": g("solvers.packing", "calls"),
        "solvers.packing_nodes": g("solvers.packing", "nodes"),
        "solvers.packing_optimal_frac": _frac(
            g("solvers.packing", "optimal"), g("solvers.packing", "calls")),
        "solvers.maxmin_improved_self_s": g("solvers.maxmin_improved"),
        "solvers.maxmin_improved_probes": g("solvers.maxmin_improved", "probes"),
        "solvers.maxmin_original_self_s": g("solvers.maxmin_original"),
        "solvers.maxmin_original_probes": g("solvers.maxmin_original", "probes"),
        "solvers.maxmin_original_q": orig_q,
        "solvers.threshold_graph_s": g("solvers.threshold_graph"),
        "solvers.threshold_graph_calls": g("solvers.threshold_graph", "calls"),
        "solvers.threshold_graph_density": _frac(
            g("solvers.threshold_graph", "density_sum"),
            g("solvers.threshold_graph", "calls")),
        "instances.spectrum_s": g("instances.spectrum"),
        "instances.spectrum_calls": g("instances.spectrum", "calls"),
        "solvers.enumerate_self_s": g("solvers.enumerate"),
        "solvers.enumerate_calls": g("solvers.enumerate", "calls"),
        "solvers.enumerate_optima": g("solvers.enumerate", "optima"),
        "solvers.bilevel_self_s": g("solvers.bilevel"),
        "solvers.bilevel_leaves": g("solvers.bilevel", "leaves"),
        "solvers.maxsum_bnb_s": g("solvers.maxsum_bnb"),
        "solvers.maxsum_bnb_nodes": g("solvers.maxsum_bnb", "nodes"),
        "solvers.brute_s": g("solvers.brute"),
        "solvers.brute_subsets": g("solvers.brute", "nodes"),
        "objectives.evaluate_s": g("objectives.evaluate"),
        "objectives.evaluate_calls": g("objectives.evaluate", "calls"),
        "milp.emit_s": g("milp.emit"),
        "milp.emit_bytes": g("milp.emit", "bytes"),
        "milp.verify_s": g("milp.verify"),
        "analysis.report_s": g("analysis.report"),
        "bench.glue_self_s": g(ROOT),
        "trace.ops_total_s": root_total(spans),
    }
