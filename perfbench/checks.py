"""Correctness gate: op outcomes, fingerprints, determinism and reference.

A fingerprint is the deterministic part of an operation's result: value,
1-based subset and the search counts (nodes, probes, q_used, optima count,
LP text length).  It must repeat exactly between passes of one run and
match the committed reference for every operation the reference lists.
Timings never enter a fingerprint.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REL_TOL = 1e-12  # float tolerance against the committed reference only


def _subset(solution) -> list[int] | None:
    return None if solution is None else [v + 1 for v in solution.nodes]


def fingerprint(result) -> dict:
    """JSON-ready deterministic summary of one operation's result."""
    kind = type(result).__name__
    if kind == "SolveResult":
        fp = {"status": result.status.value, "value": result.value,
              "subset": _subset(result.solution),
              "nodes": result.stats.subsets_or_nodes_explored,
              "probes": result.stats.decision_solves,
              "q_used": result.stats.q_used}
    elif kind == "OptimaEnumeration":
        fp = {"value": result.value, "optima": len(result),
              "truncated": result.truncated,
              "first": _subset(result.solutions[0]) if len(result) else None}
    elif kind == "BiLevelResult":
        fp = {"d_star": result.d_star, "optima": result.optima_enumerated,
              "truncated": result.truncated, "subset": _subset(result.chosen),
              "value": result.upper_value}
    elif kind == "str":
        fp = {"lp_bytes": len(result.encode("utf-8"))}
    elif kind == "ExternalCheck":
        fp = {"valid": result.valid, "value": result.value,
              "subset": [v + 1 for v in result.selected]}
    elif kind == "GeometryStats":
        fp = {"avg": result.avg_pairwise, "min": result.min_pairwise,
              "max": result.max_pairwise, "outer": result.avg_to_nonselected}
    elif kind == "DistanceHistogram":
        fp = {"counts": list(result.counts), "samples": result.sample_size}
    elif kind == "CrossModelRow":
        fp = {"instances": result.instance_count,
              "correlation": result.correlation, "min_dev": result.min_dev,
              "max_dev": result.max_dev, "avg_dev": result.avg_dev}
    else:
        raise TypeError(f"no fingerprint for result type {kind}")
    return json.loads(json.dumps(fp))


def outcome_error(result) -> str | None:
    """Why a returned result counts as failed, or None when it is good.

    Non-optimal statuses, truncated enumerations and invalid external
    checks are failures: every operation of a workload must finish exactly.
    """
    kind = type(result).__name__
    if kind == "SolveResult" and result.status.value != "optimal":
        return f"status {result.status.value}"
    if kind in ("OptimaEnumeration", "BiLevelResult") and result.truncated:
        return "enumeration truncated at its cap"
    if kind == "ExternalCheck" and not result.valid:
        return "external check invalid: " + "; ".join(result.violations)
    return None


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return False
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def reference_mismatches(fingerprints: dict[str, dict], reference: dict,
                         require_all: bool) -> list[tuple[str, str]]:
    """(op_id, message) for each op that disagrees with the reference.

    Ops absent from the reference are skipped unless require_all, which
    the default seed uses: there every op must be covered.
    """
    bad = []
    for op_id, fp in fingerprints.items():
        ref = reference.get(op_id)
        if ref is None:
            if require_all:
                bad.append((op_id, "missing from the committed reference"))
            continue
        if not _same(fp, ref):
            bad.append((op_id, f"reference mismatch: got {fp}, want {ref}"))
    return bad


def load_reference(path: Path) -> dict:
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def write_reference(path: Path, fingerprints: dict[str, dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"{json.dumps(op_id)}: {json.dumps(fp, sort_keys=True)}"
             for op_id, fp in sorted(fingerprints.items())]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


class Failures:
    """Failed (pass, op) pairs with the first reason seen for each op."""

    def __init__(self, op_ids: list[str], passes: int) -> None:
        self.op_ids = op_ids
        self.passes = passes
        self.failed: set[tuple[int, str]] = set()
        self.reasons: dict[str, str] = {}

    def add(self, op_id: str, reason: str, pass_index: int | None = None) -> None:
        """Fail op_id in one pass, or in every pass when pass_index is None."""
        indices = range(self.passes) if pass_index is None else [pass_index]
        for p in indices:
            self.failed.add((p, op_id))
        self.reasons.setdefault(op_id, reason)

    @property
    def attempted(self) -> int:
        return len(self.op_ids) * self.passes

    @property
    def count(self) -> int:
        return len(self.failed)

    @property
    def frac(self) -> float:
        return self.count / self.attempted
