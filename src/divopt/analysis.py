"""Solution-structure measurements and report tables.

The measurement suite quantifies how the four models' optimal subsets
differ: percentage deviations when one model's optimum is evaluated under
another model's objective, correlation of objective values across an
instance set, pooled pairwise-distance histograms, geometry summaries of a
single solution, alternate-optima multiplicity, and benchmark roll-ups.
Every report has a CSV rendering with a header row, deterministic column
order and 6 significant digits.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

from .instances import Instance
from .objectives import ObjectiveKind, Solution, _pair_distances, evaluate
from .solvers import (DEFAULT_OPTIMA_CAP, BudgetExceededError, SolveResult,
                      SolveStatus, SolverBudget, enumerate_maxmin_optima,
                      solve_model)


def deviation_pct(reference: float, other: float) -> float:
    """100 * (reference - other) / reference; the reference must be nonzero."""
    if reference == 0:
        raise ValueError("deviation undefined for zero reference value")
    return 100.0 * (reference - other) / reference


def pearson(xs: Sequence[float], ys: Sequence[float]) -> Optional[float]:
    """Sample Pearson correlation; None when either series is constant."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError("correlation needs at least two points")
    try:
        return statistics.correlation(xs, ys)
    except statistics.StatisticsError:
        return None


@dataclass(frozen=True)
class PairedObjectives:
    """Per-instance numbers for one primary/secondary model pairing.

    ``primary_optimum`` is the primary model's optimal value,
    ``primary_at_secondary`` the primary objective evaluated on the
    secondary model's optimal subset, ``secondary_optimum`` the secondary
    model's own optimal value.
    """

    primary_optimum: float
    primary_at_secondary: float
    secondary_optimum: float


@dataclass(frozen=True)
class CrossModelRow:
    set_name: str
    instance_count: int
    correlation: Optional[float]
    min_dev: float
    max_dev: float
    avg_dev: float


def cross_model_report(set_name: str,
                       pairs: Sequence[PairedObjectives]) -> CrossModelRow:
    """Aggregate deviations and correlation over one instance set.

    The deviation per instance compares the primary optimum against the
    primary objective of the secondary model's optimum; the correlation
    relates primary and secondary optima across the set (None for sets of
    one or for constant series).
    """
    if not pairs:
        raise ValueError("cross-model report needs at least one instance")
    devs = [deviation_pct(p.primary_optimum, p.primary_at_secondary)
            for p in pairs]
    if len(pairs) >= 2:
        corr = pearson([p.primary_optimum for p in pairs],
                       [p.secondary_optimum for p in pairs])
    else:
        corr = None
    return CrossModelRow(set_name=set_name, instance_count=len(pairs),
                         correlation=corr, min_dev=min(devs),
                         max_dev=max(devs),
                         avg_dev=sum(devs) / len(devs))


def pair_results(instance: Instance, primary_res: SolveResult,
                 secondary_res: SolveResult) -> PairedObjectives:
    """The paired numbers of two models solved on one instance, under the
    primary objective of ``primary_res.kind``."""
    return PairedObjectives(
        primary_optimum=primary_res.value,
        primary_at_secondary=evaluate(primary_res.kind, instance,
                                      secondary_res.solution),
        secondary_optimum=secondary_res.value,
    )


def compute_pairing(instance: Instance, m: int,
                    primary: ObjectiveKind, secondary: ObjectiveKind,
                    budget: Optional[SolverBudget] = None) -> PairedObjectives:
    """Solve both models on one instance and package the paired numbers;
    m is the subset size of every model but MaxMean, which chooses its
    own."""
    def solve(kind: ObjectiveKind) -> SolveResult:
        size = None if kind is ObjectiveKind.MAXMEAN else m
        return solve_model(instance, size, kind, budget)

    return pair_results(instance, solve(primary), solve(secondary))


class HistogramMode(Enum):
    NORMALIZED10 = "normalized10"
    INTEGER_BARS = "integer_bars"


@dataclass(frozen=True)
class DistanceHistogram:
    """Pooled pairwise distances of one or more solutions, binned.

    Normalized10 divides each distance by its own instance's d_max and uses
    ten classes of width 0.1, the last closed at 1.0.  IntegerBars has one
    bar per integer value 0..9.  ``d_max_used`` is only set when every
    pooled solution shared a single d_max.
    """

    mode: HistogramMode
    counts: tuple[int, ...]
    relative: tuple[float, ...]
    sample_size: int
    d_max_used: Optional[float]


def histogram(pairs: Sequence[tuple[Instance, Solution]],
              mode: HistogramMode) -> DistanceHistogram:
    """Bin the pooled C(m,2) pairwise distances of each solution.

    Class k of Normalized10 covers [k/10, (k+1)/10) on d/d_max with the
    last class closed, so d = d_max lands in class 9.
    """
    if not pairs:
        raise ValueError("histogram pooling needs at least one solution")
    counts = [0] * 10
    total = 0
    d_maxes: set[float] = set()
    for instance, solution in pairs:
        if len(solution) < 2:
            raise ValueError("histogram pooling needs solutions of size >= 2")
        values = _pair_distances(instance, solution)
        if mode is HistogramMode.NORMALIZED10:
            d_max = instance.d_max
            if d_max <= 0:
                raise ValueError(
                    f"instance {instance.name} has d_max <= 0; cannot normalize")
            d_maxes.add(d_max)
            for v in values:
                counts[min(int(v / d_max * 10.0), 9)] += 1
        else:
            for v in values:
                if not (float(v).is_integer() and 0 <= v <= 9):
                    raise ValueError(
                        f"integer-bar histogram needs distances in 0..9, got {v!r}")
                counts[int(v)] += 1
        total += len(values)
    relative = tuple(c / total if total else 0.0 for c in counts)
    return DistanceHistogram(mode=mode, counts=tuple(counts),
                             relative=relative, sample_size=total,
                             d_max_used=d_maxes.pop() if len(d_maxes) == 1 else None)


@dataclass(frozen=True)
class GeometryStats:
    avg_pairwise: float
    min_pairwise: float
    max_pairwise: float
    avg_to_nonselected: Optional[float]


def geometry_stats(instance: Instance, solution: Solution) -> GeometryStats:
    """Distance summary inside a solution and toward its complement.

    ``avg_to_nonselected`` averages over all selected x non-selected pairs
    and is None when the solution covers the whole node set.
    """
    if len(solution) < 2:
        raise ValueError("geometry stats need at least 2 selected nodes")
    inner = _pair_distances(instance, solution)
    idx = np.asarray(solution.nodes, dtype=np.intp)
    outside = np.ones(instance.n, dtype=bool)  # np.setdiff1d imports numpy.ma
    outside[idx] = False
    complement = np.flatnonzero(outside)
    if complement.size:
        outer = float(instance.distances[np.ix_(idx, complement)].mean())
    else:
        outer = None
    return GeometryStats(avg_pairwise=float(inner.mean()),
                         min_pairwise=float(inner.min()),
                         max_pairwise=float(inner.max()),
                         avg_to_nonselected=outer)


@dataclass(frozen=True)
class MultiplicitySummary:
    """Alternate-MaxMin-optima counts over an instance set.  An instance
    whose enumeration a budget stopped has count and truncated None, and
    the roll-ups cover the other instances (None when there are none)."""

    per_instance: tuple[tuple[str, Optional[int], Optional[bool]], ...]
    avg_count: Optional[float]
    max_count: Optional[int]
    any_truncated: bool


def multiplicity_report(instances: Sequence[Instance], m: Optional[int],
                        cap: int = DEFAULT_OPTIMA_CAP,
                        budget: Optional[SolverBudget] = None,
                        ) -> MultiplicitySummary:
    """Count MaxMin-optimal subsets per instance (capped enumeration).

    With ``m=None`` each instance is enumerated at its own ``default_m``.
    """
    if not instances:
        raise ValueError("multiplicity report needs at least one instance")
    rows = []
    for instance in instances:
        size = m if m is not None else instance.default_m
        if size is None:
            raise ValueError(f"no subset size for {instance.name}: pass m")
        try:
            enum = enumerate_maxmin_optima(instance, size, cap=cap,
                                           budget=budget)
        except BudgetExceededError:
            rows.append((instance.name, None, None))
        else:
            rows.append((instance.name, len(enum), enum.truncated))
    counts = [c for _, c, _ in rows if c is not None]
    return MultiplicitySummary(
        per_instance=tuple(rows),
        avg_count=sum(counts) / len(counts) if counts else None,
        max_count=max(counts, default=None),
        any_truncated=any(t for _, _, t in rows))


def relative_range(values: Sequence[float]) -> float:
    """(max - min) / max of a nonempty sequence with nonzero max."""
    if not values:
        raise ValueError("relative range of an empty sequence")
    hi = max(values)
    if hi == 0:
        raise ValueError("relative range undefined when the maximum is 0")
    return (hi - min(values)) / hi


@dataclass(frozen=True)
class BenchJob:
    """One solver run: which instance set, what model, how it ended."""

    set_name: str
    kind: ObjectiveKind
    status: SolveStatus


@dataclass(frozen=True)
class BenchRow:
    set_name: str
    kind: ObjectiveKind
    count: int
    solved_count: int


def benchmark_summary(jobs: Sequence[BenchJob]) -> list[BenchRow]:
    """Roll jobs up per (set, model): job and proven-optimal counts."""
    if not jobs:
        raise ValueError("benchmark summary needs at least one job")
    grouped: dict[tuple[str, str], list[BenchJob]] = {}
    for job in jobs:
        grouped.setdefault((job.set_name, job.kind.value), []).append(job)
    return [BenchRow(set_name=set_name,
                     kind=ObjectiveKind.from_string(kind_value),
                     count=len(members),
                     solved_count=sum(1 for j in members
                                      if j.status is SolveStatus.OPTIMAL))
            for (set_name, kind_value), members in sorted(grouped.items())]


# ---------------------------------------------------------------------------
# CSV rendering: one helper per report, 6 significant digits, NA for
# undefined numbers, LF line endings.
# ---------------------------------------------------------------------------

def _sig(x) -> str:
    if x is None:
        return "NA"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".6g")


def _csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_sig(cell) if not isinstance(cell, str) else cell
                              for cell in row))
    return "\n".join(lines) + "\n"


def histogram_csv(hist: DistanceHistogram) -> str:
    if hist.mode is HistogramMode.NORMALIZED10:
        labels = [f"[{k / 10:.1f},{(k + 1) / 10:.1f})" for k in range(9)]
        labels.append("[0.9,1.0]")
    else:
        labels = [str(k) for k in range(10)]
    return _csv(("bin", "count", "relative"),
                ((labels[k], hist.counts[k], hist.relative[k])
                 for k in range(10)))


def cross_model_csv(rows: Sequence[CrossModelRow]) -> str:
    return _csv(("set", "instances", "correlation", "min_dev", "max_dev",
                 "avg_dev"),
                ((r.set_name, r.instance_count, r.correlation, r.min_dev,
                  r.max_dev, r.avg_dev) for r in rows))


def geometry_csv(entries: Sequence[tuple[str, GeometryStats]]) -> str:
    return _csv(("solution", "avg_pairwise", "min_pairwise", "max_pairwise",
                 "avg_to_nonselected"),
                ((name, g.avg_pairwise, g.min_pairwise, g.max_pairwise,
                  g.avg_to_nonselected) for name, g in entries))


def multiplicity_csv(summary: MultiplicitySummary) -> str:
    return _csv(("instance", "optima", "truncated"),
                ((name, count, truncated)
                 for name, count, truncated in summary.per_instance))


def benchmark_csv(rows: Sequence[BenchRow]) -> str:
    return _csv(("set", "model", "count", "solved"),
                ((r.set_name, r.kind.value, r.count, r.solved_count)
                 for r in rows))
