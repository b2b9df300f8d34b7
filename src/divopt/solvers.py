"""Exact solvers for the dispersion models.

The centerpiece is the MaxMin machinery built on threshold graphs: for a
level l, G(l) connects every pair closer than l, so an independent set of
size m in G(l) is exactly an m-subset whose min pairwise distance is >= l.
Two exact methods are provided:

* improved -- binary search over the sorted distinct distance values by
  index, one feasibility decision per probe,
* original -- real-interval bisection where each step solves a maximum
  node packing exactly and compares its size v(l) against m.

MaxSum gets a native branch-and-bound with an admissible completion bound,
and every model has a brute-force oracle.  The bi-level solver optimizes a
secondary objective (MaxSum or MaxMinSum) over the set of MaxMin-optimal
subsets, either by enumerating those optima up to a cap or by an exact
search over independent sets at the MaxMin optimum.  MaxSum branch and
bound, the exact bi-level search and MaxMin enumeration all run on one
lexicographic subset walker, _walk_subsets, with a pluggable prune.
Both MaxMin methods cache each optimum they prove on the instance; the
bi-level solver and MaxMin enumeration read d* from there, while the
MaxMin methods themselves always search.

All searches are deterministic; ties break to the lexicographically
smallest index tuple.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from math import ceil, comb, inf, isnan, log2
from operator import add, itemgetter
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .instances import Instance, spectrum_stats
from .objectives import (ObjectiveKind, Sense, Solution, eval_maxmin,
                         eval_maxsum, evaluate)

DEFAULT_OPTIMA_CAP = 100_000

# Combinations the brute-force walk scores per numpy block.
_BLOCK_ROWS = 4096

# The brute-force walk unranks the lexicographic table of an (n, k) with at
# most _TABLE_MAX_ROWS rows once and keeps it (_combination_table), holding
# at most _TABLE_CACHE_ENTRIES tables and _TABLE_CACHE_BYTES bytes; larger
# tables stream block by block.
_TABLE_MAX_ROWS = 2 ** 17
_TABLE_CACHE_ENTRIES = 32
_TABLE_CACHE_BYTES = 2 ** 21

# Subinterval exponent cap for the bisection method: spectra with a tiny
# minimum gap would otherwise demand an absurd number of steps.
MAX_SUBINTERVAL_EXPONENT = 60

# enumerate_optima counts a sum-type subset optimal within this relative gap
_OPTIMA_REL_TOL = 1e-9


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    BUDGET_EXCEEDED = "budget_exceeded"


class BudgetExceededError(RuntimeError):
    """Raised by enumeration routines that have no status channel."""


@dataclass
class SearchStats:
    subsets_or_nodes_explored: int = 0
    decision_solves: int = 0
    wall_time: float = 0.0
    # Per-probe records for the MaxMin searches: (level, feasible) for the
    # index search, (level, packing_size, feasible) for the bisection.
    trace: tuple = ()
    q_used: Optional[int] = None


@dataclass(frozen=True)
class SolveResult:
    kind: ObjectiveKind
    status: SolveStatus
    solution: Optional[Solution]
    value: Optional[float]
    stats: SearchStats


@dataclass(frozen=True)
class SolverBudget:
    """Limits for one solver call; None means unlimited.

    ``max_subsets`` bounds the brute-force oracle, ``max_nodes`` the
    backtracking searches and ``time_limit`` the wall clock (seconds), each
    over the whole call: all probes of a MaxMin solve, and the d* solve
    plus the subset walk of solve_bilevel and enumerate_maxmin_optima.  The
    subset walk counts only visited nodes: a branch with too few candidates,
    or in a walk with no bound one whose clique cover rules out an
    independent completion, is skipped unvisited and costs nothing.
    """

    max_subsets: Optional[int] = None
    max_nodes: Optional[int] = None
    time_limit: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("max_subsets", "max_nodes", "time_limit"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ValueError(f"budget field {name} must be positive, got {v}")

    def deadline(self, start: float) -> Optional[float]:
        return start + self.time_limit if self.time_limit is not None else None


_NO_BUDGET = SolverBudget()


@dataclass(frozen=True)
class ThresholdGraph:
    """G(l): vertices 0..n-1, edges exactly the pairs with d_ij < l."""

    n: int
    threshold: float
    adj: tuple[int, ...]
    edge_count: int


@dataclass(frozen=True)
class OptimaEnumeration:
    """Alternate optima, by size and then lexicographically (only MaxMean
    lists more than one size); truncated means more exist."""

    solutions: tuple[Solution, ...]
    truncated: bool
    value: float

    def __len__(self) -> int:
        return len(self.solutions)

    def __iter__(self) -> Iterator[Solution]:
        return iter(self.solutions)


@dataclass(frozen=True)
class BiLevelResult:
    """A bi-level solve's choice.  optima_enumerated is the number of MaxMin
    optima listed in enumerate mode, but the number of leaves the bound let
    through and scored in exact mode, which can be far fewer (10 against
    77 optima for MaxSum on gkd-d n60 m8 seed 0)."""

    d_star: float
    optima_enumerated: int
    truncated: bool
    upper_kind: ObjectiveKind
    chosen: Solution
    upper_value: float


def _validate_m(instance: Instance, m: int) -> None:
    if not (2 <= m <= instance.n):
        raise ValueError(f"require 2 <= m <= n, got m={m}, n={instance.n}")


def build_threshold_graph(instance: Instance, l: float) -> ThresholdGraph:
    if isnan(l):
        # NaN compares false with every distance, which would make G(l) empty
        raise ValueError("threshold l must not be NaN")
    closer = instance.distances < l
    np.fill_diagonal(closer, False)
    packed = np.packbits(closer, axis=1, bitorder="little")
    adj = tuple(int.from_bytes(row.tobytes(), "little") for row in packed)
    return ThresholdGraph(n=instance.n, threshold=float(l), adj=adj,
                          edge_count=int(closer.sum()) // 2)


# _BYTE_OFFSETS[b]: the positions of the set bits of the byte b, ascending
# (bytes rather than tuples: half the memory, iterated as fast)
_BYTE_OFFSETS = tuple(bytes(i for i in range(8) if b >> i & 1)
                      for b in range(256))


def _bits_to_nodes(bits: int) -> tuple[int, ...]:
    out = []
    base = 0
    for byte in bits.to_bytes((bits.bit_length() + 7) >> 3, "little"):
        if byte:
            for i in _BYTE_OFFSETS[byte]:
                out.append(base + i)
        base += 8
    return tuple(out)


def _lowest_bits(mask: int, k: int) -> int:
    out = 0
    for _ in range(k):
        low = mask & -mask
        out |= low
        mask ^= low
    return out


class _Exhausted(Exception):
    pass


def _check_limits(nodes: int, max_nodes: Optional[int],
                  deadline: Optional[float]) -> None:
    if max_nodes is not None and nodes > max_nodes:
        raise _Exhausted
    if deadline is not None and nodes & 255 == 0 and time.perf_counter() > deadline:
        raise _Exhausted


def _clique_cover_size(cand: int, adj: tuple[int, ...], stop: int) -> int:
    """Size of a greedy clique cover of cand, counted no further than stop.

    Each clique grows from the lowest remaining vertex through the
    lowest-index common neighbours.  The cover size bounds the independence
    number of cand from above; the searches stop counting where the bound
    can no longer prune.
    """
    count = 0
    rest = cand
    while rest and count < stop:
        low = rest & -rest
        rest ^= low
        common = adj[low.bit_length() - 1] & rest
        while common:
            low = common & -common
            rest ^= low
            common &= adj[low.bit_length() - 1]
        count += 1
    return count


def _max_degree(cand: int, adj: tuple[int, ...]) -> tuple[int, int]:
    """(vertex, degree) of the lowest-index max-degree vertex of cand."""
    pick, maxdeg = -1, -1
    base = 0
    # the vertices of cand ascending, as _bits_to_nodes lists them
    for byte in cand.to_bytes((cand.bit_length() + 7) >> 3, "little"):
        if byte:
            for v in _BYTE_OFFSETS[byte]:
                v += base
                deg = (adj[v] & cand).bit_count()
                if deg > maxdeg:
                    pick, maxdeg = v, deg
        base += 8
    return pick, maxdeg


def _find_independent(adj: tuple[int, ...], n: int, m: int,
                      max_nodes: Optional[int], deadline: Optional[float],
                      ) -> tuple[Optional[int], int, bool]:
    """Search G for an independent set of size m.

    Returns (bits or None, nodes_explored, decided).  Branches on the
    candidate vertex of maximum degree within the candidate set, excluding
    it first; prunes when a greedy clique cover of the candidates has fewer
    cliques than picks are still needed.
    """
    full = (1 << n) - 1
    nodes = 0
    # stack entries: (candidates, chosen, still_needed); exclude branch is
    # pushed last so it pops first
    stack = [(full, 0, m)]
    try:
        while stack:
            cand, chosen, need = stack.pop()
            nodes += 1
            _check_limits(nodes, max_nodes, deadline)
            if need == 0:
                return chosen, nodes, True
            if cand.bit_count() < need:
                continue
            # decisive on the infeasible side of the threshold
            if _clique_cover_size(cand, adj, need) < need:
                continue
            pick, maxdeg = _max_degree(cand, adj)
            if maxdeg == 0:
                # conflict-free candidates: lowest-index fill completes
                return chosen | _lowest_bits(cand, need), nodes, True
            bit = 1 << pick
            stack.append((cand & ~(adj[pick] | bit), chosen | bit, need - 1))
            stack.append((cand ^ bit, chosen, need))
        return None, nodes, True
    except _Exhausted:
        return None, nodes, False


def feasible_subset(instance: Instance, l: float, m: int,
                    budget: Optional[SolverBudget] = None) -> SolveResult:
    """Decide whether some m-subset has all pairwise distances >= l.

    Equivalent to finding an independent set of size m in G(l).  Feasible
    results carry a witness; Infeasible means the search space was
    exhausted.
    """
    _validate_m(instance, m)
    budget = budget or _NO_BUDGET
    start = time.perf_counter()
    graph = build_threshold_graph(instance, l)
    bits, nodes, decided = _find_independent(
        graph.adj, graph.n, m, budget.max_nodes, budget.deadline(start))
    stats = SearchStats(subsets_or_nodes_explored=nodes, decision_solves=1,
                        wall_time=time.perf_counter() - start)
    if bits is None:
        status = SolveStatus.INFEASIBLE if decided else SolveStatus.BUDGET_EXCEEDED
        return SolveResult(ObjectiveKind.MAXMIN, status, None, None, stats)
    witness = Solution(_bits_to_nodes(bits))
    return SolveResult(ObjectiveKind.MAXMIN, SolveStatus.FEASIBLE, witness,
                       eval_maxmin(instance, witness), stats)


def _components(cand: int, adj: tuple[int, ...]) -> list[int]:
    comps = []
    rest = cand
    while rest:
        comp = rest & -rest
        frontier = comp
        while frontier:
            grown = 0
            scan = frontier
            while scan:
                low = scan & -scan
                scan ^= low
                grown |= adj[low.bit_length() - 1] & rest & ~comp
            comp |= grown
            frontier = grown
        comps.append(comp)
        rest &= ~comp
    return comps


def _greedy_independent(cand: int, adj: tuple[int, ...]) -> int:
    sel = 0
    while cand:
        best_v, best_deg = -1, None
        scan = cand
        while scan:
            low = scan & -scan
            scan ^= low
            deg = (adj[low.bit_length() - 1] & cand).bit_count()
            if best_deg is None or deg < best_deg:
                best_deg = deg
                best_v = low.bit_length() - 1
                if deg == 0:
                    break
        sel |= 1 << best_v
        cand &= ~(adj[best_v] | (1 << best_v))
    return sel


def _reduce_forced(cand: int, adj: tuple[int, ...]) -> tuple[int, int, int]:
    """Strip degree-0 and degree-1 vertices; returns (forced, rest, pick).

    Isolated candidates always join the packing; a degree-1 vertex can join
    in place of its sole neighbor without loss.  Degree-1 vertices are
    taken lowest index first, each time in the graph left by the previous
    take.  pick is the lowest-index max-degree vertex of rest (-1 when rest
    is empty).
    """
    zeros = ones = 0
    pick, maxdeg = -1, 1
    base = 0
    for byte in cand.to_bytes((cand.bit_length() + 7) >> 3, "little"):
        if byte:
            for v in _BYTE_OFFSETS[byte]:
                v += base
                deg = (adj[v] & cand).bit_count()
                if deg < 2:
                    if deg:
                        ones |= 1 << v
                    else:
                        zeros |= 1 << v
                elif deg > maxdeg:
                    pick, maxdeg = v, deg
        base += 8
    forced = zeros
    cand ^= zeros
    if ones:
        while ones:
            low = ones & -ones
            nb = adj[low.bit_length() - 1] & cand
            forced |= low
            cand ^= low | nb
            ones &= ~(low | nb)
            # only the neighbours of the removed neighbour lose a degree
            touched = adj[nb.bit_length() - 1] & cand
            while touched:
                low = touched & -touched
                touched ^= low
                deg = (adj[low.bit_length() - 1] & cand).bit_count()
                if deg == 1:
                    ones |= low
                elif deg == 0:
                    # it had degree 1, so it sits in ones
                    ones ^= low
                    forced |= low
                    cand ^= low
        pick = _max_degree(cand, adj)[0]
    return forced, cand, pick


def _max_independent(cand: int, adj: tuple[int, ...],
                     tick: Callable[[], None]) -> int:
    """Exact maximum independent set bits of the subgraph induced by cand;
    tick() runs at every search node and may stop it by raising _Exhausted."""
    tick()
    forced, cand, _ = _reduce_forced(cand, adj)
    if cand == 0:
        return forced
    comps = _components(cand, adj)
    if len(comps) > 1:
        for comp in comps:
            forced |= _max_independent(comp, adj, tick)
        return forced
    best_bits = _greedy_independent(cand, adj)
    best = best_bits.bit_count()

    def bb(cand: int, cur_bits: int, cur: int) -> None:
        nonlocal best, best_bits
        tick()
        forced, cand, pick = _reduce_forced(cand, adj)
        if forced:
            cur_bits |= forced
            cur += forced.bit_count()
        if cand == 0:
            if cur > best:
                best, best_bits = cur, cur_bits
            return
        while True:
            if cur + _clique_cover_size(cand, adj, best - cur + 1) <= best:
                return
            if pick < 0:
                pick = _max_degree(cand, adj)[0]
            bit = 1 << pick
            # include pick (recursive), then loop on as the exclude branch
            bb(cand & ~(adj[pick] | bit), cur_bits | bit, cur + 1)
            cand ^= bit
            pick = -1
            # the include branch left best >= cur + 1, so an empty
            # exclude branch returns here too
            if cand.bit_count() + cur <= best:
                return

    try:
        bb(cand, 0, 0)
    finally:
        del bb  # bb reaches itself through its closure cell: break the cycle
    return forced | best_bits


def max_packing(instance: Instance, l: float,
                budget: Optional[SolverBudget] = None) -> SolveResult:
    """Maximum independent set in G(l): the most nodes with pairwise d >= l.

    The result's value is the packing size v(l); the witness solution
    attains it.  On budget exhaustion the greedy packing is returned as a
    Feasible lower bound.
    """
    budget = budget or _NO_BUDGET
    start = time.perf_counter()
    graph = build_threshold_graph(instance, l)
    max_nodes, deadline = budget.max_nodes, budget.deadline(start)
    nodes = 0

    def tick() -> None:
        nonlocal nodes
        nodes += 1
        _check_limits(nodes, max_nodes, deadline)

    full = (1 << graph.n) - 1
    try:
        bits = _max_independent(full, graph.adj, tick)
        status = SolveStatus.OPTIMAL
    except _Exhausted:
        bits = _greedy_independent(full, graph.adj)
        status = SolveStatus.FEASIBLE
    stats = SearchStats(subsets_or_nodes_explored=nodes, decision_solves=1,
                        wall_time=time.perf_counter() - start)
    witness = Solution(_bits_to_nodes(bits))
    return SolveResult(ObjectiveKind.MAXMIN, status, witness,
                       float(len(witness)), stats)


def _maxmin_result(instance: Instance, m: int, status: SolveStatus,
                   witness: Optional[Solution],
                   stats: SearchStats) -> SolveResult:
    # without a witness the first m nodes stand in: every m-subset scores at
    # least d_min, and exactly d_min when that is the optimum
    if witness is None:
        witness = Solution(range(m))
    value = eval_maxmin(instance, witness)
    if status is SolveStatus.OPTIMAL:
        instance._maxmin[m] = value  # read back by _maxmin_optimum only
    return SolveResult(ObjectiveKind.MAXMIN, status, witness, value, stats)


def _maxmin_optimum(instance: Instance, m: int,
                    budget: SolverBudget) -> tuple[float, int]:
    """The MaxMin optimum d* of (instance, m) and the nodes spent on it: the
    cached proven value at no cost, or one solve_maxmin_improved call, which
    caches it.  Raises BudgetExceededError when the solve stops before it
    proves the optimum."""
    d_star = instance._maxmin.get(m)
    if d_star is not None:
        return d_star, 0
    base = solve_maxmin_improved(instance, m, budget)
    if base.status is not SolveStatus.OPTIMAL:
        raise BudgetExceededError("MaxMin optimum not proven within budget")
    return base.value, base.stats.subsets_or_nodes_explored


def solve_maxmin_improved(instance: Instance, m: int,
                          budget: Optional[SolverBudget] = None) -> SolveResult:
    """Exact MaxMin via binary search over the distinct distances by index.

    The optimum is always a stored distance, so probing median spectrum
    values needs no epsilon: the bracket [values[lo], values[hi]) keeps a
    feasible left end and an infeasible right end until one value remains.
    Decision count is at most ceil(log2(#distinct)) + 1.
    """
    _validate_m(instance, m)
    budget = budget or _NO_BUDGET
    start = time.perf_counter()
    values = spectrum_stats(instance).distinct_values
    lo, hi = 0, len(values)  # values[lo] feasible; index hi infeasible
    witness: Optional[Solution] = None
    solves = 0
    nodes = 0
    trace: list[tuple[float, bool]] = []
    exhausted = False
    while hi - lo > 1:
        mid = (lo + hi) // 2
        remaining = _remaining_budget(budget, start, nodes)
        if remaining is None:
            exhausted = True
            break
        probe = feasible_subset(instance, values[mid], m, remaining)
        solves += 1
        nodes += probe.stats.subsets_or_nodes_explored
        if probe.status == SolveStatus.BUDGET_EXCEEDED:
            exhausted = True
            break
        ok = probe.status == SolveStatus.FEASIBLE
        trace.append((values[mid], ok))
        if ok:
            lo = mid
            witness = probe.solution
        else:
            hi = mid
    stats = SearchStats(subsets_or_nodes_explored=nodes, decision_solves=solves,
                        trace=tuple(trace))
    status = SolveStatus.FEASIBLE if exhausted else SolveStatus.OPTIMAL
    result = _maxmin_result(instance, m, status, witness, stats)
    stats.wall_time = time.perf_counter() - start
    return result


def _remaining_budget(budget: SolverBudget, start: float,
                      nodes: int) -> Optional[SolverBudget]:
    """Budget left after nodes explored since start; None once it ran out."""
    max_nodes, time_limit = budget.max_nodes, budget.time_limit
    if max_nodes is not None:
        max_nodes -= nodes
    if time_limit is not None:
        time_limit -= time.perf_counter() - start
    if any(left is not None and left <= 0 for left in (max_nodes, time_limit)):
        return None
    return replace(budget, max_nodes=max_nodes, time_limit=time_limit)


def default_subinterval_exponent(instance: Instance) -> Optional[int]:
    """ceil(log2(spread / smallest gap)), capped; None for flat spectra."""
    st = spectrum_stats(instance)
    if st.min_positive_gap is None:
        return None
    spread = st.d_max - st.d_min
    q = max(0, ceil(log2(spread / st.min_positive_gap)))
    return min(q, MAX_SUBINTERVAL_EXPONENT)


def solve_maxmin_original(instance: Instance, m: int,
                          budget: Optional[SolverBudget] = None) -> SolveResult:
    """Exact MaxMin via interval bisection with one packing solve per step.

    The bracket starts at [d_min, d_max + gap) and each step solves a
    maximum node packing at the midpoint, comparing its size v(l) to m.
    With q = ceil(log2(spread/gap)) subinterval halvings the bracket is
    guaranteed to isolate a single spectrum value, which is the optimum.
    If the capped q runs out first the incumbent is returned as Feasible.
    """
    _validate_m(instance, m)
    budget = budget or _NO_BUDGET
    start = time.perf_counter()
    st = spectrum_stats(instance)
    values = st.distinct_values
    gap = st.min_positive_gap
    if gap is None:
        # flat spectrum: every m-subset scores d_min
        stats = SearchStats(wall_time=time.perf_counter() - start, q_used=None)
        return _maxmin_result(instance, m, SolveStatus.OPTIMAL, None, stats)
    q = default_subinterval_exponent(instance)
    lo = st.d_min
    hi = st.d_max + gap  # strictly above the optimum by construction
    witness: Optional[Solution] = None
    solves = 0
    nodes = 0
    trace: list[tuple[float, int, bool]] = []
    exhausted = False

    def values_in_bracket() -> int:
        return bisect_left(values, hi) - bisect_left(values, lo)

    while values_in_bracket() > 1 and solves <= q:
        mid = (lo + hi) / 2.0
        remaining = _remaining_budget(budget, start, nodes)
        if remaining is None:
            exhausted = True
            break
        pack = max_packing(instance, mid, remaining)
        solves += 1
        nodes += pack.stats.subsets_or_nodes_explored
        size = int(pack.value)
        feasible = size >= m
        if not feasible and pack.status != SolveStatus.OPTIMAL:
            # a stopped packing below m decides nothing
            exhausted = True
            break
        # a stopped packing of size >= m still proves feasibility at mid
        trace.append((mid, size, feasible))
        if feasible:
            lo = mid
            witness = Solution(pack.solution.nodes[:m])
        else:
            hi = mid
    stats = SearchStats(subsets_or_nodes_explored=nodes, decision_solves=solves,
                        wall_time=time.perf_counter() - start,
                        trace=tuple(trace), q_used=q)
    # without a single value isolated, the incumbent is only a bound
    isolated = not exhausted and values_in_bracket() == 1
    result = _maxmin_result(
        instance, m, SolveStatus.OPTIMAL if isolated else SolveStatus.FEASIBLE,
        witness, stats)
    # the isolated bracket pins the witness's min distance to the optimum
    assert not isolated or result.value == values[bisect_left(values, lo)]
    return result


def enumerate_maxmin_optima(instance: Instance, m: int,
                            cap: int = DEFAULT_OPTIMA_CAP,
                            budget: Optional[SolverBudget] = None,
                            ) -> OptimaEnumeration:
    """All m-subsets whose min pairwise distance equals the MaxMin optimum.

    They are exactly the size-m independent sets of G(z*), generated in
    lexicographic order by a walk that skips every branch whose candidates
    a greedy clique cover shows hold no independent completion
    (_walk_subsets); only dead ends go, so the optima, their order and
    the truncation are those of the unpruned walk.  ``truncated`` reports
    that more exist beyond the cap.  z* is the optimum an exact MaxMin
    solve of (instance, m) proved and cached on the instance; only when
    none is cached does it cost one solve_maxmin_improved call, whose
    nodes count against max_nodes.
    Raises BudgetExceededError when limits cut the search short.
    """
    if m is None:
        raise ValueError("maxmin enumeration requires a subset size m")
    _validate_m(instance, m)
    if cap < 1:
        raise ValueError(f"cap must be positive, got {cap}")
    budget = budget or _NO_BUDGET
    start = time.perf_counter()
    z_star, spent = _maxmin_optimum(instance, m, budget)
    left = _remaining_budget(budget, start, spent)
    if left is None:
        raise BudgetExceededError("budget exhausted before enumeration")
    graph = build_threshold_graph(instance, z_star)
    found: list[Solution] = []

    def leaf(chosen: list[int], cur: float) -> bool:
        found.append(Solution(chosen))
        return len(found) <= cap  # one past the cap proves truncation

    nodes, exhausted = _walk_subsets(None, graph.adj, m, leaf,
                                     max_nodes=left.max_nodes,
                                     deadline=budget.deadline(start))
    if exhausted:
        raise BudgetExceededError(
            f"optima enumeration exceeded budget after {nodes} nodes")
    return OptimaEnumeration(solutions=tuple(found[:cap]),
                             truncated=len(found) > cap, value=z_star)


def _subset_sizes(instance: Instance, m: Optional[int],
                  kind: ObjectiveKind) -> tuple[list[int], int]:
    """Subset sizes of an exhaustive walk and the number of subsets it
    scores, which the subset budget is held against."""
    n = instance.n
    if kind is ObjectiveKind.MAXMEAN:
        return list(range(1, n + 1)), 2 ** n - 1
    if m is None:
        raise ValueError(f"{kind.value} requires a subset size m")
    _validate_m(instance, m)
    return [m], comb(n, m)


def _unrank_blocks(n: int, k: int) -> Iterator[np.ndarray]:
    """combinations(range(n), k) in lexicographic order, as (rows, k) intp
    index arrays of at most _BLOCK_ROWS rows, unranked in numpy.

    Each block goes through the combinatorial number system (Knuth, TAOCP
    4A, 7.2.1.3): lexicographic rank r of c is the colex rank
    C(n, k) - 1 - r of the mirrored combination n - 1 - c, whose j-th
    element is the largest x with C(x, k - j) <= the rank left by the
    elements before it, found for all rows by one searchsorted.  Ranks are
    int64, or Python ints in object arrays when C(n, k) does not fit.
    """
    total = comb(n, k)
    dtype = np.int64 if total < 2 ** 63 else object
    # the mirrored j-th element is at most n - 1 - j, and every
    # C(x, k - j) up to there is below total
    tables = [np.array([comb(x, k - j) for x in range(n - j)], dtype=dtype)
              for j in range(k)]
    for start in range(0, total, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, total)
        rank = np.arange(total - 1 - start, total - 1 - stop, -1, dtype=dtype)
        block = np.empty((stop - start, k), dtype=np.intp)
        for j, table in enumerate(tables):
            # mirrored element x - 1: largest y with C(y, k - j) <= rank
            x = table.searchsorted(rank, side="right")
            rank -= table[x - 1]
            np.subtract(n, x, out=block[:, j])  # n - 1 - (x - 1)
        yield block


class _TableCache:
    """(n, k) -> the read-only table of combinations(range(n), k), rows in
    lexicographic order, in the smallest unsigned dtype that holds n - 1.

    Each table is unranked once and kept until it is the least recently
    used one and the cache holds more than _TABLE_CACHE_ENTRIES tables or
    _TABLE_CACHE_BYTES bytes.  A lock guards the bookkeeping, so threads
    may share the cache; two of them may unrank the same table at once.
    """

    def __init__(self) -> None:
        self._tables: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()
        self._lock = threading.Lock()
        self.nbytes = 0

    def __call__(self, n: int, k: int) -> np.ndarray:
        key = (n, k)
        with self._lock:
            table = self._tables.get(key)
            if table is not None:
                self._tables.move_to_end(key)
                return table
        # filled block by block, so that no full-size intp copy is made
        table = np.empty((comb(n, k), k), dtype=np.min_scalar_type(n - 1))
        for start, block in zip(range(0, len(table), _BLOCK_ROWS),
                                _unrank_blocks(n, k)):
            table[start:start + _BLOCK_ROWS] = block
        table.flags.writeable = False
        with self._lock:
            if key not in self._tables:
                self._tables[key] = table
                self.nbytes += table.nbytes
            while (len(self._tables) > _TABLE_CACHE_ENTRIES
                   or self.nbytes > _TABLE_CACHE_BYTES):
                self.nbytes -= self._tables.popitem(last=False)[1].nbytes
        return table

    def cache_clear(self) -> None:
        with self._lock:
            self._tables.clear()
            self.nbytes = 0


_combination_table = _TableCache()


def _combination_blocks(n: int, sizes: list[int]) -> Iterator[np.ndarray]:
    """combinations(range(n), size) for each size in turn, in lexicographic
    order, as (rows, size) intp index arrays of at most _BLOCK_ROWS rows.

    A size with at most _TABLE_MAX_ROWS combinations is sliced from its
    (n, size) table, which is unranked once per process and reused
    (_combination_table); a larger one is unranked block by block
    (_unrank_blocks).  Both give the same blocks.
    """
    for k in sizes:
        total = comb(n, k)
        if total > _TABLE_MAX_ROWS:
            yield from _unrank_blocks(n, k)
            continue
        table = _combination_table(n, k)
        for start in range(0, total, _BLOCK_ROWS):
            yield table[start:start + _BLOCK_ROWS].astype(np.intp)


class _Incumbent:
    """The best score of a brute-force walk and the lexicographically
    smallest subset attaining it."""

    def __init__(self, sense_max: bool) -> None:
        self.sense_max = sense_max
        self.value: Optional[float] = None
        self.combo: Optional[tuple[int, ...]] = None

    def offer(self, block: np.ndarray, scores: np.ndarray) -> bool:
        """Take the block's best row if it beats the incumbent; True when
        the best value changed."""
        # rows come in combination order, so the first row attaining the
        # block's best is its lexicographically smallest
        row = int(scores.argmax() if self.sense_max else scores.argmin())
        val, combo = float(scores[row]), tuple(block[row].tolist())
        if (self.value is None
                or (val > self.value if self.sense_max else val < self.value)
                or (val == self.value and combo < self.combo)):
            changed = val != self.value
            self.value, self.combo = val, combo
            return changed
        return False


def _scored_blocks(instance: Instance, sizes: list[int], kind: ObjectiveKind,
                   deadline: Optional[float]
                   ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each block of the brute-force walk with its scores.  Past the
    deadline, raises _Exhausted before any block after the first."""
    for i, block in enumerate(_combination_blocks(instance.n, sizes)):
        if i and deadline is not None and time.perf_counter() > deadline:
            raise _Exhausted
        yield block, _score_block(instance.distances, block, kind)


def brute_force(instance: Instance, m: Optional[int], kind: ObjectiveKind,
                budget: Optional[SolverBudget] = None) -> SolveResult:
    """Exhaustive oracle: every m-subset (every subset for MaxMean).

    _combination_blocks hands out the subsets in lexicographic order, in
    blocks of up to _BLOCK_ROWS, from an (n, k) table unranked once per
    process when C(n, k) <= _TABLE_MAX_ROWS (2^17) and unranked block by
    block past that.  _score_block scores each block; its values equal the
    per-subset reference _score_plain bit for bit.  Refuses upfront (status
    BudgetExceeded) when the subset count, C(n, m) or 2^n - 1 for MaxMean,
    exceeds the budget.  The time limit is checked before each block after
    the first.  Ties go to the lexicographically smallest index tuple.
    """
    budget = budget or _NO_BUDGET
    start = time.perf_counter()
    sizes, total = _subset_sizes(instance, m, kind)
    if budget.max_subsets is not None and total > budget.max_subsets:
        stats = SearchStats(wall_time=time.perf_counter() - start)
        return SolveResult(kind, SolveStatus.BUDGET_EXCEEDED, None, None, stats)

    best = _Incumbent(kind.sense is Sense.MAX)
    explored = 0
    timed_out = False
    try:
        for block, scores in _scored_blocks(instance, sizes, kind,
                                            budget.deadline(start)):
            explored += len(block)
            best.offer(block, scores)
    except _Exhausted:
        timed_out = True

    stats = SearchStats(subsets_or_nodes_explored=explored,
                        wall_time=time.perf_counter() - start)
    status = SolveStatus.FEASIBLE if timed_out else SolveStatus.OPTIMAL
    sol = Solution(best.combo)
    return SolveResult(kind, status, sol, evaluate(kind, instance, sol), stats)


def _score_block(D: np.ndarray, block: np.ndarray,
                 kind: ObjectiveKind) -> np.ndarray:
    """Scores of every row of an (rows, k) index block.

    Per row the float operations and their order are those of _score_plain:
    pair terms are added one at a time in (a, b) order, never by a
    reordering reduction such as np.sum, so the values agree bit for bit.
    """
    rows, k = block.shape
    flat = D.ravel()
    base = block * D.shape[0]
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]

    def dist(a: int, b: int) -> np.ndarray:
        return flat.take(base[:, a] + block[:, b])

    if kind is ObjectiveKind.MAXSUM or kind is ObjectiveKind.MAXMEAN:
        s = np.zeros(rows)
        for a, b in pairs:
            s += dist(a, b)
        return s / k if kind is ObjectiveKind.MAXMEAN else s
    if kind is ObjectiveKind.MAXMIN:
        best = np.full(rows, inf)
        for a, b in pairs:
            np.minimum(best, dist(a, b), out=best)
        return best
    contrib = np.zeros((k, rows))
    for a, b in pairs:
        d = dist(a, b)
        contrib[a] += d
        contrib[b] += d
    low = np.minimum.reduce(contrib)
    if kind is ObjectiveKind.MAXMINSUM:
        return low
    return np.maximum.reduce(contrib) - low


def _score_plain(D: list[list[float]], combo: tuple[int, ...],
                 kind: ObjectiveKind) -> float:
    """Score of one subset: the bi-level leaf score and _score_block's
    per-subset reference."""
    k = len(combo)
    if kind is ObjectiveKind.MAXSUM or kind is ObjectiveKind.MAXMEAN:
        s = 0.0
        for a in range(k):
            row = D[combo[a]]
            for b in range(a + 1, k):
                s += row[combo[b]]
        return s / k if kind is ObjectiveKind.MAXMEAN else s
    if kind is ObjectiveKind.MAXMIN:
        best = inf
        for a in range(k):
            row = D[combo[a]]
            for b in range(a + 1, k):
                if row[combo[b]] < best:
                    best = row[combo[b]]
        return best
    contrib = [0.0] * k
    for a in range(k):
        row = D[combo[a]]
        for b in range(a + 1, k):
            d = row[combo[b]]
            contrib[a] += d
            contrib[b] += d
    if kind is ObjectiveKind.MAXMINSUM:
        return min(contrib)
    return max(contrib) - min(contrib)


def enumerate_optima(instance: Instance, m: Optional[int], kind: ObjectiveKind,
                     cap: int = DEFAULT_OPTIMA_CAP,
                     budget: Optional[SolverBudget] = None) -> OptimaEnumeration:
    """All optimal subsets of one model, up to cap, by size and then
    lexicographically within a size.

    Only MaxMean has subsets of more than one size, so only its order
    differs from lexicographic: its first listed optimum can be smaller
    than the one brute_force returns, which breaks ties by plain tuple
    order across sizes.

    Sum-type values match the optimum within relative tolerance
    ``_OPTIMA_REL_TOL``; MaxMin matches exactly (delegated to the
    threshold enumeration, which scales past brute force).

    One brute-force walk scores every subset once.  It keeps the rows whose
    score is within twice the tolerance of the running best; whether a row
    is optimal is monotone in its score, so it also drops a row once cap + 1
    earlier kept rows score at least as well.  The optimum is the evaluated
    brute-force incumbent, and the kept rows within tolerance of it are the
    optima.  Raises BudgetExceededError when the subset count exceeds
    max_subsets or the time limit passes before the walk ends.
    """
    if cap < 1:
        raise ValueError(f"cap must be positive, got {cap}")
    if kind is ObjectiveKind.MAXMIN:
        return enumerate_maxmin_optima(instance, m, cap=cap, budget=budget)
    budget = budget or _NO_BUDGET
    start = time.perf_counter()
    sizes, total = _subset_sizes(instance, m, kind)
    if budget.max_subsets is not None and total > budget.max_subsets:
        raise BudgetExceededError("enumeration bound exceeds budget")
    sense_max = kind.sense is Sense.MAX
    best = _Incumbent(sense_max)
    # (gain, score, subset) in walk order; gain is the score, negated when
    # minimising, so a higher gain is always better
    kept: list[tuple[float, float, list[int]]] = []
    floor = -inf  # lowest gain within twice the tolerance of the best
    cap_floor: Optional[float] = None  # lowest gain of kept[:cap + 1]
    try:
        for block, scores in _scored_blocks(instance, sizes, kind,
                                            budget.deadline(start)):
            if best.offer(block, scores):
                top = best.value if sense_max else -best.value
                floor = top - 2 * _OPTIMA_REL_TOL * max(1.0, abs(top))
                kept = [row for row in kept if row[0] >= floor]
                cap_floor = None
            gains = scores if sense_max else -scores
            keep = gains >= floor
            if cap_floor is not None:
                keep &= gains > cap_floor
            rows = np.flatnonzero(keep)
            kept.extend(zip(gains[rows].tolist(), scores[rows].tolist(),
                            block[rows].tolist()))
            if cap_floor is None and len(kept) > cap:
                cap_floor = min(row[0] for row in kept[:cap + 1])
                kept[cap + 1:] = [row for row in kept[cap + 1:]
                                  if row[0] > cap_floor]
    except _Exhausted:
        raise BudgetExceededError(
            "optimum not proven within time budget") from None
    opt = evaluate(kind, instance, Solution(best.combo))
    tol = _OPTIMA_REL_TOL * max(1.0, abs(opt))
    found = [Solution(nodes) for _, score, nodes in kept
             if abs(score - opt) <= tol]
    return OptimaEnumeration(solutions=tuple(found[:cap]),
                             truncated=len(found) > cap, value=opt)


def _walk_subsets(D: Optional[list[list[float]]], adj: Sequence[int], m: int,
                  leaf: Callable[[list[int], float], bool],
                  prune: Optional[Callable[..., bool]] = None,
                  max_nodes: Optional[int] = None,
                  deadline: Optional[float] = None) -> tuple[int, bool]:
    """Walk the m-subsets independent in adj depth first, lexicographically.

    leaf(chosen, cur) gets each full subset with its MaxSum value cur and
    stops the walk by returning False.  prune(cur, gains, remaining, need)
    may cut a partial one: remaining are its candidates, gains[i] is the
    distance sum from remaining[i] into chosen (in pick order) and need the
    picks missing.  Without prune, D may be None and cur stays 0.0.  A
    child with fewer candidates than it needs is skipped, not visited.
    A walk without prune lists every leaf, so it also skips a child that
    needs at least 2 more picks when a greedy clique cover of its
    candidates (_clique_cover_size) has fewer cliques than that: no
    independent completion lies below it, and the leaves and their order
    stay the same.  Walks with a prune (exact bi-level, MaxSum B&B) keep
    their node counts for now; exact bi-level takes the skip once the
    benchmark runner no longer keeps every pass's fingerprints, which
    charges its faster passes to peak memory.
    The gains and prune wait for the first child that keeps enough: a node
    with none is left before they are computed, and is still visited and
    counted once.
    Returns (visited nodes, whether max_nodes or the deadline stopped it).
    """
    nodes = 0

    def rec(cand: int, chosen: list[int], cur: float) -> bool:
        nonlocal nodes
        nodes += 1
        _check_limits(nodes, max_nodes, deadline)
        need = m - len(chosen)
        if need == 0:
            return leaf(chosen, cur)
        gains = None
        pending = prune is not None  # until the first child with enough
        i = 0  # position of v in remaining
        scan = cand
        while scan:
            low = scan & -scan
            scan ^= low  # now the candidates above v
            if scan.bit_count() < need - 1:
                break
            v = low.bit_length() - 1
            child = scan & ~adj[v]
            if child.bit_count() >= need - 1 and (
                    prune is not None or need < 3
                    or _clique_cover_size(child, adj, need - 1) >= need - 1):
                if pending:
                    # no pick is made before here, so prune sees the
                    # incumbent the node was entered with
                    pending = False
                    remaining = _bits_to_nodes(cand)
                    gains = []
                    for u in remaining:
                        row = D[u]
                        gain = 0.0
                        for s in chosen:
                            gain += row[s]
                        gains.append(gain)
                    if prune(cur, gains, remaining, need):
                        return True
                chosen.append(v)
                keep = rec(child, chosen,
                           cur if gains is None else cur + gains[i])
                chosen.pop()
                if not keep:
                    return False
            i += 1
        return True

    try:
        rec((1 << len(adj)) - 1, [], 0.0)
    except _Exhausted:
        return nodes, True
    finally:
        del rec  # rec reaches itself through its closure cell: break the cycle
    return nodes, False


def _add_half_tops(D: list[list[float]], scores: list[float],
                   remaining: tuple[int, ...], need: int) -> None:
    """Add to each scores[i] half the sum of remaining[i]'s need - 1
    largest distances to the other candidates (need >= 2): the part of the
    MaxSum completion bound that does not depend on the picks so far."""
    gather = itemgetter(*remaining)
    for i, v in enumerate(remaining):
        others = list(gather(D[v]))
        del others[i]  # v itself
        others.sort(reverse=True)
        scores[i] += 0.5 * sum(others[:need - 1])


def _sum_completion_bound(D: list[list[float]], gains: Sequence[float],
                          remaining: tuple[int, ...], need: int) -> float:
    """Most that need more picks from remaining can add to a MaxSum value
    (the bound solve_maxsum_bnb describes); gains[i] is remaining[i]'s
    distance sum into the picks so far."""
    scores = list(gains)
    if need > 1:
        _add_half_tops(D, scores, remaining, need)
    scores.sort(reverse=True)
    return sum(scores[:need])


def _suffix_completion_bound(D: list[list[float]]
                             ) -> Callable[..., float]:
    """_sum_completion_bound(D, ...) for candidate sets that are suffixes
    range(s, n), as in a walk without conflicts.  Their half-top terms
    depend only on (s, need), so each row of them is computed once and
    kept: at most n * m rows of at most n floats.  A row starts at 0.0 and
    0.0 + t is t itself (a term is a sum started at 0, never -0.0), so
    gains[i] + row[i] is the sum _sum_completion_bound forms, bit for
    bit."""
    table: dict[tuple[int, int], list[float]] = {}

    def bound(gains: Sequence[float], remaining: tuple[int, ...],
              need: int) -> float:
        if need == 1:
            return _sum_completion_bound(D, gains, remaining, need)
        key = (remaining[0], need)
        row = table.get(key)
        if row is None:
            row = table[key] = [0.0] * len(remaining)
            _add_half_tops(D, row, remaining, need)
        scores = list(map(add, gains, row))
        scores.sort(reverse=True)
        return sum(scores[:need])

    return bound


def _best_subset(D: list[list[float]], adj: Sequence[int], m: int,
                 upper_kind: ObjectiveKind, max_nodes: Optional[int],
                 deadline: Optional[float],
                 ) -> tuple[Optional[tuple[int, ...]], int, int, bool]:
    """Lexicographically first best MaxSum or MaxMinSum m-subset independent
    in adj, pruned by the MaxSum completion bound or, for MaxMinSum, twice
    it over m (min <= mean of the contributions).  Returns (subset or None,
    leaves scored, nodes visited, exhausted)."""
    maxsum = upper_kind is ObjectiveKind.MAXSUM
    best_val = -inf
    best_combo: Optional[tuple[int, ...]] = None
    leaves = 0

    def leaf(chosen: list[int], cur: float) -> bool:
        nonlocal best_val, best_combo, leaves
        leaves += 1
        val = cur if maxsum else _score_plain(D, tuple(chosen), upper_kind)
        if val > best_val:
            best_val, best_combo = val, tuple(chosen)
        return True

    # without conflicts every candidate set is a suffix
    completion = (partial(_sum_completion_bound, D) if any(adj)
                  else _suffix_completion_bound(D))

    def prune(cur: float, gains: list[float], remaining: tuple[int, ...],
              need: int) -> bool:
        if best_combo is None:
            return False  # no incumbent for a bound to cut against
        bound = cur + completion(gains, remaining, need)
        if not maxsum:
            bound = 2.0 * bound / m
        return bound <= best_val

    nodes, exhausted = _walk_subsets(D, adj, m, leaf, prune, max_nodes,
                                     deadline)
    return best_combo, leaves, nodes, exhausted


def solve_maxsum_bnb(instance: Instance, m: int,
                     budget: Optional[SolverBudget] = None) -> SolveResult:
    """Exact MaxSum by depth-first branch and bound in index order.

    At a partial selection the bound adds, for each of the m-k best
    remaining candidates, its distance sum into the selection plus half its
    m-k-1 largest distances to other remaining candidates; no completion
    can exceed that.  With no conflicts the candidates are always a suffix
    range(s, n), so the half-distance terms depend only on (s, m-k): each
    such row is computed once per solve and kept in a table of at most
    n * m rows of at most n floats, and a node only adds its gains to a
    row and sums the m-k largest.
    """
    _validate_m(instance, m)
    budget = budget or _NO_BUDGET
    start = time.perf_counter()
    best_combo, _, nodes, exhausted = _best_subset(
        instance.distances.tolist(), (0,) * instance.n, m,
        ObjectiveKind.MAXSUM, budget.max_nodes, budget.deadline(start))
    status = SolveStatus.OPTIMAL
    if exhausted:
        status = SolveStatus.FEASIBLE if best_combo is not None \
            else SolveStatus.BUDGET_EXCEEDED
    stats = SearchStats(subsets_or_nodes_explored=nodes,
                        wall_time=time.perf_counter() - start)
    if best_combo is None:
        return SolveResult(ObjectiveKind.MAXSUM, status, None, None, stats)
    sol = Solution(best_combo)
    return SolveResult(ObjectiveKind.MAXSUM, status, sol,
                       eval_maxsum(instance, sol), stats)


def solve_bilevel(instance: Instance, m: int, upper_kind: ObjectiveKind,
                  cap: int = DEFAULT_OPTIMA_CAP,
                  budget: Optional[SolverBudget] = None,
                  mode: str = "enumerate") -> BiLevelResult:
    """Optimize a secondary objective over the MaxMin-optimal subsets.

    mode="enumerate" collects MaxMin optima up to cap and picks the best
    under the upper objective (heuristic when truncated).  mode="exact"
    searches all independent sets of G(d*) directly with bound pruning, so
    the answer is exact no matter how many optima exist.  The lower-level
    optimum d* is solved once per (instance, m) and cached on the instance,
    so later bi-level calls in either mode, and MaxMin enumeration, reuse
    it without charging the budget; when it is solved here, its nodes count
    against max_nodes together with the subset search's.
    """
    if upper_kind not in (ObjectiveKind.MAXSUM, ObjectiveKind.MAXMINSUM):
        raise ValueError(f"upper objective must be maxsum or maxminsum, "
                         f"got {upper_kind.value}")
    if mode not in ("enumerate", "exact"):
        raise ValueError(f"mode must be 'enumerate' or 'exact', got {mode!r}")
    _validate_m(instance, m)
    budget = budget or _NO_BUDGET
    start = time.perf_counter()
    d_star, spent = _maxmin_optimum(instance, m, budget)
    left = _remaining_budget(budget, start, spent)
    if left is None:
        raise BudgetExceededError("budget exhausted before the subset search")
    if mode == "enumerate":
        # d* is cached now, so enumeration charges only its walk to left
        optima = enumerate_maxmin_optima(instance, m, cap=cap, budget=left)
        # max keeps the first best optimum, the lexicographically smallest
        chosen = max(optima, key=lambda sol: evaluate(upper_kind, instance, sol))
        count, truncated = len(optima), optima.truncated
    else:
        graph = build_threshold_graph(instance, d_star)
        best_combo, count, nodes, exhausted = _best_subset(
            instance.distances.tolist(), graph.adj, m, upper_kind,
            left.max_nodes, budget.deadline(start))
        if exhausted:
            raise BudgetExceededError(
                f"exact bi-level search exceeded budget after {nodes} nodes")
        chosen, truncated = Solution(best_combo), False
    return BiLevelResult(d_star=d_star, optima_enumerated=count,
                         truncated=truncated, upper_kind=upper_kind,
                         chosen=chosen,
                         upper_value=evaluate(upper_kind, instance, chosen))


def solve_model(instance: Instance, m: Optional[int], kind: ObjectiveKind,
                budget: Optional[SolverBudget] = None,
                maxmin_method: str = "improved") -> SolveResult:
    """Front door used by the CLI: route each model to its exact solver."""
    if kind is ObjectiveKind.MAXSUM:
        return solve_maxsum_bnb(instance, m, budget)
    if kind is ObjectiveKind.MAXMIN:
        if maxmin_method == "improved":
            return solve_maxmin_improved(instance, m, budget)
        if maxmin_method == "original":
            return solve_maxmin_original(instance, m, budget)
        raise ValueError(f"unknown maxmin method {maxmin_method!r}")
    return brute_force(instance, m, kind, budget)
