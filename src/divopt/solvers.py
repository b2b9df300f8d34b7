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
search over independent sets at the MaxMin optimum.  The exact bi-level
search and MaxMin enumeration run on one lexicographic subset walker,
_walk_subsets, with a pluggable prune.  MaxSum branch and bound has no
conflicts, so its candidates are always a suffix of the nodes, and it
walks those suffixes directly (_maxsum_walk).
Both MaxMin methods cache each optimum they prove on the instance; the
bi-level solver and MaxMin enumeration read d* from there, while the
MaxMin methods themselves always search.

Each public solver charges its whole call to one budget ledger, _Spend:
every node search calls its tick at each node, and only the ledger
decides when a search stops.  All searches are deterministic; ties break
to the lexicographically smallest index tuple.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass, replace
from enum import Enum
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

    ``max_nodes`` bounds the search nodes, where one subset scored by the
    brute-force oracle is one node, and ``time_limit`` the wall clock
    (seconds).
    Each limit holds over the whole call, however many searches it makes:
    all probes of a MaxMin solve, and the d* solve plus the subset walk of
    solve_bilevel and enumerate_maxmin_optima.  Every public solver opens
    one ledger, _Spend, which alone counts nodes and decides when a search
    stops; each search it runs gets what the ones before it left.  The
    subset walk counts only visited nodes: a branch with too few
    candidates, or in a walk with no bound one whose clique cover rules out
    an independent completion, is skipped unvisited and costs nothing.
    """

    max_nodes: Optional[int] = None
    time_limit: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("max_nodes", "time_limit"):
            v = getattr(self, name)
            if v is None:
                continue
            if name == "max_nodes" and (isinstance(v, bool)
                                        or not isinstance(v, int)):
                raise ValueError(f"budget field {name} must be an int, got {v!r}")
            if not v > 0:  # NaN too, which compares false with every limit
                raise ValueError(f"budget field {name} must be positive, got {v}")


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
    77 optima for MaxSum on gkd-d n60 m8 seed 0); divopt solve labels it
    ``optima`` or ``leaves`` accordingly."""

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
    """_Spend.tick stopped a search.  A search that keeps an incumbent
    stores it in incumbent on the way out (_best_subset, _maxsum_walk)."""

    incumbent = None


class _Spend:
    """The ledger of one solver call's budget, and the only place that
    counts search nodes and decides when a search stops.

    Every public solver opens one.  Its node searches call tick() at each
    node; a search it makes as a separate solve call goes through run(),
    gets the budget left() and is charged with the nodes that call
    reports.  So each limit holds over the whole call, however many
    searches it makes, and stats() reports the call's totals.
    """

    def __init__(self, budget: Optional[SolverBudget]) -> None:
        self.budget = budget or _NO_BUDGET
        self.start = time.perf_counter()
        max_nodes, time_limit = self.budget.max_nodes, self.budget.time_limit
        self.max_nodes = inf if max_nodes is None else max_nodes
        self.deadline = inf if time_limit is None else self.start + time_limit
        self.nodes = 0
        self.calls = 0

    def tick(self) -> None:
        """Count one search node; raise _Exhausted past max_nodes, or past
        the deadline, which is read only every 256 nodes."""
        self.nodes += 1
        if self.nodes > self.max_nodes or (
                not self.nodes & 255 and time.perf_counter() > self.deadline):
            raise _Exhausted

    def left(self) -> Optional[SolverBudget]:
        """The budget left for the next search; None once it ran out."""
        max_nodes, time_limit = self.budget.max_nodes, self.budget.time_limit
        if max_nodes is not None:
            max_nodes -= self.nodes
        if time_limit is not None:
            time_limit -= time.perf_counter() - self.start
        if any(left is not None and left <= 0 for left in (max_nodes, time_limit)):
            return None
        return replace(self.budget, max_nodes=max_nodes, time_limit=time_limit)

    def run(self, search: Callable[..., SolveResult],
            *args) -> Optional[SolveResult]:
        """search(*args, budget left), charged here; None, without a call,
        once nothing is left."""
        left = self.left()
        if left is None:
            return None
        result = search(*args, left)
        self.calls += 1
        self.nodes += result.stats.subsets_or_nodes_explored
        return result

    def stats(self, **fields) -> SearchStats:
        """SearchStats of what was charged here so far; fields override."""
        return SearchStats(**{"subsets_or_nodes_explored": self.nodes,
                              "decision_solves": self.calls,
                              "wall_time": time.perf_counter() - self.start,
                              **fields})


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


def _find_independent(cand: int, adj: tuple[int, ...], m: int,
                      tick: Callable[[], None]) -> Optional[int]:
    """An independent set of size m within cand, as bits, or None.

    tick() runs at every search node and may stop it by raising
    _Exhausted.  Branches on the candidate vertex of maximum degree within
    the candidate set, excluding it first; prunes when a greedy clique
    cover of the candidates has fewer cliques than picks are still needed.
    """
    # stack entries: (candidates, chosen, still_needed); exclude branch is
    # pushed last so it pops first
    stack = [(cand, 0, m)]
    while stack:
        cand, chosen, need = stack.pop()
        tick()
        if need == 0:
            return chosen
        if cand.bit_count() < need:
            continue
        # decisive on the infeasible side of the threshold
        if _clique_cover_size(cand, adj, need) < need:
            continue
        pick, maxdeg = _max_degree(cand, adj)
        if maxdeg == 0:
            # conflict-free candidates: lowest-index fill completes
            return chosen | _lowest_bits(cand, need)
        bit = 1 << pick
        stack.append((cand & ~(adj[pick] | bit), chosen | bit, need - 1))
        stack.append((cand ^ bit, chosen, need))
    return None


def feasible_subset(instance: Instance, l: float, m: int,
                    budget: Optional[SolverBudget] = None) -> SolveResult:
    """Decide whether some m-subset has all pairwise distances >= l.

    Equivalent to finding an independent set of size m in G(l).  Feasible
    results carry a witness; Infeasible means the search space was
    exhausted.
    """
    _validate_m(instance, m)
    spend = _Spend(budget)
    graph = build_threshold_graph(instance, l)
    status = SolveStatus.INFEASIBLE  # when no witness turns up
    try:
        bits = _find_independent((1 << graph.n) - 1, graph.adj, m, spend.tick)
    except _Exhausted:
        bits, status = None, SolveStatus.BUDGET_EXCEEDED
    stats = spend.stats(decision_solves=1)
    if bits is None:
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
    spend = _Spend(budget)
    graph = build_threshold_graph(instance, l)
    full = (1 << graph.n) - 1
    try:
        bits = _max_independent(full, graph.adj, spend.tick)
        status = SolveStatus.OPTIMAL
    except _Exhausted:
        bits = _greedy_independent(full, graph.adj)
        status = SolveStatus.FEASIBLE
    witness = Solution(_bits_to_nodes(bits))
    return SolveResult(ObjectiveKind.MAXMIN, status, witness,
                       float(len(witness)), spend.stats(decision_solves=1))


def _maxmin_result(instance: Instance, m: int, optimal: bool,
                   witness: Optional[Solution], spend: _Spend,
                   trace: Sequence[tuple], q_used: Optional[int] = None,
                   ) -> SolveResult:
    # without a witness the first m nodes stand in: every m-subset scores at
    # least d_min, and exactly d_min when that is the optimum
    if witness is None:
        witness = Solution(range(m))
    value = eval_maxmin(instance, witness)
    if optimal:
        instance._maxmin[m] = value  # read back by _optimum_graph only
    status = SolveStatus.OPTIMAL if optimal else SolveStatus.FEASIBLE
    return SolveResult(ObjectiveKind.MAXMIN, status, witness, value,
                       spend.stats(trace=tuple(trace), q_used=q_used))


def _optimum_graph(instance: Instance, m: int, spend: _Spend,
                   ) -> tuple[float, tuple[int, ...]]:
    """(d*, adjacency of G(d*)), for a walk on G(d*) that ticks spend.

    d* is the MaxMin optimum of (instance, m): the proven value cached on
    the instance at no cost, or one solve_maxmin_improved call charged to
    spend, which caches it.  Raises BudgetExceededError when that solve
    stops before it proves d*, or leaves nothing for the walk.
    """
    d_star = instance._maxmin.get(m)
    if d_star is None:
        base = spend.run(solve_maxmin_improved, instance, m)
        if base is None or base.status is not SolveStatus.OPTIMAL:
            raise BudgetExceededError("MaxMin optimum not proven within budget")
        d_star = base.value
    if spend.left() is None:
        raise BudgetExceededError("budget exhausted before the subset walk")
    return d_star, build_threshold_graph(instance, d_star).adj


def solve_maxmin_improved(instance: Instance, m: int,
                          budget: Optional[SolverBudget] = None) -> SolveResult:
    """Exact MaxMin via binary search over the distinct distances by index.

    The optimum is always a stored distance, so probing median spectrum
    values needs no epsilon: the bracket [values[lo], values[hi]) keeps a
    feasible left end and an infeasible right end until one value remains.
    Decision count is at most ceil(log2(#distinct)) + 1.
    """
    _validate_m(instance, m)
    spend = _Spend(budget)
    values = spectrum_stats(instance).distinct_values
    lo, hi = 0, len(values)  # values[lo] feasible; index hi infeasible
    witness: Optional[Solution] = None
    trace: list[tuple[float, bool]] = []
    while hi - lo > 1:
        mid = (lo + hi) // 2
        probe = spend.run(feasible_subset, instance, values[mid], m)
        if probe is None or probe.status is SolveStatus.BUDGET_EXCEEDED:
            break
        ok = probe.status is SolveStatus.FEASIBLE
        trace.append((values[mid], ok))
        if ok:
            lo = mid
            witness = probe.solution
        else:
            hi = mid
    # a budget stop leaves the bracket open
    return _maxmin_result(instance, m, hi - lo == 1, witness, spend, trace)


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
    spend = _Spend(budget)
    st = spectrum_stats(instance)
    values = st.distinct_values
    gap = st.min_positive_gap
    if gap is None:
        # flat spectrum: every m-subset scores d_min
        return _maxmin_result(instance, m, True, None, spend, ())
    q = default_subinterval_exponent(instance)
    lo = st.d_min
    hi = st.d_max + gap  # strictly above the optimum by construction
    witness: Optional[Solution] = None
    trace: list[tuple[float, int, bool]] = []

    def values_in_bracket() -> int:
        return bisect_left(values, hi) - bisect_left(values, lo)

    while values_in_bracket() > 1 and spend.calls <= q:
        mid = (lo + hi) / 2.0
        pack = spend.run(max_packing, instance, mid)
        if pack is None:
            break
        size = int(pack.value)
        feasible = size >= m
        if not feasible and pack.status is not SolveStatus.OPTIMAL:
            # a stopped packing below m decides nothing
            break
        # a stopped packing of size >= m still proves feasibility at mid
        trace.append((mid, size, feasible))
        if feasible:
            lo = mid
            witness = Solution(pack.solution.nodes[:m])
        else:
            hi = mid
    # a budget stop breaks before lo or hi moves; without a single value
    # isolated, the incumbent is only a bound
    isolated = values_in_bracket() == 1
    result = _maxmin_result(instance, m, isolated, witness, spend, trace, q)
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
    spend = _Spend(budget)
    z_star, adj = _optimum_graph(instance, m, spend)
    before = spend.nodes
    found: list[Solution] = []

    def leaf(chosen: list[int], cur: float) -> bool:
        found.append(Solution(chosen))
        return len(found) <= cap  # one past the cap proves truncation

    try:
        _walk_subsets(None, adj, m, leaf, spend.tick)
    except _Exhausted:
        raise BudgetExceededError(f"optima enumeration exceeded budget after "
                                  f"{spend.nodes - before} nodes") from None
    return OptimaEnumeration(solutions=tuple(found[:cap]),
                             truncated=len(found) > cap, value=z_star)


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
    """The best score of a brute-force walk and the first subset in walk
    order attaining it: by size, then lexicographically."""

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
                or (val > self.value if self.sense_max else val < self.value)):
            self.value, self.combo = val, combo
            return True
        return False


def _scored_blocks(instance: Instance, m: Optional[int], kind: ObjectiveKind,
                   spend: _Spend) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The brute-force walk over every m-subset (every non-empty subset for
    MaxMean): each block with its scores, each row charged to spend.nodes
    as one node.  MaxMean chooses its own subset size, so an m with it is
    refused (ValueError) rather than ignored.  Raises _Exhausted before the
    first block when the walk's subset count, C(n, m) or 2^n - 1, exceeds
    max_nodes, and past spend's deadline before any block after the
    first."""
    n = instance.n
    if kind is ObjectiveKind.MAXMEAN:
        if m is not None:
            raise ValueError(f"maxmean chooses its own subset size, so it "
                             f"takes no m (got m={m})")
        sizes, total = list(range(1, n + 1)), 2 ** n - 1
    elif m is None:
        raise ValueError(f"{kind.value} requires a subset size m")
    else:
        _validate_m(instance, m)
        sizes, total = [m], comb(n, m)
    if total > spend.max_nodes:
        raise _Exhausted
    for i, block in enumerate(_combination_blocks(n, sizes)):
        if i and time.perf_counter() > spend.deadline:
            raise _Exhausted
        spend.nodes += len(block)
        yield block, _score_block(instance.distances, block, kind)


def brute_force(instance: Instance, m: Optional[int], kind: ObjectiveKind,
                budget: Optional[SolverBudget] = None) -> SolveResult:
    """Exhaustive oracle: every m-subset (every subset for MaxMean, which
    takes no m).

    _combination_blocks hands out the subsets in lexicographic order, in
    blocks of up to _BLOCK_ROWS, from an (n, k) table unranked once per
    process when C(n, k) <= _TABLE_MAX_ROWS (2^17) and unranked block by
    block past that.  _score_block scores each block; its values equal the
    per-subset reference _score_plain bit for bit.  Each scored subset is
    one node: a walk of more subsets, C(n, m) or 2^n - 1 for MaxMean, than
    max_nodes is refused before its first block (status BudgetExceeded,
    no subset).  The time limit is checked before each block after the
    first, so a time-limited walk returns a Feasible subset.  Ties go to
    the first subset walked: the lexicographically smallest index tuple,
    and for MaxMean the smallest size first.
    """
    spend = _Spend(budget)
    best = _Incumbent(kind.sense is Sense.MAX)
    status = SolveStatus.OPTIMAL
    try:
        for block, scores in _scored_blocks(instance, m, kind, spend):
            best.offer(block, scores)
    except _Exhausted:
        # refused before its first block, or stopped by the clock after it
        if best.combo is None:
            return SolveResult(kind, SolveStatus.BUDGET_EXCEEDED, None, None,
                               spend.stats())
        status = SolveStatus.FEASIBLE
    sol = Solution(best.combo)
    return SolveResult(kind, status, sol, evaluate(kind, instance, sol),
                       spend.stats())


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
    differs from lexicographic.  brute_force keeps the first best subset
    of the same walk, so when the optima tie exactly it returns the first
    one listed here.

    Sum-type values match the optimum within relative tolerance
    ``_OPTIMA_REL_TOL``; MaxMin matches exactly (delegated to the
    threshold enumeration, which scales past brute force).

    One brute-force walk scores every subset once.  It keeps the rows whose
    score is within twice the tolerance of the running best; whether a row
    is optimal is monotone in its score, so it also drops a row once cap + 1
    earlier kept rows score at least as well.  The optimum is the evaluated
    brute-force incumbent, and the kept rows within tolerance of it are the
    optima.  Raises BudgetExceededError when the subset count exceeds
    max_nodes, before any subset is scored, or when the time limit passes
    before the walk ends.
    """
    if cap < 1:
        raise ValueError(f"cap must be positive, got {cap}")
    if kind is ObjectiveKind.MAXMIN:
        return enumerate_maxmin_optima(instance, m, cap=cap, budget=budget)
    spend = _Spend(budget)
    sense_max = kind.sense is Sense.MAX
    best = _Incumbent(sense_max)
    # (gain, score, subset) in walk order; gain is the score, negated when
    # minimising, so a higher gain is always better
    kept: list[tuple[float, float, list[int]]] = []
    floor = -inf  # lowest gain within twice the tolerance of the best
    cap_floor: Optional[float] = None  # lowest gain of kept[:cap + 1]
    try:
        for block, scores in _scored_blocks(instance, m, kind, spend):
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
        raise BudgetExceededError(f"optima enumeration exceeded budget after "
                                  f"{spend.nodes} nodes") from None
    opt = evaluate(kind, instance, Solution(best.combo))
    tol = _OPTIMA_REL_TOL * max(1.0, abs(opt))
    found = [Solution(nodes) for _, score, nodes in kept
             if abs(score - opt) <= tol]
    return OptimaEnumeration(solutions=tuple(found[:cap]),
                             truncated=len(found) > cap, value=opt)


def _walk_subsets(D: Optional[list[list[float]]], adj: Sequence[int], m: int,
                  leaf: Callable[[list[int], float], bool],
                  tick: Callable[[], None],
                  prune: Optional[Callable[..., bool]] = None) -> None:
    """Walk the m-subsets independent in adj depth first, lexicographically.

    The walk of MaxMin enumeration and exact bi-level; MaxSum B&B has no
    conflicts, so it walks suffixes on its own (_maxsum_walk).
    leaf(chosen, cur) gets each full subset with its MaxSum value cur and
    stops the walk by returning False.  prune(cur, gains, remaining, need)
    may cut a partial one: remaining are its candidates, gains[i] is the
    distance sum from remaining[i] into chosen (in pick order) and need the
    picks missing.  Without prune, D may be None and cur stays 0.0.
    tick() runs once at every visited node and stops the walk by raising
    _Exhausted; the caller's _Spend.tick makes the walk one more search of
    its call's budget.  A child with fewer candidates than it needs is
    skipped, not visited, and so costs no tick.
    A walk without prune lists every leaf, so it also skips a child that
    needs at least 2 more picks when a greedy clique cover of its
    candidates (_clique_cover_size) has fewer cliques than that: no
    independent completion lies below it, and the leaves and their order
    stay the same.  The walk with a prune, exact bi-level, keeps its node
    counts for now; it takes the skip once the benchmark runner no longer
    keeps every pass's fingerprints, which charges its faster passes to
    peak memory.
    The gains and prune wait for the first child that keeps enough: a node
    with none is left before they are computed, and is still visited and
    ticked once.
    """

    def rec(cand: int, chosen: list[int], cur: float) -> bool:
        tick()
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
    finally:
        del rec  # rec reaches itself through its closure cell: break the cycle


def _half_tops(D: list[list[float]], remaining: tuple[int, ...],
               need: int) -> list[float]:
    """Half the sum of each remaining[i]'s need - 1 largest distances to the
    other candidates (need >= 2): the part of the MaxSum completion bound
    that does not depend on the picks so far."""
    gather = itemgetter(*remaining)
    row = []
    for i, v in enumerate(remaining):
        others = list(gather(D[v]))
        del others[i]  # v itself
        others.sort(reverse=True)
        row.append(0.5 * sum(others[:need - 1]))
    return row


def _sum_completion_bound(D: list[list[float]], gains: Sequence[float],
                          remaining: tuple[int, ...], need: int) -> float:
    """Most that need more picks from remaining can add to a MaxSum value
    (the bound solve_maxsum_bnb describes); gains[i] is remaining[i]'s
    distance sum into the picks so far."""
    if need == 1:
        scores = list(gains)
    else:
        scores = list(map(add, gains, _half_tops(D, remaining, need)))
    scores.sort(reverse=True)
    return sum(scores[:need])


def _best_subset(D: list[list[float]], adj: Sequence[int], m: int,
                 upper_kind: ObjectiveKind, tick: Callable[[], None],
                 ) -> tuple[Optional[tuple[int, ...]], int]:
    """Lexicographically first best MaxSum or MaxMinSum m-subset independent
    in adj, pruned by the MaxSum completion bound or, for MaxMinSum, twice
    it over m (min <= mean of the contributions).  Returns (subset or None,
    leaves scored); when tick stops the walk, the _Exhausted it raises
    carries the best subset so far (or None) as its incumbent."""
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

    def prune(cur: float, gains: list[float], remaining: tuple[int, ...],
              need: int) -> bool:
        if best_combo is None:
            return False  # no incumbent for a bound to cut against
        bound = cur + _sum_completion_bound(D, gains, remaining, need)
        if not maxsum:
            bound = 2.0 * bound / m
        return bound <= best_val

    try:
        _walk_subsets(D, adj, m, leaf, tick, prune)
    except _Exhausted as stop:
        stop.incumbent = best_combo
        raise
    return best_combo, leaves


def _maxsum_walk(D: list[list[float]], m: int, tick: Callable[[], None],
                 ) -> tuple[int, ...]:
    """The lexicographically first best MaxSum m-subset, by depth-first
    branch and bound over suffixes (solve_maxsum_bnb).

    A node is (s, chosen, cur, gains): its candidates are range(s, n),
    cur is the MaxSum value of chosen and gains[i] the distance sum from
    s + i into chosen.  Its children pick v = s ... n - need in order; a
    child's gains add D[v][u] to the parent's, which is the D[u][v] a sum
    from scratch adds (Instance keeps distances exactly symmetric), so
    each sum adds the picks in pick order from 0.0, bit for bit as
    _best_subset's do.  Once there is an incumbent, a node is pruned on
    entry when cur plus the completion bound cannot beat it: the need
    largest of gains plus the (s, need) row of _half_tops, kept in a
    per-solve table, or at need 1 the largest gain alone.  tick() runs
    once at every node, leaves included, and stops the walk by raising
    _Exhausted, which then carries the best subset so far (or None) as
    its incumbent.
    """
    n = len(D)
    tops: dict[tuple[int, int], list[float]] = {}  # (s, need) -> _half_tops
    best_val = -inf
    best_combo: Optional[tuple[int, ...]] = None
    chosen: list[int] = []

    def rec(s: int, cur: float, gains: list[float]) -> None:
        nonlocal best_val, best_combo
        tick()
        need = m - len(chosen)
        if best_combo is not None:
            if need == 1:
                bound = cur + max(gains)
            else:
                row = tops.get((s, need))
                if row is None:
                    row = tops[s, need] = _half_tops(D, tuple(range(s, n)),
                                                     need)
                scores = list(map(add, gains, row))
                scores.sort(reverse=True)
                bound = cur + sum(scores[:need])
            if bound <= best_val:
                return
        if need == 1:
            # the children are leaves: one node each
            for v, gain in zip(range(s, n), gains):
                tick()
                if cur + gain > best_val:
                    best_val, best_combo = cur + gain, (*chosen, v)
            return
        for i in range(n - s - need + 1):
            v = s + i
            chosen.append(v)
            rec(v + 1, cur + gains[i], list(map(add, gains[i + 1:],
                                                D[v][v + 1:])))
            chosen.pop()

    try:
        rec(0, 0.0, [0.0] * n)
    except _Exhausted as stop:
        stop.incumbent = best_combo
        raise
    finally:
        del rec  # rec reaches itself through its closure cell: break the cycle
    return best_combo


def solve_maxsum_bnb(instance: Instance, m: int,
                     budget: Optional[SolverBudget] = None) -> SolveResult:
    """Exact MaxSum by depth-first branch and bound in index order.

    At a partial selection the bound adds, for each of the m-k best
    remaining candidates, its distance sum into the selection plus half its
    m-k-1 largest distances to other remaining candidates; no completion
    can exceed that.  MaxSum has no conflicts, so the candidates are always
    a suffix range(s, n) and the search walks suffixes directly
    (_maxsum_walk) rather than through the subset walker: each node's
    distance sums come from its parent's by one row, and the half-distance
    terms depend only on (s, m-k), so each such row is computed once per
    solve and kept in a table of at most n * m rows of at most n floats.
    """
    _validate_m(instance, m)
    spend = _Spend(budget)
    try:
        best_combo = _maxsum_walk(instance.distances.tolist(), m, spend.tick)
        status = SolveStatus.OPTIMAL
    except _Exhausted as stop:
        best_combo = stop.incumbent
        status = SolveStatus.FEASIBLE if best_combo is not None \
            else SolveStatus.BUDGET_EXCEEDED
    stats = spend.stats()
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
    it without charging the budget; when it is solved here, it and the
    subset search share one budget.
    """
    if upper_kind not in (ObjectiveKind.MAXSUM, ObjectiveKind.MAXMINSUM):
        raise ValueError(f"upper objective must be maxsum or maxminsum, "
                         f"got {upper_kind.value}")
    if mode not in ("enumerate", "exact"):
        raise ValueError(f"mode must be 'enumerate' or 'exact', got {mode!r}")
    if cap < 1:
        raise ValueError(f"cap must be positive, got {cap}")
    _validate_m(instance, m)
    if mode == "enumerate":
        # the enumeration charges d* and its walk to one budget
        optima = enumerate_maxmin_optima(instance, m, cap=cap, budget=budget)
        # max keeps the first best optimum, the lexicographically smallest
        chosen = max(optima, key=lambda sol: evaluate(upper_kind, instance, sol))
        d_star, count, truncated = optima.value, len(optima), optima.truncated
    else:
        spend = _Spend(budget)
        d_star, adj = _optimum_graph(instance, m, spend)
        before = spend.nodes
        try:
            best_combo, count = _best_subset(instance.distances.tolist(), adj,
                                             m, upper_kind, spend.tick)
        except _Exhausted:
            raise BudgetExceededError(
                f"exact bi-level search exceeded budget after "
                f"{spend.nodes - before} nodes") from None
        chosen, truncated = Solution(best_combo), False
    return BiLevelResult(d_star=d_star, optima_enumerated=count,
                         truncated=truncated, upper_kind=upper_kind,
                         chosen=chosen,
                         upper_value=evaluate(upper_kind, instance, chosen))


def solve_model(instance: Instance, m: Optional[int], kind: ObjectiveKind,
                budget: Optional[SolverBudget] = None,
                maxmin_method: str = "improved") -> SolveResult:
    """Front door used by the CLI: route each model to its exact solver.
    m is the subset size; MaxMean chooses its own and refuses one."""
    if kind is ObjectiveKind.MAXSUM:
        return solve_maxsum_bnb(instance, m, budget)
    if kind is ObjectiveKind.MAXMIN:
        if maxmin_method == "improved":
            return solve_maxmin_improved(instance, m, budget)
        if maxmin_method == "original":
            return solve_maxmin_original(instance, m, budget)
        raise ValueError(f"unknown maxmin method {maxmin_method!r}")
    return brute_force(instance, m, kind, budget)
