import dataclasses
import gc
import hashlib
import itertools
import math
import sys
import threading
import types
from array import array
from functools import partial
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divopt import (Family, GeneratorSpec, Instance, ObjectiveKind, Solution,
                    Sense, evaluate,
                    BudgetExceededError, SolveStatus, SolverBudget,
                    brute_force, build_threshold_graph,
                    default_subinterval_exponent, enumerate_maxmin_optima,
                    enumerate_optima, eval_maxmin, eval_maxsum,
                    feasible_subset, generate, max_packing, solve_bilevel,
                    solve_maxmin_improved, solve_maxmin_original,
                    solve_maxsum_bnb, solve_model, spectrum_stats)
from divopt import solvers
from divopt.instances import truncate
from divopt.solvers import (_BLOCK_ROWS, _TABLE_CACHE_BYTES, _bits_to_nodes,
                            _clique_cover, _combination_blocks,
                            _combination_table, _completion_bound,
                            _half_tops, _max_degree, _reduce_forced,
                            _score_block, _score_plain)


def _edges(graph):
    out = set()
    for i in range(graph.n):
        row = graph.adj[i]
        j = 0
        while row:
            if row & 1 and i < j:
                out.add((i, j))
            row >>= 1
            j += 1
    return out


# ---------------------------------------------------------------------------
# threshold graph and decision problem
# ---------------------------------------------------------------------------

def test_threshold_graph_t4(t4):
    g = build_threshold_graph(t4, 4.0)
    # strictly-below-threshold pairs only: d01=1, d02=2, d03=3
    assert _edges(g) == {(0, 1), (0, 2), (0, 3)}
    assert g.edge_count == 3
    assert build_threshold_graph(t4, 1.0).edge_count == 0
    assert build_threshold_graph(t4, 7.0).edge_count == 6


def test_feasible_subset_probes_t4(t4):
    yes = feasible_subset(t4, 4.0, 3)
    assert yes.status is SolveStatus.FEASIBLE
    assert tuple(yes.solution) == (1, 2, 3)
    assert eval_maxmin(t4, yes.solution) >= 4.0
    no = feasible_subset(t4, 5.0, 3)
    assert no.status is SolveStatus.INFEASIBLE
    assert no.solution is None


def test_max_packing_sizes_t4(t4):
    # v(l) for l walking up the spectrum: 4,3,3,3,2,2,1
    sizes = [max_packing(t4, l).value for l in (1.0, 2.0, 3.0, 4.0, 5.0,
                                                6.0, 6.5)]
    assert sizes == [4.0, 3.0, 3.0, 3.0, 2.0, 2.0, 1.0]


def test_max_packing_witness_is_independent(t4):
    res = max_packing(t4, 4.0)
    assert res.status is SolveStatus.OPTIMAL
    nodes = list(res.solution)
    for i, j in itertools.combinations(nodes, 2):
        assert t4.distances[i, j] >= 4.0


def test_packing_monotone_in_threshold(t4):
    # raising the threshold only removes packing options
    values = sorted(spectrum_stats(t4).distinct_values)
    sizes = [max_packing(t4, l).value for l in values]
    assert sizes == sorted(sizes, reverse=True)


def test_nan_threshold_rejected(t4):
    nan = float("nan")
    for call in (lambda: build_threshold_graph(t4, nan),
                 lambda: build_threshold_graph(t4, np.float64(nan)),
                 lambda: feasible_subset(t4, nan, 3),
                 lambda: max_packing(t4, nan)):
        with pytest.raises(ValueError, match="NaN"):
            call()


def test_infinite_thresholds_stay_valid(t4):
    # every pair is closer than +inf, none closer than -inf
    assert build_threshold_graph(t4, math.inf).edge_count == 6
    assert build_threshold_graph(t4, -math.inf).edge_count == 0
    assert max_packing(t4, math.inf).value == 1.0
    assert max_packing(t4, -math.inf).value == 4.0
    assert feasible_subset(t4, math.inf, 2).status is SolveStatus.INFEASIBLE
    assert feasible_subset(t4, -math.inf, 4).status is SolveStatus.FEASIBLE


# ---------------------------------------------------------------------------
# MaxMin, both methods
# ---------------------------------------------------------------------------

def test_improved_t4(t4):
    res = solve_maxmin_improved(t4, 3)
    assert res.status is SolveStatus.OPTIMAL
    assert res.value == 4.0
    assert tuple(res.solution) == (1, 2, 3)
    distinct = spectrum_stats(t4).distinct_count
    assert res.stats.decision_solves <= math.ceil(math.log2(distinct)) + 1


def test_improved_m_equals_n(t4):
    res = solve_maxmin_improved(t4, 4)
    assert res.status is SolveStatus.OPTIMAL
    assert res.value == 1.0  # the whole node set, so d_min


def test_original_t4(t4):
    res = solve_maxmin_original(t4, 3)
    assert res.status is SolveStatus.OPTIMAL
    assert res.value == 4.0
    assert eval_maxmin(t4, res.solution) == 4.0
    assert res.stats.q_used == default_subinterval_exponent(t4)
    assert res.stats.decision_solves <= res.stats.q_used + 1


def test_original_flat_spectrum(flat3):
    res = solve_maxmin_original(flat3, 2)
    assert res.status is SolveStatus.OPTIMAL
    assert res.value == 2.5
    assert res.stats.decision_solves == 0


def test_original_unit_square_single_probe(unit_square):
    # spectrum {1, sqrt2}: one midpoint probe lands exactly on sqrt2
    res = solve_maxmin_original(unit_square, 2)
    assert res.status is SolveStatus.OPTIMAL
    assert res.value == math.sqrt(2.0)
    assert res.stats.decision_solves == 1


def test_original_q_cap_degrades_to_feasible():
    # spectrum gap of 1e-300 forces the uncapped exponent past the cap
    d = np.zeros((3, 3))
    d[0, 1] = d[1, 0] = 1e-300
    d[0, 2] = d[2, 0] = 2e-300
    d[1, 2] = d[2, 1] = 10.0
    inst = Instance(name="pathological", family=Family.CUSTOM, distances=d)
    res = solve_maxmin_original(inst, 3)
    assert res.status is SolveStatus.FEASIBLE
    assert res.stats.q_used == 60
    assert res.stats.decision_solves <= 61
    assert res.value == 1e-300  # incumbent still evaluates to the true optimum


def test_methods_agree(t4, unit_square):
    for inst, m in ((t4, 2), (t4, 3), (t4, 4), (unit_square, 2),
                    (unit_square, 3)):
        a = solve_maxmin_improved(inst, m)
        b = solve_maxmin_original(inst, m)
        assert a.status is SolveStatus.OPTIMAL
        assert a.value == b.value


def test_improved_budget_downgrade(t4):
    res = solve_maxmin_improved(t4, 3, SolverBudget(max_nodes=1))
    assert res.status in (SolveStatus.FEASIBLE, SolveStatus.BUDGET_EXCEEDED)
    assert res.status is not SolveStatus.OPTIMAL


def test_optimum_in_spectrum_randoms():
    for seed in range(10):
        inst = generate(GeneratorSpec(family=Family.MDG, n=10, m=3, seed=seed))
        res = solve_maxmin_improved(inst, 3)
        assert res.value in spectrum_stats(inst).distinct_values


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumerate_maxmin_t4(t4):
    en = enumerate_maxmin_optima(t4, 3)
    assert en.value == 4.0
    assert not en.truncated
    assert [tuple(s) for s in en.solutions] == [(1, 2, 3)]


def test_enumerate_unit_square_two_diagonals(unit_square):
    en = enumerate_maxmin_optima(unit_square, 2)
    assert en.value == math.sqrt(2.0)
    assert [tuple(s) for s in en.solutions] == [(0, 3), (1, 2)]
    assert not en.truncated


def test_enumerate_cap_truncates(flat3):
    full = enumerate_maxmin_optima(flat3, 2)
    assert len(full) == 3 and not full.truncated
    capped = enumerate_maxmin_optima(flat3, 2, cap=2)
    assert len(capped) == 2 and capped.truncated
    # cap exactly met without a further optimum: not truncated
    exact = enumerate_maxmin_optima(flat3, 2, cap=3)
    assert len(exact) == 3 and not exact.truncated


def test_enumerate_lexicographic(flat3):
    en = enumerate_maxmin_optima(flat3, 2)
    assert [tuple(s) for s in en.solutions] == [(0, 1), (0, 2), (1, 2)]


def test_enumerate_all_solutions_hit_value(t4):
    for m in (2, 3):
        en = enumerate_maxmin_optima(t4, m)
        for s in en.solutions:
            assert eval_maxmin(t4, s) == en.value


def test_enumerate_optima_other_kinds(unit_square, t4):
    every_pair = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    every_triple = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    cases = [
        (t4, 2, ObjectiveKind.MAXSUM, [(2, 3)]),
        (t4, 3, ObjectiveKind.MAXSUM, [(1, 2, 3)]),
        (t4, 2, ObjectiveKind.MAXMINSUM, [(2, 3)]),
        (t4, 3, ObjectiveKind.MAXMINSUM, [(1, 2, 3)]),
        (t4, 2, ObjectiveKind.MINDIFF, every_pair),
        (t4, 3, ObjectiveKind.MINDIFF, [(1, 2, 3)]),
        (t4, None, ObjectiveKind.MAXMEAN, [(0, 1, 2, 3)]),
        (unit_square, 2, ObjectiveKind.MAXSUM, [(0, 3), (1, 2)]),
        (unit_square, 3, ObjectiveKind.MAXSUM, every_triple),
        (unit_square, 2, ObjectiveKind.MAXMINSUM, [(0, 3), (1, 2)]),
        (unit_square, 3, ObjectiveKind.MAXMINSUM, every_triple),
        (unit_square, 2, ObjectiveKind.MINDIFF, every_pair),
        (unit_square, 3, ObjectiveKind.MINDIFF, every_triple),
        (unit_square, None, ObjectiveKind.MAXMEAN, [(0, 1, 2, 3)]),
    ]
    for inst, m, kind, want in cases:
        en = enumerate_optima(inst, m, kind)
        assert [tuple(s) for s in en.solutions] == want, (inst.name, m, kind)
        assert not en.truncated
    en = enumerate_optima(t4, 2, ObjectiveKind.MINDIFF, cap=4)
    assert [tuple(s) for s in en.solutions] == every_pair[:4]
    assert en.truncated


def test_enumerate_budget_error(t4):
    with pytest.raises(BudgetExceededError):
        enumerate_maxmin_optima(t4, 3, budget=SolverBudget(max_nodes=1))


# ---------------------------------------------------------------------------
# brute force and MaxSum branch and bound
# ---------------------------------------------------------------------------

def test_brute_force_t4_all_kinds(t4):
    cases = [(ObjectiveKind.MAXSUM, 15.0, (1, 2, 3)),
             (ObjectiveKind.MAXMIN, 4.0, (1, 2, 3)),
             (ObjectiveKind.MAXMINSUM, 9.0, (1, 2, 3)),
             (ObjectiveKind.MINDIFF, 2.0, (1, 2, 3))]
    for kind, value, subset in cases:
        res = brute_force(t4, 3, kind)
        assert res.status is SolveStatus.OPTIMAL
        assert res.value == value
        assert tuple(res.solution) == subset


def test_brute_force_maxmean_free_size(t4):
    res = brute_force(t4, None, ObjectiveKind.MAXMEAN)
    assert res.value == 5.25
    assert tuple(res.solution) == (0, 1, 2, 3)


@pytest.mark.parametrize("call", [
    lambda inst: solve_model(inst, 3, ObjectiveKind.MAXMEAN),
    lambda inst: brute_force(inst, 3, ObjectiveKind.MAXMEAN),
    lambda inst: enumerate_optima(inst, 3, ObjectiveKind.MAXMEAN)],
    ids=["solve_model", "brute_force", "enumerate_optima"])
def test_maxmean_refuses_a_subset_size(t4, call):
    # MaxMean chooses its own size: an m was once ignored, and a 4-node
    # optimum came back for m = 3
    with pytest.raises(ValueError, match="maxmean chooses its own subset"):
        call(t4)


def test_brute_force_subset_budget(t4):
    res = brute_force(t4, 3, ObjectiveKind.MAXSUM,
                      SolverBudget(max_nodes=2))
    assert res.status is SolveStatus.BUDGET_EXCEEDED


def test_maxmean_subset_budget_counts_nonempty_subsets(t4):
    # MaxMean scores the 2^4 - 1 = 15 non-empty subsets of t4
    res = brute_force(t4, None, ObjectiveKind.MAXMEAN,
                      SolverBudget(max_nodes=15))
    assert res.status is SolveStatus.OPTIMAL
    assert res.stats.subsets_or_nodes_explored == 15
    res = brute_force(t4, None, ObjectiveKind.MAXMEAN,
                      SolverBudget(max_nodes=14))
    assert res.status is SolveStatus.BUDGET_EXCEEDED
    en = enumerate_optima(t4, None, ObjectiveKind.MAXMEAN,
                          budget=SolverBudget(max_nodes=15))
    assert [tuple(s) for s in en.solutions] == [(0, 1, 2, 3)]
    with pytest.raises(BudgetExceededError, match="after 0 nodes"):
        enumerate_optima(t4, None, ObjectiveKind.MAXMEAN,
                         budget=SolverBudget(max_nodes=14))


@pytest.mark.parametrize("kind, m, subsets", [
    (ObjectiveKind.MAXMINSUM, 6, math.comb(12, 6)),
    (ObjectiveKind.MAXMEAN, None, 2 ** 12 - 1)])
def test_brute_force_counts_each_subset_against_max_nodes(kind, m, subsets):
    # one scored subset is one node: a budget of exactly the subset count
    # finishes, and one less is refused before any subset is scored
    inst = generate(GeneratorSpec(family=Family.SOM, n=12, m=4, seed=0))
    full = brute_force(inst, m, kind)
    res = brute_force(inst, m, kind, SolverBudget(max_nodes=subsets))
    assert res.status is SolveStatus.OPTIMAL
    assert res.stats.subsets_or_nodes_explored == subsets
    assert (res.solution, res.value) == (full.solution, full.value)
    en = enumerate_optima(inst, m, kind,
                          budget=SolverBudget(max_nodes=subsets))
    assert en.solutions == enumerate_optima(inst, m, kind).solutions
    res = brute_force(inst, m, kind, SolverBudget(max_nodes=subsets - 1))
    assert res.status is SolveStatus.BUDGET_EXCEEDED
    assert res.stats.subsets_or_nodes_explored == 0
    assert (res.solution, res.value) == (None, None)
    with pytest.raises(BudgetExceededError,
                       match="^optima enumeration exceeded budget after "
                             "0 nodes$"):
        enumerate_optima(inst, m, kind,
                         budget=SolverBudget(max_nodes=subsets - 1))


def _tie_heavy(seed, n, values):
    rng = np.random.default_rng(seed)
    d = np.triu(rng.choice(values, size=(n, n)), 1)
    return Instance(name=f"ties{seed}", family=Family.CUSTOM, distances=d + d.T)


TIE_VALUES = [[0.0, 1.0, 2.0, 3.0], [0.1, 0.2, 0.30000000000000004],
              [0.1, 0.7, 1e16, 3.0]]


@pytest.mark.parametrize("kind", list(ObjectiveKind))
@pytest.mark.parametrize("values", TIE_VALUES)
def test_score_block_matches_plain_bit_for_bit(kind, values):
    for seed, (n, k) in enumerate([(9, 1), (9, 2), (10, 4), (12, 6), (8, 8)]):
        inst = _tie_heavy(seed, n, values)
        D = inst.distances.tolist()
        for block in _combination_blocks(n, [k]):
            got = _score_block(inst.distances, block, kind).tolist()
            want = [_score_plain(D, tuple(row), kind) for row in block.tolist()]
            assert got == want
            assert [v.hex() for v in got] == [v.hex() for v in want]


def _itertools_blocks(n, sizes):
    """The itertools walker _combination_blocks replaced: its reference."""
    for size in sizes:
        combos = itertools.combinations(range(n), size)
        while True:
            flat = np.fromiter(itertools.chain.from_iterable(
                itertools.islice(combos, _BLOCK_ROWS)), dtype=np.intp)
            if not flat.size:
                break
            yield flat.reshape(-1, size)


def test_combination_blocks_walk_combinations_in_order():
    # every size of n <= 20; 4096 rows is one whole block, 4097 one row
    # past it, 8192 two whole blocks
    cases = [(n, list(range(1, n + 1))) for n in range(1, 21)]
    for n, sizes in cases + [(4096, [1]), (4097, [1]), (8192, [1])]:
        got = list(_combination_blocks(n, sizes))
        ref = list(_itertools_blocks(n, sizes))
        assert [b.shape for b in got] == [b.shape for b in ref], n
        for block, want_block in zip(got, ref):
            assert block.dtype == np.intp
            assert len(block) <= _BLOCK_ROWS
            assert np.array_equal(block, want_block), (n, block.shape)


def test_combination_blocks_past_int64():
    assert math.comb(70, 35) > 2 ** 63
    first = next(_combination_blocks(70, [35]))
    assert first.dtype == np.intp
    want = list(itertools.islice(itertools.combinations(range(70), 35),
                                 _BLOCK_ROWS))
    assert [tuple(r) for r in first.tolist()] == want
    inst = generate(GeneratorSpec(family=Family.MDG, n=70, m=35, seed=4))
    res = brute_force(inst, 35, ObjectiveKind.MAXSUM,
                      SolverBudget(time_limit=1e-9))
    assert res.status is SolveStatus.FEASIBLE
    nodes = tuple(res.solution)
    assert len(set(nodes)) == 35 and all(0 <= v < 70 for v in nodes)
    assert res.value == evaluate(ObjectiveKind.MAXSUM, inst, res.solution)
    assert 0 < res.stats.subsets_or_nodes_explored <= _BLOCK_ROWS


def _spy_unrank(monkeypatch):
    """Record (n, k) of every _unrank_blocks call."""
    calls = []
    unrank = solvers._unrank_blocks

    def spy(n, k):
        calls.append((n, k))
        return unrank(n, k)

    monkeypatch.setattr(solvers, "_unrank_blocks", spy)
    return calls


def _assert_same_blocks_twice(n, k):
    ref = list(_itertools_blocks(n, [k]))
    for _ in range(2):
        got = list(_combination_blocks(n, [k]))
        assert [b.shape for b in got] == [b.shape for b in ref], (n, k)
        for block, want_block in zip(got, ref):
            assert block.dtype == np.intp
            assert np.array_equal(block, want_block), (n, k)


def test_combination_blocks_at_the_table_byte_limit(monkeypatch):
    # C(n, 1) = n rows of uint32 past n = 2^16: n = 2^19 fills the byte
    # limit exactly and is kept, one more row is not built at all
    _combination_table.cache_clear()
    calls = _spy_unrank(monkeypatch)
    assert _TABLE_CACHE_BYTES == 2 ** 19 * 4
    assert _combination_table(2 ** 19, 1).nbytes == _TABLE_CACHE_BYTES
    assert _combination_table(2 ** 19 + 1, 1) is None
    assert calls == [(2 ** 19, 1)]
    # several columns, with the limit moved onto C(20, 6) = 38760 rows of
    # 6 bytes: a table at the limit is unranked once and kept, one a byte
    # over it is unranked on each walk
    _combination_table.cache_clear()
    calls.clear()
    nbytes = math.comb(20, 6) * 6
    monkeypatch.setattr(solvers, "_TABLE_CACHE_BYTES", nbytes)
    _assert_same_blocks_twice(20, 6)
    assert _combination_table.nbytes == nbytes
    _combination_table.cache_clear()
    monkeypatch.setattr(solvers, "_TABLE_CACHE_BYTES", nbytes - 1)
    _assert_same_blocks_twice(20, 6)
    assert _combination_table.nbytes == 0
    assert calls == [(20, 6)] * 3
    _combination_table.cache_clear()


def test_combination_tables_are_read_only():
    table = _combination_table(10, 3)
    assert table.dtype == np.uint8
    assert table.shape == (120, 3)
    with pytest.raises(ValueError):
        table[0, 0] = 9
    # handed-out blocks are copies: writing into one leaves the table as is
    block = next(_combination_blocks(10, [3]))
    block[:] = 0
    assert np.array_equal(next(_combination_blocks(10, [3])),
                          next(_itertools_blocks(10, [3])))
    assert _combination_table(300, 1).dtype == np.uint16


def test_combination_tables_unranked_once_per_process(monkeypatch):
    # one MaxMean n=14 walk (14 tables) then a (25, 5) solve, twice over
    _combination_table.cache_clear()
    calls = _spy_unrank(monkeypatch)
    small = _tie_heavy(3, 14, [1.0, 2.0])
    inst = generate(GeneratorSpec(family=Family.MDG, n=25, m=5, seed=0))
    for _ in range(2):
        brute_force(small, None, ObjectiveKind.MAXMEAN)
        brute_force(inst, 5, ObjectiveKind.MINDIFF)
    assert calls == [(14, k) for k in range(1, 15)] + [(25, 5)]
    # the model-compare tables stay under half a MiB
    assert _combination_table.nbytes == 14 * 2 ** 13 + 5 * math.comb(25, 5)
    assert _combination_table.nbytes <= 2 ** 19


def test_combination_table_cache_is_bounded(monkeypatch):
    _combination_table.cache_clear()
    calls = _spy_unrank(monkeypatch)
    monkeypatch.setattr(solvers, "_TABLE_CACHE_ENTRIES", 2)
    for k in (2, 3, 2, 4, 2, 3):
        _combination_table(12, k)
    # (12, 3) is the least recently used when (12, 4) comes in
    assert [k for _, k in calls] == [2, 3, 4, 3]
    _combination_table.cache_clear()
    calls.clear()
    # C(12, 4) = 495 rows of 4 bytes: a byte bound of 2000 holds one, and
    # C(12, 8) = 495 rows of 8 bytes is never built
    monkeypatch.setattr(solvers, "_TABLE_CACHE_ENTRIES", 32)
    monkeypatch.setattr(solvers, "_TABLE_CACHE_BYTES", 2000)
    for k in (4, 4, 8, 4):
        _combination_table(12, k)
    assert _combination_table(12, 8) is None
    assert [k for _, k in calls] == [4]
    assert _combination_table.nbytes == 4 * 495
    _combination_table.cache_clear()


def test_a_table_over_the_byte_limit_evicts_nothing(monkeypatch):
    # a table too large to keep once was built, pushed the cache over its
    # byte bound and so evicted every table, itself included: the next
    # (12, 4) walk unranked again
    _combination_table.cache_clear()
    calls = _spy_unrank(monkeypatch)
    monkeypatch.setattr(solvers, "_TABLE_CACHE_BYTES", 2000)
    for k in (4, 8, 4):
        got = list(_combination_blocks(12, [k]))
        want = list(_itertools_blocks(12, [k]))
        assert [b.tolist() for b in got] == [b.tolist() for b in want]
    assert calls == [(12, 4), (12, 8)]
    assert list(_combination_table._tables) == [(12, 4)]
    _combination_table.cache_clear()


def test_combination_table_cache_shared_by_threads(monkeypatch):
    # more threads than cores walk tables that evict each other
    monkeypatch.setattr(solvers, "_TABLE_CACHE_ENTRIES", 3)
    _combination_table.cache_clear()
    cases = [(n, k) for n in (9, 10, 11) for k in (2, 3, 4)]
    want = {(n, k): np.concatenate(list(_itertools_blocks(n, [k])))
            for n, k in cases}
    errors = []

    def walk(offset):
        try:
            for i in range(40):
                n, k = cases[(i + offset) % len(cases)]
                got = np.concatenate(list(_combination_blocks(n, [k])))
                if not np.array_equal(got, want[n, k]):
                    errors.append((n, k))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    held = _combination_table._tables
    assert len(held) <= 3
    assert _combination_table.nbytes == sum(t.nbytes for t in held.values())
    _combination_table.cache_clear()


@pytest.mark.parametrize("kind", list(ObjectiveKind))
def test_brute_force_same_after_cache_clear(kind):
    def run():
        out = []
        for inst in _brute_force_cases():
            m = 5
            if kind is ObjectiveKind.MAXMEAN:
                m, inst = None, truncate(inst, min(inst.n, 14))
            res = brute_force(inst, m, kind)
            out.append((res.status, res.value.hex(), tuple(res.solution),
                        res.stats.subsets_or_nodes_explored))
        return out

    warm = run()
    assert run() == warm
    _combination_table.cache_clear()
    assert run() == warm


def _brute_force_cases():
    ties = [_tie_heavy(3, 16, values) for values in TIE_VALUES]
    generated = [generate(GeneratorSpec(family=fam, n=25, m=5, seed=seed))
                 for seed, fam in enumerate([Family.GKD_D, Family.MDG,
                                             Family.SOM])]
    return ties + generated


@pytest.mark.parametrize("kind", list(ObjectiveKind))
def test_brute_force_same_as_with_itertools_blocks(kind, monkeypatch):
    results = {}
    for walker in (_combination_blocks, _itertools_blocks):
        monkeypatch.setattr(solvers, "_combination_blocks", walker)
        out = []
        for inst in _brute_force_cases():
            m = 5
            if kind is ObjectiveKind.MAXMEAN:
                # every subset of 25 nodes is 2^25; score those of 14
                m, inst = None, truncate(inst, min(inst.n, 14))
            res = brute_force(inst, m, kind)
            assert res.status is SolveStatus.OPTIMAL
            out.append((res.value.hex(), tuple(res.solution),
                        res.stats.subsets_or_nodes_explored))
        results[walker] = out
    assert results[_combination_blocks] == results[_itertools_blocks]


@pytest.mark.parametrize("kind", list(ObjectiveKind))
@pytest.mark.parametrize("values", [[1.0, 2.0], [1.0]])
def test_brute_force_ties_go_to_lex_smallest(kind, values):
    # few distinct values over C(16, 5) = 4368 subsets, past one block;
    # MaxMean walks the sizes in turn, so its ties go to the smallest size
    inst = _tie_heavy(3, 16, values)
    m = None if kind is ObjectiveKind.MAXMEAN else 5
    sizes = range(1, 17) if m is None else [m]
    D = inst.distances.tolist()
    scored = [(_score_plain(D, c, kind), c) for size in sizes
              for c in itertools.combinations(range(16), size)]
    pick = max if kind.sense is Sense.MAX else min
    best = pick(v for v, _ in scored)
    res = brute_force(inst, m, kind)
    assert res.status is SolveStatus.OPTIMAL
    assert tuple(res.solution) == min((c for v, c in scored if v == best),
                                      key=lambda c: (len(c), c))
    assert res.stats.subsets_or_nodes_explored == len(scored)


def test_brute_force_time_limit_gives_feasible_subset():
    inst = generate(GeneratorSpec(family=Family.MDG, n=20, m=6, seed=1))
    res = brute_force(inst, 6, ObjectiveKind.MINDIFF,
                      SolverBudget(time_limit=1e-9))
    assert res.status is SolveStatus.FEASIBLE
    assert len(res.solution) == 6
    assert res.value == evaluate(ObjectiveKind.MINDIFF, inst, res.solution)
    assert 0 < res.stats.subsets_or_nodes_explored < math.comb(20, 6)


def test_enumerate_optima_budgets(t4):
    with pytest.raises(BudgetExceededError, match="after 0 nodes"):
        enumerate_optima(t4, 3, ObjectiveKind.MAXSUM,
                         budget=SolverBudget(max_nodes=3))
    inst = generate(GeneratorSpec(family=Family.MDG, n=20, m=6, seed=1))
    with pytest.raises(BudgetExceededError, match="exceeded budget after"):
        enumerate_optima(inst, 6, ObjectiveKind.MINDIFF,
                         budget=SolverBudget(time_limit=1e-9))
    en = enumerate_optima(t4, 3, ObjectiveKind.MAXSUM,
                          budget=SolverBudget(max_nodes=4))
    assert [tuple(s) for s in en.solutions] == [(1, 2, 3)]


def test_enumerate_optima_checks_the_deadline_between_blocks(monkeypatch):
    # C(16, 5) = 4368 subsets make two blocks; the clock passes the
    # deadline right after the start, so only the first block is scored
    clock = iter(itertools.chain([0.0], itertools.repeat(5.0)))
    monkeypatch.setattr(solvers, "time",
                        types.SimpleNamespace(perf_counter=lambda: next(clock)))
    scored = []
    score = solvers._score_block

    def spy(D, block, kind):
        scored.append(len(block))
        return score(D, block, kind)

    monkeypatch.setattr(solvers, "_score_block", spy)
    inst = _tie_heavy(3, 16, [1.0, 2.0])
    with pytest.raises(BudgetExceededError,
                       match=f"exceeded budget after {_BLOCK_ROWS} nodes"):
        enumerate_optima(inst, 5, ObjectiveKind.MAXSUM,
                         budget=SolverBudget(time_limit=1.0))
    assert scored == [_BLOCK_ROWS]
    # a one-block walk is never stopped
    clock = iter(itertools.chain([0.0], itertools.repeat(5.0)))
    en = enumerate_optima(_tie_heavy(3, 9, [1.0, 2.0]), 4,
                          ObjectiveKind.MAXSUM,
                          budget=SolverBudget(time_limit=1.0))
    assert en.solutions


def _two_walk_enumerate_optima(instance, m, kind, cap):
    """enumerate_optima as it was before it took one walk: brute force for
    the optimum, then a second walk for every row within tolerance."""
    opt = brute_force(instance, m, kind).value
    tol = solvers._OPTIMA_REL_TOL * max(1.0, abs(opt))
    sizes = range(1, instance.n + 1) if m is None else [m]
    found = []
    for block in _itertools_blocks(instance.n, sizes):
        hits = np.abs(_score_block(instance.distances, block, kind) - opt) <= tol
        for row in np.flatnonzero(hits):
            if len(found) == cap:
                return found, True, opt
            found.append(tuple(block[row].tolist()))
    return found, False, opt


# distances 1e-9 apart put subset scores inside and just outside the
# tolerance of the optimum
NEAR_TIE_VALUES = [1.0, 1.0 + 1e-9, 1.0 + 2e-9, 1.0 + 3e-9]


@pytest.mark.parametrize("kind", [ObjectiveKind.MAXSUM,
                                  ObjectiveKind.MAXMINSUM,
                                  ObjectiveKind.MINDIFF,
                                  ObjectiveKind.MAXMEAN])
@pytest.mark.parametrize("values", TIE_VALUES + [[1.0, 2.0], [1.0],
                                                 NEAR_TIE_VALUES])
def test_enumerate_optima_one_walk_same_as_two_walks(kind, values):
    # n = 16, m = 5 is 4368 subsets, past one block; MaxMean takes n = 12
    cases = [(16, 5), (11, 4)] if kind is not ObjectiveKind.MAXMEAN else \
        [(12, None), (8, None)]
    for seed in range(3):
        for n, m in cases:
            inst = _tie_heavy(seed, n, values)
            for cap in (1, 2, 7, 100, solvers.DEFAULT_OPTIMA_CAP):
                en = enumerate_optima(inst, m, kind, cap=cap)
                want = _two_walk_enumerate_optima(inst, m, kind, cap)
                got = ([tuple(s) for s in en.solutions], en.truncated,
                       en.value)
                assert got == want, (seed, n, m, cap)


def test_maxmean_optima_listed_by_size_then_lexicographically():
    # enumerate_optima lists MaxMean optima size by size, and brute_force
    # keeps the first best subset of the same walk: the smaller optimum,
    # though (0, 1, 2, 4, 5) is the smaller tuple
    inst = _tie_heavy(2, 6, [0.0, 1.0, 2.0])
    en = enumerate_optima(inst, None, ObjectiveKind.MAXMEAN)
    assert [tuple(s) for s in en] == [(0, 1, 4, 5), (0, 1, 2, 4, 5)]
    assert en.value == 2.0 and not en.truncated
    res = brute_force(inst, None, ObjectiveKind.MAXMEAN)
    assert (tuple(res.solution), res.value) == ((0, 1, 4, 5), 2.0)


@pytest.mark.parametrize("kind", list(ObjectiveKind))
def test_brute_force_returns_the_first_listed_optimum(kind):
    # zero-heavy integer distances tie optima exactly, across sizes for
    # MaxMean; C(11, 4) = 330 subsets, or 2^6 - 1 and 2^8 - 1 for MaxMean
    cases = [(6, None), (8, None)] if kind is ObjectiveKind.MAXMEAN \
        else [(11, 4)]
    tied = 0
    for seed in range(20):
        for values in ([0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 1.0, 2.0]):
            for n, m in cases:
                inst = _tie_heavy(seed, n, values)
                en = enumerate_optima(inst, m, kind)
                res = brute_force(inst, m, kind)
                assert (res.solution, res.value) == (en.solutions[0],
                                                     en.value)
                tied += len(en) > 1
    assert tied >= 10


def test_maxsum_bnb_t4(t4):
    res = solve_maxsum_bnb(t4, 3)
    assert res.status is SolveStatus.OPTIMAL
    assert res.value == 15.0
    assert tuple(res.solution) == (1, 2, 3)


def test_maxsum_bnb_node_budget(t4):
    res = solve_maxsum_bnb(t4, 3, SolverBudget(max_nodes=1))
    assert res.status in (SolveStatus.FEASIBLE, SolveStatus.BUDGET_EXCEEDED)


@given(seed=st.integers(0, 10_000), n=st.integers(5, 9), m=st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_bnb_matches_brute(seed, n, m):
    inst = generate(GeneratorSpec(family=Family.MDG, n=n, m=min(m, n - 1),
                                  seed=seed))
    m = min(m, n - 1)
    a = solve_maxsum_bnb(inst, m)
    b = brute_force(inst, m, ObjectiveKind.MAXSUM)
    assert a.value == pytest.approx(b.value, rel=1e-12)
    assert tuple(a.solution) == tuple(b.solution)  # both lex-smallest


@given(seed=st.integers(0, 10_000), n=st.integers(5, 10), m=st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_maxmin_matches_brute(seed, n, m):
    m = min(m, n - 1)
    inst = generate(GeneratorSpec(family=Family.SOM, n=n, m=m, seed=seed))
    fast = solve_maxmin_improved(inst, m)
    slow = brute_force(inst, m, ObjectiveKind.MAXMIN)
    assert fast.value == slow.value
    other = solve_maxmin_original(inst, m)
    assert other.value == slow.value


@pytest.mark.parametrize("family,n,m,seed", [
    ("gkd-d", 60, 8, 1), ("gkd-d", 100, 10, 13), ("gkd-d", 150, 10, 5),
    ("gkd", 80, 10, 2), ("gkd", 120, 10, 9), ("gkd", 150, 10, 10),
    ("mdg", 60, 6, 4), ("mdg", 100, 10, 3), ("mdg", 150, 10, 7),
    ("som", 80, 8, 11), ("som", 120, 10, 4), ("som", 150, 15, 8)])
def test_maxmin_optimal_by_independent_clique_oracle(family, n, m, seed):
    # beyond brute-force sizes: z* is optimal when the witness scores z* and
    # no m-subset keeps every distance >= z+, the next distinct value, i.e.
    # when the largest clique of "d >= z+" (networkx, sharing no code with
    # divopt's searches) has fewer than m nodes
    nx = pytest.importorskip("networkx")
    inst = generate(GeneratorSpec(family=Family.from_string(family), n=n, m=m,
                                  seed=seed))
    res = solve_maxmin_improved(inst, m)
    assert res.status is SolveStatus.OPTIMAL
    d = inst.distances
    witness = list(res.solution)
    assert len(set(witness)) == m
    assert d[np.ix_(witness, witness)][np.triu_indices(m, 1)].min() == res.value
    values = np.unique(d[np.triu_indices(n, 1)])
    above = values[values > res.value]
    assert len(above)  # z* is below the largest distance on all of these
    far = nx.Graph()
    far.add_nodes_from(range(n))
    far.add_edges_from(zip(*(ix.tolist() for ix in
                              np.nonzero(np.triu(d >= above[0], 1)))))
    _, alpha = nx.max_weight_clique(far, weight=None)
    assert alpha < m


# ---------------------------------------------------------------------------
# bi-level
# ---------------------------------------------------------------------------

def test_bilevel_t4(t4):
    res = solve_bilevel(t4, 3, ObjectiveKind.MAXSUM)
    assert res.d_star == 4.0
    assert res.upper_value == 15.0
    assert tuple(res.chosen) == (1, 2, 3)
    assert res.optima_enumerated == 1
    assert not res.truncated


def test_bilevel_modes_agree(t4, unit_square):
    for inst, m in ((t4, 3), (unit_square, 2)):
        for upper in (ObjectiveKind.MAXSUM, ObjectiveKind.MAXMINSUM):
            a = solve_bilevel(inst, m, upper, mode="enumerate")
            b = solve_bilevel(inst, m, upper, mode="exact")
            assert a.d_star == b.d_star
            assert a.upper_value == pytest.approx(b.upper_value, rel=1e-12)
            assert tuple(a.chosen) == tuple(b.chosen)


def test_bilevel_sandwich(t4):
    res = solve_bilevel(t4, 3, ObjectiveKind.MAXSUM)
    assert eval_maxmin(t4, res.chosen) == res.d_star
    plain_maxmin = solve_maxmin_improved(t4, 3)
    plain_maxsum = solve_maxsum_bnb(t4, 3)
    assert eval_maxsum(t4, plain_maxmin.solution) <= res.upper_value + 1e-9
    assert res.upper_value <= plain_maxsum.value + 1e-9


def test_bilevel_rejects_bad_upper(t4):
    with pytest.raises(ValueError):
        solve_bilevel(t4, 3, ObjectiveKind.MAXMIN)
    with pytest.raises(ValueError):
        solve_bilevel(t4, 3, ObjectiveKind.MAXSUM, mode="nope")


def test_recursive_searches_leave_no_garbage_cycles():
    # the rec of _walk_subsets and _maxsum_walk and _max_independent's bb
    # reach themselves through their closure cells; each call must break
    # that cycle, or the walk's distance rows stay alive until the next
    # full collection
    small = generate(GeneratorSpec(family=Family.MDG, n=25, m=5, seed=1))
    planar = generate(GeneratorSpec(family=Family.GKD_D, n=40, m=6, seed=0))
    values = spectrum_stats(small).distinct_values
    calls = [
        lambda: solve_maxsum_bnb(small, 5),
        lambda: solve_bilevel(planar, 6, ObjectiveKind.MAXSUM, mode="exact"),
        lambda: solve_bilevel(planar, 6, ObjectiveKind.MAXMINSUM,
                              mode="exact"),
        lambda: solve_bilevel(planar, 6, ObjectiveKind.MAXSUM,
                              mode="enumerate"),
        lambda: solve_bilevel(planar, 6, ObjectiveKind.MAXMINSUM,
                              mode="enumerate"),
        lambda: enumerate_maxmin_optima(small, 5),
        lambda: max_packing(small, values[len(values) // 2]),
    ]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@given(seed=st.integers(0, 5_000))
@settings(max_examples=20, deadline=None)
def test_bilevel_sandwich_random(seed):
    inst = generate(GeneratorSpec(family=Family.GKD_D, n=9, m=3, seed=seed))
    res = solve_bilevel(inst, 3, ObjectiveKind.MAXSUM)
    assert eval_maxmin(inst, res.chosen) == res.d_star
    best_sum = solve_maxsum_bnb(inst, 3).value
    assert res.upper_value <= best_sum + 1e-9


# ---------------------------------------------------------------------------
# subset walker: MaxSum B&B, exact bi-level and MaxMin enumeration
# ---------------------------------------------------------------------------

def _generator_sort_bound(D, chosen, remaining, need):
    # the completion bound as a generator over each row and a sort
    scores = []
    for v in remaining:
        row = D[v]
        to_chosen = 0.0
        for s in chosen:
            to_chosen += row[s]
        others = sorted((row[u] for u in remaining if u != v), reverse=True)
        scores.append(to_chosen + 0.5 * sum(others[:need - 1]))
    scores.sort(reverse=True)
    return sum(scores[:need])


@pytest.mark.parametrize("values", TIE_VALUES)
def test_sum_completion_bound_bit_identical(values):
    rng = np.random.default_rng(5)
    checked = 0
    for seed in range(12):
        n = int(rng.integers(6, 16))
        A = _tie_heavy(seed, n, values).distances
        D = A.tolist()
        for _ in range(25):
            order = [int(v) for v in rng.permutation(n)]
            k = int(rng.integers(0, n - 1))
            chosen = order[:k]
            # sparse, sorted candidate sets, down to exactly need of them
            pool = sorted(order[k:])
            r = int(rng.integers(1, len(pool) + 1))
            remaining = tuple(sorted(int(v) for v in
                                     rng.choice(pool, size=r, replace=False)))
            gains = []
            for v in remaining:
                gain = 0.0
                for s in chosen:
                    gain += D[v][s]
                gains.append(gain)
            # one call fills the rows of every need, as MaxSum B&B's does
            rows = _half_tops(A, remaining, range(2, r + 1)) if r > 1 else []
            for need in sorted({1, r, int(rng.integers(1, r + 1))}):
                tops = rows[need - 2] if need > 1 else None
                if need > 1:
                    alone = _half_tops(A, remaining, (need,))[0]
                    assert alone.tobytes() == tops.tobytes()
                got = _completion_bound(gains, tops, need)
                want = _generator_sort_bound(D, chosen, remaining, need)
                assert got.hex() == want.hex(), (seed, chosen, remaining, need)
                checked += 1
    assert checked > 600


def _python_half_tops(D, remaining, needs):
    # _half_tops as a Python fill, one row per need: gather each candidate's
    # distances to the candidates, drop its own, sort them descending and
    # halve the sum of the need - 1 largest
    gather = itemgetter(*remaining)
    tops = []
    for i, v in enumerate(remaining):
        others = list(gather(D[v]))
        del others[i]
        others.sort(reverse=True)
        tops.append(others)
    return [[0.5 * sum(others[:need - 1]) for others in tops]
            for need in needs]


# (family, n, seed, tie values): random, integer (som draws 0..9) and
# tie-heavy distance matrices, the last two mostly zeros
HALF_TOPS_SOURCES = [
    ("gkd-d", 24, 0, None), ("mdg", 24, 1, None), ("som", 24, 2, None),
    ("ties", 18, 3, TIE_VALUES[0]), ("ties", 18, 4, TIE_VALUES[1]),
    ("ties", 18, 5, TIE_VALUES[2]), ("ties", 18, 6, [0.0] * 4 + [1.0]),
    ("ties", 18, 7, [0.0] * 7 + [0.1, 0.2])]


@pytest.mark.parametrize("source", HALF_TOPS_SOURCES,
                         ids=lambda source: "-".join(map(str, source[:3])))
def test_half_tops_same_as_python_fill(source):
    # the numpy fill gives the Python fill's bits for candidate sets of
    # every size, drawn and suffixes, one need at a time (as exact bi-level
    # asks) and for ascending need ranges (as MaxSum B&B asks per suffix)
    family, n, seed, values = source
    inst = _tie_heavy(seed, n, values) if values else \
        _generate((family, n, 2, seed))
    A, D = inst.distances, inst.distances.tolist()
    rng = np.random.default_rng(seed)
    checked = 0
    for r in range(2, n + 1):
        drawn = tuple(sorted(int(v) for v in
                             rng.choice(n, size=r, replace=False)))
        calls = [(need,) for need in range(2, r + 1)]
        calls += [range(2, top + 1) for top in range(3, r + 1)]
        calls += [range(low, r + 1) for low in range(3, r)]
        for remaining in (drawn, tuple(range(n - r, n))):
            for needs in calls:
                got = [row.tobytes() for row in _half_tops(A, remaining,
                                                           needs)]
                want = [array("d", row).tobytes() for row in
                        _python_half_tops(D, remaining, needs)]
                assert got == want, (remaining, list(needs))
                checked += 1
    assert checked > 2 * n * n


def _walked_value(D, chosen, combo):
    # the MaxSum value a walk reaches by picking combo after chosen: each
    # pick adds its distance sum into the picks before it, in pick order
    value, picked = 0.0, []
    for v in (*chosen, *combo):
        gain = 0.0
        for s in picked:
            gain += D[v][s]
        value += gain
        picked.append(v)
    return value


@given(seed=st.integers(0, 10_000), n=st.integers(3, 10),
       family=st.sampled_from(["gkd-d", "gkd", "mdg", "som"]),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_completion_bound_is_admissible(seed, n, family, data):
    # no completion from the candidates beats cur + the bound, so both
    # walks that prune on it (MaxSum B&B, exact bi-level) stay exact; a
    # tight bound (say every candidate needed) is exact in real numbers
    # but may round a few ulps below the walked value
    A = _generate((family, n, 2, seed)).distances
    D = A.tolist()
    order = data.draw(st.permutations(range(n)))
    k = data.draw(st.integers(0, n - 1))
    chosen = order[:k]
    remaining = tuple(sorted(data.draw(st.lists(
        st.sampled_from(order[k:]), min_size=1, unique=True))))
    cur = _walked_value(D, chosen, ())
    gains = []
    for v in remaining:
        gain = 0.0
        for s in chosen:
            gain += D[v][s]
        gains.append(gain)
    needs = range(2, len(remaining) + 1)
    rows = _half_tops(A, remaining, needs) if needs else []
    for need in range(1, len(remaining) + 1):
        tops = rows[need - 2] if need > 1 else None
        bound = cur + _completion_bound(gains, tops, need)
        best = max(_walked_value(D, chosen, combo)
                   for combo in itertools.combinations(remaining, need))
        assert bound >= best or math.isclose(bound, best, rel_tol=1e-13), (
            chosen, remaining, need)


def _bnb_against_subset_walker(inst, m, max_nodes):
    # solve_maxsum_bnb's (status, value hex, subset, nodes) and those of
    # _best_subset walking the same instance with no conflicts, each
    # subset scored with its from-scratch gains and bound
    res = solve_maxsum_bnb(inst, m, SolverBudget(max_nodes=max_nodes))
    got = (res.status, None if res.value is None else res.value.hex(),
           None if res.solution is None else tuple(res.solution),
           res.stats.subsets_or_nodes_explored)
    answer, nodes, stopped = _ticked(lambda tick: solvers._best_subset(
        inst.distances, (0,) * inst.n, m, ObjectiveKind.MAXSUM, tick),
        max_nodes)
    combo = answer if stopped else answer[0]
    status = (SolveStatus.OPTIMAL if not stopped
              else SolveStatus.FEASIBLE if combo is not None
              else SolveStatus.BUDGET_EXCEEDED)
    value = None if combo is None else eval_maxsum(inst, Solution(combo))
    want = (status, None if combo is None else value.hex(), combo, nodes)
    return got, want


_BNB_BUDGETS = (None, 1, 7, 50, 300)


def _count_row_fills(patch):
    # patch solvers._half_tops to log its calls: the candidates of each
    # call, and the (candidates, need) of each row it fills
    calls, rows = [], []
    half_tops = solvers._half_tops

    def counted(A, remaining, needs):
        calls.append(remaining)
        rows.extend((remaining, need) for need in needs)
        return half_tops(A, remaining, needs)

    patch.setattr(solvers, "_half_tops", counted)
    return calls, rows


def _suffix_rows_filled_once(calls, rows, n, m):
    # MaxSum B&B's table: rows of suffixes only, each filled once, and all
    # rows of one suffix from one call, so one sort per candidate
    assert len(set(calls)) == len(calls)
    assert len(set(rows)) == len(rows) <= n * m
    assert all(rem == tuple(range(rem[0], n)) for rem in calls)


@pytest.mark.parametrize("values", TIE_VALUES)
def test_suffix_bound_table_bit_identical(monkeypatch, values):
    # the bound MaxSum B&B prunes with, its terms kept per (s, need) and
    # filled for every need of a suffix at once, cuts exactly where the
    # from-scratch bound does: on tie-heavy distances a bound one ulp off
    # would prune another node; each row is computed once
    filled = 0
    for seed, (n, m) in enumerate([(8, 2), (10, 3), (12, 4), (14, 5),
                                   (16, 6), (18, 8)]):
        inst = _tie_heavy(seed, n, values)
        for max_nodes in _BNB_BUDGETS:
            got, want = _bnb_against_subset_walker(inst, m, max_nodes)
            assert got == want, (seed, n, m, max_nodes)
        with monkeypatch.context() as patch:
            calls, rows = _count_row_fills(patch)
            solve_maxsum_bnb(inst, m)
        _suffix_rows_filled_once(calls, rows, n, m)
        filled += len(rows)
    assert filled > 0


# (family, n, m) of MaxSum B&B's reference corpus, each drawn at one seed
BNB_REFERENCE_SIZES = [(12, 2), (16, 8), (20, 6), (25, 5), (30, 3), (40, 4)]
BNB_REFERENCE_CORPUS = (
    [(family, n, m, seed)
     for family in ("mdg", "som", "gkd", "gkd-d")
     for seed, (n, m) in enumerate(BNB_REFERENCE_SIZES)]
    + [("som", 35, 7, 1), ("gkd", 35, 7, 2), ("gkd", 40, 8, 0)])


@pytest.mark.parametrize("spec", BNB_REFERENCE_CORPUS,
                         ids=lambda spec: "-".join(map(str, spec)))
def test_maxsum_bnb_same_as_subset_walker(spec):
    # the suffix walk visits the nodes the subset walker visits on a graph
    # with no conflicts, scores them bit for bit alike and stops where it
    # stops
    inst = _generate(spec)
    for max_nodes in _BNB_BUDGETS:
        got, want = _bnb_against_subset_walker(inst, spec[2], max_nodes)
        assert got == want, max_nodes


@pytest.mark.parametrize("family,n,m,seed", [
    ("gkd-d", 25, 5, 3), ("mdg", 30, 6, 0), ("som", 50, 5, 0)])
def test_maxsum_bnb_computes_each_table_row_once(monkeypatch, family, n, m,
                                                 seed):
    inst = generate(GeneratorSpec(family=Family.from_string(family), n=n, m=m,
                                  seed=seed))
    calls, rows = _count_row_fills(monkeypatch)
    res = solve_maxsum_bnb(inst, m)
    assert res.status is SolveStatus.OPTIMAL
    assert rows
    _suffix_rows_filled_once(calls, rows, n, m)


# (family, n, m, seed): MaxSum B&B (value hex, subset, nodes) unbudgeted, then
# (status, value hex, subset, nodes) with max_nodes=300, as recorded before
# the bound kept its per-suffix rows in a table
BNB_TABLE_PINS = [
    (("mdg", 30, 6, 0),
     ("0x1.e0c84f78cccdfp+6", (2, 6, 17, 19, 21, 24), 2066),
     ("feasible", "0x1.bd64905c1fdddp+6", (0, 1, 2, 20, 21, 24), 301)),
    (("gkd-d", 50, 5, 0),
     ("0x1.bf7ed12e6f944p+9", (1, 15, 16, 37, 47), 14842),
     ("feasible", "0x1.9aae40bb3e1f6p+9", (0, 1, 2, 16, 37), 301)),
    (("som", 50, 5, 0),
     ("0x1.4c00000000000p+6", (0, 1, 10, 23, 31), 3124),
     ("feasible", "0x1.3400000000000p+6", (0, 1, 4, 8, 26), 301)),
    (("mdg", 60, 4, 0),
     ("0x1.c1fa0dd7b460fp+5", (0, 23, 52, 59), 2096),
     ("feasible", "0x1.96b450f6df59ap+5", (0, 1, 20, 21), 301)),
]


@pytest.mark.parametrize("spec,full,stopped", BNB_TABLE_PINS,
                         ids=["-".join(map(str, pin[0]))
                              for pin in BNB_TABLE_PINS])
def test_maxsum_bnb_keeps_pinned_results(spec, full, stopped):
    family, n, m, seed = spec
    inst = generate(GeneratorSpec(family=Family.from_string(family), n=n, m=m,
                                  seed=seed))
    res = solve_maxsum_bnb(inst, m)
    assert res.status is SolveStatus.OPTIMAL
    assert (res.value.hex(), tuple(res.solution),
            res.stats.subsets_or_nodes_explored) == full
    res = solve_maxsum_bnb(inst, m, SolverBudget(max_nodes=300))
    assert (res.status.value, res.value.hex(), tuple(res.solution),
            res.stats.subsets_or_nodes_explored) == stopped


# (family, n, m, seed): MaxSum B&B (value hex, subset, nodes) and exact
# bi-level (optima_enumerated, chosen, upper_value hex) for MaxSum and
# MaxMinSum, as the per-algorithm DFS bodies gave them before the walker
WALKER_PINS = [
    (("gkd-d", 25, 5, 3),
     ("0x1.71048264d3b73p+9", (5, 14, 21, 22, 23), 2652),
     (4, (5, 9, 10, 21, 22), "0x1.57a626063708cp+9"),
     (14, (5, 9, 10, 21, 22), "0x1.a2d50ce985064p+7")),
    (("gkd-d", 24, 6, 1),
     ("0x1.1051c0b407c09p+10", (1, 6, 11, 12, 14, 20), 1690),
     (2, (6, 8, 9, 11, 12, 20), "0x1.ed0d779e256e6p+9"),
     (9, (6, 8, 9, 11, 12, 20), "0x1.ea06b1619c25cp+7")),
    (("mdg", 22, 5, 1),
     ("0x1.414fddb5e2b04p+6", (3, 5, 6, 13, 16), 627),
     (1, (3, 5, 15, 16, 18), "0x1.3f80ef9553069p+6"),
     (1, (3, 5, 15, 16, 18), "0x1.e9b911c45effap+4")),
    (("mdg", 28, 4, 5),
     ("0x1.b7358e2c44452p+5", (3, 6, 14, 20), 669),
     (1, (0, 3, 5, 21), "0x1.a988cd531d9edp+5"),
     (1, (0, 3, 5, 21), "0x1.96ca52a61825ap+4")),
    (("som", 24, 6, 1),
     ("0x1.a400000000000p+6", (3, 6, 11, 19, 20, 21), 1933),
     (3, (3, 6, 10, 12, 13, 20), "0x1.9000000000000p+6"),
     (23, (0, 6, 12, 13, 20, 23), "0x1.f000000000000p+4")),
    (("som", 26, 4, 7),
     ("0x1.8800000000000p+5", (0, 13, 16, 18), 430),
     (3, (8, 17, 21, 25), "0x1.8800000000000p+5"),
     (5, (0, 11, 17, 25), "0x1.7000000000000p+4")),
]


@pytest.mark.parametrize("spec,bnb,bi_sum,bi_minsum", WALKER_PINS)
def test_walker_keeps_pinned_results(spec, bnb, bi_sum, bi_minsum):
    family, n, m, seed = spec
    inst = generate(GeneratorSpec(family=Family.from_string(family), n=n, m=m,
                                  seed=seed))
    res = solve_maxsum_bnb(inst, m)
    assert res.status is SolveStatus.OPTIMAL
    assert (res.value.hex(), tuple(res.solution),
            res.stats.subsets_or_nodes_explored) == bnb
    for upper, want in ((ObjectiveKind.MAXSUM, bi_sum),
                        (ObjectiveKind.MAXMINSUM, bi_minsum)):
        bi = solve_bilevel(inst, m, upper, mode="exact")
        assert (bi.optima_enumerated, tuple(bi.chosen),
                bi.upper_value.hex()) == want


@pytest.mark.parametrize("family,n,m,seed", [
    ("som", 16, 4, 2), ("som", 20, 4, 5), ("gkd-d", 20, 4, 3),
    ("gkd", 16, 4, 4), ("mdg", 20, 3, 4)])
def test_enumerate_maxmin_equals_brute_filter(family, n, m, seed):
    inst = generate(GeneratorSpec(family=Family.from_string(family), n=n, m=m,
                                  seed=seed))
    z = solve_maxmin_improved(inst, m).value
    want = [c for c in itertools.combinations(range(n), m)
            if eval_maxmin(inst, Solution(c)) == z]
    en = enumerate_maxmin_optima(inst, m)
    assert [tuple(s) for s in en] == want
    assert not en.truncated and en.value == z
    first = enumerate_maxmin_optima(inst, m, cap=1)
    assert [tuple(s) for s in first] == want[:1]
    assert first.truncated == (len(want) > 1)
    full = enumerate_maxmin_optima(inst, m, cap=len(want))
    assert [tuple(s) for s in full] == want
    assert not full.truncated


def test_exact_bilevel_node_budget_raises():
    inst = generate(GeneratorSpec(family=Family.SOM, n=24, m=6, seed=1))
    # enough nodes for the MaxMin solve (85), too few for the subset walk,
    # which gets the 15 left and stops at its 16th
    with pytest.raises(BudgetExceededError,
                       match="exact bi-level search exceeded budget after 16 "):
        solve_bilevel(inst, 6, ObjectiveKind.MAXMINSUM, mode="exact",
                      budget=SolverBudget(max_nodes=100))


def _ticked(search, max_nodes=None):
    # (answer, nodes, stopped) of search(tick) on a fresh ledger with
    # max_nodes; a stopped search answers with its incumbent
    spend = solvers._Spend(SolverBudget(max_nodes=max_nodes))
    try:
        return search(spend.tick), spend.nodes, False
    except solvers._Exhausted as stop:
        return stop.incumbent, spend.nodes, True


def _bilevel_call(kind, mode):
    return lambda inst, m, budget: solve_bilevel(inst, m, kind, mode=mode,
                                                 budget=budget)


# name: (call, upper kind of its exact walk, or None for the enumeration walk)
_D_STAR_CALLS = {
    "exact-maxsum": (_bilevel_call(ObjectiveKind.MAXSUM, "exact"),
                     ObjectiveKind.MAXSUM),
    "exact-maxminsum": (_bilevel_call(ObjectiveKind.MAXMINSUM, "exact"),
                        ObjectiveKind.MAXMINSUM),
    "enumerate-maxsum": (_bilevel_call(ObjectiveKind.MAXSUM, "enumerate"),
                         None),
    "enumerate_maxmin_optima": (lambda inst, m, budget: enumerate_maxmin_optima(
        inst, m, budget=budget), None),
}


@pytest.mark.parametrize("call", sorted(_D_STAR_CALLS))
@pytest.mark.parametrize("family,n,m,seed", [
    ("som", 24, 6, 1), ("gkd-d", 40, 6, 3), ("mdg", 30, 5, 2)])
def test_max_nodes_covers_the_d_star_solve(call, family, n, m, seed):
    def fresh():
        return generate(GeneratorSpec(family=Family.from_string(family), n=n,
                                      m=m, seed=seed))

    run, kind = _D_STAR_CALLS[call]
    base = solve_maxmin_improved(fresh(), m)
    spent = base.stats.subsets_or_nodes_explored
    # nodes of the subset walk alone
    adj = build_threshold_graph(fresh(), base.value).adj
    if kind is None:
        walk = _ticked(lambda tick: solvers._walk_subsets(
            None, adj, m, lambda chosen, cur: True, tick))[1]
    else:
        walk = _ticked(lambda tick: solvers._best_subset(
            fresh().distances, adj, m, kind, tick))[1]
    # the d* solve and the walk share one max_nodes: exactly their sum
    # finishes, one less stops
    run(fresh(), m, SolverBudget(max_nodes=spent + walk))
    with pytest.raises(BudgetExceededError):
        run(fresh(), m, SolverBudget(max_nodes=spent + walk - 1))
    # a cached d* costs nothing
    cached = fresh()
    solve_maxmin_improved(cached, m)
    run(cached, m, SolverBudget(max_nodes=walk))
    with pytest.raises(BudgetExceededError):
        run(cached, m, SolverBudget(max_nodes=walk - 1))


def _fake_clock(monkeypatch):
    # solvers' clock reads now[0], which only the tests move
    now = [0.0]
    monkeypatch.setattr(solvers, "time",
                        types.SimpleNamespace(perf_counter=lambda: now[0]))
    return now


def _probes_take_a_second(monkeypatch, now, probe):
    # each call of solvers.<probe> advances the clock by 1 s once it is
    # done, and the time limits it received are logged
    limits = []
    real = getattr(solvers, probe)

    def timed(*args):
        limits.append(args[-1].time_limit)
        res = real(*args)
        now[0] += 1.0
        return res

    monkeypatch.setattr(solvers, probe, timed)
    return limits


@pytest.mark.parametrize("solve,probe", [
    (solve_maxmin_improved, "feasible_subset"),
    (solve_maxmin_original, "max_packing")])
def test_time_limit_covers_every_maxmin_probe(monkeypatch, solve, probe):
    spec = ("gkd-d", 40, 5, 1)
    k = solve(_generate(spec), 5).stats.decision_solves
    assert k >= 3
    limits = _probes_take_a_second(monkeypatch, _fake_clock(monkeypatch),
                                   probe)
    # each probe gets the limit less the seconds of the probes before it
    res = solve(_generate(spec), 5, SolverBudget(time_limit=k + 0.5))
    assert res.status is SolveStatus.OPTIMAL
    assert limits == [k + 0.5 - i for i in range(k)]
    # with k - 1 seconds the last probe finds nothing left and never runs
    limits.clear()
    res = solve(_generate(spec), 5, SolverBudget(time_limit=k - 1))
    assert res.status is SolveStatus.FEASIBLE
    assert res.stats.decision_solves == k - 1
    assert limits == [k - 1 - i for i in range(k - 1)]


@pytest.mark.parametrize("call", sorted(_D_STAR_CALLS))
def test_time_limit_covers_the_d_star_solve(monkeypatch, call):
    run, _ = _D_STAR_CALLS[call]
    spec = ("gkd-d", 40, 6, 3)
    k = solve_maxmin_improved(_generate(spec), 6).stats.decision_solves
    now = _fake_clock(monkeypatch)
    _probes_take_a_second(monkeypatch, now, "feasible_subset")
    left = []
    walk = solvers._walk_subsets

    def timed_walk(D, adj, m, leaf, tick, prune=None):
        # the walk ticks the call's ledger, whose deadline is its limit
        left.append(tick.__self__.deadline - now[0])
        return walk(D, adj, m, leaf, tick, prune)

    monkeypatch.setattr(solvers, "_walk_subsets", timed_walk)
    # the walk after the d* solve gets the seconds its k probes left
    run(_generate(spec), 6, SolverBudget(time_limit=k + 10.0))
    assert left == [10.0]
    with pytest.raises(BudgetExceededError, match="before the subset walk"):
        run(_generate(spec), 6, SolverBudget(time_limit=k))
    with pytest.raises(BudgetExceededError, match="not proven"):
        run(_generate(spec), 6, SolverBudget(time_limit=k - 1))
    # a cached d* costs no time either
    cached = _generate(spec)
    solve_maxmin_improved(cached, 6)
    run(cached, 6, SolverBudget(time_limit=0.5))
    assert left == [10.0, 0.5]


def _above_optimum(spec):
    # the instance and its first distinct distance above the MaxMin optimum
    inst = _generate(spec)
    values = spectrum_stats(inst).distinct_values
    return inst, values[values.index(solve_maxmin_improved(inst, spec[2]).value)
                        + 1]


def _cached_exact_bilevel(budget):
    inst = _generate(("gkd-d", 40, 6, 3))
    solve_maxmin_improved(inst, 6)  # d* cached: the walk is the only search
    return solve_bilevel(inst, 6, ObjectiveKind.MAXSUM, mode="exact",
                         budget=budget)


# name: (call(budget), the kernel its search runs in, the statuses it may
# stop with, or None when it raises); each unlimited search visits more
# than 300 nodes (359, 667, 2066 and 525)
_STOP_RULE_CASES = {
    "feasible_subset": (lambda budget: feasible_subset(
        *_above_optimum(("gkd-d", 80, 8, 2)), 8, budget),
        "_find_independent", (SolveStatus.BUDGET_EXCEEDED,)),
    "max_packing": (lambda budget: max_packing(
        *_above_optimum(("som", 100, 8, 0)), budget),
        "_max_independent", (SolveStatus.FEASIBLE,)),
    # feasible once it has an incumbent
    "solve_maxsum_bnb": (lambda budget: solve_maxsum_bnb(
        _generate(("mdg", 30, 6, 0)), 6, budget),
        "_maxsum_walk", (SolveStatus.BUDGET_EXCEEDED, SolveStatus.FEASIBLE)),
    "solve_bilevel": (_cached_exact_bilevel, "_best_subset", None),
}


def _stopped_at(call, statuses, budget):
    # the nodes a budget-stopped call visited: its stats, or the count its
    # BudgetExceededError names
    if statuses is None:
        with pytest.raises(BudgetExceededError,
                           match="exceeded budget after") as err:
            call(budget)
        return int(str(err.value).split("after ")[1].split()[0])
    res = call(budget)
    assert res.status in statuses
    return res.stats.subsets_or_nodes_explored


@pytest.mark.parametrize("name", sorted(_STOP_RULE_CASES))
def test_every_node_search_keeps_the_shared_stop_rule(monkeypatch, name):
    call, kernel, statuses = _STOP_RULE_CASES[name]
    # max_nodes=k stops the search at its node k + 1
    for k in (1, 100, 300):
        assert _stopped_at(call, statuses, SolverBudget(max_nodes=k)) == k + 1
    # the clock, read every 256 nodes, stops it at node 256 once the
    # deadline has passed
    now = _fake_clock(monkeypatch)
    search = getattr(solvers, kernel)

    def late(*args):
        # 2 s on at each kernel call: past the 1 s limit of the ledger
        # opened before it
        now[0] += 2.0
        return search(*args)

    monkeypatch.setattr(solvers, kernel, late)
    assert _stopped_at(call, statuses, SolverBudget(time_limit=1.0)) == 256


@pytest.mark.parametrize("fields", [
    {"time_limit": float("nan")}, {"time_limit": 0.0}, {"time_limit": -1.0},
    {"max_nodes": 2.5}, {"max_nodes": True}, {"max_nodes": 0}])
def test_budget_rejects_bad_limits(fields):
    with pytest.raises(ValueError, match="budget field"):
        SolverBudget(**fields)


def test_budget_accepts_positive_limits():
    budget = SolverBudget(max_nodes=10 ** 30, time_limit=1)
    assert (budget.max_nodes, budget.time_limit) == (10 ** 30, 1)
    assert solvers._Spend(SolverBudget(time_limit=math.inf)).deadline \
        == math.inf


@pytest.mark.parametrize("mode", ["enumerate", "exact"])
def test_bilevel_rejects_a_cap_below_one_in_both_modes(t4, mode):
    with pytest.raises(ValueError, match="cap must be positive"):
        solve_bilevel(t4, 3, ObjectiveKind.MAXSUM, cap=0, mode=mode)
    assert t4._maxmin == {}  # rejected before any solve


def _reference_walk_subsets(D, adj, m, leaf, tick, prune=None,
                            cover_skip=True):
    # _walk_subsets as it was before it looked for a live child first: every
    # inner node builds its gains and asks prune before it scans children.
    # A walk without prune skips a child that needs 2 or more picks when
    # a greedy clique cover of its candidates has fewer cliques;
    # cover_skip=False gives the walk as it was before that skip
    n = len(adj)

    def rec(cand, chosen, cur):
        tick()
        need = m - len(chosen)
        if need == 0:
            return leaf(chosen, cur)
        gains = None
        if prune is not None:
            remaining = _bits_to_nodes(cand)
            gains = []
            for v in remaining:
                gain = 0.0
                for s in chosen:
                    gain += D[v][s]
                gains.append(gain)
            if prune(cur, gains, remaining, need):
                return True
        i = 0
        scan = cand
        while scan:
            low = scan & -scan
            scan ^= low
            if scan.bit_count() < need - 1:
                break
            v = low.bit_length() - 1
            child = scan & ~adj[v]
            dead = (cover_skip and prune is None and need - 1 >= 2
                    and _full_cover(child, adj) < need - 1)
            if child.bit_count() >= need - 1 and not dead:
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
        del rec


def _reference_best_subset(A, adj, m, upper_kind, tick):
    # _best_subset as it was before its prune waited for an incumbent, and
    # with no table: each prune fills its _half_tops row afresh
    D = A.tolist()
    maxsum = upper_kind is ObjectiveKind.MAXSUM
    best_val = -math.inf
    best_combo = None
    leaves = 0

    def leaf(chosen, cur):
        nonlocal best_val, best_combo, leaves
        leaves += 1
        val = cur if maxsum else _score_plain(D, tuple(chosen), upper_kind)
        if val > best_val:
            best_val, best_combo = val, tuple(chosen)
        return True

    def prune(cur, gains, remaining, need):
        tops = solvers._half_tops(A, remaining, (need,))[0] if need > 1 \
            else None
        bound = cur + _completion_bound(gains, tops, need)
        if not maxsum:
            bound = 2.0 * bound / m
        return bound <= best_val

    try:
        solvers._walk_subsets(D, adj, m, leaf, tick, prune)
    except solvers._Exhausted as stop:
        stop.incumbent = best_combo
        raise
    return best_combo, leaves


def _walk_log(monkeypatch, walk, call):
    # call() with solvers._walk_subsets replaced by walk, and every leaf the
    # walk handed over, as (subset, MaxSum value hex), in walk order
    leaves = []

    def logged(D, adj, m, leaf, *rest):
        def log(chosen, cur):
            leaves.append((tuple(chosen), cur.hex()))
            return leaf(chosen, cur)
        return walk(D, adj, m, log, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_walk_subsets", logged)
        out = call()
    return out, leaves


def _listing_walk(walk, adj, m):
    # (nodes, exhausted, leaves) of a prune-less walk that lists every leaf
    leaves = []
    _, nodes, exhausted = _ticked(lambda tick: walk(
        None, adj, m, lambda chosen, cur: leaves.append(tuple(chosen)) or True,
        tick))
    return nodes, exhausted, leaves


# (family, n, m, seed): MaxSum B&B runs on the small ones only; the last
# four are model-compare's exact bi-level corpus
WALKER_DIFF_SMALL = [("gkd-d", 12, 4, 0), ("gkd", 16, 4, 1), ("mdg", 18, 5, 2),
                     ("som", 20, 5, 3), ("gkd-d", 24, 6, 4), ("gkd", 24, 5, 5),
                     ("mdg", 26, 4, 6), ("som", 28, 6, 7)]
WALKER_DIFF_LARGE = [("gkd", 40, 6, 8), ("mdg", 45, 5, 9), ("som", 50, 6, 10),
                     ("gkd-d", 60, 8, 0), ("gkd-d", 65, 8, 1),
                     ("gkd-d", 70, 8, 3), ("gkd-d", 80, 8, 2)]


@pytest.mark.parametrize("spec", WALKER_DIFF_SMALL + WALKER_DIFF_LARGE,
                         ids=lambda spec: "-".join(map(str, spec)))
def test_walker_same_as_reference_walker(monkeypatch, spec):
    family, n, m, seed = spec
    inst = generate(GeneratorSpec(family=Family.from_string(family), n=n, m=m,
                                  seed=seed))
    d_star = solve_maxmin_improved(inst, m).value
    g_star = build_threshold_graph(inst, d_star).adj
    runs = [(g_star, kind) for kind in (ObjectiveKind.MAXSUM,
                                        ObjectiveKind.MAXMINSUM)]
    if spec in WALKER_DIFF_SMALL:
        runs.append(((0,) * n, ObjectiveKind.MAXSUM))  # MaxSum B&B
    for adj, kind in runs:
        for max_nodes in (None, 50, 300, 2_000):
            def best(search):
                return lambda: _ticked(lambda tick: search(
                    inst.distances, adj, m, kind, tick), max_nodes)
            got = _walk_log(monkeypatch, solvers._walk_subsets,
                            best(solvers._best_subset))
            want = _walk_log(monkeypatch, _reference_walk_subsets,
                             best(_reference_best_subset))
            assert got == want, (kind, max_nodes)
    # MaxMin enumeration: no prune, so every independent m-set of G(z*)
    for max_nodes in (None, 50, 300):
        def enumerate_walk():
            return _ticked(lambda tick: solvers._walk_subsets(
                None, g_star, m, lambda chosen, cur: True, tick), max_nodes)
        got = _walk_log(monkeypatch, solvers._walk_subsets, enumerate_walk)
        want = _walk_log(monkeypatch, _reference_walk_subsets, enumerate_walk)
        assert got == want, max_nodes
        # unbounded, it lists the MaxMin witness at least
        assert got[1] or max_nodes is not None
    # the cover skip leaves out dead ends only: the unpruned walk lists the
    # same leaves in the same order, over at least as many nodes
    nodes, _, leaves = _listing_walk(solvers._walk_subsets, g_star, m)
    old_nodes, _, old_leaves = _listing_walk(
        partial(_reference_walk_subsets, cover_skip=False), g_star, m)
    assert leaves == old_leaves and nodes <= old_nodes


# (family, n, m, seed): nodes of the MaxMin enumeration walk on G(d*)
# before and after its clique-cover skip, and the optima it lists; the
# second instance is the one the CI example step solves
LISTING_WALK_PINS = [(("gkd-d", 60, 8, 0), 13_465, 537, 77),
                     (("gkd-d", 40, 6, 3), 697, 202, 45)]


@pytest.mark.parametrize("spec,unpruned,pruned,optima", LISTING_WALK_PINS)
def test_listing_walk_nodes_pinned(spec, unpruned, pruned, optima):
    family, n, m, seed = spec
    inst = generate(GeneratorSpec(family=Family.from_string(family), n=n, m=m,
                                  seed=seed))
    adj = build_threshold_graph(inst, solve_maxmin_improved(inst, m).value).adj
    nodes, exhausted, leaves = _listing_walk(solvers._walk_subsets, adj, m)
    old_nodes, _, old_leaves = _listing_walk(
        partial(_reference_walk_subsets, cover_skip=False), adj, m)
    assert (old_nodes, nodes, len(leaves)) == (unpruned, pruned, optima)
    assert leaves == old_leaves and not exhausted


def test_listing_walk_equals_combination_filter():
    # seeded random graphs: the pruned listing is the independent m-sets,
    # in itertools.combinations order
    rng = np.random.default_rng(20)
    for _ in range(40):
        n = int(rng.integers(2, 23))
        upper = np.triu(rng.random((n, n)) < rng.uniform(0.1, 0.8), 1)
        closer = upper | upper.T
        adj = tuple(sum(1 << int(j) for j in np.flatnonzero(row))
                    for row in closer)
        for m in range(2, min(n, 6) + 1):
            combos = np.array(list(itertools.combinations(range(n), m)))
            clash = np.zeros(len(combos), dtype=bool)
            for a, b in itertools.combinations(range(m), 2):
                clash |= closer[combos[:, a], combos[:, b]]
            want = [tuple(c) for c in combos[~clash].tolist()]
            _, exhausted, got = _listing_walk(solvers._walk_subsets, adj, m)
            assert got == want, (n, m)
            assert not exhausted


def test_enumerate_bilevel_budget_is_d_star_plus_walk_nodes():
    # the CI example's instance: d* takes 521 nodes and the listing walk
    # 202, so a budget of 723 finishes with the exact-mode subset and 722
    # stops in the walk at its 202nd node
    def fresh():
        return generate(GeneratorSpec(family=Family.from_string("gkd-d"),
                                      n=40, m=6, seed=3))

    base = solve_maxmin_improved(fresh(), 6)
    adj = build_threshold_graph(fresh(), base.value).adj
    spent = base.stats.subsets_or_nodes_explored
    walk = _listing_walk(solvers._walk_subsets, adj, 6)[0]
    assert (spent, walk) == (521, 202)
    exact = solve_bilevel(fresh(), 6, ObjectiveKind.MAXSUM, mode="exact")
    res = solve_bilevel(fresh(), 6, ObjectiveKind.MAXSUM, mode="enumerate",
                        budget=SolverBudget(max_nodes=spent + walk))
    assert res.chosen == exact.chosen and res.optima_enumerated == 45
    with pytest.raises(BudgetExceededError,
                       match=f"exceeded budget after {walk} nodes"):
        solve_bilevel(fresh(), 6, ObjectiveKind.MAXSUM, mode="enumerate",
                      budget=SolverBudget(max_nodes=spent + walk - 1))


# ---------------------------------------------------------------------------
# MaxMin decision and packing kernels
# ---------------------------------------------------------------------------

def _trace_digest(trace):
    # SearchStats.trace records, floats as hex, hashed to keep the pins short
    text = ";".join(",".join(x.hex() if isinstance(x, float) else repr(x)
                             for x in rec) for rec in trace)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _random_graph(rng, n, density):
    upper = np.triu(rng.random((n, n)) < density, 1)
    packed = np.packbits(upper | upper.T, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def _random_subsets(rng, n, count):
    # candidate sets from a handful of vertices up to all n
    for _ in range(count):
        keep = rng.random(n) < rng.uniform(0.1, 1.0)
        yield sum(1 << int(v) for v in np.flatnonzero(keep))


def _graphs(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 131))
        yield rng, n, _random_graph(rng, n, rng.uniform(0.05, 0.9))


def _bit_loop_nodes(bits):
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


def _full_cover(cand, adj):
    # the greedy clique cover counted to the end, as a clique mask per step
    count = 0
    rest = cand
    while rest:
        v = (rest & -rest).bit_length() - 1
        clique = 1 << v
        common = adj[v] & rest
        while common:
            u = (common & -common).bit_length() - 1
            clique |= 1 << u
            common &= adj[u]
        rest &= ~clique
        count += 1
    return count


def _restart_reduce(cand, adj):
    # degree-0/1 reduction that rescans from the lowest index after each pick
    forced = 0
    changed = True
    while changed:
        changed = False
        zero = 0
        scan = cand
        while scan:
            low = scan & -scan
            scan ^= low
            nb = adj[low.bit_length() - 1] & cand
            deg = nb.bit_count()
            if deg == 0:
                zero |= low
            elif deg == 1:
                forced |= low
                cand &= ~(nb | low)
                changed = True
                break
        forced |= zero
        cand &= ~zero
    return forced, cand


def test_bits_to_nodes_matches_bit_loop():
    rng = np.random.default_rng(11)
    masks = [0, 1 << 149] + [1 << v for v in range(150)]
    masks += [int.from_bytes(rng.bytes(19), "little") >> int(rng.integers(0, 150))
              for _ in range(300)]
    for bits in masks:
        assert _bits_to_nodes(bits) == _bit_loop_nodes(bits)
    assert _bits_to_nodes(0) == ()
    assert _bits_to_nodes(1 << 149) == (149,)


def test_clique_cover_stops_at_the_bound():
    checked = 0
    for rng, n, adj in _graphs(21, 40):
        for cand in _random_subsets(rng, n, 10):
            full = _full_cover(cand, adj)
            for stop in {1, 2, full, full + 1, int(rng.integers(1, n + 2))}:
                cover = _clique_cover(cand, adj, stop)
                assert len(cover) - 1 == min(full, stop)
                assert cover[0] == cand
                checked += 1
    assert checked > 1000


def _child_candidates(rng, cand, adj):
    # a subset of cand, made as one of the MaxMin searches makes a child:
    # the decision search's exclude child, the packing search's include
    # child after its degree-0/1 reduction, or an arbitrary subset
    pick = _max_degree(cand, adj)[0]
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return cand ^ (1 << pick)
    if kind == 1:
        return _reduce_forced(cand & ~(adj[pick] | 1 << pick), adj)[1]
    keep = rng.random(cand.bit_length()) < rng.uniform(0.3, 1.0)
    return cand & sum(1 << int(v) for v in np.flatnonzero(keep))


def test_clique_cover_from_parent_same_as_fresh():
    # along nested chains of candidate sets, the cover built from the
    # parent's list is the list built without it, at stops below, at and
    # above the parent's; handed counts the parent's cliques a child
    # keeps, so that the chains are seen to exercise the copy
    rng = np.random.default_rng(31)
    graphs = [(n, adj) for _, n, adj in _graphs(32, 100)]
    graphs += [(n, _random_graph(rng, n, density))
               for n in (1, 2, 63, 64, 65, 127, 128, 129)
               for density in (0.05, 0.4, 0.9)]
    checked = handed = 0
    for n, adj in graphs:
        for cand in [(1 << n) - 1, *_random_subsets(rng, n, 5)]:
            stop = int(rng.integers(1, n + 2))
            cover = _clique_cover(cand, adj, stop)
            while cand:
                cand = _child_candidates(rng, cand, adj)
                stop = max(1, stop + int(rng.integers(-2, 3)))
                fresh = _clique_cover(cand, adj, stop)
                handed_down = _clique_cover(cand, adj, stop, cover)
                assert handed_down == fresh
                gone = cover[0] ^ cand
                handed += next((k for k, rest in enumerate(cover[1:stop + 1])
                                if rest & gone != gone),
                               min(len(cover) - 1, stop))
                checked += 1
                cover = fresh
    assert checked > 3000
    assert handed > 2000


def test_reduce_forced_matches_restart_scan():
    picks = 0
    for rng, n, adj in _graphs(22, 80):
        for cand in _random_subsets(rng, n, 10):
            forced, rest, pick = _reduce_forced(cand, adj)
            assert (forced, rest) == _restart_reduce(cand, adj)
            # a degree-1 pick drops its neighbour from both sets
            picks += cand & ~(forced | rest) != 0
            nodes = _bit_loop_nodes(rest)
            degrees = [(adj[v] & rest).bit_count() for v in nodes]
            if rest:
                want = nodes[degrees.index(max(degrees))]
                assert pick == want
                assert min(degrees) >= 2
            else:
                assert pick == -1
    assert picks > 100


def _bit_loop_max_degree(cand, adj):
    pick, maxdeg = -1, -1
    for v in _bit_loop_nodes(cand):
        deg = (adj[v] & cand).bit_count()
        if deg > maxdeg:
            pick, maxdeg = v, deg
    return pick, maxdeg


def _bit_loop_reduce_forced(cand, adj):
    # _reduce_forced with every vertex walk a low-bit loop
    zeros = ones = 0
    pick, maxdeg = -1, 1
    for v in _bit_loop_nodes(cand):
        deg = (adj[v] & cand).bit_count()
        if deg == 0:
            zeros |= 1 << v
        elif deg == 1:
            ones |= 1 << v
        elif deg > maxdeg:
            pick, maxdeg = v, deg
    forced = zeros
    cand ^= zeros
    if ones:
        while ones:
            low = ones & -ones
            nb = adj[low.bit_length() - 1] & cand
            forced |= low
            cand ^= low | nb
            ones &= ~(low | nb)
            for u in _bit_loop_nodes(adj[nb.bit_length() - 1] & cand):
                deg = (adj[u] & cand).bit_count()
                if deg == 1:
                    ones |= 1 << u
                elif deg == 0:
                    ones &= ~(1 << u)
                    forced |= 1 << u
                    cand ^= 1 << u
        pick = _bit_loop_max_degree(cand, adj)[0]
    return forced, cand, pick


def _regular_graphs():
    # every vertex ties on degree: empty, cycles, complete, two cliques
    for n in (1, 7, 8, 9, 16, 65, 130):
        yield n, (0,) * n
        full = (1 << n) - 1
        yield n, tuple(full ^ (1 << v) for v in range(n))
        if n > 2:
            yield n, tuple((1 << (v - 1) % n) | (1 << (v + 1) % n)
                           for v in range(n))
        half = n // 2
        low, high = (1 << half) - 1, full ^ ((1 << half) - 1)
        yield n, tuple((low if v < half else high) ^ (1 << v)
                       for v in range(n))


def test_degree_scans_match_bit_loop_reference():
    rng = np.random.default_rng(23)
    graphs = [(n, adj) for _, n, adj in _graphs(24, 60)]
    graphs += [(n, _random_graph(rng, n, density))
               for n in (1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129,
                         130)
               for density in (0.05, 0.3, 0.6, 0.9)]
    graphs += list(_regular_graphs())
    ties = 0
    for n, adj in graphs:
        full = (1 << n) - 1
        cands = [0, full, 1 << (n - 1)] + [1 << int(v)
                                           for v in rng.integers(0, n, 3)]
        cands += list(_random_subsets(rng, n, 8))
        for cand in cands:
            want = _bit_loop_max_degree(cand, adj)
            assert _max_degree(cand, adj) == want
            degrees = [(adj[v] & cand).bit_count()
                       for v in _bit_loop_nodes(cand)]
            ties += degrees.count(want[1]) > 1
            assert _reduce_forced(cand, adj) == _bit_loop_reduce_forced(cand,
                                                                         adj)
    assert _max_degree(0, (0,)) == (-1, -1)
    assert _reduce_forced(0, (0,)) == (0, 0, -1)
    assert ties > 300


# (family, n, m, seed): solve_maxmin_improved and solve_maxmin_original as
# (value hex, subset, nodes, decision_solves, trace digest); at z* the
# feasible_subset (nodes, witness) and max_packing (nodes, witness); at the
# next distinct value above z* the infeasible feasible_subset's nodes and
# max_packing (nodes, witness).  Recorded from the kernels before their
# same-tree rewrite: any change here is a change of the search tree.
MAXMIN_TREE_PINS = [
    (('gkd-d', 60, 8, 9),
     ('0x1.359bfe966c3d7p+5', (1, 8, 19, 20, 30, 43, 57, 59),
      2858, 11, 'c134be8fa5092917'),
     ('0x1.359bfe966c3d7p+5', (1, 8, 19, 20, 30, 43, 57, 59),
      1834, 14, '211abaee8b4dcfd7'),
     (103, (1, 8, 19, 20, 30, 43, 57, 59), 45, (1, 8, 19, 20, 30, 43, 57, 59)),
     (521, 239, (1, 8, 18, 19, 20, 43, 59))),
    (('gkd-d', 70, 6, 2),
     ('0x1.7b2e99a76ab0ap+5', (3, 8, 30, 35, 38, 67),
      1683, 11, '02097377256f2bc6'),
     ('0x1.7b2e99a76ab0ap+5', (3, 7, 8, 30, 35, 38),
      1257, 12, 'edaf484999b59958'),
     (55, (3, 8, 30, 35, 38, 67), 88, (3, 7, 8, 30, 35, 38)),
     (291, 134, (3, 6, 8, 19, 30))),
    (('gkd', 50, 7, 3),
     ('0x1.27ee04c059210p+4', (9, 10, 14, 17, 42, 45, 49),
      511, 10, 'b2cf2b377502822a'),
     ('0x1.27ee04c059210p+4', (2, 8, 9, 10, 14, 17, 42),
      424, 12, '2293c02f9f880769'),
     (44, (9, 10, 14, 17, 42, 45, 49), 42, (2, 8, 9, 10, 14, 17, 42)),
     (69, 36, (5, 9, 10, 16, 27, 42))),
    (('gkd', 60, 6, 4),
     ('0x1.df419e30014f9p+2', (9, 15, 25, 29, 37, 53),
      749, 11, 'ff364b730727c779'),
     ('0x1.df419e30014f9p+2', (7, 15, 25, 29, 37, 53),
      524, 12, '3893d4e6b67ca015'),
     (55, (9, 15, 25, 29, 37, 53), 61, (7, 15, 25, 29, 37, 53)),
     (93, 48, (3, 5, 15, 18, 29))),
    (('mdg', 60, 6, 6),
     ('0x1.bdfb96dfe6bf1p+2', (11, 24, 36, 39, 44, 46),
      976, 11, 'd0ff232d783568ad'),
     ('0x1.bdfb96dfe6bf1p+2', (11, 24, 36, 39, 44, 46),
      646, 10, '65a4cad5263164e9'),
     (60, (11, 24, 36, 39, 44, 46), 52, (11, 24, 36, 39, 44, 46)),
     (121, 60, (0, 4, 20, 24, 42))),
    (('mdg', 70, 7, 11),
     ('0x1.88023ee32fe0bp+2', (21, 24, 33, 41, 53, 61, 69),
      2808, 11, '573ffcc4898af5c6'),
     ('0x1.88023ee32fe0bp+2', (21, 24, 33, 41, 53, 61, 69),
      2091, 12, 'b86a371247b65c13'),
     (261, (21, 24, 33, 41, 53, 61, 69), 149, (21, 24, 33, 41, 53, 61, 69)),
     (423, 212, (23, 27, 33, 41, 48, 52))),
    (('som', 50, 6, 8),
     ('0x1.8000000000000p+2', (5, 12, 13, 22, 25, 43),
      182, 3, 'a2fe1a95af5ddced'),
     ('0x1.8000000000000p+2', (9, 26, 29, 30, 34, 43),
      254, 4, 'd2c8791b00559394'),
     (64, (5, 12, 13, 22, 25, 43), 63, (9, 26, 29, 30, 34, 43)),
     (73, 66, (5, 17, 21, 22, 43))),
    (('som', 70, 6, 10),
     ('0x1.c000000000000p+2', (0, 5, 8, 15, 26, 66),
      284, 3, 'c7eee4ae7189edf8'),
     ('0x1.c000000000000p+2', (0, 5, 8, 15, 26, 66),
      439, 3, '6719a31d7a134dcf'),
     (121, (0, 5, 8, 15, 26, 66), 85, (0, 5, 8, 15, 26, 66)),
     (99, 65, (3, 22, 50, 68))),
]


@pytest.mark.parametrize("spec,improved,original,at_z,above",
                         MAXMIN_TREE_PINS)
def test_maxmin_search_trees_pinned(spec, improved, original, at_z, above):
    family, n, m, seed = spec
    inst = generate(GeneratorSpec(family=Family.from_string(family), n=n, m=m,
                                  seed=seed))
    for solve, want in ((solve_maxmin_improved, improved),
                        (solve_maxmin_original, original)):
        res = solve(inst, m)
        assert res.status is SolveStatus.OPTIMAL
        assert (res.value.hex(), tuple(res.solution),
                res.stats.subsets_or_nodes_explored, res.stats.decision_solves,
                _trace_digest(res.stats.trace)) == want
    values = spectrum_stats(inst).distinct_values
    k = values.index(float.fromhex(improved[0]))
    yes = feasible_subset(inst, values[k], m)
    pack = max_packing(inst, values[k])
    assert yes.status is SolveStatus.FEASIBLE
    assert (yes.stats.subsets_or_nodes_explored, tuple(yes.solution),
            pack.stats.subsets_or_nodes_explored, tuple(pack.solution)) == at_z
    no = feasible_subset(inst, values[k + 1], m)
    pack = max_packing(inst, values[k + 1])
    assert no.status is SolveStatus.INFEASIBLE
    assert pack.status is SolveStatus.OPTIMAL and pack.value < m
    assert (no.stats.subsets_or_nodes_explored,
            pack.stats.subsets_or_nodes_explored, tuple(pack.solution)) == above


# Budget-stopped MaxMin searches, recorded before the result paths were
# merged.  max_packing: (family, n, m, seed), the level's distance from z*
# in distinct values (0 is z* itself), max_nodes -> (packing size, greedy
# witness, nodes); the unlimited search finds the size in the comment.
PACKING_BUDGET_PINS = [
    (('gkd-d', 60, 8, 9), 0, 10, (8, (1, 8, 19, 20, 30, 43, 57, 59), 11)),  # 8
    (('gkd', 50, 7, 3), 1, 10, (6, (5, 9, 10, 16, 27, 42), 11)),  # 6
    (('mdg', 60, 6, 6), 0, 20, (5, (0, 4, 20, 24, 42), 21)),  # 6
    (('som', 50, 6, 8), 1, 30, (4, (7, 19, 22, 25), 31)),  # 5
]


@pytest.mark.parametrize("spec,above,max_nodes,want", PACKING_BUDGET_PINS)
def test_max_packing_budget_stop_returns_greedy(spec, above, max_nodes, want):
    family, n, m, seed = spec
    inst = generate(GeneratorSpec(family=Family.from_string(family), n=n, m=m,
                                  seed=seed))
    values = spectrum_stats(inst).distinct_values
    l = values[values.index(solve_maxmin_improved(inst, m).value) + above]
    res = max_packing(inst, l, SolverBudget(max_nodes=max_nodes))
    assert res.status is SolveStatus.FEASIBLE
    assert (int(res.value), tuple(res.solution),
            res.stats.subsets_or_nodes_explored) == want
    assert eval_maxmin(inst, res.solution) >= l


# solve_maxmin_original under max_nodes: (family, n, m, seed), max_nodes,
# the packing probes that stopped as (probe index, greedy size) ->
# (status, value hex, witness, nodes, probes, trace digest).  max_nodes
# holds for the whole solve, so a stopped packing is the last probe: one of
# size >= m still proves feasibility at its level and joins the trace, one
# below m does not.  The last pin stops before any witness, so the result
# is the first m nodes.
ORIGINAL_BUDGET_PINS = [
    (('gkd-d', 40, 5, 1), 30, ((1, 9),),
     ('feasible', '0x1.1cd14f4b72625p+5', (1, 6, 12, 16, 20), 31, 2,
      '4e93aafa2353eee0')),
    (('mdg', 60, 6, 6), 100, ((0, 7),),
     ('feasible', '0x1.63de368477674p+2', (0, 4, 5, 20, 24, 39), 101, 1,
      'a08f49651f7040ac')),
    (('gkd-d', 60, 8, 9), 20, ((1, 10),),
     ('feasible', '0x1.0037c6783bb58p+5', (1, 4, 11, 13, 14, 19, 29, 37), 21,
      2, 'df3742712c287958')),
    (('mdg', 40, 5, 2), 5, ((0, 6),),
     ('feasible', '0x1.4d7d5d67dbb64p+2', (7, 11, 15, 20, 26), 6, 1,
      'ea11a020a3339e3f')),
    (('gkd-d', 60, 8, 9), 5, ((0, 4),),
     ('feasible', '0x1.8ebefc7d14557p+2', (0, 1, 2, 3, 4, 5, 6, 7), 6, 1,
      'e3b0c44298fc1c14')),
]


@pytest.mark.parametrize("spec,max_nodes,stopped,want", ORIGINAL_BUDGET_PINS)
def test_original_budget_stops_pinned(monkeypatch, spec, max_nodes, stopped,
                                      want):
    family, n, m, seed = spec
    inst = generate(GeneratorSpec(family=Family.from_string(family), n=n, m=m,
                                  seed=seed))
    packings = []
    real = solvers.max_packing

    def logged(*args, **kwargs):
        packings.append(real(*args, **kwargs))
        return packings[-1]

    monkeypatch.setattr(solvers, "max_packing", logged)
    res = solve_maxmin_original(inst, m, SolverBudget(max_nodes=max_nodes))
    assert tuple((i, int(p.value)) for i, p in enumerate(packings)
                 if p.status is SolveStatus.FEASIBLE) == stopped
    assert (res.status.value, res.value.hex(), tuple(res.solution),
            res.stats.subsets_or_nodes_explored, res.stats.decision_solves,
            _trace_digest(res.stats.trace)) == want
    assert res.value == eval_maxmin(inst, res.solution)


# solve_maxmin_improved under max_nodes, as ORIGINAL_BUDGET_PINS; the last
# pin stops before any feasible probe.
IMPROVED_BUDGET_PINS = [
    (('gkd-d', 60, 8, 9), 100,
     ('feasible', '0x1.14a24b40ae749p+5', (30, 32, 36, 39, 40, 43, 49, 52),
      101, 3, '849a4d7ca88d01d6')),
    (('mdg', 60, 6, 6), 100,
     ('feasible', '0x1.5bcf776e38f43p+2', (0, 6, 18, 24, 54, 55), 101, 2,
      'fe16129938fd94b0')),
    (('gkd', 50, 7, 3), 50,
     ('feasible', '0x1.104024b33daf9p+4', (1, 9, 10, 22, 27, 41, 42), 51, 2,
      'e1452d376a5c9b33')),
    (('gkd-d', 60, 8, 9), 5,
     ('feasible', '0x1.8ebefc7d14557p+2', (0, 1, 2, 3, 4, 5, 6, 7), 6, 2,
      '21a2ac339968c69b')),
]


@pytest.mark.parametrize("spec,max_nodes,want", IMPROVED_BUDGET_PINS)
def test_improved_budget_stops_pinned(spec, max_nodes, want):
    family, n, m, seed = spec
    inst = generate(GeneratorSpec(family=Family.from_string(family), n=n, m=m,
                                  seed=seed))
    res = solve_maxmin_improved(inst, m, SolverBudget(max_nodes=max_nodes))
    assert (res.status.value, res.value.hex(), tuple(res.solution),
            res.stats.subsets_or_nodes_explored, res.stats.decision_solves,
            _trace_digest(res.stats.trace)) == want
    assert res.value == eval_maxmin(inst, res.solution)


# max_nodes holds for a whole MaxMin solve, not for each probe
_MAXMIN_METHODS = {"improved": solve_maxmin_improved,
                   "original": solve_maxmin_original}
_NODE_CAP_CASES = [(('gkd-d', 40, 6, 3), 50), (('mdg', 60, 6, 6), 100),
                   (('gkd', 50, 7, 3), 50), (('som', 50, 6, 8), 30)]


@pytest.mark.parametrize("method", sorted(_MAXMIN_METHODS))
@pytest.mark.parametrize("spec,max_nodes", _NODE_CAP_CASES)
def test_maxmin_stop_explores_at_most_max_nodes_plus_one(spec, max_nodes,
                                                          method):
    m = spec[2]
    inst = _generate(spec)
    res = _MAXMIN_METHODS[method](inst, m, SolverBudget(max_nodes=max_nodes))
    assert res.status is SolveStatus.FEASIBLE
    assert res.stats.subsets_or_nodes_explored <= max_nodes + 1
    assert res.value == eval_maxmin(inst, res.solution)


@pytest.mark.parametrize("method", sorted(_MAXMIN_METHODS))
@pytest.mark.parametrize("spec", [spec for spec, _ in _NODE_CAP_CASES])
def test_maxmin_needs_exactly_its_node_count(spec, method):
    # the unbudgeted solve's node count is enough, one node fewer is not
    solve, m = _MAXMIN_METHODS[method], spec[2]
    full = solve(_generate(spec), m)
    nodes = full.stats.subsets_or_nodes_explored
    exact = solve(_generate(spec), m, SolverBudget(max_nodes=nodes))
    assert exact.status is SolveStatus.OPTIMAL
    assert (exact.value, exact.solution, exact.stats.subsets_or_nodes_explored,
            exact.stats.trace) == (full.value, full.solution, nodes,
                                   full.stats.trace)
    short = solve(_generate(spec), m, SolverBudget(max_nodes=nodes - 1))
    assert short.stats.subsets_or_nodes_explored <= nodes
    # a stopped last packing of size >= m still decides its probe
    assert short.status is SolveStatus.FEASIBLE or short.value == full.value


# ---------------------------------------------------------------------------
# the MaxMin optimum cached on the instance
# ---------------------------------------------------------------------------

def _generate(spec):
    family, n, m, seed = spec
    return generate(GeneratorSpec(family=Family.from_string(family), n=n, m=m,
                                  seed=seed))


def _count_decisions(monkeypatch):
    calls = []
    real = solvers.feasible_subset

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(solvers, "feasible_subset", counted)
    return calls


# the bi-level instances and runs of the model-compare benchmark workload
BILEVEL_SPECS = [("gkd-d", 60, 8, 0), ("gkd-d", 65, 8, 1), ("gkd-d", 70, 8, 3),
                 ("gkd-d", 80, 8, 2)]
BILEVEL_RUNS = [(mode, upper) for mode in ("exact", "enumerate")
                for upper in (ObjectiveKind.MAXSUM, ObjectiveKind.MAXMINSUM)]


@pytest.mark.parametrize("spec", BILEVEL_SPECS)
def test_bilevel_and_enumeration_reuse_the_proven_optimum(monkeypatch, spec):
    m = spec[2]
    want = [solve_bilevel(_generate(spec), m, upper, mode=mode)
            for mode, upper in BILEVEL_RUNS]
    want_enum = enumerate_maxmin_optima(_generate(spec), m)
    calls = _count_decisions(monkeypatch)
    inst = _generate(spec)
    results = []
    for mode, upper in BILEVEL_RUNS:
        results.append(solve_bilevel(inst, m, upper, mode=mode))
        if len(results) == 1:
            assert calls  # the first call proves d*
            calls.clear()
    assert enumerate_maxmin_optima(inst, m) == want_enum
    assert calls == []
    assert results == want
    assert inst._maxmin == {m: want_enum.value}


# (TIE_VALUES index, seed, n, m): tie-heavy instances for exact bi-level
BILEVEL_TIE_CASES = [(values, seed, n, m) for values in range(len(TIE_VALUES))
                     for seed, (n, m) in enumerate([(10, 3), (14, 4), (16, 6),
                                                    (18, 5)])]


@pytest.mark.parametrize(
    "case", BILEVEL_TIE_CASES + BILEVEL_SPECS,
    ids=lambda case: "-".join(map(str, case)))
def test_exact_bilevel_fills_each_table_row_once(monkeypatch, case):
    # exact bi-level keeps the _half_tops rows of its prune in a per-solve
    # table: each (candidates, need) row is filled once, one per call, and
    # the walk visits, scores, stops and chooses as the table-free
    # reference does, at every budget
    if isinstance(case[0], int):
        values, seed, n, m = case
        inst = _tie_heavy(seed, n, TIE_VALUES[values])
    else:
        inst, m = _generate(case), case[2]
    d_star = solve_maxmin_improved(inst, m).value  # cached for solve_bilevel
    adj = build_threshold_graph(inst, d_star).adj
    for kind in (ObjectiveKind.MAXSUM, ObjectiveKind.MAXMINSUM):
        for max_nodes in _BNB_BUDGETS:
            with monkeypatch.context() as patch:
                calls, rows = _count_row_fills(patch)
                got = _ticked(lambda tick: solvers._best_subset(
                    inst.distances, adj, m, kind, tick), max_nodes)
            with monkeypatch.context() as patch:
                _, ref_rows = _count_row_fills(patch)
                want = _ticked(lambda tick: _reference_best_subset(
                    inst.distances, adj, m, kind, tick), max_nodes)
            assert got == want, (kind, max_nodes)
            assert len(calls) == len(rows) == len(set(rows)), (kind, max_nodes)
            if max_nodes is None:
                (combo, leaves), nodes, _ = want
                if case in BILEVEL_SPECS:
                    # the benchmark's instances repeat 32-68% of the fills
                    assert len(rows) <= 0.7 * len(ref_rows), kind
        res = solve_bilevel(inst, m, kind, mode="exact")
        value = evaluate(kind, inst, Solution(combo))
        assert (res.chosen.nodes, res.upper_value.hex(), res.optima_enumerated,
                res.stats.subsets_or_nodes_explored) == (
                    combo, value.hex(), leaves, nodes)


@pytest.mark.parametrize("mode,walk_nodes", [("exact", 525),
                                             ("enumerate", 202)])
def test_bilevel_result_reports_the_search_effort(mode, walk_nodes):
    # the d* solve and the walk, charged to one ledger; once d* is cached
    # only the walk is left, and equality ignores the stats (wall time)
    spec = ("gkd-d", 40, 6, 3)  # the instance the CI example step solves
    inst = _generate(spec)
    first = solve_bilevel(inst, 6, ObjectiveKind.MAXSUM, mode=mode)
    again = solve_bilevel(inst, 6, ObjectiveKind.MAXSUM, mode=mode)
    d_star = solve_maxmin_improved(_generate(spec), 6).stats
    assert first == again
    assert again.stats.subsets_or_nodes_explored == walk_nodes
    assert first.stats.subsets_or_nodes_explored == (
        d_star.subsets_or_nodes_explored + walk_nodes)
    assert (first.stats.decision_solves, again.stats.decision_solves) == (1, 0)
    assert first.stats.wall_time > 0


def test_enumeration_reuses_the_public_solve(monkeypatch, t4):
    z = solve_maxmin_improved(t4, 3).value
    calls = _count_decisions(monkeypatch)
    en = enumerate_maxmin_optima(t4, 3)
    assert en.value == z and calls == []
    # another m is another optimum: it is solved, not read
    assert enumerate_maxmin_optima(t4, 2).value == 6.0
    assert calls and t4._maxmin == {3: z, 2: 6.0}


def test_cache_hit_costs_no_budget():
    inst = _generate(("mdg", 30, 5, 3))
    # the walk over G(d*) takes 37 nodes, one MaxMin probe 49
    budget = SolverBudget(max_nodes=40)
    with pytest.raises(BudgetExceededError, match="not proven"):
        enumerate_maxmin_optima(inst, 5, budget=budget)
    z = solve_maxmin_improved(inst, 5).value
    en = enumerate_maxmin_optima(inst, 5, budget=budget)
    assert en.value == z and len(en) >= 1


def test_both_methods_record_the_same_optimum(flat3):
    pairs = [(_generate(spec), _generate(spec), spec[2])
             for spec in (("gkd-d", 40, 5, 1), ("mdg", 60, 6, 6),
                          ("som", 30, 5, 2))]
    pairs.append((flat3, dataclasses.replace(flat3), 2))  # no probe at all
    for a, b, m in pairs:
        improved = solve_maxmin_improved(a, m)
        original = solve_maxmin_original(b, m)
        assert a._maxmin == b._maxmin == {m: improved.value}
        assert original.value == improved.value


@pytest.mark.parametrize("spec,max_nodes", [(("gkd-d", 60, 8, 9), 100),
                                            (("gkd-d", 60, 8, 9), 5)])
def test_budget_stopped_maxmin_records_nothing(monkeypatch, spec, max_nodes):
    m = spec[2]
    inst = _generate(spec)
    for solve in (solve_maxmin_improved, solve_maxmin_original):
        res = solve(inst, m, SolverBudget(max_nodes=max_nodes))
        assert res.status is SolveStatus.FEASIBLE
        assert inst._maxmin == {}
    # the bi-level solver then proves d* itself
    calls = _count_decisions(monkeypatch)
    res = solve_bilevel(inst, m, ObjectiveKind.MAXSUM)
    assert calls and res.d_star == solve_maxmin_improved(_generate(spec), m).value


def test_budget_stopped_lower_level_raises(t4):
    with pytest.raises(BudgetExceededError, match="not proven"):
        solve_bilevel(t4, 3, ObjectiveKind.MAXSUM,
                      budget=SolverBudget(max_nodes=1))
    assert t4._maxmin == {}


def test_public_maxmin_solves_search_every_time():
    inst = _generate(("mdg", 40, 5, 2))
    for solve in (solve_maxmin_improved, solve_maxmin_original):
        first = solve(inst, 5)
        again = solve(inst, 5)
        assert again.stats.subsets_or_nodes_explored \
            == first.stats.subsets_or_nodes_explored > 0
        assert again.stats.decision_solves == first.stats.decision_solves > 0
        assert again.stats.trace == first.stats.trace
        assert (again.value, again.solution) == (first.value, first.solution)


def test_replace_and_truncate_start_with_empty_caches():
    a = _generate(("mdg", 12, 3, 1))
    b = _generate(("mdg", 12, 3, 2))
    solve_maxmin_improved(a, 3)
    assert a._spectrum is not None and a._maxmin
    swapped = dataclasses.replace(a, distances=b.distances)
    assert swapped._spectrum is None and swapped._maxmin == {}
    truth = brute_force(b, 3, ObjectiveKind.MAXMIN).value
    assert solve_maxmin_improved(swapped, 3).value == truth
    assert solve_bilevel(swapped, 3, ObjectiveKind.MAXSUM).d_star == truth
    head = truncate(a, 9)
    assert head._spectrum is None and head._maxmin == {}
    assert solve_bilevel(head, 3, ObjectiveKind.MAXSUM).d_star \
        == brute_force(head, 3, ObjectiveKind.MAXMIN).value


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def test_solve_model_dispatch(t4):
    assert solve_model(t4, 3, ObjectiveKind.MAXSUM).value == 15.0
    assert solve_model(t4, 3, ObjectiveKind.MAXMIN).value == 4.0
    assert solve_model(t4, 3, ObjectiveKind.MAXMIN,
                       maxmin_method="original").value == 4.0
    assert solve_model(t4, 3, ObjectiveKind.MAXMINSUM).value == 9.0
    assert solve_model(t4, 3, ObjectiveKind.MINDIFF).value == 2.0
    assert solve_model(t4, None, ObjectiveKind.MAXMEAN).value == 5.25
    with pytest.raises(ValueError):
        solve_model(t4, 3, ObjectiveKind.MAXMIN, maxmin_method="bogus")
