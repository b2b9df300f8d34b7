import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divopt import (BenchJob, Family, GeneratorSpec, HistogramMode, Instance,
                    ObjectiveKind, PairedObjectives, Solution, SolveStatus,
                    SolverBudget, benchmark_csv, benchmark_summary,
                    compute_pairing, cross_model_report, deviation_pct,
                    generate, geometry_stats, histogram, histogram_csv,
                    multiplicity_report, pair_results, pearson,
                    relative_range, solve_model)


# ---------------------------------------------------------------------------
# deviations, correlation
# ---------------------------------------------------------------------------

def test_deviation_worked_values():
    # frozen reference pairs used in reporting
    assert deviation_pct(284.3, 278.88) == pytest.approx(1.91, abs=0.01)
    assert deviation_pct(3429.88, 3426.25) == pytest.approx(0.11, abs=0.01)
    assert deviation_pct(172.4, 162.0) == pytest.approx(6.03, abs=0.01)


def test_deviation_signs_and_zero():
    assert deviation_pct(100.0, 110.0) == pytest.approx(-10.0)
    assert deviation_pct(100.0, 100.0) == 0.0
    with pytest.raises(ValueError):
        deviation_pct(0.0, 5.0)


def test_pearson_basics():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)
    assert pearson([1, 2, 3], [1, 1, 1]) is None  # constant side undefined
    with pytest.raises(ValueError):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        pearson([1], [1])


def test_cross_model_report_aggregates():
    pairs = [PairedObjectives(100.0, 95.0, 50.0),
             PairedObjectives(200.0, 198.0, 90.0)]
    row = cross_model_report("set_a", pairs)
    assert row.instance_count == 2
    assert row.min_dev == pytest.approx(1.0)
    assert row.max_dev == pytest.approx(5.0)
    assert row.avg_dev == pytest.approx(3.0)
    assert row.correlation == pytest.approx(1.0)
    single = cross_model_report("s", pairs[:1])
    assert single.correlation is None


def test_compute_pairing_t4(t4):
    p = compute_pairing(t4, 3, ObjectiveKind.MAXSUM, ObjectiveKind.MAXMIN)
    # both models share the optimum subset on this example
    assert p.primary_optimum == 15.0
    assert p.primary_at_secondary == 15.0
    assert p.secondary_optimum == 4.0


def test_pair_results_scores_under_the_primary_kind(t4):
    # MinDiff's optimum is 2 on {1,2,3}; on MaxMean's optimum {0,1,2,3}
    # the contributions 6, 10, 12, 14 give it 8
    mindiff = solve_model(t4, 3, ObjectiveKind.MINDIFF)
    maxmean = solve_model(t4, None, ObjectiveKind.MAXMEAN)
    p = pair_results(t4, mindiff, maxmean)
    assert (p.primary_optimum, p.secondary_optimum) == (2.0, 5.25)
    assert p.primary_at_secondary == 8.0
    # compute_pairing's m sizes MinDiff only; MaxMean chooses its own
    assert compute_pairing(t4, 3, ObjectiveKind.MINDIFF,
                           ObjectiveKind.MAXMEAN) == p


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------

def test_histogram_normalized_binning():
    d = np.zeros((3, 3))
    d[0, 1] = d[1, 0] = 10.0
    d[0, 2] = d[2, 0] = 55.0
    d[1, 2] = d[2, 1] = 100.0
    inst = Instance(name="h", family=Family.CUSTOM, distances=d)
    h = histogram([(inst, Solution([0, 1, 2]))], HistogramMode.NORMALIZED10)
    # 10/100 -> class 1, 55/100 -> class 5, 100/100 -> closed last class
    assert h.counts == (0, 1, 0, 0, 0, 1, 0, 0, 0, 1)
    assert h.sample_size == 3
    assert h.d_max_used == 100.0
    assert sum(h.relative) == pytest.approx(1.0)


def test_histogram_integer_bars(t4):
    h = histogram([(t4, Solution([1, 2, 3]))], HistogramMode.INTEGER_BARS)
    assert h.counts == (0, 0, 0, 0, 1, 1, 1, 0, 0, 0)
    assert h.d_max_used is None


def test_histogram_integer_bars_reject_fractional(unit_square):
    with pytest.raises(ValueError):
        histogram([(unit_square, Solution([0, 3]))],
                  HistogramMode.INTEGER_BARS)


def test_histogram_pools_instances(t4):
    # same instance twice: counts double, d_max still common
    h = histogram([(t4, Solution([1, 2, 3])), (t4, Solution([0, 1, 2]))],
                  HistogramMode.NORMALIZED10)
    assert h.sample_size == 6
    assert h.d_max_used == 6.0


def test_histogram_mixed_dmax_normalizes_per_instance(t4, unit_square):
    h = histogram([(t4, Solution([1, 2, 3])),
                   (unit_square, Solution([0, 3]))],
                  HistogramMode.NORMALIZED10)
    assert h.d_max_used is None  # pooled sets with different scales
    assert h.sample_size == 4
    assert h.counts[9] >= 2  # each instance's d_max lands in the last class


def test_histogram_empty_rejected():
    with pytest.raises(ValueError):
        histogram([], HistogramMode.NORMALIZED10)


def test_histogram_rejects_out_of_range_node(t4):
    with pytest.raises(ValueError, match="out of range"):
        histogram([(t4, Solution([1, 4]))], HistogramMode.NORMALIZED10)


def test_histogram_csv_labels(t4):
    h = histogram([(t4, Solution([1, 2, 3]))], HistogramMode.NORMALIZED10)
    text = histogram_csv(h)
    assert text.splitlines()[0] == "bin,count,relative"
    assert "[0.9,1.0]" in text
    hi = histogram([(t4, Solution([1, 2, 3]))], HistogramMode.INTEGER_BARS)
    assert "\n9," in histogram_csv(hi)


# ---------------------------------------------------------------------------
# geometry, multiplicity, range
# ---------------------------------------------------------------------------

def test_geometry_t4(t4):
    g = geometry_stats(t4, Solution([1, 2, 3]))
    assert g.avg_pairwise == 5.0
    assert g.min_pairwise == 4.0
    assert g.max_pairwise == 6.0
    assert g.avg_to_nonselected == 2.0


def test_geometry_full_set_has_no_complement(t4):
    g = geometry_stats(t4, Solution([0, 1, 2, 3]))
    assert g.avg_to_nonselected is None


def test_geometry_complement_matches_setdiff():
    inst = generate(GeneratorSpec(family=Family.MDG, n=15, m=4, seed=6))
    for nodes in ([0, 1], [3, 7, 14], [2, 5, 8, 9, 11, 13], list(range(14))):
        idx = np.asarray(nodes, dtype=np.intp)
        rest = np.setdiff1d(np.arange(inst.n), idx)
        want = float(inst.distances[np.ix_(idx, rest)].mean())
        got = geometry_stats(inst, Solution(nodes)).avg_to_nonselected
        assert got.hex() == want.hex()


def test_multiplicity_unit_square(unit_square):
    summary = multiplicity_report([unit_square], 2)
    assert summary.per_instance == (("unit_square", 2, False),)
    assert summary.avg_count == 2.0
    assert summary.max_count == 2
    assert not summary.any_truncated


def test_multiplicity_budget_stop_reads_none(unit_square):
    # the budget stops the gkd-d instance's MaxMin solve, so its count is
    # unknown; the roll-ups cover the unit square alone, whose d* solve and
    # enumeration walk take 3 + 5 nodes of the one budget
    stopped = generate(GeneratorSpec(family=Family.GKD_D, n=40, m=6, seed=0))
    budget = SolverBudget(max_nodes=8)
    summary = multiplicity_report([unit_square, stopped], 2, budget=budget)
    assert summary.per_instance == (("unit_square", 2, False),
                                    (stopped.name, None, None))
    assert (summary.avg_count, summary.max_count) == (2.0, 2)
    assert not summary.any_truncated
    alone = multiplicity_report([stopped], 2, budget=budget)
    assert (alone.avg_count, alone.max_count) == (None, None)


def test_relative_range():
    assert relative_range([50.0, 100.0]) == pytest.approx(0.5)
    assert relative_range([7.0]) == 0.0
    with pytest.raises(ValueError):
        relative_range([])
    with pytest.raises(ValueError):
        relative_range([0.0, 0.0])


# ---------------------------------------------------------------------------
# benchmark roll-up
# ---------------------------------------------------------------------------

def _job(kind, status, set_name="s"):
    return BenchJob(set_name=set_name, kind=kind, status=status)


def test_benchmark_summary_missing_values():
    k = ObjectiveKind.MAXSUM
    jobs = [_job(k, SolveStatus.BUDGET_EXCEEDED),
            _job(k, SolveStatus.FEASIBLE),
            _job(k, SolveStatus.OPTIMAL)]
    row = benchmark_summary(jobs)[0]
    assert (row.count, row.solved_count) == (3, 1)
    assert benchmark_csv([row]) == "set,model,count,solved\ns,maxsum,3,1\n"


def test_benchmark_summary_groups_sets():
    k = ObjectiveKind.MAXSUM
    jobs = [_job(k, SolveStatus.OPTIMAL, set_name="b"),
            _job(k, SolveStatus.OPTIMAL, set_name="a")]
    rows = benchmark_summary(jobs)
    assert [r.set_name for r in rows] == ["a", "b"]


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@given(ref=st.floats(1e-3, 1e6), other=st.floats(0.0, 1e6))
@settings(max_examples=50)
def test_deviation_identity(ref, other):
    dev = deviation_pct(ref, other)
    assert dev == pytest.approx(100.0 * (ref - other) / ref)


@given(seed=st.integers(0, 2_000))
@settings(max_examples=20, deadline=None)
def test_histogram_mass_conserved(seed):
    inst = generate(GeneratorSpec(family=Family.GKD_D, n=8, m=3, seed=seed))
    h = histogram([(inst, Solution([0, 1, 2]))], HistogramMode.NORMALIZED10)
    assert sum(h.counts) == h.sample_size == 3
    assert sum(h.relative) == pytest.approx(1.0)
