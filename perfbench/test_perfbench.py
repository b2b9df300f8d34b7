"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

import json
import sys
from types import SimpleNamespace

import pytest

import run
import speed
from checks import Failures, fingerprint, reference_mismatches
from measure import tail_percentile
from spans import ROOT, Tracer, layer_metrics, root_total, self_times
from workloads import WORKLOADS, fresh, ordered

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def dv():
    return run.import_divopt()


# -- tail percentile ---------------------------------------------------------

def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(v) for v in range(48, 0, -1)]  # 1..48, unsorted
    value, pct, count = tail_percentile(samples)
    assert count == 48
    assert value == 38.0  # 39..48 are the ten samples beyond it
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100 * 38 / 48)


def test_tail_needs_more_than_ten_samples():
    assert tail_percentile([1.0] * 11) == (1.0, pytest.approx(100 / 11), 11)
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 10)


def test_op_time_is_the_median_over_untraced_passes_of_scaled_times():
    scaled = [[1.0, 9.0], [3.0, 2.0], [2.0, 4.0]]  # per pass, per op
    passes = [run.Pass(traced=False, insts={}, times=[0.0, 0.0], scaled=s)
              for s in scaled]
    passes.insert(1, run.Pass(traced=True, insts={}, times=[0.0, 0.0],
                              scaled=[100.0, 100.0]))
    assert run.op_times(passes) == [2.0, 4.0]
    passes[0].times = [7.0, 8.0]
    assert run.op_times(passes, raw=True) == [0.0, 0.0]


def test_scaled_times_use_the_median_kernel_sample_near_each_section():
    ref = speed.CAL_REF_S
    kernel = [ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref, 9 * ref]
    out = speed.scaled([1.0, 1.0, 4.0], kernel, [0, 0, 5])
    # section 0 sees samples 0..3 (median 1.5 ref); section 5 sees
    # samples 3..7, where one slow outlier does not move the median
    assert out == pytest.approx([1 / 1.5, 1 / 1.5, 2.0])


# -- self time ---------------------------------------------------------------

def _span(sid, parent, layer, start, end):
    return [sid, parent, "op1", layer, start, end, None]


def test_self_time_of_nested_and_recursive_spans():
    spans = [
        _span(0, None, ROOT, 0.0, 10.0),
        _span(1, 0, "a", 1.0, 9.0),
        _span(2, 1, "a", 2.0, 6.0),   # a calls itself
        _span(3, 2, "b", 3.0, 4.0),
        _span(4, 1, "b", 7.0, 8.5),
    ]
    own = self_times(spans)
    assert own == {0: 2.0, 1: 2.5, 2: 3.0, 3: 1.0, 4: 1.5}
    assert sum(own.values()) == root_total(spans) == 10.0


def test_traced_recursion_is_not_counted_twice():
    mod = SimpleNamespace()

    def countdown(k):
        total = 0
        for _ in range(2000):
            total += 1
        return total + (mod.countdown(k - 1) if k else 0)

    mod.countdown = countdown
    tracer = Tracer()
    tracer.install(SimpleNamespace(m=mod), [("m", "countdown", "rec", None)])
    tracer.run_op("op1", lambda: mod.countdown(5))
    tracer.uninstall()
    assert mod.countdown is countdown
    rec = [s for s in tracer.spans if s[3] == "rec"]
    assert len(rec) == 6
    own = self_times(tracer.spans)
    durations = sum(s[5] - s[4] for s in rec)
    layer_self = sum(own[s[0]] for s in rec)
    assert layer_self < durations  # summing durations would double count
    assert sum(own.values()) == pytest.approx(root_total(tracer.spans), rel=1e-12)


def test_library_spans_add_up_to_the_operation(dv):
    inst = dv.instances.generate(dv.instances.GeneratorSpec(
        dv.instances.Family.GKD_D, 20, 4, 7))
    tracer = Tracer()
    tracer.install(dv)
    try:
        tracer.run_op("op1", lambda: dv.solvers.solve_maxmin_improved(inst, 4))
    finally:
        tracer.uninstall()
    table = layer_metrics(tracer.spans)
    assert table["solvers.decide_calls"] == table["solvers.maxmin_improved_probes"] > 0
    assert table["solvers.threshold_graph_calls"] == table["solvers.decide_calls"]
    assert table["instances.spectrum_calls"] == 1
    named = sum(v for k, v in table.items()
                if k.endswith("_s") and k != "trace.ops_total_s")
    assert named == pytest.approx(table["trace.ops_total_s"], rel=1e-9)


# -- failure counting ----------------------------------------------------------

class _NoOracle:
    def check(self, dv, insts, res, seed):
        return []


def _passes(fps_per_pass):
    return [run.Pass(traced=False, insts={}, op_ids=list(fps), fingerprints=fps)
            for fps in fps_per_pass]


def test_wrong_reference_counts_in_fail_frac():
    fps = {"a": {"value": 1.5, "nodes": 3}, "b": {"value": 2.0, "nodes": 4}}
    reference = {"a": {"value": 1.5, "nodes": 3}, "b": {"value": 2.5, "nodes": 4}}
    fails = run.judge(None, _NoOracle(), _passes([fps, dict(fps)]), 0,
                      reference, check_reference=True)
    assert (fails.count, fails.attempted, fails.frac) == (2, 4, 0.5)
    assert "reference mismatch" in fails.reasons["b"]
    clean = run.judge(None, _NoOracle(), _passes([fps, dict(fps)]), 0,
                      {k: dict(v) for k, v in fps.items()}, check_reference=True)
    assert clean.count == 0


def test_default_seed_requires_full_reference_coverage():
    fps = {"a": {"nodes": 3}}
    assert reference_mismatches(fps, {}, require_all=False) == []
    assert reference_mismatches(fps, {}, require_all=True)[0][0] == "a"


def test_count_drift_between_passes_is_a_failure():
    first = {"a": {"nodes": 3}, "b": {"nodes": 4}}
    drifted = {"a": {"nodes": 3}, "b": {"nodes": 5}}
    fails = run.judge(None, _NoOracle(), _passes([first, drifted]), 1, {},
                      check_reference=True)
    assert fails.failed == {(1, "b")}
    assert "drifted" in fails.reasons["b"]


def test_failures_count_each_pass_once():
    fails = Failures(["a", "b", "c"], passes=2)
    fails.add("a", "first reason")
    fails.add("a", "second reason", 1)
    fails.add("c", "raised", 0)
    assert (fails.count, fails.attempted) == (3, 6)
    assert fails.reasons["a"] == "first reason"


# -- workload generation -------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_generation_is_reproducible(dv, name):
    w = WORKLOADS[name]
    a, b = w.instances(dv, 3), w.instances(dv, 3)
    assert list(a) == list(b)
    for key in a:
        assert a[key].distances.tobytes() == b[key].distances.tobytes()
    ids = [op.op_id for op in ordered(w.blocks(dv, a, 3), 3) + w.tail(dv, a, 3)]
    again = [op.op_id for op in ordered(w.blocks(dv, b, 3), 3) + w.tail(dv, b, 3)]
    assert ids == again
    assert len(ids) == len(set(ids)) > 10


def test_seed_draws_model_compare_small_sets(dv):
    w = WORKLOADS["model-compare"]
    a, b = w.instances(dv, 0), w.instances(dv, 1)
    assert set(a) != set(b)
    assert {k for k in a if "_n25_" not in k} == {k for k in b if "_n25_" not in k}


def test_fresh_instance_has_no_cached_spectrum(dv):
    inst = dv.instances.generate(dv.instances.GeneratorSpec(
        dv.instances.Family.MDG, 12, 3, 1))
    dv.instances.spectrum_stats(inst)
    copy = fresh(dv, inst)
    assert copy._spectrum is None
    assert copy.distances.tobytes() == inst.distances.tobytes()


def test_fingerprint_is_json_ready(dv):
    inst = dv.instances.generate(dv.instances.GeneratorSpec(
        dv.instances.Family.SOM, 12, 3, 2))
    fp = fingerprint(dv.solvers.solve_maxmin_original(inst, 3))
    assert json.loads(json.dumps(fp)) == fp
    assert fp["q_used"] is not None and len(fp["subset"]) == 3


# -- BENCHMARK.json agrees with the code ---------------------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer = list(layer_metrics([])) + ["instances.generate_s",
                                       "trace.overhead_frac"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: run.unit_of(k) for k in layer}
