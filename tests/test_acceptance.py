"""Acceptance gate: eleven numbered criteria, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
The shared corpora are module-scoped fixtures so the suite builds them
once; every check is deterministic (fixed seeds throughout).
"""

import itertools
import math
import time

import numpy as np
import pytest

import divopt as dv
from divopt import (Family, GeneratorSpec, HistogramMode, ObjectiveKind,
                    Solution, SolveStatus)

_FAMILIES = (Family.SOM, Family.MDG, Family.GKD_D)
_SUM_KINDS = (ObjectiveKind.MAXSUM, ObjectiveKind.MAXMINSUM,
              ObjectiveKind.MINDIFF)


def _report(num: int, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {detail}"


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _corpus_specs(count: int = 200):
    combos = [(f, n, m) for f in _FAMILIES
              for n in range(6, 13) for m in range(2, 6)]
    cyc = itertools.islice(itertools.cycle(combos), count)
    return [GeneratorSpec(family=f, n=n, m=m, seed=i)
            for i, (f, n, m) in enumerate(cyc)]


def _brute_bilevel(inst, m, upper):
    # reference bi-level optimum by full enumeration
    best_min = -math.inf
    for combo in itertools.combinations(range(inst.n), m):
        v = dv.eval_maxmin(inst, Solution(combo))
        if v > best_min:
            best_min = v
    best_upper = -math.inf
    for combo in itertools.combinations(range(inst.n), m):
        s = Solution(combo)
        if dv.eval_maxmin(inst, s) == best_min:
            u = dv.evaluate(upper, inst, s)
            if u > best_upper:
                best_upper = u
    return best_min, best_upper


@pytest.fixture(scope="module")
def records():
    """Solve the 200-instance corpus with every native solver."""
    out = []
    start = time.perf_counter()
    for spec in _corpus_specs():
        inst = dv.generate(spec)
        m = spec.m
        rec = {
            "inst": inst,
            "m": m,
            "improved": dv.solve_maxmin_improved(inst, m),
            "original": dv.solve_maxmin_original(inst, m),
            "bnb": dv.solve_maxsum_bnb(inst, m),
            "brute": {k: dv.brute_force(inst, m, k)
                      for k in (ObjectiveKind.MAXMIN,) + _SUM_KINDS},
            "bilevel": {},
        }
        for upper in (ObjectiveKind.MAXSUM, ObjectiveKind.MAXMINSUM):
            rec["bilevel"][upper] = (
                dv.solve_bilevel(inst, m, upper, mode="enumerate"),
                dv.solve_bilevel(inst, m, upper, mode="exact"),
                _brute_bilevel(inst, m, upper),
            )
        out.append(rec)
    return out, time.perf_counter() - start


@pytest.fixture(scope="module")
def large_runs():
    """Criterion-5 corpus: 30 planar instances with n=100, m=10."""
    out = []
    for seed in range(30):
        inst = dv.generate(GeneratorSpec(family=Family.GKD_D, n=100, m=10,
                                         seed=seed))
        t0 = time.perf_counter()
        a = dv.solve_maxmin_improved(inst, 10)
        b = dv.solve_maxmin_original(inst, 10)
        out.append((inst, a, b, time.perf_counter() - t0))
    return out


def test_criterion_1_oracle_equivalence(records):
    recs, elapsed = records
    ok = len(recs) == 200
    detail = f"200 instances in {elapsed:.1f}s"
    for rec in recs:
        bm = rec["brute"][ObjectiveKind.MAXMIN]
        ok = ok and rec["improved"].value == bm.value
        ok = ok and rec["original"].value == bm.value
        ok = ok and _close(rec["bnb"].value,
                           rec["brute"][ObjectiveKind.MAXSUM].value)
        for upper, (enum, exact, (bz, bu)) in rec["bilevel"].items():
            ok = ok and enum.d_star == bz and exact.d_star == bz
            ok = ok and _close(enum.upper_value, bu)
            ok = ok and _close(exact.upper_value, bu)
        if not ok:
            detail = f"mismatch on {rec['inst'].name}"
            break
    ok = ok and elapsed < 60.0
    _report(1, ok, detail)


def test_criterion_2_deviation_formula():
    checks = [(dv.deviation_pct(284.3, 278.88), 1.91),
              (dv.deviation_pct(3429.88, 3426.25), 0.11),
              (dv.deviation_pct(172.4, 162.0), 6.03)]
    ok = all(abs(got - want) <= 0.01 for got, want in checks)
    _report(2, ok, " ".join(f"{g:.4f}~{w}" for g, w in checks))


def test_criterion_3_maxmin_dominance(records):
    recs, _ = records
    ok = True
    detail = f"{len(recs)} instances"
    for rec in recs:
        inst = rec["inst"]
        z = rec["improved"].value
        for kind in _SUM_KINDS:
            other = rec["brute"][kind].solution
            if dv.eval_maxmin(inst, other) > z:
                ok, detail = False, f"dominance broken on {inst.name}"
                break
        hist = dv.histogram([(inst, rec["improved"].solution)],
                            HistogramMode.NORMALIZED10)
        floor = z / inst.d_max
        # classes 0..8 are half-open, so they sit strictly below the floor
        # whenever their upper bound reaches it; class 9 is closed at 1.0
        # and legitimately holds distances equal to z* when z* = d_max
        for k in range(9):
            if (k + 1) / 10.0 <= floor and hist.counts[k] != 0:
                ok, detail = False, f"mass below floor on {inst.name}"
                break
        if not ok:
            break
    _report(3, ok, detail)


def test_criterion_4_bilevel_sandwich(records):
    recs, _ = records
    ok = True
    detail = f"{len(recs)} instances, both upper objectives"
    for rec in recs:
        inst = rec["inst"]
        enum, exact, _ = rec["bilevel"][ObjectiveKind.MAXSUM]
        plain_maxmin = rec["improved"]
        plain_maxsum = rec["bnb"]
        ok = ok and dv.eval_maxmin(inst, enum.chosen) == enum.d_star
        ok = ok and dv.eval_maxmin(inst, exact.chosen) == exact.d_star
        lo = dv.eval_maxsum(inst, plain_maxmin.solution)
        ok = ok and lo <= enum.upper_value + 1e-9 * max(1.0, abs(lo))
        ok = ok and enum.upper_value <= plain_maxsum.value \
            + 1e-9 * max(1.0, abs(plain_maxsum.value))
        for upper in (ObjectiveKind.MAXSUM, ObjectiveKind.MAXMINSUM):
            enum, exact, _ = rec["bilevel"][upper]
            if not enum.truncated:
                ok = ok and enum.d_star == exact.d_star
                ok = ok and _close(enum.upper_value, exact.upper_value)
                ok = ok and tuple(enum.chosen) == tuple(exact.chosen)
        if not ok:
            detail = f"sandwich broken on {inst.name}"
            break
    _report(4, ok, detail)


def test_criterion_5_method_agreement_at_scale(large_runs):
    ok = True
    detail = ""
    worst = 0.0
    for inst, improved, original, seconds in large_runs:
        worst = max(worst, seconds)
        distinct = dv.spectrum_stats(inst).distinct_count
        bound = math.ceil(math.log2(distinct)) + 1
        ok = ok and improved.status is SolveStatus.OPTIMAL
        ok = ok and original.status is SolveStatus.OPTIMAL
        ok = ok and improved.value == original.value
        ok = ok and improved.stats.decision_solves <= bound
        ok = ok and seconds < 10.0
        if not ok:
            detail = f"failed on {inst.name}"
            break
    if ok:
        detail = f"30 instances, worst pair time {worst:.2f}s"
    _report(5, ok, detail)


def test_criterion_6_optimum_in_spectrum(records, large_runs):
    recs, _ = records
    ok = True
    checked = 0
    for rec in recs:
        values = dv.spectrum_stats(rec["inst"]).distinct_values
        ok = ok and rec["improved"].value in values
        checked += 1
    for inst, improved, _, _ in large_runs:
        ok = ok and improved.value in dv.spectrum_stats(inst).distinct_values
        checked += 1
    _report(6, ok, f"{checked} instances")


def test_criterion_7_generator_conformance(large_runs):
    ok = True
    # planar family: diagonal of the [0,100]^2 box caps every distance
    for n, seed in ((50, 0), (60, 1), (75, 2)):
        inst = dv.generate(GeneratorSpec(family=Family.GKD_D, n=n, m=5,
                                         seed=seed))
        st_ = dv.spectrum_stats(inst)
        ok = ok and st_.d_max < 141.4214
        ok = ok and st_.repetition_rate < 0.01
    for inst, _, _, _ in large_runs:
        st_ = dv.spectrum_stats(inst)
        ok = ok and st_.d_max < 141.4214 and st_.repetition_rate < 0.01
    for seed in range(5):
        som = dv.generate(GeneratorSpec(family=Family.SOM, n=20, m=5,
                                        seed=seed))
        ok = ok and set(som.pair_values().tolist()) <= set(
            float(v) for v in range(10))
    corner = dv.euclidean_instance(
        np.array([[0.0] * 10, [10.0] * 10]), round_5dp=True,
        name="corner", family=Family.GKD)
    ok = ok and corner.distances[0, 1] == 31.62278
    _report(7, ok, f"corner pair -> {corner.distances[0, 1]}")


def test_criterion_8_correlation_trend():
    zs_primary, zs_secondary, devs = [], [], []
    for seed in range(30):
        inst = dv.generate(GeneratorSpec(family=Family.GKD_D, n=12, m=3,
                                         seed=seed))
        best_sum = dv.solve_maxsum_bnb(inst, 3)
        best_minsum = dv.brute_force(inst, 3, ObjectiveKind.MAXMINSUM)
        zs_primary.append(best_sum.value)
        zs_secondary.append(best_minsum.value)
        devs.append(abs(dv.deviation_pct(
            best_sum.value, dv.eval_maxsum(inst, best_minsum.solution))))
    corr = dv.pearson(zs_primary, zs_secondary)
    avg_dev = sum(devs) / len(devs)
    ok = corr is not None and corr >= 0.9 and avg_dev <= 5.0
    _report(8, ok, f"pearson={corr:.4f} avg|dev|={avg_dev:.2f}%")


def test_criterion_9_mindiff_triviality(records):
    recs, _ = records
    ok = True
    pairs_checked = 0
    for rec in recs[:40]:
        inst = rec["inst"]
        for combo in itertools.combinations(range(inst.n), 2):
            ok = ok and dv.eval_mindiff(inst, Solution(combo)) == 0.0
            pairs_checked += 1
    # SOM seed 0 contains a zero-distance triangle (checked via adjacency)
    som = dv.generate(GeneratorSpec(family=Family.SOM, n=10, m=3, seed=0))
    zero_adj = (som.distances == 0.0).astype(int)
    np.fill_diagonal(zero_adj, 0)
    has_triangle = np.trace(zero_adj @ zero_adj @ zero_adj) > 0
    res = dv.brute_force(som, 3, ObjectiveKind.MINDIFF)
    ok = ok and has_triangle and res.value == 0.0
    _report(9, ok, f"{pairs_checked} pair solutions, triangle optimum "
                   f"{res.value}")


def _lift(inst, kind, nodes):
    """Values of every emitted variable at the subset `nodes` (0-based)."""
    n, d = inst.n, inst.distances
    x = [1.0 if i in nodes else 0.0 for i in range(n)]
    values = {f"x_{i + 1}": x[i] for i in range(n)}
    pairs = list(itertools.combinations(range(n), 2))
    contrib = [sum(float(d[i, j]) * x[j] for j in range(n) if j != i)
               for i in nodes]
    kinds = dv.FormulationKind
    if kind in (kinds.MAXSUM_KUO, kinds.MAXMIN_KUO):
        values.update({f"y_{i + 1}_{j + 1}": x[i] * x[j] for i, j in pairs})
    if kind is kinds.MAXSUM_W:
        values.update({
            f"w_{i + 1}": x[i] * sum(float(d[i, j]) * x[j]
                                     for j in range(i + 1, n))
            for i in range(n - 1)})
    if kind is kinds.MAXMIN_KUO:
        values["w"] = min(float(d[i, j]) for i, j in pairs if x[i] * x[j])
    if kind in (kinds.MAXMINSUM_TIGHT, kinds.MINDIFF_TIGHT):
        values["s"] = min(contrib)
    if kind is kinds.MINDIFF_TIGHT:
        values["r"] = max(contrib)
        values["t"] = values["r"] - values["s"]
    return values


def test_criterion_10_external_milp_crosscheck():
    pytest.importorskip("scipy")
    from _lp_bridge import objective_at, row_violations, solve_lp_text

    model_kinds = {
        dv.FormulationKind.MAXSUM_KUO: ObjectiveKind.MAXSUM,
        dv.FormulationKind.MAXSUM_W: ObjectiveKind.MAXSUM,
        dv.FormulationKind.MAXMIN_KUO: ObjectiveKind.MAXMIN,
        dv.FormulationKind.MAXMINSUM_TIGHT: ObjectiveKind.MAXMINSUM,
        dv.FormulationKind.MINDIFF_TIGHT: ObjectiveKind.MINDIFF,
    }
    faults = []

    def record(inst, kind, text, agree, status, value, native, nodes,
               native_objective):
        # the native optimum, lifted into the emitted variables, must
        # satisfy every row at the native objective; this holds or fails
        # whatever HiGHS answers
        lifted = None
        if nodes is not None:
            point = _lift(inst, kind, nodes)
            broken = row_violations(text, point)
            at = objective_at(text, point)
            if broken:
                lifted = f"breaks {', '.join(broken)}"
            elif abs(at - native_objective) > 1e-6:
                lifted = f"scores {at!r}"
        if agree and lifted is None:
            return
        if lifted:
            cause = f"formulation fault: lifted native optimum {lifted}"
        elif nodes is None:
            cause = "solver fault: the native search finds no subset"
        else:
            cause = "solver fault: lifted native optimum breaks no row"
        faults.append(f"{kind.value}: HiGHS status {status} value {value!r},"
                      f" native {native!r}; {cause}")

    detail = "20 instances x 7 formulations"
    fams = itertools.cycle(_FAMILIES)
    for seed in range(20):
        n = 4 + seed % 3
        inst = dv.generate(GeneratorSpec(family=next(fams), n=n, m=3,
                                         seed=seed))
        kuo_value = None
        for kind, objective in model_kinds.items():
            text = dv.emit(inst, kind, m=3)
            status, value, x_text = solve_lp_text(text)
            native = dv.brute_force(inst, 3, objective)
            agree = status == 0
            if agree:
                check = dv.verify_external(inst, kind, 3, x_text)
                agree = check.valid
                agree = agree and abs(value - native.value) <= 1e-6
                agree = agree and abs(check.value - native.value) <= 1e-6
            if kind is dv.FormulationKind.MAXSUM_KUO:
                kuo_value = value
            if kind is dv.FormulationKind.MAXSUM_W:
                agree = agree and abs(value - kuo_value) <= 1e-6
            record(inst, kind, text, agree, status, value, native.value,
                   native.solution.nodes, native.value)
        # packing formulations against the threshold-graph solvers
        l = float(np.median(inst.pair_values())) or 1.0
        kind = dv.FormulationKind.NODE_PACKING
        text = dv.emit(inst, kind, l=l)
        status, value, _ = solve_lp_text(text)
        packing = dv.max_packing(inst, l)
        record(inst, kind, text, status == 0 and value == packing.value,
               status, value, packing.value, packing.solution.nodes,
               packing.value)
        kind = dv.FormulationKind.PACKING_FEASIBILITY
        text = dv.emit(inst, kind, m=3, l=l)
        status, value, x_text = solve_lp_text(text)
        feas = dv.feasible_subset(inst, l, 3)
        if feas.status is SolveStatus.FEASIBLE:
            agree = status == 0 and dv.verify_external(
                inst, kind, 3, x_text, l=l).valid
            record(inst, kind, text, agree, status, value, feas.status.value,
                   feas.solution.nodes, 0.0)
        else:
            record(inst, kind, text, status != 0, status, value,
                   feas.status.value, None, None)
        if faults:
            detail = f"mismatch on {inst.name}: {'; '.join(faults)}"
            break
    _report(10, not faults, detail)


def test_criterion_11_multiplicity(records, unit_square):
    recs, _ = records
    en = dv.enumerate_maxmin_optima(unit_square, 2)
    ok = len(en) == 2 and not en.truncated
    detail = f"unit square optima: {len(en)}"
    for rec in recs:
        inst = rec["inst"]
        z = rec["improved"].value
        # enumerates at the d* the improved solve proved and cached
        found = dv.enumerate_maxmin_optima(inst, rec["m"])
        ok = ok and found.value == z and len(found) >= 1
        ok = ok and all(dv.eval_maxmin(inst, s) == z for s in found)
        if not ok:
            detail = f"enumeration broken on {inst.name}"
            break
    _report(11, ok, detail)
