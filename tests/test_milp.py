import numpy as np
import pytest

import divopt.milp
from divopt import (Family, FormulationKind, GeneratorSpec, Instance,
                    ObjectiveKind, TighteningConstants, brute_force,
                    compute_constants, emit, generate, parse_solution_vector,
                    verify_external)

GOLDEN_MAXMINSUM = """\
\\ instance: t4
\\ nodes: 4
\\ formulation: maxminsum_tight
\\ m: 3
\\ constants: C=7.0 U_plus=15.0 L_minus=0.0
\\ variables: x_<i> node selection (1-based); y_<i>_<j> pair indicator;
\\   w_<i>/w/s/t/r auxiliary objective variables
Maximize
 obj: 1.0 s
Subject To
 card: 1.0 x_1 + 1.0 x_2 + 1.0 x_3 + 1.0 x_4 = 3.0
 s_1: 1.0 s - 1.0 x_2 - 2.0 x_3 - 3.0 x_4 + 15.0 x_1 <= 15.0
 s_2: 1.0 s - 1.0 x_1 - 4.0 x_3 - 5.0 x_4 + 15.0 x_2 <= 15.0
 s_3: 1.0 s - 2.0 x_1 - 4.0 x_2 - 6.0 x_4 + 15.0 x_3 <= 15.0
 s_4: 1.0 s - 3.0 x_1 - 5.0 x_2 - 6.0 x_3 + 15.0 x_4 <= 15.0
Bounds
 s free
Binaries
 x_1 x_2 x_3 x_4
End
"""


def test_constants_t4(t4):
    c = compute_constants(t4)
    assert c.C == 7.0  # d_max + 1
    assert c.U == (6.0, 10.0, 12.0, 14.0)
    assert c.U_plus == 15.0
    assert c.D_bar == (6.0, 9.0, 6.0, 0.0)
    assert c.D_dbar == (0.0, 0.0, 0.0, 0.0)
    assert c.L == (0.0, 0.0, 0.0, 0.0)
    assert c.L_minus == 0.0


def test_golden_maxminsum_export(t4):
    assert emit(t4, FormulationKind.MAXMINSUM_TIGHT, m=3) == GOLDEN_MAXMINSUM


def _rows(text):
    body = text.split("Subject To\n", 1)[1].split("Bounds")[0]
    return [ln.strip() for ln in body.splitlines() if ":" in ln]


def test_maxsum_kuo_shape(t4):
    text = emit(t4, FormulationKind.MAXSUM_KUO, m=3)
    rows = _rows(text)
    assert len(rows) == 1 + 3 * 6  # cardinality + three rows per pair
    assert text.count("y_") >= 6
    assert "Maximize" in text
    # objective carries one term per pair with the distance as coefficient
    obj = text.split("obj:")[1].split("\n")[0]
    assert "6.0 y_3_4" in obj


def test_maxsum_w_shape(t4):
    text = emit(t4, FormulationKind.MAXSUM_W, m=3)
    rows = _rows(text)
    assert len(rows) == 1 + 2 * 3  # card + upper/lower pair per w_i, i<n
    assert "w_1 free" in text and "w_3 free" in text
    assert "w_4" not in text
    assert "-0.0" not in text


def test_maxmin_kuo_shape(t4):
    text = emit(t4, FormulationKind.MAXMIN_KUO, m=3)
    rows = _rows(text)
    # card + 3 linking rows and 1 threshold row per pair
    assert len(rows) == 1 + 4 * 6
    assert "1.0 w\n" in text or "1.0 w " in text
    # threshold row for the farthest pair: (C - 6) y + w <= C
    assert any(r.startswith("th_3_4:") and "1.0 y_3_4" in r and "7.0" in r
               for r in rows)


def test_mindiff_single_diff_row(t4):
    text = emit(t4, FormulationKind.MINDIFF_TIGHT, m=3)
    rows = _rows(text)
    assert sum(1 for r in rows if r.startswith("diff:")) == 1
    assert sum(1 for r in rows if r.startswith("r_")) == 4
    assert sum(1 for r in rows if r.startswith("s_")) == 4
    assert "Minimize" in text
    assert "t free" in text and "r free" in text and "s free" in text


def test_node_packing_and_feasibility(t4):
    text = emit(t4, FormulationKind.NODE_PACKING, l=4.0)
    rows = _rows(text)
    assert len(rows) == 3  # edges of G(4): pairs closer than 4
    assert "card" not in text
    obj = text.split("obj:")[1].split("\n")[0]
    assert "1.0 x_1" in obj and "x_4" in obj

    feas = emit(t4, FormulationKind.PACKING_FEASIBILITY, m=3, l=4.0)
    frows = _rows(feas)
    assert sum(1 for r in frows if r.startswith("e_")) == 3
    assert any(r.startswith("card:") for r in frows)
    assert "0.0 x_1" in feas  # constant objective


def test_emit_argument_validation(t4):
    with pytest.raises(ValueError):
        emit(t4, FormulationKind.MAXSUM_KUO)  # m missing
    with pytest.raises(ValueError):
        emit(t4, FormulationKind.NODE_PACKING)  # l missing
    with pytest.raises(ValueError):
        emit(t4, FormulationKind.PACKING_FEASIBILITY, m=3)  # l missing


def test_lines_stay_within_width():
    inst = generate(GeneratorSpec(family=Family.MDG, n=25, m=5, seed=3))
    for kind in FormulationKind:
        kw = {}
        if kind.needs_m:
            kw["m"] = 5
        if kind.needs_l:
            kw["l"] = float(np.median(inst.pair_values()))
        text = emit(inst, kind, **kw)
        assert all(len(line) <= 78 for line in text.splitlines())
        assert text.endswith("End\n")


def test_parse_solution_vector():
    sel = parse_solution_vector("x_1 0\nx_2 1.0\nx_3 0.9999997\nother 5\n", 4)
    assert sel == (1, 2)
    with pytest.raises(ValueError):
        parse_solution_vector("x_1 0.5\n", 4)  # not near-binary
    with pytest.raises(ValueError):
        parse_solution_vector("x_9 1\n", 4)  # out of range
    with pytest.raises(ValueError):
        parse_solution_vector("x_1 1\nx_1 1\n", 4)  # duplicate


def test_verify_external_objectives(t4):
    chk = verify_external(t4, FormulationKind.MAXSUM_KUO, 3,
                          "x_1 0\nx_2 1\nx_3 1\nx_4 1\n")
    assert chk.valid and chk.value == 15.0 and chk.selected == (1, 2, 3)
    chk = verify_external(t4, FormulationKind.MINDIFF_TIGHT, 3,
                          "x_1 0\nx_2 1\nx_3 1\nx_4 1\n")
    assert chk.valid and chk.value == 2.0


def test_verify_external_cardinality(t4):
    with pytest.raises(ValueError):
        verify_external(t4, FormulationKind.MAXSUM_KUO, 3, "x_1 1\nx_2 1\n")


def test_verify_external_packing(t4):
    good = verify_external(t4, FormulationKind.PACKING_FEASIBILITY, 3,
                           "x_2 1\nx_3 1\nx_4 1\n", l=4.0)
    assert good.valid and good.value == 3.0 and not good.violations
    bad = verify_external(t4, FormulationKind.PACKING_FEASIBILITY, 3,
                          "x_1 1\nx_2 1\nx_3 1\n", l=4.0)
    assert not bad.valid
    assert len(bad.violations) == 2  # pairs (1,2) and (1,3) are below 4


def test_verify_rejects_missing_threshold(t4):
    with pytest.raises(ValueError):
        verify_external(t4, FormulationKind.NODE_PACKING, None, "x_1 1\n")


def test_constants_with_zero_distances():
    d = np.zeros((3, 3))
    d[0, 1] = d[1, 0] = 2.0
    inst = Instance(name="z", family=Family.CUSTOM, distances=d)
    c = compute_constants(inst)
    assert c.C == 3.0
    assert c.L == (0.0, 0.0, 0.0)
    assert c.U == (2.0, 2.0, 0.0)


def _numpy_indexed_constants(instance):
    # compute_constants as it read numpy scalars d[i, j]
    d = instance.distances
    n = instance.n
    d_bar = tuple(float(sum(max(0.0, d[i, j]) for j in range(i + 1, n)))
                  for i in range(n))
    d_dbar = tuple(float(sum(min(0.0, d[i, j]) for j in range(i + 1, n)))
                   for i in range(n))
    upper = tuple(float(sum(max(0.0, d[i, j]) for j in range(n) if j != i))
                  for i in range(n))
    lower = tuple(float(sum(min(0.0, d[i, j]) for j in range(n) if j != i))
                  for i in range(n))
    return TighteningConstants(C=float(d.max()) + 1.0, D_bar=d_bar,
                               D_dbar=d_dbar, U_plus=1.0 + max(upper),
                               L=lower, U=upper, L_minus=min(lower))


@pytest.mark.parametrize("family,n,seed", [("gkd-d", 12, 0), ("mdg", 10, 3),
                                           ("gkd", 9, 5)])
def test_lp_text_same_as_numpy_indexed_constants(monkeypatch, family, n, seed):
    inst = generate(GeneratorSpec(family=Family.from_string(family), n=n, m=4,
                                  seed=seed))
    l = float(np.median(inst.distances[np.triu_indices(n, 1)]))
    kinds = list(FormulationKind)
    got = [emit(inst, kind, m=4, l=l) for kind in kinds]
    assert compute_constants(inst) == _numpy_indexed_constants(inst)
    monkeypatch.setattr(divopt.milp, "compute_constants",
                        _numpy_indexed_constants)
    want = [emit(inst, kind, m=4, l=l) for kind in kinds]
    assert len(kinds) == 7
    for kind, a, b in zip(kinds, got, want):
        assert a.encode() == b.encode(), kind


# The HiGHS faults that tests/_lp_bridge.py documents, one per setting:
# s212's presolve-off point sits 1.0e-6 below the true minimum inside the
# row tolerance, s59's presolve-off point is suboptimal, s289's presolve-on
# run ends in a solve error.
@pytest.mark.parametrize("family,seed,kind,objective", [
    ("gkd-d", 212, FormulationKind.MINDIFF_TIGHT, ObjectiveKind.MINDIFF),
    ("gkd-d", 59, FormulationKind.MAXSUM_KUO, ObjectiveKind.MAXSUM),
    ("mdg", 289, FormulationKind.MAXMINSUM_TIGHT, ObjectiveKind.MAXMINSUM),
])
def test_lp_bridge_matches_brute_force_on_highs_faults(family, seed, kind,
                                                       objective):
    pytest.importorskip("scipy")
    from _lp_bridge import solve_lp_text

    inst = generate(GeneratorSpec(family=Family.from_string(family),
                                  n=4 + seed % 3, m=3, seed=seed))
    text = emit(inst, kind, m=3)
    status, value, x_text = solve_lp_text(text)
    native = brute_force(inst, 3, objective)
    assert status == 0
    assert abs(value - native.value) <= 1e-6
    check = verify_external(inst, kind, 3, x_text)
    assert check.valid and abs(check.value - native.value) <= 1e-6
