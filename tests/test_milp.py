import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divopt.milp
from _tuple_emit import _wrap as tuple_wrap
from _tuple_emit import tuple_emit
from divopt import (Family, FormulationKind, GeneratorSpec, Instance,
                    ObjectiveKind, TighteningConstants, brute_force,
                    compute_constants, emit, generate, parse_solution_vector,
                    solve_maxmin_improved, spectrum_stats, verify_external)
from divopt.instances import truncate

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
    for n in (25, 100):
        inst = generate(GeneratorSpec(family=Family.MDG, n=n, m=5, seed=3))
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


@pytest.mark.parametrize("kind", [FormulationKind.NODE_PACKING,
                                  FormulationKind.PACKING_FEASIBILITY])
def test_nan_threshold_rejected(t4, kind):
    nan = float("nan")
    with pytest.raises(ValueError, match="NaN"):
        emit(t4, kind, m=3, l=nan)
    with pytest.raises(ValueError, match="NaN"):
        verify_external(t4, kind, 3, "x_2 1\nx_3 1\nx_4 1\n", l=nan)
    # kinds without a threshold ignore l
    assert emit(t4, FormulationKind.MAXSUM_KUO, m=3, l=nan) == \
        emit(t4, FormulationKind.MAXSUM_KUO, m=3)


def test_infinite_threshold_stays_valid(t4):
    # every pair conflicts below +inf, none below -inf
    assert len(_rows(emit(t4, FormulationKind.NODE_PACKING,
                          l=float("inf")))) == 6
    assert len(_rows(emit(t4, FormulationKind.NODE_PACKING,
                          l=float("-inf")))) == 0
    chk = verify_external(t4, FormulationKind.NODE_PACKING, None,
                          "x_1 1\nx_2 1\n", l=float("-inf"))
    assert chk.valid and chk.value == 2.0


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


def _signed_zero_instance():
    # zero distances stored as 0.0 and -0.0, on and off the diagonal, with
    # the two triangles disagreeing in sign (Instance accepts all of these)
    d = np.array([[-0.0, -0.0, 2.5, 0.0, 1.0],
                  [0.0, 0.0, -0.0, 3.0, 0.0],
                  [2.5, 0.0, -0.0, -0.0, 0.1],
                  [-0.0, 3.0, 0.0, 0.0, 0.2],
                  [1.0, -0.0, 0.1, 0.2, -0.0]])
    return Instance(name="signed_zeros", family=Family.CUSTOM, distances=d)


@pytest.mark.parametrize("make", [
    _signed_zero_instance,
    lambda: Instance(name="all_zero", family=Family.CUSTOM,
                     distances=-np.zeros((4, 4))),
    lambda: generate(GeneratorSpec(family=Family.SOM, n=30, m=4, seed=2)),
    lambda: generate(GeneratorSpec(family=Family.MDG, n=25, m=4, seed=1)),
    lambda: generate(GeneratorSpec(family=Family.GKD, n=20, m=4, seed=3))])
def test_constants_same_bits_as_clamped_formulas(make):
    # the row-sum constants against the max(0, .)/min(0, .) formulas, bit
    # for bit: repr tells 0.0 from -0.0, where == does not
    inst = make()
    got = dataclasses.astuple(compute_constants(inst))
    want = dataclasses.astuple(_numpy_indexed_constants(inst))
    assert repr(got) == repr(want)


@pytest.mark.parametrize("family,n,seed", [("gkd-d", 12, 0), ("mdg", 10, 3),
                                           ("gkd", 9, 5)])
def test_lp_text_same_as_numpy_indexed_constants(monkeypatch, family, n, seed):
    inst = generate(GeneratorSpec(family=Family.from_string(family), n=n, m=4,
                                  seed=seed))
    l = float(np.median(inst.distances[np.triu_indices(n, 1)]))
    kinds = list(FormulationKind)
    got = [emit(inst, kind, m=4, l=l) for kind in kinds]
    assert compute_constants(inst) == _numpy_indexed_constants(inst)
    # emit's own constants (D_bar only for maxsum_w) against the formulas
    monkeypatch.setattr(divopt.milp, "_constants",
                        lambda instance, rows, d_bar:
                        _numpy_indexed_constants(instance))
    want = [emit(inst, kind, m=4, l=l) for kind in kinds]
    assert len(kinds) == 7
    for kind, a, b in zip(kinds, got, want):
        assert a.encode() == b.encode(), kind


# sha256 of emit's text for every formulation, recorded before the shared
# row builders: (family, n, m, seed) -> digests in FormulationKind order.
# The threshold l is the middle distinct distance, so G(l) also holds pairs
# at exactly l (not edges).
LP_DIGEST_PINS = [
    (("gkd-d", 6, 3, 0), [
        "6ccb0fa6465e00843576aa38da6854d732bacdae00512b31276d9e82a8ed4070",
        "e0655eba683903992da8e2d7bb0b2720b9c73db948b46234709e16a636e00bbd",
        "7b72fa2b035e19fa2ac8fec3ae96ac2d33c9a597261687534d63baa908d6de17",
        "b945a7e5f3913558ceaae6a5e193b312f199c3da8d00837fc8ab7c6785e4582f",
        "d845410e9be23e7e83e9d51e8027e37d9f9049806896b2c1e8f77c4985eabb32",
        "7b0ceaa08e1574b3a40d0bc4367ac140d15de83525a6a2875533a709ea6801a8",
        "03436b8a27cba88eb2d074e94ab9fe4a1140e60b2bf13918bd878965cd244117"]),
    (("gkd", 9, 4, 1), [
        "bc04c3c0d02c719da3125c39ca2bf7c282206d3066b9f13cafb45a31b84411e8",
        "7ec68311ecb1600dd7a4f5cc54d6be36e62f0b2920df653f3872cb7bd6b7d278",
        "ce217ef09741cb7256a8d662cb6aa1fa6fb7fa188f3a6d801a884c6279f0d14a",
        "8cc76f200eb010de2028042af1658c7fde761d5fc181a3c62c6a08b5cad45961",
        "5ebc0443cc9b7aed59ac1bc75ac7eea5aa9f32a2d34e6ea62a0734910aaead94",
        "33baf1fed1875fc9e7d95284fc585666bd49589b5ed5a8d823871faaf306c03e",
        "9e2d1692ca3d12dc10fa4c01a5f2ebfbbf32940cd15e8eed9df1244004c6cfef"]),
    (("mdg", 12, 4, 2), [
        "56c4be8d7779d48de07c4f5e7d5a6907590425078f73ffbcd0f21eebb0b9756a",
        "f669fa0926471b28cf983a112de9432c87810a69052a6663c5b5617691a86077",
        "95a20a2b2f0427b7770c43262dec63febf6f019a19d0bf0ea0cef2001ea37b5a",
        "abbbc469847584cc171c642139dcf79dc2de33c8ae8dc824a32cc6f90b91bccc",
        "d4579735d54c36866653338c37d72012f0cd09bd07e76faae9d620abfce13148",
        "81921f389ab1a7a0aefd0e6c46b2012cc969142720abe7adbd8afef83cdb2902",
        "e6a94850ad281ebcdce29a7dc046124c6735416dc3d5e7944c42a03ee9df24f3"]),
    (("som", 14, 5, 3), [
        "044ec92da0bcf948ed7f51ce1db98922b3ff3b073ce761694ddbce481f3f9c12",
        "f5a73ce086f874e4a2b0221624a63fefff0f098e499063f5ba24181f88d60d29",
        "583bc509857c12ff403f994765511794c344358f0bc0711812d6eeed7df3a60e",
        "dd01cf49918f0c0e8e45327767e4a22b9505ada89d7867c26fe9345486d7baf9",
        "113b105c44a63ca4674c2432129ecc1f0faf352eb3641bcf6dc08d4cff2cadf5",
        "8047328975ea5c03e690592e14fcd5a02071c5263d2dc26df63f3aafcce72e05",
        "07e25271183fb60e20f41d6e7c08793d699cf1575f9b18799767322552be1ac1"]),
]


@pytest.mark.parametrize("spec,digests", LP_DIGEST_PINS)
def test_lp_text_digests_pinned(spec, digests):
    family, n, m, seed = spec
    inst = generate(GeneratorSpec(family=Family.from_string(family), n=n, m=m,
                                  seed=seed))
    values = spectrum_stats(inst).distinct_values
    l = values[len(values) // 2]
    got = [hashlib.sha256(emit(inst, kind, m=m, l=l).encode()).hexdigest()
           for kind in FormulationKind]
    assert len(got) == 7
    assert got == digests


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


# ---------------------------------------------------------------------------
# byte identity with the tuple emitter (tests/_tuple_emit.py), the rendering
# that emit replaced
# ---------------------------------------------------------------------------

def _same_bytes_all_kinds(inst, m, thresholds):
    for kind in FormulationKind:
        for l in thresholds if kind.needs_l else [None]:
            got = emit(inst, kind, m=m if kind.needs_m else None, l=l)
            want = tuple_emit(inst, kind, m=m, l=l)
            assert got.encode() == want.encode(), (kind, l)


@pytest.mark.parametrize("family", ["gkd", "gkd-d", "mdg", "som"])
@pytest.mark.parametrize("n", [2, 3, 6, 25, 60])
def test_emit_same_bytes_as_tuple_emitter(family, n):
    m = 2 if n < 6 else 3
    # GeneratorSpec needs m < n, so n = 2 is the leading block of n = 3
    inst = generate(GeneratorSpec(family=Family.from_string(family),
                                  n=max(n, 3), m=2, seed=n))
    if n == 2:
        inst = truncate(inst, 2)
    values = spectrum_stats(inst).distinct_values
    d_star = solve_maxmin_improved(inst, m).value
    # thresholds: d_min, the middle distinct value, the MaxMin optimum,
    # above d_max (every pair conflicts) and inf
    _same_bytes_all_kinds(inst, m, [values[0], values[len(values) // 2],
                                    d_star, values[-1] + 1.0, math.inf])


def test_emit_same_bytes_when_rows_wrap():
    # distances near 1.2345678901234567e+200 print 23 characters each, so
    # with 3-digit indices the th and wb rows pass the width and go through
    # _wrap; an e row holds no distance and stays far below the width
    n = 102
    u = np.triu(np.random.default_rng(5).uniform(0.5, 1.0, (n, n)), 1)
    d = (u + u.T) * 1.2345678901234567e+200
    inst = Instance(name="huge", family=Family.CUSTOM, distances=d)
    wrapped = set()
    for kind in (FormulationKind.MAXSUM_W, FormulationKind.MAXMIN_KUO):
        lines = emit(inst, kind, m=5).splitlines()
        wrapped |= {a.split("_")[0].strip() for a, b in zip(lines, lines[1:])
                    if b.startswith("   ") and not a.startswith("   ")}
    assert {"th", "wb"} <= wrapped
    values = spectrum_stats(inst).distinct_values
    _same_bytes_all_kinds(inst, 5, [values[0], values[len(values) // 2]])


@settings(max_examples=300, deadline=None)
@given(head=st.sampled_from(["", " obj:", " th_100_101:", " " + "h" * 80]),
       chunks=st.lists(st.integers(1, 90).map(lambda k: "c" * k),
                       max_size=12),
       tail=st.sampled_from(["", "<= 1.0", "t" * 79]))
def test_row_writer_matches_old_wrap(head, chunks, tail):
    # one line when it fits, else _wrap: the same lines as the old _wrap
    out = []
    divopt.milp._put(out, head, chunks, tail)
    assert out == tuple_wrap(head, chunks, tail)
    assert divopt.milp._wrap(head, chunks, tail) == out
