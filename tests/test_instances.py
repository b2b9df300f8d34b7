import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divopt import (Family, FormatError, GeneratorSpec, Instance,
                    euclidean_instance, generate, parse_instance,
                    spectrum_stats, truncate, write_instance)
from divopt.rng import CounterStream


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_instance_rejects_asymmetry():
    d = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        Instance(name="bad", family=Family.CUSTOM, distances=d)


def test_instance_rejects_negative_and_nan():
    d = np.array([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError):
        Instance(name="neg", family=Family.CUSTOM, distances=d)
    d = np.array([[0.0, np.nan], [np.nan, 0.0]])
    with pytest.raises(ValueError):
        Instance(name="nan", family=Family.CUSTOM, distances=d)


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_instance_rejects_infinite(value):
    d = np.array([[0.0, 1.0, value], [1.0, 0.0, 2.0], [value, 2.0, 0.0]])
    with pytest.raises(ValueError, match="infinite"):
        Instance(name="inf", family=Family.CUSTOM, distances=d)


def test_instance_rejects_nonzero_diagonal():
    d = np.array([[1.0, 2.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        Instance(name="diag", family=Family.CUSTOM, distances=d)


def test_instance_rejects_bad_default_m():
    d = np.zeros((3, 3))
    with pytest.raises(ValueError):
        Instance(name="m", family=Family.CUSTOM, distances=d, default_m=1)
    with pytest.raises(ValueError):
        Instance(name="m", family=Family.CUSTOM, distances=d, default_m=4)


def test_coords_must_match_distances():
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])
    d = np.array([[0.0, 5.0], [5.0, 0.0]])
    inst = Instance(name="ok", family=Family.CUSTOM, distances=d, coords=pts)
    assert inst.n == 2
    d_wrong = np.array([[0.0, 6.0], [6.0, 0.0]])
    with pytest.raises(ValueError):
        Instance(name="bad", family=Family.CUSTOM, distances=d_wrong,
                 coords=pts)


def test_coords_accept_5dp_rounding():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 10, size=(6, 3))
    inst = euclidean_instance(pts, round_5dp=True, name="r", family=Family.GKD)
    # stored matrix is the rounded one, construction must not reject it
    assert np.all(inst.distances == np.round(inst.distances, 5))


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_stats_t4(t4):
    st_ = spectrum_stats(t4)
    assert st_.d_min == 1.0 and st_.d_max == 6.0
    assert st_.distinct_count == 6
    assert st_.pair_count == 6
    assert st_.repetition_rate == 0.0
    assert st_.min_positive_gap == 1.0
    assert st_.distinct_values == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)


def test_spectrum_stats_flat(flat3):
    st_ = spectrum_stats(flat3)
    assert st_.distinct_count == 1
    assert st_.min_positive_gap is None
    assert st_.repetition_rate == pytest.approx(2 / 3)


@pytest.mark.parametrize("values", [[0.0, 1.0, 2.0, 3.0],
                                    [0.1, 0.2, 0.30000000000000004],
                                    [0.1, 0.7, 1e16, 3.0]])
def test_spectrum_distinct_values_match_np_unique(values):
    rng = np.random.default_rng(11)
    for n in (2, 3, 9, 40):
        d = np.triu(rng.choice(values, size=(n, n)), 1)
        inst = Instance(name="ties", family=Family.CUSTOM, distances=d + d.T)
        want = np.unique(inst.pair_values())
        got = spectrum_stats(inst).distinct_values
        assert [v.hex() for v in got] == [float(v).hex() for v in want]
    for fam in (Family.SOM, Family.GKD, Family.MDG):
        inst = generate(GeneratorSpec(family=fam, n=30, m=4, seed=2))
        want = tuple(float(v) for v in np.unique(inst.pair_values()))
        assert spectrum_stats(inst).distinct_values == want


def test_spectrum_and_geometry_leave_numpy_ma_unloaded():
    # np.unique and np.setdiff1d import numpy.ma (about 1.4 MiB) on first use
    code = ("import sys, divopt as dv; before = 'numpy.ma' in sys.modules; "
            "inst = dv.generate(dv.GeneratorSpec(dv.Family.GKD_D, 12, 3, 0)); "
            "res = dv.solve_maxmin_improved(inst, 3); "
            "dv.geometry_stats(inst, res.solution); "
            "print(before, 'numpy.ma' in sys.modules)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout.split()
    assert out[1] == out[0]


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", [Family.SOM, Family.GKD, Family.GKD_D,
                                    Family.MDG])
def test_generate_deterministic(family):
    spec = GeneratorSpec(family=family, n=9, m=3, seed=11)
    a, b = generate(spec), generate(spec)
    assert np.array_equal(a.distances, b.distances)
    if a.coords is not None:
        assert np.array_equal(a.coords, b.coords)
    assert a.name == f"{family.value}_n9_m3_s11"
    assert a.default_m == 3


def test_generate_distinct_seeds_differ():
    base = dict(family=Family.MDG, n=8, m=2)
    a = generate(GeneratorSpec(seed=1, **base))
    b = generate(GeneratorSpec(seed=2, **base))
    assert not np.array_equal(a.distances, b.distances)


def test_som_values_are_small_ints():
    inst = generate(GeneratorSpec(family=Family.SOM, n=15, m=4, seed=2))
    vals = set(inst.pair_values().tolist())
    assert vals <= set(float(v) for v in range(10))


def test_gkd_distances_rounded_5dp():
    inst = generate(GeneratorSpec(family=Family.GKD, n=10, m=3, seed=5))
    assert inst.coords is not None
    assert 2 <= inst.coords.shape[1] <= 21
    assert np.all(inst.distances == np.round(inst.distances, 5))


def test_gkd_d_planar_unrounded():
    inst = generate(GeneratorSpec(family=Family.GKD_D, n=20, m=5, seed=5))
    assert inst.coords.shape == (20, 2)
    assert np.all(inst.coords >= 0.0) and np.all(inst.coords <= 100.0)
    # planar box bound: no distance can reach 100*sqrt(2)
    assert spectrum_stats(inst).d_max < 100.0 * math.sqrt(2.0)


def test_mdg_reals_in_range():
    inst = generate(GeneratorSpec(family=Family.MDG, n=12, m=3, seed=9))
    v = inst.pair_values()
    assert np.all(v >= 0.0) and np.all(v < 10.0)


def test_generate_rejects_bad_sizes():
    with pytest.raises(ValueError):
        GeneratorSpec(family=Family.SOM, n=3, m=3, seed=0)
    with pytest.raises(ValueError):
        GeneratorSpec(family=Family.SOM, n=3, m=1, seed=0)


def test_truncate_takes_leading_block():
    inst = generate(GeneratorSpec(family=Family.GKD_D, n=10, m=3, seed=4))
    sub = truncate(inst, 6, default_m=2)
    assert sub.n == 6
    assert np.array_equal(sub.distances, inst.distances[:6, :6])
    assert np.array_equal(sub.coords, inst.coords[:6])
    assert sub.default_m == 2
    assert sub.name.endswith("_first6")


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def test_roundtrip_bitwise(unit_square):
    text = write_instance(unit_square)
    back = parse_instance(text, name=unit_square.name)
    assert np.array_equal(back.distances, unit_square.distances)
    assert np.array_equal(back.coords, unit_square.coords)
    assert write_instance(back) == text


def test_roundtrip_generated_all_families():
    for family in (Family.SOM, Family.GKD, Family.GKD_D, Family.MDG):
        inst = generate(GeneratorSpec(family=family, n=7, m=2, seed=13))
        back = parse_instance(write_instance(inst))
        assert np.array_equal(back.distances, inst.distances)
        assert back.default_m == 2


def test_parse_header_default_m_zero_means_none():
    text = "2 0\n0 1 3.5\n"
    inst = parse_instance(text)
    assert inst.default_m is None
    assert inst.distances[0, 1] == 3.5


@pytest.mark.parametrize("text", [
    "",                                  # empty
    "2\n0 1 1.0\n",                      # header missing m
    "2 1\n0 1 1.0\n",                    # m=1 invalid
    "3 0\n0 1 1.0\n",                    # missing pairs
    "2 0\n0 0 1.0\n",                    # self distance
    "2 0\n0 1 1.0\n0 1 2.0\n",           # duplicate (same orientation)
    "2 0\n0 1 1.0\n1 0 1.0\n",           # duplicate (swapped)
    "2 0\n0 2 1.0\n",                    # index out of range
    "2 0\n0 1 -1.0\n",                   # negative
    "2 0\n0 1 nan\n",                    # NaN
    "2 0\n0 1 1.0\nbogus\n",             # trailing garbage
    "2 0\n0 1 1.0\n# coords\n0.0 0.0\n"  # coord rows short one
])
def test_parse_rejects_malformed(text):
    with pytest.raises(FormatError):
        parse_instance(text)


@pytest.mark.parametrize("token", ["inf", "-inf", "nan", "Infinity"])
def test_parse_names_non_finite_distance(token):
    with pytest.raises(FormatError, match="non-finite distance"):
        parse_instance(f"2 0\n0 1 {token}\n")


def test_parse_accepts_either_orientation():
    a = parse_instance("3 0\n0 1 1.0\n0 2 2.0\n1 2 3.0\n")
    b = parse_instance("3 0\n1 0 1.0\n2 0 2.0\n2 1 3.0\n")
    assert np.array_equal(a.distances, b.distances)


# ---------------------------------------------------------------------------
# rng
# ---------------------------------------------------------------------------

def test_counter_stream_reproducible():
    a = CounterStream(123)
    b = CounterStream(123)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]


def test_counter_stream_uniform_unit_interval():
    s = CounterStream(7)
    xs = [s.uniform() for _ in range(1000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert 0.4 < sum(xs) / len(xs) < 0.6


def test_counter_stream_randint_bounds():
    s = CounterStream(99)
    xs = [s.randint(3, 7) for _ in range(500)]
    assert set(xs) == {3, 4, 5, 6, 7}


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@given(seed=st.integers(0, 2**32 - 1),
       n=st.integers(4, 10),
       fam=st.sampled_from([Family.SOM, Family.GKD_D, Family.MDG]))
@settings(max_examples=25, deadline=None)
def test_generated_instances_valid_and_roundtrip(seed, n, fam):
    inst = generate(GeneratorSpec(family=fam, n=n, m=2, seed=seed))
    d = inst.distances
    assert d.shape == (n, n)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    assert np.all(d >= 0.0)
    back = parse_instance(write_instance(inst))
    assert np.array_equal(back.distances, d)


@given(st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
                min_size=2, max_size=8, unique=True))
@settings(max_examples=30, deadline=None)
def test_euclidean_symmetry_and_triangle(points):
    pts = np.array(points)
    inst = euclidean_instance(pts, name="h", family=Family.CUSTOM)
    d = inst.distances
    n = len(points)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-7
