import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divopt import (Family, FormatError, GeneratorSpec, Instance,
                    euclidean_instance, generate, parse_instance,
                    spectrum_stats, truncate, write_instance)
from divopt import instances
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


@pytest.mark.parametrize("family,overrides", [
    (Family.SOM, {"dim": 3}),
    (Family.MDG, {"dim": 3}),
])
def test_generator_spec_rejects_settings_its_family_ignores(family, overrides):
    (name,) = overrides
    with pytest.raises(ValueError,
                       match=f"{name} not used by the {family.value} family"):
        GeneratorSpec(family, 12, 3, 8, **overrides)


def test_truncate_takes_leading_block():
    inst = generate(GeneratorSpec(family=Family.GKD_D, n=10, m=3, seed=4))
    sub = truncate(inst, 6, default_m=2)
    assert sub.n == 6
    assert np.array_equal(sub.distances, inst.distances[:6, :6])
    assert np.array_equal(sub.coords, inst.coords[:6])
    assert sub.default_m == 2
    assert sub.name.endswith("_first6")


# ---------------------------------------------------------------------------
# Euclidean distances in row blocks
# ---------------------------------------------------------------------------

def _broadcast_euclidean(points):
    """The one-shot formula that the row blocks must reproduce bytewise."""
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


_BLOCK_DIMS = list(range(1, 26)) + [64, 128, 129, 300]
# the reference holds two (n, n, dim) float64 arrays; cap them at ~70 MB
_REFERENCE_ENTRIES = 120 * 120 * 300
# which block heights the dims above reach at each n
_BLOCK_SHAPES = {2: {"whole"}, 3: {"whole"}, 33: {"whole", "few rows"},
                 120: {"one row", "few rows", "whole"}, 300: {"few rows"}}


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [2, 3, 33, 120, 300])
def test_row_blocks_match_broadcast_bytes(n, order):
    rng = np.random.default_rng(n)
    blocks = set()
    for dim in _BLOCK_DIMS:
        if n * n * dim > _REFERENCE_ENTRIES:
            continue
        points = np.asarray(rng.uniform(-50.0, 50.0, (n, dim)), order=order)
        got = instances._pairwise_euclidean(points)
        assert got.tobytes() == _broadcast_euclidean(points).tobytes(), dim
        rows = instances._DIFF_BLOCK_SIZE // (n * dim)
        blocks.add("one row" if rows <= 1 else "whole" if rows >= n
                   else "few rows")
    assert blocks == _BLOCK_SHAPES[n]


def test_generate_high_dimension_gkd_stays_small():
    spec = GeneratorSpec(Family.GKD, 300, 10, 3, dim=21)
    tracemalloc.start()
    try:
        inst = generate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inst.coords.shape == (300, 21)
    # a one-shot (n, n, dim) broadcast peaks near 30 MiB here
    assert peak < 4 * 2**20


def test_geometry_check_covers_the_last_block():
    inst = generate(GeneratorSpec(Family.GKD, 300, 10, 3, dim=21))
    assert instances._DIFF_BLOCK_SIZE // (300 * 21) < 150  # several blocks
    d = inst.distances.copy()
    d[299, 298] = d[298, 299] = d[299, 298] + 0.5
    with pytest.raises(ValueError,
                       match="distances disagree with coordinate geometry"):
        Instance(inst.name, inst.family, d, coords=inst.coords)


@pytest.mark.parametrize("family", [Family.GKD, Family.GKD_D])
def test_geometry_computed_once_and_checked_for_given_pairs(monkeypatch,
                                                            family):
    calls = []

    def counted(points):
        calls.append(points.shape)
        return pairwise(points)

    pairwise = instances._pairwise_euclidean
    monkeypatch.setattr(instances, "_pairwise_euclidean", counted)
    inst = generate(GeneratorSpec(family, 12, 3, 5))
    # generate derives the distances from the coordinates once
    assert len(calls) == 1
    # callers that pass both arrays still get the geometry check
    truncate(inst, 7)
    parse_instance(write_instance(inst))
    Instance(inst.name, inst.family, inst.distances, coords=inst.coords)
    assert calls[1:] == [(7, inst.coords.shape[1]), inst.coords.shape,
                         inst.coords.shape]
    moved = inst.coords.copy()
    moved[3, 0] += 0.5
    with pytest.raises(ValueError,
                       match="distances disagree with coordinate geometry"):
        Instance(inst.name, inst.family, inst.distances, coords=moved)


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
    assert a.uniforms(5).tolist() == b.uniforms(5).tolist()


def test_counter_stream_uniform_unit_interval():
    xs = CounterStream(7).uniforms(1000)
    assert np.all((xs >= 0.0) & (xs < 1.0))
    assert 0.4 < xs.mean() < 0.6


def test_counter_stream_randint_bounds():
    # one-element blocks, as generate draws the GKD dimension
    s = CounterStream(99)
    xs = [s.randints(3, 7, 1)[0] for _ in range(500)]
    assert set(xs) == {3.0, 4.0, 5.0, 6.0, 7.0}
    assert xs == CounterStream(99).randints(3, 7, 500).tolist()


_MASK64 = (1 << 64) - 1


def _oracle_mix(x):
    # splitmix64 finalizer on Python ints: the scalar reference for the
    # stream's numpy kernel
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _oracle_words(seed, start, count):
    key = _oracle_mix(seed)
    return [_oracle_mix(key + k * 0x9E3779B97F4A7C15)
            for k in range(start + 1, start + count + 1)]


@pytest.mark.parametrize("seed", [0, 1, 123, 2**63, 2**64 - 1, -1])
def test_counter_stream_matches_python_oracle(seed):
    # blocks of every size, one-element ones included, address one counter
    # sequence
    s = CounterStream(seed)
    pos = 0

    def oracle_uniforms(count):
        return [(w >> 11) * 2.0**-53 for w in _oracle_words(seed, pos, count)]

    for count in (0, 1, 7, 1000, 0, 7, 1):
        one = s.uniforms(1)
        assert one.dtype == np.float64 and one.shape == (1,)
        assert one.tolist() == oracle_uniforms(1)
        pos += 1
        ints = s.randints(-3, 4, 1)
        assert ints.dtype == np.float64
        assert ints.tolist() == [float(-3 + math.trunc(u * 8))
                                 for u in oracle_uniforms(1)]
        pos += 1
        block = s.uniforms(count)
        assert block.dtype == np.float64 and block.shape == (count,)
        assert block.tolist() == oracle_uniforms(count)
        pos += count
    assert s.uniforms(1).tolist() == oracle_uniforms(1)


def test_counter_stream_empty_integer_range():
    s = CounterStream(0)
    with pytest.raises(ValueError, match=r"empty integer range \[5, 4\]"):
        s.randints(5, 4, 3)


# sha256 of generated distances.tobytes() and coords.tobytes() (None when the
# family has no geometry), recorded from the per-draw generators that filled
# each entry with one scalar stream call: (serial, (family, n, m, seed,
# overrides), distances digest, coords digest).  The serial ends the test id;
# it stays with its pin, so deleting a pin renames no other.
GENERATED_DIGEST_PINS = [
    (0, ("som", 3, 2, 0, {}),
     "ce02a5cddfae952f5beb265a27518629c8e759bb09897f7002eb2606ba37e01e",
     None),
    (1, ("som", 40, 5, 1, {}),
     "8c9443a79091dc6df4d965f6eb8ffe6d0b27d48615c07a4c187940848ceb9666",
     None),
    (2, ("som", 25, 4, 2**64 - 1, {}),
     "48019300a8e184d63cfa1c754b8002abd805d8e6c164385a38f48851b2703311",
     None),
    (4, ("mdg", 3, 2, 0, {}),
     "b7b1e3ef9cbed5ac7c23c668dc225c5a98f25ad803d9ddd7984eed85b8267897",
     None),
    (5, ("mdg", 40, 5, 1, {}),
     "4ad16e685c475777e8cae6c0158ff23e9ea21b491eaf2d648b7b1f8b066cbc94",
     None),
    (6, ("mdg", 25, 4, 2**64 - 1, {}),
     "4fd92917e90c747ab96557a15e1f48ed22ecfc9b9960e8a1ec4fee1dc630fe95",
     None),
    (8, ("mdg", 12, 3, 8, {}),
     "72f130c2f48306fcf0215fa62944cb625da41de05e358c4ca8ae5b90a87ebf05",
     None),
    (9, ("gkd", 3, 2, 0, {}),
     "28ed17578c841fdcf6329f8819f6015146e307a57370a03f25e5179112b35bed",
     "8754eb0094ab4ce179ffff65c484794c21a986899d941e255378cd6d5fa876c1"),
    (10, ("gkd", 40, 5, 1, {}),
     "a9d6cbebbaf60f35f8f72d24ac1987ae1285ce71ceb9e5bc871e37dc04a136c5",
     "51594ddbe64ad487c98261c1ee0ce8e49468a938e2725326ca7ee624ae8c4501"),
    (11, ("gkd", 25, 4, 2**64 - 1, {}),
     "38b85828759617475c691d99891235e8e09360ce17a764e1d0f212d77a27516e",
     "fc2da36131f0117f37c0131a12e06aa4395534ca66a410aeedb898dfc8ff46f3"),
    (12, ("gkd", 12, 3, 7, {"dim": 5}),
     "9aec750c3e83ac92582c6d883cb79875f011c2f95672148ec6cdac7e6e821e81",
     "b1903d89c92965429f46353c3c40f348592030f7538adbb8c221531eb56b9e07"),
    (15, ("gkd-d", 3, 2, 0, {}),
     "7c867da45f42ad88ccf91404d373dd6400346079416f9fab5a95501e648222f9",
     "48447d40a742d7cab24468c0ef924455ab57156fc22dd8dfc1a5eb0a4f29986b"),
    (16, ("gkd-d", 40, 5, 1, {}),
     "3b62f3ae264f87d777c22eb61cdca51fcdba67a387cb713c6a4767d13c8f8043",
     "91508fb43335b39e8d79a0e09d900dfea5265d0c71605f845d9ccc3f7c1c47af"),
    (17, ("gkd-d", 25, 4, 2**64 - 1, {}),
     "7456d3ac9c3b4495bb52f13bdc022e77684bb55ea321c893deb7f2b88123294c",
     "fe3ac35ab77d2e191bb87749076e9ba56aa85816cf3f24d2f3598804f1acd731"),
]


@pytest.mark.parametrize("key,dist_sha,coord_sha",
                         [pin[1:] for pin in GENERATED_DIGEST_PINS],
                         ids=[f"{k[0]}-n{k[1]}-s{k[3]}-{i}" for i, k, _, _
                              in GENERATED_DIGEST_PINS])
def test_generated_bytes_pinned(key, dist_sha, coord_sha):
    family, n, m, seed, overrides = key
    inst = generate(GeneratorSpec(Family.from_string(family), n, m, seed,
                                  **overrides))
    assert hashlib.sha256(inst.distances.tobytes()).hexdigest() == dist_sha
    if coord_sha is None:
        assert inst.coords is None
    else:
        assert hashlib.sha256(inst.coords.tobytes()).hexdigest() == coord_sha


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
