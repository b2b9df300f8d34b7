"""Instance model: distance matrices, deterministic generators, file I/O.

An instance is a symmetric nonnegative distance matrix over n nodes, with
optional Euclidean coordinates.  Four benchmark families are supported:

* SOM    -- integer distances drawn uniformly from {0..9} (no geometry),
* MDG    -- real distances drawn uniformly from [0, 10) (no geometry),
* GKD    -- Euclidean distances of points in [0, 10)^k with k drawn in 2..21,
             distances rounded to 5 decimals,
* GKD_D  -- Euclidean distances of 2-D points in [0, 100)^2, unrounded.

Generation is a pure function of a :class:`GeneratorSpec` (seed included), so
repeated runs produce bitwise-identical matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .rng import CounterStream


class Family(Enum):
    SOM = "som"
    GKD = "gkd"
    GKD_D = "gkd-d"
    MDG = "mdg"
    CUSTOM = "custom"

    @classmethod
    def from_string(cls, text: str) -> "Family":
        key = text.strip().lower().replace("_", "-")
        for fam in cls:
            if fam.value == key:
                return fam
        raise ValueError(f"unknown family {text!r}; expected one of "
                         f"{[f.value for f in cls]}")


class FormatError(ValueError):
    """Raised when an instance file does not follow the canonical format."""


# Fixed parameters of the generated families.
_COORD_RANGE = {Family.GKD: (0.0, 10.0), Family.GKD_D: (0.0, 100.0)}
_VALUE_RANGE = {Family.SOM: (0, 9), Family.MDG: (0.0, 10.0)}
_GKD_DIM_RANGE = (2, 21)


@dataclass(eq=False)
class Instance:
    """Immutable-by-convention problem instance.

    ``distances`` is an (n, n) float64 array with zero diagonal, exact
    symmetry and no negative entries.  ``coords``, when present, is an (n, k)
    float64 array whose pairwise Euclidean distances reproduce ``distances``
    (either within 1e-9 relative tolerance or exactly after rounding to five
    decimals, covering the rounded GKD convention).

    Two facts of the distances are cached on the instance: the spectrum
    (``spectrum_stats``) and, per subset size m, the proven MaxMin optimum
    that the bi-level solver and MaxMin enumeration reuse.  Neither is an
    init field, so ``dataclasses.replace`` and ``truncate`` start with empty
    caches; editing ``distances`` in place is unsupported.
    """

    name: str
    family: Family
    distances: np.ndarray
    coords: Optional[np.ndarray] = None
    default_m: Optional[int] = None
    _spectrum: Optional["SpectrumStats"] = field(default=None, init=False,
                                                 repr=False, compare=False)
    # m -> proven MaxMin optimum, written by the exact MaxMin solvers
    _maxmin: dict[int, float] = field(default_factory=dict, init=False,
                                      repr=False, compare=False)

    def __post_init__(self) -> None:
        d = np.ascontiguousarray(np.asarray(self.distances, dtype=np.float64))
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {d.shape}")
        if d.shape[0] < 2:
            raise ValueError("instance needs at least 2 nodes")
        if not np.isfinite(d).all():
            raise ValueError("distance matrix contains NaN or infinite entries")
        if (d < 0).any():
            raise ValueError("distance matrix contains negative entries")
        if np.diagonal(d).any():
            raise ValueError("distance matrix diagonal must be zero")
        if not np.array_equal(d, d.T):
            raise ValueError("distance matrix must be symmetric")
        self.distances = d
        if self.coords is not None:
            c = np.ascontiguousarray(np.asarray(self.coords, dtype=np.float64))
            if c.ndim != 2 or c.shape[0] != d.shape[0]:
                raise ValueError(f"coords shape {c.shape} does not match n={d.shape[0]}")
            expected = _pairwise_euclidean(c)
            if not (np.allclose(d, expected, rtol=1e-9, atol=1e-12)
                    or np.array_equal(d, np.round(expected, 5))):
                raise ValueError("distances disagree with coordinate geometry")
            self.coords = c
        if self.default_m is not None and not (2 <= self.default_m <= d.shape[0]):
            raise ValueError(f"default_m={self.default_m} out of range for n={d.shape[0]}")

    @property
    def n(self) -> int:
        return self.distances.shape[0]

    @property
    def pair_count(self) -> int:
        return self.n * (self.n - 1) // 2

    def pair_values(self) -> np.ndarray:
        """All n(n-1)/2 upper-triangle distances, row-major order."""
        iu = np.triu_indices(self.n, 1)
        return self.distances[iu]

    @property
    def d_min(self) -> float:
        return spectrum_stats(self).d_min

    @property
    def d_max(self) -> float:
        return spectrum_stats(self).d_max


@dataclass(frozen=True)
class SpectrumStats:
    """Distribution facts about the off-diagonal distance values.

    ``min_positive_gap`` is the smallest difference between consecutive
    distinct values; it is ``None`` when a single distinct value exists.
    """

    d_min: float
    d_max: float
    distinct_count: int
    pair_count: int
    repetition_rate: float
    min_positive_gap: Optional[float]
    distinct_values: tuple[float, ...] = field(repr=False)


def spectrum_stats(instance: Instance) -> SpectrumStats:
    """Compute (and cache on the instance) the distance-spectrum statistics."""
    if instance._spectrum is None:
        vals = instance.pair_values()
        # np.unique's sort path, spelled out: np.unique itself imports
        # numpy.ma (about 1.4 MiB) on its first call
        ordered = np.sort(vals)
        first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
        distinct = ordered[first]  # sorted ascending, exact float64 identity
        gaps = np.diff(distinct)
        stats = SpectrumStats(
            d_min=float(distinct[0]),
            d_max=float(distinct[-1]),
            distinct_count=int(distinct.size),
            pair_count=int(vals.size),
            repetition_rate=1.0 - distinct.size / vals.size,
            min_positive_gap=float(gaps.min()) if gaps.size else None,
            distinct_values=tuple(float(v) for v in distinct),
        )
        instance._spectrum = stats
    return instance._spectrum


# Float64 entries of one block's (rows, n, dim) coordinate differences.
_DIFF_BLOCK_SIZE = 2**15


def _pairwise_euclidean(points: np.ndarray) -> np.ndarray:
    """(n, n) Euclidean distances between the rows of an (n, dim) array.

    Rows are taken in blocks whose difference array holds at most
    ``_DIFF_BLOCK_SIZE`` entries (one row when n·dim is larger), so peak
    memory is the O(n²) output rather than an (n, n, dim) broadcast.  Each
    entry goes through the same subtract, square, sum and square root as
    that broadcast, so the bytes are the same.
    """
    n, dim = points.shape
    out = np.empty((n, n))
    rows = max(1, _DIFF_BLOCK_SIZE // max(1, n * dim))
    for i in range(0, n, rows):
        diff = points[i:i + rows, None, :] - points[None, :, :]
        diff *= diff
        np.sqrt(diff.sum(axis=-1), out=out[i:i + rows])
    return out


def euclidean_instance(points: Sequence[Sequence[float]],
                       round_5dp: bool = False,
                       *,
                       name: str = "euclidean",
                       family: Family = Family.CUSTOM,
                       default_m: Optional[int] = None) -> Instance:
    """Build an instance from explicit point coordinates.

    All points must share one dimension; at least two are required.  With
    ``round_5dp`` the distances are rounded to five decimal places (the
    convention of the rounded GKD data).
    """
    pts = [tuple(float(x) for x in p) for p in points]
    if len(pts) < 2:
        raise ValueError("need at least 2 points")
    dim = len(pts[0])
    for idx, p in enumerate(pts):
        if len(p) != dim:
            raise ValueError(f"point {idx} has dimension {len(p)}, expected {dim}")
    return _euclidean(np.array(pts, dtype=np.float64), round_5dp, name, family,
                      default_m)


def _euclidean(coords: np.ndarray, round_5dp: bool, name: str, family: Family,
               default_m: Optional[int]) -> Instance:
    d = _pairwise_euclidean(coords)
    if round_5dp:
        d = np.round(d, 5)
    instance = Instance(name=name, family=family, distances=d,
                        default_m=default_m)
    # d is computed from coords, so the geometry check in Instance would
    # only compute it again
    instance.coords = coords
    return instance


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters that fully determine one generated instance.

    Each family's value range, coordinate box and rounding are fixed (see
    the module docstring).  ``dim`` belongs to the Euclidean families: GKD
    draws it uniformly from 2..21 when unset, and GKD_D fixes it at 2.
    Giving ``dim`` to SOM or MDG raises ``ValueError``.
    """

    family: Family
    n: int
    m: int
    seed: int = 0
    dim: Optional[int] = None

    def __post_init__(self) -> None:
        if self.family == Family.CUSTOM:
            raise ValueError("cannot generate the CUSTOM family")
        if self.dim is not None and self.family not in _COORD_RANGE:
            raise ValueError(f"dim not used by the {self.family.value} family")
        if self.n < 2:
            raise ValueError(f"n={self.n} too small")
        if not (2 <= self.m < self.n):
            raise ValueError(f"require 2 <= m < n, got m={self.m}, n={self.n}")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")
        if self.family == Family.GKD_D and self.dim not in (None, 2):
            raise ValueError("GKD_D dimension is fixed at 2")
        if self.dim is not None and self.dim < 1:
            raise ValueError(f"dim={self.dim} invalid")

    @property
    def instance_name(self) -> str:
        return f"{self.family.value}_n{self.n}_m{self.m}_s{self.seed}"


def generate(spec: GeneratorSpec) -> Instance:
    """Generate the instance determined by ``spec``.

    The draw order is fixed: SOM/MDG fill the upper triangle row by row;
    Euclidean families draw the dimension first (GKD only), then point
    coordinates point by point.  Each family takes its values as one block of
    the stream.  Same spec, same bytes.
    """
    stream = CounterStream(spec.seed)
    n = spec.n
    if spec.family in _VALUE_RANGE:
        lo, hi = _VALUE_RANGE[spec.family]
        pairs = n * (n - 1) // 2
        if spec.family == Family.SOM:
            values = stream.randints(lo, hi, pairs)
        else:
            values = lo + stream.uniforms(pairs) * (hi - lo)
        d = np.zeros((n, n), dtype=np.float64)
        iu = np.triu_indices(n, 1)
        d[iu] = values
        d.T[iu] = values
        return Instance(spec.instance_name, spec.family, d, default_m=spec.m)
    # Euclidean families
    dim = spec.dim
    if dim is None:
        dim = (int(stream.randints(*_GKD_DIM_RANGE, 1)[0])
               if spec.family == Family.GKD else 2)
    lo, hi = _COORD_RANGE[spec.family]
    coords = (lo + stream.uniforms(n * dim) * (hi - lo)).reshape(n, dim)
    return _euclidean(coords, spec.family == Family.GKD, spec.instance_name,
                      spec.family, spec.m)


def truncate(instance: Instance, k: int) -> Instance:
    """Restrict an instance to its first k nodes (leading principal
    submatrix), with no default subset size."""
    if not (2 <= k <= instance.n):
        raise ValueError(f"k={k} out of range [2, {instance.n}]")
    d = instance.distances[:k, :k].copy()
    coords = instance.coords[:k].copy() if instance.coords is not None else None
    return Instance(name=f"{instance.name}_first{k}", family=instance.family,
                    distances=d, coords=coords)


# ---------------------------------------------------------------------------
# Canonical file format
#
#   n m                      header; m = 0 encodes "no default subset size"
#   i j d                    one line per unordered pair, 0 <= i < j < n
#   ...                      (either orientation accepted; duplicates rejected)
#   # coords                 optional sentinel
#   x1 ... xk                n coordinate lines
#
# Distances and coordinates are written with shortest round-trip repr, so
# parse(write(x)) reproduces the arrays bitwise.
# ---------------------------------------------------------------------------

_COORDS_SENTINEL = "# coords"


def write_instance(instance: Instance) -> str:
    """Serialize to the canonical text format (LF line endings)."""
    n = instance.n
    lines = [f"{n} {instance.default_m if instance.default_m is not None else 0}"]
    d = instance.distances
    for i in range(n):
        for j in range(i + 1, n):
            lines.append(f"{i} {j} {float(d[i, j])!r}")
    if instance.coords is not None:
        lines.append(_COORDS_SENTINEL)
        for row in instance.coords:
            lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def parse_instance(text: str, *, name: str = "parsed") -> Instance:
    """Parse the canonical format; strict about completeness and symmetry."""
    # stripped content lines: blanks and comments dropped, the sentinel kept
    lines = [s for s in (raw.strip() for raw in text.splitlines())
             if s == _COORDS_SENTINEL or (s and not s.startswith("#"))]
    if not lines:
        raise FormatError("empty instance file")
    header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise FormatError(f"malformed header {header!r}; expected 'n m'")
    try:
        n, default_m = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise FormatError(f"malformed header {header!r}") from exc
    if n < 2:
        raise FormatError(f"header n={n} too small")
    if default_m < 0 or default_m == 1 or default_m > n:
        raise FormatError(f"header m={default_m} invalid for n={n}")

    d = np.zeros((n, n), dtype=np.float64)
    seen = np.zeros((n, n), dtype=bool)
    expected = n * (n - 1) // 2
    pair_lines = lines[1:1 + expected]
    for line in pair_lines:
        if line == _COORDS_SENTINEL:
            raise FormatError(f"coords section before all {expected} pairs were read")
        parts = line.split()
        if len(parts) != 3:
            raise FormatError(f"malformed pair line {line!r}")
        try:
            i, j, value = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise FormatError(f"malformed pair line {line!r}") from exc
        if not (0 <= i < n and 0 <= j < n):
            raise FormatError(f"node index out of range in {line!r}")
        if i == j:
            raise FormatError(f"self-distance entry in {line!r}")
        if not math.isfinite(value):
            raise FormatError(f"non-finite distance in {line!r}")
        if value < 0:
            raise FormatError(f"negative distance in {line!r}")
        a, b = (i, j) if i < j else (j, i)
        if seen[a, b]:
            raise FormatError(
                f"duplicate/conflicting entry for pair ({a}, {b}): "
                f"symmetric pairs must appear exactly once")
        seen[a, b] = True
        d[a, b] = d[b, a] = value
    if len(pair_lines) < expected:
        raise FormatError(
            f"missing entries: got {len(pair_lines)} of {expected} pairs")

    coords = None
    tail = lines[1 + expected:]
    if tail and tail[0] != _COORDS_SENTINEL:
        raise FormatError(f"unexpected trailing line {tail[0]!r}")
    if tail:
        rows = []
        dim = None
        for line in tail[1:n + 1]:
            parts = line.split()
            try:
                row = [float(x) for x in parts]
            except ValueError as exc:
                raise FormatError(f"malformed coordinate line {line!r}") from exc
            if dim is None:
                dim = len(row)
                if dim == 0:
                    raise FormatError("empty coordinate line")
            elif len(row) != dim:
                raise FormatError(f"coordinate dimension mismatch in {line!r}")
            rows.append(row)
        if len(rows) < n:
            raise FormatError(f"coords section has {len(rows)} of {n} rows")
        if len(tail) > n + 1:
            raise FormatError("unexpected content after coordinates")
        coords = np.array(rows, dtype=np.float64)

    try:
        return Instance(name=name, family=Family.CUSTOM, distances=d,
                        coords=coords,
                        default_m=default_m if default_m >= 2 else None)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
