"""Statistics and environment helpers shared by the benchmark runner."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path
from statistics import median

TAIL_BEYOND = 10  # samples the tail percentile must have above it


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, sample_count).  With N samples the value
    is the one at rank N - TAIL_BEYOND (1-based), so exactly TAIL_BEYOND
    samples lie above it, at percentile 100 * (N - TAIL_BEYOND) / N.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"tail percentile needs more than {TAIL_BEYOND} "
                         f"samples, got {n}")
    rank = n - TAIL_BEYOND
    return sorted(samples)[rank - 1], 100.0 * rank / n, n


def middle(values: list[float]) -> float:
    """Median of a nonempty list."""
    return float(median(values))


def peak_rss_mb() -> float:
    """Peak resident memory of this process in MiB (ru_maxrss is KiB here)."""
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """Commit of a git checkout at root, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == name:
                return parts[0]
    return "unknown"


def environment(root: Path) -> dict:
    import numpy
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
