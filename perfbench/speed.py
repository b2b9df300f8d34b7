"""The host's CPU speed, read from a fixed calibration kernel.

The machine the benchmark was made on is shared, and its speed changes
by up to 1.7x in spells of seconds to a minute or more; process CPU time
changes with it.  A spell can cover a whole run, so no statistic over one
run's passes removes it.  The runner therefore times this kernel between
operations and scales each operation's time by CAL_REF_S / (kernel time
near it): the result is the operation's time at the speed where the
kernel takes CAL_REF_S.  "Near" is the median of the REACH samples on
each side, because one 8 ms sample jitters by about 15% on its own.  On
that host the ratio of an operation's time to the kernel's stays within
about 8% while the raw time moves by 1.7x.

The kernel imports nothing from divopt, so no change to the program can
change it.  It does what divopt's hot loops do: bitset walks over Python
ints (the MaxMin searches) and float sums over index combinations (brute
force and the subset searches).
"""

from __future__ import annotations

import random
import time
from itertools import combinations
from statistics import median

# kernel seconds at the reference speed: about its fastest time on a
# 2-core Intel Xeon with Python 3.11, so scaled times read as that host's
# fast spells
CAL_REF_S = 0.0080
CAL_EVERY_S = 0.1  # least time between two kernel samples inside a pass
REACH = 3  # kernel samples on each side of a timed section that set its speed

_RNG = random.Random(20240122)
_N = 96
_ADJ = [0] * _N
for _i in range(_N):
    for _j in range(_i + 1, _N):
        if _RNG.random() < 0.3:
            _ADJ[_i] |= 1 << _j
            _ADJ[_j] |= 1 << _i
_ADJ = tuple(_ADJ)
_W = [[_RNG.random() for _ in range(14)] for _ in range(14)]
_ROUNDS = 480


def _kernel() -> tuple[int, float]:
    covers = 0
    full = (1 << _N) - 1
    for r in range(_ROUNDS):
        rest = full ^ _ADJ[r % _N]
        while rest:  # greedy clique cover, as in the MaxMin bound
            v = (rest & -rest).bit_length() - 1
            clique = 1 << v
            common = _ADJ[v] & rest
            while common:
                u = (common & -common).bit_length() - 1
                clique |= 1 << u
                common &= _ADJ[u]
            rest &= ~clique
            covers += 1
    total = 0.0
    w = _W
    for a, b, c, d in combinations(range(14), 4):
        total += w[a][b] + w[a][c] + w[a][d] + w[b][c] + w[b][d] + w[c][d]
    return covers, total


_EXPECTED = _kernel()


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    out = _kernel()
    elapsed = time.perf_counter() - t0
    if out != _EXPECTED:
        raise RuntimeError("calibration kernel gave a different result")
    return elapsed


def scaled(times: list[float], kernel: list[float],
           segment: list[int]) -> list[float]:
    """times at the reference speed.

    times[i] was measured between kernel samples segment[i] and
    segment[i] + 1.
    """
    out = []
    for t, k in zip(times, segment):
        near = kernel[max(0, k + 1 - REACH):k + 1 + REACH]
        out.append(t * CAL_REF_S / median(near))
    return out
