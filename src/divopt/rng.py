"""Counter-based 64-bit pseudo-random stream for reproducible instance generation.

Instance generation must be a pure function of its seed and produce the same
bytes on every platform, so we avoid library RNGs whose streams may change
between versions.  The generator here is a counter construction over the
splitmix64 finalizer: output k is ``mix(key + (k + 1) * GOLDEN)`` where
``key = mix(seed)``.  Uniform doubles take the top 53 bits of an output word.

Because output k depends only on (key, k), a block of ``count`` draws is one
numpy uint64 expression over the counters k+1..k+count; array arithmetic
wraps modulo 2**64, which is exactly the finalizer's arithmetic.  Blocks are
the only draw path: a single value is a one-element block, and a draw of
``count`` values advances the counter by ``count``.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer applied in place to a uint64 array."""
    x ^= x >> np.uint64(30)
    x *= _MUL1
    x ^= x >> np.uint64(27)
    x *= _MUL2
    x ^= x >> np.uint64(31)
    return x


class CounterStream:
    """Deterministic stream of 64-bit words addressed by an advancing counter.

    Two streams built from the same seed yield identical sequences; the k-th
    word depends only on (seed, k), so generation never depends on call order
    history beyond the number of draws taken.
    """

    def __init__(self, seed: int):
        self._key = _mix(np.array([seed & _MASK64], dtype=np.uint64))[0]
        self._counter = 0

    def _words(self, count: int) -> np.ndarray:
        """The next ``count`` output words as a uint64 array."""
        k = np.arange(self._counter + 1, self._counter + count + 1,
                      dtype=np.uint64)
        self._counter += count
        k *= _GOLDEN
        k += self._key
        return _mix(k)

    def uniforms(self, count: int) -> np.ndarray:
        """The next ``count`` uniform doubles in [0, 1), 53-bit resolution."""
        top = self._words(count) >> np.uint64(11)
        return top.astype(np.float64) * 2.0**-53

    def randints(self, lo: int, hi: int, count: int) -> np.ndarray:
        """The next ``count`` uniform integers in [lo, hi], as float64.

        Each is ``lo + trunc(u * span)`` in float64 for one 53-bit uniform u,
        exact while ``lo`` and ``hi`` lie within +-2**53.  The scaling bias
        is below 2**-53 per value, which is irrelevant for benchmark data and
        keeps each draw a single word.
        """
        span = hi - lo + 1
        if span <= 0:
            raise ValueError(f"empty integer range [{lo}, {hi}]")
        return lo + np.trunc(self.uniforms(count) * span)
