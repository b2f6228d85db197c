"""Deterministic pseudo-random source.

Everything random in this package (UAV coordinates, pair selection,
replicate seeding) flows through SplitMix64 so that a given seed yields
bit-identical results on every run and platform.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Blocks this long or longer are drawn with numpy; shorter ones (every
# default-config command's) come from the scalar loop, so the commands
# that draw them never pay numpy's import.
_NUMPY_BLOCK = 256


class SplitMix64:
    """SplitMix64 generator: one 64-bit word of state, published reference outputs.

    The uniform mapping keeps the top 53 bits, so the doubles it produces
    are identical on any IEEE-754 platform.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("seed must be a non-negative integer")
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def next_uniform(self) -> float:
        """Uniform double in [0, 1) with 53-bit precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniforms(self, count: int) -> list[float]:
        """The next ``count`` uniforms of the stream, equal to ``count`` calls of :meth:`next_uniform`.

        SplitMix64 is counter-based: output k is ``mix(state + k*gamma)``, so a
        long block is one uint64 array expression (numpy wraps it mod 2**64).
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count < _NUMPY_BLOCK:
            return [self.next_uniform() for _ in range(count)]
        import numpy as np

        z = np.uint64(self.state) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        self.state = (self.state + count * _GAMMA) & MASK64
        return ((z >> np.uint64(11)).astype(np.float64) * 2.0**-53).tolist()


def distinct_indices(n: int, uniforms: list[float]) -> list[int]:
    """Distinct indices from range(n), one per uniform; needs ``len(uniforms) <= n``.

    Draw t picks position ``int(u_t * (n - t))`` of the slots not yet drawn,
    as popping that position from ``list(range(n))`` would, so the emitted
    order is fully determined by the uniforms. Only the k drawn slots are
    stored, sorted: O(k) memory and O(k log k) comparisons, whatever n is.
    """
    if len(uniforms) > n:
        raise ValueError(f"cannot draw {len(uniforms)} distinct indices from a population of {n}")
    removed: list[int] = []  # drawn slots, ascending
    drawn: list[int] = []
    for t, u in enumerate(uniforms):
        idx = int(u * (n - t))
        # removed[i] - i counts the free slots below removed[i] and never
        # decreases, so the number of drawn slots below the answer is the
        # number of i with removed[i] - i <= idx: a binary search finds it.
        lo, hi = 0, len(removed)
        while lo < hi:
            mid = (lo + hi) // 2
            if removed[mid] - mid <= idx:
                lo = mid + 1
            else:
                hi = mid
        slot = idx + lo
        removed.insert(lo, slot)
        drawn.append(slot)
    return drawn
