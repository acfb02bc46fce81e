"""Deterministic, platform-independent pseudo-randomness.

Every random choice in this package (generic coordinate changes, random
hyperplane coefficients, Monte-Carlo sampling) flows through SplitMix64 so
that identical seeds give bit-identical results on every platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_TWO_64 = float(1 << 64)
_BELOW_ONE = math.nextafter(1.0, 0.0)


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a 64-bit bijective scramble."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


@dataclass
class SeededRng:
    """SplitMix64 stream. State advances explicitly; copying the object
    forks the stream at its current position."""

    seed: int
    state: int | None = None

    def __post_init__(self) -> None:
        self.seed &= _MASK
        if self.state is None:
            self.state = self.seed

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        return mix64(self.state)

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection (no modulo bias)."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def next_int(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_below(hi - lo + 1)

    def next_float(self) -> float:
        """Uniform float in [0, 1).  The quotient rounds the top 2**10 words
        up to 1.0; those give the largest float below 1.0 instead."""
        x = self.next_u64() / _TWO_64
        return x if x < 1.0 else _BELOW_ONE

    def derive(self, label: int) -> "SeededRng":
        """Deterministic independent substream keyed by (seed, label)."""
        return SeededRng(mix64(self.seed ^ mix64(label ^ 0xD1B54A32D192ED03)))
