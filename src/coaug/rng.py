"""Deterministic, platform-independent random streams.

Every stochastic step in the pipeline draws from a per-record stream so
that results do not depend on the order in which records are processed.
The generator is splitmix64: the state advances by the golden-ratio
constant and each output is the 64-bit finalizer (avalanche) of the new
state.

Constants (fixed forever; changing them changes every seeded output):

    GOLDEN = 0x9E3779B97F4A7C15
    finalizer multipliers 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    shift schedule 30 / 27 / 31

Stream derivation: ``mix64(seed, fnv1a64(key))`` where *key* is
``"record:" + record_id`` for per-record streams and a fixed short label
for auxiliary streams (e.g. ``"augment:selection"``).
"""

from __future__ import annotations

import math

_MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def finalize64(z: int) -> int:
    """splitmix64 finalizer: a 64-bit avalanche of the input."""
    z &= _MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return z


def mix64(a: int, b: int) -> int:
    """Combine two 64-bit values into one well-mixed 64-bit value."""
    return finalize64(a ^ finalize64((b + GOLDEN) & _MASK))


def fnv1a64(text: str) -> int:
    """FNV-1a 64-bit hash of the UTF-8 encoding of *text*."""
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK
    return h


class RngStream:
    """splitmix64 stream with the draw helpers the pipeline needs.

    Identical (seed, key) pairs always yield identical draw sequences;
    there is no global state.
    """

    __slots__ = ("state", "_gauss_spare")

    def __init__(self, state: int):
        self.state = state & _MASK
        self._gauss_spare: float | None = None

    @classmethod
    def for_record(cls, seed: int, record_id: str) -> "RngStream":
        return cls(mix64(seed, fnv1a64("record:" + record_id)))

    @classmethod
    def for_label(cls, seed: int, label: str) -> "RngStream":
        return cls(mix64(seed, fnv1a64(label)))

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & _MASK
        return finalize64(self.state)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection sampling (unbiased)."""
        if n <= 0:
            raise ValueError("randrange() bound must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> list[int]:
        perm = list(range(n))
        self.shuffle(perm)
        return perm

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Standard Box-Muller transform; pairs are cached."""
        spare = self._gauss_spare
        if spare is not None:
            self._gauss_spare = None
            return mu + sigma * spare
        u1 = self.random()
        while u1 <= 0.0:
            u1 = self.random()
        u2 = self.random()
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._gauss_spare = r * math.sin(theta)
        return mu + sigma * (r * math.cos(theta))
