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

splitmix64 is counter-based: the k-th output after state s is
``finalize64(s + k·GOLDEN)``, so any number of outputs can be computed at
once.  ``RngStream.random_n(n)``, n draws of ``random()``, and
``RngStream.gauss_n(n, sigma)``, n draws of ``gauss(0.0, sigma)``, do so:
the uniforms sit in 128-bit lanes of one Python int, the finalizer runs
as whole-int shifts, masks and multiplies (a 64x64-bit product stays
inside its lane), the lanes are read back as little-endian 64-bit words
by one ``struct`` unpack, the same on every host, and the scaling and
Box-Muller run as C-level maps.  The floats, the final state
and the pending spare equal those of the repeated calls; a u1 of 0.0,
which ``gauss`` redraws, sends ``gauss_n`` to ``gauss`` itself.
``RngStream.permutation(n)`` takes its n-1 ``randrange`` draws from one
such pass, unshifted, unless one of them might be rejected.
"""

from __future__ import annotations

import math
import struct
from functools import lru_cache
from itertools import repeat
from math import cos, log, sin, sqrt
from operator import add, mod, mul

_MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_UNIT = 1.0 / (1 << 53)
_TWO_PI, _MINUS_TWO, _ZERO = 2.0 * math.pi, -2.0, 0.0
# 2π·2⁻⁵³ is exact (a power-of-two scaling), so 2π·(u·2⁻⁵³) == (2π·2⁻⁵³)·u
_TWO_PI_UNIT = _TWO_PI * _UNIT

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
        return (self.next_u64() >> 11) * _UNIT

    def random_n(self, n: int) -> list[float]:
        """``[self.random() for _ in range(n)]`` from one packed draw: the
        same floats and final state."""
        if n <= 0:
            return []
        bits = _outputs(self.state, n, 11)
        self.state = (self.state + n * GOLDEN) & _MASK
        return list(map(mul, bits, repeat(_UNIT)))

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection sampling (unbiased)."""
        if n <= 0:
            raise ValueError("randrange() bound must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def permutation(self, n: int) -> list[int]:
        """Fisher-Yates over ``range(n)``: item i swaps with ``randrange(i + 1)``
        for i = n-1 .. 1.  From five items on, the draws are one packed pass
        unless one might be rejected (below five, the calls cost less)."""
        perm, bounds = list(range(n)), range(n, 1, -1)
        draws = _outputs(self.state, n - 1) if n > 4 else None
        # randrange(b) redraws an output at or above 2**64 - 2**64 % b > 2**64 - n
        if draws is None or max(draws) >= (1 << 64) - n:
            draws = map(self.randrange, bounds)
        else:
            self.state = (self.state + (n - 1) * GOLDEN) & _MASK
            draws = map(mod, draws, bounds)
        for i, j in zip(range(n - 1, 0, -1), draws):
            perm[i], perm[j] = perm[j], perm[i]
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

    def gauss_n(self, n: int, sigma: float) -> list[float]:
        """``[self.gauss(0.0, sigma) for _ in range(n)]`` from one packed
        draw of the uniforms: the same floats, final state and spare."""
        spare = self._gauss_spare
        head = [] if spare is None else [0.0 + sigma * spare]
        rest = n - len(head)
        pairs = (rest + 1) // 2
        bits = _outputs(self.state, 2 * pairs, 11)
        u1 = bits[::2]
        if not bits or 0 in u1:
            # no pair to draw, or gauss redraws a u1 of 0.0, which shifts every later draw
            return [self.gauss(0.0, sigma) for _ in range(n)]
        # operator.mul over repeat() is the cheapest C-level product per element
        r = list(map(sqrt, map(mul, repeat(_MINUS_TWO), map(log, map(mul, u1, repeat(_UNIT))))))
        theta = list(map(mul, bits[1::2], repeat(_TWO_PI_UNIT)))
        z = [0.0] * (2 * pairs)
        z[::2] = map(mul, r, map(cos, theta))
        z[1::2] = map(mul, r, map(sin, theta))
        self._gauss_spare = z.pop() if rest % 2 else None
        self.state = (self.state + 2 * pairs * GOLDEN) & _MASK
        # 0.0 + sigma * z, as gauss computes it: 0.0 + turns -0.0 into 0.0
        return head + list(map(add, repeat(_ZERO), map(mul, repeat(sigma), z)))


@lru_cache(maxsize=64)
def _lanes(m: int) -> tuple[int, int, int, struct.Struct]:
    """Constants for m lanes of 128 bits: a 1 in each lane, k·GOLDEN in
    lane k-1, the 64-bit lane mask, and the unpacker of each lane's low
    64 bits from the little-endian bytes."""
    ones = sum(1 << (128 * i) for i in range(m))
    steps = sum((((i + 1) * GOLDEN) & _MASK) << (128 * i) for i in range(m))
    return ones, steps, ones * _MASK, struct.Struct("<" + "Q8x" * m)


def _outputs(state: int, m: int, shift: int = 0) -> tuple[int, ...]:
    """``finalize64(state + k·GOLDEN) >> shift`` for k = 1..m, computed in
    128-bit lanes of one int: a 64x64-bit product never reaches the next
    lane, and the shift moves a lane's bits only into the high half of the
    lane below, which is not read back."""
    ones, steps, lane, words = _lanes(m)
    z = (state * ones + steps) & lane
    z = (z ^ (z >> 30)) & lane
    z = (z * 0xBF58476D1CE4E5B9) & lane
    z = (z ^ (z >> 27)) & lane
    z = (z * 0x94D049BB133111EB) & lane
    z = ((z ^ (z >> 31)) & lane) >> shift
    return words.unpack(z.to_bytes(16 * m, "little"))
