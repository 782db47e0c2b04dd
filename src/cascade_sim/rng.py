"""Deterministic random primitives.

Every random draw in the simulator comes from the splitmix64 recurrence
(Steele, Lea, Flood 2014), chosen because it is trivially portable: the
stream for a 64-bit seed ``s`` is

    out_i = mix64(s + (i + 1) * GAMMA)        for i = 0, 1, 2, ...

with GAMMA = 0x9E3779B97F4A7C15 and ``mix64`` the standard two-round
multiply-xorshift finalizer.  The host language RNG is never used, so
identical seeds give identical bit streams on every platform and every
Python version.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MULT_1 = 0xBF58476D1CE4E5B9
_MULT_2 = 0x94D049BB133111EB


def mix64(value: int) -> int:
    """Avalanche a 64-bit integer (splitmix64 finalizer)."""
    z = value & MASK64
    z = ((z ^ (z >> 30)) * _MULT_1) & MASK64
    z = ((z ^ (z >> 27)) * _MULT_2) & MASK64
    return z ^ (z >> 31)


class SeededRng:
    """Counter-based splitmix64 stream.

    Parameters
    ----------
    seed:
        Any integer; only the low 64 bits are used.
    """

    __slots__ = ("seed", "_counter")

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        self._counter = 0

    def next_u64(self) -> int:
        """Next raw 64-bit value of the stream."""
        self._counter += 1
        return mix64((self.seed + self._counter * GAMMA) & MASK64)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def below(self, bound: int) -> int:
        """Unbiased integer in [0, bound), by rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        threshold = ((MASK64 + 1) // bound) * bound
        while True:
            draw = self.next_u64()
            if draw < threshold:
                return draw % bound

    def derive(self, *labels: int) -> "SeededRng":
        """Independent child stream keyed by integer labels.

        The child seed is ``mix64((s + GAMMA) ^ mix64(label))`` folded over
        the labels in order, so distinct label tuples give distinct streams.
        """
        state = self.seed
        for label in labels:
            state = mix64(((state + GAMMA) & MASK64) ^ mix64(label & MASK64))
        return SeededRng(state)


def label_from_text(text: str) -> int:
    """Fold a short ASCII tag into a 64-bit label for ``SeededRng.derive``."""
    state = 0
    for byte in text.encode("utf-8"):
        state = mix64((state + GAMMA + byte) & MASK64)
    return state


def u64_stream(seed: int, count: int) -> np.ndarray:
    """Vectorised equivalent of ``count`` calls to ``SeededRng.next_u64``."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    with np.errstate(over="ignore"):
        idx = np.arange(1, count + 1, dtype=np.uint64)
        z = np.uint64(seed & MASK64) + idx * np.uint64(GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MULT_1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MULT_2)
        return z ^ (z >> np.uint64(31))


def unit_floats(seed: int, count: int) -> np.ndarray:
    """Vector of uniform floats in [0, 1), matching ``SeededRng.random``."""
    return (u64_stream(seed, count) >> np.uint64(11)) * 2.0**-53

