"""Bit frames, permutations and channel noise.

A frame is an immutable ordered sequence of bits.  A permutation is a
read-only int64 source-to-target array: ``mapping[i]`` is the position that
source bit ``i`` occupies after the permutation is applied.  Two
deterministic permutation families are provided, both keyed by
``(length, round, seed)``; each generator builds its array as a bijection
and hands it over without a copy or a run-time check:

* ``shuffle`` - repeated perfect out-shuffle composed with a round-dependent
  rotation.  One out-shuffle sends source ``i`` to target ``i // 2`` when
  ``i`` is even and to ``ceil(n / 2) + i // 2`` when ``i`` is odd (for odd
  lengths the first ``ceil(n / 2)`` positions form the first half).  The
  shuffle is applied ``round + 1 + (seed mod 7)`` times and the result is
  rotated by ``round mod n``; the rotation guarantees that rounds
  ``0 .. n - 1`` all get distinct permutations, which bare out-shuffle
  powers cannot (the shuffle group is tiny for small ``n``).
* ``lcg`` - index ``k`` is assigned the ``(k + 1)``-th state of a linear
  congruential generator (a=1664525, c=1013904223, m=2**32) seeded from
  ``(seed, round)``, and the permutation sorts the indices by these keys.
  The keys are computed in blocks rather than by walking the recurrence:
  one row of about ``sqrt(n)`` states, and one jump per block that
  advances a state by a whole number of rows, both from the closed form
  ``a^k*s + c*(1 + a + ... + a^(k-1)) mod m``.  The packed values
  ``key << 32 | index`` are built directly in one uint64 grid of blocks by
  row: an outer product of the jumps with the row shifted 32 bits up
  leaves each key's product in the high half, and two broadcast adds put
  in each block's offset and start index and each column's index.  The
  order comes from one in-place sort of the packed values, which is the
  order a stable argsort of the keys gives.  The generator has full period ``m``
  (Hull-Dobell: ``c`` is odd and ``a - 1`` is a multiple of 4), so the keys
  of any frame up to ``2**32`` bits are distinct and their order is unique;
  longer frames are rejected, since neither the keys nor the 32-bit index
  field would stay distinct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ConfigurationError
from .rng import SeededRng, label_from_text, u64_stream, unit_floats

# The permutation families, by name; the order is the wire byte order.
PERMUTATION_KINDS = ("shuffle", "lcg")

_LCG_A = 1664525
_LCG_C = 1013904223
_LCG_M = 1 << 32

_LCG_LABEL = label_from_text("permutation/lcg")
_BSC_LABEL = label_from_text("noise/bsc")
_FIXED_LABEL = label_from_text("noise/fixed")
_FRAME_LABEL = label_from_text("frame/random")

BitsLike = Union["BitFrame", np.ndarray, Sequence[int]]


def _as_bit_array(bits: BitsLike) -> np.ndarray:
    if isinstance(bits, BitFrame):
        return bits.bits
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ConfigurationError("bits must be one-dimensional")
    if arr.size and int(arr.max(initial=0)) > 1:
        raise ConfigurationError("bits must be 0 or 1")
    return arr


class BitFrame:
    """Immutable ordered sequence of binary values."""

    __slots__ = ("bits",)

    def __init__(self, bits: BitsLike):
        arr = _as_bit_array(bits).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("BitFrame is immutable")

    def __len__(self) -> int:
        return int(self.bits.size)

    def __getitem__(self, index: int) -> int:
        return int(self.bits[index])

    def __iter__(self):
        return iter(int(b) for b in self.bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitFrame):
            return NotImplemented
        return self.bits.shape == other.bits.shape and bool(
            np.array_equal(self.bits, other.bits)
        )

    def __hash__(self) -> int:
        return hash((self.bits.size, self.bits.tobytes()))

    def __repr__(self) -> str:
        shown = "".join(str(int(b)) for b in self.bits[:32])
        tail = "..." if len(self) > 32 else ""
        return f"BitFrame({shown}{tail}, length={len(self)})"

    @classmethod
    def random(cls, length: int, seed: int) -> "BitFrame":
        """Uniform random frame from the dedicated per-seed stream."""
        if length < 0:
            raise ConfigurationError("length must be nonnegative")
        child = SeededRng(seed).derive(_FRAME_LABEL)
        return cls((u64_stream(child.seed, length) & np.uint64(1)).astype(np.uint8))


def hamming_distance(a: BitsLike, b: BitsLike) -> int:
    """Number of positions where two equal-length frames differ."""
    arr_a = _as_bit_array(a)
    arr_b = _as_bit_array(b)
    if arr_a.size != arr_b.size:
        raise ConfigurationError("frames must have equal length")
    return int(np.count_nonzero(arr_a != arr_b))


def out_shuffle_mapping(length: int) -> np.ndarray:
    """Single perfect out-shuffle as a source-to-target map."""
    if length < 0:
        raise ConfigurationError("length must be nonnegative")
    first_half = (length + 1) // 2
    targets = np.empty(length, dtype=np.int64)
    evens = np.arange(0, length, 2, dtype=np.int64)
    odds = np.arange(1, length, 2, dtype=np.int64)
    targets[evens] = np.arange(evens.size, dtype=np.int64)
    targets[odds] = first_half + np.arange(odds.size, dtype=np.int64)
    return targets


def gen_shuffle_permutation(length: int, round_index: int, seed: int) -> np.ndarray:
    """Deterministic shuffle-family permutation for one round.

    See the module docstring for the exact construction.  Distinct rounds
    below ``length`` always produce distinct permutations.
    """
    if length < 0:
        raise ConfigurationError("length must be nonnegative")
    if round_index < 0:
        raise ConfigurationError("round index must be nonnegative")
    mapping = np.arange(length, dtype=np.int64)
    if length:
        single = out_shuffle_mapping(length)
        applications = round_index + 1 + ((seed & ((1 << 64) - 1)) % 7)
        for _ in range(applications):
            mapping = single[mapping]
        rotation = round_index % length
        if rotation:
            mapping = (mapping + rotation) % length
    mapping.setflags(write=False)
    return mapping


def _affine_powers(a: int, c: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Multiplier and offset of ``x -> a*x + c`` applied ``k`` times, k < count.

    Closed form: ``a^k`` and ``c*(1 + a + ... + a^(k-1))``.  The uint32
    arithmetic wraps modulo 2**32 exactly as the generator does.
    """
    mult = np.full(count, a, dtype=np.uint32)
    mult[:1] = 1
    np.multiply.accumulate(mult, out=mult)  # a^k
    offset = np.zeros(count, dtype=np.uint32)
    offset[1:] = mult[:-1]
    np.cumsum(offset, dtype=np.uint32, out=offset)  # 1 + a + ... + a^(k-1)
    offset *= np.uint32(c)
    return mult, offset


def _lcg_packed(lcg_seed: int, count: int) -> np.ndarray:
    """``key << 32 | index`` for the first ``count`` LCG states after
    ``lcg_seed`` (reduced mod 2**32), as a flat uint64 array.

    Blocked jump-ahead over rows of ``width`` (about ``sqrt(count)``) keys:
    key ``j*width + i`` is state ``i + 1`` advanced by ``j*width`` steps.
    The row of states and the per-block jumps come from the closed form
    applied twice.  The values are built in one grid of ``blocks x width``
    entries: an outer product of the jump multipliers with the row shifted
    into the high half keeps exactly each product's low 32 bits there, one
    broadcast add puts ``jump_offset << 32 | block_start`` on each row, and
    a second adds the column index.
    """
    width = max(1, math.isqrt(count))
    blocks = -(-count // width)
    mult, offset = _affine_powers(_LCG_A, _LCG_C, width + 1)
    row = mult[1:] * np.uint32(lcg_seed % _LCG_M) + offset[1:]  # states 1 .. width
    jump_mult, jump_offset = _affine_powers(int(mult[width]), int(offset[width]), blocks)
    shift = np.uint64(32)
    grid = np.empty((blocks, width), dtype=np.uint64)
    # (m * (r << 32)) mod 2**64 is ((m * r) mod 2**32) << 32.
    np.multiply.outer(jump_mult, np.left_shift(row, shift, dtype=np.uint64), out=grid)
    starts = np.arange(0, blocks * width, width, dtype=np.uint64)
    grid += (np.left_shift(jump_offset, shift, dtype=np.uint64) | starts)[:, None]
    grid += np.arange(width, dtype=np.uint64)
    return grid.reshape(-1)[:count]


def gen_lcg_permutation(length: int, round_index: int, seed: int) -> np.ndarray:
    """LCG-keyed permutation: indices sorted by a per-round LCG key stream."""
    if length < 0:
        raise ConfigurationError("length must be nonnegative")
    if length > _LCG_M:
        raise ConfigurationError("lcg permutations have at most 2**32 positions")
    if round_index < 0:
        raise ConfigurationError("round index must be nonnegative")
    lcg_seed = SeededRng(seed).derive(_LCG_LABEL, round_index).next_u64() % _LCG_M
    # Sorting key << 32 | index orders by key, then by index: a stable
    # argsort of the keys in one in-place sort of the packed buffer.
    packed = _lcg_packed(lcg_seed, length)
    packed.sort()
    packed &= np.uint64(_LCG_M - 1)
    mapping = packed.view(np.int64)
    mapping.setflags(write=False)
    return mapping


@dataclass(frozen=True)
class Bsc:
    """Binary symmetric channel: each bit flips independently."""

    qber: float

    def __post_init__(self):
        # 0 is allowed as the degenerate noiseless channel; at 0.5 and above
        # the flipped stream carries no information so reconciliation is
        # ill-posed.
        if not 0.0 <= self.qber < 0.5:
            raise ConfigurationError("qber must lie in [0, 0.5)")


@dataclass(frozen=True)
class FixedErrors:
    """Exactly ``count`` flips at distinct uniform positions."""

    count: int

    def __post_init__(self):
        if self.count < 0:
            raise ConfigurationError("error count must be nonnegative")


NoiseSpec = Union[Bsc, FixedErrors]


def _sample_distinct(length: int, count: int, rng: SeededRng) -> np.ndarray:
    # Partial Fisher-Yates over [0, length) driven by the seeded stream.
    pool = np.arange(length, dtype=np.int64)
    for i in range(count):
        j = i + rng.below(length - i)
        pool[i], pool[j] = pool[j], pool[i]
    return np.sort(pool[:count])


def apply_noise(frame: BitFrame, spec: NoiseSpec, seed: int) -> tuple[BitFrame, int]:
    """Return a noisy copy of ``frame`` and the number of injected flips."""
    n = len(frame)
    out = frame.bits.copy()
    if isinstance(spec, Bsc):
        child = SeededRng(seed).derive(_BSC_LABEL)
        flips = unit_floats(child.seed, n) < spec.qber
        out[flips] ^= 1
        return BitFrame(out), int(np.count_nonzero(flips))
    if isinstance(spec, FixedErrors):
        if spec.count > n:
            raise ConfigurationError("cannot inject more errors than frame bits")
        child = SeededRng(seed).derive(_FIXED_LABEL)
        positions = _sample_distinct(n, spec.count, child)
        out[positions] ^= 1
        return BitFrame(out), int(spec.count)
    raise ConfigurationError(f"unknown noise spec: {spec!r}")
