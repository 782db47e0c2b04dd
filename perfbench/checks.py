"""Independent correctness checks for benchmark sessions.

Nothing here calls into ``cascade_sim`` to compute an expected value.  The
seed derivations, the frame and noise streams, the LCG round permutations
and the block layout are rebuilt from the constructions that the package
documents (``rng``, ``bitframe``, ``schedule`` and ``harness`` docstrings),
so a change in the program that alters any of them fails a check instead of
being compared against itself.  Message objects from the transcript are
read by attribute name only.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MULT_1 = 0xBF58476D1CE4E5B9
_MULT_2 = 0x94D049BB133111EB
_LCG_A = 1664525
_LCG_C = 1013904223
_LCG_MASK = (1 << 32) - 1


class CheckError(AssertionError):
    """A session's output disagrees with the benchmark's own computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# -- splitmix64 --------------------------------------------------------------


def _mix64(value: int) -> int:
    z = value & MASK64
    z = ((z ^ (z >> 30)) * _MULT_1) & MASK64
    z = ((z ^ (z >> 27)) * _MULT_2) & MASK64
    return z ^ (z >> 31)


def label(text: str) -> int:
    state = 0
    for byte in text.encode("utf-8"):
        state = _mix64((state + GAMMA + byte) & MASK64)
    return state


def derive(seed: int, *labels: int) -> int:
    state = seed & MASK64
    for item in labels:
        state = _mix64(((state + GAMMA) & MASK64) ^ _mix64(item & MASK64))
    return state


def draw(seed: int, index: int = 1) -> int:
    """The ``index``-th (1-based) 64-bit output of the stream for ``seed``."""
    return _mix64((seed + index * GAMMA) & MASK64)


def _stream(seed: int, count: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = np.uint64(seed) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MULT_1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MULT_2)
        return z ^ (z >> np.uint64(31))


def _below(seed: int, counter: int, bound: int) -> tuple[int, int]:
    threshold = ((MASK64 + 1) // bound) * bound
    while True:
        counter += 1
        value = draw(seed, counter)
        if value < threshold:
            return value % bound, counter


# -- trial inputs (harness.run_trial_detailed) --------------------------------

TRIAL_FRAME = label("trial-frame-seed")
TRIAL_NOISE = label("trial-noise-seed")
TRIAL_SESSION = label("trial-session-seed")


def trial_inputs(length: int, noise, seed: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Reference frame, noisy frame and session seed of one harness trial."""
    frame_seed = draw(derive(seed, TRIAL_FRAME))
    noise_seed = draw(derive(seed, TRIAL_NOISE))
    session_seed = draw(derive(seed, TRIAL_SESSION))
    reference = (_stream(derive(frame_seed, label("frame/random")), length) & np.uint64(1)).astype(
        np.uint8
    )
    flips = np.zeros(length, dtype=bool)
    if hasattr(noise, "qber"):
        floats = (_stream(derive(noise_seed, label("noise/bsc")), length) >> np.uint64(11)) * 2.0**-53
        flips = floats < noise.qber
    else:
        # Partial Fisher-Yates over the rejection-sampled stream.
        child = derive(noise_seed, label("noise/fixed"))
        pool = list(range(length))
        counter = 0
        for i in range(noise.count):
            offset, counter = _below(child, counter, length - i)
            j = i + offset
            pool[i], pool[j] = pool[j], pool[i]
        flips[pool[: noise.count]] = True
    return reference, reference ^ flips.astype(np.uint8), session_seed


def sweep_seed(base_seed: int, point_index: int, repeat: int) -> int:
    """Per-trial seed of ``harness.sweep_qber``."""
    return draw(derive(base_seed, label("qber-sweep"), point_index, repeat))


# -- round geometry -----------------------------------------------------------


def _lcg_keys(lcg_seed: int, count: int) -> np.ndarray:
    # state_k = a^k * s + c * (1 + a + ... + a^(k-1))  (mod 2^32); uint64
    # products wrap modulo 2^64, which 2^32 divides, so masking at the end
    # gives the exact key stream without a Python loop.
    with np.errstate(over="ignore"):
        powers = np.multiply.accumulate(np.full(count, _LCG_A, dtype=np.uint64))
        geometric = np.cumsum(
            np.concatenate(([np.uint64(1)], powers[:-1])), dtype=np.uint64
        )
        keys = powers * np.uint64(lcg_seed) + geometric * np.uint64(_LCG_C)
    return (keys & np.uint64(_LCG_MASK)).astype(np.int64)


def round_mapping(length: int, round_index: int, session_seed: int) -> np.ndarray:
    """Original position -> round position for the ``lcg`` family."""
    if round_index == 0:
        return np.arange(length, dtype=np.int64)
    lcg_seed = draw(derive(session_seed, label("permutation/lcg"), round_index)) & _LCG_MASK
    return np.argsort(_lcg_keys(lcg_seed, length), kind="stable").astype(np.int64)


def round_view(bits: np.ndarray, mapping: np.ndarray) -> np.ndarray:
    view = np.empty_like(bits)
    view[mapping] = bits
    return view


def block_size(schedule, round_index: int, length: int) -> int:
    """Static geometric schedule, clamped to ``[2, length]``."""
    require(hasattr(schedule, "k"), f"checks cover the static schedule only, got {schedule!r}")
    size = math.ceil(1.0 / schedule.qber_estimate) * schedule.k**round_index
    return max(1, min(max(size, 2), length))


def _parities(view: np.ndarray, los: np.ndarray, his: np.ndarray) -> np.ndarray:
    prefix = np.concatenate(([0], np.bitwise_xor.accumulate(view))).astype(np.uint8)
    return prefix[his] ^ prefix[los]


# -- the per-session check ------------------------------------------------------


def binary_entropy(q: float) -> float:
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * math.log2(q) - (1 - q) * math.log2(1 - q)


def check_trial(detail, length: int, noise, seed: int) -> dict:
    """Check one ``TrialDetail`` and return the figures the metrics need.

    Raises :class:`CheckError` on any disagreement.  An honest ``FAILURE``
    passes when the final frame still differs from the reference with odd
    parity in some block of an executed round: a difference the protocol
    had the means to see and never re-checked.
    """
    reference, noisy, session_seed = trial_inputs(length, noise, seed)
    require(np.array_equal(detail.reference_frame.bits, reference), f"seed {seed}: reference frame")
    require(np.array_equal(detail.noisy_frame.bits, noisy), f"seed {seed}: noisy frame")
    result, record = detail.result, detail.record
    final = np.asarray(result.responder.final_frame.bits, dtype=np.uint8)

    status_a, status_b = result.initiator.status.value, result.responder.status.value
    require(status_a == status_b, f"seed {seed}: verdicts differ ({status_a} vs {status_b})")
    equal = bool(np.array_equal(final, reference))
    require((status_b == "success") == equal, f"seed {seed}: verdict {status_b} but frames equal={equal}")
    require(record.success == equal, f"seed {seed}: record.success disagrees with the frames")

    injected = reference ^ noisy
    flipped = final ^ noisy
    require(not np.any(flipped & ~injected & 1), f"seed {seed}: flipped a position that was not in error")
    residual = injected & ~flipped & 1
    require(np.array_equal(residual, final ^ reference), f"seed {seed}: residual errors")
    corrected = [event.original_position for event in result.responder.corrections]
    require(
        sorted(corrected) == np.flatnonzero(flipped).tolist()
        and len(corrected) == result.responder.corrected_total,
        f"seed {seed}: correction events disagree with the flipped positions",
    )
    injected_count = int(injected.sum())
    require(record.injected_errors == injected_count, f"seed {seed}: injected count")
    require(record.residual_errors == int(residual.sum()), f"seed {seed}: residual count")

    transcript = result.channel.transcript
    init = transcript[0].message
    require(type(init).__name__ == "Init" and init.seed == session_seed, f"seed {seed}: session seed")
    require(init.permutation_kind == "lcg" and init.frame_length == length, f"seed {seed}: Init")
    views: dict = {}
    disclosed = 0
    for entry in transcript:
        message = entry.message
        kind = type(message).__name__
        if kind == "BlockParities":
            r = message.round_index
            require(r == len(views), f"seed {seed}: round {r} opened out of order")
            views[r] = round_view(reference, round_mapping(length, r, session_seed))
            size = block_size(init.schedule, r, length)
            los = np.arange(0, length, size)
            his = np.minimum(los + size, length)
            got = np.asarray(message.parities, dtype=np.uint8)
            require(got.size == los.size, f"seed {seed}: round {r} block count")
            require(np.array_equal(got, _parities(views[r], los, his)), f"seed {seed}: round {r} block parity")
            disclosed += got.size
        elif kind == "ParityAnswer" and message.entries:
            entries = np.asarray(message.entries, dtype=np.int64)
            view = views[message.round_index]
            expected = _parities(view, entries[:, 0], entries[:, 1])
            require(
                np.array_equal(entries[:, 2].astype(np.uint8), expected),
                f"seed {seed}: round {message.round_index} answer parity",
            )
            disclosed += len(entries)
    require(
        disclosed == result.initiator.parity_bits_disclosed == result.responder.parity_bits_disclosed
        == record.parity_bits_disclosed,
        f"seed {seed}: disclosure count {disclosed} vs engines "
        f"{result.initiator.parity_bits_disclosed}/{result.responder.parity_bits_disclosed}",
    )

    if not equal:
        difference = final ^ reference
        odd_block = False
        for r in views:
            size = block_size(init.schedule, r, length)
            folded = np.bitwise_xor.reduceat(
                round_view(difference, round_mapping(length, r, session_seed)),
                np.arange(0, length, size),
            )
            odd_block = odd_block or bool(folded.any())
        require(odd_block, f"seed {seed}: FAILURE without an odd-difference block in any executed round")

    return {
        "failed": not equal,
        "bits": length,
        "disclosed": disclosed,
        "leak_floor": length * binary_entropy(injected_count / length),
        "messages": len(transcript),
    }
