"""The reconciliation engine: both protocol parties plus session drivers.

The initiator (A) holds the reference frame.  The responder (B) holds the
noisy frame and does all the heavy lifting: it compares block parities,
drives dichotomic searches, cascades corrections back into earlier rounds'
blocks, and flips its own bits.  Parties are written as generators that
``yield`` lists of outbound messages and receive the next inbound message
at each yield; this makes the protocol single-steppable, transport-free,
and byte-reproducible under both lockstep and threaded scheduling.

Conversation shape (strict half-duplex: at most one message in flight):

    A -> B   Init
    B -> A   Init                      (or Result on parameter mismatch)
    per round:
        A -> B   BlockParities
        B -> A   ParityQuery    \\  zero or more exchanges
        A -> B   ParityAnswer   /
        B -> A   RoundDone
    A -> B   Finalize
    B -> A   Finalize
    A -> B   Result

Both parties keep each opened round as prefix parities of its permuted
view: ``prefix[i]`` is the parity of the round's first ``i`` bits, so any
interval's parity is two byte reads.  The initiator keeps a list of them.
The responder keeps one record per opened round, in a list indexed by
round: the round's plan, its mapping (and, from the round's first find,
the inverse), its prefix parities and its parity map (the initiator's
parities it knows, keyed by ``(lo, hi)``).
A round's mapping is built once per session: both parties get the same
read-only array from ``round_mapping``, whose memo holds it weakly.  When a
round opens, the responder compares every block's local parity with the
announced one in one vectorised step, and only the blocks that differ
become searches.

Every stored parity is a fact about the initiator's fixed frame, whether
it crossed the wire or was derived from others, and any two that disagree
are a ``ProtocolError``; the parity map has one write rule for this
(``_Round.learn``).  Each corrected leaf is stored too, so each position
flips at most once per session, which bounds every break rule: at most n
flips, ``ThresholdBreak(m)`` ends within n // m + 1 rounds and
``QuietRoundsBreak(q)`` within (n + 1) * q rounds.

Within a round the responder works in "waves".  Each block search is a
record of its round and its ``binary_search`` state, whose working interval
starts as the block.  Each wave advances every live search once: it steps
as far as stored parities allow and returns the one interval whose parity
must cross the wire; the wave sends those queries, applies each answer to
its search, then applies the located corrections.  A search step computes
its interval's midpoint once and reads the first half from the parity
map, one level below the working interval (stored, or derived from the
interval and a stored second half); otherwise the first half becomes the
step's query.  Either way the step learns both halves, the first half's
value and the implied second half, so the working interval's own parity is
always stored: the map is the one copy of every parity the responder
knows, and a block searched again after earlier corrections re-reads every
parity it already knows for free and discloses only what the map cannot
supply.
A wire answer takes its search one step; the search steps on only in the
next wave, after that wave's flips, so each search makes at most one
exchange per wave; the transcript depends on both.  A wave's corrected
bits flip in the frame at once; then one pass per round record over their
positions updates the record's parity map, queues every block that holds a
flipped bit (the cascade, current round included), drops each live search
whose working interval a flip touched (an abort) and XORs the prefix past
the flipped positions.  A queued block becomes a search only if its parity
differs, by the comparison used at round entry, and no search of it is
live; these two places are the only ones where a search starts, so every
search is made for a block that differs.  The waves are the same
regardless of query batching, and each wave's corrections are credited in
the order its searches were created, so the batched and unbatched modes
produce bit-identical corrections.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from . import binary_search as bisect_search
from . import channel as wire
from .bitframe import PERMUTATION_KINDS, BitFrame, gen_lcg_permutation, gen_shuffle_permutation
from .errors import ConfigurationError, ProtocolError, TransportError
from .paritytree import Interval, split_point

# perfbench/layers.py wraps these names in this module; the engine no longer calls them.
from .paritytree import (  # noqa: F401
    build_tree,
    iter_nodes,
    mark_compromised,
    mark_error_leaf,
    multi_error_frontier,
    set_syndrome,
)
from .rng import SeededRng, label_from_text
from .schedule import (
    BREAKS,
    SCHEDULES,
    BreakCondition,
    RoundPlan,
    ScheduleConfig,
    plan_round,
    should_terminate,
)

_FINGERPRINT_PRIME = (1 << 61) - 1
_FINGERPRINT_LABEL = label_from_text("frame-fingerprint-base")
_PIECE_SHIFTS = np.array([0, 16, 32, 48], dtype=np.uint64)


@dataclass(frozen=True)
class SessionConfig:
    """Everything one party needs to run a session.

    ``frame_length``, ``schedule``, ``break_condition``, ``permutation_kind``
    and ``seed`` must match between the parties (checked in the handshake).
    ``aggregation`` and ``parity_reuse`` are responder-local policies: the
    first packages a wave's queries into one message per referenced round,
    the second allows previously learned or derivable remote parities to
    answer search steps without a channel exchange.
    """

    frame_length: int
    schedule: ScheduleConfig
    break_condition: BreakCondition
    permutation_kind: str = "lcg"
    seed: int = 0
    aggregation: bool = False
    parity_reuse: bool = True

    def __post_init__(self) -> None:
        if self.frame_length < 1:
            raise ConfigurationError(f"frame_length must be >= 1, got {self.frame_length}")
        if self.frame_length >= 1 << 32:
            # Init carries the length as u32.
            raise ConfigurationError(f"frame_length must be < 2**32, got {self.frame_length}")
        if self.permutation_kind not in PERMUTATION_KINDS:
            raise ConfigurationError(
                f"permutation_kind must be one of {PERMUTATION_KINDS}, got {self.permutation_kind!r}"
            )
        for name, value, types in (
            ("schedule", self.schedule, SCHEDULES.values()),
            ("break_condition", self.break_condition, BREAKS.values()),
        ):
            if type(value) not in types:
                names = ", ".join(t.__name__ for t in types)
                raise ConfigurationError(f"{name} must be one of {names}, got {value!r}")
        if not 0 <= self.seed < (1 << 64):
            raise ConfigurationError("seed must fit in 64 bits")


class CorrectionEvent(NamedTuple):
    """One corrected bit and what it cost to locate.

    ``corrected_round`` is the round during which the flip landed;
    ``block_round`` identifies the round whose block was searched (older
    than ``corrected_round`` for cascaded corrections).  ``block_position``
    is the located singleton in that round's permuted coordinates, and
    ``disclosed_bits`` counts the channel parities the search consumed.
    """

    corrected_round: int
    block_round: int
    original_position: int
    block_position: int
    disclosed_bits: int


@dataclass(frozen=True)
class SessionSummary:
    """One party's account of a finished session; ``PairResult`` names the
    party.

    ``corrected_history`` holds each executed round's correction count;
    ``corrections`` is the responder's own record (the initiator's is
    empty).  The other counts are derived from these two.
    """

    status: wire.SessionStatus
    final_frame: BitFrame
    corrected_history: Tuple[int, ...]
    parity_bits_disclosed: int
    fingerprint: Optional[int]
    corrections: Tuple[CorrectionEvent, ...] = ()

    @property
    def rounds_executed(self) -> int:
        return len(self.corrected_history)

    @property
    def corrected_total(self) -> int:
        return sum(self.corrected_history)

    @property
    def compromised_positions(self) -> frozenset:
        return frozenset(event.original_position for event in self.corrections)


def _unreconciled(status: wire.SessionStatus, frame: BitFrame, parity_bits: int) -> SessionSummary:
    """Summary of a session that ended before any round was reconciled."""
    return SessionSummary(status, frame, (), parity_bits, None)


def frame_fingerprint(frame: BitFrame, seed: int) -> int:
    """Seed-keyed polynomial hash of a frame modulo the prime 2**61 - 1.

    The frame is read as little-endian 32-bit limbs ``m_0, m_1, ...`` and
    evaluated as ``sum m_i * x**(i + 1)`` at a secret point ``x`` derived
    from the shared seed.  Any single-bit difference changes exactly one
    limb by a power of two, so it always changes the value; for differing
    frames of length n the collision probability over the choice of point
    is below n / 2**56.

    The evaluation is blocked: the limbs form rows of ``w`` (about the
    square root of their count), one integer matrix product gives every
    row's sum against ``x**1 .. x**w`` exactly, and a Horner pass with step
    ``x**w`` combines the rows.
    """
    point = 2 + SeededRng(seed).derive(_FINGERPRINT_LABEL).next_u64() % (_FINGERPRINT_PRIME - 3)
    limbs = (len(frame) + 31) // 32
    width = max(1, math.isqrt(limbs))
    rows = -(-limbs // width)
    padded = np.zeros(rows * width * 32, dtype=np.uint8)
    padded[: len(frame)] = frame.bits
    grid = np.packbits(padded, bitorder="little").view("<u4").reshape(rows, width)
    powers = [point]
    for _ in range(width - 1):
        powers.append(powers[-1] * point % _FINGERPRINT_PRIME)
    # Each power in four 16-bit pieces: a limb times a piece is below 2**48,
    # so a row of at most 2**16 limbs sums against each piece exactly.
    pieces = (np.array(powers, dtype=np.uint64)[:, None] >> _PIECE_SHIFTS) & np.uint64(0xFFFF)
    row_sums = (grid.astype(np.uint64) @ pieces).tolist()
    accumulator = 0
    for p0, p1, p2, p3 in reversed(row_sums):
        row = p0 + (p1 << 16) + (p2 << 32) + (p3 << 48)
        accumulator = (accumulator * powers[-1] + row) % _FINGERPRINT_PRIME
    return accumulator


def _init_from_config(config: SessionConfig) -> wire.Init:
    return wire.Init(
        frame_length=config.frame_length,
        permutation_kind=config.permutation_kind,
        schedule=config.schedule,
        break_condition=config.break_condition,
        seed=config.seed,
    )


# Round mappings alive anywhere in the process, keyed by everything they
# depend on; the memo holds them weakly, so it keeps none alive by itself.
_MAPPINGS: weakref.WeakValueDictionary[Tuple[str, int, int, int], np.ndarray]
_MAPPINGS = weakref.WeakValueDictionary()


def round_mapping(config: SessionConfig, round_index: int) -> np.ndarray:
    """Original-position -> round-position array for one round.

    Round 0 always works on unpermuted data; later rounds draw from the
    configured permutation family, keyed by the shared seed.  A later
    round's mapping is the generator's read-only array, shared through
    ``_MAPPINGS`` with whoever else holds it: the key is the permutation
    kind, the frame length, the round and the seed, which the handshake
    checks, so both parties of a session get one array and parties whose
    configurations differ never share one.  The initiator holds its
    current round's mapping until the responder has opened that round, so
    the responder never builds it again; once a session ends nothing holds
    its mappings and the memo drops them.
    """
    n = config.frame_length
    if round_index == 0:
        return np.arange(n, dtype=np.int64)
    key = (config.permutation_kind, n, round_index, config.seed)
    mapping = _MAPPINGS.get(key)
    if mapping is None:
        lcg = config.permutation_kind == "lcg"
        generate = gen_lcg_permutation if lcg else gen_shuffle_permutation
        mapping = _MAPPINGS.setdefault(key, generate(n, round_index, config.seed))
    return mapping


# _BYTE_PREFIX[b] holds in bit j the parity of bits 0..j of byte b.
_BYTE_PREFIX = np.packbits(
    np.bitwise_xor.accumulate(
        np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"),
        axis=1,
    ),
    axis=1,
    bitorder="little",
).reshape(256)


def _round_prefix(
    config: SessionConfig, round_index: int, bits: np.ndarray
) -> Tuple[np.ndarray, bytearray, np.ndarray]:
    """One round's mapping and the prefix parities of its view of ``bits``.

    ``prefix[i]`` is the parity of the first ``i`` bits of the round's view,
    so the parity of ``[lo, hi)`` is ``prefix[lo] ^ prefix[hi]``.  The
    prefix is a bytearray, whose single reads are cheap Python ints; the
    returned array is a writable numpy view over the same bytes.  Round 0's
    view is ``bits`` itself.  The view is packed eight bits to a byte, each
    byte's prefix comes from a table, and the running parity of the bytes
    before it is XORed in before unpacking.
    """
    mapping = round_mapping(config, round_index)
    view = bits
    if round_index:
        view = np.empty(config.frame_length, dtype=np.uint8)
        view[mapping] = bits
    packed = _BYTE_PREFIX[np.packbits(view, bitorder="little")]
    carry = np.bitwise_xor.accumulate(packed >> 7)
    packed[1:] ^= np.negative(carry[:-1])  # 0 -> 0x00, 1 -> 0xff
    prefix = bytearray(config.frame_length + 1)
    array = np.frombuffer(prefix, dtype=np.uint8)
    array[1:] = np.unpackbits(packed, count=config.frame_length, bitorder="little")
    return mapping, prefix, array


def _block_parities(array: np.ndarray, plan: RoundPlan) -> np.ndarray:
    """Every block's parity in plan order, from a round's prefix array."""
    n = array.size - 1
    edges = array[np.append(np.arange(0, n, plan.block_size), n)]
    return edges[:-1] ^ edges[1:]


# ---------------------------------------------------------------------------
# initiator
# ---------------------------------------------------------------------------


def initiator_session(config: SessionConfig, frame: BitFrame):
    """Generator for party A.  Yields lists of outbound messages; the
    driver sends each yielded message and delivers the next inbound one.
    Returns ``(SessionSummary, final_messages)`` via StopIteration."""
    if len(frame) != config.frame_length:
        raise ConfigurationError(
            f"frame length {len(frame)} does not match configured {config.frame_length}"
        )
    n = config.frame_length
    my_init = _init_from_config(config)
    parity_bits = 0

    inbound = yield [my_init]
    if isinstance(inbound, wire.Result):
        # Only the responder's handshake rejection may end a session here.
        if inbound.status is not wire.SessionStatus.CONFIG_MISMATCH:
            raise ProtocolError(f"unexpected verdict {inbound.status.value} in the handshake")
        return _unreconciled(inbound.status, frame, parity_bits), []
    if not isinstance(inbound, wire.Init):
        raise ProtocolError(f"expected Init or Result, got {type(inbound).__name__}")
    if inbound != my_init:
        mismatch = wire.SessionStatus.CONFIG_MISMATCH
        return _unreconciled(mismatch, frame, parity_bits), [wire.Result(mismatch)]

    prefixes: List[bytearray] = []
    history: List[int] = []
    corrected = 0
    round_index = 0
    while True:
        # Kept until the next round's, so the responder finds this round's
        # mapping in round_mapping's memo when it opens the round.
        mapping, prefix, array = _round_prefix(config, round_index, frame.bits)
        prefixes.append(prefix)
        plan = plan_round(config.schedule, round_index, n, tuple(history))
        parities = tuple(_block_parities(array, plan).tolist())
        parity_bits += len(parities)
        inbound = yield [wire.BlockParities(round_index, parities)]

        # The responder starts a round's searches at its entry, at most one
        # per block, and after its flips, at most one per flip and opened
        # round; a bit flips at most once per session, so a round has at
        # most n flips.  A search asks at most one interval per bisection
        # step, at most n.bit_length() of them, with reuse on or off.  An
        # empty query counts as one interval, so queries are bounded too.
        most_answered = (len(parities) + (round_index + 1) * n) * n.bit_length()
        answered = 0
        while isinstance(inbound, wire.ParityQuery):
            if not 0 <= inbound.round_index < len(prefixes):
                raise ProtocolError(
                    f"query references round {inbound.round_index} before it was opened"
                )
            answered += len(inbound.intervals) or 1
            if answered > most_answered:
                raise ProtocolError(
                    f"round {round_index} asks for more than {most_answered} intervals"
                )
            qprefix = prefixes[inbound.round_index]
            entries = []
            for lo, hi in inbound.intervals:
                if not (0 <= lo < hi <= n):
                    raise ProtocolError(f"query interval [{lo}, {hi}) out of range")
                entries.append((lo, hi, qprefix[lo] ^ qprefix[hi]))
            parity_bits += len(entries)
            inbound = yield [wire.ParityAnswer(inbound.round_index, tuple(entries))]

        if not isinstance(inbound, wire.RoundDone) or inbound.round_index != round_index:
            raise ProtocolError(f"expected RoundDone for round {round_index}, got {inbound!r}")
        # An honest responder flips each bit at most once.
        corrected += inbound.corrected
        if corrected > n:
            raise ProtocolError(f"the responder reports {corrected} corrections of {n} bits")
        history.append(inbound.corrected)
        if should_terminate(config.break_condition, tuple(history)):
            break
        round_index += 1

    own_fingerprint = frame_fingerprint(frame, config.seed)
    inbound = yield [wire.Finalize(own_fingerprint)]
    if not isinstance(inbound, wire.Finalize):
        raise ProtocolError(f"expected Finalize, got {type(inbound).__name__}")
    if inbound.fingerprint == own_fingerprint:
        status = wire.SessionStatus.SUCCESS
    else:
        status = wire.SessionStatus.FAILURE
    summary = SessionSummary(status, frame, tuple(history), parity_bits, own_fingerprint)
    return summary, [wire.Result(status)]


# ---------------------------------------------------------------------------
# responder
# ---------------------------------------------------------------------------


def _first_half(known: Dict[Interval, int], lo: int, mid: int, hi: int) -> Optional[int]:
    """The initiator's parity of ``(lo, mid)``, the first half of the stored
    interval ``(lo, hi)``: stored, or derived from ``(lo, hi)`` and a stored
    second half ``(mid, hi)``; ``None`` if neither half is stored.  A pure
    read: it writes nothing."""
    value = known.get((lo, mid))
    if value is not None:
        return value
    second = known.get((mid, hi))
    return None if second is None else known[(lo, hi)] ^ second


class _Round:
    """What the responder keeps of one opened round.

    ``mapping`` takes an original position to its round position; it is
    read-only and may be the initiator's array (see ``round_mapping``).
    ``original`` takes a round position back, through a uint32 ``inverse``
    built on the round's first find (round 0's mapping is the identity and
    needs none; most later rounds of a long frame find nothing).
    ``prefix`` holds the prefix parities of the round's view as a bytearray
    and ``array`` is a writable numpy view over the same bytes: ``parity``
    is two byte reads, and a wave's flips XOR the prefix between pairs of
    flipped positions.  ``known`` maps an interval ``(lo, hi)`` to the
    initiator's parity of it; it starts with the announced block parities,
    and after that only ``learn`` writes it.  Every stored parity is a fact
    about the initiator's frame, whether it crossed the wire (an answer, a
    corrected leaf) or was derived here (a search step's implied second
    half), and any two that disagree are a ``ProtocolError``.
    """

    __slots__ = ("index", "plan", "mapping", "inverse", "prefix", "array", "known")

    def __init__(
        self, config: SessionConfig, plan: RoundPlan, bits: np.ndarray, announced: Iterable[int]
    ):
        self.index = index = plan.round_index
        self.plan = plan
        self.mapping, self.prefix, self.array = _round_prefix(config, index, bits)
        self.inverse: Optional[np.ndarray] = None
        self.known: Dict[Interval, int] = dict(zip(plan.intervals, announced))

    def original(self, pos: int) -> int:
        """The original position at round position ``pos``."""
        if not self.index:
            return pos
        if self.inverse is None:
            # Frames are shorter than 2**32 bits (SessionConfig), so uint32
            # holds every original position.
            sources = np.arange(self.mapping.size, dtype=np.uint32)
            self.inverse = np.empty_like(sources)
            self.inverse[self.mapping] = sources
        return self.inverse.item(pos)

    def parity(self, lo: int, hi: int) -> int:
        return self.prefix[lo] ^ self.prefix[hi]

    def differs(self, block: Interval) -> bool:
        """Whether a block's local parity differs from the announced one."""
        return self.parity(*block) != self.known[block]

    def learn(self, interval: Interval, value: int) -> None:
        """Store a parity, or refuse one that contradicts a stored one."""
        if self.known.setdefault(interval, value) != value:
            raise ProtocolError(
                f"inconsistent peer parities for [{interval[0]}, {interval[1]}) "
                f"of round {self.index}"
            )

    def flip(self, positions: List[int]) -> None:
        """XOR the prefix past each flipped position.

        Two flips cancel past the later one, so the sorted positions pair
        up into one slice per pair (and one to the end for an odd count).
        """
        array = self.array
        bounds = sorted(pos + 1 for pos in positions)
        bounds.append(array.size)
        for start, stop in zip(bounds[::2], bounds[1::2]):
            array[start:stop] ^= 1


class _Search:
    """One block search: the round record ``rnd`` and the ``binary_search``
    ``state`` over the working interval, which starts as the block.

    A search is made only for a block whose parity differs from the
    announced one.  The working interval's parity is always stored in
    ``rnd.known`` (the block's was announced, and each step learns both
    halves through ``_Round.learn``), so the search keeps no copy of it.
    ``state.found`` is the located round position and ``state.disclosed``
    counts the wire parities the search consumed.
    """

    __slots__ = ("rnd", "state")

    def __init__(self, rnd: _Round, block: Interval):
        self.rnd = rnd
        self.state = bisect_search.start(block[0], block[1], rnd.index)

    def advance(self, reuse: bool) -> Optional[Interval]:
        """Step on the first halves the map supplies (``_first_half``, when
        ``reuse`` allows it); return the first half that must cross the
        wire, or ``None`` once the error is located."""
        known = self.rnd.known
        while self.state.found is None:
            lo, hi = self.state.lo, self.state.hi
            # One midpoint per step: the first half is both the map read and
            # the wire query.
            mid = split_point(lo, hi)
            value = _first_half(known, lo, mid, hi) if reuse else None
            if value is None:
                return (lo, mid)
            self._step(lo, mid, hi, value, True)
        return None

    def answer(self, parity: int) -> None:
        """Take one step on the wire parity of the first half that
        ``advance`` returned."""
        lo, hi = self.state.lo, self.state.hi
        self._step(lo, split_point(lo, hi), hi, parity, False)

    def _step(self, lo: int, mid: int, hi: int, value: int, from_reuse: bool) -> None:
        rnd = self.rnd
        rnd.learn((lo, mid), value)
        rnd.learn((mid, hi), rnd.known[(lo, hi)] ^ value)
        local = rnd.prefix[lo] ^ rnd.prefix[mid]
        self.state = bisect_search.step(self.state, local, value, from_reuse=from_reuse)


class _Responder:
    """Responder-side state: one :class:`_Round` record per opened round.

    ``rounds[r]`` holds round ``r``'s plan, mapping (and, once the round
    has a find, its inverse), prefix parities and parity map.  Each block
    search is a :class:`_Search` record that bisects from the block; a
    step reads its first half one level below the working interval
    (``_first_half``) before it asks the wire.  A step, on a wire answer or
    a stored parity, learns the first half and the implied second half
    through ``_Round.learn`` and reads the local first-half parity from the
    prefix.  Every stored parity is a fact about the initiator's frame, and
    any two that disagree are a ``ProtocolError``.

    Each wave's flip pass learns every corrected leaf in round 0's record
    first, so a second flip of any position contradicts the stored leaf
    and is a ``ProtocolError``: a session makes at most n flips, whatever
    the peer says.  With every round ending (see ``run_round``),
    ``ThresholdBreak(m)`` ends a session within n // m + 1 rounds and
    ``QuietRoundsBreak(q)`` within (n + 1) * q rounds.
    """

    def __init__(self, config: SessionConfig, frame: BitFrame):
        self.config = config
        self.n = config.frame_length
        self.bits = frame.bits.copy()
        self.rounds: List[_Round] = []
        self.history: List[int] = []
        self.corrections: List[CorrectionEvent] = []
        self.parity_bits = 0

    # -- the round wave loop -----------------------------------------------------

    def run_round(self, round_index: int, block_msg) -> Iterator:
        """Process one round; a generator to be driven with ``yield from``.

        Yields single-message lists (queries, then the round closure) and
        finally returns the message that arrived after RoundDone.  The
        unfinished searches live in one insertion-ordered map keyed by
        ``(round, block)``; each wave advances every one of them once, in
        queue order, and located or aborted ones leave it before the wave's
        cascade candidates join.  On entry one vectorised comparison of the
        block parities against the announced ones picks the blocks that
        differ, and only these become searches.  The same comparison screens
        the cascade candidates, which become searches unless their key is
        still live; round entry and the candidate loop are the only places a
        search starts.  A wave's flips are applied round by round: one pass
        per opened round over the flipped positions updates its map, queues
        every block that holds a flipped bit, drops the touched searches and
        XORs its prefix.
        """
        if not isinstance(block_msg, wire.BlockParities):
            raise ProtocolError(f"expected BlockParities, got {type(block_msg).__name__}")
        if block_msg.round_index != round_index:
            raise ProtocolError(
                f"expected parities for round {round_index}, got round {block_msg.round_index}"
            )
        plan = plan_round(self.config.schedule, round_index, self.n, tuple(self.history))
        if len(block_msg.parities) != len(plan.intervals):
            raise ProtocolError(
                f"expected {len(plan.intervals)} block parities, got {len(block_msg.parities)}"
            )
        rnd = _Round(self.config, plan, self.bits, block_msg.parities)
        self.rounds.append(rnd)
        self.parity_bits += len(block_msg.parities)

        local = _block_parities(rnd.array, plan)
        differ = np.flatnonzero(local != np.asarray(block_msg.parities)).tolist()
        live: Dict[Tuple[int, Interval], _Search] = {
            (round_index, plan.intervals[i]): _Search(rnd, plan.intervals[i]) for i in differ
        }
        reuse = self.config.parity_reuse
        corrected_this_round = 0
        # A search makes at most one wire step per wave and at most
        # bit_length steps, so it lives at most one bisection lifetime of
        # bit_length waves.  Without a flip no search starts, and every search
        # ends located (a flip) or aborted (by a flip), so a round can go at
        # most one lifetime without one; and a bit flips at most once per
        # session (a second flip's leaf conflicts in _Round.learn).  So every
        # round ends, whatever the peer says; the guard only catches an
        # engine fault.
        longest = max(min(opened.plan.block_size, self.n) for opened in self.rounds)
        quiet_limit = longest.bit_length() + 1
        quiet = 0
        while live:
            quiet += 1
            if quiet > quiet_limit:
                raise ProtocolError(
                    f"internal: round {round_index} ran {quiet_limit} waves without a flip"
                )

            needs: List[Tuple[_Search, Interval]] = []
            for task in live.values():
                need = task.advance(reuse)
                if need is not None:
                    needs.append((task, need))

            # Aggregation only chooses the groups: one query per referenced
            # round in round order, or one per need in need order.
            if self.config.aggregation:
                by_round: Dict[int, List[Tuple[_Search, Interval]]] = {}
                for need in needs:
                    by_round.setdefault(need[0].rnd.index, []).append(need)
                groups = [by_round[r_key] for r_key in sorted(by_round)]
            else:
                groups = [[need] for need in needs]
            for group in groups:
                tasks, intervals = zip(*group)
                r_key = tasks[0].rnd.index
                reply = yield [wire.ParityQuery(r_key, intervals)]
                entries = self._checked_entries(reply, r_key, intervals)
                self.parity_bits += len(entries)
                for task, (_, _, parity) in zip(tasks, entries):
                    task.answer(parity)

            # Finds apply in live (creation) order in both aggregation
            # modes, and a bit located twice is credited to the older
            # search.  The wave's bits flip at once; then one pass per
            # opened round over their positions updates the map, queues
            # every block that holds a flipped bit (the cascade, the
            # current round included), drops the live search on a block
            # whose working interval a flip touched, and XORs the prefix.
            # A round's iteration reads and writes only that round's record
            # and searches, and a flip advances no search, so each test sees
            # what a separate scan after all flips would see.
            originals: List[int] = []
            seen: Set[int] = set()
            for task in live.values():
                found = task.state.found
                if found is None:
                    continue
                original = task.rnd.original(found)
                if original in seen:
                    continue
                seen.add(original)
                originals.append(original)
                self.corrections.append(
                    CorrectionEvent(
                        round_index, task.rnd.index, original, found, task.state.disclosed
                    )
                )
            live = {key: task for key, task in live.items() if task.state.found is None}
            candidates: Set[Tuple[int, Interval]] = set()
            if originals:
                quiet = 0
                self.bits[originals] ^= 1
                values = self.bits[originals].tolist()
                for opened in self.rounds:
                    positions = opened.mapping[originals].tolist()
                    plan = opened.plan
                    for pos, value in zip(positions, values):
                        block = plan.intervals[pos // plan.block_size]
                        opened.learn((pos, pos + 1), value)
                        key = (opened.index, block)
                        candidates.add(key)
                        other = live.get(key)
                        if other is not None and other.state.lo <= pos < other.state.hi:
                            del live[key]
                    opened.flip(positions)
            corrected_this_round += len(originals)

            # A live candidate is a block whose search no flip touched
            # (every flip fell outside its working interval); that search
            # queues the block again in the wave it ends, located or
            # aborted, and the block is checked then.
            for key in sorted(candidates):
                if key not in live and self.rounds[key[0]].differs(key[1]):
                    live[key] = _Search(self.rounds[key[0]], key[1])

        self.history.append(corrected_this_round)
        reply = yield [wire.RoundDone(round_index, corrected_this_round)]
        return reply

    @staticmethod
    def _checked_entries(reply, round_index: int, intervals: Tuple[Interval, ...]):
        if not isinstance(reply, wire.ParityAnswer):
            raise ProtocolError(f"expected ParityAnswer, got {type(reply).__name__}")
        if reply.round_index != round_index:
            raise ProtocolError(
                f"answer references round {reply.round_index}, expected {round_index}"
            )
        if len(reply.entries) != len(intervals):
            raise ProtocolError(
                f"expected {len(intervals)} answer entries, got {len(reply.entries)}"
            )
        for (lo, hi, parity), (want_lo, want_hi) in zip(reply.entries, intervals):
            if (lo, hi) != (want_lo, want_hi):
                raise ProtocolError(
                    f"answer interval [{lo}, {hi}) does not match query [{want_lo}, {want_hi})"
                )
        return reply.entries


def responder_session(config: SessionConfig, frame: BitFrame):
    """Generator for party B; same driving contract as the initiator."""
    if len(frame) != config.frame_length:
        raise ConfigurationError(
            f"frame length {len(frame)} does not match configured {config.frame_length}"
        )
    core = _Responder(config, frame)
    my_init = _init_from_config(config)

    inbound = yield []
    if not isinstance(inbound, wire.Init):
        raise ProtocolError(f"expected Init, got {type(inbound).__name__}")
    if inbound != my_init:
        mismatch = wire.SessionStatus.CONFIG_MISMATCH
        return _unreconciled(mismatch, frame, 0), [wire.Result(mismatch)]
    inbound = yield [my_init]
    if isinstance(inbound, wire.Result):
        # Only the handshake abort may end a session before round 0.
        if inbound.status is not wire.SessionStatus.CONFIG_MISMATCH:
            raise ProtocolError(f"unexpected verdict {inbound.status.value} before round 0")
        return _unreconciled(inbound.status, frame, 0), []

    round_index = 0
    while True:
        inbound = yield from core.run_round(round_index, inbound)
        if should_terminate(config.break_condition, tuple(core.history)):
            break
        round_index += 1

    if not isinstance(inbound, wire.Finalize):
        raise ProtocolError(f"expected Finalize, got {type(inbound).__name__}")
    final_frame = BitFrame(core.bits)
    own_fingerprint = frame_fingerprint(final_frame, config.seed)
    expected = (
        wire.SessionStatus.SUCCESS
        if inbound.fingerprint == own_fingerprint
        else wire.SessionStatus.FAILURE
    )
    inbound = yield [wire.Finalize(own_fingerprint)]
    if not isinstance(inbound, wire.Result):
        raise ProtocolError(f"expected Result, got {type(inbound).__name__}")
    if inbound.status != expected:
        raise ProtocolError(
            f"verdict {inbound.status.value} contradicts fingerprint comparison"
        )
    summary = SessionSummary(
        inbound.status, final_frame, tuple(core.history), core.parity_bits, own_fingerprint,
        tuple(core.corrections),
    )
    return summary, []


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairResult:
    """Both summaries plus the channel they talked over."""

    initiator: SessionSummary
    responder: SessionSummary
    channel: wire.Channel


def _step(generator, message, channel_obj: wire.Channel, direction) -> Optional[SessionSummary]:
    """Deliver ``message`` to a party (``None`` starts it) and send what it
    yields in ``direction``; returns the party's summary once its generator
    has finished (``None`` before)."""
    try:
        outbound = generator.send(message)
        summary = None
    except StopIteration as stop:
        summary, outbound = stop.value
    for out in outbound:
        channel_obj.send(direction, out)
    return summary


# A driver's parties are (generator, outbound direction, inbound direction)
# triples, initiator first; its summaries are a list in the same order.


def _drive_lockstep(
    parties, channel_obj: wire.Channel, timeout: float
) -> List[Optional[SessionSummary]]:
    """Single-step both parties on the calling thread; nothing waits, so
    ``timeout`` goes unused.  Each step hands one message to the first
    party, responder first, that is unfinished and has one pending on its
    inbound lane: the channel is the one record of what is in flight."""
    summaries: List[Optional[SessionSummary]] = [None, None]
    for generator, outbound, _ in parties:
        _step(generator, None, channel_obj, outbound)
    while summaries[0] is None or summaries[1] is None:
        for index in (1, 0):  # responder first
            generator, outbound, inbound = parties[index]
            if summaries[index] is None and channel_obj.pending(inbound):
                break
        else:
            raise ProtocolError("protocol deadlock: no message in flight")
        summaries[index] = _step(generator, channel_obj.recv(inbound), channel_obj, outbound)
    return summaries


def _drive_threaded(
    parties, channel_obj: wire.Channel, timeout: float
) -> List[Optional[SessionSummary]]:
    """Run each party on its own thread.  A session takes as long as it
    takes while both parties are healthy: a stalled party fails within one
    ``timeout`` in ``recv``, and once one has failed, the other is given one
    more ``timeout`` to end before the session is refused."""
    summaries: List[Optional[SessionSummary]] = [None, None]
    failures: List[BaseException] = []
    ended = threading.Semaphore(0)  # released once by each party as it ends

    def worker(index: int) -> None:
        generator, outbound, inbound = parties[index]
        try:
            summary = _step(generator, None, channel_obj, outbound)
            while summary is None:
                message = channel_obj.recv(inbound, timeout=timeout)
                summary = _step(generator, message, channel_obj, outbound)
            summaries[index] = summary
        except BaseException as exc:  # noqa: BLE001 - reported to the caller
            failures.append(exc)
            # Wake the other party at once instead of letting it time out.
            channel_obj.close()
        finally:
            ended.release()

    threads = [threading.Thread(target=worker, args=(index,), daemon=True) for index in (0, 1)]
    for thread in threads:
        thread.start()
    grace = min(max(timeout, 0.0), threading.TIMEOUT_MAX)
    for _ in threads:
        if not ended.acquire(timeout=grace if failures else None):
            raise TransportError("session thread failed to finish in time")
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return summaries


# The session drivers, by name.
DRIVERS = {"lockstep": _drive_lockstep, "threaded": _drive_threaded}


def run_session_pair(
    config_a: SessionConfig,
    config_b: SessionConfig,
    frame_a: BitFrame,
    frame_b: BitFrame,
    *,
    channel_obj: Optional[wire.Channel] = None,
    scheduling: str = "lockstep",
    timeout: float = 30.0,
) -> PairResult:
    """Run a full session between fresh party generators.

    ``scheduling`` names the driver in ``DRIVERS``: "lockstep" single-steps
    both parties on the calling thread; "threaded" gives each its own
    thread.  The half-duplex protocol makes both produce identical
    transcripts.  ``timeout`` bounds each wait of the threaded driver, in
    seconds; it may be infinite, but not NaN, whichever the driver.
    """
    drive = DRIVERS.get(scheduling)
    if drive is None:
        raise ConfigurationError(f"unknown scheduling mode: {scheduling!r}")
    if math.isnan(timeout):
        raise ConfigurationError("timeout must be a number of seconds, got NaN")
    if channel_obj is None:
        channel_obj = wire.Channel()
    a_to_b, b_to_a = wire.Direction.A_TO_B, wire.Direction.B_TO_A
    parties = (
        (initiator_session(config_a, frame_a), a_to_b, b_to_a),
        (responder_session(config_b, frame_b), b_to_a, a_to_b),
    )
    initiator, responder = drive(parties, channel_obj, timeout)
    channel_obj.close()
    return PairResult(initiator, responder, channel_obj)
