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
the inverse), its prefix parities, its parity map (the initiator's parities
it knows, keyed by ``(lo, hi)``) and the positions corrected in each block.
A round's mapping is built once per session: both parties get the same
read-only array from ``round_mapping``, whose memo holds it weakly.  When a
round opens, the responder compares every block's local parity with the
announced one in one vectorised step, and only the blocks that differ
become searches.

An honest parity never changes, since it describes the initiator's fixed
frame; so a wire parity that contradicts a stored wire parity, whichever
round stored it, is a ``ProtocolError``.  Each position therefore flips at
most once per session, which bounds every break rule: at most n flips,
``ThresholdBreak(m)`` ends within n // m + 1 rounds and
``QuietRoundsBreak(q)`` within (n + 1) * q rounds.

Within a round the responder works in "waves".  Each block search is one
generator, written in the protocol's order: probe the regions left by
earlier corrections, then bisect.  Each wave resumes every live search,
which runs as far as stored parities allow and yields the one interval
whose parity must cross the wire; the wave sends those queries, sends each
answer back to its search, then applies the located corrections.  Only a
block with corrected positions walks its error frontier first.  A search
step computes its interval's midpoint once and reads the first half
directly from the parity map, one level below the stored current interval
(stored, or derived from the interval and a stored second half); otherwise
the first half becomes the step's query.  After applying a wire answer a
search pauses until the next wave unless it has located its error, so each
search makes at most one exchange per wave and reads on only after that
wave's flips; the transcript depends on both.  A wave's corrected bits flip
in the frame at once; then one pass per round record over their positions
updates the record's parity map and corrected positions, queues the earlier
rounds' blocks that hold the bits (the cascade), aborts (closes) each live
search whose scope a flip touched and XORs the prefix past the flipped
positions.  A queued block becomes a search only if its parity differs, by
the comparison used at round entry, and no search of it is live; these two
places are the only ones where a search starts, so every search is made for
a block that differs.  The waves are the same regardless of query batching,
and each wave's corrections are credited in the order its searches were
created, so the batched and unbatched modes produce bit-identical
corrections.
"""

from __future__ import annotations

import enum
import math
import threading
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple

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


class Role(enum.Enum):
    INITIATOR = "initiator"
    RESPONDER = "responder"


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
    ``disclosed_bits`` counts the channel parities the search consumed,
    probing included.
    """

    corrected_round: int
    block_round: int
    original_position: int
    block_position: int
    disclosed_bits: int


@dataclass(frozen=True)
class SessionSummary:
    """One party's account of a finished session."""

    role: Role
    status: wire.SessionStatus
    final_frame: BitFrame
    rounds_executed: int
    corrected_total: int
    corrected_history: Tuple[int, ...]
    corrections: Tuple[CorrectionEvent, ...]
    compromised_positions: frozenset
    parity_bits_disclosed: int
    fingerprint: Optional[int]


def _unreconciled(
    role: Role, status: wire.SessionStatus, frame: BitFrame, parity_bits: int
) -> SessionSummary:
    """Summary of a session that ended before any round was reconciled."""
    return SessionSummary(role, status, frame, 0, 0, (), (), frozenset(), parity_bits, None)


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
        return _unreconciled(Role.INITIATOR, inbound.status, frame, parity_bits), []
    if not isinstance(inbound, wire.Init):
        raise ProtocolError(f"expected Init or Result, got {type(inbound).__name__}")
    if inbound != my_init:
        mismatch = wire.SessionStatus.CONFIG_MISMATCH
        return _unreconciled(Role.INITIATOR, mismatch, frame, parity_bits), [wire.Result(mismatch)]

    prefixes: List[bytearray] = []
    history: List[int] = []
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

        while isinstance(inbound, wire.ParityQuery):
            if not 0 <= inbound.round_index < len(prefixes):
                raise ProtocolError(
                    f"query references round {inbound.round_index} before it was opened"
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
    summary = SessionSummary(
        Role.INITIATOR,
        status,
        frame,
        len(history),
        sum(history),
        tuple(history),
        (),
        frozenset(),
        parity_bits,
        own_fingerprint,
    )
    return summary, [wire.Result(status)]


# ---------------------------------------------------------------------------
# responder
# ---------------------------------------------------------------------------


def error_frontier(
    block: Interval, corrected: Iterable[int], on_wire: Callable[[Interval], bool]
) -> Tuple[Interval, ...]:
    """Where follow-up searches of ``block`` start after corrections.

    For each corrected position, takes the deepest sibling on the split
    lattice path from ``block`` to the position whose parity did not cross
    the wire (``on_wire`` is false), then keeps the minimal intervals,
    sorted: ``multi_error_frontier`` on the equivalent tree.
    """
    regions: Set[Interval] = set()
    for position in set(corrected):
        lo, hi = block
        deepest = None
        while hi - lo > 1:
            mid = split_point(lo, hi)
            if position < mid:
                sibling, hi = (mid, hi), mid
            else:
                sibling, lo = (lo, mid), mid
            if not on_wire(sibling):
                deepest = sibling
        if deepest is not None:
            regions.add(deepest)
    # Intervals on one split lattice are nested or disjoint; keep the deep ones.
    minimal = (
        r for r in regions if not any(o != r and r[0] <= o[0] and o[1] <= r[1] for o in regions)
    )
    return tuple(sorted(minimal))


def _first_half(
    known: Dict[Interval, Tuple[int, bool]], lo: int, mid: int, hi: int
) -> Optional[int]:
    """The initiator's parity of ``(lo, mid)``, the first half of the stored
    interval ``(lo, hi)``: stored, or derived from ``(lo, hi)`` and a stored
    second half ``(mid, hi)`` and memoized; ``None`` (nothing written) if
    neither half is stored."""
    entry = known.get((lo, mid))
    if entry is not None:
        return entry[0]
    entry = known.get((mid, hi))
    if entry is None:
        return None
    value = known[(lo, hi)][0] ^ entry[0]
    known[(lo, mid)] = (value, False)
    return value


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
    flipped positions.  ``known`` maps an interval ``(lo, hi)`` to
    ``(value, wire)``: the initiator's parity, and whether it crossed the
    wire (block announcements, answers, corrected leaves) or was derived
    here; it starts with the announced block parities.  Every disclosed
    parity describes the initiator's fixed frame, so an honest one never
    changes: ``learn`` refuses a wire value that differs from a stored wire
    value, whichever round stored it, and a wire value replaces a derived
    one.  A derived value is written only where nothing is stored.
    ``corrected`` maps a block to its positions flipped.
    """

    __slots__ = ("index", "plan", "mapping", "inverse", "prefix", "array", "known", "corrected")

    def __init__(
        self, config: SessionConfig, plan: RoundPlan, bits: np.ndarray, announced: Iterable[int]
    ):
        self.index = index = plan.round_index
        self.plan = plan
        self.mapping, self.prefix, self.array = _round_prefix(config, index, bits)
        self.inverse: Optional[np.ndarray] = None
        self.known: Dict[Interval, Tuple[int, bool]] = {
            block: (bit, True) for block, bit in zip(plan.intervals, announced)
        }
        self.corrected: Dict[Interval, Set[int]] = {}

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
        return self.parity(*block) != self.known[block][0]

    def on_wire(self, interval: Interval) -> bool:
        return self.known.get(interval, (0, False))[1]

    def learn(self, interval: Interval, value: int) -> None:
        """Store a parity that crossed the wire, or refuse one that
        contradicts a stored wire parity."""
        entry = self.known.get(interval)
        if entry is not None and entry[1] and entry[0] != value:
            raise ProtocolError(
                f"inconsistent peer parities for [{interval[0]}, {interval[1]}) "
                f"of round {self.index}"
            )
        self.known[interval] = (value, True)

    def resolve(self, top: Interval, interval: Interval) -> Optional[int]:
        """Look up or derive the initiator's parity of ``interval``.

        ``top`` is a lattice ancestor of ``interval`` (or the interval itself)
        whose value is stored.  One pass walks the split path from ``top``
        down to ``interval`` and starts from the deepest stored node on it;
        each level below XORs in its stored sibling and is memoized.
        Returns ``None`` at the first sibling that is not stored, or when
        ``interval`` is not on ``top``'s lattice.
        """
        known = self.known
        entry = known.get(interval)
        if entry is not None:
            return entry[0]
        value = known[top][0]
        # (node, sibling) for each level below the deepest stored node.
        below: List[Tuple[Interval, Interval]] = []
        lo, hi = top
        while (lo, hi) != interval:
            if hi - lo <= 1:
                return None
            mid = split_point(lo, hi)
            if interval[1] <= mid:
                node, sibling = (lo, mid), (mid, hi)
            elif interval[0] >= mid:
                node, sibling = (mid, hi), (lo, mid)
            else:
                return None  # interval straddles the split: off-lattice
            lo, hi = node
            entry = known.get(node)
            if entry is None:
                below.append((node, sibling))
            else:
                value = entry[0]
                below.clear()
        for node, sibling in below:
            entry = known.get(sibling)
            if entry is None:
                return None
            value ^= entry[0]
            known[node] = (value, False)
        return value

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
    """What the wave loop reads of one block search.

    ``steps`` is the search itself, a :meth:`_Responder._search` generator
    over ``block`` of the round record ``rnd``; a search is made only for a
    block whose parity differs from the announced one.  ``scope`` is what a
    flip must touch to abort the search: the block while probing, then the
    working interval (the search state, whose first two fields are its
    bounds), and ``None`` once the search has ended, located or aborted.
    ``found`` is the located round position and ``disclosed`` the wire
    parities the search consumed, probing included.
    """

    __slots__ = ("rnd", "block", "scope", "found", "disclosed", "steps")

    def __init__(self, responder: _Responder, round_index: int, block: Interval):
        self.rnd = responder.rounds[round_index]
        self.block = block
        self.scope = block
        self.found: Optional[int] = None
        self.disclosed = 0
        self.steps = responder._search(self)


class _Responder:
    """Responder-side state: one :class:`_Round` record per opened round.

    ``rounds[r]`` holds round ``r``'s plan, mapping (and, once the round
    has a find, its inverse), prefix parities, parity map and corrected
    positions.  A frontier probe looks up or derives its remote parity in
    one pass down from the block (``_Round.resolve``); a search step reads
    its first half one level below the current interval (``_first_half``).
    Each block search is one generator (``_search``); every wire parity is
    stored through ``_Round.learn`` and then sent to its search, which reads
    the local first-half parity from the prefix and stores the implied
    second half.

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

    # -- block searches ------------------------------------------------------

    def _search(self, task: _Search) -> Iterator[Optional[Interval]]:
        """One block search: probe the frontier, then bisect.

        The search is made for a block that differs and takes its first step
        before any flip, so the block still differs.  Only a block with
        corrected positions has a frontier to probe.  Each bisection step
        reads its first half from the map with ``_first_half`` before asking
        the wire.  ``run_round`` resumes it once per wave.  It yields each
        interval whose remote parity must cross the wire and is sent that
        parity back by the wave loop once ``_Round.learn`` has stored it.
        The step after a wire answer waits for the next wave: unless the
        answer located the error, the search pauses with a bare ``yield``, so
        it reads on only after the wave's flips.
        """
        rnd, block = task.rnd, task.block
        known = rnd.known
        interval, remote = block, known[block][0]
        answered = False
        reuse = self.config.parity_reuse
        corrected = rnd.corrected.get(block)
        if reuse and corrected:
            # The first frontier region that disagrees is searched; if none
            # does, the whole block, which differs.
            for region in error_frontier(block, corrected, rnd.on_wire):
                if answered:
                    yield
                value = rnd.resolve(block, region)
                answered = value is None
                if answered:
                    value = yield region
                    task.disclosed += 1
                if rnd.parity(*region) != value:
                    interval, remote = region, value
                    break
        # One midpoint per step: the first half is both the map read and the
        # wire query.
        state = bisect_search.start(interval[0], interval[1], rnd.index)
        prefix = rnd.prefix
        while state.found is None:
            task.scope = state
            if answered:
                yield
            lo, hi = state.lo, state.hi
            mid = split_point(lo, hi)
            value = _first_half(known, lo, mid, hi) if reuse else None
            answered = value is None
            if answered:
                value = yield (lo, mid)
            local = prefix[lo] ^ prefix[mid]
            state = bisect_search.step(state, local, value, from_reuse=not answered)
            # The second half's value is implied, and never replaces a value
            # learned on the wire.
            second = remote ^ value
            known.setdefault((mid, hi), (second, False))
            remote = value if state.hi == mid else second
        task.scope = None
        task.found = state.found
        task.disclosed += state.disclosed

    # -- the round wave loop -----------------------------------------------------

    def run_round(self, round_index: int, block_msg) -> Iterator:
        """Process one round; a generator to be driven with ``yield from``.

        Yields single-message lists (queries, then the round closure) and
        finally returns the message that arrived after RoundDone.  The
        unfinished searches live in one insertion-ordered map keyed by
        ``(round, block)``; each wave advances them in queue order, and
        finished ones leave it before the wave's cascade candidates join.
        On entry one vectorised comparison of the block parities against the
        announced ones picks the blocks that differ, and only these become
        searches.  The same comparison screens the cascade candidates, which
        become searches unless their key is still live; round entry and the
        candidate loop are the only places a search starts.  A wave's flips
        are applied round by round: one pass per opened round over the
        flipped positions updates its map, queues the cascade, aborts the
        touched searches and XORs its prefix.
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
            (round_index, plan.intervals[i]): _Search(self, round_index, plan.intervals[i])
            for i in differ
        }
        corrected_this_round = 0
        # A search lives at most one wave per frontier region (no more than
        # its block's length), one per search step and one more.  Without a
        # flip no search starts, and every search ends located (a flip) or
        # aborted (by a flip), so a round can go at most one lifetime without
        # one; and a bit flips at most once per session (a second flip's leaf
        # conflicts in _Round.learn).  So every round ends, whatever the peer
        # says; the guard only catches an engine fault.
        longest = max(min(opened.plan.block_size, self.n) for opened in self.rounds)
        quiet_limit = longest + longest.bit_length() + 1
        quiet = 0
        try:
            while live:
                quiet += 1
                if quiet > quiet_limit:
                    raise ProtocolError(
                        f"internal: round {round_index} ran {quiet_limit} waves without a flip"
                    )

                needs: List[Tuple[_Search, Interval]] = []
                for task in live.values():
                    need = next(task.steps, None)
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
                    for task, interval, (_, _, parity) in zip(tasks, intervals, entries):
                        task.rnd.learn(interval, parity)
                        try:
                            task.steps.send(parity)
                        except StopIteration:  # the answer located the error
                            pass

                # Finds apply in live (creation) order in both aggregation
                # modes, and a bit located twice is credited to the older
                # search.  The wave's bits flip at once; then one pass per
                # opened round over their positions updates the map, queues
                # earlier rounds' blocks (the cascade), aborts the live search
                # on a block whose scope a flip touched, and XORs the prefix.
                # A round's iteration reads and writes only that round's record
                # and searches, and a flip advances no search, so each test sees
                # what a separate scan after all flips would see.
                originals: List[int] = []
                seen: Set[int] = set()
                for task in live.values():
                    if task.found is None:
                        continue
                    original = task.rnd.original(task.found)
                    if original in seen:
                        continue
                    seen.add(original)
                    originals.append(original)
                    self.corrections.append(
                        CorrectionEvent(
                            round_index, task.rnd.index, original, task.found, task.disclosed
                        )
                    )
                candidates: Set[Tuple[int, Interval]] = set()
                if originals:
                    quiet = 0
                    self.bits[originals] ^= 1
                    values = self.bits[originals].tolist()
                    for opened in self.rounds:
                        positions = opened.mapping[originals].tolist()
                        plan = opened.plan
                        corrected = opened.corrected
                        cascade = opened.index < round_index
                        for pos, value in zip(positions, values):
                            block = plan.intervals[pos // plan.block_size]
                            corrected.setdefault(block, set()).add(pos)
                            opened.learn((pos, pos + 1), value)
                            key = (opened.index, block)
                            if cascade:
                                candidates.add(key)
                            other = live.get(key)
                            scope = None if other is None else other.scope
                            if scope is not None and scope[0] <= pos < scope[1]:
                                # A suspended search's frame holds its record:
                                # left open, that cycle keeps this responder
                                # alive until the cyclic collector runs.
                                other.steps.close()
                                other.scope = None
                                candidates.add(key)
                        opened.flip(positions)
                corrected_this_round += len(originals)

                live = {key: task for key, task in live.items() if task.scope is not None}
                # A live candidate is an earlier round's block (a current-round
                # block is queued only by aborting its search); its search
                # queues that block again in the wave it ends, located or
                # aborted, and the block is checked then.
                for key in sorted(candidates):
                    if key not in live and self.rounds[key[0]].differs(key[1]):
                        live[key] = _Search(self, *key)
        finally:
            # An error can leave searches suspended: close them, as an abort does.
            for task in live.values():
                task.steps.close()

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
        return _unreconciled(Role.RESPONDER, mismatch, frame, 0), [wire.Result(mismatch)]
    inbound = yield [my_init]
    if isinstance(inbound, wire.Result):
        # Only the handshake abort may end a session before round 0.
        if inbound.status is not wire.SessionStatus.CONFIG_MISMATCH:
            raise ProtocolError(f"unexpected verdict {inbound.status.value} before round 0")
        return _unreconciled(Role.RESPONDER, inbound.status, frame, 0), []

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
        Role.RESPONDER,
        inbound.status,
        final_frame,
        len(core.history),
        sum(core.history),
        tuple(core.history),
        tuple(core.corrections),
        frozenset(event.original_position for event in core.corrections),
        core.parity_bits,
        own_fingerprint,
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


def _step(
    generator, message, channel_obj: wire.Channel, direction
) -> Tuple[Optional[SessionSummary], int]:
    """Deliver ``message`` to a party (``None`` starts it) and send what it
    yields in ``direction``; returns the party's summary once its generator
    has finished (``None`` before), and how many messages it sent."""
    try:
        outbound = generator.send(message)
        summary = None
    except StopIteration as stop:
        summary, outbound = stop.value
    for out in outbound:
        channel_obj.send(direction, out)
    return summary, len(outbound)


# A driver's parties are (generator, outbound direction, inbound direction)
# triples, initiator first; its summaries are a list in the same order.


def _drive_lockstep(
    parties, channel_obj: wire.Channel, timeout: float
) -> List[Optional[SessionSummary]]:
    """Single-step both parties on the calling thread; nothing waits, so
    ``timeout`` goes unused.  The driver counts the messages in flight to
    each party itself, from what the other party sent."""
    summaries: List[Optional[SessionSummary]] = [None, None]
    in_flight = [0, 0]
    for index, (generator, outbound, _) in enumerate(parties):
        _, in_flight[1 - index] = _step(generator, None, channel_obj, outbound)

    while summaries[0] is None or summaries[1] is None:
        progressed = False
        for index in (1, 0):  # responder first
            if summaries[index] is not None or not in_flight[index]:
                continue
            generator, outbound, inbound = parties[index]
            in_flight[index] -= 1
            message = channel_obj.recv(inbound)
            summaries[index], sent = _step(generator, message, channel_obj, outbound)
            in_flight[1 - index] += sent
            progressed = True
        if not progressed:
            raise ProtocolError("protocol deadlock: no message in flight")
    return summaries


def _drive_threaded(
    parties, channel_obj: wire.Channel, timeout: float
) -> List[Optional[SessionSummary]]:
    summaries: List[Optional[SessionSummary]] = [None, None]
    failures: List[BaseException] = []

    def worker(index: int) -> None:
        generator, outbound, inbound = parties[index]
        try:
            summary, _ = _step(generator, None, channel_obj, outbound)
            while summary is None:
                message = channel_obj.recv(inbound, timeout=timeout)
                summary, _ = _step(generator, message, channel_obj, outbound)
            summaries[index] = summary
        except BaseException as exc:  # noqa: BLE001 - reported to the caller
            failures.append(exc)
            # Wake the other party at once instead of letting it time out.
            channel_obj.close()

    threads = [threading.Thread(target=worker, args=(index,), daemon=True) for index in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout * 4)
        if thread.is_alive():
            raise TransportError("session thread failed to finish in time")
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
    transcripts.
    """
    drive = DRIVERS.get(scheduling)
    if drive is None:
        raise ConfigurationError(f"unknown scheduling mode: {scheduling!r}")
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
