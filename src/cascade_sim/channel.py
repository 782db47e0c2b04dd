"""Authenticated classical channel: messages, wire codec, transcript, taps.

Everything both parties exchange travels as one of the dataclasses below.
The codec is a fixed big-endian binary layout (schema version 1) so that a
transcript is byte-reproducible across runs and platforms:

    Init          0x01  frame_length u32, permutation u8, schedule u8 + params,
                        break u8 + param u32, seed u64
    BlockParities 0x02  round u32, count u32, parity bytes (one per block)
    ParityQuery   0x03  round u32, count u32, (lo u32, hi u32) per interval
    ParityAnswer  0x04  round u32, count u32, (lo u32, hi u32, parity u8)
    RoundDone     0x05  round u32, corrected u32
    Finalize      0x06  fingerprint u64
    Result        0x07  status u8

Schedule parameters ride as f64 (estimated error rate) plus u32 (growth
factor) for the geometric variant, or f64 alone for the adaptive variant.

Each field has exactly one encoding, and the encoder is the validity
check: it accepts exactly the messages that decode back equal (bit
parities, in-range integers, a 64-bit seed, known kinds, tuples where the
dataclasses say tuples).  So a sender encodes each message once, and the
receiver gets the sent message itself; nothing decodes in transit.

The channel itself is a pair of FIFO lanes (C-level queues) plus an
append-only transcript.  Each direction carries its own gapless sequence
counter; observers ("taps", e.g. the eavesdropper accountant) see every
message in transit order.  Each transcript entry keeps the bytes its
message was sent as, and a transcript is framed from those bytes.
"""

from __future__ import annotations

import enum
import queue
import struct
import threading
from dataclasses import dataclass, field
from itertools import starmap
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .errors import ConfigurationError, DecodeError, TransportError
from .schedule import (
    BreakCondition,
    DynamicSchedule,
    FixedRoundsBreak,
    QuietRoundsBreak,
    ScheduleConfig,
    StaticSchedule,
    ThresholdBreak,
)

WIRE_VERSION = 1
TRANSCRIPT_MAGIC = b"CSCT"
_RECORD_HEADER = struct.Struct(">BII")  # direction, sequence, payload length

Interval = Tuple[int, int]


class SessionStatus(enum.Enum):
    """Terminal outcome of a reconciliation session."""

    SUCCESS = "success"
    FAILURE = "failure"
    CONFIG_MISMATCH = "config_mismatch"


class Direction(enum.Enum):
    """Which party is sending.  A is the initiator, B the responder."""

    A_TO_B = "a->b"
    B_TO_A = "b->a"

    @property
    def wire_byte(self) -> int:
        return 0 if self is Direction.A_TO_B else 1


# ---------------------------------------------------------------------------
# message types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Init:
    """Opening handshake; both sides must present identical parameters."""

    frame_length: int
    permutation_kind: str  # "shuffle" | "lcg"
    schedule: ScheduleConfig
    break_condition: BreakCondition
    seed: int


@dataclass(frozen=True)
class BlockParities:
    """Initiator's per-block parities for one round, in block order."""

    round_index: int
    parities: Tuple[int, ...]


@dataclass(frozen=True)
class ParityQuery:
    """Responder asks for interval parities in one round's coordinates."""

    round_index: int
    intervals: Tuple[Interval, ...]


@dataclass(frozen=True)
class ParityAnswer:
    """Initiator's parities for the queried intervals, same order."""

    round_index: int
    entries: Tuple[Tuple[int, int, int], ...]  # (lo, hi, parity)


@dataclass(frozen=True)
class RoundDone:
    """Responder closes a round and reports how many bits it flipped."""

    round_index: int
    corrected: int


@dataclass(frozen=True)
class Finalize:
    """A party's frame fingerprint for the verification handshake."""

    fingerprint: int


@dataclass(frozen=True)
class Result:
    """Initiator's final verdict (also used to abort on config mismatch)."""

    status: SessionStatus


Message = Union[Init, BlockParities, ParityQuery, ParityAnswer, RoundDone, Finalize, Result]

_PERMUTATION_BYTES = {"shuffle": 0, "lcg": 1}
_PERMUTATION_NAMES = {v: k for k, v in _PERMUTATION_BYTES.items()}
# A status's wire byte is its index here; a tuple lookup hashes no enum.
_STATUSES = (SessionStatus.SUCCESS, SessionStatus.FAILURE, SessionStatus.CONFIG_MISMATCH)


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------

# One precompiled layout per message shape; a leading B is the type byte.
_INIT_STATIC = struct.Struct(">BIBBdIBIQ")  # ..., schedule 0, estimate, k, break, seed
_INIT_DYNAMIC = struct.Struct(">BIBBdBIQ")  # ..., schedule 1, estimate, break, seed
_COUNTED_HEADER = struct.Struct(">BII")  # type, round, entry count
_INTERVAL = struct.Struct(">II")
_ANSWER_ENTRY = struct.Struct(">IIB")
_ROUND_DONE = struct.Struct(">BII")
_FINALIZE = struct.Struct(">BQ")
_RESULT = struct.Struct(">BB")
_NOT_BITS = bytes(range(2))  # translate() deletes these; anything left is not a bit
_ONLY_TUPLES = frozenset((tuple,))


def _require_tuples(name: str, value, nested: bool) -> None:
    """Containers must be tuples (of tuples), or they would not decode back equal."""
    if type(value) is not tuple or (nested and not set(map(type, value)) <= _ONLY_TUPLES):
        raise DecodeError(f"{name} must be a tuple{' of tuples' if nested else ''}")


def _break_fields(condition: BreakCondition) -> Tuple[int, int]:
    if type(condition) is FixedRoundsBreak:
        return 0, condition.total_rounds
    if type(condition) is QuietRoundsBreak:
        return 1, condition.quiet_rounds
    if type(condition) is ThresholdBreak:
        return 2, condition.min_corrected
    raise DecodeError(f"unknown break variant: {type(condition).__name__}")


def _encode_init(message: Init) -> bytes:
    kind = _PERMUTATION_BYTES.get(message.permutation_kind)
    if kind is None:
        raise DecodeError(f"unknown permutation kind: {message.permutation_kind!r}")
    schedule = message.schedule
    if type(schedule) is StaticSchedule:
        layout, fields = _INIT_STATIC, (0, schedule.qber_estimate, schedule.k)
    elif type(schedule) is DynamicSchedule:
        layout, fields = _INIT_DYNAMIC, (1, schedule.qber_estimate)
    else:
        raise DecodeError(f"unknown schedule variant: {type(schedule).__name__}")
    # An estimate that is not a float (a Fraction, say) would read back unequal.
    if float(schedule.qber_estimate) != schedule.qber_estimate:
        raise DecodeError(f"schedule estimate {schedule.qber_estimate!r} is not an f64")
    condition = _break_fields(message.break_condition)
    return layout.pack(1, message.frame_length, kind, *fields, *condition, message.seed)


def _encode_block_parities(message: BlockParities) -> bytes:
    _require_tuples("block_parities.parities", message.parities, nested=False)
    bits = bytes(message.parities)
    if bits.translate(None, _NOT_BITS):
        i = next(i for i, bit in enumerate(bits) if bit > 1)
        raise DecodeError(f"block_parities.parities[{i}] is not a bit: {bits[i]}")
    return _COUNTED_HEADER.pack(2, message.round_index, len(bits)) + bits


def _encode_parity_query(message: ParityQuery) -> bytes:
    intervals = message.intervals
    _require_tuples("parity_query.intervals", intervals, nested=True)
    body = b"".join(starmap(_INTERVAL.pack, intervals))
    return _COUNTED_HEADER.pack(3, message.round_index, len(intervals)) + body


def _encode_parity_answer(message: ParityAnswer) -> bytes:
    entries = message.entries
    _require_tuples("parity_answer.entries", entries, nested=True)
    body = b"".join(starmap(_ANSWER_ENTRY.pack, entries))
    parities = body[_INTERVAL.size :: _ANSWER_ENTRY.size]
    if parities.translate(None, _NOT_BITS):
        i = next(i for i, bit in enumerate(parities) if bit > 1)
        raise DecodeError(f"parity_answer.entries[{i}] parity is not a bit: {parities[i]}")
    return _COUNTED_HEADER.pack(4, message.round_index, len(entries)) + body


def _encode_result(message: Result) -> bytes:
    if type(message.status) is not SessionStatus:
        raise DecodeError(f"unknown status: {message.status!r}")
    return _RESULT.pack(7, _STATUSES.index(message.status))


_ENCODERS = {
    Init: _encode_init,
    BlockParities: _encode_block_parities,
    ParityQuery: _encode_parity_query,
    ParityAnswer: _encode_parity_answer,
    RoundDone: lambda message: _ROUND_DONE.pack(5, message.round_index, message.corrected),
    Finalize: lambda message: _FINALIZE.pack(6, message.fingerprint),
    Result: _encode_result,
}


def encode_message(message: Message) -> bytes:
    """Serialize one message to its schema-1 byte string.

    The encoder is the validity check: it accepts exactly the messages that
    decode back equal.  Anything else (a field that does not fit its wire
    type, a parity that is not a bit, a list where a tuple belongs) raises
    ``DecodeError`` naming the message, so only ``DecodeError`` leaves the
    codec.
    """
    encoder = _ENCODERS.get(type(message))
    if encoder is None:
        raise DecodeError(f"unknown message type: {type(message).__name__}")
    try:
        return encoder(message)
    except DecodeError:
        raise
    except (struct.error, ValueError, TypeError, KeyError) as exc:
        raise DecodeError(f"cannot encode {type(message).__name__}: {exc}") from exc


class _Reader:
    """Cursor over a byte payload that names the field on underrun."""

    def __init__(self, payload: bytes):
        self._payload = payload
        self._offset = 0

    def take(self, fmt: str, field_name: str):
        size = struct.calcsize(fmt)
        if self._offset + size > len(self._payload):
            raise DecodeError(f"truncated message: missing field {field_name!r}")
        values = struct.unpack_from(fmt, self._payload, self._offset)
        self._offset += size
        return values if len(values) > 1 else values[0]

    def finish(self) -> None:
        if self._offset != len(self._payload):
            extra = len(self._payload) - self._offset
            raise DecodeError(f"trailing garbage: {extra} unconsumed bytes")


def _decode_schedule(reader: _Reader) -> ScheduleConfig:
    variant = reader.take(">B", "schedule.variant")
    try:
        if variant == 0:
            estimate, k = reader.take(">dI", "schedule.static")
            return StaticSchedule(estimate, k)
        if variant == 1:
            estimate = reader.take(">d", "schedule.dynamic")
            return DynamicSchedule(estimate)
    except ConfigurationError as exc:
        raise DecodeError(f"invalid schedule: {exc}") from exc
    raise DecodeError(f"unknown schedule variant byte: {variant}")


def _decode_break(reader: _Reader) -> BreakCondition:
    variant = reader.take(">B", "break.variant")
    value = reader.take(">I", "break.parameter")
    try:
        if variant == 0:
            return FixedRoundsBreak(value)
        if variant == 1:
            return QuietRoundsBreak(value)
        if variant == 2:
            return ThresholdBreak(value)
    except ConfigurationError as exc:
        raise DecodeError(f"invalid break.parameter: {exc}") from exc
    raise DecodeError(f"unknown break variant byte: {variant}")


def decode_message(payload: bytes) -> Message:
    """Parse one schema-1 byte string back into a message."""
    reader = _Reader(payload)
    type_byte = reader.take(">B", "type")
    if type_byte == 1:
        frame_length, kind_byte = reader.take(">IB", "init.header")
        kind = _PERMUTATION_NAMES.get(kind_byte)
        if kind is None:
            raise DecodeError(f"unknown permutation byte: {kind_byte}")
        schedule = _decode_schedule(reader)
        condition = _decode_break(reader)
        seed = reader.take(">Q", "init.seed")
        reader.finish()
        return Init(frame_length, kind, schedule, condition, seed)
    if type_byte == 2:
        round_index, count = reader.take(">II", "block_parities.header")
        parities = []
        for i in range(count):
            bit = reader.take(">B", f"block_parities.parities[{i}]")
            if bit not in (0, 1):
                raise DecodeError(f"block_parities.parities[{i}] is not a bit: {bit}")
            parities.append(bit)
        reader.finish()
        return BlockParities(round_index, tuple(parities))
    if type_byte == 3:
        round_index, count = reader.take(">II", "parity_query.header")
        intervals = []
        for i in range(count):
            lo, hi = reader.take(">II", f"parity_query.intervals[{i}]")
            intervals.append((lo, hi))
        reader.finish()
        return ParityQuery(round_index, tuple(intervals))
    if type_byte == 4:
        round_index, count = reader.take(">II", "parity_answer.header")
        entries = []
        for i in range(count):
            lo, hi, parity = reader.take(">IIB", f"parity_answer.entries[{i}]")
            if parity not in (0, 1):
                raise DecodeError(f"parity_answer.entries[{i}] parity is not a bit: {parity}")
            entries.append((lo, hi, parity))
        reader.finish()
        return ParityAnswer(round_index, tuple(entries))
    if type_byte == 5:
        round_index, corrected = reader.take(">II", "round_done.body")
        reader.finish()
        return RoundDone(round_index, corrected)
    if type_byte == 6:
        fingerprint = reader.take(">Q", "finalize.fingerprint")
        reader.finish()
        return Finalize(fingerprint)
    if type_byte == 7:
        status_byte = reader.take(">B", "result.status")
        if status_byte >= len(_STATUSES):
            raise DecodeError(f"unknown status byte: {status_byte}")
        reader.finish()
        return Result(_STATUSES[status_byte])
    raise DecodeError(f"unknown message type byte: {type_byte}")


def message_parity_bits(message: Message) -> int:
    """Parity bits an eavesdropper learns from one message."""
    if isinstance(message, BlockParities):
        return len(message.parities)
    if isinstance(message, ParityAnswer):
        return len(message.entries)
    return 0


# ---------------------------------------------------------------------------
# transcript + channel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TranscriptEntry:
    """One message as it crossed the channel, with its encoded bytes.

    ``payload`` is ``encode_message(message)``: the channel and the
    transcript reader pass the bytes they already hold, and an entry built
    without them encodes its message once here.  Equality and hashing
    ignore it.
    """

    direction: Direction
    sequence: int
    message: Message
    payload: Optional[bytes] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.payload is None:
            object.__setattr__(self, "payload", encode_message(self.message))


class EveTap:
    """Passive observer that accounts for everything visible in transit."""

    def __init__(self) -> None:
        self.messages_seen = 0
        self.parity_bits_seen = 0
        self.entries: List[TranscriptEntry] = []

    def observe(self, entry: TranscriptEntry) -> None:
        self.messages_seen += 1
        self.parity_bits_seen += message_parity_bits(entry.message)
        self.entries.append(entry)


_A_TO_B = Direction.A_TO_B
_B_TO_A = Direction.B_TO_A
_CLOSED = object()  # the close marker that ends each lane


def _lane_index(direction: Direction) -> int:
    """0 for a->b, 1 for b->a; an identity test, so no enum is hashed."""
    if direction is _A_TO_B:
        return 0
    if direction is _B_TO_A:
        return 1
    raise TransportError(f"unknown direction: {direction!r}")


class Channel:
    """Two one-way FIFO lanes with a shared, ordered transcript.

    ``send``/``recv`` are thread-safe; per-direction sequence numbers are
    gapless and the transcript preserves global send order.  ``close`` puts
    a marker behind each lane's queued messages: they are still delivered,
    and every receive after them, blocked or not, raises.
    """

    def __init__(self, taps: Sequence[EveTap] = ()):
        self._lock = threading.Lock()
        # Indexed by _lane_index: a->b, then b->a.
        self._lanes = (queue.SimpleQueue(), queue.SimpleQueue())
        self._sequences = [0, 0]
        self._transcript: List[TranscriptEntry] = []
        self._taps = list(taps)
        self._closed = False

    def send(self, direction: Direction, message: Message) -> None:
        # Encoding is the validity check, so a malformed message fails here
        # and the receiver can take the sent message itself.
        payload = encode_message(message)
        index = _lane_index(direction)
        with self._lock:
            if self._closed:
                raise TransportError("channel is closed")
            sequence = self._sequences[index]
            self._sequences[index] = sequence + 1
            entry = TranscriptEntry(direction, sequence, message, payload)
            self._transcript.append(entry)
            for tap in self._taps:
                tap.observe(entry)
            self._lanes[index].put(message)

    def recv(self, direction: Direction, timeout: Optional[float] = None) -> Message:
        """Take the next message; wait up to ``timeout`` seconds if given."""
        lane = self._lanes[_lane_index(direction)]
        try:
            if timeout is None:
                message = lane.get_nowait()
            else:  # a negative timeout waits for nothing, as 0 does
                message = lane.get(timeout=max(timeout, 0.0))
        except queue.Empty:
            raise TransportError(f"no message pending in direction {direction.value}") from None
        if message is _CLOSED:
            lane.put(_CLOSED)  # leave it for the next receiver
            raise TransportError("channel is closed")
        return message

    def pending(self, direction: Direction) -> int:
        """Messages queued in ``direction``; the close marker is not one."""
        lane = self._lanes[_lane_index(direction)]
        with self._lock:
            # Nothing queues behind the marker, so while a receiver holds it
            # the lane is empty and the difference is clamped to 0.
            return max(0, lane.qsize() - self._closed)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for lane in self._lanes:
                lane.put(_CLOSED)

    @property
    def transcript(self) -> Tuple[TranscriptEntry, ...]:
        with self._lock:
            return tuple(self._transcript)

    def transcript_bytes(self) -> bytes:
        """The whole conversation as one canonical byte string."""
        return _frame_transcript(self.transcript)


@dataclass(frozen=True)
class LeakageReport:
    """Disclosure accounting computed purely from a transcript."""

    parity_bits_disclosed: int
    messages_a_to_b: int
    messages_b_to_a: int
    per_round_parity_bits: Tuple[Tuple[int, int], ...]

    @property
    def messages_total(self) -> int:
        return self.messages_a_to_b + self.messages_b_to_a


def leakage_report(transcript: Iterable[TranscriptEntry]) -> LeakageReport:
    """Sum parity disclosures and message counts from transcript entries."""
    bits = 0
    a_to_b = 0
    b_to_a = 0
    per_round: dict = {}
    for entry in transcript:
        if entry.direction is Direction.A_TO_B:
            a_to_b += 1
        else:
            b_to_a += 1
        count = message_parity_bits(entry.message)
        bits += count
        if count:
            round_index = entry.message.round_index  # type: ignore[union-attr]
            per_round[round_index] = per_round.get(round_index, 0) + count
    rounds = tuple(sorted(per_round.items()))
    return LeakageReport(bits, a_to_b, b_to_a, rounds)


# ---------------------------------------------------------------------------
# transcript files
# ---------------------------------------------------------------------------


def _frame_transcript(transcript: Iterable[TranscriptEntry]) -> bytes:
    """Canonical layout: magic, version byte, then a header and payload per entry."""
    parts = [TRANSCRIPT_MAGIC, bytes((WIRE_VERSION,))]
    for entry in transcript:
        payload = entry.payload
        parts.append(_RECORD_HEADER.pack(entry.direction.wire_byte, entry.sequence, len(payload)))
        parts.append(payload)
    return b"".join(parts)


def write_transcript(path: str, transcript: Iterable[TranscriptEntry]) -> None:
    """Write a transcript to ``path`` in the canonical binary layout."""
    with open(path, "wb") as handle:
        handle.write(_frame_transcript(transcript))


def read_transcript(path: str) -> List[TranscriptEntry]:
    """Read a transcript file back into entries, validating framing.

    Each direction's sequence numbers must count up from 0 without gaps,
    as a ``Channel`` numbers them.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    if blob[: len(TRANSCRIPT_MAGIC)] != TRANSCRIPT_MAGIC:
        raise DecodeError("transcript file: bad magic")
    offset = len(TRANSCRIPT_MAGIC)
    if offset >= len(blob):
        raise DecodeError("transcript file: missing version")
    version = blob[offset]
    offset += 1
    if version != WIRE_VERSION:
        raise DecodeError(f"transcript file: unsupported version {version}")
    entries: List[TranscriptEntry] = []
    sequences = [0, 0]
    while offset < len(blob):
        if offset + _RECORD_HEADER.size > len(blob):
            raise DecodeError("transcript file: truncated record header")
        direction_byte, sequence, length = _RECORD_HEADER.unpack_from(blob, offset)
        offset += _RECORD_HEADER.size
        if direction_byte not in (0, 1):
            raise DecodeError(f"transcript file: bad direction byte {direction_byte}")
        direction = _A_TO_B if direction_byte == 0 else _B_TO_A
        if sequence != sequences[direction_byte]:
            raise DecodeError(
                f"transcript file: sequence {sequence} in direction {direction.value}, "
                f"expected {sequences[direction_byte]}"
            )
        sequences[direction_byte] += 1
        if offset + length > len(blob):
            raise DecodeError("transcript file: truncated record payload")
        payload = blob[offset : offset + length]
        offset += length
        entries.append(TranscriptEntry(direction, sequence, decode_message(payload), payload))
    return entries
