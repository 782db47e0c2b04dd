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

The channel itself is a pair of FIFO lanes plus an append-only transcript.
Each direction carries its own gapless sequence counter; observers ("taps",
e.g. the eavesdropper accountant) see every message in transit order.
"""

from __future__ import annotations

import enum
import io
import struct
import threading
from collections import deque
from dataclasses import dataclass, field
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

_TYPE_BYTES = {
    Init: 1,
    BlockParities: 2,
    ParityQuery: 3,
    ParityAnswer: 4,
    RoundDone: 5,
    Finalize: 6,
    Result: 7,
}

_PERMUTATION_BYTES = {"shuffle": 0, "lcg": 1}
_PERMUTATION_NAMES = {v: k for k, v in _PERMUTATION_BYTES.items()}
_STATUS_BYTES = {
    SessionStatus.SUCCESS: 0,
    SessionStatus.FAILURE: 1,
    SessionStatus.CONFIG_MISMATCH: 2,
}
_STATUS_NAMES = {v: k for k, v in _STATUS_BYTES.items()}


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------


def _encode_schedule(schedule: ScheduleConfig) -> bytes:
    if isinstance(schedule, StaticSchedule):
        return struct.pack(">BdI", 0, schedule.qber_estimate, schedule.k)
    if isinstance(schedule, DynamicSchedule):
        return struct.pack(">Bd", 1, schedule.qber_estimate)
    raise DecodeError(f"unknown schedule variant: {type(schedule).__name__}")


def _encode_break(condition: BreakCondition) -> bytes:
    if isinstance(condition, FixedRoundsBreak):
        return struct.pack(">BI", 0, condition.total_rounds)
    if isinstance(condition, QuietRoundsBreak):
        return struct.pack(">BI", 1, condition.quiet_rounds)
    if isinstance(condition, ThresholdBreak):
        return struct.pack(">BI", 2, condition.min_corrected)
    raise DecodeError(f"unknown break variant: {type(condition).__name__}")


def encode_message(message: Message) -> bytes:
    """Serialize one message to its schema-1 byte string.

    A field that does not fit its wire type raises ``DecodeError`` naming
    the message, so only ``DecodeError`` leaves the codec.
    """
    out = io.BytesIO()
    type_byte = _TYPE_BYTES.get(type(message))
    if type_byte is None:
        raise DecodeError(f"unknown message type: {type(message).__name__}")
    out.write(struct.pack(">B", type_byte))
    try:
        if isinstance(message, Init):
            kind = _PERMUTATION_BYTES.get(message.permutation_kind)
            if kind is None:
                raise DecodeError(f"unknown permutation kind: {message.permutation_kind!r}")
            out.write(struct.pack(">IB", message.frame_length, kind))
            out.write(_encode_schedule(message.schedule))
            out.write(_encode_break(message.break_condition))
            out.write(struct.pack(">Q", message.seed & ((1 << 64) - 1)))
        elif isinstance(message, BlockParities):
            out.write(struct.pack(">II", message.round_index, len(message.parities)))
            out.write(bytes(message.parities))
        elif isinstance(message, ParityQuery):
            out.write(struct.pack(">II", message.round_index, len(message.intervals)))
            for lo, hi in message.intervals:
                out.write(struct.pack(">II", lo, hi))
        elif isinstance(message, ParityAnswer):
            out.write(struct.pack(">II", message.round_index, len(message.entries)))
            for lo, hi, parity in message.entries:
                out.write(struct.pack(">IIB", lo, hi, parity))
        elif isinstance(message, RoundDone):
            out.write(struct.pack(">II", message.round_index, message.corrected))
        elif isinstance(message, Finalize):
            out.write(struct.pack(">Q", message.fingerprint))
        elif isinstance(message, Result):
            out.write(struct.pack(">B", _STATUS_BYTES[message.status]))
    except DecodeError:
        raise
    except (struct.error, ValueError, TypeError, KeyError) as exc:
        raise DecodeError(f"cannot encode {type(message).__name__}: {exc}") from exc
    return out.getvalue()


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
        status = _STATUS_NAMES.get(status_byte)
        if status is None:
            raise DecodeError(f"unknown status byte: {status_byte}")
        reader.finish()
        return Result(status)
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
    """One message as it crossed the channel."""

    direction: Direction
    sequence: int
    message: Message


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


class Channel:
    """Two one-way FIFO lanes with a shared, ordered transcript.

    ``send``/``recv`` are thread-safe; per-direction sequence numbers are
    gapless and the transcript preserves global send order.  ``close`` wakes
    every receiver blocked on an empty lane.
    """

    def __init__(self, taps: Sequence[EveTap] = ()):
        self._lock = threading.Lock()
        self._lanes = {direction: deque() for direction in Direction}
        self._arrived = {direction: threading.Condition(self._lock) for direction in Direction}
        self._sequences = {direction: 0 for direction in Direction}
        self._transcript: List[TranscriptEntry] = []
        self._taps = list(taps)
        self._closed = False

    def send(self, direction: Direction, message: Message) -> None:
        # Encode up front so malformed messages fail at the sender.
        payload = encode_message(message)
        decoded = decode_message(payload)
        with self._lock:
            if self._closed:
                raise TransportError("channel is closed")
            entry = TranscriptEntry(direction, self._sequences[direction], decoded)
            self._sequences[direction] += 1
            self._transcript.append(entry)
            for tap in self._taps:
                tap.observe(entry)
            self._lanes[direction].append(decoded)
            self._arrived[direction].notify()

    def recv(self, direction: Direction, timeout: Optional[float] = None) -> Message:
        """Take the next message; wait up to ``timeout`` seconds if given."""
        lane = self._lanes[direction]
        with self._lock:
            if timeout is not None:
                self._arrived[direction].wait_for(lambda: lane or self._closed, timeout)
            if lane:
                return lane.popleft()
            if self._closed:
                raise TransportError("channel is closed")
            raise TransportError(f"no message pending in direction {direction.value}")

    def pending(self, direction: Direction) -> int:
        return len(self._lanes[direction])

    def close(self) -> None:
        with self._lock:
            self._closed = True
            for arrived in self._arrived.values():
                arrived.notify_all()

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
    out = io.BytesIO()
    out.write(TRANSCRIPT_MAGIC)
    out.write(struct.pack(">B", WIRE_VERSION))
    for entry in transcript:
        payload = encode_message(entry.message)
        out.write(_RECORD_HEADER.pack(entry.direction.wire_byte, entry.sequence, len(payload)))
        out.write(payload)
    return out.getvalue()


def write_transcript(path: str, transcript: Iterable[TranscriptEntry]) -> None:
    """Write a transcript to ``path`` in the canonical binary layout."""
    with open(path, "wb") as handle:
        handle.write(_frame_transcript(transcript))


def read_transcript(path: str) -> List[TranscriptEntry]:
    """Read a transcript file back into entries, validating framing."""
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
    while offset < len(blob):
        if offset + _RECORD_HEADER.size > len(blob):
            raise DecodeError("transcript file: truncated record header")
        direction_byte, sequence, length = _RECORD_HEADER.unpack_from(blob, offset)
        offset += _RECORD_HEADER.size
        if direction_byte not in (0, 1):
            raise DecodeError(f"transcript file: bad direction byte {direction_byte}")
        if offset + length > len(blob):
            raise DecodeError("transcript file: truncated record payload")
        message = decode_message(blob[offset : offset + length])
        offset += length
        direction = Direction.A_TO_B if direction_byte == 0 else Direction.B_TO_A
        entries.append(TranscriptEntry(direction, sequence, message))
    return entries
