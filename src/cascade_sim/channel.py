"""Authenticated classical channel: messages, wire codec, transcript, taps.

Everything both parties exchange travels as one of the dataclasses below.
The codec is a fixed binary layout (schema version 3) so that a transcript
is byte-reproducible across runs and platforms:

    Init          0x01  frame_length u32, permutation u8, schedule u8 + params,
                        break u8 + param u32, seed u64
    BlockParities 0x02  round var, count var, parities packed
    ParityQuery   0x03  round var, count var, (lo var, length var) per interval
    ParityAnswer  0x04  round var, count var, (lo var, length var) per entry,
                        then the entries' parities packed
    RoundDone     0x05  round var, corrected var
    Finalize      0x06  fingerprint u64
    Result        0x07  status u8

``u8``/``u32``/``u64``/``f64`` are big-endian fixed-width fields.  ``var``
is a minimal unsigned LEB128 varint of a value below 2^32: seven bits a
byte, low group first, the high bit set on every byte but the last, so a
value below 2^7 takes one byte, below 2^14 two and below 2^21 three.
An interval ``(lo, hi)`` travels as ``lo`` and its ``length``,
``(hi - lo) mod 2^32``, and the decoder rebuilds ``hi = (lo + length) mod
2^32``: a bisection interval is at most half a block, so its length takes
a byte or two wherever the interval lies in the frame.  ``(lo, length)``
maps one to one onto ``(lo, hi)``, so an interval with ``hi < lo`` travels
too, its length wrapped.  ``packed`` is ceil(count / 8) bytes holding the
parities in order, the first in the low bit of the first byte, with the
unused high bits of the last byte zero.

Schedule parameters ride as f64 (estimated error rate) plus u32 (growth
factor) for the geometric variant, or f64 alone for the adaptive variant.

Each fixed layout is one ``struct.Struct`` and each byte-coded value
(permutation kind, schedule and break variant, status, direction) one tuple
indexed by its byte; the encoder, the decoder and the transcript reader and
writer all use the same ones, so the format is stated once for both
directions.  The four counted messages (block parities, queries, answers
and round ends) have one writer, which holds the varint encoding and the
interval lengths.  Bytes from outside have one reader, a cursor that
checks every read against their end and names the first field missing:
the decoder, the transcript file reader and the eavesdropper's tap (when a
round or a count takes more than one byte) all read through it.

Each field has exactly one encoding, and the encoder is the validity
check: it accepts exactly the messages that decode back equal (bit
parities, in-range integers, a 64-bit seed, known kinds, tuples where the
dataclasses say tuples).  So a sender encodes each message once, and the
receiver gets the sent message itself; nothing decodes in transit.  The
decoder accepts only those canonical bytes: it refuses an overlong
varint, a value of 2^32 or more, a set padding bit and trailing bytes.

The channel itself is a pair of FIFO lanes plus an append-only record of
what was sent, from which the transcript is built when it is read.  Each
direction carries its own gapless sequence counter; observers ("taps",
e.g. the eavesdropper accountant) see every message's bytes in transit
order.  Each transcript entry keeps the bytes its message was sent as, and
a transcript is framed from those bytes.
"""

from __future__ import annotations

import enum
import operator
import os
import select
import struct
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass
from itertools import chain, product, repeat
from typing import Deque, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .bitframe import PERMUTATION_KINDS
from .errors import ConfigurationError, DecodeError, TransportError
from .schedule import BREAKS, SCHEDULES, BreakCondition, ScheduleConfig

WIRE_VERSION = 3
TRANSCRIPT_MAGIC = b"CSCT"

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


# ---------------------------------------------------------------------------
# message types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Init:
    """Opening handshake; both sides must present identical parameters."""

    frame_length: int
    permutation_kind: str  # one of bitframe.PERMUTATION_KINDS
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

# The byte tables: a value's wire byte is its index, for the encoder, the
# decoder and the transcript files alike.  A tuple lookup hashes no enum.  The
# permutation kinds, schedules and breaks are the tables of the modules that
# implement them, in their order.  A schedule's or a break's wire parameters
# are its dataclass fields, in the order ``vars`` lists them and its
# constructor takes them.
_SCHEDULES = tuple(SCHEDULES.values())
_BREAKS = tuple(BREAKS.values())
_STATUSES = (SessionStatus.SUCCESS, SessionStatus.FAILURE, SessionStatus.CONFIG_MISMATCH)
_DIRECTIONS = (Direction.A_TO_B, Direction.B_TO_A)  # also each direction's lane


def _wire_byte(table: tuple, value, what: str) -> int:
    """``value``'s index in a byte table; a value not in it cannot be sent."""
    try:
        return table.index(value)
    except ValueError:
        raise DecodeError(f"unknown {what}: {value!r}") from None


def _from_byte(table: tuple, byte: int, what: str):
    """The entry of a byte table that a received byte names."""
    if byte >= len(table):
        raise DecodeError(f"unknown {what} byte: {byte}")
    return table[byte]


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------

_LAYOUT_FIELDS: Dict[struct.Struct, Tuple[str, ...]] = {}


def _layout(*fields: str) -> struct.Struct:
    """A big-endian wire layout of ``"name:code"`` fields, in wire order.

    The names serve ``_Reader.fields``, which names the first field that
    short bytes lack.  Each code is one character.
    """
    layout = struct.Struct(">" + "".join(field.partition(":")[2] for field in fields))
    _LAYOUT_FIELDS[layout] = fields
    return layout


# The fixed layouts after a message's type byte.  The encoders pack these,
# and the decoder reads them through _Reader.fields.  An Init's schedule
# byte picks the layout of the fields after its head.
_INIT_HEAD = _layout("frame_length:I", "permutation_kind:B", "schedule:B")
_INIT_TAIL = ("break_condition:B", "break_condition.parameter:I", "seed:Q")
_INIT_TAILS = (  # indexed by schedule byte
    _layout("schedule.qber_estimate:d", "schedule.k:I", *_INIT_TAIL),
    _layout("schedule.qber_estimate:d", *_INIT_TAIL),
)
_FINALIZE = _layout("fingerprint:Q")
_RECORD_HEADER = _layout("direction:B", "sequence:I", "length:I")  # per transcript file record

# Varints.  Below 2^7 a value is its own byte; below 2^14 it is its low
# seven bits with the continuation bit, then the high seven: the
# little-endian u16 ``high << 8 | 0x80 | low``.  _counted looks each ``lo``
# below 2^14 and each length below 2^14 up in this table inside one
# comprehension per message, so it makes no Python call per interval.  A
# ``lo`` below 2^21 (three bytes, as most of a 2^18-bit frame) is its low
# seven bits with the continuation bit, then the table's entry for the rest.
# Only the other intervals go through _interval.
_TABLED = 1 << 14
_VARINTS = tuple(map(bytes, zip(range(0x80)))) + tuple(
    map(
        int.to_bytes,
        chain.from_iterable(range(high << 8 | 0x80, high + 1 << 8) for high in range(1, 0x80)),
        repeat(2),
        repeat("little"),
    )
)
_CONTINUED = tuple(bytes((low | 0x80,)) for low in range(0x80))  # seven low bits, more to come
_VARINT_BYTES = 5  # at most, for a value below 2^32
# Packed parities: up to eight parities, one per byte, map to their packed
# byte; a longer run goes through an int.  Only bit runs are keys, so a
# lookup that misses a short run has found a parity that is not a bit.
# ``product`` counts in binary with the high bit first, so each run it
# yields is reversed to put the first parity in the low bit.
_PACKED_BYTES = {
    bytes(bits[::-1]): bytes((packed,))
    for length in range(1, 9)
    for packed, bits in enumerate(product((0, 1), repeat=length))
}
_BIT_DIGITS = bytes.maketrans(b"\0\1", b"01")  # a parity byte to its binary digit
_NOT_BITS = bytes(range(2))  # translate() deletes these; anything left is not a bit
_INTERVAL_OF = operator.itemgetter(0, 1)  # an answer entry's (lo, hi)


def _varint(value: int) -> bytes:
    """The minimal unsigned LEB128 bytes of a value below 2^32."""
    value = operator.index(value)
    if not 0 <= value < 1 << 32:
        raise DecodeError(f"{value} does not fit in 32 bits")
    out = bytearray()
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _interval(lo: int, hi: int) -> bytes:
    """``lo`` and the length ``(hi - lo) mod 2^32`` as varints, for any interval.

    ``hi`` must fit in 32 bits itself, as the length would fit whatever it is.
    """
    if not 0 <= hi < 1 << 32:
        raise DecodeError(f"{hi} does not fit in 32 bits")
    return _varint(lo) + _varint((hi - lo) % (1 << 32))


def _counted(
    type_byte: int,
    round_index: int,
    count: int,
    intervals: Iterable[Interval] = (),
    packed: bytes = b"",
) -> bytes:
    """The bytes of a counted message, the only writer of its varints.

    ``type_byte``, then ``round_index`` and ``count`` as varints, then each
    interval's ``lo`` and length as varints, then the ``packed`` parities.
    Unpacking refuses a member of ``intervals`` that is not a pair.
    """
    if round_index < 0x80 and count < 0x80:  # one byte each; bytes() refuses a negative
        head = bytes((type_byte, round_index, count))
    else:
        head = bytes((type_byte,)) + _varint(round_index) + _varint(count)
    # ``lo >> 21`` is 0 exactly when 0 <= lo < 2^21, and ``length >> 14``
    # when 0 <= length < 2^14; then hi = lo + length fits in 32 bits too.
    # Every other interval, hi < lo included, is _interval's.
    bounds = b"".join(
        [
            (_VARINTS[lo] if lo < _TABLED else _CONTINUED[lo & 0x7F] + _VARINTS[lo >> 7])
            + _VARINTS[length]
            if not lo >> 21 | length >> 14
            else _interval(lo, hi)
            for lo, hi in intervals
            for length in (hi - lo,)
        ]
    )
    return head + bounds + packed


def _packed_bits(name: str, bits: bytes) -> bytes:
    """Parities, one per byte of ``bits``, packed eight to a byte.

    The first parity takes the low bit of the first byte, and the last
    byte's unused high bits are zero.  ``name.format(i)`` names the i-th
    parity if it is not a bit.  The encoders look a short run up in
    ``_PACKED_BYTES`` first.
    """
    if bits.translate(None, _NOT_BITS):
        i = next(i for i, bit in enumerate(bits) if bit > 1)
        raise DecodeError(f"{name.format(i)} is not a bit: {bits[i]}")
    if not bits:
        return b""
    return int(bits[::-1].translate(_BIT_DIGITS), 2).to_bytes((len(bits) + 7) >> 3, "little")


def _require_tuples(name: str, value, nested: bool) -> None:
    """Containers must be tuples (of tuples), or they would not decode back equal.

    The scan stops at the first entry that is not exactly a tuple.
    """
    if type(value) is tuple:
        if not nested:
            return
        for item in value:
            if type(item) is not tuple:
                break
        else:
            return
    raise DecodeError(f"{name} must be a tuple{' of tuples' if nested else ''}")


def _encode_init(message: Init) -> bytes:
    schedule, condition = message.schedule, message.break_condition
    variant = _wire_byte(_SCHEDULES, type(schedule), "schedule variant")
    # An estimate that is not a float (a Fraction, say) would read back unequal.
    if float(schedule.qber_estimate) != schedule.qber_estimate:
        raise DecodeError(f"schedule estimate {schedule.qber_estimate!r} is not an f64")
    kind = _wire_byte(PERMUTATION_KINDS, message.permutation_kind, "permutation kind")
    rule = _wire_byte(_BREAKS, type(condition), "break variant")
    tail = (*vars(schedule).values(), rule, *vars(condition).values(), message.seed)
    head = _INIT_HEAD.pack(message.frame_length, kind, variant)
    return b"\x01" + head + _INIT_TAILS[variant].pack(*tail)


def _encode_block_parities(message: BlockParities) -> bytes:
    parities = message.parities
    _require_tuples("block_parities.parities", parities, nested=False)
    bits = bytes(parities)
    packed = _PACKED_BYTES.get(bits) or _packed_bits("block_parities.parities[{}]", bits)
    return _counted(2, message.round_index, len(parities), packed=packed)


def _encode_parity_query(message: ParityQuery) -> bytes:
    intervals = message.intervals
    _require_tuples("parity_query.intervals", intervals, nested=True)
    return _counted(3, message.round_index, len(intervals), intervals)


def _encode_parity_answer(message: ParityAnswer) -> bytes:
    entries = message.entries
    _require_tuples("parity_answer.entries", entries, nested=True)
    # Unpacking refuses an entry that is not a triple, so _INTERVAL_OF sees
    # only triples.
    bits = bytes([parity for _, _, parity in entries])
    packed = _PACKED_BYTES.get(bits) or _packed_bits("parity_answer.entries[{}].parity", bits)
    return _counted(4, message.round_index, len(entries), map(_INTERVAL_OF, entries), packed)


_ENCODERS = {
    Init: _encode_init,
    BlockParities: _encode_block_parities,
    ParityQuery: _encode_parity_query,
    ParityAnswer: _encode_parity_answer,
    RoundDone: lambda message: _counted(5, message.round_index, message.corrected),
    Finalize: lambda message: b"\x06" + _FINALIZE.pack(message.fingerprint),
    Result: lambda message: bytes((7, _wire_byte(_STATUSES, message.status, "status"))),
}


def encode_message(message: Message) -> bytes:
    """Serialize one message to its schema-3 byte string.

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
    """A cursor over bytes from outside the program: every read checks its
    bounds here, and only ``DecodeError`` leaves.

    Each read names its field; one that runs past the end names the first
    field missing, in a ``truncated {source}`` error.  ``offset`` is where
    the next read starts.
    """

    __slots__ = ("data", "source", "offset")

    def __init__(self, data: bytes, source: str = "message", offset: int = 0) -> None:
        self.data = data
        self.source = source
        self.offset = offset

    def _missing(self, name: str) -> DecodeError:
        return DecodeError(f"truncated {self.source}: missing field {name!r}")

    def run(self, size: int, name: str) -> bytes:
        """The next ``size`` bytes, the field ``name``."""
        start = self.offset
        if start + size > len(self.data):
            raise self._missing(name)
        self.offset = start + size
        return self.data[start : self.offset]

    def fields(self, layout: struct.Struct, name: str) -> tuple:
        """The fields of ``layout``, named ``name.<field>``."""
        left = len(self.data) - self.offset
        if left < layout.size:
            fields = _LAYOUT_FIELDS[layout]
            ends = (struct.calcsize(layout.format[: i + 2]) for i in range(len(fields)))
            missing = next(field for field, end in zip(fields, ends) if end > left)
            raise self._missing(f"{name}.{missing.partition(':')[0]}")
        return layout.unpack(self.run(layout.size, name))

    def varint(self, name: str) -> int:
        """A canonical varint: below 2^32, with no redundant high zero group."""
        value = 0
        for shift in range(0, 7 * _VARINT_BYTES, 7):
            byte = self.run(1, name)[0]
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
        else:
            raise DecodeError(f"{name} does not fit in 32 bits")
        if byte == 0 and shift:
            raise DecodeError(f"overlong varint for {name}")
        if value >> 32:
            raise DecodeError(f"{name} does not fit in 32 bits")
        return value

    def interval(self, name: str) -> Interval:
        """An interval as it travels: ``lo``, then ``hi = (lo + length) mod 2^32``."""
        lo = self.varint(f"{name}.lo")
        return lo, (lo + self.varint(f"{name}.length")) & 0xFFFFFFFF

    def bits(self, count: int, name: str) -> Tuple[int, ...]:
        """The ``count`` packed parities that close the bytes.

        ``name.format(i)`` names the i-th parity.  Padding bits must be zero.
        """
        first_missing = 8 * (len(self.data) - self.offset)  # if a byte is missing
        value = int.from_bytes(self.run((count + 7) >> 3, name.format(first_missing)), "little")
        self.end()
        if value >> count:
            raise DecodeError(f"nonzero padding bits after {name.format(count - 1)}")
        return tuple(map(int, format(value, f"0{count}b")[::-1])) if count else ()

    def more(self) -> bool:
        return self.offset < len(self.data)

    def end(self) -> None:
        """Refuse bytes after the last field."""
        if self.more():
            raise DecodeError(f"trailing garbage: {len(self.data) - self.offset} unconsumed bytes")


# The counted messages by type byte: the message, the name its fields go
# by, the name of the varint after its round index, and the names of its
# intervals and of its packed parities, empty where it has none.  Its second
# field is that varint, its intervals, its parities, or the intervals and
# parities zipped into entries.
_COUNTED = {
    2: (BlockParities, "block_parities", "count", "", "parities[{}]"),
    3: (ParityQuery, "parity_query", "count", "intervals", ""),
    4: (ParityAnswer, "parity_answer", "count", "entries", "entries[{}].parity"),
    5: (RoundDone, "round_done", "corrected", "", ""),
}


def decode_message(payload: bytes) -> Message:
    """Parse one schema-3 byte string back into a message."""
    reader = _Reader(payload)
    type_byte = reader.run(1, "type")[0]
    if type_byte in _COUNTED:
        cls, name, second, intervals, parities = _COUNTED[type_byte]
        round_index = reader.varint(f"{name}.round_index")
        count = reader.varint(f"{name}.{second}")
        if intervals:
            spans = tuple(reader.interval(f"{name}.{intervals}[{i}]") for i in range(count))
        if not parities:
            reader.end()
            return cls(round_index, spans if intervals else count)
        bits = reader.bits(count, f"{name}.{parities}")
        return cls(round_index, tuple(map(tuple.__add__, spans, zip(bits))) if intervals else bits)
    if type_byte == 1:
        frame_length, kind, variant = reader.fields(_INIT_HEAD, "init")
        kind = _from_byte(PERMUTATION_KINDS, kind, "permutation")
        schedule_type = _from_byte(_SCHEDULES, variant, "schedule variant")
        *parameters, rule, parameter, seed = reader.fields(_INIT_TAILS[variant], "init")
        reader.end()
        break_type = _from_byte(_BREAKS, rule, "break variant")
        try:
            schedule = schedule_type(*parameters)
        except ConfigurationError as exc:
            raise DecodeError(f"invalid schedule: {exc}") from exc
        try:
            condition = break_type(parameter)
        except ConfigurationError as exc:
            raise DecodeError(f"invalid break.parameter: {exc}") from exc
        return Init(frame_length, kind, schedule, condition, seed)
    if type_byte == 6:
        (fingerprint,) = reader.fields(_FINALIZE, "finalize")
        reader.end()
        return Finalize(fingerprint)
    if type_byte == 7:
        status = reader.run(1, "result.status")[0]
        reader.end()
        return Result(_from_byte(_STATUSES, status, "status"))
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


class TranscriptEntry(NamedTuple):
    """One message as it crossed the channel, with its encoded bytes.

    ``payload`` is ``encode_message(message)``, the bytes the channel sent
    or the transcript file held.
    """

    direction: Direction
    sequence: int
    message: Message
    payload: bytes


class EveTap:
    """Passive observer that accounts for everything visible in transit.

    It reads each message's bytes as they cross the channel, not the
    message object, so its parity count is independent of the transcript's.
    """

    def __init__(self) -> None:
        self.messages_seen = 0
        self.parity_bits_seen = 0

    def observe(self, payload: bytes) -> None:
        self.messages_seen += 1
        # Only block parities (type 2) and parity answers (type 4) disclose
        # parities, one per counted entry.  The count is the varint after
        # the round's; when either takes more than one byte, the reader
        # reads both.
        if payload[0] in (2, 4):
            if payload[1] < 0x80 and payload[2] < 0x80:
                self.parity_bits_seen += payload[2]
            else:
                reader = _Reader(payload, offset=1)
                reader.varint("disclosure.round_index")
                self.parity_bits_seen += reader.varint("disclosure.count")


_A_TO_B, _B_TO_A = _DIRECTIONS


def _direction_byte(direction: Direction) -> int:
    """The direction's wire byte, which also indexes its lane."""
    if direction is _A_TO_B:
        return 0
    if direction is _B_TO_A:
        return 1
    raise TransportError(f"unknown direction: {direction!r}")


# The longest wait one poll call takes, in ms; a longer one waits in turns,
# as the loop re-checks the deadline after each.
_POLL_MAX_MS = 2**31 - 1


class Channel:
    """Two one-way FIFO lanes with a shared, ordered transcript.

    ``send``/``recv`` are thread-safe; per-direction sequence numbers are
    gapless and the transcript preserves global send order.  After
    ``close``, the queued messages are still delivered, and every receive
    after them, blocked or not, raises.

    Each lane is a deque under the channel's lock.  A receiver that has to
    wait registers with the lane's wake pipe and blocks in ``poll``;
    ``send`` writes one byte to that pipe only while a receiver waits, and
    outside the lock, so the receiver wakes to a free lock and, as
    ``os.write`` releases it, a free GIL.  A lane makes its pipe on its
    first wait, so a channel no one waits on opens no file descriptor, and
    the pipes close when the channel is collected.  ``send`` keeps a plain
    record per message; ``transcript`` builds the entries from them each
    time it is read.
    """

    def __init__(self, taps: Sequence[EveTap] = ()):
        self._lock = threading.Lock()
        # Indexed by direction byte: a->b, then b->a.
        self._lanes: Tuple[Deque[Message], Deque[Message]] = (deque(), deque())
        self._pipes: List[Optional[tuple]] = [None, None]  # (read fd, write fd, poll object)
        self._waiting = [0, 0]  # receivers blocked on each lane
        self._sequences = [0, 0]
        self._records: List[Tuple[Direction, int, Message, bytes]] = []
        self._taps = list(taps)
        self._closed = False

    def send(self, direction: Direction, message: Message) -> None:
        # Encoding is the validity check, so a malformed message fails here
        # and the receiver can take the sent message itself.
        payload = encode_message(message)
        index = _direction_byte(direction)
        with self._lock:
            if self._closed:
                raise TransportError("channel is closed")
            sequence = self._sequences[index]
            self._sequences[index] = sequence + 1
            self._records.append((direction, sequence, message, payload))
            for tap in self._taps:
                tap.observe(payload)
            self._lanes[index].append(message)
            waiting = self._waiting[index]
        if waiting:
            _wake(self._pipes[index][1])

    def recv(self, direction: Direction, timeout: Optional[float] = None) -> Message:
        """Take the next message; wait up to ``timeout`` seconds if given."""
        index = _direction_byte(direction)
        # A deadline of 0 has passed; a negative timeout waits for nothing, as 0 does.
        deadline = time.monotonic() + timeout if timeout is not None and timeout > 0 else 0.0
        message = self._wait(index, deadline)
        if message is None:
            raise TransportError(f"no message pending in direction {direction.value}")
        return message

    def _wait(self, index: int, deadline: float) -> Optional[Message]:
        """Lane ``index``'s next message, blocking until ``deadline`` at most.

        ``None`` once the deadline has passed.  Each pass drains the lane's
        pipe before it looks at the lane, and a wake byte is written after
        its message is queued, so no wake-up is lost.  A receiver that may
        have drained another waiter's byte hands the wake-up on when it
        leaves a message or the close behind.
        """
        lane = self._lanes[index]
        waiting = 0
        while True:
            with self._lock:
                if lane or self._closed or (remaining := deadline - time.monotonic()) <= 0:
                    self._waiting[index] -= waiting
                    message = lane.popleft() if lane else None
                    closed = self._closed
                    hand_on = self._waiting[index] and (lane or closed)
                    break
                if not waiting:
                    read, _, poller = self._pipes[index] or self._make_pipe(index)
                    if self._waiting[index]:  # a poll object serves one thread at a time
                        poller = select.poll()
                        poller.register(read, select.POLLIN)
                    self._waiting[index] += 1
                    waiting = 1
            if poller.poll(min(remaining * 1000.0, _POLL_MAX_MS)):
                try:
                    os.read(read, 512)
                except BlockingIOError:
                    pass
        if hand_on:
            _wake(self._pipes[index][1])
        if message is None and closed:
            raise TransportError("channel is closed")
        return message

    def _make_pipe(self, index: int) -> tuple:
        """Lane ``index``'s wake pipe, non-blocking at both ends, closed with the channel."""
        read, write = os.pipe()
        os.set_blocking(read, False)
        os.set_blocking(write, False)
        for fd in (read, write):
            weakref.finalize(self, os.close, fd)
        poller = select.poll()
        poller.register(read, select.POLLIN)
        self._pipes[index] = read, write, poller
        return self._pipes[index]

    def pending(self, direction: Direction) -> int:
        """Messages queued in ``direction`` and not yet received; the
        lockstep driver in ``engine`` reads it to pick the party to step."""
        return len(self._lanes[_direction_byte(direction)])

    def close(self) -> None:
        with self._lock:
            self._closed = True
            woken = [pipe[1] for pipe, waiting in zip(self._pipes, self._waiting) if waiting]
        for write in woken:
            _wake(write)

    @property
    def transcript(self) -> Tuple[TranscriptEntry, ...]:
        with self._lock:
            return tuple(map(TranscriptEntry._make, self._records))

    def transcript_bytes(self) -> bytes:
        """The whole conversation as one canonical byte string."""
        return _frame_transcript(self.transcript)


def _wake(write: int) -> None:
    """Write a wake byte; a full pipe already holds an unread one."""
    try:
        os.write(write, b"\0")
    except BlockingIOError:
        pass


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
        direction = _direction_byte(entry.direction)
        parts.append(_RECORD_HEADER.pack(direction, entry.sequence, len(payload)))
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
        reader = _Reader(handle.read(), "transcript file")
    if reader.run(len(TRANSCRIPT_MAGIC), "magic") != TRANSCRIPT_MAGIC:
        raise DecodeError("transcript file: bad magic")
    version = reader.run(1, "version")[0]
    if version != WIRE_VERSION:
        raise DecodeError(f"transcript file: unsupported version {version}")
    entries: List[TranscriptEntry] = []
    sequences = [0, 0]
    while reader.more():
        record = f"record[{len(entries)}]"
        direction_byte, sequence, length = reader.fields(_RECORD_HEADER, record)
        direction = _from_byte(_DIRECTIONS, direction_byte, f"transcript file {record}.direction")
        if sequence != sequences[direction_byte]:
            raise DecodeError(
                f"transcript file: sequence {sequence} in direction {direction.value}, "
                f"expected {sequences[direction_byte]}"
            )
        sequences[direction_byte] += 1
        payload = reader.run(length, f"{record}.payload")
        entries.append(TranscriptEntry(direction, sequence, decode_message(payload), payload))
    return entries
