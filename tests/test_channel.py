"""Tests for the wire codec, channel, transcript and leakage accounting."""

import gc
import os
import random
import struct
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cascade_sim import channel as channel_module
from cascade_sim.bitframe import Bsc
from cascade_sim.channel import (
    Channel,
    Direction,
    EveTap,
    BlockParities,
    Finalize,
    Init,
    ParityAnswer,
    ParityQuery,
    Result,
    RoundDone,
    SessionStatus,
    TRANSCRIPT_MAGIC,
    TranscriptEntry,
    WIRE_VERSION,
    decode_message,
    encode_message,
    leakage_report,
    message_parity_bits,
    read_transcript,
    write_transcript,
)
from cascade_sim.errors import DecodeError, TransportError
from cascade_sim.harness import SessionTemplate, run_trial_detailed
from cascade_sim.schedule import (
    DynamicSchedule,
    FixedRoundsBreak,
    QuietRoundsBreak,
    StaticSchedule,
    ThresholdBreak,
)


def sample_messages():
    return [
        Init(4096, "lcg", StaticSchedule(0.02, 2), FixedRoundsBreak(4), 99),
        Init(512, "shuffle", DynamicSchedule(0.11), QuietRoundsBreak(2), 2**63),
        Init(16, "lcg", StaticSchedule(0.5, 7), ThresholdBreak(3), 0),
        BlockParities(0, (1, 0, 0, 1, 1)),
        BlockParities(3, ()),
        ParityQuery(1, ((0, 4), (8, 16))),
        ParityQuery(0, ()),
        ParityAnswer(1, ((0, 4, 1), (8, 16, 0))),
        RoundDone(2, 17),
        Finalize(0xDEADBEEFCAFE),
        Result(SessionStatus.SUCCESS),
        Result(SessionStatus.FAILURE),
        Result(SessionStatus.CONFIG_MISMATCH),
    ]


def random_message(rng):
    pick = rng.randrange(7)
    if pick == 0:
        schedule = (
            StaticSchedule(rng.uniform(0.001, 0.5), rng.randint(2, 9))
            if rng.random() < 0.5
            else DynamicSchedule(rng.uniform(0.001, 0.5))
        )
        brk = rng.choice(
            [FixedRoundsBreak(rng.randint(1, 9)), QuietRoundsBreak(rng.randint(1, 9)),
             ThresholdBreak(rng.randint(1, 9))]
        )
        kind = rng.choice(["shuffle", "lcg"])
        return Init(rng.randrange(1, 1 << 20), kind, schedule, brk, rng.getrandbits(64))
    if pick == 1:
        return BlockParities(rng.randrange(16), tuple(rng.randint(0, 1) for _ in range(rng.randrange(20))))
    if pick == 2:
        return ParityQuery(
            rng.randrange(16),
            tuple((lo, lo + rng.randrange(1, 50)) for lo in rng.sample(range(1000), rng.randrange(8))),
        )
    if pick == 3:
        return ParityAnswer(
            rng.randrange(16),
            tuple((lo, lo + 3, rng.randint(0, 1)) for lo in rng.sample(range(1000), rng.randrange(8))),
        )
    if pick == 4:
        return RoundDone(rng.randrange(16), rng.randrange(4096))
    if pick == 5:
        return Finalize(rng.getrandbits(64))
    return Result(rng.choice(list(SessionStatus)))


# ------------------------------------------------------------------- codec


def test_round_trip_all_message_shapes():
    for message in sample_messages():
        blob = encode_message(message)
        assert decode_message(blob) == message


def test_round_trip_fuzz():
    rng = random.Random(8)
    for trial in range(300):
        message = random_message(rng)
        assert decode_message(encode_message(message)) == message


_U32 = st.integers(0, 2**32 - 1)
_U64 = st.integers(0, 2**64 - 1)
_BIT = st.integers(0, 1)
_ESTIMATE = st.floats(min_value=0.0, max_value=0.5, exclude_min=True)


def _tuples_of(element):
    return st.lists(element, max_size=8).map(tuple)


def _init(sizes, kinds, estimates, seeds, odd=st.nothing()):
    schedules = st.one_of(
        st.builds(StaticSchedule, estimates, sizes.filter(lambda k: k >= 2)),
        st.builds(DynamicSchedule, estimates),
        odd,
    )
    counts = sizes.filter(lambda value: value >= 1)
    breaks = st.one_of(
        st.builds(FixedRoundsBreak, counts),
        st.builds(QuietRoundsBreak, counts),
        st.builds(ThresholdBreak, counts),
        odd,
    )
    return st.builds(Init, sizes, kinds, schedules, breaks, seeds)


WELL_FORMED = st.one_of(
    _init(_U32, st.sampled_from(["shuffle", "lcg"]), _ESTIMATE, _U64),
    st.builds(BlockParities, _U32, _tuples_of(_BIT)),
    st.builds(ParityQuery, _U32, _tuples_of(st.tuples(_U32, _U32))),
    st.builds(ParityAnswer, _U32, _tuples_of(st.tuples(_U32, _U32, _BIT))),
    st.builds(RoundDone, _U32, _U32),
    st.builds(Finalize, _U64),
    st.builds(Result, st.sampled_from(SessionStatus)),
)

# Field values the wire cannot carry: negative or oversized integers, floats
# where integers belong, non-bit parities, unknown kinds and statuses, and
# lists or wrong-arity tuples where the dataclasses say tuples.
_WIDE = st.one_of(_U32, st.integers(-(2**66), 2**66), st.booleans(), st.sampled_from([1.0, -0.5]))
_PARITY = st.one_of(_BIT, st.booleans(), st.integers(-2, 300))


def _sequences_of(element):
    return st.one_of(_tuples_of(element), st.lists(element, max_size=4))


ARBITRARY = st.one_of(
    _init(
        _WIDE,
        st.one_of(st.sampled_from(["shuffle", "lcg"]), st.text(max_size=4)),
        st.one_of(_ESTIMATE, st.sampled_from([Fraction(1, 10), Fraction(1, 2)])),
        st.one_of(_U64, st.integers(2**64, 2**70), st.integers(-(2**64), -1)),
        odd=st.sampled_from([None, "static"]),
    ),
    st.builds(BlockParities, _WIDE, _sequences_of(_PARITY)),
    st.builds(
        ParityQuery,
        _WIDE,
        _sequences_of(st.one_of(st.tuples(_WIDE, _WIDE), st.lists(_WIDE, max_size=3))),
    ),
    st.builds(
        ParityAnswer,
        _WIDE,
        _sequences_of(st.one_of(st.tuples(_WIDE, _WIDE, _PARITY), st.tuples(_WIDE, _WIDE))),
    ),
    st.builds(RoundDone, _WIDE, _WIDE),
    st.builds(Finalize, st.one_of(_U64, _WIDE)),
    st.builds(Result, st.one_of(st.sampled_from(SessionStatus), st.sampled_from(["success", 0, None]))),
)


@given(WELL_FORMED)
def test_well_formed_messages_round_trip_through_canonical_bytes(message):
    payload = encode_message(message)
    decoded = decode_message(payload)
    assert decoded == message
    assert encode_message(decoded) == payload


@given(ARBITRARY)
def test_the_encoder_accepts_exactly_the_messages_that_decode_back_equal(message):
    # Channel.send delivers the sent object without decoding it, which is
    # sound only if everything the encoder accepts decodes back equal.
    try:
        payload = encode_message(message)
    except DecodeError:
        return
    assert decode_message(payload) == message


def test_truncation_names_the_missing_field():
    blob = encode_message(Finalize(7))
    with pytest.raises(DecodeError, match="finalize.fingerprint"):
        decode_message(blob[:-2])
    blob = encode_message(BlockParities(1, (1, 0)))
    with pytest.raises(DecodeError, match=r"parities\[1\]"):
        decode_message(blob[:-1])
    blob = encode_message(ParityQuery(1, ((0, 4), (8, 16))))
    with pytest.raises(DecodeError, match=r"parity_query.intervals\[1\]"):
        decode_message(blob[:-3])
    blob = encode_message(ParityAnswer(1, ((0, 4, 1), (8, 16, 0), (20, 24, 1))))
    with pytest.raises(DecodeError, match=r"parity_answer.entries\[2\]"):
        decode_message(blob[:-1])
    with pytest.raises(DecodeError, match="type"):
        decode_message(b"")


def test_unknown_bytes_rejected():
    with pytest.raises(DecodeError, match="type byte"):
        decode_message(b"\x63")
    blob = bytearray(encode_message(Result(SessionStatus.SUCCESS)))
    blob[-1] = 9
    with pytest.raises(DecodeError, match="status byte"):
        decode_message(bytes(blob))


def test_non_bit_parity_rejected():
    blob = bytearray(encode_message(BlockParities(0, (1,))))
    blob[-1] = 2
    with pytest.raises(DecodeError, match="not a bit"):
        decode_message(bytes(blob))


def test_trailing_garbage_rejected():
    blob = encode_message(RoundDone(1, 2)) + b"\x00"
    with pytest.raises(DecodeError, match="trailing garbage"):
        decode_message(blob)


def one_message_of_each_type():
    first = {}
    for message in sample_messages():
        first.setdefault(type(message), message)
    assert len(first) == 7
    return list(first.values())


def byte_mutations(blob):
    """Every single-bit flip, every truncation and one extra byte."""
    for bit in range(len(blob) * 8):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield bytes(flipped)
    for end in range(len(blob)):
        yield blob[:end]
    yield blob + b"\x00"


def test_decoding_mutated_bytes_raises_only_decode_error():
    # A mutated payload may still decode to a valid message, but only if it
    # is that message's one encoding; anything else must be a DecodeError.
    for message in one_message_of_each_type():
        for blob in byte_mutations(encode_message(message)):
            try:
                decoded = decode_message(blob)
            except DecodeError:
                continue
            assert encode_message(decoded) == blob


# Arbitrary bytes behind each type byte, and well-formed encodings cut short
# and extended by arbitrary bytes.
PAYLOADS = st.one_of(
    st.builds(lambda kind, body: bytes([kind]) + body, st.integers(1, 7), st.binary(max_size=40)),
    st.builds(
        lambda message, cut, extra: encode_message(message)[:cut] + extra,
        WELL_FORMED,
        st.integers(0, 64),
        st.binary(max_size=12),
    ),
)


@given(PAYLOADS)
def test_the_decoder_accepts_only_canonical_bytes(payload):
    # With the round trips above, this pins the decoder to exactly the
    # encoder's image: whatever it accepts re-encodes to the same bytes.
    try:
        decoded = decode_message(payload)
    except DecodeError:
        return
    assert encode_message(decoded) == payload


def test_reading_a_mutated_transcript_raises_only_decode_error(tmp_path):
    chan = Channel()
    for message in one_message_of_each_type():
        chan.send(Direction.A_TO_B, message)
    path = str(tmp_path / "session.transcript")
    write_transcript(path, chan.transcript)
    with open(path, "rb") as handle:
        blob = handle.read()
    for mutated in byte_mutations(blob):
        with open(path, "wb") as handle:
            handle.write(mutated)
        try:
            read_transcript(path)
        except DecodeError:
            pass


def test_message_parity_bits():
    assert message_parity_bits(BlockParities(0, (1, 0, 1))) == 3
    assert message_parity_bits(ParityAnswer(0, ((0, 2, 1),))) == 1
    assert message_parity_bits(ParityQuery(0, ((0, 2),))) == 0
    assert message_parity_bits(Result(SessionStatus.SUCCESS)) == 0
    assert message_parity_bits(Finalize(1)) == 0


# ----------------------------------------------------------------- channel


def test_channel_is_fifo_with_gapless_sequences():
    chan = Channel()
    chan.send(Direction.A_TO_B, RoundDone(0, 1))
    chan.send(Direction.A_TO_B, RoundDone(0, 2))
    chan.send(Direction.B_TO_A, Finalize(3))
    assert chan.recv(Direction.A_TO_B) == RoundDone(0, 1)
    assert chan.recv(Direction.A_TO_B) == RoundDone(0, 2)
    assert chan.recv(Direction.B_TO_A) == Finalize(3)
    entries = chan.transcript
    assert [e.sequence for e in entries] == [0, 1, 0]
    assert [e.direction for e in entries] == [
        Direction.A_TO_B,
        Direction.A_TO_B,
        Direction.B_TO_A,
    ]


def test_recv_on_empty_lane_raises():
    chan = Channel()
    for timeout in (None, 0.0, -1.0):
        with pytest.raises(TransportError, match="no message pending"):
            chan.recv(Direction.A_TO_B, timeout=timeout)
    assert chan.pending(Direction.A_TO_B) == 0


def test_send_after_close_raises():
    chan = Channel()
    chan.close()
    with pytest.raises(TransportError):
        chan.send(Direction.A_TO_B, Finalize(1))


def test_close_wakes_a_blocked_receiver_and_keeps_queued_messages():
    chan = Channel()
    chan.send(Direction.A_TO_B, Finalize(1))
    errors = []

    def receive():
        try:
            chan.recv(Direction.B_TO_A, timeout=30.0)
        except TransportError as exc:
            errors.append(exc)

    thread = threading.Thread(target=receive)
    thread.start()
    chan.close()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert [str(exc) for exc in errors] == ["channel is closed"]
    assert chan.recv(Direction.A_TO_B, timeout=30.0) == Finalize(1)


def test_close_delivers_queued_messages_then_raises_and_pending_skips_the_marker():
    chan = Channel()
    sent = [RoundDone(0, 1), RoundDone(0, 2)]
    for message in sent:
        chan.send(Direction.A_TO_B, message)
    chan.close()
    assert chan.pending(Direction.A_TO_B) == 2
    assert chan.pending(Direction.B_TO_A) == 0
    # The receiver gets the sent objects themselves, in order.
    assert chan.recv(Direction.A_TO_B) is sent[0]
    assert chan.pending(Direction.A_TO_B) == 1
    assert chan.recv(Direction.A_TO_B, timeout=1.0) is sent[1]
    for _ in range(3):
        for timeout in (None, 0.01):
            for direction in Direction:
                with pytest.raises(TransportError, match="channel is closed"):
                    chan.recv(direction, timeout=timeout)
                assert chan.pending(direction) == 0
    chan.close()
    assert [chan.pending(direction) for direction in Direction] == [0, 0]
    assert len(chan.transcript) == 2


def test_concurrent_senders_deliver_in_transcript_order_and_lose_nothing():
    chan = Channel()
    per_sender = 300
    received = {direction: [] for direction in Direction}

    def send(direction, sender):
        for k in range(per_sender):
            chan.send(direction, RoundDone(sender, k))

    def receive(direction):
        while True:
            try:
                received[direction].append(chan.recv(direction, timeout=10.0))
            except TransportError:
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        receivers = [threading.Thread(target=receive, args=(d,)) for d in Direction]
        senders = [
            threading.Thread(target=send, args=(d, sender)) for d in Direction for sender in range(3)
        ]
        for thread in receivers + senders:
            thread.start()
        for thread in senders:
            thread.join(timeout=30.0)
        chan.close()
        for thread in receivers:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in receivers + senders)
    for direction in Direction:
        entries = [entry for entry in chan.transcript if entry.direction is direction]
        assert [entry.sequence for entry in entries] == list(range(3 * per_sender))
        # Each lane hands messages over in the transcript's order.
        assert received[direction] == [entry.message for entry in entries]
        assert chan.pending(direction) == 0


def test_a_blocked_receiver_sleeps_until_a_send_wakes_it():
    chan = Channel()
    got = {}

    def receive():
        started = time.thread_time()
        got["message"] = chan.recv(Direction.A_TO_B, timeout=5.0)
        got["cpu"] = time.thread_time() - started

    thread = threading.Thread(target=receive)
    thread.start()
    time.sleep(0.3)
    assert thread.is_alive()
    chan.send(Direction.A_TO_B, Finalize(7))
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert got["message"] == Finalize(7)
    # The wait blocks in the kernel: 0.3 s of waiting costs next to no CPU.
    assert got["cpu"] < 0.05


def test_a_zero_or_negative_timeout_returns_at_once(monkeypatch):
    pipes = []
    monkeypatch.setattr(os, "pipe", lambda: pipes.append(1))
    chan = Channel()
    for timeout in (0, 0.0, -1.0, -1e9):
        started = time.monotonic()
        with pytest.raises(TransportError, match="no message pending"):
            chan.recv(Direction.B_TO_A, timeout=timeout)
        assert time.monotonic() - started < 0.05
    assert pipes == []


def test_receivers_that_find_a_message_make_no_wake_pipe(monkeypatch):
    pipes = []
    monkeypatch.setattr(os, "pipe", lambda: pipes.append(1))
    chan = Channel()
    sent = [RoundDone(0, k) for k in range(100_000)]
    for message in sent:
        chan.send(Direction.A_TO_B, message)
    received = [chan.recv(Direction.A_TO_B) for _ in range(50_000)]
    received += [chan.recv(Direction.A_TO_B, timeout=5.0) for _ in range(50_000)]
    assert received == sent
    assert pipes == []


def test_close_wakes_every_receiver_blocked_on_one_lane():
    chan = Channel()
    errors = []

    def receive():
        try:
            chan.recv(Direction.A_TO_B, timeout=30.0)
        except TransportError as exc:
            errors.append(str(exc))

    threads = [threading.Thread(target=receive) for _ in range(3)]
    for thread in threads:
        thread.start()
    time.sleep(0.2)
    chan.close()
    for thread in threads:
        thread.join(timeout=5.0)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == ["channel is closed"] * 3


def test_receivers_sharing_a_lane_get_each_message_once():
    chan = Channel()
    count = 3000
    received = []
    endings = []

    def receive():
        while True:
            try:
                received.append(chan.recv(Direction.A_TO_B, timeout=10.0))
            except TransportError as exc:
                endings.append(str(exc))
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=receive) for _ in range(3)]
        for thread in threads:
            thread.start()
        for k in range(count):
            chan.send(Direction.A_TO_B, RoundDone(0, k))
        # Every message is taken before the close, without a receiver timing out.
        deadline = time.monotonic() + 10.0
        while chan.pending(Direction.A_TO_B) and time.monotonic() < deadline:
            time.sleep(0.01)
        chan.close()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(message.corrected for message in received) == list(range(count))
    assert endings == ["channel is closed"] * 3


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_threaded_sessions_leave_no_file_descriptor_open():
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    gc.collect()
    start = open_fds()
    most = start
    template = SessionTemplate(aggregation=False)
    for seed in range(200):
        detail = run_trial_detailed(template, 256, Bsc(0.05), seed, scheduling="threaded")
        most = max(most, open_fds())
        del detail
    gc.collect()
    assert most > start  # the sessions did open wake pipes
    assert open_fds() == start


def test_sender_side_validation_rejects_malformed_messages():
    chan = Channel()
    malformed = [
        BlockParities(0, (2,)),
        BlockParities(0, (300,)),
        ParityQuery(0, ((-1, 2),)),
        RoundDone(-1, 0),
        ParityAnswer(0, ((0, 1, 2),)),
        ParityQuery(0, ([0, 2],)),
        Init(16, "lcg", StaticSchedule(0.5, 2), FixedRoundsBreak(1), 2**64),
        Init(16, "lcg", StaticSchedule(0.5, 2), FixedRoundsBreak(1), -1),
    ]
    for message in malformed:
        with pytest.raises(DecodeError):
            chan.send(Direction.A_TO_B, message)
    assert chan.transcript == ()


def test_eve_tap_matches_transcript_report():
    tap = EveTap()
    chan = Channel(taps=[tap])
    chan.send(Direction.A_TO_B, BlockParities(0, (1, 0, 1, 1)))
    chan.send(Direction.B_TO_A, ParityQuery(0, ((0, 2),)))
    chan.send(Direction.A_TO_B, ParityAnswer(0, ((0, 2, 1),)))
    chan.send(Direction.B_TO_A, RoundDone(0, 1))
    report = leakage_report(chan.transcript)
    assert report.parity_bits_disclosed == 5
    assert (report.messages_a_to_b, report.messages_b_to_a) == (2, 2)
    assert report.messages_total == 4
    assert report.per_round_parity_bits == ((0, 5),)
    assert tap.parity_bits_seen == report.parity_bits_disclosed
    assert tap.messages_seen == report.messages_total


def test_the_tap_counts_the_parity_bits_in_each_payload():
    rng = random.Random(11)
    messages = sample_messages() + [BlockParities(0, ()), ParityAnswer(5, ())]
    messages += [random_message(rng) for _ in range(300)]
    for message in messages:
        tap = EveTap()
        tap.observe(encode_message(message))
        assert (tap.messages_seen, tap.parity_bits_seen) == (1, message_parity_bits(message))
    silent = [m for m in messages if not isinstance(m, (BlockParities, ParityAnswer))]
    assert {type(message) for message in silent} == {Init, ParityQuery, RoundDone, Finalize, Result}
    tap = EveTap()
    for message in silent:
        tap.observe(encode_message(message))
    assert (tap.messages_seen, tap.parity_bits_seen) == (len(silent), 0)


def test_leakage_report_counts_per_round():
    entries = [
        TranscriptEntry(Direction.A_TO_B, 0, BlockParities(0, (1, 1))),
        TranscriptEntry(Direction.A_TO_B, 1, ParityAnswer(0, ((0, 1, 0),))),
        TranscriptEntry(Direction.A_TO_B, 2, BlockParities(1, (0,))),
    ]
    report = leakage_report(entries)
    assert report.per_round_parity_bits == ((0, 3), (1, 1))
    assert report.parity_bits_disclosed == 4


# -------------------------------------------------------------- transcript


def test_transcript_file_round_trip(tmp_path):
    chan = Channel()
    for message in sample_messages():
        chan.send(Direction.A_TO_B, message)
        chan.send(Direction.B_TO_A, message)
    path = str(tmp_path / "session.transcript")
    write_transcript(path, chan.transcript)
    loaded = read_transcript(path)
    assert loaded == list(chan.transcript)


def test_transcript_bytes_is_deterministic_and_matches_file(tmp_path):
    chan = Channel()
    chan.send(Direction.A_TO_B, RoundDone(4, 2))
    chan.send(Direction.B_TO_A, Result(SessionStatus.SUCCESS))
    path = str(tmp_path / "t.bin")
    write_transcript(path, chan.transcript)
    with open(path, "rb") as handle:
        assert handle.read() == chan.transcript_bytes()
    assert chan.transcript_bytes().startswith(TRANSCRIPT_MAGIC + bytes([WIRE_VERSION]))


def test_read_transcript_requires_gapless_sequences(tmp_path):
    chan = Channel()
    chan.send(Direction.A_TO_B, RoundDone(0, 1))
    chan.send(Direction.A_TO_B, RoundDone(0, 2))
    path = str(tmp_path / "t.bin")
    write_transcript(path, chan.transcript)
    with open(path, "rb") as handle:
        blob = bytearray(handle.read())
    # Records are direction u8, sequence u32, length u32, payload.
    second = len(TRANSCRIPT_MAGIC) + 1 + 9 + len(encode_message(RoundDone(0, 1)))
    blob[second + 4] ^= 0x80  # the sequence's low byte: 1 becomes 129
    with open(path, "wb") as handle:
        handle.write(bytes(blob))
    with pytest.raises(DecodeError, match="sequence 129 in direction a->b, expected 1"):
        read_transcript(path)


@pytest.mark.parametrize("scheduling", ["lockstep", "threaded"])
def test_a_session_encodes_each_message_once_and_decodes_none(monkeypatch, tmp_path, scheduling):
    calls = {"encode_message": 0, "decode_message": 0}
    for name in calls:

        def counted(*args, _name=name, _original=getattr(channel_module, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(channel_module, name, counted)
    template = SessionTemplate(aggregation=False)
    detail = run_trial_detailed(template, 4096, Bsc(0.02), 1000, scheduling=scheduling)
    monkeypatch.undo()
    transcript = detail.result.channel.transcript
    assert len(transcript) > 100
    assert calls == {"encode_message": len(transcript), "decode_message": 0}

    # The framing, rebuilt from a fresh encoding of each message.
    records = []
    for entry in transcript:
        payload = encode_message(entry.message)
        assert entry.payload == payload
        direction = 0 if entry.direction is Direction.A_TO_B else 1
        records.append(struct.pack(">BII", direction, entry.sequence, len(payload)) + payload)
    framed = TRANSCRIPT_MAGIC + bytes([WIRE_VERSION]) + b"".join(records)
    assert detail.result.channel.transcript_bytes() == framed

    path = str(tmp_path / "session.transcript")
    write_transcript(path, transcript)
    loaded = read_transcript(path)
    assert loaded == list(transcript)
    assert [entry.payload for entry in loaded] == [entry.payload for entry in transcript]


def test_transcript_file_corruption_detected(tmp_path):
    chan = Channel()
    chan.send(Direction.A_TO_B, Finalize(12))
    path = tmp_path / "t.bin"
    write_transcript(str(path), chan.transcript)
    blob = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.bin"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(DecodeError, match="magic"):
        read_transcript(str(bad_magic))

    bad_version = tmp_path / "bad_version.bin"
    bad_version.write_bytes(blob[:4] + bytes([99]) + blob[5:])
    with pytest.raises(DecodeError, match="version"):
        read_transcript(str(bad_version))

    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(blob[:-3])
    with pytest.raises(DecodeError, match="truncated"):
        read_transcript(str(truncated))
