"""Tests for the wire codec, channel, transcript and leakage accounting."""

import random
import threading

import pytest

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


def test_truncation_names_the_missing_field():
    blob = encode_message(Finalize(7))
    with pytest.raises(DecodeError, match="finalize.fingerprint"):
        decode_message(blob[:-2])
    blob = encode_message(BlockParities(1, (1, 0)))
    with pytest.raises(DecodeError, match=r"parities\[1\]"):
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
    # A mutated payload may still decode to a valid message; anything else
    # must be a DecodeError.
    for message in one_message_of_each_type():
        for blob in byte_mutations(encode_message(message)):
            try:
                decode_message(blob)
            except DecodeError:
                pass


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
    with pytest.raises(TransportError):
        chan.recv(Direction.A_TO_B)
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


def test_sender_side_validation_rejects_malformed_messages():
    chan = Channel()
    malformed = [
        BlockParities(0, (2,)),
        BlockParities(0, (300,)),
        ParityQuery(0, ((-1, 2),)),
        RoundDone(-1, 0),
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
    assert tap.entries == list(chan.transcript)


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


def test_transcript_file_corruption_detected(tmp_path):
    chan = Channel()
    chan.send(Direction.A_TO_B, Finalize(12))
    path = str(tmp_path / "t.bin")
    write_transcript(path, chan.transcript)
    blob = open(path, "rb").read()

    bad_magic = str(tmp_path / "bad_magic.bin")
    open(bad_magic, "wb").write(b"XXXX" + blob[4:])
    with pytest.raises(DecodeError, match="magic"):
        read_transcript(bad_magic)

    bad_version = str(tmp_path / "bad_version.bin")
    open(bad_version, "wb").write(blob[:4] + bytes([99]) + blob[5:])
    with pytest.raises(DecodeError, match="version"):
        read_transcript(bad_version)

    truncated = str(tmp_path / "trunc.bin")
    open(truncated, "wb").write(blob[:-3])
    with pytest.raises(DecodeError, match="truncated"):
        read_transcript(truncated)
