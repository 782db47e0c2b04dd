"""Faulty peers: a lying initiator may only cause a clean error or an honest verdict."""

import dataclasses
import gc
import random
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_sim import channel as wire
from cascade_sim import engine
from cascade_sim.bitframe import BitFrame, Bsc, apply_noise
from cascade_sim.errors import DecodeError, ProtocolError, TransportError
from cascade_sim.harness import SessionTemplate, run_trial_detailed
from cascade_sim.schedule import FixedRoundsBreak, QuietRoundsBreak, StaticSchedule, ThresholdBreak

LIE_INTERVAL = (0, 1)
SEEDS = range(1000, 1040)


def _lie(message):
    """Invert the answered parity of ``LIE_INTERVAL``; pass anything else on."""
    if not isinstance(message, wire.ParityAnswer):
        return message
    entries = tuple(
        (lo, hi, parity ^ 1 if (lo, hi) == LIE_INTERVAL else parity)
        for lo, hi, parity in message.entries
    )
    return wire.ParityAnswer(message.round_index, entries)


def _lying_initiator(honest, lie=_lie):
    def session(config, frame):
        inner = honest(config, frame)
        outbound = next(inner)
        while True:
            inbound = yield [lie(message) for message in outbound]
            try:
                outbound = inner.send(inbound)
            except StopIteration as stop:
                summary, finals = stop.value
                return summary, [lie(message) for message in finals]

    return session


@pytest.fixture
def lying_initiator(monkeypatch):
    monkeypatch.setattr(engine, "initiator_session", _lying_initiator(engine.initiator_session))


def test_lying_initiator_ends_in_protocol_error_or_honest_verdict(lying_initiator):
    outcomes = {"error": 0, "success": 0, "failure": 0}
    errors = []
    for seed in SEEDS:
        try:
            detail = run_trial_detailed(SessionTemplate(aggregation=True), 4096, Bsc(0.10), seed)
        except (ProtocolError, DecodeError) as exc:
            outcomes["error"] += 1
            errors.append(str(exc))
            continue
        result = detail.result
        frames_equal = result.initiator.final_frame == result.responder.final_frame
        success = result.initiator.status is wire.SessionStatus.SUCCESS
        assert success == frames_equal, f"seed {seed}: verdict does not match the frames"
        outcomes["success" if success else "failure"] += 1
    # The lie must actually reach a search on some seeds, or the test shows nothing.
    assert outcomes["error"] > 0, outcomes
    # Some lies are caught only by the same-round consistency check.
    assert any("inconsistent peer parities" in message for message in errors), errors


def test_threaded_session_fails_fast_with_the_first_error(lying_initiator):
    # Lockstep, seed 1000 ends in the responder's ProtocolError; threaded must
    # raise the same error at once, not the initiator's receive timeout.
    threads_before = set(threading.enumerate())
    started = time.monotonic()
    with pytest.raises(ProtocolError, match="inconsistent peer parities"):
        run_trial_detailed(
            SessionTemplate(aggregation=True), 4096, Bsc(0.10), 1000, scheduling="threaded"
        )
    assert time.monotonic() - started < 10.0
    assert set(threading.enumerate()) <= threads_before, "a session thread is still alive"


def test_a_peer_that_keeps_a_round_alive_and_then_lies_ends_in_protocol_error(monkeypatch):
    # Seed 1007 at 45% QBER with reuse off: by its 9,001st answer, round 1
    # has run 4,148 waves, past the n + 8 = 4,104 waves that a fixed wave cap
    # used to allow.  The initiator answers each round honestly that long and
    # then inverts every answer; the same-round consistency check must end
    # the session.
    honest_answers = 9000
    answered = Counter()
    current = [0]

    def lie(message):
        if isinstance(message, wire.BlockParities):
            current[0] = message.round_index
        if not isinstance(message, wire.ParityAnswer):
            return message
        answered[current[0]] += 1
        if answered[current[0]] <= honest_answers:
            return message
        entries = tuple((lo, hi, parity ^ 1) for lo, hi, parity in message.entries)
        return wire.ParityAnswer(message.round_index, entries)

    monkeypatch.setattr(
        engine, "initiator_session", _lying_initiator(engine.initiator_session, lie)
    )
    template = SessionTemplate(parity_reuse=False, qber_estimate=0.01)
    with pytest.raises(ProtocolError, match="inconsistent peer parities"):
        run_trial_detailed(template, 4096, Bsc(0.45), 1007)
    assert max(answered.values()) > honest_answers, answered


def _twin_in_round(honest, lie_round, position):
    """An initiator that sends round ``lie_round``'s messages (its block
    parities and every answer until the next round opens) as an honest twin
    would whose frame differs from its own at ``position``; it is honest
    otherwise."""

    def session(config, frame):
        bits = frame.bits.copy()
        bits[position] ^= 1
        own, twin = honest(config, frame), honest(config, BitFrame(bits))
        outbound = (next(own), next(twin))
        current = None
        while True:
            for message in outbound[0]:
                if isinstance(message, wire.BlockParities):
                    current = message.round_index
            inbound = yield outbound[1] if current == lie_round else outbound[0]
            try:
                outbound = (own.send(inbound), twin.send(inbound))
            except StopIteration as stop:
                return stop.value

    return session


@pytest.mark.parametrize("scheduling", ["lockstep", "threaded"])
@pytest.mark.parametrize("kind", ["lcg", "shuffle"])
@pytest.mark.parametrize(
    "break_condition", [FixedRoundsBreak(3), QuietRoundsBreak(2), ThresholdBreak(1)]
)
def test_a_parity_that_changes_in_a_later_round_is_a_protocol_error(
    monkeypatch, break_condition, kind, scheduling
):
    # Round 0 corrects the one differing bit, 0.  Round 1 is answered as if
    # the initiator's bit 0 were flipped, so its search locates bit 0 again;
    # the second flip contradicts round 0's stored leaf [0, 1).  Taking it
    # would flip a bit the frames agree on.
    monkeypatch.setattr(
        engine, "initiator_session", _twin_in_round(engine.initiator_session, 1, 0)
    )
    reference = BitFrame([0] * 8)
    noisy = BitFrame([1, 0, 0, 0, 0, 0, 0, 0])
    config = engine.SessionConfig(
        8, StaticSchedule(0.25), break_condition, permutation_kind=kind, seed=5
    )
    threads_before = set(threading.enumerate())
    started = time.monotonic()
    with pytest.raises(ProtocolError, match=r"inconsistent peer parities for \[0, 1\) of round 0"):
        engine.run_session_pair(
            config, config, reference, noisy, scheduling=scheduling, timeout=5.0
        )
    assert time.monotonic() - started < 10.0
    assert set(threading.enumerate()) <= threads_before, "a session thread is still alive"


def _round_bound(condition, n):
    """The most rounds a session of ``n`` bits may run, as the engine states:
    a position flips at most once, so at most ``n`` flips in all."""
    if isinstance(condition, FixedRoundsBreak):
        return condition.total_rounds
    if isinstance(condition, ThresholdBreak):
        return n // condition.min_corrected + 1
    return (n + 1) * condition.quiet_rounds


def _random_liar(honest, rng, p):
    """Invert each answer entry independently with probability ``p``."""

    def lie(message):
        if not isinstance(message, wire.ParityAnswer):
            return message
        entries = tuple(
            (lo, hi, parity ^ (rng.random() < p)) for lo, hi, parity in message.entries
        )
        return wire.ParityAnswer(message.round_index, entries)

    return _lying_initiator(honest, lie)


@st.composite
def _liar_case(draw):
    breaks = st.one_of(
        st.builds(FixedRoundsBreak, st.integers(1, 6)),
        st.builds(QuietRoundsBreak, st.integers(1, 3)),
        st.builds(ThresholdBreak, st.integers(1, 4)),
    )
    template = SessionTemplate(
        break_condition=draw(breaks),
        permutation_kind=draw(st.sampled_from(("lcg", "shuffle"))),
        aggregation=draw(st.booleans()),
        parity_reuse=draw(st.booleans()),
    )
    length = draw(st.integers(64, 512))
    qber = draw(st.sampled_from((0.02, 0.05, 0.1, 0.2)))
    p = draw(st.sampled_from((0.01, 0.05, 0.2, 0.5)))
    scheduling = draw(st.sampled_from(tuple(engine.DRIVERS)))
    return template, length, qber, p, scheduling, draw(st.integers(0, 2**32))


@settings(deadline=None, max_examples=100)
@given(_liar_case(), st.randoms(use_true_random=False))
def test_a_random_liar_ends_in_an_error_or_an_honest_verdict_within_the_bound(case, rng):
    template, length, qber, p, scheduling, seed = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            engine, "initiator_session", _random_liar(engine.initiator_session, rng, p)
        )
        try:
            detail = run_trial_detailed(template, length, Bsc(qber), seed, scheduling=scheduling)
        except (ProtocolError, DecodeError):
            return
    result = detail.result
    frames_equal = result.initiator.final_frame == result.responder.final_frame
    for summary in (result.initiator, result.responder):
        assert (summary.status is wire.SessionStatus.SUCCESS) == frames_equal
    positions = [event.original_position for event in result.responder.corrections]
    assert len(positions) == len(set(positions)), "a position was corrected twice"
    assert result.responder.rounds_executed <= _round_bound(template.break_condition, length)


def _verdict_in_place_of_round(honest, fake_round):
    """An initiator that sends ``Result(SUCCESS)`` where round ``fake_round``'s
    block parities belong, and stops."""

    def session(config, frame):
        inner = honest(config, frame)
        outbound = next(inner)
        while not any(
            isinstance(message, wire.BlockParities) and message.round_index == fake_round
            for message in outbound
        ):
            outbound = inner.send((yield outbound))
        status = wire.SessionStatus.SUCCESS
        return engine._unreconciled(status, frame, 0), [wire.Result(status)]

    return session


@pytest.mark.parametrize("scheduling", ["lockstep", "threaded"])
@pytest.mark.parametrize(
    "fake_round, error", [(0, "unexpected verdict success"), (2, "expected BlockParities")]
)
def test_a_verdict_in_place_of_a_round_is_a_protocol_error(
    monkeypatch, scheduling, fake_round, error
):
    monkeypatch.setattr(
        engine,
        "initiator_session",
        _verdict_in_place_of_round(engine.initiator_session, fake_round),
    )
    reference = BitFrame.random(1024, seed=3)
    noisy, injected = apply_noise(reference, Bsc(0.05), 4)
    assert injected > 0
    config = SessionTemplate().config_for(1024, 0.05, 5)
    with pytest.raises(ProtocolError, match=error):
        engine.run_session_pair(
            config, config, reference, noisy, scheduling=scheduling, timeout=5.0
        )


def _shift_last_interval(answer):
    *rest, (lo, hi, parity) = answer.entries
    return dataclasses.replace(answer, entries=(*rest, (lo + 1, hi + 1, parity)))


def _drop_last_entry(answer):
    return dataclasses.replace(answer, entries=answer.entries[:-1])


def _next_round(answer):
    return dataclasses.replace(answer, round_index=answer.round_index + 1)


# fault -> (change to one ParityAnswer, the responder's refusal)
MISFITS = {
    "interval": (_shift_last_interval, r"answer interval \[\d+, \d+\) does not match query"),
    "count": (_drop_last_entry, r"expected \d+ answer entries, got \d+"),
    "round": (_next_round, r"answer references round \d+, expected \d+"),
}


@pytest.mark.parametrize("scheduling", ["lockstep", "threaded"])
@pytest.mark.parametrize("fault", list(MISFITS))
def test_an_answer_that_does_not_fit_its_query_is_refused(monkeypatch, scheduling, fault):
    # Each search receives exactly the answer to the interval it asked for,
    # because the responder refuses an answer whose round, entry count or
    # intervals differ from its query.
    alter, error = MISFITS[fault]
    altered = []

    def lie(message):
        if isinstance(message, wire.ParityAnswer) and not altered:
            altered.append(message)
            return alter(message)
        return message

    monkeypatch.setattr(
        engine, "initiator_session", _lying_initiator(engine.initiator_session, lie)
    )
    with pytest.raises(ProtocolError, match=error):
        run_trial_detailed(
            SessionTemplate(aggregation=True), 1024, Bsc(0.05), 3, scheduling=scheduling
        )
    assert len(altered[0].entries) > 1


def _verdict_in_place_of_handshake(config, frame):
    """A responder that answers the initiator's ``Init`` with ``Result(SUCCESS)``."""
    yield []
    status = wire.SessionStatus.SUCCESS
    return engine._unreconciled(status, frame, 0), [wire.Result(status)]


@pytest.mark.parametrize("scheduling", ["lockstep", "threaded"])
def test_a_verdict_in_place_of_the_handshake_is_a_protocol_error(monkeypatch, scheduling):
    monkeypatch.setattr(engine, "responder_session", _verdict_in_place_of_handshake)
    reference = BitFrame.random(1024, seed=3)
    noisy, injected = apply_noise(reference, Bsc(0.05), 4)
    assert injected > 0
    config = SessionTemplate().config_for(1024, 0.05, 5)
    with pytest.raises(ProtocolError, match="unexpected verdict success in the handshake"):
        engine.run_session_pair(
            config, config, reference, noisy, scheduling=scheduling, timeout=5.0
        )


def _silent_responder(received):
    """A responder that takes the initiator's ``Init`` and then never sends."""

    def session(config, frame):
        while True:
            received.append((yield []))

    return session


def test_a_silent_responder_is_a_deadlock_under_lockstep(monkeypatch):
    received = []
    monkeypatch.setattr(engine, "responder_session", _silent_responder(received))
    frame = BitFrame.random(256, seed=3)
    config = SessionTemplate().config_for(256, 0.05, 5)
    with pytest.raises(ProtocolError, match="protocol deadlock: no message in flight"):
        engine.run_session_pair(config, config, frame, frame, scheduling="lockstep")
    assert [type(message) for message in received] == [wire.Init]


def test_a_silent_responder_times_out_under_threaded(monkeypatch):
    received = []
    monkeypatch.setattr(engine, "responder_session", _silent_responder(received))
    frame = BitFrame.random(256, seed=3)
    config = SessionTemplate().config_for(256, 0.05, 5)
    threads_before = set(threading.enumerate())
    started = time.monotonic()
    with pytest.raises(TransportError):
        engine.run_session_pair(
            config, config, frame, frame, scheduling="threaded", timeout=0.5
        )
    assert time.monotonic() - started < 5.0
    assert set(threading.enumerate()) <= threads_before, "a session thread is still alive"
    assert [type(message) for message in received] == [wire.Init]


def _slowed(honest, first, each=0.0):
    """The honest party, sleeping ``first`` seconds before its first step and
    ``each`` before every later one: time spent outside ``recv``."""

    def session(config, frame):
        inner = honest(config, frame)
        message = None
        time.sleep(first)
        while True:
            try:
                outbound = inner.send(message)
            except StopIteration as stop:
                return stop.value
            message = yield outbound
            time.sleep(each)

    return session


def test_a_threaded_session_longer_than_a_few_waits_is_not_cut(monkeypatch):
    # The responder sleeps 10 ms on each of the 75 messages it takes: the
    # session outlasts four 100 ms waits by far, but no single wait stalls,
    # so it must run to its verdict.
    monkeypatch.setattr(
        engine, "responder_session", _slowed(engine.responder_session, 0.0, each=0.01)
    )
    frame = BitFrame.random(256, seed=3)
    noisy, _ = apply_noise(frame, Bsc(0.05), 4)
    config = SessionTemplate().config_for(256, 0.05, 5)
    threads_before = set(threading.enumerate())
    started = time.monotonic()
    pair = engine.run_session_pair(
        config, config, frame, noisy, scheduling="threaded", timeout=0.1
    )
    assert time.monotonic() - started > 4 * 0.1
    assert pair.responder.status is wire.SessionStatus.SUCCESS
    assert pair.responder.final_frame == frame
    assert set(threading.enumerate()) <= threads_before, "a session thread is still alive"


@pytest.mark.parametrize(
    "timeout, sleep, limit", [(0.2, 1.5, 1.0), (0.0, 0.3, 0.2), (-1.0, 0.3, 0.2)]
)
def test_a_party_blocked_outside_recv_is_refused_one_timeout_after_a_failure(
    monkeypatch, timeout, sleep, limit
):
    # The initiator's wait for the handshake fails after ``timeout``; the
    # sleeping responder gets one more ``timeout`` (none for a zero or
    # negative one) and the session is refused long before the sleep ends.
    monkeypatch.setattr(engine, "responder_session", _slowed(engine.responder_session, sleep))
    frame = BitFrame.random(256, seed=3)
    config = SessionTemplate().config_for(256, 0.05, 5)
    threads_before = set(threading.enumerate())
    started = time.monotonic()
    with pytest.raises(TransportError, match="session thread failed to finish in time"):
        engine.run_session_pair(
            config, config, frame, frame, scheduling="threaded", timeout=timeout
        )
    assert time.monotonic() - started < limit
    for thread in set(threading.enumerate()) - threads_before:
        thread.join()


def _talking_past_the_verdict(honest):
    """An initiator that sends one more message after its ``Result`` and
    then waits, unfinished, for a reply that cannot come."""

    def session(config, frame):
        inner = honest(config, frame)
        outbound = next(inner)
        while True:
            inbound = yield outbound
            try:
                outbound = inner.send(inbound)
            except StopIteration as stop:
                _, finals = stop.value
                break
        yield [*finals, wire.RoundDone(0, 0)]
        while True:
            yield []

    return session


def test_a_message_to_a_finished_party_is_left_unread(monkeypatch):
    # The responder finishes on the Result with a message still queued to
    # it; lockstep must not step its finished generator, and ends in the
    # deadlock of the initiator that waits on.
    monkeypatch.setattr(
        engine, "initiator_session", _talking_past_the_verdict(engine.initiator_session)
    )
    frame = BitFrame.random(256, seed=3)
    config = SessionTemplate().config_for(256, 0.05, 5)
    channel = wire.Channel()
    with pytest.raises(ProtocolError, match="protocol deadlock: no message in flight"):
        engine.run_session_pair(config, config, frame, frame, channel_obj=channel)
    assert channel.pending(wire.Direction.A_TO_B) == 1


def _forged_fingerprint(message):
    """Send ``Finalize`` with its fingerprint one bit off; pass anything else on."""
    if isinstance(message, wire.Finalize):
        return wire.Finalize(message.fingerprint ^ 1)
    return message


@pytest.mark.parametrize("scheduling", ["lockstep", "threaded"])
def test_a_verdict_that_contradicts_the_fingerprints_is_a_protocol_error(
    monkeypatch, scheduling
):
    # The initiator still compares the responder's honest fingerprint with
    # its own, so a reconciled session ends with Result(SUCCESS) while the
    # responder's comparison of the forged one says FAILURE.  Accepting that
    # verdict would report SUCCESS with no evidence that the frames agree.
    monkeypatch.setattr(
        engine, "initiator_session", _lying_initiator(engine.initiator_session, _forged_fingerprint)
    )
    with pytest.raises(ProtocolError, match="verdict success contradicts fingerprint comparison"):
        run_trial_detailed(SessionTemplate(), 1024, Bsc(0.05), 3, scheduling=scheduling)


# ---------------------------------------------------------------------------
# message-level fault injection
# ---------------------------------------------------------------------------


def _replace_entry(message, rng, make):
    """``message`` with one random entry of its tuple field rewritten by ``make``."""
    name = "entries" if isinstance(message, wire.ParityAnswer) else "intervals"
    items = list(getattr(message, name))
    i = rng.randrange(len(items))
    items[i : i + 1] = make(items[i])
    return dataclasses.replace(message, **{name: tuple(items)})


def _flip_answer(message, rng, n):
    return _replace_entry(message, rng, lambda e: [(e[0], e[1], e[2] ^ 1)])


def _drop_answer(message, rng, n):
    return _replace_entry(message, rng, lambda e: [])


def _shift_answer(message, rng, n):
    return _replace_entry(message, rng, lambda e: [(e[0] + 1, e[1] + 1, e[2])])


def _flip_block_parity(message, rng, n):
    parities = list(message.parities)
    parities[rng.randrange(len(parities))] ^= 1
    return wire.BlockParities(message.round_index, tuple(parities))


def _bump_round(message, rng, n):
    return dataclasses.replace(message, round_index=message.round_index + 1)


def _malformed_query(message, rng, n):
    def make(interval):
        lo, hi = interval
        return [rng.choice([(hi, lo), (lo, lo), (lo, n + 1), (-1, hi), (lo, 2**32), [lo, hi], (lo, hi, 0)])]

    return _replace_entry(message, rng, make)


def _wrong_round_done(message, rng, n):
    if rng.random() < 0.5:
        return wire.RoundDone(message.round_index, message.corrected + rng.randint(1, 3))
    return wire.RoundDone(message.round_index + rng.choice([-1, 1]), message.corrected)


# kind -> (mutated party, message type, mutation)
MUTATIONS = {
    "flipped answer entry": ("initiator", wire.ParityAnswer, _flip_answer),
    "dropped answer entry": ("initiator", wire.ParityAnswer, _drop_answer),
    "shifted answer entry": ("initiator", wire.ParityAnswer, _shift_answer),
    "flipped block parity": ("initiator", wire.BlockParities, _flip_block_parity),
    "bumped round": ("initiator", (wire.BlockParities, wire.ParityAnswer), _bump_round),
    "malformed query": ("responder", wire.ParityQuery, _malformed_query),
    "wrong RoundDone": ("responder", wire.RoundDone, _wrong_round_done),
}
INJECTED_SESSIONS = 210
INJECTION_TEMPLATES = (
    SessionTemplate(aggregation=True),
    SessionTemplate(schedule_variant="dynamic", break_condition=QuietRoundsBreak(2), aggregation=True),
)


def _mutating(honest, kind, target, rng, fired):
    """Wrap a party so that its ``target``-th message of the kind's type is mutated."""
    _, kinds, mutate = MUTATIONS[kind]

    def session(config, frame):
        inner = honest(config, frame)
        seen = 0

        def tamper(messages):
            nonlocal seen
            out = []
            for message in messages:
                if isinstance(message, kinds):
                    if seen == target:
                        message = mutate(message, rng, config.frame_length)
                        fired[kind] += 1
                    seen += 1
                out.append(message)
            return out

        outbound = next(inner)
        while True:
            inbound = yield tamper(outbound)
            try:
                outbound = inner.send(inbound)
            except StopIteration as stop:
                summary, finals = stop.value
                return summary, tamper(finals)

    return session


def test_injected_message_faults_end_in_a_clean_error_or_an_honest_verdict(monkeypatch):
    # Each session gets one mutation of one message.  Malformed messages the
    # encoder rejects end at the sender as DecodeError; the others reach the
    # peer as the sender's own objects and must be caught there.
    honest = {"initiator": engine.initiator_session, "responder": engine.responder_session}
    fired = Counter()
    outcomes = Counter()
    for i in range(INJECTED_SESSIONS):
        kinds = list(MUTATIONS)
        kind = kinds[i % len(kinds)]
        template = INJECTION_TEMPLATES[(i // len(kinds)) % len(INJECTION_TEMPLATES)]
        length = (64, 256, 1024)[(i // (2 * len(kinds))) % 3]
        rng = random.Random(i)
        party = MUTATIONS[kind][0]
        for name, original in honest.items():
            wrapped = _mutating(original, kind, rng.randrange(3), rng, fired) if name == party else original
            monkeypatch.setattr(engine, f"{name}_session", wrapped)
        try:
            detail = run_trial_detailed(template, length, Bsc(0.05), 7000 + i)
        except (ProtocolError, DecodeError) as exc:
            outcomes[type(exc).__name__] += 1
            continue
        result = detail.result
        frames_equal = result.initiator.final_frame == result.responder.final_frame
        for summary in (result.initiator, result.responder):
            if summary.status is wire.SessionStatus.SUCCESS:
                assert frames_equal, f"session {i} ({kind}): SUCCESS with unequal frames"
        outcomes[result.initiator.status.value] += 1
    assert set(fired) == set(MUTATIONS), fired
    assert outcomes["ProtocolError"] > 0 and outcomes["DecodeError"] > 0, outcomes


def test_no_search_outlives_a_session_that_ends_in_an_error(lying_initiator):
    # A round that ends in ProtocolError leaves searches live.  Any reference
    # cycle through them would keep their responder alive until the cyclic
    # collector runs, so with the collector off no responder may remain.
    gc.collect()
    gc.disable()
    try:
        with pytest.raises(ProtocolError):
            run_trial_detailed(SessionTemplate(aggregation=True), 4096, Bsc(0.10), 1000)
        assert not [obj for obj in gc.get_objects() if isinstance(obj, engine._Responder)]
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# a hostile responder, and a peer that sends the wrong message type
# ---------------------------------------------------------------------------


def _correcting_every_round(rounds):
    """A responder that echoes the initiator's ``Init`` and then closes every
    round at once, reporting one correction."""

    def session(config, frame):
        inbound = yield []
        inbound = yield [inbound]
        while True:
            rounds.append(inbound.round_index)
            inbound = yield [wire.RoundDone(inbound.round_index, 1)]

    return session


def _asking_forever(intervals, answered):
    """A responder that echoes the initiator's ``Init`` and then sends the
    query ``intervals`` of round 0 for ever."""

    def session(config, frame):
        inbound = yield []
        inbound = yield [inbound]
        while True:
            inbound = yield [wire.ParityQuery(0, intervals)]
            answered.append(inbound)

    return session


def _hostile_session(monkeypatch, responder, scheduling, error):
    """Run the honest initiator against ``responder`` on a 64-bit frame with a
    break rule that only quiet rounds end, expecting ``error`` at once and no
    session thread left behind."""
    monkeypatch.setattr(engine, "responder_session", responder)
    frame = BitFrame.random(64, seed=3)
    config = engine.SessionConfig(64, StaticSchedule(0.125), QuietRoundsBreak(2), seed=5)
    threads_before = set(threading.enumerate())
    started = time.monotonic()
    with pytest.raises(ProtocolError, match=error):
        engine.run_session_pair(config, config, frame, frame, scheduling=scheduling, timeout=5.0)
    assert time.monotonic() - started < 10.0
    assert set(threading.enumerate()) <= threads_before, "a session thread is still alive"
    return config


@pytest.mark.parametrize("scheduling", ["lockstep", "threaded"])
def test_a_responder_that_reports_more_corrections_than_bits_is_refused(
    monkeypatch, scheduling
):
    # One correction a round keeps a quiet-rounds session alive for ever;
    # an honest responder flips each of the 64 bits at most once.
    rounds = []
    _hostile_session(
        monkeypatch,
        _correcting_every_round(rounds),
        scheduling,
        "the responder reports 65 corrections of 64 bits",
    )
    assert rounds == list(range(65))


@pytest.mark.parametrize("scheduling", ["lockstep", "threaded"])
@pytest.mark.parametrize("intervals", [((0, 1),), ()])
def test_a_responder_that_asks_past_the_round_bound_is_refused(
    monkeypatch, scheduling, intervals
):
    # Round 0 of 64 bits in blocks of 8: (8 blocks + 64 flips) searches of
    # at most 7 steps each.  An empty query counts as one interval.
    answered = []
    config = _hostile_session(
        monkeypatch,
        _asking_forever(intervals, answered),
        scheduling,
        r"round 0 asks for more than 504 intervals",
    )
    assert len(engine.plan_round(config.schedule, 0, 64, ()).intervals) == 8
    assert len(answered) == 504
    assert all(isinstance(answer, wire.ParityAnswer) for answer in answered)


_lying_party = _lying_initiator  # the wrapper serves either party


def _swap(kind, replacement):
    """Send ``replacement`` in place of a party's first message of type ``kind``."""
    swapped = []

    def lie(message):
        if isinstance(message, kind) and not swapped:
            swapped.append(message)
            return replacement
        return message

    return lie


# The message a party's peer sends in place of the one expected, and the
# party's refusal.  The frames differ in one bit, so round 0 has a query.
WRONG_TO_INITIATOR = {
    "Init": (wire.Init, wire.Finalize(0), "expected Init or Result, got Finalize"),
    "RoundDone": (wire.RoundDone, wire.Finalize(0), r"expected RoundDone for round 0, got Fin"),
    "Finalize": (wire.Finalize, wire.RoundDone(0, 0), "expected Finalize, got RoundDone"),
}
WRONG_TO_RESPONDER = {
    "Init": (wire.Init, wire.Finalize(0), "expected Init, got Finalize"),
    "ParityAnswer": (wire.ParityAnswer, wire.RoundDone(0, 0), "expected ParityAnswer, got Round"),
    "Finalize": (
        wire.Finalize,
        wire.Result(wire.SessionStatus.SUCCESS),
        "expected Finalize, got Result",
    ),
    "Result": (wire.Result, wire.Finalize(0), "expected Result, got Finalize"),
}


def _one_round_pair(scheduling):
    reference = BitFrame([0] * 16)
    noisy = BitFrame([0] * 5 + [1] + [0] * 10)
    config = engine.SessionConfig(16, StaticSchedule(0.25), FixedRoundsBreak(1), seed=5)
    return engine.run_session_pair(
        config, config, reference, noisy, scheduling=scheduling, timeout=5.0
    )


@pytest.mark.parametrize("scheduling", ["lockstep", "threaded"])
@pytest.mark.parametrize(
    "party, point",
    [("initiator", point) for point in WRONG_TO_INITIATOR]
    + [("responder", point) for point in WRONG_TO_RESPONDER],
)
def test_a_message_of_the_wrong_type_is_a_protocol_error(monkeypatch, scheduling, party, point):
    # The peer of ``party`` sends the wrong message type where ``point`` belongs.
    peer = "responder" if party == "initiator" else "initiator"
    wrong = WRONG_TO_INITIATOR if party == "initiator" else WRONG_TO_RESPONDER
    kind, replacement, error = wrong[point]
    honest = getattr(engine, f"{peer}_session")
    monkeypatch.setattr(engine, f"{peer}_session", _lying_party(honest, _swap(kind, replacement)))
    threads_before = set(threading.enumerate())
    with pytest.raises(ProtocolError, match=error):
        _one_round_pair(scheduling)
    assert set(threading.enumerate()) <= threads_before, "a session thread is still alive"


@pytest.mark.parametrize("scheduling", ["lockstep", "threaded"])
def test_an_initiator_ends_a_handshake_whose_init_differs_in_config_mismatch(
    monkeypatch, scheduling
):
    # The responder accepts the initiator's Init but returns another; the
    # initiator must refuse it with Result(CONFIG_MISMATCH), which the
    # responder takes as the end of the session.
    other = wire.Init(16, "lcg", StaticSchedule(0.25), FixedRoundsBreak(1), 6)
    honest = engine.responder_session
    monkeypatch.setattr(engine, "responder_session", _lying_party(honest, _swap(wire.Init, other)))
    result = _one_round_pair(scheduling)
    mismatch = wire.SessionStatus.CONFIG_MISMATCH
    assert (result.initiator.status, result.responder.status) == (mismatch, mismatch)
    assert [type(entry.message) for entry in result.channel.transcript] == [
        wire.Init,
        wire.Init,
        wire.Result,
    ]
