"""Faulty peers: a lying initiator may only cause a clean error or an honest verdict."""

import threading
import time

import pytest

from cascade_sim import channel as wire
from cascade_sim import engine
from cascade_sim.bitframe import BitFrame, Bsc, apply_noise
from cascade_sim.errors import DecodeError, ProtocolError
from cascade_sim.harness import SessionTemplate, run_trial_detailed

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


def _lying_initiator(honest):
    def session(config, frame):
        inner = honest(config, frame)
        outbound = next(inner)
        while True:
            inbound = yield [_lie(message) for message in outbound]
            try:
                outbound = inner.send(inbound)
            except StopIteration as stop:
                summary, finals = stop.value
                return summary, [_lie(message) for message in finals]

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
        return engine._unreconciled(engine.Role.INITIATOR, status, frame, 0), [wire.Result(status)]

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


def _verdict_in_place_of_handshake(config, frame):
    """A responder that answers the initiator's ``Init`` with ``Result(SUCCESS)``."""
    yield []
    status = wire.SessionStatus.SUCCESS
    return engine._unreconciled(engine.Role.RESPONDER, status, frame, 0), [wire.Result(status)]


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
