"""End-to-end tests for the reconciliation engine."""

import dataclasses
import gc
import hashlib
import itertools
import os
import random
import re
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cascade_sim import engine
from cascade_sim.bitframe import BitFrame, Bsc, apply_noise, FixedErrors, hamming_distance
from cascade_sim.channel import (
    BlockParities,
    Channel,
    Direction,
    Init,
    ParityQuery,
    ParityAnswer,
    Result,
    RoundDone,
    SessionStatus,
    encode_message,
    read_transcript,
    write_transcript,
)
from cascade_sim.engine import (
    CorrectionEvent,
    SessionConfig,
    _Responder,
    _Round,
    _Search,
    _first_half,
    _init_from_config,
    _round_prefix,
    frame_fingerprint,
    initiator_session,
    responder_session,
    round_mapping,
    run_session_pair,
)
from cascade_sim.errors import ConfigurationError, ProtocolError
from cascade_sim.harness import SessionTemplate, run_trial_detailed
from cascade_sim.paritytree import split_point
from cascade_sim.rng import SeededRng, label_from_text
from cascade_sim.schedule import (
    FixedRoundsBreak,
    QuietRoundsBreak,
    StaticSchedule,
    ThresholdBreak,
    block_size_for_round,
    partition_into_blocks,
    plan_round,
)

# ---------------------------------------------------------------- helpers


def basic_config(length, estimate, rounds, **overrides):
    return SessionConfig(
        length,
        StaticSchedule(estimate),
        FixedRoundsBreak(rounds),
        **overrides,
    )


def flip_bits(frame, positions):
    bits = frame.bits.copy()
    for pos in positions:
        bits[pos] ^= 1
    return BitFrame(bits)


def run_pair(config, frame_a, frame_b, **kwargs):
    return run_session_pair(config, config, frame_a, frame_b, **kwargs)


# ------------------------------------------------------------- fingerprint


def test_fingerprint_is_deterministic_and_seed_keyed():
    frame = BitFrame.random(300, seed=1)
    assert frame_fingerprint(frame, 7) == frame_fingerprint(frame, 7)
    assert frame_fingerprint(frame, 7) != frame_fingerprint(frame, 8)


def test_fingerprint_detects_every_single_bit_flip():
    # 257 bits spans multiple 32-bit limbs plus a ragged tail.
    frame = BitFrame.random(257, seed=3)
    base = frame_fingerprint(frame, 11)
    for pos in range(257):
        assert frame_fingerprint(flip_bits(frame, [pos]), 11) != base


def fingerprint_oracle(frame, seed):
    """Per-limb evaluation: sum of limb_i * x**(i + 1) modulo 2**61 - 1."""
    prime = (1 << 61) - 1
    point = 2 + SeededRng(seed).derive(label_from_text("frame-fingerprint-base")).next_u64() % (
        prime - 3
    )
    length = len(frame)
    padded = np.zeros(((length + 31) // 32) * 32, dtype=np.uint8)
    padded[:length] = frame.bits
    limbs = np.packbits(padded, bitorder="little").view("<u4")
    accumulator = 0
    power = 1
    for limb in limbs.tolist():
        power = (power * point) % prime
        accumulator = (accumulator + limb * power) % prime
    return accumulator


@pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 257, 4096, 4097, 1 << 18])
def test_fingerprint_matches_the_per_limb_oracle(length):
    frames = [BitFrame.random(length, seed=s) for s in range(3)]
    frames += [BitFrame([0] * length), BitFrame(np.ones(length, dtype=np.uint8))]
    for frame in frames:
        for seed in (0, 5, (1 << 64) - 1):
            assert frame_fingerprint(frame, seed) == fingerprint_oracle(frame, seed)


# --------------------------------------------------------------- handshake


def test_config_mismatch_aborts_after_two_messages():
    config_a = basic_config(64, 0.1, 2, seed=1)
    config_b = basic_config(64, 0.1, 2, seed=2)
    frame = BitFrame.random(64, seed=0)
    pair = run_session_pair(config_a, config_b, frame, frame)
    assert pair.initiator.status is SessionStatus.CONFIG_MISMATCH
    assert pair.responder.status is SessionStatus.CONFIG_MISMATCH
    assert len(pair.channel.transcript) == 2
    assert pair.initiator.rounds_executed == 0


def test_differing_frame_lengths_mismatch():
    config_a = basic_config(64, 0.1, 2)
    config_b = basic_config(128, 0.1, 2)
    pair = run_session_pair(
        config_a, config_b, BitFrame.random(64, 1), BitFrame.random(128, 1)
    )
    assert pair.responder.status is SessionStatus.CONFIG_MISMATCH


def test_responder_accepts_the_initiators_handshake_abort():
    config = basic_config(64, 0.1, 2)
    session = responder_session(config, BitFrame.random(64, 1))
    next(session)
    hello = Init(64, config.permutation_kind, config.schedule, config.break_condition, config.seed)
    assert session.send(hello) == [hello]
    with pytest.raises(StopIteration) as stop:
        session.send(Result(SessionStatus.CONFIG_MISMATCH))
    summary, finals = stop.value.value
    assert summary.status is SessionStatus.CONFIG_MISMATCH
    assert summary.rounds_executed == 0 and finals == []


def test_config_validation():
    with pytest.raises(ConfigurationError):
        basic_config(0, 0.1, 2)
    # Init carries the length as u32: the longest accepted frame encodes,
    # one bit more is refused at construction, not at the first send.
    encode_message(_init_from_config(basic_config((1 << 32) - 1, 0.1, 2)))
    with pytest.raises(ConfigurationError):
        basic_config(1 << 32, 0.1, 2)
    with pytest.raises(ConfigurationError):
        basic_config(16, 0.1, 2, permutation_kind="sorted")
    with pytest.raises(ConfigurationError):
        run_pair(
            basic_config(16, 0.1, 1),
            BitFrame.random(16, 1),
            BitFrame.random(16, 1),
            scheduling="fibers",
        )


def test_config_checks_the_schedule_and_break_types():
    with pytest.raises(
        ConfigurationError, match="schedule must be one of StaticSchedule, DynamicSchedule, got 0.1"
    ):
        SessionConfig(16, 0.1, FixedRoundsBreak(2))
    # A break rule given as its command-line text is refused when the
    # config is built, not by the wire encoder at the first send.
    with pytest.raises(
        ConfigurationError,
        match="break_condition must be one of FixedRoundsBreak, QuietRoundsBreak, "
        "ThresholdBreak, got 'fixed:4'",
    ):
        SessionTemplate(break_condition="fixed:4").config_for(16, 0.1, 1)


# ------------------------------------------------------------ clean frames


def test_zero_errors_disclose_exactly_the_block_parities():
    # 64 bits, estimate 0.1: rounds see 7 + 4 + 2 + 1 = 14 blocks.
    config = basic_config(64, 0.1, 4, seed=5)
    frame = BitFrame.random(64, seed=9)
    pair = run_pair(config, frame, frame)
    assert pair.initiator.status is SessionStatus.SUCCESS
    assert pair.responder.corrected_total == 0
    assert pair.responder.parity_bits_disclosed == 14
    assert pair.responder.corrected_history == (0, 0, 0, 0)
    kinds = [type(e.message) for e in pair.channel.transcript]
    assert ParityQuery not in kinds and ParityAnswer not in kinds
    assert pair.responder.final_frame == frame


# ------------------------------------------------------------ single error


def test_single_error_single_block_costs_one_plus_log2():
    # One block over 16 bits: 1 block parity + ceil(log2 16) search bits.
    for reuse in (False, True):
        config = basic_config(16, 1 / 16, 1, seed=2, parity_reuse=reuse)
        frame_a = BitFrame.random(16, seed=4)
        frame_b = flip_bits(frame_a, [11])
        pair = run_pair(config, frame_a, frame_b)
        assert pair.initiator.status is SessionStatus.SUCCESS
        assert pair.responder.final_frame == frame_a
        assert pair.responder.parity_bits_disclosed == 1 + 4
        assert pair.responder.corrected_total == 1
        event = pair.responder.corrections[0]
        assert event.original_position == 11
        assert event.corrected_round == 0 and event.block_round == 0
        assert event.disclosed_bits == 4


# ----------------------------------------------------------- cascade paths


def test_pair_in_one_round0_block_is_cleaned_up_by_round1():
    # Two errors sharing a round-0 block are invisible in round 0 but get
    # split apart by the round-1 permutation and corrected there.
    config = basic_config(16, 0.25, 2, seed=6)
    mapping1 = round_mapping(config, 1)
    half = 8
    pair_positions = None
    for p in range(4):
        for q in range(p + 1, 4):  # both inside round-0 block [0, 4)
            if (mapping1[p] < half) != (mapping1[q] < half):
                pair_positions = (p, q)
                break
        if pair_positions:
            break
    assert pair_positions is not None
    frame_a = BitFrame.random(16, seed=8)
    frame_b = flip_bits(frame_a, pair_positions)
    pair = run_pair(config, frame_a, frame_b)
    assert pair.initiator.status is SessionStatus.SUCCESS
    assert pair.responder.final_frame == frame_a
    assert pair.responder.corrected_history == (0, 2)
    corrected = {e.original_position for e in pair.responder.corrections}
    assert corrected == set(pair_positions)


def test_cascaded_corrections_are_attributed_to_older_rounds():
    # Across a small matrix of seeds some correction must come from
    # re-searching an earlier round's block (the protocol's defining move).
    seen_cascade = False
    for seed in range(25):
        config = basic_config(48, 0.15, 3, seed=seed)
        frame_a = BitFrame.random(48, seed=seed + 100)
        frame_b, injected = apply_noise(frame_a, FixedErrors(6), seed=seed + 200)
        pair = run_pair(config, frame_a, frame_b)
        for event in pair.responder.corrections:
            assert 0 <= event.original_position < 48
            if event.block_round < event.corrected_round:
                seen_cascade = True
                assert event.disclosed_bits >= 0
        if pair.responder.status is SessionStatus.SUCCESS:
            assert pair.responder.final_frame == frame_a
    assert seen_cascade


def test_block_parities_are_never_requeried_over_the_wire():
    config = basic_config(256, 0.05, 3, seed=13)
    frame_a = BitFrame.random(256, seed=21)
    frame_b, _ = apply_noise(frame_a, FixedErrors(9), seed=33)
    pair = run_pair(config, frame_a, frame_b)
    plans = {
        r: partition_into_blocks(
            256, block_size_for_round(StaticSchedule(0.05), r, 256, [])
        )
        for r in range(3)
    }
    queried = 0
    for entry in pair.channel.transcript:
        if not isinstance(entry.message, ParityQuery):
            continue
        blocks = plans[entry.message.round_index]
        sizes = {hi - lo for lo, hi in blocks}
        for lo, hi in entry.message.intervals:
            queried += 1
            assert (lo, hi) not in blocks
            # every query is a strict sub-interval of one block
            assert any(b_lo <= lo and hi <= b_hi for b_lo, b_hi in blocks)
            assert hi - lo < max(sizes)
    assert queried > 0


# ------------------------------------------------------- outcome reporting


def test_undercorrected_session_reports_failure_honestly():
    # One round cannot fix 40 errors spread over 6 blocks.
    config = basic_config(256, 0.02, 1, seed=3)
    frame_a = BitFrame.random(256, seed=5)
    frame_b, _ = apply_noise(frame_a, FixedErrors(40), seed=7)
    pair = run_pair(config, frame_a, frame_b)
    assert pair.initiator.status is SessionStatus.FAILURE
    assert pair.responder.status is SessionStatus.FAILURE
    assert pair.initiator.fingerprint != pair.responder.fingerprint
    assert hamming_distance(pair.responder.final_frame, frame_a) > 0


def test_threshold_break_stops_after_a_quiet_round():
    config = SessionConfig(
        512, StaticSchedule(0.05), ThresholdBreak(1), seed=17
    )
    frame_a = BitFrame.random(512, seed=2)
    frame_b, _ = apply_noise(frame_a, FixedErrors(2), seed=4)
    pair = run_pair(config, frame_a, frame_b)
    history = pair.responder.corrected_history
    assert history[-1] < 1
    assert all(c >= 1 for c in history[:-1])
    if pair.responder.status is SessionStatus.SUCCESS:
        assert pair.responder.final_frame == frame_a


def test_compromised_positions_track_corrections():
    config = basic_config(128, 0.06, 4, seed=10)
    frame_a = BitFrame.random(128, seed=11)
    frame_b, _ = apply_noise(frame_a, FixedErrors(7), seed=12)
    pair = run_pair(config, frame_a, frame_b)
    corrected = {e.original_position for e in pair.responder.corrections}
    assert pair.responder.compromised_positions == frozenset(corrected)
    assert len(pair.responder.corrections) == pair.responder.corrected_total
    # summaries agree between the parties
    assert pair.initiator.status is pair.responder.status
    assert pair.initiator.parity_bits_disclosed == pair.responder.parity_bits_disclosed


# ------------------------------------------------- batching and scheduling


def test_batched_and_unbatched_runs_correct_identically():
    for seed in range(6):
        frame_a = BitFrame.random(512, seed=seed)
        frame_b, _ = apply_noise(frame_a, FixedErrors(8), seed=seed + 50)
        results = {}
        for aggregation in (False, True):
            config = basic_config(512, 0.02, 4, seed=seed, aggregation=aggregation)
            results[aggregation] = run_pair(config, frame_a, frame_b)
        off, on = results[False], results[True]
        assert on.responder.final_frame == off.responder.final_frame
        assert on.responder.corrections == off.responder.corrections
        assert (
            on.responder.parity_bits_disclosed == off.responder.parity_bits_disclosed
        )
        assert len(on.channel.transcript) <= len(off.channel.transcript)


def test_lockstep_and_threaded_transcripts_are_identical():
    frame_a = BitFrame.random(384, seed=31)
    frame_b, _ = apply_noise(frame_a, FixedErrors(6), seed=32)
    config = basic_config(384, 0.03, 3, seed=33, aggregation=True)
    lockstep = run_pair(config, frame_a, frame_b, scheduling="lockstep")
    threaded = run_pair(config, frame_a, frame_b, scheduling="threaded")
    assert lockstep.channel.transcript_bytes() == threaded.channel.transcript_bytes()
    assert lockstep.responder.final_frame == threaded.responder.final_frame


def test_a_threaded_session_with_an_endless_timeout_succeeds():
    # No wait or join may overflow on a timeout past what poll or
    # threading take in one call.
    frame_a = BitFrame.random(256, seed=31)
    frame_b, _ = apply_noise(frame_a, FixedErrors(4), seed=32)
    config = basic_config(256, 0.03, 3, seed=33)
    result = run_pair(config, frame_a, frame_b, scheduling="threaded", timeout=float("inf"))
    assert result.initiator.status is SessionStatus.SUCCESS
    assert result.responder.final_frame == frame_a


@pytest.mark.parametrize("scheduling", ["lockstep", "threaded"])
def test_a_nan_timeout_is_a_configuration_error_and_starts_no_thread(scheduling):
    frame_a = BitFrame.random(256, seed=31)
    frame_b, _ = apply_noise(frame_a, FixedErrors(4), seed=32)
    config = basic_config(256, 0.03, 3, seed=33)
    before = set(threading.enumerate())
    with pytest.raises(ConfigurationError, match="NaN"):
        run_pair(config, frame_a, frame_b, scheduling=scheduling, timeout=float("nan"))
    assert set(threading.enumerate()) <= before


@pytest.mark.parametrize("scheduling", ["lockstep", "threaded"])
@pytest.mark.parametrize("aggregation", [False, True])
def test_no_search_outlives_its_session(scheduling, aggregation):
    # At 10% errors flips abort live searches.  Any reference cycle through a
    # search or round record would keep its responder alive until the cyclic
    # collector runs, so with the collector off none may remain.
    gc.collect()
    gc.disable()
    try:
        detail = run_trial_detailed(
            SessionTemplate(aggregation=aggregation), 4096, Bsc(0.10), 1000, scheduling=scheduling
        )
        assert detail.record.corrected_errors > 0
        assert not [obj for obj in gc.get_objects() if isinstance(obj, _Responder)]
    finally:
        gc.enable()


def test_repeat_runs_are_byte_identical():
    frame_a = BitFrame.random(200, seed=41)
    frame_b, _ = apply_noise(frame_a, FixedErrors(5), seed=42)
    config = basic_config(200, 0.04, 3, seed=43)
    first = run_pair(config, frame_a, frame_b)
    second = run_pair(config, frame_a, frame_b)
    assert first.channel.transcript_bytes() == second.channel.transcript_bytes()
    assert first.responder.corrections == second.responder.corrections


def test_live_transcript_survives_a_file_round_trip(tmp_path):
    frame_a = BitFrame.random(96, seed=51)
    frame_b, _ = apply_noise(frame_a, FixedErrors(3), seed=52)
    pair = run_pair(basic_config(96, 0.08, 2, seed=53), frame_a, frame_b)
    path = str(tmp_path / "session.transcript")
    write_transcript(path, pair.channel.transcript)
    assert read_transcript(path) == list(pair.channel.transcript)


@st.composite
def _session_case(draw):
    length = draw(st.integers(1, 3000))
    noise = draw(
        st.one_of(
            st.builds(Bsc, st.floats(0.0, 0.45)),
            st.builds(FixedErrors, st.integers(0, length)),
        )
    )
    breaks = st.one_of(
        st.builds(FixedRoundsBreak, st.integers(1, 5)),
        st.builds(QuietRoundsBreak, st.integers(1, 2)),
        st.builds(ThresholdBreak, st.integers(1, 3)),
    )
    template = SessionTemplate(
        schedule_variant=draw(st.sampled_from(("static", "dynamic"))),
        growth_factor=draw(st.integers(2, 4)),
        break_condition=draw(breaks),
        permutation_kind=draw(st.sampled_from(("lcg", "shuffle"))),
        parity_reuse=draw(st.booleans()),
        qber_estimate=draw(st.one_of(st.none(), st.floats(0.001, 0.5))),
    )
    return template, length, noise, draw(st.integers(0, 2**32)), draw(st.booleans())


def _odd_blocks(detail):
    """Blocks of the executed rounds whose difference between the reference
    frame and the responder's final frame is odd, as ``(round, lo, hi)``.

    Each round's blocks are rebuilt from the handshake's configuration with
    ``round_mapping`` and ``plan_round``.  Cascade re-checks every block that
    holds a flipped bit, so no block of an honest session ends odd; a session
    may still end in FAILURE with an even residual in every block.
    """
    init = detail.result.channel.transcript[0].message
    config = SessionConfig(
        init.frame_length, init.schedule, init.break_condition, init.permutation_kind, init.seed
    )
    responder = detail.result.responder
    difference = detail.reference_frame.bits ^ responder.final_frame.bits
    odd = []
    for round_index in range(responder.rounds_executed):
        history = responder.corrected_history[:round_index]
        plan = plan_round(config.schedule, round_index, config.frame_length, history)
        view = _round_view(config, round_index, difference)
        prefix = np.concatenate(([0], np.bitwise_xor.accumulate(view))).tolist()
        odd += [(round_index, lo, hi) for lo, hi in plan.intervals if prefix[lo] ^ prefix[hi]]
    return odd


# Honest sessions are not asserted to succeed: a residual of two errors in
# one block leaves every block's parity even, and the session ends in
# FAILURE.  They are asserted to leave no block odd.
@settings(
    deadline=None, max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(_session_case())
def test_random_sessions_agree_across_drivers_and_batching(tmp_path, case):
    template, length, noise, seed, threaded_aggregation = case
    runs = {
        aggregation: run_trial_detailed(
            dataclasses.replace(template, aggregation=aggregation), length, noise, seed
        )
        for aggregation in (False, True)
    }
    threaded = run_trial_detailed(
        dataclasses.replace(template, aggregation=threaded_aggregation),
        length,
        noise,
        seed,
        scheduling="threaded",
    )
    lockstep = runs[threaded_aggregation].result.channel
    assert threaded.result.channel.transcript_bytes() == lockstep.transcript_bytes()

    off, on = (runs[aggregation].result.responder for aggregation in (False, True))
    assert on.final_frame == off.final_frame
    assert on.corrected_history == off.corrected_history
    assert on.parity_bits_disclosed == off.parity_bits_disclosed
    assert on.compromised_positions == off.compromised_positions
    assert on.corrections == off.corrections
    for detail in (*runs.values(), threaded):
        # An honest session corrects each original position at most once,
        # and only positions that carried an injected error.
        responder = detail.result.responder
        assert len(responder.compromised_positions) == len(responder.corrections)
        assert len(responder.corrections) <= detail.record.injected_errors
        assert _odd_blocks(detail) == []
    for detail in runs.values():
        result = detail.result
        reconciled = result.responder.final_frame == detail.reference_frame
        for summary in (result.initiator, result.responder):
            assert (summary.status is SessionStatus.SUCCESS) == reconciled
        path = str(tmp_path / "session.transcript")
        write_transcript(path, result.channel.transcript)
        assert read_transcript(path) == list(result.channel.transcript)


@pytest.mark.parametrize("seed", [1010, 1013])
def test_no_block_ends_with_an_odd_difference(seed):
    # A flip that lands in a current-round block that already passed its
    # check must queue that block again; these sessions left 4 and 8 blocks
    # odd when only earlier rounds' blocks were queued.
    detail = run_trial_detailed(SessionTemplate(), 4096, Bsc(0.02), seed)
    assert detail.record.corrected_errors > 0
    assert _odd_blocks(detail) == []


@pytest.mark.parametrize("seed", [1011, 1016, 1033, 1034])
def test_every_search_is_made_for_a_block_that_differs(monkeypatch, seed):
    # Round entry and the cascade candidates are screened by the same parity
    # comparison, and those are the only places a search starts; a search of
    # a block that matches could only end without a find.
    differs = []
    make = _Search.__init__

    def checked(task, rnd, block):
        differs.append(rnd.differs(block))
        make(task, rnd, block)

    monkeypatch.setattr(_Search, "__init__", checked)
    detail = run_trial_detailed(SessionTemplate(), 4096, Bsc(0.02), seed)
    assert detail.record.corrected_errors > 0
    assert differs and all(differs)


# ---------------------------------------------------------------- mappings


def test_round_zero_mapping_is_identity():
    config = basic_config(32, 0.1, 2, seed=9)
    assert np.array_equal(round_mapping(config, 0), np.arange(32))
    for kind in ("shuffle", "lcg"):
        config = basic_config(32, 0.1, 2, seed=9, permutation_kind=kind)
        mapping = round_mapping(config, 1)
        assert sorted(mapping) == list(range(32))
        assert not np.array_equal(mapping, np.arange(32))


@pytest.mark.parametrize("kind", ["shuffle", "lcg"])
def test_round_prefix_equals_the_running_xor_of_the_round_view(kind):
    # SessionConfig refuses length 0; _round_prefix reads only the length,
    # the permutation kind and the seed.
    rng = np.random.default_rng(17)
    for n in [*range(301), 4097, (1 << 18) + 3]:
        config = types.SimpleNamespace(frame_length=n, permutation_kind=kind, seed=5)
        bits = rng.integers(0, 2, n, dtype=np.uint8)
        for rnd in (0, 1):
            mapping, prefix, array = _round_prefix(config, rnd, bits)
            assert np.array_equal(mapping, round_mapping(config, rnd))
            view = np.empty(n, dtype=np.uint8)
            view[mapping] = bits
            expect = np.concatenate(([0], np.bitwise_xor.accumulate(view))).astype(np.uint8)
            assert isinstance(prefix, bytearray)
            assert prefix == expect.tobytes(), (n, rnd)
            assert np.shares_memory(array, np.frombuffer(prefix, dtype=np.uint8))


@pytest.mark.parametrize("kind", ["shuffle", "lcg"])
@pytest.mark.parametrize("scheduling", ["lockstep", "threaded"])
def test_parties_share_each_round_mapping_within_a_session_only(monkeypatch, kind, scheduling):
    # The generators are looked up in engine's globals on a memo miss, so
    # every real build passes through the wrapper.  It keeps no array: a
    # reference held here would keep the memo entry alive.
    builds = []
    for name in ("gen_lcg_permutation", "gen_shuffle_permutation"):

        def counted(*args, _original=getattr(engine, name)):
            mapping = _original(*args)
            builds.append((args, mapping.flags.writeable))
            return mapping

        monkeypatch.setattr(engine, name, counted)
    template = SessionTemplate(permutation_kind=kind)
    rounds = []
    # Back to back with the same seed and no collection in between: the
    # second session finds nothing of the first in the memo.
    for _ in range(2):
        detail = run_trial_detailed(template, 4096, Bsc(0.02), 7, scheduling=scheduling)
        assert detail.record.corrected_errors > 0
        rounds.append(detail.result.responder.rounds_executed)
        assert len(builds) == rounds[-1] - 1
        assert sorted(args[1] for args, _ in builds) == list(range(1, rounds[-1]))
        assert not any(writeable for _, writeable in builds)
        builds.clear()
    assert rounds[0] == rounds[1] > 1
    gc.collect()
    assert not engine._MAPPINGS

    config = basic_config(4096, 0.02, 4, seed=7, permutation_kind=kind)
    mapping = round_mapping(config, 1)
    assert round_mapping(config, 1) is mapping
    assert len(builds) == 1
    with pytest.raises(ValueError):
        mapping[0] = 0
    del mapping
    gc.collect()
    assert not engine._MAPPINGS


def test_concurrent_sessions_with_one_seed_match_a_serial_run():
    # Three threaded sessions at once look up the same memo keys.
    template = SessionTemplate(aggregation=True)
    expected = run_trial_detailed(template, 4096, Bsc(0.03), 11).result.channel.transcript_bytes()
    threads_before = set(threading.enumerate())
    start = threading.Barrier(3)
    transcripts = []
    failures = []

    def session():
        try:
            start.wait()
            detail = run_trial_detailed(template, 4096, Bsc(0.03), 11, scheduling="threaded")
            transcripts.append(detail.result.channel.transcript_bytes())
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    runners = [threading.Thread(target=session) for _ in range(3)]
    for runner in runners:
        runner.start()
    for runner in runners:
        runner.join(timeout=60)
    assert not failures
    assert transcripts == [expected] * 3
    assert set(threading.enumerate()) <= threads_before, "a session thread is still alive"


@pytest.mark.parametrize("kind", ["shuffle", "lcg"])
def test_lazy_inverse_matches_the_scatter_inverse(kind):
    for n in (1, 17, 4097, (1 << 18) + 3):
        config = basic_config(n, 0.1, 4, seed=13, permutation_kind=kind)
        bits = BitFrame.random(n, seed=2).bits
        for round_index in range(4):
            plan = plan_round(config.schedule, round_index, n, (0,) * round_index)
            rnd = _Round(config, plan, bits, (0,) * len(plan.intervals))
            assert rnd.inverse is None
            eager = np.empty(n, dtype=np.int64)
            eager[rnd.mapping] = np.arange(n)
            assert [rnd.original(pos) for pos in range(n)] == eager.tolist(), (n, round_index)
            assert (rnd.inverse is None) == (round_index == 0)


def test_a_round_without_a_find_builds_no_inverse(monkeypatch):
    responders = []
    original_run_round = _Responder.run_round

    def recorded_run_round(self, round_index, block_msg):
        responders.append(self)
        return (yield from original_run_round(self, round_index, block_msg))

    monkeypatch.setattr(_Responder, "run_round", recorded_run_round)
    config = basic_config(4096, 0.001, 6, seed=21)
    frame_a = BitFrame.random(4096, seed=22)
    frame_b, _ = apply_noise(frame_a, FixedErrors(4), seed=23)
    pair = run_pair(config, frame_a, frame_b)
    assert pair.responder.status is SessionStatus.SUCCESS
    (core,) = set(responders)
    found_in = {event.block_round for event in pair.responder.corrections}
    assert found_in and len(found_in) < len(core.rounds) - 1
    for rnd in core.rounds:
        assert (rnd.inverse is not None) == (rnd.index in found_in and rnd.index > 0), rnd.index


def test_round_zero_prefix_leaves_the_frame_unmodified():
    config = basic_config(4097, 0.1, 2, seed=9)
    bits = BitFrame.random(4097, seed=4).bits.copy()
    before = bits.copy()
    _, prefix, array = _round_prefix(config, 0, bits)
    array[1:] ^= 1  # a flip pass writes the prefix, never the frame
    assert np.array_equal(bits, before)
    assert prefix[-1] == np.bitwise_xor.reduce(bits) ^ 1


@pytest.mark.parametrize("seed", [1007, 1009, 1016])
def test_long_honest_rounds_are_not_cut_short(seed):
    # Round 1 of these sessions needs 1,833 to 4,463 waves, and seed 1007's
    # passes the n + 8 waves of a cap that used to end such rounds in
    # ProtocolError.
    template = SessionTemplate(parity_reuse=False, qber_estimate=0.01)
    detail = run_trial_detailed(template, 4096, Bsc(0.45), seed)
    result = detail.result
    assert result.responder.status is SessionStatus.SUCCESS
    assert result.initiator.final_frame == result.responder.final_frame


# ---------------------------------------------------------------- lookup


def _lattice_nodes(block):
    """Every interval of ``block``'s split lattice, the block included."""
    nodes, stack = [], [block]
    while stack:
        lo, hi = stack.pop()
        nodes.append((lo, hi))
        if hi - lo > 1:
            mid = split_point(lo, hi)
            stack += [(lo, mid), (mid, hi)]
    return sorted(nodes)


@st.composite
def _stored_lattice(draw):
    lo = draw(st.integers(0, 100))
    block = (lo, lo + draw(st.integers(1, 64)))
    size = block[1] - block[0]
    view = draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
    nodes = _lattice_nodes(block)
    known = {}
    for node in nodes:
        # The block root is always stored: the initiator announces it.
        if node == block or draw(st.booleans()):
            known[node] = sum(view[node[0] - lo : node[1] - lo]) % 2
    top = draw(st.sampled_from([node for node in nodes if node in known]))
    return block, view, known, top


@settings(deadline=None)
@given(_stored_lattice())
def test_first_half_read_matches_the_one_level_walk(case):
    block, view, known, top = case
    lo, hi = top
    assume(hi - lo >= 2)
    mid = split_point(lo, hi)
    # One level below the stored top: the first half if stored, else the top
    # XOR a stored second half; else nothing is known.  The read writes
    # nothing.
    if (lo, mid) in known:
        expected = known[(lo, mid)]
    elif (mid, hi) in known:
        expected = known[(lo, hi)] ^ known[(mid, hi)]
    else:
        expected = None
    read = dict(known)
    assert _first_half(read, lo, mid, hi) == expected
    assert read == known
    if expected is not None:
        assert expected == sum(view[lo - block[0] : mid - block[0]]) % 2


def test_learned_syndromes_follow_one_write_rule():
    config = basic_config(16, 0.25, 2)
    responder = _Responder(config, BitFrame([0] * 16))
    plan = plan_round(config.schedule, 0, 16, ())
    rnd = _Round(config, plan, responder.bits, (0,) * len(plan.intervals))
    rnd.learn((0, 2), 1)
    assert rnd.known[(0, 2)] == 1
    # A differing value raises, whichever round it arrives in (the map keeps
    # no round), and leaves the entry as it was.
    with pytest.raises(ProtocolError, match=r"inconsistent peer parities for \[0, 2\) of round 0"):
        rnd.learn((0, 2), 0)
    assert rnd.known[(0, 2)] == 1
    # An equal value leaves the entry as it was.
    rnd.learn((0, 2), 1)
    assert rnd.known[(0, 2)] == 1
    # Whatever stored the first value: an announced block parity is refused
    # in the same way.
    block = plan.intervals[0]
    with pytest.raises(ProtocolError, match="inconsistent peer parities"):
        rnd.learn(block, 1)
    assert rnd.known[block] == 0


# ---------------------------------------------------------------- searches


def _round_of_16():
    """A round record over 16 zero bits whose map holds only the block
    ``(0, 16)``, announced as odd: the initiator's frame differs at 11."""
    config = basic_config(16, 0.25, 2)
    plan = plan_round(config.schedule, 0, 16, ())
    rnd = _Round(config, plan, BitFrame([0] * 16).bits, (0,) * len(plan.intervals))
    rnd.known = {(0, 16): 1}
    return rnd


def _remote(interval):
    return int(interval[0] <= 11 < interval[1])


def test_a_one_position_search_is_found_at_creation():
    task = _Search(_round_of_16(), (5, 6))
    assert (task.state.found, task.state.disclosed) == (5, 0)
    assert task.advance(True) is None


def test_a_search_over_a_stored_lattice_needs_no_wire_step():
    rnd = _round_of_16()
    for node in _lattice_nodes((0, 16)):
        rnd.known[node] = _remote(node)
    task = _Search(rnd, (0, 16))
    assert task.advance(True) is None
    assert (task.state.found, task.state.disclosed) == (11, 0)


def test_an_answer_learns_both_halves_and_refuses_a_contradiction():
    rnd = _round_of_16()
    task = _Search(rnd, (0, 16))
    assert task.advance(True) == (0, 8)
    task.answer(0)
    assert (rnd.known[(0, 8)], rnd.known[(8, 16)]) == (0, 1)
    # A wire value that differs from the derived second half is refused.
    with pytest.raises(ProtocolError, match=r"inconsistent peer parities for \[8, 16\)"):
        rnd.learn((8, 16), 0)
    assert rnd.known[(8, 16)] == 1
    assert task.advance(True) == (8, 12)
    # An answer of 1 implies 0 for (12, 16), which contradicts a stored 1:
    # refused, with the entry as it was and the search not stepped.
    rnd.learn((12, 16), 1)
    with pytest.raises(ProtocolError, match=r"inconsistent peer parities for \[12, 16\)"):
        task.answer(1)
    assert rnd.known[(12, 16)] == 1
    assert (task.state.lo, task.state.hi, task.state.disclosed) == (8, 16, 1)


def test_without_reuse_every_first_half_crosses_the_wire():
    rnd = _round_of_16()
    for node in _lattice_nodes((0, 16)):
        rnd.known[node] = _remote(node)
    known = dict(rnd.known)
    task = _Search(rnd, (0, 16))
    asked = []
    while (need := task.advance(False)) is not None:
        asked.append(need)
        task.answer(_remote(need))
    assert asked == [(0, 8), (8, 12), (8, 10), (10, 11)]
    assert (task.state.found, task.state.disclosed) == (11, 4)
    assert rnd.known == known


def test_a_round_whose_searches_never_advance_hits_the_quiet_wave_guard(monkeypatch):
    # Searches that ask their block's first half forever never flip a bit,
    # so the round must end in the guard's error after quiet_limit waves.
    def stalled(task, reuse):
        lo, hi = task.state.lo, task.state.hi
        return (lo, split_point(lo, hi))

    n = 1024
    config = basic_config(n, 0.02, 3, seed=51, aggregation=True)
    plan = plan_round(config.schedule, 0, n, ())
    quiet_limit = min(plan.block_size, n).bit_length() + 1
    # A wave answers each live search at most once, and round 0 has one
    # search per block at most; past that many answers the guard has failed,
    # so the test fails too instead of looping forever.
    most_answers = quiet_limit * len(plan.intervals)
    answered = []

    def counted(task, parity):
        answered.append(parity)
        if len(answered) > most_answers:
            raise AssertionError(f"{len(answered)} answers: the quiet-wave guard never fired")

    monkeypatch.setattr(_Search, "advance", stalled)
    monkeypatch.setattr(_Search, "answer", counted)
    frame_a = BitFrame.random(n, seed=52)
    frame_b, _ = apply_noise(frame_a, FixedErrors(5), seed=53)
    channel = Channel()
    message = rf"internal: round 0 ran {quiet_limit} waves without a flip"
    with pytest.raises(ProtocolError, match=message):
        run_pair(config, frame_a, frame_b, channel_obj=channel)
    sent = [entry.message for entry in channel.transcript]
    queries = [message for message in sent if isinstance(message, ParityQuery)]
    assert 0 < len(queries) <= quiet_limit
    assert {query.round_index for query in queries} == {0}


# ---------------------------------------------------------------- initiator


def _initiator_past_handshake(config, frame):
    """An initiator generator that has just announced round 0's block parities."""
    session = initiator_session(config, frame)
    (hello,) = next(session)
    (announced,) = session.send(hello)
    return session, announced


def test_initiator_announces_and_answers_view_parities():
    n = 100
    config = basic_config(n, 0.1, 4, seed=11)
    frame = BitFrame.random(n, seed=5)
    session, announced = _initiator_past_handshake(config, frame)
    for round_index in (0, 1):
        sources = np.empty(n, dtype=np.int64)
        sources[round_mapping(config, round_index)] = np.arange(n)
        view = frame.bits[sources]

        def parity(lo, hi):
            return int(np.bitwise_xor.reduce(view[lo:hi]))

        plan = plan_round(config.schedule, round_index, n, (0,) * round_index)
        blocks = tuple(parity(lo, hi) for lo, hi in plan.intervals)
        assert announced == BlockParities(round_index, blocks)
        # The last interval straddles the first block boundary: off every lattice.
        edge = plan.intervals[0][1]
        intervals = ((0, n), (n - 1, n), (edge - 1, edge + 1))
        (answer,) = session.send(ParityQuery(round_index, intervals))
        entries = tuple((lo, hi, parity(lo, hi)) for lo, hi in intervals)
        assert answer == ParityAnswer(round_index, entries)
        (announced,) = session.send(RoundDone(round_index, 0))


@pytest.mark.parametrize(
    "query",
    [
        ParityQuery(0, ((0, 101),)),
        ParityQuery(0, ((5, 5),)),
        ParityQuery(1, ((0, 1),)),
    ],
    ids=["hi-past-the-frame", "empty-interval", "round-not-opened"],
)
def test_initiator_rejects_malformed_queries(query):
    config = basic_config(100, 0.1, 4, seed=11)
    session, _ = _initiator_past_handshake(config, BitFrame.random(100, seed=5))
    with pytest.raises(ProtocolError):
        session.send(query)


# ------------------------------------------------------------- transcripts

# SHA-256 over transcript bytes and the responder's final frame for the
# configurations below.  It pins the wire behaviour: a change that alters
# transcripts on purpose updates this value and says why.
TRANSCRIPT_PIN = "42135a4eaf2a88fbea5ff4e3fff3c4eceedaeb7272d15eddc1844dbabdb3c053"
# SHA-256 over each transcript's messages, as (direction, sequence, message)
# reprs, for the same configurations.  It pins what the parties say apart
# from how the wire encodes it, so a change of byte layout alone leaves it.
MESSAGE_PIN = "c27f689003b15bf1a5974e4773c4a563380807fad7b57659136b0b09cd2fc678"
# SHA-256 over the responder's correction events, per-round corrections and
# compromised positions for the same configurations.  Each wave's finds are
# credited in live-search (creation) order, the same with and without
# aggregation.
CORRECTION_PIN = "0a6237d5a76ffc7285f4fd258df9284a7027fa552137ed18974ba909f0446285"


def test_transcripts_match_the_pinned_hash():
    digest = hashlib.sha256()
    messages = hashlib.sha256()
    corrections = hashlib.sha256()
    for schedule, aggregation, reuse, kind, qber in itertools.product(
        ("static", "dynamic"), (False, True), (False, True), ("lcg", "shuffle"), (0.02, 0.15)
    ):
        template = SessionTemplate(
            schedule_variant=schedule,
            aggregation=aggregation,
            parity_reuse=reuse,
            permutation_kind=kind,
        )
        result = run_trial_detailed(template, 1024, Bsc(qber), 1).result
        digest.update(result.channel.transcript_bytes())
        digest.update(result.responder.final_frame.bits.tobytes())
        transcript = result.channel.transcript
        messages.update(
            repr([(e.direction.value, e.sequence, e.message) for e in transcript]).encode()
        )
        r = result.responder
        corrections.update(
            repr((r.corrections, r.corrected_history, sorted(r.compromised_positions))).encode()
        )
    assert digest.hexdigest() == TRANSCRIPT_PIN
    assert messages.hexdigest() == MESSAGE_PIN
    assert corrections.hexdigest() == CORRECTION_PIN


# SHA-256 over the transcript bytes and the responder's final frame of one
# 262,144-bit session: it covers the whole-frame kernels (permutations and
# fingerprint) at the size where they dominate a session.
LONG_FRAME_PIN = "7e3269d0de06cbaa45990e3a6f80e2d28689a5e19e3a4754413c46d099f2ff43"


def test_long_frame_transcript_matches_the_pinned_hash():
    result = run_trial_detailed(
        SessionTemplate(aggregation=True), 1 << 18, FixedErrors(64), 1
    ).result
    assert result.responder.status is SessionStatus.SUCCESS
    digest = hashlib.sha256()
    digest.update(result.channel.transcript_bytes())
    digest.update(result.responder.final_frame.bits.tobytes())
    assert digest.hexdigest() == LONG_FRAME_PIN


# SHA-256 over the transcript bytes and the responder's final frame at odd
# and tiny lengths.  High error rates give blocks of one to three bits and a
# short last block, the edges of the vectorised block check on round entry.
ODD_LENGTH_PIN = "96e4b9ed08b61c2f3bf734de1e31ebb9fd4c3d7b590e8a831419807848739a9b"


def test_odd_length_transcripts_match_the_pinned_hash():
    digest = hashlib.sha256()
    for length, schedule, aggregation, qber in itertools.product(
        (1, 2, 3, 97, 4097), ("static", "dynamic"), (False, True), (0.3, 0.45)
    ):
        template = SessionTemplate(schedule_variant=schedule, aggregation=aggregation)
        result = run_trial_detailed(template, length, Bsc(qber), 5).result
        digest.update(result.channel.transcript_bytes())
        digest.update(result.responder.final_frame.bits.tobytes())
    assert digest.hexdigest() == ODD_LENGTH_PIN


# perfbench/digest.py's SHA-256 over each benchmark workload's transcripts,
# so the workloads the benchmark times are tied to a pinned wire behaviour.
WORKLOAD_DIGESTS = {
    "chatty-threaded-4k": "3a3f3040e6f747a1cb4b121d794f92c57c8659f06ce4a92e81c06f25b3ca4756",
    "dense-batched-4k": "06068776d4d894eb9cedc5c52de28fc8ec5082fd875a404cee7670234e20a6a8",
    "long-sparse-256k": "76af7b72f62c9066bf23fc737e91aab8731ed72cd873e66066ebac7c7e31cc1d",
    "qber-sweep-2w": "074b1c61e3a96aa1be64dec9634a99ce1613e6fd100acc1988d2347c2ac0d523",
}


def test_benchmark_workload_transcripts_match_the_pinned_digests():
    script = Path(__file__).resolve().parents[1] / "perfbench" / "digest.py"
    # No bytecode cache: the benchmark's directory is only read.
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    assert dict(line.split() for line in proc.stdout.splitlines()) == WORKLOAD_DIGESTS


def test_the_benchmark_layer_tracer_still_fits_the_engine():
    # perfbench/layers.py wraps engine and channel names (binary_search.step
    # and the paritytree imports among them); an engine change that drops
    # one breaks the benchmark's own test, so tier-1 runs it.
    script = Path(__file__).resolve().parents[1] / "perfbench" / "test_layers.py"
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(script)],
        capture_output=True,
        text=True,
        env=env,
        cwd=script.parents[1],
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # Every test ran and passed: none skipped.
    assert re.fullmatch(r"\d+ passed in .*", proc.stdout.splitlines()[-1]), proc.stdout


# ------------------------------------------------------------ prefix state


def _round_view(config, round_index, bits):
    view = np.empty(config.frame_length, dtype=np.uint8)
    view[round_mapping(config, round_index)] = bits
    return view


def _check_prefix_state(responder, rng):
    """Every opened round's prefix parities agree with the current frame."""
    n = responder.n
    for rnd in responder.rounds:
        view = _round_view(responder.config, rnd.index, responder.bits)
        sampled = tuple(tuple(sorted(rng.sample(range(n + 1), 2))) for _ in range(40))
        for lo, hi in rnd.plan.intervals + sampled:
            expected = int(np.bitwise_xor.reduce(view[lo:hi]))
            assert rnd.parity(lo, hi) == expected, (rnd.index, lo, hi)


def _check_round_records(responder, reference, corrections):
    """Every round record agrees with the reference frame and the corrections.

    Each parity-map entry, from the wire or derived, is the reference
    parity of its interval in the round's view; every block is stored; and
    each corrected bit's leaf is stored in every round opened by the time
    it was corrected.
    """
    for rnd in responder.rounds:
        view = _round_view(responder.config, rnd.index, reference.bits)
        prefix = np.concatenate(([0], np.bitwise_xor.accumulate(view))).tolist()
        for (lo, hi), value in rnd.known.items():
            assert value == prefix[lo] ^ prefix[hi], (rnd.index, lo, hi)
        assert set(rnd.plan.intervals) <= rnd.known.keys()
        for event in corrections:
            if event.corrected_round >= rnd.index:
                pos = int(rnd.mapping[event.original_position])
                assert (pos, pos + 1) in rnd.known, (rnd.index, pos)


@pytest.mark.parametrize("length", [257, 1024])
def test_prefix_parities_never_drift(monkeypatch, length):
    rng = random.Random(length)
    original_run_round = _Responder.run_round
    responders = []

    def checked_run_round(self, round_index, block_msg):
        responders.append(self)
        reply = yield from original_run_round(self, round_index, block_msg)
        _check_prefix_state(self, rng)
        return reply

    monkeypatch.setattr(_Responder, "run_round", checked_run_round)
    for seed, qber, aggregation, kind in itertools.product(
        (1, 2, 3), (0.02, 0.10, 0.30), (False, True), ("lcg", "shuffle")
    ):
        template = SessionTemplate(aggregation=aggregation, permutation_kind=kind)
        detail = run_trial_detailed(template, length, Bsc(qber), seed)
        responder = detail.result.responder
        (core,) = set(responders)
        responders.clear()
        assert len(core.rounds) == responder.rounds_executed
        _check_round_records(core, detail.reference_frame, responder.corrections)
        assert responder.corrections
        for event in responder.corrections:
            assert type(event.original_position) is int
        assert all(type(position) is int for position in responder.compromised_positions)
