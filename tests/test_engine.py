"""End-to-end tests for the reconciliation engine."""

import dataclasses
import gc
import hashlib
import itertools
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

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
    Role,
    SessionConfig,
    _Responder,
    _Round,
    _Search,
    _first_half,
    _init_from_config,
    _round_prefix,
    error_frontier,
    frame_fingerprint,
    initiator_session,
    responder_session,
    round_mapping,
    run_session_pair,
)
from cascade_sim.errors import ConfigurationError, ProtocolError
from cascade_sim.harness import SessionTemplate, run_trial_detailed
from cascade_sim.paritytree import (
    build_tree,
    mark_error_leaf,
    multi_error_frontier,
    set_syndrome,
    split_point,
)
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
    frames += [BitFrame.zeros(length), BitFrame(np.ones(length, dtype=np.uint8))]
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


@pytest.mark.parametrize("scheduling", ["lockstep", "threaded"])
@pytest.mark.parametrize("aggregation", [False, True])
def test_no_search_outlives_its_session(scheduling, aggregation):
    # At 10% errors flips abort live searches.  A search left suspended keeps
    # its responder alive through its generator frame until the cyclic
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


# Honest sessions are not asserted to succeed: a cascaded flip into a
# current-round block that already passed its check is not re-checked, so
# some honest sessions end in FAILURE (ROADMAP item 1).
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
    for detail in runs.values():
        result = detail.result
        reconciled = result.responder.final_frame == detail.reference_frame
        for summary in (result.initiator, result.responder):
            assert (summary.status is SessionStatus.SUCCESS) == reconciled
        path = str(tmp_path / "session.transcript")
        write_transcript(path, result.channel.transcript)
        assert read_transcript(path) == list(result.channel.transcript)


@pytest.mark.parametrize("seed", [1011, 1016, 1033, 1034])
def test_every_search_is_made_for_a_block_that_differs(monkeypatch, seed):
    # Round entry and the cascade candidates are screened by the same parity
    # comparison, and those are the only places a search starts; a search of
    # a block that matches could only end without a find.
    differs = []
    make = _Search.__init__

    def checked(task, responder, round_index, block):
        differs.append(responder.rounds[round_index].differs(block))
        make(task, responder, round_index, block)

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
    # Round 2 of these sessions needs 4,136 to 4,993 waves; a cap of n + 8
    # waves used to end them in ProtocolError.
    template = SessionTemplate(parity_reuse=False, qber_estimate=0.01)
    detail = run_trial_detailed(template, 4096, Bsc(0.45), seed)
    result = detail.result
    assert result.responder.status is SessionStatus.SUCCESS
    assert result.initiator.final_frame == result.responder.final_frame


# ---------------------------------------------------------------- frontier


def _lattice_interval(block, position, depth):
    """The interval ``depth`` halvings below ``block`` that holds ``position``."""
    lo, hi = block
    for _ in range(depth):
        if hi - lo <= 1:
            break
        mid = split_point(lo, hi)
        lo, hi = (lo, mid) if position < mid else (mid, hi)
    return (lo, hi)


@st.composite
def _block_knowledge(draw):
    lo = draw(st.integers(0, 100))
    block = (lo, lo + draw(st.integers(1, 80)))
    positions = st.integers(block[0], block[1] - 1)
    learned = draw(
        st.lists(
            st.builds(_lattice_interval, st.just(block), positions, st.integers(0, 8)),
            max_size=20,
        )
    )
    corrected = draw(st.lists(positions, max_size=8))
    return block, learned, corrected


@settings(deadline=None)
@given(_block_knowledge(), st.randoms(use_true_random=False))
def test_error_frontier_matches_the_tree_frontier(knowledge, rng):
    block, learned, corrected = knowledge
    # The tree the engine used to keep: wire-learned intervals get a syndrome,
    # corrected leaves an error mark plus their new value.  Rising stamps keep
    # random values from conflicting.
    tree = build_tree(block[0], block[1], 0)
    on_wire = set()
    for stamp, interval in enumerate(learned):
        tree = set_syndrome(tree, interval, rng.randint(0, 1), stamp)
        on_wire.add(interval)
    for stamp, position in enumerate(corrected, start=len(learned)):
        leaf = (position, position + 1)
        tree = set_syndrome(mark_error_leaf(tree, position), leaf, rng.randint(0, 1), stamp)
        on_wire.add(leaf)
    expected = multi_error_frontier(tree, corrected)
    assert error_frontier(block, corrected, on_wire.__contains__) == expected


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


def _recursive_resolve(known, block, interval, _active=None):
    """The recursive lattice walk the responder used before its one-pass lookup."""
    if interval in known:
        return known[interval][0]
    if interval == block:
        return None
    if _active is None:
        _active = set()
    if interval in _active:
        return None
    _active.add(interval)
    parent = block
    while True:
        lo, hi = parent
        if hi - lo <= 1:
            return None
        mid = split_point(lo, hi)
        if interval[1] <= mid:
            child, sibling = (lo, mid), (mid, hi)
        elif interval[0] >= mid:
            child, sibling = (mid, hi), (lo, mid)
        else:
            return None
        if child == interval:
            break
        parent = child
    parent_value = _recursive_resolve(known, block, parent, _active)
    if parent_value is None:
        return None
    sibling_value = _recursive_resolve(known, block, sibling, _active)
    if sibling_value is None:
        return None
    value = parent_value ^ sibling_value
    known[interval] = (value, False)
    return value


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
            value = sum(view[node[0] - lo : node[1] - lo]) % 2
            known[node] = (value, draw(st.booleans()))
    interval = draw(st.sampled_from(nodes))
    path = [node for node in nodes if node[0] <= interval[0] and interval[1] <= node[1]]
    top = draw(st.sampled_from([node for node in path if node in known]))
    return block, view, known, top, interval


@settings(deadline=None)
@given(_stored_lattice())
def test_one_pass_lookup_matches_the_recursive_walk(case):
    block, view, known, top, interval = case
    expected_known = dict(known)
    expected = _recursive_resolve(expected_known, block, interval)
    config = basic_config(block[1], 0.1, 1)
    responder = _Responder(config, BitFrame.zeros(block[1]))
    plan = plan_round(config.schedule, 0, block[1], ())
    rnd = _Round(config, plan, responder.bits, ())
    rnd.known = dict(known)
    assert rnd.resolve(top, interval) == expected
    assert rnd.known == expected_known
    if expected is not None:
        assert expected == sum(view[interval[0] - block[0] : interval[1] - block[0]]) % 2


@settings(deadline=None)
@given(_stored_lattice())
def test_first_half_read_matches_the_one_level_walk(case):
    block, view, known, top, _ = case
    lo, hi = top
    assume(hi - lo >= 2)
    mid = split_point(lo, hi)
    config = basic_config(block[1], 0.1, 1)
    responder = _Responder(config, BitFrame.zeros(block[1]))
    plan = plan_round(config.schedule, 0, block[1], ())
    rnd = _Round(config, plan, responder.bits, ())
    rnd.known = dict(known)
    expected = rnd.resolve(top, (lo, mid))
    read = dict(known)
    assert _first_half(read, lo, mid, hi) == expected
    assert read == rnd.known


def test_learned_syndromes_follow_one_write_rule():
    config = basic_config(16, 0.25, 2)
    responder = _Responder(config, BitFrame.zeros(16))
    plan = plan_round(config.schedule, 0, 16, ())
    rnd = _Round(config, plan, responder.bits, (0,) * len(plan.intervals))
    rnd.learn((0, 2), 1)
    assert rnd.known[(0, 2)] == (1, True)
    # A differing wire value raises, whichever round it arrives in (the map
    # keeps no round), and leaves the entry as it was.
    with pytest.raises(ProtocolError, match=r"inconsistent peer parities for \[0, 2\) of round 0"):
        rnd.learn((0, 2), 0)
    assert rnd.known[(0, 2)] == (1, True)
    # An equal wire value leaves the entry as it was.
    rnd.learn((0, 2), 1)
    assert rnd.known[(0, 2)] == (1, True)
    # A wire value replaces a derived entry.
    rnd.known[(2, 4)] = (1, False)
    rnd.learn((2, 4), 0)
    assert rnd.known[(2, 4)] == (0, True)


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
TRANSCRIPT_PIN = "f7adb564e2a6a977a8c6e2bc0e82105b2ea0e7d76c1156aa95298a02879bf287"
# SHA-256 over the responder's correction events, per-round corrections and
# compromised positions for the same configurations.  Each wave's finds are
# credited in live-search (creation) order, the same with and without
# aggregation.
CORRECTION_PIN = "8b306b74d3a9379eda036858a39824134e252b63e504e505baae4a392dddfef1"


def test_transcripts_match_the_pinned_hash():
    digest = hashlib.sha256()
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
        r = result.responder
        corrections.update(
            repr((r.corrections, r.corrected_history, sorted(r.compromised_positions))).encode()
        )
    assert digest.hexdigest() == TRANSCRIPT_PIN
    assert corrections.hexdigest() == CORRECTION_PIN


# SHA-256 over the transcript bytes and the responder's final frame of one
# 262,144-bit session: it covers the whole-frame kernels (permutations and
# fingerprint) at the size where they dominate a session.
LONG_FRAME_PIN = "a4ba27cceae855bb15882eb25db6d7c0ea0d72149da77ccc435692ebbd2cbca3"


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
ODD_LENGTH_PIN = "be80c91edf9d91b9e2feceba99b38edc4c7255349f2418163762f8a9d38fcc7c"


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
    "chatty-threaded-4k": "d076ccb127aae05c58bbe608480ed7e53fe13d3408c24fb6f4513bd8024f6ea8",
    "dense-batched-4k": "b87acd6705e2bf5ac23c476537626cab492782a19bb534e56306af7b54ceeab5",
    "long-sparse-256k": "a5ba926f010b196f81dbd108fdb047d6c59468166c4e797aade63ceba9901f3a",
    "qber-sweep-2w": "486f4dd3d0f2dc83ba5ef2b719dc64a147c3327a0fae71f0df14545c62347503",
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
    each block's corrected set holds the round positions of the bits
    corrected while the round was open.
    """
    for rnd in responder.rounds:
        view = _round_view(responder.config, rnd.index, reference.bits)
        prefix = np.concatenate(([0], np.bitwise_xor.accumulate(view))).tolist()
        for (lo, hi), (value, _) in rnd.known.items():
            assert value == prefix[lo] ^ prefix[hi], (rnd.index, lo, hi)
        assert set(rnd.plan.intervals) <= rnd.known.keys()
        expected = {}
        for event in corrections:
            if event.corrected_round >= rnd.index:
                pos = int(rnd.mapping[event.original_position])
                block = rnd.plan.intervals[pos // rnd.plan.block_size]
                expected.setdefault(block, set()).add(pos)
        assert rnd.corrected == expected, rnd.index


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
