"""Tests for the dichotomic parity search state machine."""

import math
import random

import pytest

from cascade_sim.binary_search import (
    BinarySearchState,
    disclosed_count,
    pending_query,
    start,
    step,
)
from cascade_sim.errors import ConfigurationError, ProtocolError
from cascade_sim.paritytree import split_point

# ---------------------------------------------------------------- oracles


def parity(bits):
    return sum(bits) & 1  # the XOR of a list of 0/1 bits


def bisect_oracle(local, remote, lo, hi):
    """Recursive reference bisection: returns (position, disclosures).

    Mirrors the contract directly: compare first-half parities (one
    disclosure), descend into the mismatching half.
    """
    if hi - lo == 1:
        return lo, 0
    mid = split_point(lo, hi)
    disclosures = 1
    if parity(local[lo:mid]) != parity(remote[lo:mid]):
        pos, more = bisect_oracle(local, remote, lo, mid)
    else:
        pos, more = bisect_oracle(local, remote, mid, hi)
    return pos, disclosures + more


def drive_search(local, remote, lo, hi, round_index=0):
    """Run the state machine to completion against two bit lists."""
    state = start(lo, hi, round_index)
    while not state.is_found:
        query = pending_query(state)
        q_lo, q_hi = query.interval
        state = step(state, parity(local[q_lo:q_hi]), parity(remote[q_lo:q_hi]))
    return state


# ------------------------------------------------------------------ tests


def test_worked_example_locates_position_three():
    local = [1, 0, 1, 1, 0, 0, 1, 1]   # holder of the reference copy
    remote = [1, 0, 1, 0, 0, 0, 1, 1]  # same frame with bit 3 flipped
    state = drive_search(remote, local, 0, 8)
    assert state.found == 3
    assert disclosed_count(state) == 3
    # and the first query is the left half of the whole block
    assert pending_query(start(0, 8)).interval == (0, 4)


def test_singleton_block_is_found_for_free():
    state = start(4, 5, round_index=2)
    assert state.is_found and state.found == 4
    assert disclosed_count(state) == 0
    assert pending_query(state) is None


def test_state_is_an_immutable_hashable_record():
    state = BinarySearchState(2, 9, 1)
    assert BinarySearchState._fields == ("lo", "hi", "round_index", "disclosed", "found")
    assert (state.disclosed, state.found) == (0, None)
    assert repr(state) == "BinarySearchState(lo=2, hi=9, round_index=1, disclosed=0, found=None)"
    assert state.interval == (2, 9) and not state.is_found
    assert start(2, 9, 1) == state
    assert {state: "running"}[BinarySearchState(2, 9, 1)] == "running"
    found = BinarySearchState(4, 5, 0, disclosed=3, found=4)
    assert found.is_found and found.interval == (4, 5)
    for name in BinarySearchState._fields:
        with pytest.raises(AttributeError):
            setattr(state, name, 0)


def test_empty_interval_rejected():
    with pytest.raises(ConfigurationError):
        start(3, 3)
    with pytest.raises(ConfigurationError):
        start(5, 1)


def test_step_after_found_rejected():
    with pytest.raises(ProtocolError):
        step(start(0, 1), 0, 0)


def test_step_validates_bits():
    with pytest.raises(ConfigurationError):
        step(start(0, 4), 2, 0)
    with pytest.raises(ConfigurationError):
        step(start(0, 4), 0, -1)


def test_reuse_steps_do_not_count_as_disclosures():
    state = start(0, 8)
    state = step(state, 1, 0, from_reuse=True)   # mismatch, go left
    assert state.interval == (0, 4) and state.disclosed == 0
    state = step(state, 1, 1)                    # match, go right
    assert state.interval == (2, 4) and state.disclosed == 1
    state = step(state, 0, 1, from_reuse=True)
    assert state.found == 2 and disclosed_count(state) == 1


def test_mismatch_descends_left_match_descends_right():
    state = step(start(0, 8), 0, 1)
    assert state.interval == (0, 4)
    state = step(start(0, 8), 1, 1)
    assert state.interval == (4, 8)
    # odd interval: larger half on the left
    state = step(start(0, 5), 1, 0)
    assert state.interval == (0, 3)
    state = step(start(0, 5), 0, 0)
    assert state.interval == (3, 5)


def test_round_index_is_carried_through():
    state = start(0, 8, round_index=5)
    assert pending_query(state).round_index == 5
    state = step(state, 0, 1)
    assert state.round_index == 5


def test_exhaustive_single_error_matches_oracle():
    # Every block length 1..32, every error position: the state machine,
    # the recursive oracle and the disclosure bound must all agree.
    for n in range(1, 33):
        bound = math.ceil(math.log2(n)) if n > 1 else 0
        for err in range(n):
            local = [0] * n
            remote = [0] * n
            remote[err] ^= 1
            state = drive_search(local, remote, 0, n)
            oracle_pos, oracle_bits = bisect_oracle(local, remote, 0, n)
            assert state.found == err == oracle_pos
            assert disclosed_count(state) == oracle_bits
            assert disclosed_count(state) <= bound
            if n > 1 and n & (n - 1) == 0:
                assert disclosed_count(state) == bound


def test_offset_blocks_search_their_own_window():
    local = [0] * 16
    remote = [0] * 16
    remote[11] ^= 1
    state = drive_search(local, remote, 8, 16)
    assert state.found == 11
    assert disclosed_count(state) == 3


def test_odd_error_counts_locate_a_true_difference():
    rng = random.Random(2024)
    for trial in range(200):
        n = rng.randint(2, 24)
        count = rng.choice([c for c in (1, 3, 5) if c <= n])
        local = [rng.randint(0, 1) for _ in range(n)]
        remote = list(local)
        for pos in rng.sample(range(n), count):
            remote[pos] ^= 1
        state = drive_search(local, remote, 0, n)
        assert local[state.found] != remote[state.found]
        assert disclosed_count(state) <= math.ceil(math.log2(n))
        # agreement with the oracle on the same inputs
        oracle_pos, oracle_bits = bisect_oracle(local, remote, 0, n)
        assert state.found == oracle_pos
        assert disclosed_count(state) == oracle_bits
