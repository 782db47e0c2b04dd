"""Tests for bit frames, permutation families and noise injection."""

import numpy as np

import pytest

from cascade_sim.bitframe import (
    BitFrame,
    Bsc,
    FixedErrors,
    apply_noise,
    gen_lcg_permutation,
    gen_shuffle_permutation,
    hamming_distance,
    out_shuffle_mapping,
    _lcg_packed,
)
from cascade_sim.errors import ConfigurationError


# ---------------------------------------------------------------- oracles


def out_shuffle_oracle(length):
    """Deal positions into two piles and interleave, by brute force."""
    first = list(range(0, length, 2))
    second = list(range(1, length, 2))
    order = first + second  # source indices in target order
    targets = {src: tgt for tgt, src in enumerate(order)}
    return [targets[i] for i in range(length)]


def lcg_keys_oracle(lcg_seed, count):
    keys = []
    state = lcg_seed % (1 << 32)
    for _ in range(count):
        state = (1664525 * state + 1013904223) % (1 << 32)
        keys.append(state)
    return keys


def stable_sort_oracle(keys):
    """Selection of indices by (key, index) pairs — stability by brute force."""
    return [i for _, i in sorted((k, i) for i, k in enumerate(keys))]


# --------------------------------------------------------------- BitFrame


def test_frame_round_trip_and_accessors():
    frame = BitFrame([1, 0, 1, 1, 0])
    assert len(frame) == 5
    assert frame.bits.tolist() == [1, 0, 1, 1, 0]
    assert frame[0] == 1 and frame[4] == 0
    assert list(frame) == [1, 0, 1, 1, 0]


def test_frame_is_immutable():
    frame = BitFrame([1, 0])
    with pytest.raises(AttributeError):
        frame.bits = np.array([0, 0], dtype=np.uint8)
    with pytest.raises(ValueError):
        frame.bits[0] = 0


def test_frame_constructor_copies_input():
    src = np.array([1, 0, 1], dtype=np.uint8)
    frame = BitFrame(src)
    src[0] = 0
    assert frame[0] == 1


def test_frame_equality_and_hash():
    a = BitFrame([1, 0, 1])
    b = BitFrame([1, 0, 1])
    c = BitFrame([1, 0, 0])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != BitFrame([1, 0, 1, 0])


def test_frame_rejects_non_bits():
    with pytest.raises(ConfigurationError):
        BitFrame([0, 2, 1])
    with pytest.raises(ConfigurationError):
        BitFrame(np.zeros((2, 2), dtype=np.uint8))


def test_random_frames_follow_their_seed():
    r1 = BitFrame.random(5000, seed=1)
    r2 = BitFrame.random(5000, seed=1)
    r3 = BitFrame.random(5000, seed=2)
    assert r1 == r2
    assert r1 != r3
    # fair coin: 5000 draws, sd ~ 35, five sigma band
    assert abs(sum(r1) - 2500) < 180


def test_hamming_distance():
    assert hamming_distance([1, 0, 1], [1, 0, 1]) == 0
    assert hamming_distance([1, 0, 1], [0, 0, 0]) == 2
    with pytest.raises(ConfigurationError):
        hamming_distance([1], [1, 0])


# ------------------------------------------------------------ permutations


@pytest.mark.parametrize("generate", [gen_lcg_permutation, gen_shuffle_permutation])
def test_generators_return_read_only_int64_bijections(generate):
    # The generators build their arrays as bijections and hand them over
    # unchecked; this is where the bijection is checked.
    for n in (0, 1, 2, 9, 17, 4095, 4096, 4097, 1 << 18):
        for rnd in range(5):
            mapping = generate(n, rnd, 11)
            assert mapping.dtype == np.int64
            assert not mapping.flags.writeable
            assert np.array_equal(np.sort(mapping), np.arange(n))
            assert np.array_equal(generate(n, rnd, 11), mapping)


def test_out_shuffle_known_example_and_oracle():
    assert list(out_shuffle_mapping(8)) == [0, 4, 1, 5, 2, 6, 3, 7]
    for n in range(0, 33):
        assert list(out_shuffle_mapping(n)) == out_shuffle_oracle(n)


def test_shuffle_family_contract():
    for n in (1, 2, 3, 5, 8, 64):
        for rnd in range(4):
            perm = gen_shuffle_permutation(n, rnd, seed=9)
            assert sorted(perm) == list(range(n))
            assert np.array_equal(perm, gen_shuffle_permutation(n, rnd, seed=9))
    assert list(gen_shuffle_permutation(1, 0, 5)) == [0]


def test_shuffle_rounds_are_distinct():
    # The rotation term separates rounds whose shuffle powers coincide.
    for n in (8, 16, 50, 64):
        perms = [gen_shuffle_permutation(n, r, seed=3) for r in range(7)]
        for i in range(len(perms)):
            for j in range(i + 1, len(perms)):
                assert not np.array_equal(perms[i], perms[j])
    for n in (2, 3, 4, 5):
        perms = [gen_shuffle_permutation(n, r, seed=3) for r in range(n)]
        for i in range(len(perms) - 1):
            assert not np.array_equal(perms[i], perms[i + 1])


def test_lcg_permutation_matches_key_stream_construction():
    # Reconstruct: derive the lcg seed the same way, walk the recurrence,
    # stable-argsort the keys.
    from cascade_sim.rng import SeededRng, label_from_text

    for n in (1, 4, 17, 4096):
        for rnd in range(3):
            perm = gen_lcg_permutation(n, rnd, seed=1)
            lcg_seed = (
                SeededRng(1)
                .derive(label_from_text("permutation/lcg"), rnd)
                .next_u64()
                % (1 << 32)
            )
            expect = stable_sort_oracle(lcg_keys_oracle(lcg_seed, n))
            assert list(perm) == expect


def test_lcg_keys_match_scalar_recurrence_at_scale():
    # The packed values are built in rows of isqrt(count): 4095, 4096, 4097
    # and 65,537 end just short of, exactly on and just past a row boundary.
    for lcg_seed in (0, (1 << 32) - 1, (1 << 40) + 12345):
        for count in (0, 1, 2, 3, 4095, 4096, 4097, 65_537, 70_000):
            packed = _lcg_packed(lcg_seed, count)
            assert packed.dtype == np.uint64
            assert (packed >> np.uint64(32)).tolist() == lcg_keys_oracle(lcg_seed, count)
            assert np.array_equal(packed & np.uint64(0xFFFFFFFF), np.arange(count))


def test_lcg_permutation_is_the_stable_argsort_of_the_scalar_keys_at_scale():
    from cascade_sim.rng import SeededRng, label_from_text

    n = 1 << 18
    for rnd in (1, 2):
        lcg_seed = SeededRng(9).derive(label_from_text("permutation/lcg"), rnd).next_u64()
        keys = np.array(lcg_keys_oracle(lcg_seed, n), dtype=np.int64)
        expect = np.argsort(keys, kind="stable")
        assert np.array_equal(gen_lcg_permutation(n, rnd, seed=9), expect)


def test_lcg_keys_are_distinct_so_the_sort_order_is_unique():
    # Full period (Hull-Dobell) makes the keys distinct, so the permutation
    # is the one order of its keys, whichever sort produces it.
    keys = _lcg_packed(123_456_789, 1 << 18) >> np.uint64(32)
    assert np.unique(keys).size == keys.size


def test_lcg_family_contract():
    for n in (1, 2, 9, 100):
        seen = set()
        for rnd in range(5):
            perm = gen_lcg_permutation(n, rnd, seed=4)
            assert sorted(perm) == list(range(n))
            assert np.array_equal(perm, gen_lcg_permutation(n, rnd, seed=4))
            seen.add(tuple(perm))
        if n >= 9:
            assert len(seen) == 5  # distinct across rounds


def test_permutation_generators_reject_bad_arguments():
    with pytest.raises(ConfigurationError):
        gen_shuffle_permutation(4, -1, 0)
    with pytest.raises(ConfigurationError):
        gen_lcg_permutation(-1, 0, 0)
    # The packed sort keeps the index in 32 bits; this raises before any
    # frame-sized array is allocated.
    with pytest.raises(ConfigurationError):
        gen_lcg_permutation((1 << 32) + 1, 1, 0)


# ------------------------------------------------------------------ noise


def test_bsc_flip_count_is_binomial_and_reported():
    frame = BitFrame([0] * 20000)
    noisy, count = apply_noise(frame, Bsc(0.1), seed=5)
    assert count == hamming_distance(frame, noisy)
    # binomial(20000, 0.1): mean 2000, sd ~ 42.4; five sigma
    assert abs(count - 2000) < 213
    again, count2 = apply_noise(frame, Bsc(0.1), seed=5)
    assert again == noisy and count2 == count


def test_bsc_zero_rate_is_noiseless():
    frame = BitFrame.random(512, seed=3)
    noisy, count = apply_noise(frame, Bsc(0.0), seed=1)
    assert count == 0 and noisy == frame


def test_bsc_validates_rate():
    Bsc(0.49)
    with pytest.raises(ConfigurationError):
        Bsc(0.5)
    with pytest.raises(ConfigurationError):
        Bsc(-0.01)


def test_fixed_errors_exact_distinct_count():
    frame = BitFrame([0] * 100)
    for count in (0, 1, 7, 100):
        noisy, reported = apply_noise(frame, FixedErrors(count), seed=2)
        assert reported == count
        assert hamming_distance(frame, noisy) == count
    with pytest.raises(ConfigurationError):
        apply_noise(frame, FixedErrors(101), seed=2)
    with pytest.raises(ConfigurationError):
        FixedErrors(-1)


def test_fixed_errors_positions_vary_with_seed():
    frame = BitFrame([0] * 64)
    a, _ = apply_noise(frame, FixedErrors(6), seed=1)
    b, _ = apply_noise(frame, FixedErrors(6), seed=2)
    assert a != b
