import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmst.codes import CartesianCode, CodeError, encode_cartesian, make_code
from bmst.coupling import (BmstSystem, InterleaverSet, bpsk_map, encode_frame,
                           generate_interleavers, make_system, superpose,
                           true_branch_words)


def test_interleavers_deterministic():
    a = generate_interleavers(100, 4, seed=7)
    b = generate_interleavers(100, 4, seed=7)
    assert np.array_equal(a.perms, b.perms)
    c = generate_interleavers(100, 4, seed=8)
    assert not np.array_equal(a.perms, c.perms)


def test_systems_compare_and_hash_by_their_parts():
    # an interleaver set is its own object, so two builds differ; one system
    # equals itself and a copy of its fields
    a, b = make_system("RC[2,1]^4", 1, 3, 0), make_system("RC[2,1]^4", 1, 3, 0)
    assert a == a and a != b and len({a, b, a}) == 2
    assert BmstSystem(a.basic, a.interleavers, a.L) == a
    assert a.interleavers != generate_interleavers(8, 1, 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 200), st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_interleavers_bijective_with_inverse(n, m, seed):
    il = generate_interleavers(n, m, seed)
    assert np.array_equal(il.perms[0], np.arange(n))
    for p, inv in zip(il.perms, il.invs):
        assert np.array_equal(np.sort(p), np.arange(n))
        v = np.arange(n)
        assert np.array_equal(v[p][inv], v)


def _identity_system(m, L):
    """[2,2] identity short code, B=2 (so v == message), identity perms."""
    basic = CartesianCode(short=make_code(np.eye(2, dtype=np.uint8)), B=2)
    n = basic.n
    perms = np.tile(np.arange(n), (m + 1, 1))
    il = InterleaverSet(perms=perms, invs=np.argsort(perms, axis=1))
    return BmstSystem(basic=basic, interleavers=il, L=L)


def test_encode_frame_superposes_history():
    sys_ = _identity_system(m=1, L=2)
    c, v = encode_frame(sys_, [[1, 0, 1, 0], [0, 1, 1, 0]], return_intermediate=True)
    assert c[0].tolist() == [1, 0, 1, 0]  # nothing in the history yet
    assert v[1].tolist() == [0, 1, 1, 0]
    assert c[1].tolist() == [1, 1, 0, 0]  # v1 xor v0
    assert c[2].tolist() == [0, 1, 1, 0]  # termination block: v1 alone


def test_termination_blocks_must_be_zero():
    # the encoder takes the L message blocks only; it appends the m
    # all-zero termination blocks itself
    sys_ = _identity_system(m=1, L=1)
    with pytest.raises(CodeError):
        encode_frame(sys_, [[1, 1, 0, 0], [1, 0, 0, 0]])


def test_encoders_refuse_message_bits_other_than_0_and_1():
    # a bit of 2 would encode as 0: the generator product is taken mod 2
    sys_ = _identity_system(m=1, L=2)
    with pytest.raises(CodeError, match="0 or 1"):
        encode_frame(sys_, [[1, 0, 2, 0], [0, 1, 1, 0]])
    with pytest.raises(CodeError, match="0 or 1"):
        encode_cartesian(sys_.basic, np.array([[1, 0, 1, 3]]))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(0, 5), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_superpose_matches_direct_loop(L, m, B, seed):
    sys_ = make_system(f"RC[2,1]^{B}", m=m, L=L, seed=seed)
    words = np.random.default_rng(seed).integers(0, 2, (L, m + 1, sys_.n), dtype=np.uint8)
    perms = sys_.interleavers.perms
    ref = np.zeros((L + m, sys_.n), dtype=np.uint8)
    for s in range(L + m):
        for i in range(m + 1):
            if 0 <= s - i < L:
                ref[s] ^= words[s - i, i][perms[i]]
    assert np.array_equal(superpose(sys_, words), ref)


def test_superpose_permutes_each_branch_onto_its_row():
    # bit k of layer t on branch i, in v^(t)'s bit order, lands on row t+i
    # at the position that interleaver i moves bit k to
    sys_ = make_system("SPC[4,3]^3", m=3, L=4, seed=2)
    invs = sys_.interleavers.invs
    for t, i, k in [(0, 0, 5), (1, 2, 0), (3, 3, 11), (2, 1, 7)]:
        words = np.zeros((sys_.L, sys_.m + 1, sys_.n), dtype=np.uint8)
        words[t, i, k] = 1
        x = superpose(sys_, words)
        assert x.shape == (sys_.total_blocks, sys_.n) and x.dtype == np.uint8
        assert np.argwhere(x).tolist() == [[t + i, invs[i, k]]]


def test_frame_shape_and_tail():
    sys_ = make_system("RC[2,1]^10", m=3, L=5, seed=0)
    msgs = np.random.default_rng(0).integers(0, 2, (5, sys_.k), dtype=np.uint8)
    c, v = encode_frame(sys_, msgs, return_intermediate=True)
    assert c.shape == (8, 20) and v.shape == (5, 20)  # v has no termination layers
    assert np.array_equal(v, encode_cartesian(sys_.basic, msgs))
    assert np.array_equal(c, superpose(sys_, true_branch_words(sys_, v)))


def test_frame_matches_direct_superposition():
    sys_ = make_system("SPC[4,3]^6", m=2, L=4, seed=3)
    rng = np.random.default_rng(1)
    msgs = rng.integers(0, 2, (4, sys_.k), dtype=np.uint8)
    c, v_out = encode_frame(sys_, msgs, return_intermediate=True)
    v = np.zeros((sys_.total_blocks, sys_.n), dtype=np.uint8)
    v[:4] = encode_cartesian(sys_.basic, msgs)
    assert np.array_equal(v_out, v[:4])
    perms = sys_.interleavers.perms
    for t in range(sys_.total_blocks):
        ref = np.zeros(sys_.n, dtype=np.uint8)
        for i in range(sys_.m + 1):
            if t - i >= 0:
                ref ^= v[t - i][perms[i]]
        assert np.array_equal(c[t], ref)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_frame_encoding_linear(seed):
    sys_ = make_system("RC[2,1]^8", m=2, L=3, seed=9)
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, (3, sys_.k), dtype=np.uint8)
    b = rng.integers(0, 2, (3, sys_.k), dtype=np.uint8)
    assert np.array_equal(encode_frame(sys_, a ^ b),
                          encode_frame(sys_, a) ^ encode_frame(sys_, b))


def test_true_branch_words_convention():
    sys_ = make_system("RC[2,1]^5", m=2, L=3, seed=4)
    msgs = np.random.default_rng(2).integers(0, 2, (3, sys_.k), dtype=np.uint8)
    _, v = encode_frame(sys_, msgs, return_intermediate=True)
    words = true_branch_words(sys_, v)
    assert words.shape == (sys_.L, sys_.m + 1, sys_.n)
    for t in range(sys_.L):
        for i in range(sys_.m + 1):
            assert np.array_equal(words[t, i], v[t])  # in v^(t)'s own bit order
    # the perfect genie is a read-only view of v, not a copy
    assert np.shares_memory(words, v) and not words.flags.writeable


def test_encode_memory_is_a_few_bytes_per_frame_bit_whatever_m():
    # the encoder holds the frame and a layer-sized temporary, not the
    # (L, m+1, n) branch words: at m = 30 those would be 31 bytes a bit
    sys_ = make_system("RC[2,1]^500", m=30, L=60, seed=0)
    msgs = np.random.default_rng(1).integers(0, 2, (sys_.L, sys_.k), dtype=np.uint8)
    tracemalloc.start()
    try:
        encode_frame(sys_, msgs, return_intermediate=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * sys_.total_blocks * sys_.n


def test_system_constructors_reject_bad_dimensions():
    with pytest.raises(ValueError, match="need n >= 1 and m >= 0"):
        generate_interleavers(0, 1, 0)
    basic = make_system("RC[2,1]^10", m=1, L=4, seed=0).basic  # n = 20
    with pytest.raises(ValueError, match="interleaver length must equal basic code length"):
        BmstSystem(basic=basic, interleavers=generate_interleavers(10, 1, 0), L=4)
    with pytest.raises(ValueError, match="need L >= 1"):
        BmstSystem(basic=basic, interleavers=generate_interleavers(20, 1, 0), L=0)


def test_frame_rate():
    sys_ = make_system("RC[2,1]^10", m=2, L=8, seed=0)
    assert sys_.frame_rate == pytest.approx(0.5 * 8 / 10)


def test_bpsk_map():
    assert bpsk_map([0, 1, 0]).tolist() == [1.0, -1.0, 1.0]
