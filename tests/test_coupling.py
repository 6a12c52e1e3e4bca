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
    il = InterleaverSet(m=m, n=n, seed=-1, perms=perms, invs=np.argsort(perms, axis=1))
    return BmstSystem(basic=basic, interleavers=il, L=L)


def test_encode_frame_superposes_history():
    sys_ = _identity_system(m=1, L=2)
    c, words = encode_frame(sys_, [[1, 0, 1, 0], [0, 1, 1, 0]], return_intermediate=True)
    assert c[0].tolist() == [1, 0, 1, 0]  # nothing in the history yet
    assert words[1, 0].tolist() == [0, 1, 1, 0]
    assert c[1].tolist() == [1, 1, 0, 0]  # v1 xor v0
    assert c[2].tolist() == [0, 1, 1, 0]  # termination block: v1 alone


def test_termination_blocks_must_be_zero():
    # the encoder takes the L message blocks only; it appends the m
    # all-zero termination blocks itself
    sys_ = _identity_system(m=1, L=1)
    with pytest.raises(CodeError):
        encode_frame(sys_, [[1, 1, 0, 0], [1, 0, 0, 0]])


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(0, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_superpose_matches_direct_loop(T, m, n, seed):
    words = np.random.default_rng(seed).integers(0, 2, (T, m + 1, n), dtype=np.uint8)
    ref = np.zeros((T, n), dtype=np.uint8)
    for s in range(T):
        for i in range(m + 1):
            if 0 <= s - i < T:
                ref[s] ^= words[s - i, i]
    assert np.array_equal(superpose(words), ref)


def test_frame_shape_and_tail():
    sys_ = make_system("RC[2,1]^10", m=3, L=5, seed=0)
    msgs = np.random.default_rng(0).integers(0, 2, (5, sys_.k), dtype=np.uint8)
    c, words = encode_frame(sys_, msgs, return_intermediate=True)
    assert c.shape == (8, 20) and words.shape == (8, 4, 20)
    assert not words[5:].any()  # termination layers carry zero codewords


def test_frame_matches_direct_superposition():
    sys_ = make_system("SPC[4,3]^6", m=2, L=4, seed=3)
    rng = np.random.default_rng(1)
    msgs = rng.integers(0, 2, (4, sys_.k), dtype=np.uint8)
    c, words = encode_frame(sys_, msgs, return_intermediate=True)
    v = np.zeros((sys_.total_blocks, sys_.n), dtype=np.uint8)
    v[:4] = encode_cartesian(sys_.basic, msgs)
    assert np.array_equal(words[:, 0], v)  # perms[0] is the identity
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
    _, words = encode_frame(sys_, msgs, return_intermediate=True)
    v = words[:, 0]
    assert np.array_equal(true_branch_words(sys_, v), words)
    for t in range(v.shape[0]):
        for i in range(sys_.m + 1):
            assert np.array_equal(words[t, i], v[t][sys_.interleavers.perms[i]])


def test_frame_rate():
    sys_ = make_system("RC[2,1]^10", m=2, L=8, seed=0)
    assert sys_.frame_rate == pytest.approx(0.5 * 8 / 10)


def test_bpsk_map():
    assert bpsk_map([0, 1, 0]).tolist() == [1.0, -1.0, 1.0]
