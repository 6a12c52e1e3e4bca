import tracemalloc

import numpy as np
import pytest

import bmst
from bmst.channel import channel_llr, ebn0_to_sigma, transmit
from bmst.coupling import true_branch_words
from bmst.swd import decode_frame_swd
from bmst.tpd import (SideInfoError, decode_frame_gad, decode_frame_tpd,
                      flipped_side_info, gad_cancel, gad_minimize)


def _frame(spec, m, L, seed, msg_seed):
    sys_ = bmst.make_system(spec, m, L, seed)
    rng = np.random.default_rng(msg_seed)
    msgs = rng.integers(0, 2, (L, sys_.k), dtype=np.uint8)
    c, v = bmst.encode_frame(sys_, msgs, return_intermediate=True)
    return sys_, msgs, c, true_branch_words(sys_, v)


def oracle_cancel(sys_, y, words, t):
    """Cleaned rows y^(t..t+m) of layer t, as a direct loop over the
    (m+1)^2 side-information words around it: row i is sign-flipped wherever
    the XOR of every other data layer's word on c^(t+i), permuted as its
    branch carries it, is 1."""
    m, n, L = sys_.m, sys_.n, sys_.L
    perms = sys_.interleavers.perms
    cleaned = np.empty((m + 1, n))
    for i in range(m + 1):
        c_hat = np.zeros(n, dtype=np.uint8)
        for ell in range(m + 1):
            tp = t + i - ell
            if ell != i and 0 <= tp < L:
                c_hat ^= words[tp, ell][perms[ell]]
        cleaned[i] = np.where(c_hat == 1, -y[t + i], y[t + i])
    return cleaned


def oracle_correlation(sys_, cleaned):
    """Per-v-bit correlation of one layer: its cleaned rows gathered back
    through each branch's interleaver and summed in branch order."""
    r = np.zeros(sys_.n)
    for i in range(sys_.m + 1):
        r += cleaned[i][sys_.interleavers.invs[i]]
    return r


def oracle_gad_layer(sys_, y, words, t):
    """Per-layer GAD: cancel, correlate, and take the codebook argmax of
    each short block (first maximum, so the smallest message wins ties)."""
    short = sys_.basic.short
    r = oracle_correlation(sys_, oracle_cancel(sys_, y, words, t))
    signs = 1.0 - 2.0 * short.codebook.astype(np.float64)
    best = np.argmax(r.reshape(sys_.basic.B, short.N) @ signs.T, axis=1)
    return short.codebook_msgs[best].reshape(sys_.k)


def test_perfect_side_info_noiseless_gad():
    sys_, msgs, c, words = _frame("RC[2,1]^10", 2, 5, 0, 1)
    y = bmst.bpsk_map(c)  # no noise
    u = decode_frame_gad(sys_, y, words)
    assert np.array_equal(u, msgs)


def test_gad_cancel_strips_interference_exactly():
    # with perfect side info, each cleaned row is the BPSK image of the
    # layer's own branch word (up to the channel noise), which gathers back
    # to its codeword v: the correlation is m+1 looks at BPSK(v)
    sys_, msgs, c, w = _frame("SPC[4,3]^5", 2, 4, 3, 2)
    y = bmst.bpsk_map(c)
    r = gad_cancel(sys_, y, w)
    assert r.shape == (sys_.L, sys_.n) and r.dtype == np.float64
    assert np.array_equal(r, (sys_.m + 1) * bmst.bpsk_map(w[:, 0]))


def test_gad_ignores_own_layer_side_info():
    sys_, msgs, c, words = _frame("RC[2,1]^10", 2, 5, 0, 4)
    rng = np.random.default_rng(7)
    y = transmit(bmst.bpsk_map(c), 0.5, rng)
    u_ref = decode_frame_gad(sys_, y, words)
    corrupted = words.copy()
    corrupted[2] ^= 1  # garbage in layer 2's own entries
    u_alt = decode_frame_gad(sys_, y, corrupted)
    assert np.array_equal(u_ref[2], u_alt[2])


def test_flipped_side_info_rate_and_zero_limit():
    sys_, msgs, c, truth = _frame("RC[2,1]^500", 3, 20, 1, 5)
    rng = np.random.default_rng(11)
    words = flipped_side_info(truth, 0.1, rng)
    rate = (words != truth).mean()
    assert rate == pytest.approx(0.1, rel=0.1)
    clean = flipped_side_info(truth, 0.0, rng)
    assert np.array_equal(clean, truth)


def test_gad_minimize_repetition_is_a_sign_test():
    sys_, msgs, c, words = _frame("RC[2,1]^8", 1, 3, 2, 6)
    rng = np.random.default_rng(3)
    y = transmit(bmst.bpsk_map(c), 0.8, rng)
    r = gad_cancel(sys_, y, words)
    u_hat = gad_minimize(sys_, r)
    for t in range(sys_.L):
        block_sums = r[t].reshape(-1, 2).sum(axis=1)
        assert np.array_equal(u_hat[t], (block_sums < 0).astype(np.uint8))


def _side_info(source, sys_, words, y, sigma, rng):
    if source == "perfect":
        return words
    if source == "flipped":
        return flipped_side_info(words, 0.05, rng)
    return decode_frame_swd(sys_, channel_llr(y, sigma), d=sys_.m, i_max=2).w_tilde


@pytest.mark.parametrize("source", ["perfect", "flipped", "phase_one"])
@pytest.mark.parametrize("m", [0, 1, 3, 8, 30])
@pytest.mark.parametrize("spec", ["RC[2,1]^8", "SPC[4,3]^4"])
def test_whole_frame_gad_matches_per_layer_oracle(spec, m, source):
    for L in (1, 5, 40):
        sys_, msgs, c, truth = _frame(spec, m, L, seed=m + L, msg_seed=L)
        rng = np.random.default_rng([m, L])
        sigma = ebn0_to_sigma(1.0, sys_.basic.rate)
        # a noisy frame, and a noiseless one whose cleaned rows are +-1, so
        # that ties between codewords occur
        for y in (transmit(bmst.bpsk_map(c), sigma, rng), bmst.bpsk_map(c)):
            words = _side_info(source, sys_, truth, y, sigma, rng)
            r = gad_cancel(sys_, y, words)
            u_hat = decode_frame_gad(sys_, y, words)
            for t in range(L):
                oracle = oracle_correlation(sys_, oracle_cancel(sys_, y, words, t))
                assert np.array_equal(r[t], oracle)
                assert np.array_equal(u_hat[t], oracle_gad_layer(sys_, y, words, t))


def test_tpd_noiseless_matches_messages_both_phases():
    sys_, msgs, c, words = _frame("RC[2,1]^10", 2, 6, 4, 8)
    y = bmst.bpsk_map(c)
    u_hat, phase1 = decode_frame_tpd(sys_, y, 0.3, d=6, i_max=10)
    assert np.array_equal(u_hat, msgs)
    assert np.array_equal(phase1.u_hat, msgs)
    assert phase1.w_tilde.shape == (sys_.L, sys_.m + 1, sys_.n)
    assert np.array_equal(phase1.w_tilde, words)


def test_tpd_cleans_residual_errors_at_moderate_snr():
    # phase II with near-perfect side information enjoys the full diversity
    # gain, so it corrects frames the one-shot metric would get right anyway
    sys_, msgs, c, _ = _frame("RC[2,1]^100", 3, 20, 5, 9)
    sigma = ebn0_to_sigma(4.0, 0.5)
    y = transmit(bmst.bpsk_map(c), sigma, np.random.default_rng(13))
    u_hat, _ = decode_frame_tpd(sys_, y, sigma, d=6, i_max=18)
    assert (u_hat != msgs).sum() == 0


def test_side_info_shape_validation():
    sys_ = bmst.make_system("RC[2,1]^4", 1, 3, 0)
    with pytest.raises(SideInfoError):
        gad_cancel(sys_, np.zeros((4, 8)), np.zeros((2, 2, 8), dtype=np.uint8))
    good = np.zeros((3, 2, 8), dtype=np.uint8)
    with pytest.raises(SideInfoError):
        gad_cancel(sys_, np.zeros((3, 8)), good)
    assert gad_cancel(sys_, np.zeros((4, 8)), good).shape == (3, 8)


def test_gad_refuses_values_outside_its_domain():
    # a word of 2 would scale its correlations by 1 - 2*2 = -3
    sys_ = bmst.make_system("RC[2,1]^4", 1, 3, 0)
    y, words = np.zeros((4, 8)), np.zeros((3, 2, 8), dtype=np.uint8)
    words[1, 0, 5] = 2
    with pytest.raises(SideInfoError, match="0 or 1"):
        gad_cancel(sys_, y, words)
    with pytest.raises(SideInfoError, match="0 or 1"):
        gad_cancel(sys_, y, -words.astype(np.int64))
    y[2, 3] = np.nan
    with pytest.raises(SideInfoError, match="NaN"):
        gad_cancel(sys_, y, np.zeros_like(words))


def test_gad_reads_side_info_only_as_exact_bits():
    # a uint8 cast before the check read a word of 256 or 0.6 as 0
    sys_ = bmst.make_system("RC[2,1]^4", 1, 3, 0)
    y = np.random.default_rng(1).normal(size=(4, 8))
    words = np.random.default_rng(2).integers(0, 2, (3, 2, 8), dtype=np.uint8)
    for bad, value in ((np.int64, 256), (np.float64, 0.6), (np.float64, 1e-300)):
        w = words.astype(bad)
        w[1, 0, 5] = value
        with pytest.raises(SideInfoError, match="0 or 1"):
            gad_cancel(sys_, y, w)
    for exact in (np.float64, np.int64, bool):
        assert np.array_equal(gad_cancel(sys_, y, words.astype(exact)), gad_cancel(sys_, y, words))


def test_gad_refuses_side_info_with_tail_layers():
    # side information covers the L data layers only: the tail's zero
    # words are known to every decoder, not reported by a genie
    sys_ = bmst.make_system("RC[2,1]^4", 2, 3, 0)
    tailed = np.zeros((sys_.total_blocks, sys_.m + 1, sys_.n), dtype=np.uint8)
    with pytest.raises(SideInfoError):
        gad_cancel(sys_, np.zeros((sys_.total_blocks, sys_.n)), tailed)


def test_gad_memory_is_a_few_frames_whatever_m():
    # phase II holds a few (T, n) float64 arrays, not (L, m+1, n) stacks:
    # at m = 30 those would be about 28 frames' worth
    sys_, msgs, c, words = _frame("RC[2,1]^500", 30, 60, 0, 1)
    y = transmit(bmst.bpsk_map(c), 0.8, np.random.default_rng(2))
    tracemalloc.start()
    try:
        decode_frame_gad(sys_, y, words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * sys_.total_blocks * sys_.n * 8
