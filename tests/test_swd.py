import itertools

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bmst
from bmst import kernels
from bmst.channel import channel_llr, ebn0_to_sigma, transmit
from bmst.codes import code_app_llr
from bmst.coupling import true_branch_words
from bmst.kernels import (LLR_MAX, boxplus_numpy, boxplus_scalar,
                          leave_one_out_boxplus, phi)
from bmst.swd import (WindowDecoder, binary_entropy_from_llr,
                      decode_frame_swd, hard_decision)
from bmst.tpd import TpdConfig, decode_frame_tpd

# identity element for pairwise boxplus chains; large enough that the
# correction terms vanish, small enough that sums of a few do not overflow
BP_IDENT = 1e30


def pairwise_loo_boxplus(stack):
    """Leave-one-out boxplus as chained pairwise boxplus_numpy calls over
    exclusive prefixes and suffixes: the exact oracle for the kernel."""
    stack = np.asarray(stack, dtype=np.float64)
    m, n = stack.shape
    pre = np.full((m + 1, n), BP_IDENT)
    suf = np.full((m + 1, n), BP_IDENT)
    for i in range(m):
        pre[i + 1] = boxplus_numpy(pre[i], stack[i])
    for i in range(m - 1, -1, -1):
        suf[i] = boxplus_numpy(suf[i + 1], stack[i])
    return np.clip(boxplus_numpy(pre[:m], suf[1:]), -LLR_MAX, LLR_MAX)


def xor_extrinsic_oracle(llrs):
    """LLR of a bit forced to make the XOR of it and the inputs even,
    by explicit enumeration of the input bits' joint distribution."""
    p1 = 1.0 / (1.0 + np.exp(np.asarray(llrs, dtype=np.float64)))
    p_even = p_odd = 0.0
    for bits in itertools.product((0, 1), repeat=len(llrs)):
        pr = np.prod([p1[i] if b else 1.0 - p1[i] for i, b in enumerate(bits)])
        if sum(bits) % 2 == 0:
            p_even += pr
        else:
            p_odd += pr
    return np.log(p_even) - np.log(p_odd)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-12, 12), min_size=2, max_size=5))
def test_boxplus_matches_enumeration(llrs):
    chained = llrs[0]
    for x in llrs[1:]:
        chained = boxplus_scalar(chained, x)
    assert chained == pytest.approx(xor_extrinsic_oracle(llrs), abs=1e-6)


def test_boxplus_identity_and_zero():
    assert boxplus_scalar(0.0, 5.0) == 0.0
    big = boxplus_scalar(BP_IDENT, 3.25)
    assert big == pytest.approx(3.25, abs=1e-9)


def test_leave_one_out_boxplus_matches_direct():
    rng = np.random.default_rng(0)
    stack = rng.normal(0, 4, size=(5, 30))
    out = leave_one_out_boxplus(stack)
    for i in range(5):
        rest = [stack[j] for j in range(5) if j != i]
        ref = rest[0]
        for r in rest[1:]:
            ref = boxplus_numpy(ref, r)
        assert np.allclose(out[i], np.clip(ref, -LLR_MAX, LLR_MAX), atol=1e-9)


@pytest.mark.parametrize("rows", [1, 2, 4, 10, 32])
def test_loo_kernel_matches_pairwise_oracle(rows):
    rng = np.random.default_rng(rows)
    for scale in (1.0, 3.0, 10.0, 30.0):
        stack = rng.normal(0, scale, size=(rows, 200))
        # exact zeros (phi = inf), pinned layers, and a tiny magnitude
        # whose phi (about 691) swamps every other term
        at = rng.choice(stack.size, size=30, replace=False)
        stack.flat[at] = rng.choice([0.0, 40.0, -40.0, 1e-300, -1e-300], size=30)
        assert np.allclose(leave_one_out_boxplus(stack), pairwise_loo_boxplus(stack),
                           rtol=0, atol=1e-12)
    llr = rng.normal(0, 6, size=64)
    assert np.allclose(kernels.blockwise_loo_boxplus(llr, 4),
                       pairwise_loo_boxplus(llr.reshape(-1, 4).T).T.reshape(-1),
                       rtol=0, atol=1e-12)


def test_phi_matches_mpmath():
    # up to x = 708, where phi is still a normal double
    xs = np.concatenate([np.logspace(-300, 2.85, 400), np.linspace(0.01, 50, 400)])
    with mpmath.workdps(40):
        for x, v in zip(xs, phi(xs)):
            ref = mpmath.log1p(2 / mpmath.expm1(mpmath.mpf(float(x))))
            assert abs(mpmath.mpf(float(v)) - ref) <= 1e-15 * ref
    assert phi(np.float64(0.0)) == np.inf and phi(np.float64(np.inf)) == 0.0
    assert phi(np.float64(1e30)) == 0.0  # underflows, like the true value


@pytest.mark.parametrize("spec", ["RC[2,1]^40", "SPC[4,3]^30"])
@pytest.mark.parametrize("m", [0, 3])
def test_frames_match_with_pairwise_oracle_kernel(monkeypatch, spec, m):
    """Seeded SWD and TPD frames decide the same with the phi kernel and
    with the pairwise oracle in its place."""
    L = 8
    sys_ = bmst.make_system(spec, m=m, L=L, seed=5)
    rng = np.random.default_rng(6)
    msgs = rng.integers(0, 2, (L, sys_.k), dtype=np.uint8)
    sigma = ebn0_to_sigma(2.0, sys_.basic.rate)
    y = transmit(bmst.bpsk_map(bmst.encode_frame(sys_, msgs)), sigma, rng)
    d = max(3 * m, 2)

    def decode():
        swd = decode_frame_swd(sys_, channel_llr(y, sigma), d=d, i_max=8)
        tpd = decode_frame_tpd(sys_, y, sigma, TpdConfig(d=d, i_max=8))
        return [(r.u_hat, r.w_tilde, r.iterations) for r in (swd, tpd)]

    fast = decode()
    monkeypatch.setattr("bmst.swd.leave_one_out_boxplus", pairwise_loo_boxplus)
    monkeypatch.setattr("bmst.kernels.leave_one_out_boxplus", pairwise_loo_boxplus)
    oracle = decode()
    for got, ref in zip(fast, oracle):
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)


def test_hard_decision_sign_and_ties():
    assert hard_decision(np.array([-0.1, 0.0, 0.1])).tolist() == [1, 0, 0]


def test_binary_entropy_from_llr():
    assert binary_entropy_from_llr(np.zeros(4)) == pytest.approx(1.0)
    assert binary_entropy_from_llr(np.full(4, LLR_MAX)) < 1e-10


def _noiseless_llrs(sys_, msgs):
    c = bmst.encode_frame(sys_, msgs)
    return LLR_MAX * (1.0 - 2.0 * c)


def test_noiseless_decode_recovers_messages():
    sys_ = bmst.make_system("RC[2,1]^20", m=2, L=6, seed=1)
    rng = np.random.default_rng(3)
    msgs = rng.integers(0, 2, (6, sys_.k), dtype=np.uint8)
    res = decode_frame_swd(sys_, _noiseless_llrs(sys_, msgs), d=6, i_max=18)
    assert np.array_equal(res.u_hat, msgs)
    _, v = bmst.encode_frame(sys_, msgs, return_intermediate=True)
    assert np.array_equal(res.w_tilde, true_branch_words(sys_, v[:6]))
    assert res.iterations.max() <= 2  # entropy stop fires immediately


def test_memory_zero_reduces_to_basic_code_map():
    sys_ = bmst.make_system("SPC[4,3]^10", m=0, L=4, seed=2)
    rng = np.random.default_rng(4)
    msgs = rng.integers(0, 2, (4, sys_.k), dtype=np.uint8)
    sigma = ebn0_to_sigma(3.0, 0.75)
    y = transmit(bmst.bpsk_map(bmst.encode_frame(sys_, msgs)), sigma, rng)
    llr = channel_llr(y, sigma)
    res = decode_frame_swd(sys_, llr, d=0, i_max=18)
    for t in range(4):
        app = code_app_llr(sys_.basic.short, llr[t])
        ref = hard_decision(app).reshape(10, 4)[:, :3].reshape(-1)
        assert np.array_equal(res.u_hat[t], ref)


def test_cold_start_option_still_decodes_noiseless():
    sys_ = bmst.make_system("RC[2,1]^15", m=1, L=5, seed=8)
    msgs = np.random.default_rng(9).integers(0, 2, (5, sys_.k), dtype=np.uint8)
    res = decode_frame_swd(sys_, _noiseless_llrs(sys_, msgs), d=4, i_max=18,
                           warm_start=False)
    assert np.array_equal(res.u_hat, msgs)


def test_decoder_input_validation():
    sys_ = bmst.make_system("RC[2,1]^5", m=1, L=3, seed=0)
    with pytest.raises(ValueError):
        WindowDecoder(sys_, np.zeros((2, sys_.n)), d=2, i_max=4)
    with pytest.raises(ValueError):
        WindowDecoder(sys_, np.zeros((4, sys_.n)), d=-1, i_max=4)
