import itertools

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bmst
from bmst import kernels
from bmst.channel import channel_llr, ebn0_to_sigma, transmit
from bmst.codes import code_app_llr, code_extrinsic_llr
from bmst.coupling import true_branch_words
from bmst.kernels import (LLR_MAX, boxplus_numpy, boxplus_scalar, clamp,
                          leave_one_out_boxplus, llr_to_phi, phi)
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


class PairwiseOracle:
    """pairwise_loo_boxplus behind the phi-domain signature of
    leave_one_out_boxplus, counting its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, stack, lo=0, hi=None):
        self.calls += 1
        llr = np.copysign(phi(np.abs(stack)), stack)
        return pairwise_loo_boxplus(llr)[lo:hi]


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
    out = leave_one_out_boxplus(llr_to_phi(stack))
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
        full = leave_one_out_boxplus(llr_to_phi(stack))
        assert np.allclose(full, pairwise_loo_boxplus(stack), rtol=0, atol=1e-12)
        # a row range is bit-identical to the same rows of the whole stack
        for lo, hi in ((0, 1), (rows - 1, rows), (rows // 2, rows), (0, (rows + 1) // 2)):
            part = leave_one_out_boxplus(llr_to_phi(stack), lo, hi)
            assert np.array_equal(part.view(np.uint64), full[lo:hi].view(np.uint64))
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
    llr = np.array([-3.0, 2.0, 0.0, -0.0, 1e-300, -40.0])
    ref = np.copysign(phi(np.abs(llr)), llr)
    assert np.array_equal(llr_to_phi(llr).view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("block", range(2, 10))
def test_blockwise_loo_sum_matches_numpy_sum(block):
    """The RC extrinsic sums each block as x.sum(axis=1) does, bit for bit,
    on both sides of numpy's switch to pairwise summation at 8 terms."""
    rng = np.random.default_rng(block)
    x = rng.normal(0, 8, size=(300, block)) * 10.0 ** rng.integers(-6, 1, size=(300, block))
    at = rng.choice(x.size, size=40, replace=False)
    x.flat[at] = rng.choice([0.0, -0.0, 40.0, -40.0], size=40)
    ref = clamp(x.sum(axis=1, keepdims=True) - x).reshape(-1)
    got = kernels.blockwise_loo_sum(x.reshape(-1), block)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


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
    decoders = (
        lambda: decode_frame_swd(sys_, channel_llr(y, sigma), d=d, i_max=8),
        lambda: decode_frame_tpd(sys_, y, sigma, TpdConfig(d=d, i_max=8)),
    )
    for decode in decoders:
        fast = decode()
        plus_site, code_site = PairwiseOracle(), PairwiseOracle()
        monkeypatch.setattr("bmst.swd.leave_one_out_boxplus", plus_site)
        monkeypatch.setattr("bmst.kernels.leave_one_out_boxplus", code_site)
        oracle = decode()
        monkeypatch.undo()
        # the oracle really ran at the plus nodes, and in the SPC extrinsic;
        # the RC extrinsic is a sum and calls no kernel
        assert plus_site.calls > 0
        assert (code_site.calls > 0) == spec.startswith("SPC")
        for name in ("u_hat", "w_tilde", "iterations"):
            assert np.array_equal(getattr(fast, name), getattr(oracle, name))


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


class FullScheduleDecoder:
    """The window decoder with every message of every node computed in
    both half-sweeps and e2p kept as LLRs: the reference for the
    live-message schedule of WindowDecoder, which must emit the same
    bits."""

    def __init__(self, sys_, llrs, d, i_max, warm_start):
        T, m, n = sys_.total_blocks, sys_.m, sys_.n
        self.sys, self.lch, self.d, self.i_max = sys_, llrs, d, i_max
        self.warm_start = warm_start
        self.e2p = np.zeros((T, m + 1, n))
        self.e2p[sys_.L:] = LLR_MAX
        self.p2e = np.zeros((T, m + 1, n))
        self.branches = np.arange(m + 1)
        offsets = n * self.branches[:, None]
        self.inv = sys_.interleavers.invs + offsets
        self.perm = sys_.interleavers.perms + offsets

    def plus(self, s):
        i = self.branches[:s + 1]
        stack = np.full((self.sys.m + 2, self.sys.n), LLR_MAX)
        stack[0] = self.lch[s]
        stack[1:len(i) + 1] = self.e2p[s - i, i]
        self.p2e[s - i, i] = leave_one_out_boxplus(llr_to_phi(stack))[1:len(i) + 1]

    def gather(self, t):
        a = self.p2e[t].reshape(-1)[self.inv]
        s_in = clamp(a.sum(axis=0))
        return a, s_in, code_extrinsic_llr(self.sys.basic.short, s_in)

    def eq(self, t):
        if t < self.sys.L:
            a, s_in, ext = self.gather(t)
            self.e2p[t] = clamp((ext + s_in) - a).reshape(-1)[self.perm]

    def msg_llr(self, app):
        short = self.sys.basic.short
        return app.reshape(-1, short.N)[:, :short.K].reshape(-1)

    def decode_step(self, te):
        L = self.sys.L
        lo, hi = te, min(te + self.d, self.sys.total_blocks - 1)
        if not self.warm_start:
            self.e2p[lo:min(hi + 1, L)] = 0.0
            self.p2e[lo:hi + 1] = 0.0
        prev_ent, iters = np.inf, 0
        for _ in range(self.i_max):
            for s in [*range(lo, hi + 1), *range(hi, lo - 1, -1)]:
                self.plus(s)
                self.eq(s)
            iters += 1
            _, s_in, ext = self.gather(te)
            ent = binary_entropy_from_llr(self.msg_llr(clamp(s_in + ext)))
            if ent < 1e-5 or ent >= prev_ent:
                break
            prev_ent = ent
        _, s_in, ext = self.gather(te)
        app = clamp(s_in + ext)
        v_hat = hard_decision(app)
        w_tilde = hard_decision(self.e2p[te])
        self.e2p[te] = (LLR_MAX * (1.0 - 2.0 * v_hat))[self.sys.interleavers.perms]
        return hard_decision(self.msg_llr(app)), v_hat, w_tilde, iters


@pytest.mark.parametrize("spec", ["RC[2,1]^30", "SPC[4,3]^12"])
@pytest.mark.parametrize("m,d,warm_start,i_max", [
    (0, 2, True, 18), (1, 3, True, 18), (3, 6, True, 18), (8, 10, True, 18),
    (3, 1, True, 18), (8, 4, True, 18),    # d < m
    (1, 10, True, 18), (3, 11, True, 18),  # d > L
    (3, 6, False, 18), (8, 10, True, 1),
])
def test_live_message_schedule_matches_full_schedule(spec, m, d, warm_start, i_max):
    L = 8
    sys_ = bmst.make_system(spec, m=m, L=L, seed=m + d)
    for ebn0 in (1.0, 2.0):
        rng = np.random.default_rng([m, d, int(10 * ebn0)])
        msgs = rng.integers(0, 2, (L, sys_.k), dtype=np.uint8)
        sigma = ebn0_to_sigma(ebn0, sys_.basic.rate)
        y = transmit(bmst.bpsk_map(bmst.encode_frame(sys_, msgs)), sigma, rng)
        llr = channel_llr(y, sigma)
        res = decode_frame_swd(sys_, llr, d=d, i_max=i_max, warm_start=warm_start)
        ref = FullScheduleDecoder(sys_, llr, d, i_max, warm_start)
        for t in range(L):
            u_hat, v_hat, w_tilde, iters = ref.decode_step(t)
            assert np.array_equal(res.u_hat[t], u_hat)
            assert np.array_equal(res.v_hat[t], v_hat)
            assert np.array_equal(res.w_tilde[t], w_tilde)
            assert res.iterations[t] == iters
