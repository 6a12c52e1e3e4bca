import itertools

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bmst
from bmst import kernels
from bmst.channel import channel_llr, ebn0_to_sigma, transmit
from bmst.codes import CartesianCode, code_extrinsic_llr, make_code
from bmst.coupling import true_branch_words
from bmst.kernels import (LLR_MAX, boxplus_numpy, boxplus_scalar, clamp,
                          leave_one_out_boxplus, llr_to_phi, phi)
from bmst.swd import (STOP_THRESHOLD, WindowDecoder, binary_entropy_from_llr,
                      decode_frame_swd, hard_decision, window_stops)
from bmst.tpd import decode_frame_tpd

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

    def __call__(self, stack, lo=0, hi=None, out=None):
        self.calls += 1
        llr = np.copysign(phi(np.abs(stack)), stack)
        rows = pairwise_loo_boxplus(llr)[lo:hi]
        if out is None:
            return rows
        out[...] = rows
        return out


def loop_loo_boxplus(stack, lo=0, hi=None):
    """leave_one_out_boxplus as exclusive prefix and suffix loops, one row
    added at a time, with the sign from np.signbit: the reference that the
    kernel's reductions and bit operations must match bit for bit."""
    stack = kernels.float_array(stack)
    rows, n = stack.shape
    hi = rows if hi is None else hi
    mag = np.abs(stack)
    pre = np.zeros((hi, n), dtype=stack.dtype)
    suf = np.zeros((rows - lo, n), dtype=stack.dtype)  # suf[j] is row lo+j
    for i in range(1, hi):
        pre[i] = pre[i - 1] + mag[i - 1]
    for i in range(rows - 2, lo - 1, -1):
        suf[i - lo] = suf[i - lo + 1] + mag[i + 1]
    with np.errstate(divide="ignore", over="ignore"):
        out = np.minimum(np.log1p(2 / np.expm1(pre[lo:] + suf[:hi - lo])), LLR_MAX)
    neg = np.signbit(stack)
    return np.where(neg[lo:hi] ^ np.logical_xor.reduce(neg, axis=0), -out, out)


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


def _edge_llrs(rng, rows, n, dtype, edges):
    """LLRs of all scales, `edges` of them +-0, +-LLR_MAX, subnormals or
    beyond LLR_MAX (whose phi is subnormal or zero)."""
    llr = rng.normal(0, 6, (rows, n)) * 10.0 ** rng.integers(-3, 2, (rows, n))
    tiny = np.finfo(dtype).smallest_subnormal
    at = rng.choice(llr.size, size=edges, replace=False)
    llr.flat[at] = rng.choice([0.0, -0.0, LLR_MAX, -LLR_MAX, tiny, -tiny, 64 * tiny,
                               100.0, -1e30], size=at.size)
    return llr.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", [1, 2, 3, 4, 10, 32, 33])
def test_loo_kernel_is_the_loop_kernel_bit_for_bit(rows, dtype):
    """Every row range of the kernel, written to a new array or to out=, is
    the prefix/suffix loop's result word for word, on C-ordered and
    transposed stacks; llr_to_phi in place is llr_to_phi. A single column
    has no edge values, which would make most chains infinite: there the
    order of the additions shows."""
    rng = np.random.default_rng(rows)
    word = f"u{np.dtype(dtype).itemsize}"
    for n, edges in ((1, 0), (40, rows * 40 // 3)):
        llr = _edge_llrs(rng, rows, n, dtype, edges)
        stack = llr_to_phi(llr)
        in_place = llr.copy()
        assert llr_to_phi(in_place, out=in_place) is in_place
        assert np.array_equal(in_place.view(word), stack.view(word))
        # phi-domain zeros (infinite LLRs) and subnormals (huge LLRs)
        at = rng.choice(stack.size, size=edges // 2, replace=False)
        tiny = np.finfo(dtype).smallest_subnormal
        stack.flat[at] = rng.choice([0.0, -0.0, tiny, -tiny, 8 * tiny], size=at.size).astype(dtype)
        for layout in (stack, np.asfortranarray(stack)):
            for lo in range(rows):
                for hi in range(lo + 1, rows + 1):
                    ref = loop_loo_boxplus(layout, lo, hi).view(word)
                    assert np.array_equal(leave_one_out_boxplus(layout, lo, hi).view(word), ref)
                    out = np.full((hi - lo, n), np.nan, dtype=dtype)
                    assert leave_one_out_boxplus(layout, lo, hi, out=out) is out
                    assert np.array_equal(out.view(word), ref)


@pytest.mark.parametrize("block", range(1, 10))
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

    # the pairwise oracle computes in float64, so both decoders get float64
    # LLRs and run the float64 kernels
    def llr64(y, sigma):
        return channel_llr(y, sigma).astype(np.float64)

    def swd():
        res = decode_frame_swd(sys_, llr64(y, sigma), d=d, i_max=8)
        return res.u_hat, res.w_tilde, res.iterations

    def tpd():
        u_hat, phase1 = decode_frame_tpd(sys_, y, sigma, d=d, i_max=8)
        return u_hat, phase1.w_tilde, phase1.iterations

    for decode in (swd, tpd):
        monkeypatch.setattr("bmst.tpd.channel_llr", llr64)
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
        for got, ref in zip(fast, oracle):
            assert np.array_equal(got, ref)


# float32 against float64 kernels on the same (float32) inputs: a few ulps
# of float32 in the phi domain; in LLR, one float32 eps per term of a sum
# of LLRs of at most LLR_MAX each (2 terms bound an LLR out of phi)
F32_PHI_RTOL = 4 * np.finfo(np.float32).eps


def f32_llr_atol(terms):
    return terms * LLR_MAX * np.finfo(np.float32).eps


def _f32_stack(rng, rows, n, scale):
    """A float32 LLR stack within +-LLR_MAX, with exact zeros and pinned
    values among normal draws."""
    stack = rng.normal(2.0, scale, size=(rows, n))
    at = rng.choice(stack.size, size=n // 10, replace=False)
    stack.flat[at] = rng.choice([0.0, -0.0, LLR_MAX, -LLR_MAX], size=at.size)
    return np.clip(stack, -LLR_MAX, LLR_MAX).astype(np.float32)


def test_kernels_keep_float32():
    """Each kernel on the message path computes in the float32 it is given,
    within float32 tolerance of the float64 kernel on the same values."""
    rng = np.random.default_rng(32)
    hamming = make_code([[1, 0, 0, 0, 1, 1, 0], [0, 1, 0, 0, 1, 0, 1],
                         [0, 0, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]])
    for rows, scale in itertools.product((1, 2, 10, 32), (1.0, 4.0, 30.0)):
        llr = _f32_stack(rng, rows, 420, scale)
        phi32, phi64 = llr_to_phi(llr), llr_to_phi(llr.astype(np.float64))
        assert phi32.dtype == np.float32
        assert np.array_equal(np.signbit(phi32), np.signbit(phi64))
        assert np.allclose(phi32, phi64, rtol=F32_PHI_RTOL, atol=0)  # inf == inf
        got = leave_one_out_boxplus(phi32, rows // 2, rows)
        assert got.dtype == np.float32
        ref = leave_one_out_boxplus(phi64, rows // 2, rows)
        assert np.allclose(got, ref, rtol=0, atol=f32_llr_atol(2))
        flat = llr.reshape(-1)
        for block in (2, 3, 4, 7):
            for kernel in (kernels.blockwise_loo_sum, kernels.blockwise_loo_boxplus):
                got = kernel(flat, block)
                assert got.dtype == np.float32
                ref = kernel(flat.astype(np.float64), block)
                assert np.allclose(got, ref, rtol=0, atol=f32_llr_atol(block))
        for code in (bmst.make_repetition(3), bmst.make_spc(4), hamming):
            got = code_extrinsic_llr(code, flat[:flat.size // code.N * code.N])
            assert got.dtype == np.float32
            ref = code_extrinsic_llr(code, flat[:got.size].astype(np.float64))
            assert ref.dtype == np.float64
            assert np.allclose(got, ref, rtol=0, atol=f32_llr_atol(code.N))
    assert phi(np.float32(LLR_MAX)).dtype == np.float32
    assert phi(LLR_MAX).dtype == np.float64


def _steps(dec):
    """decode_step's (u_hat, v_hat, w_tilde, iterations) at every data layer
    of the frame, each stacked over the layers: the loop of
    decode_frame_swd, keeping the codeword decisions v_hat that it uses
    only for decision feedback."""
    return [np.array(out) for out in zip(*(dec.decode_step(t) for t in range(dec.sys.L)))]


def _agreement_frames(spec, m, ebn0, frames, L=30):
    """The system and seeded frames of a float32 agreement case: per frame
    the message, the float32 channel LLRs and the float64 LLRs that
    channel_llr rounds to float32."""
    sys_ = bmst.make_system(spec, m=m, L=L, seed=m)
    for f in range(frames):
        rng = np.random.default_rng([m, f])
        msgs = rng.integers(0, 2, (L, sys_.k), dtype=np.uint8)
        sigma = ebn0_to_sigma(ebn0, sys_.basic.rate)
        y = transmit(bmst.bpsk_map(bmst.encode_frame(sys_, msgs)), sigma, rng)
        llr64 = np.clip(2.0 * y / sigma ** 2, -LLR_MAX, LLR_MAX)
        yield sys_, msgs, channel_llr(y, sigma), llr64


@pytest.mark.parametrize("spec,m,d,ebn0", [
    ("RC[2,1]^1000", 2, 6, 2.0), ("SPC[4,3]^300", 3, 9, 2.5), ("RC[2,1]^500", 8, 8, 1.5)])
def test_float32_decoder_decides_as_float64(spec, m, d, ebn0):
    """Six seeded L = 30 frames per case, decoded from float32 and from
    float64 LLRs, agree on every layer: the same message, codeword and
    branch decisions, after the same number of iterations. The window stops
    on decisions, not on an exact entropy comparison, so round-off moves an
    iteration count only where it flips a decision."""
    for sys_, msgs, llr32, llr64 in _agreement_frames(spec, m, ebn0, 6):
        assert llr32.dtype == np.float32
        u32, v32, w32, iters32 = _steps(WindowDecoder(sys_, llr32, d, 18))
        u64, v64, w64, iters64 = _steps(WindowDecoder(sys_, llr64, d, 18))
        assert np.array_equal(u32, u64)
        assert np.array_equal(v32, v64)
        assert np.array_equal(w32, w64)
        assert np.array_equal(iters32, iters64)


def test_float32_messages_take_half_the_memory():
    sys_, _, llr32, llr64 = next(_agreement_frames("RC[2,1]^50", 3, 2.0, 1, L=6))
    single, double = WindowDecoder(sys_, llr32, 9, 18), WindowDecoder(sys_, llr64, 9, 18)
    for name in ("e2p", "p2e"):
        a, b = getattr(single, name), getattr(double, name)
        assert a.dtype == np.float32 and b.dtype == np.float64
        assert 2 * a.nbytes == b.nbytes


def test_window_stops_once_decisions_hold():
    v, w = np.array([0, 1, 1], np.uint8), np.array([[1, 0, 0], [0, 0, 1]], np.uint8)
    w_moved = w.copy()
    w_moved[1, 2] = 0
    hi_ent = 10 * STOP_THRESHOLD
    # unchanged decisions stop, whatever the entropy
    assert window_stops(1, 18, hi_ent, STOP_THRESHOLD, (v, w), (v.copy(), w.copy()))
    # a change in w_tilde alone, or in v_hat alone, keeps iterating
    assert not window_stops(1, 18, hi_ent, STOP_THRESHOLD, (v, w), (v, w_moved))
    assert not window_stops(1, 18, hi_ent, STOP_THRESHOLD, (v, w), (1 - v, w))
    # the entropy threshold stops moving decisions
    assert window_stops(1, 18, STOP_THRESHOLD / 2, STOP_THRESHOLD, (v, w), (v, w_moved))
    assert not window_stops(1, 18, STOP_THRESHOLD, STOP_THRESHOLD, (v, w), (v, w_moved))
    # i_max caps the iterations
    assert not window_stops(17, 18, hi_ent, STOP_THRESHOLD, (v, w), (v, w_moved))
    assert window_stops(18, 18, hi_ent, STOP_THRESHOLD, (v, w), (v, w_moved))
    # a one-layer window has nothing to compare and runs once
    assert window_stops(1, 18, hi_ent, STOP_THRESHOLD, None, (v, w))


def test_hard_decision_sign_and_ties():
    assert hard_decision(np.array([-0.1, 0.0, 0.1])).tolist() == [1, 0, 0]


def test_binary_entropy_from_llr():
    assert binary_entropy_from_llr(np.zeros(4)) == pytest.approx(1.0)
    assert binary_entropy_from_llr(np.full(4, LLR_MAX)) < 1e-10


def test_binary_entropy_matches_nan_to_num_bit_for_bit():
    # zeroing the NaNs of h in place equals np.nan_to_num(h) because h is
    # never infinite
    def nan_to_num_entropy(llr):
        a = np.abs(np.asarray(llr, dtype=np.float64))
        p = 1.0 / (1.0 + np.exp(a))
        q = 1.0 - p
        with np.errstate(divide="ignore", invalid="ignore"):
            h = -p * np.log2(p) - q * np.log2(q)
        return float(np.nan_to_num(h).mean())

    special = [0.0, -0.0, LLR_MAX, -LLR_MAX, np.inf, -np.inf, np.nan]
    rng = np.random.default_rng(0)
    cases = [np.array([v]) for v in special] + [np.array(special)]
    cases += [np.float64(v) for v in special] + [0.0, np.array(LLR_MAX)]
    cases += [rng.normal(0.0, s, size=n) for s in (0.5, 5.0, 50.0, 200.0)
              for n in (1, 7, 1000)]
    cases.append(np.concatenate([rng.normal(0.0, 20.0, 500), special]))
    cases.append(rng.normal(0.0, 5.0, size=(3, 4)))
    for llr in cases:
        assert binary_entropy_from_llr(llr).hex() == nan_to_num_entropy(llr).hex()


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
    assert res.w_tilde.shape == (sys_.L, sys_.m + 1, sys_.n)
    assert np.array_equal(res.w_tilde, true_branch_words(sys_, v))
    assert res.iterations.max() <= 2  # entropy stop fires immediately


def test_noiseless_generic_code_frame_decodes():
    # Hamming [7,4] has no closed form: its replication nodes run the
    # codebook enumeration of codes.code_extrinsic_llr. Every third
    # received value is erased, so the decisions there rest on it.
    hamming = make_code([[1, 0, 0, 0, 1, 1, 0], [0, 1, 0, 0, 1, 0, 1],
                         [0, 0, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]])
    sys_ = bmst.make_system(CartesianCode(hamming, 20), m=2, L=6, seed=1)
    rng = np.random.default_rng(5)
    msgs = rng.integers(0, 2, (6, sys_.k), dtype=np.uint8)
    y = bmst.bpsk_map(bmst.encode_frame(sys_, msgs))
    y[:, ::3] = 0.0
    res = decode_frame_swd(sys_, LLR_MAX * y, d=6, i_max=18)
    assert np.array_equal(res.u_hat, msgs)
    u_hat, phase1 = decode_frame_tpd(sys_, y, 0.5, d=6, i_max=18)
    assert np.array_equal(u_hat, msgs)
    assert np.array_equal(phase1.u_hat, msgs)


def code_app_llr(code, llr):
    """Full APP LLRs of the code bits of B stacked blocks: the input plus
    the extrinsic output, clamped."""
    return np.clip(llr + code_extrinsic_llr(code, llr), -LLR_MAX, LLR_MAX)


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
    bits. Its messages have the dtype of the LLRs it is given, as the
    window decoder's do."""

    def __init__(self, sys_, llrs, d, i_max):
        T, m, n = sys_.total_blocks, sys_.m, sys_.n
        self.sys, self.lch, self.d, self.i_max = sys_, llrs, d, i_max
        self.e2p = np.zeros((T, m + 1, n), dtype=llrs.dtype)
        self.e2p[sys_.L:] = LLR_MAX
        self.p2e = np.zeros((T, m + 1, n), dtype=llrs.dtype)
        self.branches = np.arange(m + 1)
        offsets = n * self.branches[:, None]
        self.inv = sys_.interleavers.invs + offsets
        self.perm = sys_.interleavers.perms + offsets

    def plus(self, s):
        i = self.branches[:s + 1]
        stack = np.full((self.sys.m + 2, self.sys.n), LLR_MAX, dtype=self.lch.dtype)
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

    def one_layer(self, te, hi):
        """The sweeps change no message that layer te reads (m = 0 or
        d = 0): the window runs once, with nothing to compare."""
        return self.sys.m == 0 or hi == te

    def msg_llr(self, app):
        short = self.sys.basic.short
        return app.reshape(-1, short.N)[:, :short.K].reshape(-1)

    def decisions(self, te):
        """Layer te's APP and its decisions (v_hat, w_tilde) from the current
        messages; w_tilde as its last eq(te) sent them."""
        _, s_in, ext = self.gather(te)
        app = clamp(s_in + ext)
        # branch i of e2p[te] is in plus node te+i's bit order: back to te's
        return app, (hard_decision(app), hard_decision(self.e2p[te].reshape(-1)[self.inv]))

    def decode_step(self, te):
        lo, hi = te, min(te + self.d, self.sys.total_blocks - 1)
        # the first two nodes of every forward sweep: the decisions the first
        # iteration is compared with are those after plus(te)
        self.plus(te)
        self.eq(te)
        before = None if self.one_layer(te, hi) else self.decisions(te)[1]
        iters = 0
        while True:
            for s in [*range(lo, hi + 1), *range(hi, lo - 1, -1)]:
                self.plus(s)
                self.eq(s)
            iters += 1
            app, after = self.decisions(te)
            ent = binary_entropy_from_llr(self.msg_llr(app))
            if window_stops(iters, self.i_max, ent, STOP_THRESHOLD, before, after):
                break
            before = after
        v_hat, w_tilde = after
        self.e2p[te] = (LLR_MAX * (1.0 - 2.0 * v_hat))[self.sys.interleavers.perms]
        return hard_decision(self.msg_llr(app)), v_hat, w_tilde, iters


SCHEDULE_SPECS = ["RC[2,1]^30", "SPC[4,3]^12"]
SCHEDULE_GRID = [  # m, d, i_max
    (0, 2, 18), (1, 3, 18), (3, 6, 18), (8, 10, 18),
    (3, 1, 18), (8, 4, 18),    # d < m
    (1, 10, 18), (3, 11, 18),  # d > L
    (8, 10, 1),
    (3, 0, 18), (0, 0, 18),    # one-layer window
]
# case ids "m-d-True-i_max": the True names the window decoder's warm
# start, as in the ids of the cases from when it was an option
SCHEDULE_CASES = [pytest.param(m, d, i_max, id=f"{m}-{d}-True-{i_max}")
                  for m, d, i_max in SCHEDULE_GRID]
SCHEDULE_L = 8


def _schedule_frames(spec, m, d):
    """The system and two seeded frames' channel LLRs of a schedule case."""
    sys_ = bmst.make_system(spec, m=m, L=SCHEDULE_L, seed=m + d)
    frames = []
    for ebn0 in (1.0, 2.0):
        rng = np.random.default_rng([m, d, int(10 * ebn0)])
        msgs = rng.integers(0, 2, (SCHEDULE_L, sys_.k), dtype=np.uint8)
        sigma = ebn0_to_sigma(ebn0, sys_.basic.rate)
        y = transmit(bmst.bpsk_map(bmst.encode_frame(sys_, msgs)), sigma, rng)
        frames.append(channel_llr(y, sigma))
    return sys_, frames


@pytest.mark.parametrize("spec", SCHEDULE_SPECS)
@pytest.mark.parametrize("m,d,i_max", SCHEDULE_CASES)
def test_live_message_schedule_matches_full_schedule(spec, m, d, i_max):
    L = SCHEDULE_L
    sys_, frames = _schedule_frames(spec, m, d)
    for llr in frames:
        res = decode_frame_swd(sys_, llr, d=d, i_max=i_max)
        v_hats = _steps(WindowDecoder(sys_, llr, d, i_max))[1]
        ref = FullScheduleDecoder(sys_, llr, d, i_max)
        for t in range(L):
            u_hat, v_hat, w_tilde, iters = ref.decode_step(t)
            assert np.array_equal(res.u_hat[t], u_hat)
            assert np.array_equal(v_hats[t], v_hat)
            assert np.array_equal(res.w_tilde[t], w_tilde)
            assert res.iterations[t] == iters


class TwoPassReference(FullScheduleDecoder):
    """The reference without the one-pass rule: a window whose sweeps change
    nothing that layer te reads compares its decisions like any other, and
    so stops after one iteration on unchanged decisions."""

    def one_layer(self, te, hi):
        return False


@pytest.mark.parametrize("spec", SCHEDULE_SPECS)
@pytest.mark.parametrize("m,d,i_max", [case for case in SCHEDULE_CASES
                                       if case.values[0] == 0 or case.values[1] == 0])
def test_idle_windows_run_one_iteration(spec, m, d, i_max):
    sys_, frames = _schedule_frames(spec, m, d)
    for llr in frames:
        res = decode_frame_swd(sys_, llr, d=d, i_max=i_max)
        assert (res.iterations == 1).all()
        v_hats = _steps(WindowDecoder(sys_, llr, d, i_max))[1]
        ref = TwoPassReference(sys_, llr, d, i_max)
        for t in range(SCHEDULE_L):
            u_hat, v_hat, w_tilde, iters = ref.decode_step(t)
            assert np.array_equal(res.u_hat[t], u_hat)
            assert np.array_equal(v_hats[t], v_hat)
            assert np.array_equal(res.w_tilde[t], w_tilde)
            assert iters == 1


class ScramblingDecoder(WindowDecoder):
    """WindowDecoder that, after every sweep, overwrites with seeded random
    values the messages the schedule takes to be dead: p2e[te+1..hi, 0]
    (each rewritten by its forward plus node before eq reads it) and
    e2p[te..min(hi, L-1), 1] (row 1 of a plus node, left out of every
    message of it that is read before the forward eq rewrites it)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rng = np.random.default_rng(17)

    def _iterate(self, te, hi, eq_te):
        super()._iterate(te, hi, eq_te)
        n, L = self.sys.n, self.sys.L
        self.p2e[te + 1:hi + 1, 0] = self.rng.normal(0, 8, (hi - te, n))
        rows = min(hi, L - 1) + 1 - te
        self.e2p[te:te + rows, 1] = llr_to_phi(self.rng.normal(0, 8, (rows, n)))


@pytest.mark.parametrize("spec", SCHEDULE_SPECS)
@pytest.mark.parametrize("m,d,i_max", SCHEDULE_CASES)
def test_dead_messages_are_never_read(spec, m, d, i_max):
    sys_, frames = _schedule_frames(spec, m, d)
    for llr in frames:
        res = decode_frame_swd(sys_, llr, d=d, i_max=i_max)
        v_hats = _steps(WindowDecoder(sys_, llr, d, i_max))[1]
        dec = ScramblingDecoder(sys_, llr, d, i_max)
        for t in range(SCHEDULE_L):
            u_hat, v_hat, w_tilde, iters = dec.decode_step(t)
            assert np.array_equal(res.u_hat[t], u_hat)
            assert np.array_equal(v_hats[t], v_hat)
            assert np.array_equal(res.w_tilde[t], w_tilde)
            assert res.iterations[t] == iters


@pytest.mark.parametrize("spec", SCHEDULE_SPECS)
@pytest.mark.parametrize("m,d,i_max", SCHEDULE_CASES)
def test_eq_nodes_run_the_code_once_per_visit(monkeypatch, spec, m, d, i_max):
    """The window of layer te calls the basic code's extrinsic once after
    the forward plus(te), once per stop check, whose result the next
    forward eq(te) takes over, and once per forward eq(s), te < s <=
    min(hi, L-1). With m = 0 the window is layer te alone, as with d = 0.
    A one-layer window skips the first call: its forward eq(te) writes
    nothing."""
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return code_extrinsic_llr(*args)

    monkeypatch.setattr("bmst.swd.code_extrinsic_llr", counted)
    sys_, frames = _schedule_frames(spec, m, d)
    L = SCHEDULE_L
    for llr in frames:
        dec = WindowDecoder(sys_, llr, d, i_max)
        for te in range(L):
            before = calls
            iters = dec.decode_step(te)[3]
            hi = te if m == 0 else min(te + d, sys_.total_blocks - 1)
            idle = hi == te
            assert calls - before == (not idle) + iters * (1 + min(hi, L - 1) - te)
