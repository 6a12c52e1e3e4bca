"""Hot numeric kernels, in numpy.

All LLRs use the convention log(P(bit=0)/P(bit=1)) and are clamped to
[-LLR_MAX, LLR_MAX]. Boxplus is the exact XOR-constraint combination rule
2*atanh(tanh(a/2)*tanh(b/2)) (Hagenauer, Offer & Papke 1996).

The leave-one-out kernels work in the phi domain (Fossorier, Mihaljevic &
Imai 1999): with phi(x) = -log(tanh(x/2)), which is its own inverse on
x >= 0, the boxplus of several LLRs has magnitude phi(sum of phi(|llr|))
and the sign of the product of their signs. This is exact, like the tanh
rule. boxplus_numpy is the pairwise form of the same rule and serves as the
elementwise oracle; the kernels agree with it to 1e-12 in LLR.
leave_one_out_boxplus takes its stack already in the phi domain
(llr_to_phi), so a caller that keeps its messages there converts each
message once, not at every read.

The kernels on the message path (llr_to_phi, phi, leave_one_out_boxplus and
the blockwise extrinsics) compute in the dtype they are given, float32 or
float64; any other input is taken as float64. The window decoder's messages
are float32 (channel.channel_llr sets that); the exact-oracle tests run the
same kernels in float64.
"""

import numpy as np

LLR_MAX = 40.0

# Kept for the benchmark's run record; there is no compiled kernel path.
NUMBA_ENABLED = False

# correction terms log1p(exp(-x)) are dropped for x above this: at 30 they
# are ~9e-14, below double-precision relevance on the LLR scale
_BP_CORR_CUT = 30.0


def boxplus_numpy(a, b):
    """Elementwise boxplus of two LLR arrays (not clamped)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
    for x, sgn in ((np.abs(a + b), 1.0), (np.abs(a - b), -1.0)):
        out = out + sgn * np.where(x < _BP_CORR_CUT, np.log1p(np.exp(-np.minimum(x, _BP_CORR_CUT))), 0.0)
    return out


def boxplus_scalar(a, b):
    """Scalar boxplus, exact formula. Mostly for tests and small oracles."""
    return float(boxplus_numpy(np.float64(a), np.float64(b)))


def float_array(x):
    """x as an array of its own dtype if that is float32 or float64, else
    as float64; the message-path kernels compute in that dtype."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else np.asarray(x, dtype=np.float64)


def phi(x):
    """phi(x) = log((e^x + 1)/(e^x - 1)) for x >= 0, in the branch-free form
    log1p(2/expm1(x)), which keeps full relative precision at both ends.
    phi(0) = inf and phi(inf) = 0."""
    with np.errstate(divide="ignore", over="ignore"):
        return _phi_inplace(np.array(float_array(x)))


def _phi_inplace(x):
    # callers silence the divide and overflow warnings of phi(0) and phi(tiny)
    np.expm1(x, out=x)
    np.divide(2.0, x, out=x)
    return np.log1p(x, out=x)


def clamp(x):
    """Clamp an LLR array to +-LLR_MAX in place; returns it."""
    np.minimum(x, LLR_MAX, out=x)
    np.maximum(x, -LLR_MAX, out=x)
    return x


def _bits(x):
    """The float array x seen as unsigned words of its width, and the word
    that holds only the sign bit."""
    words = x.view(f"u{x.itemsize}")
    return words, words.dtype.type(1 << (8 * x.itemsize - 1))


def _or_sign(x, sign):
    """Set the sign bits `sign` (words of x's width, sign bit only) on
    x >= 0 in place; returns x. Cheaper than np.copysign over several rows."""
    np.bitwise_or(x.view(sign.dtype), sign, out=x.view(sign.dtype))
    return x


def llr_to_phi(llr):
    """The phi domain the leave-one-out kernel takes: phi(|llr|) carrying
    the sign bit of llr, in a new array. A zero LLR maps to +-inf."""
    llr = float_array(llr)
    words, sign_bit = _bits(llr)
    sign = words & sign_bit
    with np.errstate(divide="ignore", over="ignore"):
        out = _phi_inplace(np.abs(llr))
    return _or_sign(out, sign)


def leave_one_out_boxplus(stack, lo=0, hi=None):
    """For an (M, n) stack in the phi domain (see llr_to_phi), row i of the
    leave-one-out boxplus is the boxplus of all rows except i, as an LLR
    clamped to +-LLR_MAX. Returns rows lo..hi-1 of it, default all.

    The phi sum over the other rows is an exclusive prefix sum plus an
    exclusive suffix sum. Subtracting a row's own term from the total
    instead would cancel catastrophically whenever that term dominates.
    The prefix chain stops at row hi-1 and the suffix chain at row lo;
    every term is added in the same order whatever rows are asked for."""
    stack = float_array(stack)
    rows = len(stack)
    hi = rows if hi is None else hi
    mag = np.abs(stack)
    pre = np.empty((hi, stack.shape[1]), dtype=stack.dtype)
    # suf[j] belongs to row lo+j
    suf = np.empty((rows - lo, stack.shape[1]), dtype=stack.dtype)
    pre[0] = 0.0
    suf[-1] = 0.0
    for i in range(1, hi):
        np.add(pre[i - 1], mag[i - 1], out=pre[i])
    for i in range(rows - 2, lo - 1, -1):
        np.add(suf[i - lo + 1], mag[i + 1], out=suf[i - lo])
    with np.errstate(divide="ignore", over="ignore"):
        out = _phi_inplace(np.add(pre[lo:], suf[:hi - lo], out=pre[lo:]))
    np.minimum(out, LLR_MAX, out=out)
    # row i is negative where its sign differs from the parity of all signs
    words, sign_bit = _bits(stack)
    sign = np.bitwise_xor(words[lo:hi], np.bitwise_xor.reduce(words, axis=0))
    return _or_sign(out, np.bitwise_and(sign, sign_bit, out=sign))


def blockwise_loo_sum(llr, block):
    """Leave-one-out sum within consecutive blocks of `block` bits.

    This is the extrinsic SISO update of a repetition code: every code bit
    equals the message bit, so the extrinsic LLR of bit j is the sum of the
    other bits' LLRs in its block."""
    llr = float_array(llr)
    x = llr.reshape(-1, block)
    if block < 8:
        # the same left-to-right sum as x.sum(axis=1), which adds fewer
        # than 8 terms in order but runs its reduction loop once per block
        total = x[:, :1].copy()
        for j in range(1, block):
            total += x[:, j:j + 1]
    else:
        total = x.sum(axis=1, keepdims=True)
    return clamp(total - x).reshape(llr.shape)


def blockwise_loo_boxplus(llr, block):
    """Leave-one-out boxplus within consecutive blocks of `block` bits.

    This is the extrinsic SISO update of a single parity-check code: the
    codebook is all even-weight vectors, so marginalizing the parity
    constraint gives the boxplus of the other bits."""
    llr = float_array(llr)
    x = llr_to_phi(llr).reshape(-1, block).T  # (block, nblocks)
    return leave_one_out_boxplus(x).T.reshape(llr.shape)
