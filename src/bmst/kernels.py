"""Hot numeric kernels, in numpy.

All LLRs use the convention log(P(bit=0)/P(bit=1)) and are clamped to
[-LLR_MAX, LLR_MAX]. Boxplus is the exact XOR-constraint combination rule
2*atanh(tanh(a/2)*tanh(b/2)) (Hagenauer, Offer & Papke 1996).

The leave-one-out kernels work in the phi domain (Fossorier, Mihaljevic &
Imai 1999): with phi(x) = -log(tanh(x/2)), which is its own inverse on
x >= 0, the boxplus of several LLRs has magnitude phi(sum of phi(|llr|))
and the sign of the product of their signs. This is exact, like the tanh
rule. Every leave-one-out sum here, of phi terms or of repetition-code
LLRs, is an exclusive prefix sum plus an exclusive suffix sum, with no
subtraction. boxplus_numpy is the pairwise form of the rule and the exact
oracle: within 4e-16 * max(1, |value|) of 50-digit mpmath, absolute near
zero, where its corrections cancel. The kernels agree with it to 1e-12.
leave_one_out_boxplus takes its stack already in the phi domain
(llr_to_phi), so a caller that keeps its messages there converts each
message once, not at every read. phi(0) divides by zero and phi(tiny)
overflows, each to the right inf; _phi_inplace, which every phi here goes
through, silences both warnings under an np.errstate decorator.

The kernels on the message path (llr_to_phi, phi, leave_one_out_boxplus and
the blockwise extrinsics) compute in the dtype they are given, float32 or
float64; any other input is taken as float64. The window decoder's messages
are float32 (channel.channel_llr sets that); the exact-oracle tests run the
same kernels in float64.

At the window decoder's sizes a numpy call costs about as much as the
arithmetic it does, so the message-path kernels keep their calls few and
give the same bits as one add at a time:
- leave_one_out_boxplus and llr_to_phi take `out=`, an array of the result's
  shape and dtype, and write their result there: a plus node fills its
  messages in place, and a replication node converts its messages in place
  (llr_to_phi(x, out=x) is allowed).
- For one output row, which every forward plus node asks for, each of the
  two chains is one np.add.reduce over its rows in chain order. numpy adds
  the rows one after another there, as the prefix and suffix loops do.
- LLR_MAX, 2 and the sign-bit word are numpy scalars of the message dtype,
  built once per dtype, not Python floats converted at every call.
tests/test_swd.py keeps the loop kernel as the reference and checks every
row range against it word for word. README "Performance" gives the measured
pairs (BENCH_16.json).
"""

from typing import NamedTuple

import numpy as np

LLR_MAX = 40.0


class _Typed(NamedTuple):
    """The constants of the message path as numpy scalars of one float
    dtype, built once: a Python float would be converted at every call."""
    llr_max: np.floating
    neg_llr_max: np.floating
    two: np.floating
    word: np.dtype                 # unsigned integer of the float's width
    sign_bit: np.unsignedinteger   # the word with only the sign bit set


def _typed(t):
    word = np.dtype(f"u{np.dtype(t).itemsize}")
    return _Typed(t(LLR_MAX), t(-LLR_MAX), t(2), word, word.type(1 << (8 * word.itemsize - 1)))


_TYPED = {np.dtype(t): _typed(t) for t in (np.float32, np.float64)}

# Kept for the benchmark's run record; there is no compiled kernel path.
NUMBA_ENABLED = False


def boxplus_numpy(a, b):
    """Elementwise boxplus of two LLR arrays (not clamped), exact to double
    precision: the exp of each correction term underflows to the true 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
    return out + (np.log1p(np.exp(-np.abs(a + b))) - np.log1p(np.exp(-np.abs(a - b))))


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
    return _phi_inplace(np.array(float_array(x)))


# the phi path's one error state: phi(0) divides by zero, phi(tiny) overflows
@np.errstate(divide="ignore", over="ignore")
def _phi_inplace(x):
    np.expm1(x, out=x)
    np.divide(_TYPED[x.dtype].two, x, out=x)
    return np.log1p(x, out=x)


def clamp(x):
    """Clamp a float32 or float64 LLR array to +-LLR_MAX in place; returns
    it."""
    typed = _TYPED[x.dtype]
    return x.clip(typed.neg_llr_max, typed.llr_max, out=x)


def _or_sign(x, sign):
    """Set the sign bits `sign` (words of x's width, sign bit only) on
    x >= 0 in place; returns x. Cheaper than np.copysign over several rows."""
    words = x.view(sign.dtype)
    np.bitwise_or(words, sign, out=words)
    return x


def llr_to_phi(llr, out=None):
    """The phi domain the leave-one-out kernel takes: phi(|llr|) carrying
    the sign bit of llr, written to `out` (an array of llr's shape and dtype,
    which may be llr itself) or to a new array. A zero LLR maps to +-inf."""
    llr = float_array(llr)
    typed = _TYPED[llr.dtype]
    sign = np.bitwise_and(llr.view(typed.word), typed.sign_bit)
    out = _phi_inplace(np.abs(llr, out=out))
    return _or_sign(out, sign)


def _chain(rows):
    """The sum of the rows of a C-ordered (k, n) magnitude array, n > 1, added
    one row after another in the order given: zero for k = 0 (0 + x is x,
    as in the prefix and suffix loops). numpy's reduction adds row by row
    here; it would sum pairwise along its inner axis, which C order and
    n > 1 rule out."""
    return rows[0] if len(rows) == 1 else np.add.reduce(rows, axis=0)


def leave_one_out_boxplus(stack, lo=0, hi=None, out=None):
    """For an (M, n) stack in the phi domain (see llr_to_phi), row i of the
    leave-one-out boxplus is the boxplus of all rows except i, as an LLR
    clamped to +-LLR_MAX. Returns rows lo..hi-1 of it, default all, written
    to `out` (an (hi-lo, n) array of the stack's dtype) or to a new array.

    The phi sum over the other rows is an exclusive prefix sum plus an
    exclusive suffix sum. Subtracting a row's own term from the total
    instead would cancel catastrophically whenever that term dominates.
    The prefix chain stops at row hi-1 and the suffix chain at row lo;
    every term is added in the same order whatever rows are asked for."""
    stack = float_array(stack)
    typed = _TYPED[stack.dtype]
    rows, n = stack.shape
    hi = rows if hi is None else hi
    if out is None:
        out = np.empty((hi - lo, n), dtype=stack.dtype)
    mag = np.abs(stack, order="C")
    if hi - lo == 1 and n > 1:
        # one row, as at every forward plus node: each chain is one reduction
        np.add(_chain(mag[:lo]), _chain(mag[:lo:-1]), out=out[0])
    else:
        pre = np.empty((hi, n), dtype=stack.dtype)
        # suf[j] belongs to row lo+j
        suf = np.empty((rows - lo, n), dtype=stack.dtype)
        pre[0] = 0.0
        suf[-1] = 0.0
        for i in range(1, hi):
            np.add(pre[i - 1], mag[i - 1], out=pre[i])
        for i in range(rows - 2, lo - 1, -1):
            np.add(suf[i - lo + 1], mag[i + 1], out=suf[i - lo])
        np.add(pre[lo:], suf[:hi - lo], out=out)
    _phi_inplace(out)
    np.minimum(out, typed.llr_max, out=out)
    # row i is negative where its sign differs from the parity of all signs
    words = stack.view(typed.word)
    sign = np.bitwise_xor(words[lo:hi], np.bitwise_xor.reduce(words, axis=0))
    return _or_sign(out, np.bitwise_and(sign, typed.sign_bit, out=sign))


def blockwise_loo_sum(llr, block):
    """Leave-one-out sum within consecutive blocks of `block` bits, clamped:
    the extrinsic SISO update of a repetition code, whose code bits all
    equal the message bit. Bit j's is the exclusive suffix plus the
    exclusive prefix sum of its block; for block 2, the partner's LLR
    exactly, -0 read as +0."""
    llr = float_array(llr)
    x = llr.reshape(-1, block)
    ext = np.zeros(x.shape, dtype=x.dtype)
    for j in range(block - 1, 0, -1):
        np.add(ext[:, j], x[:, j], out=ext[:, j - 1])
    for j in range(1, block):
        pre = x[:, 0] if j == 1 else pre + x[:, j - 1]
        np.add(ext[:, j], pre, out=ext[:, j])
    return clamp(ext).reshape(llr.shape)


def blockwise_loo_boxplus(llr, block):
    """Leave-one-out boxplus within consecutive blocks of `block` bits.

    This is the extrinsic SISO update of a single parity-check code: the
    codebook is all even-weight vectors, so marginalizing the parity
    constraint gives the boxplus of the other bits."""
    llr = float_array(llr)
    x = llr_to_phi(llr).reshape(-1, block).T  # (block, nblocks)
    return leave_one_out_boxplus(x).T.reshape(llr.shape)
