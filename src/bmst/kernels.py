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
"""

import numpy as np

LLR_MAX = 40.0

# Names the leave-one-out arithmetic. Results hash it, so a run written by
# a different kernel is not resumed into one written by this kernel.
KERNEL_ID = "phi-loo-1"

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


def phi(x):
    """phi(x) = log((e^x + 1)/(e^x - 1)) for x >= 0, in the branch-free form
    log1p(2/expm1(x)), which keeps full relative precision at both ends.
    phi(0) = inf and phi(inf) = 0."""
    with np.errstate(divide="ignore", over="ignore"):
        return _phi_inplace(np.array(x, dtype=np.float64))


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


def leave_one_out_boxplus(stack):
    """For an (M, n) stack of LLRs, row i of the result is the boxplus of
    all rows except i. Output clamped to +-LLR_MAX.

    The phi sum over the other rows is an exclusive prefix sum plus an
    exclusive suffix sum. Subtracting a row's own term from the total
    instead would cancel catastrophically whenever that term dominates."""
    stack = np.asarray(stack, dtype=np.float64)
    rows = len(stack)
    with np.errstate(divide="ignore", over="ignore"):
        mag = _phi_inplace(np.abs(stack))
        loo = np.empty_like(mag)
        suf = np.empty_like(mag)
        loo[0] = 0.0
        suf[-1] = 0.0
        for i in range(1, rows):
            np.add(loo[i - 1], mag[i - 1], out=loo[i])
        for i in range(rows - 2, -1, -1):
            np.add(suf[i + 1], mag[i + 1], out=suf[i])
        out = _phi_inplace(np.add(loo, suf, out=loo))
    np.minimum(out, LLR_MAX, out=out)
    # row i is negative where its sign differs from the parity of all signs
    parity = np.bitwise_xor.reduce(np.signbit(stack), axis=0)
    return np.copysign(out, stack * np.where(parity, -1.0, 1.0), out=out)


def blockwise_loo_sum(llr, block):
    """Leave-one-out sum within consecutive blocks of `block` bits.

    This is the extrinsic SISO update of a repetition code: every code bit
    equals the message bit, so the extrinsic LLR of bit j is the sum of the
    other bits' LLRs in its block."""
    llr = np.asarray(llr, dtype=np.float64)
    x = llr.reshape(-1, block)
    return clamp(x.sum(axis=1, keepdims=True) - x).reshape(llr.shape)


def blockwise_loo_boxplus(llr, block):
    """Leave-one-out boxplus within consecutive blocks of `block` bits.

    This is the extrinsic SISO update of a single parity-check code: the
    codebook is all even-weight vectors, so marginalizing the parity
    constraint gives the boxplus of the other bits."""
    llr = np.asarray(llr, dtype=np.float64)
    x = llr.reshape(-1, block).T  # (block, nblocks)
    return leave_one_out_boxplus(x).T.reshape(llr.shape)
