"""Short binary block codes, Cartesian products, IOWEFs and SISO MAP decoding.

A code is its systematic generator [I_K | P]; N, K and the full codebook,
whose codewords' first K bits are their messages, are derived from it. The
codebook keeps the MAP decoder (a log-domain enumeration of the codebook)
and the weight enumerator exact. K is capped at 24 to bound the enumeration.
"""

import re
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .kernels import blockwise_loo_boxplus, blockwise_loo_sum, clamp, float_array

PROB_CLAMP = 1e-12  # keeps log priors finite
MAX_K = 24


class CodeError(ValueError):
    pass


def as_bits(x, what, error=CodeError):
    """x as a uint8 array, once every value is exactly 0 or 1: a cast first
    would read 256 or 0.5 as 0. A uint8 array costs one max pass."""
    x = np.asarray(x)
    if not (x.max(initial=0) <= 1 if x.dtype == np.uint8 else np.all((x == 0) | (x == 1))):
        raise error(f"{what} must be 0 or 1")
    return x.astype(np.uint8, copy=False)


@dataclass(frozen=True, eq=False)
class ShortCode:
    """A binary [N, K] block code, given by its K x N generator [I_K | P]:
    the window decoder reads a block's first K bits as its message. N, K
    and the codebook, the codewords of all K-bit messages in lexicographic
    order (bit 0 most significant), are derived from it. kind ("generic" or
    the FAMILIES key of its builder) selects the SISO path; it is set, not
    derived: RC[2,1] and SPC[2,1] share a generator, but their closed forms
    round off differently. Codes compare and hash by identity."""

    generator: np.ndarray
    kind: str = "generic"
    N: int = field(init=False)
    K: int = field(init=False)
    codebook: np.ndarray = field(init=False, repr=False)

    @property
    def rate(self):
        return self.K / self.N

    @property
    def codebook_msgs(self):
        return self.codebook[:, :self.K]

    def __post_init__(self):
        g = as_bits(self.generator, "generator entries").copy()  # not the caller's array
        if g.ndim != 2 or len(g) < 1:
            raise CodeError(f"generator must be a K x N matrix with K >= 1, got shape {g.shape}")
        k, n = g.shape
        if k > MAX_K:
            raise CodeError(f"K={k} exceeds enumeration cap {MAX_K}")
        if not np.array_equal(g[:, :k], np.eye(k, dtype=np.uint8)):
            raise CodeError("generator is not systematic: its first K columns are not I_K")
        # by doubling: the words so far, then the same words XOR a row, for
        # each row from the last, so that row 0 sets the most significant bit
        codebook = np.zeros((2 ** k, n), dtype=np.uint8)
        for i, row in enumerate(g[::-1]):
            np.bitwise_xor(codebook[:2 ** i], row, out=codebook[2 ** i:2 ** (i + 1)])
        for name, value in (("generator", g), ("N", n), ("K", k), ("codebook", codebook)):
            object.__setattr__(self, name, value)


def make_code(generator):
    """The generic ShortCode of a systematic generator [I_K | P]: its SISO
    path enumerates the codebook; the closed forms are the FAMILIES'."""
    return ShortCode(generator)


def make_repetition(N):
    """The [N, 1] repetition code (all-ones generator row)."""
    if N < 1:
        raise CodeError("repetition code needs N >= 1")
    return ShortCode(np.ones((1, N)), "rc")


def make_spc(N):
    """The [N, N-1] single parity-check code, systematic with the parity
    bit last (XOR of the message bits)."""
    if not 2 <= N <= MAX_K + 1:
        raise CodeError(f"SPC code needs 2 <= N <= {MAX_K + 1}")
    return ShortCode(np.hstack([np.eye(N - 1), np.ones((N - 1, 1))]), "spc")


FAMILIES = {"rc": make_repetition, "spc": make_spc}  # spec name -> builder, given N


@dataclass(frozen=True)
class Iowef:
    """Input-output weight enumerator: coefficients[(g, h)] counts codewords
    of Hamming weight h produced by messages of Hamming weight g."""

    K: int
    N: int
    coefficients: dict


def compute_iowef(code):
    g = code.codebook_msgs.sum(axis=1)
    h = code.codebook.sum(axis=1)
    coeff = {}
    for gi, hi in zip(g.tolist(), h.tolist()):
        coeff[(gi, hi)] = coeff.get((gi, hi), 0) + 1
    return Iowef(K=code.K, N=code.N, coefficients=coeff)


# ---------------------------------------------------------------------------
# SISO MAP decoding (exact enumeration of the codebook, log domain)
# ---------------------------------------------------------------------------

def _bit_llrs(metric, bits):
    """Bit LLRs of B blocks by exact enumeration of a codebook.

    metric: (B, 2^K) log-metrics of the codewords, one row per block;
    bits: (2^K, M) 0/1 table of the bits to score. Returns (B, M) LLRs: the
    log of the summed weights of the words whose bit is 0, minus that of
    the words whose bit is 1. Each row is shifted by its maximum, so its
    best word weighs 1 and no sum overflows. A class that is empty (a
    constant bit) or underflows gives +-inf, which the callers clamp."""
    w = np.exp(metric - metric.max(axis=1, keepdims=True))
    ones = np.asarray(bits, dtype=np.float64)
    with np.errstate(divide="ignore"):
        return np.log(w @ (1.0 - ones)) - np.log(w @ ones)


def _check_priors(code, priors):
    priors = np.asarray(priors, dtype=np.float64)
    if priors.shape != (code.N, 2):
        raise CodeError(f"priors must have shape ({code.N}, 2)")
    if np.any(np.abs(priors.sum(axis=1) - 1.0) > 1e-9):
        raise CodeError("each prior pair must sum to 1")
    return np.clip(priors, PROB_CLAMP, 1.0 - PROB_CLAMP)


def siso_map_decode(code, priors):
    """Exact SISO MAP decoding of a short code by enumeration.

    priors: (N, 2) array, priors[j, v] = P(c_j = v).
    Returns (code_post, msg_post): (N, 2) posteriors over code bits and
    (K, 2) posteriors over message bits, the first K code bits."""
    logp = np.log(_check_priors(code, priors))
    metric = np.where(code.codebook == 0, logp[:, 0], logp[:, 1]).sum(axis=1)
    llr = _bit_llrs(metric[None], code.codebook)[0]
    # P(c = 0) = 1 / (1 + e^-llr), exact at +-inf (a constant bit)
    post = np.exp(-np.stack([np.logaddexp(0.0, -llr), np.logaddexp(0.0, llr)], axis=1))
    return post, post[:code.K]


def code_extrinsic_llr(code, llr):
    """Extrinsic SISO output for B stacked blocks of a short code, LLR in,
    LLR out. llr has length B*N. Uses closed forms for RC and SPC, the
    exact enumeration of the codebook, for all blocks at once, otherwise.
    The output has the dtype of llr (kernels.float_array); the enumeration
    runs in float64 whatever it is."""
    llr = float_array(llr)
    if code.kind == "rc":
        return blockwise_loo_sum(llr, code.N)
    if code.kind == "spc":
        return blockwise_loo_boxplus(llr, code.N)
    blocks = llr.reshape(-1, code.N)
    # log P(c) up to a per-block constant: half the LLR-weighted sign sum
    metric = 0.5 * blocks @ (1.0 - 2.0 * code.codebook).T
    # the APP less the block's own input; clamped only after subtracting,
    # so that a saturated input keeps its extrinsic
    ext = clamp(_bit_llrs(metric, code.codebook) - blocks)
    return ext.astype(llr.dtype, copy=False).reshape(llr.shape)


# ---------------------------------------------------------------------------
# Cartesian products
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CartesianCode:
    """B-fold Cartesian product of a short code: B independent copies
    encoded and decoded blockwise."""

    short: ShortCode
    B: int

    @property
    def n(self):
        return self.short.N * self.B

    @property
    def k(self):
        return self.short.K * self.B

    @property
    def rate(self):
        return self.short.rate

    def __post_init__(self):
        if self.B < 1:
            raise CodeError("B must be >= 1")

    def systematic(self, x):
        """Each block's first K of n codeword values x: its message bits."""
        return x.reshape(self.B, self.short.N)[:, :self.short.K].reshape(-1)


def encode_cartesian(cart, message):
    """Codewords of (..., k) message bits: (..., n), blockwise."""
    message = as_bits(message, "message bits")
    lead = message.shape[:-1]
    if message.shape[-1:] != (cart.k,):
        raise CodeError(f"message shape {message.shape} does not end in k={cart.k}")
    blocks = message.reshape(*lead, cart.B, cart.short.K)
    return ((blocks @ cart.short.generator) % 2).astype(np.uint8).reshape(*lead, cart.n)


_SPEC_RE = re.compile(rf"^({'|'.join(FAMILIES)})\[(\d+),(\d+)\]\^(\d+)$", re.IGNORECASE)


@lru_cache(maxsize=None)
def _short_code(family, N):
    return FAMILIES[family](N)


def parse_code_spec(spec):
    """Parse "<family>[N,K]^B", family a FAMILIES key in any case (e.g.
    "RC[2,1]^5000", "SPC[4,3]^2500"), into a CartesianCode."""
    m = _SPEC_RE.match(spec.strip())
    if not m:
        raise CodeError(f"unrecognized code spec {spec!r}")
    family, N, K, B = m.group(1).lower(), int(m.group(2)), int(m.group(3)), int(m.group(4))
    short = _short_code(family, N)
    if K != short.K:
        raise CodeError(f"bad K in {spec!r}: the code is {family.upper()}[{short.N},{short.K}]")
    return CartesianCode(short=short, B=B)
