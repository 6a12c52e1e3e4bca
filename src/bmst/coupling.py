"""Spatial coupling of the basic code: interleavers, superposition encoding
with zero-tail termination, and BPSK mapping.

Interleaver convention: perms[i] is an index array p with w = v[p], i.e.
w_j = v[p[j]]. invs[i] is the inverse (v = w[invs[i]]). perms[0] is the
identity. Permutations i = 1..m are drawn sequentially from
numpy.random.default_rng(seed).permutation(n), whose underlying shuffle is
Fisher-Yates; the same (seed, m, n) always regenerates the same set.
"""

from dataclasses import dataclass, field

import numpy as np

from .codes import CartesianCode, CodeError, encode_cartesian, parse_code_spec


@dataclass(frozen=True)
class InterleaverSet:
    m: int
    n: int
    seed: int
    perms: np.ndarray = field(repr=False)  # (m+1, n) int64
    invs: np.ndarray = field(repr=False)   # (m+1, n) int64


def generate_interleavers(n, m, seed):
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    perms = np.empty((m + 1, n), dtype=np.int64)
    perms[0] = np.arange(n)
    rng = np.random.default_rng(seed)
    for i in range(1, m + 1):
        perms[i] = rng.permutation(n)
    invs = np.argsort(perms, axis=1)
    return InterleaverSet(m=m, n=n, seed=seed, perms=perms, invs=invs)


@dataclass(frozen=True)
class BmstSystem:
    """Basic Cartesian code + memory-m coupling + frame length L."""

    basic: CartesianCode
    interleavers: InterleaverSet
    L: int

    @property
    def m(self):
        return self.interleavers.m

    @property
    def n(self):
        return self.basic.n

    @property
    def k(self):
        return self.basic.k

    @property
    def total_blocks(self):
        return self.L + self.m

    @property
    def frame_rate(self):
        return self.k * self.L / (self.n * (self.L + self.m))

    def __post_init__(self):
        if self.interleavers.n != self.basic.n:
            raise ValueError("interleaver length must equal basic code length")
        if self.L < 1:
            raise ValueError("need L >= 1")


def make_system(code_spec_or_code, m, L, seed):
    basic = code_spec_or_code
    if isinstance(basic, str):
        basic = parse_code_spec(basic)
    return BmstSystem(basic=basic, interleavers=generate_interleavers(basic.n, m, seed), L=L)


def superpose(words):
    """Superposition along the coupling diagonal: (T, m+1, n) branch words
    to (T, n) rows, row s = XOR_i words[s-i, i] over 0 <= s-i < T."""
    x = words[:, 0].copy()
    for i in range(1, words.shape[1]):
        x[i:] ^= words[:-i, i]
    return x


def encode_frame(sys, messages, return_intermediate=False):
    """Encode L message blocks plus the m zero termination blocks.

    messages: (L, k) bits. Returns (L+m, n) transmitted bits
    c^(t) = XOR_i v^(t-i) permuted by perms[i]; with
    return_intermediate=True also the (L+m, m+1, n) branch words of
    true_branch_words, whose branch 0 is the intermediate codewords v."""
    messages = np.asarray(messages, dtype=np.uint8)
    if messages.shape != (sys.L, sys.k):
        raise CodeError(f"expected {(sys.L, sys.k)} message bits, got {messages.shape}")
    v = np.zeros((sys.total_blocks, sys.n), dtype=np.uint8)
    v[:sys.L] = encode_cartesian(sys.basic, messages)
    words = true_branch_words(sys, v)
    c = superpose(words)
    if return_intermediate:
        return c, words
    return c


def bpsk_map(c):
    """Bit 0 -> +1.0, bit 1 -> -1.0."""
    return 1.0 - 2.0 * np.asarray(c, dtype=np.float64)


def true_branch_words(sys, v):
    """w^(t,i) = v^(t) permuted by perms[i], for all layers: (T, m+1, n)."""
    perms = sys.interleavers.perms
    return v[:, perms].astype(np.uint8, copy=False)  # fancy index broadcasts layer axis
