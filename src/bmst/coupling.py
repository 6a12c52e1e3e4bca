"""Spatial coupling of the basic code: interleavers, superposition encoding
with zero-tail termination, and BPSK mapping.

Interleaver convention: perms[i] is an index array p with w = v[p], i.e.
w_j = v[p[j]]. invs[i] is the inverse (v = w[invs[i]]). perms[0] is the
identity. Permutations i = 1..m are drawn sequentially from
numpy.random.default_rng(seed).permutation(n), whose underlying shuffle is
Fisher-Yates; the same (seed, m, n) always regenerates the same set.

Side information, the format of every genie and of the decoders, is an
(L, m+1, n) uint8 array: entry [t, i] is layer t's own codeword bits as
branch i carries them, in v^(t)'s bit order. superpose is the one place
that permutes it onto the channel.
"""

from dataclasses import dataclass, field

import numpy as np

from .codes import CartesianCode, CodeError, encode_cartesian, parse_code_spec


@dataclass(frozen=True)
class InterleaverSet:
    """The (m+1, n) int64 interleavers perms, as above, and their inverses
    invs; a system reads its m and n off perms.shape."""

    perms: np.ndarray = field(repr=False)
    invs: np.ndarray = field(repr=False)


def generate_interleavers(n, m, seed):
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    perms = np.empty((m + 1, n), dtype=np.int64)
    perms[0] = np.arange(n)
    rng = np.random.default_rng(seed)
    for i in range(1, m + 1):
        perms[i] = rng.permutation(n)
    invs = np.argsort(perms, axis=1)
    return InterleaverSet(perms=perms, invs=invs)


@dataclass(frozen=True)
class BmstSystem:
    """Basic Cartesian code + memory-m coupling + frame length L."""

    basic: CartesianCode
    interleavers: InterleaverSet
    L: int

    @property
    def m(self):
        return len(self.interleavers.perms) - 1

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
        if self.interleavers.perms.shape[1] != self.basic.n:
            raise ValueError("interleaver length must equal basic code length")
        if self.L < 1:
            raise ValueError("need L >= 1")


def make_system(code_spec_or_code, m, L, seed):
    basic = code_spec_or_code
    if isinstance(basic, str):
        basic = parse_code_spec(basic)
    return BmstSystem(basic=basic, interleavers=generate_interleavers(basic.n, m, seed), L=L)


def superpose(sys, words):
    """Superposition along the coupling diagonal: (L, m+1, n) side
    information to (L+m, n) rows, row s = XOR_i words[s-i, i] permuted by
    perms[i], over 0 <= s-i < L."""
    L = len(words)
    x = np.zeros((L + sys.m, sys.n), dtype=np.uint8)
    for i, perm in enumerate(sys.interleavers.perms):
        x[i:i + L] ^= np.take(words[:, i], perm, axis=1)
    return x


def encode_frame(sys, messages, return_intermediate=False):
    """Encode L message blocks plus the m zero termination blocks.

    messages: (L, k) bits. Returns (L+m, n) transmitted bits
    c^(t) = XOR_i v^(t-i) permuted by perms[i]; with
    return_intermediate=True also the (L, n) intermediate codewords v."""
    messages = np.asarray(messages)
    if messages.shape != (sys.L, sys.k):
        raise CodeError(f"expected {(sys.L, sys.k)} message bits, got {messages.shape}")
    v = encode_cartesian(sys.basic, messages)
    c = superpose(sys, true_branch_words(sys, v))
    if return_intermediate:
        return c, v
    return c


def bpsk_map(c):
    """Bit 0 -> +1.0, bit 1 -> -1.0."""
    return 1.0 - 2.0 * np.asarray(c, dtype=np.float64)


def true_branch_words(sys, v):
    """The perfect genie: (L, m+1, n) side information, every branch of
    layer t its codeword v^(t). A read-only view of v, not a copy."""
    v = np.asarray(v, dtype=np.uint8)
    return np.broadcast_to(v[:, None], (len(v), sys.m + 1, sys.n))
