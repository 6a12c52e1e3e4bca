"""Genie-aided decoding and the two-phase decoder.

The genie-aided decoder (GAD) recovers each layer by cancelling every other
layer's contribution from the m+1 received sub-blocks it touches, using side
information, then picking the short codeword that minimizes the combined
Euclidean metric (a correlation maximization, B independent searches of at
most 2^K codewords each). It works on the whole frame at once. The
interference on y^(t+i) outside layer t is x[t+i] XOR (its branch i), x the
superposition of the side information; as a sign, s(b) = 1 - 2b, a product.
So the frame is stripped of x once, and each branch's rows, gathered into
layer t's bit order and times s(words[t, i]), add into one (L, n) correlation.

The two-phase decoder (TPD) runs the sliding-window decoder as phase I,
takes the hard extrinsic branch decisions as a noisy genie, and re-decodes
every layer with the GAD as phase II.
"""

import numpy as np

from .channel import channel_llr
from .coupling import superpose
from .swd import STOP_THRESHOLD, decode_frame_swd


class SideInfoError(ValueError):
    pass


# Side information is coupling's (L, m+1, n) format, as reported by a
# (possibly noisy) genie; a layer's own entries are never consulted when it
# is decoded. The perfect genie is coupling.true_branch_words; phase I emits
# the format too (swd.SwdResult.w_tilde).

def flipped_side_info(words, p_genie, rng):
    """Side information with each bit independently flipped with prob p_genie."""
    return words ^ (rng.random(words.shape) < p_genie).astype(np.uint8)


def gad_cancel(sys, y, words):
    """Per-v-bit correlations (L, n) of every data layer, with all other
    layers' contributions stripped. y: (T, n) received frame; words:
    (L, m+1, n) side information. Row t sums, in branch order, y^(t+i) times
    s(x[t+i]) gathered back through interleaver i, times s(words[t, i])."""
    m, n, L, T = sys.m, sys.n, sys.L, sys.total_blocks
    y = np.asarray(y, dtype=np.float64)
    words = np.asarray(words, dtype=np.uint8)
    if y.shape != (T, n):
        raise SideInfoError(f"received frame shape {y.shape} != {(T, n)}")
    if words.shape != (L, m + 1, n):
        raise SideInfoError(f"side info shape {words.shape} != {(L, m + 1, n)}")
    # times +-1 is an exact sign flip; int8, since 1 - 2 * uint8 wraps
    stripped = y * (1 - 2 * superpose(sys, words).view(np.int8))
    r = np.zeros((L, n))
    flipped = np.empty((L, n))  # reused: a fresh (L, n) per branch churns the heap
    for i, inv in enumerate(sys.interleavers.invs):
        # inv is in range; "clip" writes into flipped without a buffer
        np.take(stripped[i:i + L], inv, axis=1, out=flipped, mode="clip")
        flipped *= 1 - 2 * words[:, i].view(np.int8)
        r += flipped
    return r


def gad_minimize(sys, r):
    """Minimum-Euclidean-distance decoding of every data layer from its
    (L, n) correlations; returns the (L, k) messages. Ties break toward the
    lexicographically smallest message (codebook order)."""
    short = sys.basic.short
    signs = 1.0 - 2.0 * short.codebook.astype(np.float64)  # (ncw, N)
    scores = r.reshape(sys.L * sys.basic.B, short.N) @ signs.T  # maximize correlation
    best = np.argmax(scores, axis=1)
    return short.codebook_msgs[best].reshape(sys.L, sys.k)


def decode_frame_gad(sys, y, words):
    """GAD over every data layer of a frame: (L, k) message decisions."""
    return gad_minimize(sys, gad_cancel(sys, y, words))


def decode_frame_tpd(sys, y, sigma, d, i_max, stop_threshold=STOP_THRESHOLD):
    """Phase I: sliding-window decode the frame, collecting the hard
    extrinsic branch decisions. Phase II: genie-aided decode every layer
    treating those decisions as side information (the target layer's own
    branches are never consulted). Returns the (L, k) phase-II decisions
    and the phase-I SwdResult."""
    y = np.asarray(y, dtype=np.float64)
    phase1 = decode_frame_swd(sys, channel_llr(y, sigma), d, i_max, stop_threshold)
    return decode_frame_gad(sys, y, phase1.w_tilde), phase1
