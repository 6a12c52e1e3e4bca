"""Genie-aided decoding and the two-phase decoder.

The genie-aided decoder (GAD) recovers each layer by cancelling every other
layer's contribution from the m+1 received sub-blocks it touches, using
side-information branch words, then picking the short codeword that
minimizes the combined Euclidean metric (a correlation maximization, B
independent searches of at most 2^K codewords each). It works on the whole
frame at once: the superposition x of all side-information words is built
once, and the interference on y^(t+i) outside layer t is x[t+i] XOR w^(t,i).

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


# Side information is a (T, m+1, n) array of branch words w^(t,i), as
# reported by a (possibly noisy) genie for every layer, tail layers
# included. A layer's own branch words are never consulted when it is
# decoded. The true words, the perfect genie, are what
# coupling.encode_frame returns with return_intermediate=True.

def flipped_side_info(words, p_genie, rng):
    """The branch words with each bit independently flipped with prob p_genie."""
    return words ^ (rng.random(words.shape) < p_genie).astype(np.uint8)


def phase_one_side_info(sys, w_tilde):
    """Phase-I outputs (L, m+1, n) padded with the known all-zero tail."""
    words = np.zeros((sys.total_blocks, sys.m + 1, sys.n), dtype=np.uint8)
    words[:sys.L] = w_tilde
    return words


def gad_cancel(sys, y, words):
    """Strip all other layers' contributions from the received rows of
    every data layer.

    y: (T, n) received frame; words: (T, m+1, n) side information. Returns
    (L, m+1, n) cleaned observations: row [t, i] is y^(t+i) with sign flips
    wherever the side-information estimate of the interference on c^(t+i),
    the superposition x[t+i] without layer t's own term, is 1."""
    m, n, L, T = sys.m, sys.n, sys.L, sys.total_blocks
    y = np.asarray(y, dtype=np.float64)
    words = np.asarray(words, dtype=np.uint8)
    if y.shape != (T, n):
        raise SideInfoError(f"received frame shape {y.shape} != {(T, n)}")
    if words.shape != (T, m + 1, n):
        raise SideInfoError(f"side info shape {words.shape} != {(T, m + 1, n)}")
    rows = np.arange(L)[:, None] + np.arange(m + 1)  # (L, m+1): t+i
    interference = superpose(words)[rows] ^ words[:L]
    cleaned = y[rows]
    # times +-1 is an exact sign flip; int8, since 1 - 2 * uint8 wraps
    cleaned *= 1 - 2 * interference.view(np.int8)
    return cleaned


def gad_minimize(sys, cleaned):
    """Minimum-Euclidean-distance decoding of every data layer from its
    cleaned observations (L, m+1, n); returns the (L, k) messages. Ties
    break toward the lexicographically smallest message (codebook order)."""
    short, invs, L = sys.basic.short, sys.interleavers.invs, sys.L
    r = np.zeros((L, sys.n))  # per-v-bit correlation, branches de-permuted
    for i in range(sys.m + 1):
        r += np.take(cleaned[:, i], invs[i], axis=1)
    signs = 1.0 - 2.0 * short.codebook.astype(np.float64)  # (ncw, N)
    scores = r.reshape(L * sys.basic.B, short.N) @ signs.T  # maximize correlation
    best = np.argmax(scores, axis=1)
    return short.codebook_msgs[best].reshape(L, sys.k)


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
    return decode_frame_gad(sys, y, phase_one_side_info(sys, phase1.w_tilde)), phase1
