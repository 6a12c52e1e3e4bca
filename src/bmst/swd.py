"""Sliding-window iterative decoding over the coupled normal graph.

Message bookkeeping (all LLR arrays of length n, permuted domain means the
bit order seen by the superposition node of the receiving layer):

  e2p[t, i] : replication node of layer t -> superposition node of layer
              t+i, permuted by perms[i].
  p2e[t, i] : the reverse message, stored in the same permuted domain and
              de-permuted at the replication node.

Superposition node at layer s combines the channel LLR of c^(s) with
e2p[s-i, i] (i = 0..m) under the XOR constraint (leave-one-out boxplus).
The replication node of layer t adds the de-permuted p2e[t, *] messages and
runs the basic code's extrinsic SISO blockwise.

Layers at t >= L (zero tail) are pinned at +LLR_MAX; so are layers already
emitted by the window (decision feedback). Surviving layers keep their
messages when the window slides (warm start); entering layers start
uniform.
"""

from dataclasses import dataclass

import numpy as np

from .codes import code_extrinsic_llr
from .kernels import LLR_MAX, clamp, leave_one_out_boxplus


def binary_entropy_from_llr(llr):
    """Mean binary entropy (bits) of the posteriors implied by LLRs."""
    a = np.abs(np.asarray(llr, dtype=np.float64))
    p = 1.0 / (1.0 + np.exp(a))  # smaller of the two probabilities
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -p * np.log2(p) - q * np.log2(q)
    return float(np.nan_to_num(h).mean())


def hard_decision(llr):
    """LLR < 0 -> bit 1; ties (LLR == 0) resolve to bit 0."""
    return (np.asarray(llr) < 0).astype(np.uint8)


@dataclass
class SwdResult:
    u_hat: np.ndarray      # (L, k) message decisions
    w_tilde: np.ndarray    # (L, m+1, n) hard extrinsic branch decisions
    iterations: np.ndarray  # (L,) iterations used per emitted layer
    v_hat: np.ndarray      # (L, n) intermediate codeword decisions


class WindowDecoder:
    """Streaming window decoder for one frame; decode_frame_swd drives it."""

    def __init__(self, sys, llrs, d, i_max, stop_threshold=1e-5, warm_start=True):
        T = sys.total_blocks
        llrs = np.asarray(llrs, dtype=np.float64)
        if llrs.shape != (T, sys.n):
            raise ValueError(f"expected channel LLRs of shape {(T, sys.n)}")
        if d < 0 or i_max < 1:
            raise ValueError("need d >= 0 and i_max >= 1")
        self.sys = sys
        self.lch = llrs
        self.d = d
        self.i_max = i_max
        self.stop_threshold = stop_threshold
        self.warm_start = warm_start
        m, n = sys.m, sys.n
        self.e2p = np.zeros((T, m + 1, n))
        self.e2p[sys.L:] = LLR_MAX  # zero tail known
        self.p2e = np.zeros((T, m + 1, n))
        self._branches = np.arange(m + 1)
        # interleavers as flat indices into one layer's (m+1, n) messages,
        # so a single fancy index moves all m+1 branches
        il, offsets = sys.interleavers, n * self._branches[:, None]
        self._inv_flat = il.invs + offsets
        self._perm_flat = il.perms + offsets

    # -- node updates -------------------------------------------------------

    def _update_plus(self, s):
        stack = np.empty((self.sys.m + 2, self.sys.n))
        i = self._branches[:s + 1]  # branches whose source layer s-i exists
        k = len(i)
        stack[0] = self.lch[s]
        stack[1:k + 1] = self.e2p[s - i, i]
        stack[k + 1:] = LLR_MAX
        out = leave_one_out_boxplus(stack)
        self.p2e[s - i, i] = out[1:k + 1]

    def _gather(self, t):
        """De-permuted p2e messages of layer t, (m+1, n), and their clamped sum."""
        a = self.p2e[t].reshape(-1)[self._inv_flat]
        return a, clamp(a.sum(axis=0))

    def _update_eq_code(self, t):
        sys = self.sys
        if not 0 <= t < sys.L:
            return  # tail layers stay pinned
        a, s_in = self._gather(t)
        ext = code_extrinsic_llr(sys.basic.short, s_in)
        msg = clamp((ext + s_in) - a)
        self.e2p[t] = msg.reshape(-1)[self._perm_flat]

    def _app(self, t):
        """Full APP LLRs on the intermediate codeword bits of layer t."""
        _, s_in = self._gather(t)
        ext = code_extrinsic_llr(self.sys.basic.short, s_in)
        return clamp(s_in + ext)

    # -- window schedule ----------------------------------------------------

    def _iterate(self, lo, hi):
        """One forward + backward sweep across window layers [lo, hi]."""
        for s in range(lo, hi + 1):
            self._update_plus(s)
            self._update_eq_code(s)
        for s in range(hi, lo - 1, -1):
            self._update_plus(s)
            self._update_eq_code(s)

    def decode_step(self, te):
        """Run the window whose target (oldest) layer is te; emit it."""
        sys = self.sys
        lo, hi = te, min(te + self.d, sys.total_blocks - 1)
        if not self.warm_start:
            self.e2p[lo:sys.L if hi >= sys.L else hi + 1] = 0.0
            self.p2e[lo:hi + 1] = 0.0
        prev_ent = np.inf
        iters = 0
        for _ in range(self.i_max):
            self._iterate(lo, hi)
            iters += 1
            app = self._app(te)
            ent = binary_entropy_from_llr(self._msg_llr(app))
            if ent < self.stop_threshold or ent >= prev_ent:
                break
            prev_ent = ent
        app = self._app(te)
        u_hat = hard_decision(self._msg_llr(app))
        v_hat = hard_decision(app)
        w_tilde = hard_decision(self.e2p[te])  # extrinsic branch messages
        # decision feedback: pin the emitted layer for later windows
        pin = LLR_MAX * (1.0 - 2.0 * v_hat)
        self.e2p[te] = pin[sys.interleavers.perms]
        return u_hat, v_hat, w_tilde, iters

    def _msg_llr(self, app):
        """Extract message-bit LLRs (systematic positions) from codeword APPs."""
        short = self.sys.basic.short
        return app.reshape(self.sys.basic.B, short.N)[:, :short.K].reshape(-1)


def decode_frame_swd(sys, llrs, d, i_max, stop_threshold=1e-5, warm_start=True):
    """Slide the window across a complete frame, emitting layers 0..L-1."""
    dec = WindowDecoder(sys, llrs, d, i_max, stop_threshold, warm_start)
    L, m, n = sys.L, sys.m, sys.n
    u_hat = np.empty((L, sys.k), dtype=np.uint8)
    v_hat = np.empty((L, n), dtype=np.uint8)
    w_tilde = np.empty((L, m + 1, n), dtype=np.uint8)
    iters = np.empty(L, dtype=np.int64)
    for te in range(L):
        u_hat[te], v_hat[te], w_tilde[te], iters[te] = dec.decode_step(te)
    return SwdResult(u_hat=u_hat, w_tilde=w_tilde, iterations=iters, v_hat=v_hat)
