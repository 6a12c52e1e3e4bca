"""Sliding-window iterative decoding over the coupled normal graph.

Message bookkeeping, indexed by the superposition (plus) node of layer s
that sends or receives (arrays of length n, in the bit order that node
sees; branch i connects it to the replication node of layer s-i, whose bit
order differs by perms[i]):

  e2p[s]       : the plus node's whole input stack, in the phi domain of
                 kernels.llr_to_phi, which its kernel takes. Row 0 is the
                 channel, row 1+i the message from layer s-i. The channel,
                 padding (s-i < 0) and tail rows are written once per frame.
  p2e[s, i]    : the plus node's LLR message to layer s-i.

Both arrays have the dtype of the channel LLRs, float32 from
channel.channel_llr, and every kernel computes in it; float64 LLRs give the
float64 decoder.

The plus node of layer s combines the channel LLR of c^(s) with its m+1
branch messages under the XOR constraint (leave-one-out boxplus). The
replication node of layer t adds its de-permuted messages p2e[t+i, i] and
runs the basic code's extrinsic SISO blockwise; its outgoing messages go to
e2p[t+i, 1+i].

Layers at t >= L (zero tail) are pinned at +LLR_MAX; so are layers already
emitted by the window (decision feedback). Surviving layers keep their
messages when the window slides (warm start); entering layers start
uniform.

Each iteration on the window [te, hi] is a forward sweep (plus node, then
replication node, at s = te..hi) and a backward sweep of plus nodes
(s = hi..te+1); the stop check then takes the APP of layer te from p2e.
A window stops once layer te's decisions hold: its hard APP v_hat and its
branch decisions w_tilde (below) equal those before the iteration, the
first iteration comparing with the state after the window's forward
plus(te). It also stops once the mean entropy of layer te's message bits
falls below stop_threshold, or at i_max (window_stops); that entropy is
evaluated only when the other rules leave the window running. The stop is on
discrete state, so round-off moves an iteration count only where it flips
a decision. No node writes p2e[te+i, i] between the stop check and the
next forward eq(te), so the check's evaluation of eq(te) feeds that node
too, and its decisions are the ones emitted. With m = 0 no layer reads
another's messages, so the window is layer te alone, as with d = 0. A
one-layer window's sweeps change no message that layer te reads, so it
runs one iteration, with nothing to compare, whose forward eq(te) writes
nothing. A node
computes only the messages that some node reads before they are
overwritten, and each line below says why the others are dead:

  forward plus(te)  branch 0, once per window, before the first sweep. Its
                    input rows 0 and 2..m+1 hold the channel and pinned
                    layers, and row 1 is left out, so the message is fixed
                    for the window. Branches i >= 1 go to pinned layers.
  forward plus(s)   branch 0, which eq(s) reads next. Branch i >= 1 goes
    s > te          to eq(s-i), which has already run in this sweep and
                    runs again only after the backward plus(s) has
                    rewritten it. For s >= L branch 0 is a tail layer, so
                    the node is skipped.
  forward eq(te)    branches 1 <= i <= min(m, hi-te). Branch 0 goes to row
                    1 of plus(te), which the one message of plus(te) that
                    is read leaves out.
  forward eq(t)     branches i with t+i <= hi, which plus(t+i) reads in
    t > te          both sweeps. A plus node beyond hi runs only in a later
                    window, after eq(t) has written again.
  backward plus(s)  branches i >= 1 with te <= s-i < L. Pinned and tail
    s > te          layers never run their replication node again, and
                    branch 0 is rewritten by the next forward plus(s)
                    before eq(s) reads it.
  backward plus(te) skipped. Its only live message, branch 0, equals what
                    the forward plus(te) wrote: the same inputs and rows.
  backward eq(t)    skipped. Its only live message would be branch 0, to
                    row 1 of plus(t). The backward plus(t) has run; the
                    forward plus(t) leaves row 1 out (its magnitude enters
                    no chain and its sign bit cancels in the XOR); and the
                    forward eq(t) rewrites it before the backward plus(t).

The emitted layer's branch decisions w_tilde are the signs of the messages
its replication node sends from the final state, in its own bit order and
computed as LLRs: the phi domain maps a zero and a subnormal message alike
to an infinity. decode_frame_swd stacks them into coupling's (L, m+1, n)
side information: phase II's genie as it is.
"""

from dataclasses import dataclass

import numpy as np

from .codes import code_extrinsic_llr
from .kernels import LLR_MAX, clamp, float_array, leave_one_out_boxplus, llr_to_phi, phi

# e2p holds phi-domain messages (kernels.llr_to_phi): a uniform (zero)
# message is phi(0) = inf, a known bit is phi(LLR_MAX) with its sign
_PHI_UNIFORM = np.inf
# the default entropy stop of every decoder and of SimConfig: a window also
# ends, before its decisions hold, once the mean binary entropy of its target
# layer's message bits falls below it
STOP_THRESHOLD = 1e-5


def binary_entropy_from_llr(llr):
    """Mean binary entropy (bits) of the posteriors implied by LLRs."""
    a = np.abs(np.atleast_1d(np.asarray(llr, dtype=np.float64)))
    p = 1.0 / (1.0 + np.exp(a))  # smaller of the two probabilities
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -p * np.log2(p) - q * np.log2(q)
    h[np.isnan(h)] = 0.0  # 0 log 0 = 0; h is never infinite
    return float(h.mean())


def hard_decision(llr):
    """LLR < 0 -> bit 1; ties (LLR == 0) resolve to bit 0."""
    return np.less(llr, 0).view(np.uint8)


def window_stops(iters, i_max, entropy, stop_threshold, before, after):
    """Whether a window stops after its iters-th iteration. It stops at
    i_max; once its target layer's decisions after the iteration,
    (v_hat, w_tilde), equal those before it; or once entropy(), the mean
    entropy of that layer's message bits, falls below stop_threshold.
    entropy is called only when nothing else has stopped the window. A
    one-layer window has no decisions before (None) and stops after its
    one iteration."""
    return (before is None or iters >= i_max
            or all(np.array_equal(b, a) for b, a in zip(before, after))
            or entropy() < stop_threshold)


@dataclass
class SwdResult:
    u_hat: np.ndarray      # (L, k) message decisions
    w_tilde: np.ndarray    # (L, m+1, n) hard extrinsic branch decisions
    iterations: np.ndarray  # (L,) iterations used per emitted layer


class WindowDecoder:
    """Streaming window decoder for one frame; decode_frame_swd drives it."""

    def __init__(self, sys, llrs, d, i_max, stop_threshold=STOP_THRESHOLD):
        T = sys.total_blocks
        llrs = float_array(llrs)
        if llrs.shape != (T, sys.n):
            raise ValueError(f"expected channel LLRs of shape {(T, sys.n)}")
        if np.isnan(llrs).any():
            raise ValueError("channel LLRs contain NaN")
        if d < 0 or i_max < 1:
            raise ValueError("need d >= 0 and i_max >= 1")
        self.sys = sys
        self.d = d
        self.i_max = i_max
        self.stop_threshold = stop_threshold
        m, n, L = sys.m, sys.n, sys.L
        # a known bit in the messages' own dtype, as llr_to_phi maps LLR_MAX
        self._phi_max = phi(llrs.dtype.type(LLR_MAX))
        self.e2p = np.full((T, m + 2, n), _PHI_UNIFORM, dtype=llrs.dtype)
        self.e2p[:, 0] = llr_to_phi(llrs)
        for i in range(m + 1):
            self.e2p[:i, i + 1] = self._phi_max      # no source layer s-i < 0
            self.e2p[L + i:, i + 1] = self._phi_max  # zero tail known
        self.p2e = np.zeros((T, m + 1, n), dtype=llrs.dtype)
        # the m+1 messages of the replication node of layer t as flat
        # offsets from the start of layer t, in its own bit order: branch i
        # sits i layers further on, bit k at position invs[i, k]
        branches = np.arange(m + 1)[:, None]
        il = sys.interleavers
        self._p2e_at = il.invs + (m + 2) * n * branches
        self._e2p_at = il.invs + (m + 3) * n * branches + n

    # -- node updates -------------------------------------------------------

    def _update_plus(self, s, first, last):
        """Superposition node of layer s; writes its messages to the
        replication nodes of layers s-i, first <= i <= last, a range never
        empty (a backward plus(s) has m >= 1, te < s <= L+m-1 and te < L)."""
        leave_one_out_boxplus(self.e2p[s], first + 1, last + 2, out=self.p2e[s, first:last + 1])

    @staticmethod
    def _from(a, t):
        """a flattened from layer t on: the replication node of layer t has
        its messages there at _p2e_at (in p2e) or _e2p_at (in e2p)."""
        return a.reshape(-1)[a[0].size * t:]

    def _eq_inputs(self, t):
        """De-permuted p2e messages of layer t, (m+1, n), their clamped sum,
        and the basic code's extrinsic output on that sum."""
        a = self._from(self.p2e, t)[self._p2e_at]
        s_in = clamp(a.sum(axis=0))
        return a, s_in, code_extrinsic_llr(self.sys.basic.short, s_in)

    def _update_eq_code(self, t, first, count, inputs):
        """Replication node of layer t < L, given _eq_inputs(t); writes its
        messages on branches first <= i < count."""
        if first >= count:
            return
        a, s_in, ext = inputs
        msg = clamp((ext + s_in) - a[first:count])
        self._from(self.e2p, t)[self._e2p_at[first:count]] = llr_to_phi(msg, out=msg)

    # -- window schedule ----------------------------------------------------

    def _iterate(self, te, hi, eq_te):
        """One forward + backward sweep across window layers [te, hi],
        computing only the messages that a later node reads. The forward
        plus(te) runs once per window, in decode_step, which also hands
        over eq_te, the _eq_inputs(te) of the current messages."""
        m, L = self.sys.m, self.sys.L
        self._update_eq_code(te, 1, min(m, hi - te) + 1, eq_te)
        for s in range(te + 1, min(hi, L - 1) + 1):
            self._update_plus(s, 0, 0)
            self._update_eq_code(s, 0, min(m, hi - s) + 1, self._eq_inputs(s))
        for s in range(hi, te, -1):
            self._update_plus(s, max(1, s - L + 1), min(m, s - te))

    def _decide(self, te):
        """_eq_inputs(te), layer te's APP and its decisions (v_hat, w_tilde)
        from the current messages: the hard APP, and the hard messages its
        replication node would send from this state."""
        eq_te = a, s_in, ext = self._eq_inputs(te)
        total = ext + s_in
        app = clamp(total)
        # total < a is hard_decision(total - a) for these finite values
        return eq_te, app, (hard_decision(app), np.less(total, a).view(np.uint8))

    def decode_step(self, te):
        """Run the window whose target (oldest) layer is te; emit it."""
        sys = self.sys
        hi = te if sys.m == 0 else min(te + self.d, sys.total_blocks - 1)
        self._update_plus(te, 0, 0)  # fixed for the window; see the schedule
        # a one-layer window changes nothing layer te reads: it has nothing to
        # compare, runs once, and its forward eq(te) writes nothing
        eq_te, _, before = (None, None, None) if hi == te else self._decide(te)
        iters = 0
        while True:
            self._iterate(te, hi, eq_te)
            iters += 1
            eq_te, app, after = self._decide(te)
            if window_stops(iters, self.i_max,
                            lambda: binary_entropy_from_llr(sys.basic.systematic(app)),
                            self.stop_threshold, before, after):
                break
            before = after
        v_hat, w_tilde = after
        # decision feedback: pin the emitted layer for later windows
        self._from(self.e2p, te)[self._e2p_at] = np.where(v_hat, -self._phi_max, self._phi_max)
        return sys.basic.systematic(v_hat), v_hat, w_tilde, iters


def decode_frame_swd(sys, llrs, d, i_max, stop_threshold=STOP_THRESHOLD):
    """Slide the window across a complete frame, emitting layers 0..L-1."""
    dec = WindowDecoder(sys, llrs, d, i_max, stop_threshold)
    L = sys.L
    u_hat = np.empty((L, sys.k), dtype=np.uint8)
    w_tilde = np.empty((L, sys.m + 1, sys.n), dtype=np.uint8)
    iters = np.empty(L, dtype=np.int64)
    for te in range(L):
        u_hat[te], _, w_tilde[te], iters[te] = dec.decode_step(te)
    return SwdResult(u_hat=u_hat, w_tilde=w_tilde, iterations=iters)
