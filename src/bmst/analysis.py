"""Closed-form performance machinery: Q function, union bounds, required-SNR
bisection, BI-AWGN Shannon limit, the memory design rule, and the
(noisy-)genie-aided bound chain used to predict error floors far below what
simulation can reach. Everything below 1e-300 is accumulated in log domain.

scipy.special and hermgauss are imported inside the functions that call
them: they cost most of `import bmst`, and decoding never calls them.
"""

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import ebn0_to_sigma

DB_TOL = 1e-4  # bisection tolerance in dB (spec'd at <= 1e-3)


def q_function(x):
    """Gaussian tail probability Q(x)."""
    from scipy.special import erfc
    return 0.5 * erfc(np.asarray(x, dtype=np.float64) / np.sqrt(2.0))


def log_q(x):
    """log Q(x), stable for large x."""
    from scipy.special import log_ndtr
    return log_ndtr(-np.asarray(x, dtype=np.float64))


def _iowef_terms(iowef):
    """(g, h, A) arrays over nonzero-weight coefficients (g>=1, h>=1)."""
    items = [(g, h, a) for (g, h), a in iowef.coefficients.items() if g >= 1 and h >= 1]
    if not items:
        return (np.empty(0),) * 3
    g, h, a = map(np.asarray, zip(*items))
    return g.astype(float), h.astype(float), a.astype(float)


def union_bound(iowef, ebn0_db):
    """Union bound on the BER of the short code (equivalently of its
    Cartesian product) over the BI-AWGNC:
    sum_{g,h>=1} (g/K) A_{g,h} Q(sqrt(2 h (K/N) 10^(gamma/10)))."""
    from scipy.special import logsumexp
    g, h, a = _iowef_terms(iowef)
    if g.size == 0:
        return 0.0
    snr = 10.0 ** (np.asarray(ebn0_db, dtype=float) / 10.0)
    args = np.sqrt(2.0 * h * (iowef.K / iowef.N) * np.atleast_1d(snr)[..., None])
    logterms = np.log(g / iowef.K) + np.log(a) + log_q(args)
    out = np.exp(logsumexp(logterms, axis=-1))
    return float(np.squeeze(out)) if np.ndim(ebn0_db) == 0 else out


def _bisect_db(f, lo, hi, tol=DB_TOL):
    flo, fhi = f(lo), f(hi)
    if flo == 0.0 or fhi == 0.0 or (flo > 0) == (fhi > 0):
        raise ValueError("root not bracketed")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_gamma_target(iowef, p_target):
    """Eb/N0 (dB) at which the union bound equals p_target, by bisection."""
    if not 0.0 < p_target < 0.5:
        raise ValueError("p_target must be in (0, 0.5)")

    def f(g):
        b = union_bound(iowef, g)
        return math.log(b) - math.log(p_target) if b > 0 else -math.inf

    lo, hi = -20.0, 20.0
    for _ in range(20):
        if f(hi) < 0:
            break
        hi *= 1.5
    else:
        raise ValueError("could not bracket the target BER")
    return _bisect_db(f, lo, hi)


# ---------------------------------------------------------------------------
# BI-AWGN capacity / Shannon limit
# ---------------------------------------------------------------------------

def biawgn_capacity(sigma, tol=1e-6):
    """Capacity (bits/use) of BPSK over AWGN with noise std dev sigma,
    by Gauss-Hermite quadrature with node doubling until two successive
    node counts agree within tol."""
    from numpy.polynomial.hermite import hermgauss
    prev = None
    nodes = 64
    while True:
        x, w = hermgauss(nodes)
        llr = 2.0 * (1.0 + sigma * np.sqrt(2.0) * x) / sigma ** 2
        c = 1.0 - np.sum(w * np.logaddexp(0.0, -llr)) / (np.sqrt(np.pi) * np.log(2.0))
        if prev is not None and abs(c - prev) < tol:
            return c
        prev = c
        nodes *= 2
        if nodes > 1024:
            return c


@lru_cache(maxsize=None)
def shannon_limit_biawgn(rate):
    """Minimum Eb/N0 (dB) at which BI-AWGN capacity reaches the rate."""
    if not 0.0 < rate < 1.0:
        raise ValueError(f"rate must be in (0, 1), got {rate}")

    def f(gamma):
        return biawgn_capacity(ebn0_to_sigma(gamma, rate)) - rate

    return _bisect_db(f, -20.0, 20.0)


# ---------------------------------------------------------------------------
# memory design
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DesignSpec:
    rate: float
    p_target: float
    gamma_target_db: float
    gamma_lim_db: float
    m: int

    @property
    def gap_db(self):
        return self.gamma_target_db - self.gamma_lim_db


def memory_from_gap(gap_db):
    """m = ceil(10^(gap/10) - 1); smallest memory whose 10log10(m+1) dB of
    potential coupling gain covers the gap to the Shannon limit."""
    return max(0, math.ceil(10.0 ** (gap_db / 10.0) - 1.0 - 1e-12))


def design_memory(rate, p_target, iowef):
    if abs(iowef.K / iowef.N - rate) > 1e-12:
        raise ValueError("basic code rate does not match requested rate")
    gt = find_gamma_target(iowef, p_target)
    gl = shannon_limit_biawgn(rate)
    return DesignSpec(rate=rate, p_target=p_target, gamma_target_db=gt,
                      gamma_lim_db=gl, m=memory_from_gap(gt - gl))


def lower_bound(iowef, m, ebn0_db):
    """Genie-aided lower bound on the coupled system's BER: the basic-code
    union bound shifted left by the maximum coupling gain 10log10(m+1)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return union_bound(iowef, np.asarray(ebn0_db, dtype=float) + 10.0 * np.log10(m + 1.0))


# ---------------------------------------------------------------------------
# noisy-genie bound chain
# ---------------------------------------------------------------------------

def flip_probability(p_genie, m):
    """Probability that a cancelled coded bit is flipped when each of the m
    contributing side-information bits is independently wrong with
    probability p_genie: (1 - (1-2p)^m)/2, evaluated stably."""
    if not 0.0 <= p_genie <= 0.5:
        raise ValueError("p_genie must be in [0, 0.5]")
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0 or p_genie == 0.0:
        return 0.0
    if p_genie == 0.5:  # (1-2p)^m = 0, whose log1p form would divide by zero
        return 0.5
    return -np.expm1(m * np.log1p(-2.0 * p_genie)) / 2.0


def pep(h, m, p_flip, sigma):
    """Pairwise error probability of a weight-h competitor under (m+1)-fold
    diversity with per-bit flips: binomial mixture of Gaussian tails,
    accumulated in log domain."""
    from scipy.special import gammaln, logsumexp
    if h < 1:
        raise ValueError("h must be >= 1")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    M = (m + 1) * h
    r = np.arange(M + 1)
    logq = log_q((M - 2.0 * r) / (np.sqrt(M) * sigma))
    if p_flip == 0.0:
        return float(np.exp(logq[0]))
    if p_flip == 1.0:
        return float(np.exp(logq[-1]))
    logbin = (gammaln(M + 1) - gammaln(r + 1) - gammaln(M - r + 1)
              + r * np.log(p_flip) + (M - r) * np.log1p(-p_flip))
    return float(np.exp(logsumexp(logbin + logq)))


def genie_bound(iowef, m, p_genie, ebn0_db, rate=None):
    """Union bound on the genie-aided decoder's BER with side information
    flipped at p_genie. Reduces to lower_bound at p_genie = 0."""
    from scipy.special import logsumexp
    if rate is None:
        rate = iowef.K / iowef.N
    sigma = ebn0_to_sigma(ebn0_db, rate)
    pf = flip_probability(p_genie, m)
    g, h, a = _iowef_terms(iowef)
    logterms = []
    for gi, hi, ai in zip(g, h, a):
        p = pep(int(hi), m, pf, sigma)
        if p > 0.0:
            logterms.append(math.log(gi / iowef.K) + math.log(ai) + math.log(p))
    if not logterms:
        return 0.0
    return float(np.exp(logsumexp(np.asarray(logterms))))


def genie_floor(iowef, m, p_genie):
    """Large-Eb/N0 limit of the genie bound: the residual BSC floor induced
    by the side-information flips (binomial majority failure, ties count
    half)."""
    from scipy.special import gammaln
    pf = flip_probability(p_genie, m)
    g, h, a = _iowef_terms(iowef)
    total = 0.0
    for gi, hi, ai in zip(g, h, a):
        M = int((m + 1) * hi)
        r = np.arange(M + 1)
        logbin = (gammaln(M + 1) - gammaln(r + 1) - gammaln(M - r + 1)
                  + r * np.log(pf) + (M - r) * np.log1p(-pf)) if pf > 0 else None
        if logbin is None:
            continue
        pr = np.exp(logbin)
        mass = pr[r > M / 2].sum() + 0.5 * pr[r == M / 2].sum()
        total += (gi / iowef.K) * ai * mass
    return total


# ---------------------------------------------------------------------------
# curve export
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundCurve:
    kind: str            # "basic_union" | "lower_bound" | "genie_bound"
    code: str
    m: int
    p_genie: float | None
    points: list         # [(ebn0_db, ber), ...]


def make_bound_curve(iowef, kind, grid_db, code_name, m=0, p_genie=None):
    pts = []
    for g in grid_db:
        if kind == "basic_union":
            b = union_bound(iowef, g)
        elif kind == "lower_bound":
            b = lower_bound(iowef, m, g)
        elif kind == "genie_bound":
            if p_genie is None:
                raise ValueError("genie_bound curves need p_genie")
            b = genie_bound(iowef, m, p_genie, g)
        else:
            raise ValueError(f"unknown bound kind {kind!r}")
        pts.append((float(g), float(b)))
    return BoundCurve(kind=kind, code=code_name, m=m, p_genie=p_genie, points=pts)


BOUND_CSV_HEADER = ["ebn0_db", "ber", "kind", "p_genie", "m", "code"]


def bound_csv_rows(curves):
    for c in curves:
        for g, b in c.points:
            yield [f"{g:.6g}", f"{b:.6e}", c.kind,
                   "" if c.p_genie is None else f"{c.p_genie:.6g}", c.m, c.code]


def write_bound_csv(fh_or_path, curves):
    if hasattr(fh_or_path, "write"):
        w = csv.writer(fh_or_path)
        w.writerow(BOUND_CSV_HEADER)
        w.writerows(bound_csv_rows(curves))
        return
    with open(fh_or_path, "w", newline="") as fh:
        write_bound_csv(fh, curves)
