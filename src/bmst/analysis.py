"""Closed-form performance machinery: Q function, union bounds, required-SNR
bisection, BI-AWGN Shannon limit, the memory design rule, and the
(noisy-)genie-aided bound chain used to predict error floors far below what
simulation can reach. Everything below 1e-300 is accumulated in log domain.

scipy.special and hermgauss are imported inside the functions that call
them: they cost most of `import bmst`, and decoding never calls them.
"""

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


def _iowef_sum(iowef, log_p):
    """sum_{g,h>=1} (g/K) A_{g,h} P(h) over the short code's IOWEF, summed in
    log domain over the last axis: the one place a bound weighs its
    competitors. log_p maps the array of competitor weights h to log P(h)."""
    from scipy.special import logsumexp
    terms = [(g, h, a) for (g, h), a in iowef.coefficients.items() if g >= 1 and h >= 1]
    if not terms:
        return 0.0
    g, h, a = np.array(terms, dtype=float).T
    return np.exp(logsumexp(np.log(g / iowef.K) + np.log(a) + log_p(h), axis=-1))


def union_bound(iowef, ebn0_db):
    """Union bound on the BER of the short code (equivalently of its
    Cartesian product) over the BI-AWGNC:
    sum_{g,h>=1} (g/K) A_{g,h} Q(sqrt(2 h (K/N) 10^(gamma/10))). An SNR
    that overflows (above about 3083 dB) is the noiseless limit, 0."""
    with np.errstate(over="ignore"):
        snr = np.atleast_1d(10.0 ** (np.asarray(ebn0_db, dtype=float) / 10.0))[..., None]
    out = _iowef_sum(iowef, lambda h: log_q(np.sqrt(2.0 * h * (iowef.K / iowef.N) * snr)))
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


def _log_pep(h, m, p_flip, sigma):
    from scipy.special import gammaln, logsumexp
    if h < 1:
        raise ValueError("h must be >= 1")
    if not sigma >= 0:
        raise ValueError("sigma must be >= 0")
    if not 0.0 <= p_flip <= 1.0:
        raise ValueError(f"p_flip must be in [0, 1], got {p_flip!r}")
    M = (m + 1) * h
    r = np.arange(M + 1)
    x = M - 2.0 * r  # the noiseless sum of the looks when r of them flipped
    # at sigma = 0, Q(x / 0) is 0, 1/2 at a tie, or 1
    logq = log_q(x / (np.sqrt(M) * sigma) if sigma > 0
                 else np.where(x == 0, 0.0, np.copysign(np.inf, x)))
    if p_flip == 0.0:
        return logq[0]
    if p_flip == 1.0:
        return logq[-1]
    logbin = (gammaln(M + 1) - gammaln(r + 1) - gammaln(M - r + 1)
              + r * np.log(p_flip) + (M - r) * np.log1p(-p_flip))
    return logsumexp(logbin + logq)


def pep(h, m, p_flip, sigma):
    """Pairwise error probability of a weight-h competitor under (m+1)-fold
    diversity with per-bit flips: binomial mixture of Gaussian tails,
    accumulated in log domain. At sigma = 0 it is the noiseless limit, a
    majority vote over the M = (m+1)h looks with ties counting half."""
    return float(np.exp(_log_pep(h, m, p_flip, sigma)))


def genie_bound(iowef, m, p_genie, ebn0_db, rate=None):
    """Union bound on the genie-aided decoder's BER with side information
    flipped at p_genie. Reduces to lower_bound at p_genie = 0."""
    if rate is None:
        rate = iowef.K / iowef.N
    sigma = ebn0_to_sigma(ebn0_db, rate)
    pf = flip_probability(p_genie, m)
    return float(_iowef_sum(iowef, lambda h: np.array(
        [_log_pep(int(hi), m, pf, sigma) for hi in h])))


def genie_floor(iowef, m, p_genie):
    """Large-Eb/N0 limit of the genie bound: the residual BSC floor induced
    by the side-information flips. At Eb/N0 = inf, sigma = 0 and each pep
    is a majority vote over its looks (ties count half)."""
    return genie_bound(iowef, m, p_genie, math.inf)
