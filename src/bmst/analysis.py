"""Closed-form performance machinery: Q function, union bounds, required-SNR
bisection, BI-AWGN Shannon limit, the memory design rule, and the
(noisy-)genie-aided bound chain used to predict error floors far below what
simulation can reach. Everything below 1e-300 is accumulated in log domain.

The Gaussian tail, log-sum-exp, log-binomials and beta quantiles are numpy
and `math` alone: erfc from `math.erfc`, elementwise, and log Q(x) above
x = 30 from its asymptotic series; the beta quantiles behind the
Clopper-Pearson limits invert the incomplete beta's continued fraction. The
Gauss-Hermite rules of biawgn_capacity are built once per node count
(_hermgauss), which imports numpy.polynomial on first use.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import ebn0_to_sigma

DB_TOL = 1e-4  # bisection tolerance in dB (spec'd at <= 1e-3)
CAPACITY_TOL = 1e-6  # biawgn_capacity's agreement of successive node counts

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# log Q(x) from x = _TAIL_FROM on is -x^2/2 - log(x sqrt(2 pi)) + log S(1/x^2),
# S(z) = sum_k (-1)^k (2k-1)!! z^k; eleven terms leave a remainder below
# 1e-17 there. Below it, 0.5 erfc(x/sqrt(2)) is a normal number.
_TAIL_FROM = 30.0
_TAIL_SERIES = [(-1) ** k * math.prod(range(1, 2 * k, 2)) for k in range(11)][::-1]


def _erfc(z):
    """math.erfc elementwise over an array of any shape: numpy has no erfc,
    and the bound chain's arrays are small, (m+1)h+1 looks for a pep and one
    value per IOWEF term and Eb/N0 for a union bound."""
    z = np.asarray(z, dtype=np.float64)
    return np.fromiter(map(math.erfc, z.flat), np.float64, z.size).reshape(z.shape)


def q_function(x):
    """Gaussian tail probability Q(x)."""
    return 0.5 * _erfc(np.asarray(x, dtype=np.float64) / _SQRT2)


def log_q(x):
    """log Q(x) for x of any shape, stable for large x: log1p(-Q(-x)) below
    0, log Q(x) up to _TAIL_FROM, its asymptotic series above. log Q(-inf)
    is 0, log Q(inf) is -inf and NaN stays NaN; a scalar gives a float64
    scalar."""
    x = np.asarray(x, dtype=np.float64)
    out = np.full(x.shape, np.nan)
    neg, tail = x < 0, x >= _TAIL_FROM
    mid = (x >= 0) & ~tail
    out[neg] = np.log1p(-0.5 * _erfc(-x[neg] / _SQRT2))
    out[mid] = np.log(0.5 * _erfc(x[mid] / _SQRT2))
    xt = x[tail]
    with np.errstate(over="ignore"):  # x^2 overflows to the right -inf
        out[tail] = (-0.5 * xt * xt - np.log(xt) - _LOG_SQRT_2PI
                     + np.log(np.polyval(_TAIL_SERIES, (1.0 / xt) ** 2)))
    return out[()]


def _logsumexp(a, axis=-1):
    """log(sum(exp(a))) along axis, shifted by its maximum; an axis that is
    all -inf gives -inf."""
    top = np.max(a, axis=axis, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    with np.errstate(divide="ignore"):  # log(0) = -inf for an all -inf axis
        return np.log(np.sum(np.exp(a - top), axis=axis)) + np.squeeze(top, axis=axis)


def _iowef_sum(iowef, log_p):
    """sum_{g,h>=1} (g/K) A_{g,h} P(h) over the short code's IOWEF, summed in
    log domain over the last axis: the one place a bound weighs its
    competitors. log_p maps the array of competitor weights h to log P(h)."""
    terms = [(g, h, a) for (g, h), a in iowef.coefficients.items() if g >= 1 and h >= 1]
    if not terms:
        return 0.0
    g, h, a = np.array(terms, dtype=float).T
    return np.exp(_logsumexp(np.log(g / iowef.K) + np.log(a) + log_p(h), axis=-1))


def union_bound(iowef, ebn0_db):
    """Union bound on the BER of the short code (equivalently of its
    Cartesian product) over the BI-AWGNC:
    sum_{g,h>=1} (g/K) A_{g,h} Q(sqrt(2 h (K/N) 10^(gamma/10))). An SNR
    that overflows (above about 3083 dB) is the noiseless limit, 0."""
    with np.errstate(over="ignore"):
        snr = np.atleast_1d(10.0 ** (np.asarray(ebn0_db, dtype=float) / 10.0))[..., None]
    out = _iowef_sum(iowef, lambda h: log_q(np.sqrt(2.0 * h * (iowef.K / iowef.N) * snr)))
    return float(np.squeeze(out)) if np.ndim(ebn0_db) == 0 else out


def _bisect_db(f, lo, hi):
    flo, fhi = f(lo), f(hi)
    if flo == 0.0 or fhi == 0.0 or (flo > 0) == (fhi > 0):
        raise ValueError("root not bracketed")
    while hi - lo > DB_TOL:
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

    # ends: union_bound is 0, so f is -inf, once the SNR overflows (~3083 dB)
    lo, hi = -20.0, 20.0
    while f(hi) >= 0:
        hi *= 1.5
    return _bisect_db(f, lo, hi)


# ---------------------------------------------------------------------------
# BI-AWGN capacity / Shannon limit
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _hermgauss(nodes):
    """Gauss-Hermite nodes and weights, built once per node count: building
    a rule costs far more than a capacity that uses it."""
    from numpy.polynomial.hermite import hermgauss  # only capacities pay for it
    return hermgauss(nodes)


def biawgn_capacity(sigma):
    """Capacity (bits/use) of BPSK over AWGN with noise std dev sigma,
    by Gauss-Hermite quadrature with node doubling until two successive
    node counts agree within CAPACITY_TOL."""
    prev = None
    nodes = 64
    while True:
        x, w = _hermgauss(nodes)
        llr = 2.0 * (1.0 + sigma * np.sqrt(2.0) * x) / sigma ** 2
        c = 1.0 - np.sum(w * np.logaddexp(0.0, -llr)) / (np.sqrt(np.pi) * np.log(2.0))
        if prev is not None and abs(c - prev) < CAPACITY_TOL:
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
    log_fact = np.array([math.lgamma(k + 1) for k in range(M + 1)])  # log k!
    logbin = (log_fact[M] - log_fact - log_fact[::-1]
              + r * np.log(p_flip) + (M - r) * np.log1p(-p_flip))
    return _logsumexp(logbin + logq)


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


# ---------------------------------------------------------------------------
# beta quantiles, for the Clopper-Pearson limits
# ---------------------------------------------------------------------------

_EPS = 2.0 ** -52  # float64 machine epsilon
# lgamma(z) - ((z - 1/2) log z - z + log sqrt(2 pi)) is
# sum_k B_2k / (2k (2k-1) z^(2k-1)); six terms are within 1e-15 from z = 10
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)
# below this x, the complement's continued fraction would lose about eps/x
# to cancellation, so the upper tail is the binomial sum instead
_HEAD_BELOW = 1e-4


def _stirling_remainder(z):
    """lgamma(z) less Stirling's (z - 1/2) log z - z + log sqrt(2 pi), z >= 1."""
    if z < 10:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z - _LOG_SQRT_2PI
    return sum(c * z ** (1 - 2 * k) for k, c in enumerate(_STIRLING, 1))


def _log_front(a, b, x):
    """log(x^a (1-x)^b / B(a, b)), B(a, b) by Stirling's formula: at a = 227
    and b = 1e9, lgamma(b) and lgamma(a + b) are each 2e10, and their
    difference would lose 4e-6."""
    s = a + b
    t = x * s - a  # s times the distance of x from the mean a/s
    return (a * math.log1p(t / a) + b * math.log1p(-t / b) + 0.5 * math.log(a * b / s)
            - _LOG_SQRT_2PI - _stirling_remainder(a) - _stirling_remainder(b)
            + _stirling_remainder(s))


def _beta_cf(a, b, x):
    """The continued fraction 1 + d1/(1 + d2/(1 + ...)) that is
    x^a (1-x)^b / (a B(a, b) I_x(a, b)), by the modified Lentz method."""
    f = c = 1.0
    d = 0.0
    for j in range(1, 1_000_000):
        m = j // 2
        if j % 2:
            dj = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            dj = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 / (1.0 + dj * d or 1e-300)
        c = 1.0 + dj / c or 1e-300
        f *= c * d
        if abs(c * d - 1.0) <= _EPS:
            return f
    raise ArithmeticError(f"the continued fraction of I_x({a}, {b}) at x = {x} did not converge")


def _binomial_head(a, b, x):
    """(1 - I_x(a, b)) b x B(a, b) / (x^a (1-x)^b) for an integer a: the sum
    P(Bin(a+b-1, x) < a) from its last term down, whose terms are positive
    and, above the mean, fall geometrically."""
    total = term = 1.0
    r = (1.0 - x) / x
    for i in range(a - 1):
        term *= (a - 1 - i) * r / (b + 1 + i)
        total += term
        if term <= _EPS * total:
            break
    return total


def beta_ppf(a, b, q):
    """The q-quantile of a Beta(a, b) variable for integers a, b >= 1 and
    0 < q < 1: the x at which the regularized incomplete beta I_x(a, b) is
    q. Newton steps on I_x - q, kept inside a bisection bracket, from two
    standard deviations out on q's side. tests/test_harness.py holds it to
    1e-12 relative of 40-digit mpmath at a + b = 1e9."""
    if a > b:  # solve for the quantile nearer 0, where x keeps its precision
        return 1.0 - beta_ppf(b, a, 1.0 - q)
    mean = a / (a + b)
    x = min(mean * math.exp(math.copysign(2.0, q - 0.5) * math.sqrt(b / (a * (a + b + 1)))),
            0.5 * (1.0 + mean))
    lo, hi = 0.0, 1.0
    for _ in range(200):
        front = math.exp(_log_front(a, b, x))
        if x * (a + b + 2) < a + 1:  # below the mean, where the fraction converges fast
            cdf = front / (a * _beta_cf(a, b, x))
        elif x < _HEAD_BELOW:
            cdf = 1.0 - front * _binomial_head(a, b, x) / (b * x)
        else:
            cdf = 1.0 - front / (b * _beta_cf(b, a, 1.0 - x))
        if cdf == q:
            return x
        if cdf < q:
            lo = x
        else:
            hi = x
        # the slope of I_x is the density front / (x (1-x)); where the step
        # leaves the bracket, or the density underflows, bisect
        new = x - (cdf - q) * x * (1.0 - x) / front if front else lo
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if abs(new - x) <= 1e-13 * new:
            return new
        x = new
    raise ArithmeticError(f"beta_ppf({a}, {b}, {q}) did not converge")
