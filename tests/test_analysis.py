import warnings
from collections import Counter
from math import comb, fsum

import mpmath
import numpy as np
import numpy.polynomial.hermite
import pytest

from bmst import analysis
from bmst.analysis import (_bisect_db, _logsumexp, biawgn_capacity, design_memory,
                           find_gamma_target, flip_probability, genie_bound, genie_floor,
                           log_q, lower_bound, memory_from_gap, pep, q_function,
                           shannon_limit_biawgn, union_bound)
from bmst.channel import ebn0_to_sigma
from bmst.codes import Iowef, compute_iowef, make_repetition, make_spc


def iowef_rc2():
    return compute_iowef(make_repetition(2))


def test_q_function_values():
    assert q_function(0.0) == pytest.approx(0.5)
    assert q_function(1.0) == pytest.approx(0.15865525, abs=1e-8)
    assert np.exp(log_q(40.0)) == pytest.approx(q_function(40.0), rel=1e-9)


def mp_log_q(x):
    """log Q(x) in 120-digit mpmath: log1p(-Q(-x)) below 0, where Q(x) is
    within a few ulp of 1."""
    with mpmath.workdps(120):
        z = mpmath.mpf(float(x)) / mpmath.sqrt(2)
        return mpmath.log1p(-mpmath.erfc(-z) / 2) if x < 0 else mpmath.log(mpmath.erfc(z) / 2)


def test_log_q_matches_mpmath():
    # the tolerances are scipy.special.log_ndtr's own levels on these
    # points: 4.7e-16 from -1 up, and 2.1e-13 below -1, where
    # log Q(x) = log1p(-Q(-x)) ~ -Q(-x) carries erfc's relative error
    x = np.concatenate([np.linspace(-37.0, 40.0, 1601), np.geomspace(1.0, 1e6, 400),
                        np.nextafter(30.0, [-np.inf, np.inf]), [30.0, -1.0, 0.0, -0.0]])
    got = log_q(x)
    assert got.dtype == np.float64 and got.shape == x.shape
    with mpmath.workdps(120):
        rel = np.array([float(abs((mpmath.mpf(float(g)) - w) / w))
                        for g, w in zip(got, map(mp_log_q, x))])
    assert rel[x >= -1].max() <= 1e-15
    assert rel[x < -1].max() <= 5e-13


def test_log_q_shapes_and_special_values():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        special = log_q(np.array([np.inf, -np.inf, np.nan, 1e200, -1e200]))
    assert special[0] == -np.inf and special[1] == 0.0 and np.isnan(special[2])
    assert special[3] == -np.inf and special[4] == 0.0
    # a scalar or 0-d array gives a float64 scalar; any other shape is kept
    for scalar in (3.0, 3, np.float32(3.0), np.array(3.0)):
        value = log_q(scalar)
        assert type(value) is np.float64 and value == log_q(np.array([3.0]))[0]
    grid = np.linspace(-5.0, 45.0, 12).reshape(3, 4)
    assert log_q(grid).shape == (3, 4)
    assert np.array_equal(log_q(grid), log_q(grid.ravel()).reshape(3, 4))
    assert np.array_equal(log_q(grid.T), log_q(grid).T)
    assert log_q(np.empty((0, 2))).shape == (0, 2)
    assert type(q_function(1.0)) is np.float64 and q_function(np.ones((2, 3))).shape == (2, 3)


def test_logsumexp_edges():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _logsumexp(np.full(4, -np.inf)) == -np.inf
        rows = _logsumexp(np.array([[-np.inf, -np.inf], [0.0, -np.inf]]), axis=-1)
    assert rows.tolist() == [-np.inf, 0.0]
    for single in (-1e300, -745.0, 0.0, 3.5, 700.0):
        assert _logsumexp(np.array([single])) == single
    assert _logsumexp(np.array([np.inf, 0.0])) == np.inf
    assert np.isnan(_logsumexp(np.array([np.nan, 0.0])))
    # broadcast over the union bound's grid: rows of one Eb/N0 each, one
    # column per IOWEF term, as _iowef_sum sums them
    rng = np.random.default_rng(1)
    terms = rng.uniform(-900.0, -1.0, size=(1, 7)) + rng.uniform(-30.0, 0.0, size=(25, 1))
    got = _logsumexp(terms, axis=-1)
    assert got.shape == (25,)
    with mpmath.workdps(50):
        want = [mpmath.log(mpmath.fsum(mpmath.exp(mpmath.mpf(float(t))) for t in row))
                for row in terms]
    for g, w in zip(got, want):
        assert abs(g - float(w)) <= 1e-14 * abs(float(w))
    assert _logsumexp(terms.T, axis=0).tolist() == got.tolist()
    assert np.exp(_logsumexp(np.log([1.0, 2.0, 3.0]))) == pytest.approx(fsum([1.0, 2.0, 3.0]))


def test_union_bound_monotone_decreasing():
    grid = np.linspace(-2, 12, 30)
    vals = union_bound(iowef_rc2(), grid)
    assert np.all(np.diff(vals) < 0)


def test_required_snr_anchors_rate_half_repetition():
    iow = iowef_rc2()
    for target, expect in [(1e-3, 6.79), (1e-5, 9.59), (1e-6, 10.53), (1e-15, 14.99)]:
        assert find_gamma_target(iow, target) == pytest.approx(expect, abs=0.01)


def test_required_snr_anchors_parity_codes():
    for code, target, expect in [(make_spc(4), 1e-3, 5.86), (make_spc(4), 1e-6, 9.15),
                                 (make_spc(8), 1e-3, 5.75), (make_spc(8), 1e-6, 8.77)]:
        assert find_gamma_target(compute_iowef(code), target) == pytest.approx(expect, abs=0.01)


def test_gamma_target_roundtrip():
    iow = iowef_rc2()
    for target in (1e-7, 1e-100):
        g = find_gamma_target(iow, target)
        assert union_bound(iow, g) == pytest.approx(target, rel=1e-3)
    assert g > 20.0  # 1e-100 lies beyond the first bracket, which grew


def test_shannon_limit_anchors():
    for rate, expect in [(0.5, 0.19), (0.125, -1.21), (0.25, -0.79),
                         (0.75, 1.63), (0.875, 2.84)]:
        assert shannon_limit_biawgn(rate) == pytest.approx(expect, abs=0.01)


def test_capacity_limits():
    assert biawgn_capacity(0.05) == pytest.approx(1.0, abs=1e-6)
    assert biawgn_capacity(50.0) == pytest.approx(0.0, abs=1e-3)


def test_memory_rule():
    assert memory_from_gap(0.0) == 0
    assert memory_from_gap(3.0102) == 1  # just below the doubling gain
    assert memory_from_gap(3.0104) == 2  # just above it
    assert memory_from_gap(6.60) == 4
    assert memory_from_gap(14.80) == 30


def test_design_memory_matches_table():
    rows = [(make_repetition(8), 1e-3, 6), (make_repetition(8), 1e-6, 14),
            (make_repetition(4), 1e-3, 5), (make_repetition(4), 1e-6, 13),
            (make_repetition(2), 1e-3, 4), (make_repetition(2), 1e-6, 10),
            (make_spc(4), 1e-3, 2), (make_spc(4), 1e-6, 5),
            (make_spc(8), 1e-3, 1), (make_spc(8), 1e-6, 3)]
    for code, target, m in rows:
        spec = design_memory(code.K / code.N, target, compute_iowef(code))
        assert spec.m == m


def flip_oracle(p, m):
    """Odd-flip-count binomial mass, summed term by term."""
    return sum(comb(m, j) * p**j * (1 - p)**(m - j)
               for j in range(1, m + 1, 2))


def test_flip_probability_against_binomial_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = int(rng.integers(1, 65))
        p = float(rng.uniform(0, 0.5))
        closed = flip_probability(p, m)
        assert closed == pytest.approx(flip_oracle(p, m), rel=1e-12, abs=1e-300)
    assert flip_probability(0.0, 10) == 0.0
    assert flip_probability(0.3, 0) == 0.0


def test_coin_flip_side_information_is_exact_and_silent():
    # p_genie = 0.5 makes (1-2p)^m vanish; RuntimeWarnings are errors here
    iow = iowef_rc2()
    for m in (1, 3, 30):
        assert flip_probability(0.5, m) == 0.5
        # each look is a fair coin, so majority failure (ties half) is 1/2
        assert genie_floor(iow, m, 0.5) == pytest.approx(0.5, rel=1e-12)
        for g in (0.0, 2.0, 10.0):
            assert genie_bound(iow, m, 0.5, g) == pytest.approx(0.5, rel=1e-12)
    assert flip_probability(0.5, 0) == 0.0


def test_pep_reduces_to_q_without_flips():
    sigma = ebn0_to_sigma(2.0, 0.5)
    # M = (m+1) h looks: pep(p_flip=0) = Q(sqrt(M)/sigma), and with every
    # look flipped, pep(p_flip=1) = Q(-sqrt(M)/sigma)
    for p_flip, sign in ((0.0, 1.0), (1.0, -1.0)):
        assert pep(2, 3, p_flip, sigma) == pytest.approx(
            float(q_function(sign * np.sqrt(8) / sigma)), rel=1e-12)


def test_pep_against_direct_sum():
    sigma = 0.9
    h, m, pf = 2, 2, 0.07
    M = (m + 1) * h
    direct = sum(comb(M, r) * pf**r * (1 - pf)**(M - r)
                 * float(q_function((M - 2 * r) / (np.sqrt(M) * sigma)))
                 for r in range(M + 1))
    assert pep(h, m, pf, sigma) == pytest.approx(direct, rel=1e-12)


def test_pep_against_monte_carlo():
    rng = np.random.default_rng(42)
    h, m, pf = 2, 2, 0.05
    sigma = 0.8
    M = (m + 1) * h
    n = 400_000
    signs = np.where(rng.random((n, M)) < pf, -1.0, 1.0)
    obs = signs + rng.normal(0, sigma, (n, M))
    err = (obs.sum(axis=1) < 0).mean() + 0.5 * (obs.sum(axis=1) == 0).mean()
    expect = pep(h, m, pf, sigma)
    se = np.sqrt(expect * (1 - expect) / n)
    assert abs(err - expect) < 4 * se


def majority_oracle(M, p):
    """Noiseless majority failure over M looks each flipped with p, ties
    counting half, summed term by term."""
    return (sum(comb(M, r) * p**r * (1 - p)**(M - r) for r in range(M + 1) if 2 * r > M)
            + (0.5 * comb(M, M // 2) * (p * (1 - p))**(M // 2) if M % 2 == 0 else 0.0))


@pytest.mark.parametrize("h, m", [(1, 2), (3, 0), (1, 1), (2, 3), (4, 30)])
@pytest.mark.parametrize("p", [0.0, 1e-3, 0.5])
def test_pep_at_sigma_zero_is_a_majority_vote(h, m, p):
    M = (m + 1) * h
    assert pep(h, m, p, 0.0) == pytest.approx(majority_oracle(M, p), rel=1e-12, abs=1e-300)
    # Q(x / sigma) at |x| >= 1 and sigma = 1e-3 is 0 or 1 to double precision
    assert pep(h, m, p, 1e-3) == pep(h, m, p, 0.0)


def test_genie_bound_reduces_to_lower_bound():
    iow = iowef_rc2()
    for m in (1, 8, 30):
        for g in np.linspace(0, 10, 11):
            gb = genie_bound(iow, m, 0.0, g)
            lb = lower_bound(iow, m, g)
            assert gb == pytest.approx(lb, rel=1e-12)


def test_genie_bound_monotone_in_p():
    iow = iowef_rc2()
    vals = [genie_bound(iow, 8, p, 2.0) for p in (0, 1e-6, 1e-4, 1e-2)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_genie_bound_floor_at_high_snr():
    iow = iowef_rc2()
    floor = genie_floor(iow, 8, 1e-3)
    assert genie_bound(iow, 8, 1e-3, 40.0) == pytest.approx(floor, rel=1e-6)


def test_lower_bound_is_shifted_union_bound():
    iow = iowef_rc2()
    assert lower_bound(iow, 3, 2.0) == pytest.approx(
        union_bound(iow, 2.0 + 10 * np.log10(4)), rel=1e-12)
    with pytest.raises(ValueError, match="m must be >= 0"):
        lower_bound(iow, -1, 2.0)


def test_validation_errors():
    iow = iowef_rc2()
    with pytest.raises(ValueError):
        find_gamma_target(iow, 0.7)
    with pytest.raises(ValueError):
        flip_probability(0.6, 3)
    with pytest.raises(ValueError, match="m must be >= 0"):
        flip_probability(0.1, -1)
    with pytest.raises(ValueError):
        pep(0, 2, 0.1, 1.0)
    for sigma in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            pep(1, 2, 0.1, sigma)
    # outside [0, 1] the binomial mixture would take the log of a negative
    for p_flip in (1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match="p_flip must be in"):
            pep(1, 2, p_flip, 1.0)
    with pytest.raises(ValueError):
        shannon_limit_biawgn(1.0)
    with pytest.raises(ValueError, match="basic code rate does not match requested rate"):
        design_memory(1 / 3, 1e-5, iow)
    with pytest.raises(ValueError, match="root not bracketed"):
        _bisect_db(lambda g: 1.0, -1.0, 1.0)


def test_union_bound_without_competitors_is_zero():
    # only the zero codeword: no term with g >= 1 and h >= 1
    assert union_bound(Iowef(K=1, N=2, coefficients={(0, 0): 1}), 2.0) == 0.0


def test_shannon_limit_builds_each_quadrature_rule_once(monkeypatch):
    built = Counter()
    hermgauss = numpy.polynomial.hermite.hermgauss

    def counted(nodes):
        built[nodes] += 1
        return hermgauss(nodes)

    monkeypatch.setattr(numpy.polynomial.hermite, "hermgauss", counted)
    analysis._hermgauss.cache_clear()
    shannon_limit_biawgn.cache_clear()
    assert shannon_limit_biawgn(0.5) == pytest.approx(0.187, abs=1e-3)
    # about 21 capacities, each asking for 64 and 128 nodes or more
    assert {64, 128} <= set(built) and set(built.values()) == {1}
