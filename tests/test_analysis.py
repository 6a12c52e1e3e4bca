from math import comb

import numpy as np
import pytest
from scipy.stats import norm

from bmst.analysis import (biawgn_capacity, design_memory, find_gamma_target,
                           flip_probability, genie_bound, genie_floor, log_q,
                           lower_bound, memory_from_gap, pep, q_function,
                           shannon_limit_biawgn, union_bound)
from bmst.channel import ebn0_to_sigma
from bmst.codes import compute_iowef, make_repetition, make_spc


def iowef_rc2():
    return compute_iowef(make_repetition(2))


def test_q_function_values():
    assert q_function(0.0) == pytest.approx(0.5)
    assert q_function(1.0) == pytest.approx(0.15865525, abs=1e-8)
    assert np.exp(log_q(40.0)) == pytest.approx(q_function(40.0), rel=1e-9)


def test_log_q_is_scipy_stats_norm_logsf_exactly():
    # log_q calls scipy.special.log_ndtr(-x), which norm.logsf wraps; this
    # pins the identity on the installed scipy
    x = np.concatenate([np.linspace(-40.0, 40.0, 20001), np.geomspace(1e-300, 40.0, 2000),
                        -np.geomspace(1e-300, 40.0, 2000),
                        [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 37.5, 38.5]])
    got, want = log_q(x), norm.logsf(x)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    for xi in (0.0, -0.0, 1.0, 40.0, -40.0, np.inf, -np.inf, 3):
        assert log_q(xi) == norm.logsf(xi)


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
    g = find_gamma_target(iow, 1e-7)
    assert union_bound(iow, g) == pytest.approx(1e-7, rel=1e-3)


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
    # M = (m+1) h looks: pep(p_flip=0) = Q(sqrt(M)/sigma)
    assert pep(2, 3, 0.0, sigma) == pytest.approx(
        float(q_function(np.sqrt(8) / sigma)), rel=1e-12)


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
    with pytest.raises(ValueError):
        lower_bound(iow, -1, 2.0)


def test_validation_errors():
    iow = iowef_rc2()
    with pytest.raises(ValueError):
        find_gamma_target(iow, 0.7)
    with pytest.raises(ValueError):
        flip_probability(0.6, 3)
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
