import numpy as np
import pytest

from bmst.channel import channel_llr, ebn0_to_sigma, transmit
from bmst.kernels import LLR_MAX


def sigma_to_ebn0(sigma, rate):
    """Eb/N0 in dB of the noise std dev sigma at code rate `rate`: the
    inverse of ebn0_to_sigma."""
    return float(10.0 * np.log10(1.0 / (2.0 * sigma ** 2 * rate)))


def test_sigma_at_zero_db_rate_half():
    assert ebn0_to_sigma(0.0, 0.5) == pytest.approx(1.0)


def test_sigma_formula():
    # sigma = sqrt(1 / (2 R 10^(g/10)))
    assert ebn0_to_sigma(3.0, 0.25) == pytest.approx(
        np.sqrt(1.0 / (0.5 * 10 ** 0.3)))


def test_sigma_ebn0_roundtrip():
    for g in (-2.0, 0.0, 4.7, 12.0):
        for r in (0.125, 0.5, 0.875):
            assert sigma_to_ebn0(ebn0_to_sigma(g, r), r) == pytest.approx(g)


def test_infinite_ebn0_is_the_noiseless_channel():
    assert ebn0_to_sigma(float("inf"), 0.5) == 0.0


@pytest.mark.parametrize("ebn0", [3100.0, 4000.0, 1e300])
def test_ebn0_whose_snr_overflows_is_the_noiseless_channel(ebn0):
    # above about 3083 dB 10^(Eb/N0 / 10) overflows: the same limit as +inf
    assert ebn0_to_sigma(ebn0, 0.5) == 0.0


@pytest.mark.parametrize("ebn0", [float("nan"), float("-inf"), -3230.0, -4000.0])
def test_ebn0_without_a_noise_level_is_refused(ebn0):
    with pytest.raises(ValueError, match="Eb/N0"):
        ebn0_to_sigma(ebn0, 0.5)


def test_rate_validation():
    with pytest.raises(ValueError):
        ebn0_to_sigma(0.0, 0.0)
    with pytest.raises(ValueError):
        ebn0_to_sigma(0.0, 1.5)


def test_llr_scaling_and_clamp():
    # llr = 2 y / sigma^2
    assert channel_llr(np.array([1.0]), np.sqrt(0.5))[0] == pytest.approx(4.0)
    assert channel_llr(np.array([1e6]), 1.0)[0] == LLR_MAX
    assert channel_llr(np.array([-1e6]), 1.0)[0] == -LLR_MAX


def test_llr_odd_symmetry():
    y = np.linspace(-3, 3, 11)
    assert np.allclose(channel_llr(y, 0.8), -channel_llr(-y, 0.8))


def test_transmit_moments():
    rng = np.random.default_rng(0)
    x = np.ones(200_000)
    y = transmit(x, 0.7, rng)
    z = y - x
    assert abs(z.mean()) < 0.01
    assert z.std() == pytest.approx(0.7, rel=0.01)


def test_transmit_deterministic_given_rng():
    x = np.zeros(16)
    a = transmit(x, 1.0, np.random.default_rng(5))
    b = transmit(x, 1.0, np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_transmit_rejects_bad_sigma():
    with pytest.raises(ValueError):
        transmit(np.zeros(4), 0.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        channel_llr(np.zeros(4), -1.0)
