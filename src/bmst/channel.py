"""BI-AWGN channel: noise generation, SNR conversions, channel LLRs.

Eb/N0 in dB relates to the per-dimension noise std dev by
gamma_b = 10*log10(1 / (2 * sigma^2 * R)).
"""

import numpy as np

from .kernels import LLR_MAX


def ebn0_to_sigma(ebn0_db, rate):
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    return float(np.sqrt(1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0))))


def sigma_to_ebn0(sigma, rate):
    return float(10.0 * np.log10(1.0 / (2.0 * sigma ** 2 * rate)))


def transmit(x, sigma, rng):
    """y = x + z with z iid Gaussian(0, sigma^2)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    x = np.asarray(x, dtype=np.float64)
    return x + rng.normal(0.0, sigma, size=x.shape)


def channel_llr(y, sigma):
    """Per-bit LLR log P(c=0|y)/P(c=1|y) = 2y/sigma^2, clamped, then rounded
    once to float32. This sets the precision of the window decoder, whose
    messages keep the dtype of the LLRs it is given: float32 halves their
    memory and the cost of phi, and decides as the float64 decoder does on
    the seeded frames of tests/test_swd.py."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    llr = np.clip(2.0 * np.asarray(y, dtype=np.float64) / sigma ** 2, -LLR_MAX, LLR_MAX)
    return llr.astype(np.float32)
