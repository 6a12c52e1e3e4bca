"""BI-AWGN channel: noise generation, the Eb/N0 to sigma conversion, channel LLRs.

Eb/N0 in dB relates to the per-dimension noise std dev by
gamma_b = 10*log10(1 / (2 * sigma^2 * R)).
"""

import math

import numpy as np

from .kernels import LLR_MAX


def ebn0_to_sigma(ebn0_db, rate):
    """Noise std dev per dimension at Eb/N0 = ebn0_db dB and code rate
    `rate`. +inf dB, and values so high (above about 3083 dB) that the SNR
    overflows, are the noiseless channel, sigma = 0; NaN, -inf and values
    so low (below about -3200 dB) that sigma overflows have none."""
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    try:
        snr = 2.0 * rate * 10.0 ** (ebn0_db / 10.0)
    except OverflowError:
        snr = math.inf
    sigma = float(np.sqrt(1.0 / snr)) if snr > 0.0 else math.inf  # NaN > 0 is False
    if not sigma < math.inf:
        raise ValueError(f"Eb/N0 must be a number above -inf dB with a finite noise level, "
                         f"got {ebn0_db} dB")
    return sigma


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
