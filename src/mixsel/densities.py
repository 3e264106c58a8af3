"""The Gaussian log-density and the estimator floors of the EM kernels.

The three margins are Gaussian (continuous), Poisson (integer) and
multinomial (categorical). Estimates are floored (sigma, rate, category
probabilities) so every downstream log-density stays finite even on
degenerate columns.
"""
from __future__ import annotations

import numpy as np

SIGMA_FLOOR = 1e-10
RATE_FLOOR = 1e-10
PROB_FLOOR = 1e-10
LOG_2PI = float(np.log(2.0 * np.pi))


def floor_sigma(sigma: np.ndarray) -> np.ndarray:
    return np.maximum(sigma, SIGMA_FLOOR)


def floor_rate(rate: np.ndarray) -> np.ndarray:
    return np.maximum(rate, RATE_FLOOR)


def floor_probs(counts: np.ndarray, level_mask: np.ndarray) -> np.ndarray:
    """Normalize nonnegative counts to probabilities, floored then renormalized.

    ``counts`` has levels on the last axis; ``level_mask`` marks real levels
    when the axis is padded (padded entries stay exactly 0).
    """
    counts = np.where(level_mask, counts, 0.0)
    total = counts.sum(axis=-1, keepdims=True)
    nlev = level_mask.sum(axis=-1, keepdims=True)
    p = np.where(total > 0, counts / np.where(total > 0, total, 1.0), 1.0 / nlev)
    p = np.where(level_mask, np.maximum(p, PROB_FLOOR), 0.0)
    return p / p.sum(axis=-1, keepdims=True)


def normal_logpdf(x, mu, sigma):
    z = np.subtract(x, mu)  # one buffer; the rounding of -0.5 z z - ln s - ln(2 pi)/2
    z /= sigma
    z *= z
    z *= -0.5
    z -= np.log(sigma)
    z -= 0.5 * LOG_2PI
    return z
