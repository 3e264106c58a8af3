"""Univariate log-densities and weighted maximum-likelihood estimators.

The three margins are Gaussian (continuous), Poisson (integer) and
multinomial (categorical). Estimates are floored (sigma, rate, category
probabilities) so every downstream log-density stays finite even on
degenerate columns.
"""
from __future__ import annotations

import numpy as np
from scipy.special import gammaln

from .data import CONT, INT, Dataset, VariableKind

SIGMA_FLOOR = 1e-10
RATE_FLOOR = 1e-10
PROB_FLOOR = 1e-10
LOG_2PI = float(np.log(2.0 * np.pi))


class UnsupportedValue(ValueError):
    """Value outside the support of the declared variable kind."""


class EmptyWeight(ValueError):
    """All weights are zero; the caller decides how to recover."""


def floor_sigma(sigma: np.ndarray) -> np.ndarray:
    return np.maximum(sigma, SIGMA_FLOOR)


def floor_rate(rate: np.ndarray) -> np.ndarray:
    return np.maximum(rate, RATE_FLOOR)


def floor_probs(counts: np.ndarray, level_mask: np.ndarray | None = None) -> np.ndarray:
    """Normalize nonnegative counts to probabilities, floored then renormalized.

    ``counts`` has levels on the last axis; ``level_mask`` marks real levels
    when the axis is padded (padded entries stay exactly 0).
    """
    counts = np.asarray(counts, dtype=float)
    if level_mask is None:
        level_mask = np.ones(counts.shape[-1], dtype=bool)
    counts = np.where(level_mask, counts, 0.0)
    total = counts.sum(axis=-1, keepdims=True)
    nlev = np.broadcast_to(level_mask, counts.shape).sum(axis=-1, keepdims=True)
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


def poisson_logpmf(x, rate):
    return x * np.log(rate) - rate - gammaln(np.asarray(x, dtype=float) + 1.0)


def log_density(value: float, kind: VariableKind, block: np.ndarray) -> float:
    """Natural-log density (continuous) or mass (integer/categorical) of one cell.

    Raises UnsupportedValue when the value lies outside the kind's support.
    """
    if not np.isfinite(value):
        raise UnsupportedValue(f"value {value!r} is not finite")
    if kind.tag == CONT:
        mu, sigma = float(block[0]), float(block[1])
        return float(normal_logpdf(value, mu, sigma))
    if kind.tag == INT:
        if value < 0 or value != np.floor(value):
            raise UnsupportedValue(f"{value!r} is not a nonnegative integer")
        return float(poisson_logpmf(float(value), float(block[0])))
    if value < 1 or value > kind.levels or value != np.floor(value):
        raise UnsupportedValue(f"{value!r} is not a level in 1..{kind.levels}")
    return float(np.log(block[int(value) - 1]))


def weighted_mle(values: np.ndarray, weights: np.ndarray, kind: VariableKind) -> np.ndarray:
    """Weighted maximum-likelihood parameter block for one column subset.

    Only observed cells may be passed. The continuous variance uses the MLE
    divisor (the sum of weights); all outputs are floored.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    w = weights.sum()
    if w <= 0:
        raise EmptyWeight("sum of weights is zero")
    if kind.tag == CONT:
        mu = float((weights * values).sum() / w)
        var = float((weights * (values - mu) ** 2).sum() / w)
        return np.array([mu, float(floor_sigma(np.sqrt(max(var, 0.0))))])
    if kind.tag == INT:
        return np.array([float(floor_rate((weights * values).sum() / w))])
    counts = np.zeros(kind.levels)
    np.add.at(counts, values.astype(int) - 1, weights)
    return floor_probs(counts)


def column_loglik(dataset: Dataset, j: int, rows, block: np.ndarray) -> float:
    """Sum of log-densities of the observed cells of column j over ``rows``."""
    rows = np.asarray(rows, dtype=np.intp)
    obs = rows[dataset.mask[rows, j]]
    kind = dataset.kinds[j]
    total = 0.0
    for i in obs:
        total += log_density(float(dataset.X[i, j]), kind, block)
    return total
