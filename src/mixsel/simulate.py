"""Partition agreement (adjusted Rand index) and seeded benchmark generators:
a two-component tridiagonal-covariance Gaussian design and a two-component
independent mixed design (continuous + count + binary), both with a
class-overlap knob calibrated to a target Bayes misclassification rate, plus
MCAR masking."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtri

from .data import Dataset, Model, VariableKind
from .util import derive_seed, seeded_rng

CONTINUOUS_TRIDIAG = "continuous-tridiag"
MIXED_INDEP = "mixed-indep"

_CALIBRATION_SEED = 0x5EEDCA1


class LengthMismatch(ValueError):
    pass


class NoRoot(ValueError):
    pass


class InvalidShape(ValueError):
    pass


class NonPositiveRate(ValueError):
    pass


@dataclass(frozen=True)
class ScenarioSpec:
    """One benchmark design.

    ``target_error`` is the Bayes misclassification rate the overlap knob is
    calibrated to; ``r`` counts the class-separating columns (the remaining
    d - r are noise). ``rho`` only applies to the continuous family; the
    mixed family rejects a nonzero value.
    """

    family: str
    n: int = 200
    d: int = 10
    r: int = 6
    rho: float = 0.0
    target_error: float = 0.05
    missing_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.family not in (CONTINUOUS_TRIDIAG, MIXED_INDEP):
            raise InvalidShape(f"unknown family {self.family!r}")
        if self.r > self.d or self.n < 2:
            raise InvalidShape("need r <= d and n >= 2")
        if not 0.0 <= self.missing_rate < 1.0:
            raise InvalidShape("missing_rate must lie in [0, 1)")
        if not 0.0 < self.target_error <= 0.5:
            raise InvalidShape("target_error must lie in (0, 0.5]")
        if self.family == CONTINUOUS_TRIDIAG and not -0.5 < self.rho < 0.5:
            raise InvalidShape("rho must lie in (-0.5, 0.5)")
        if self.family == MIXED_INDEP:
            if self.d % 3 != 0 or self.d < 6:
                raise InvalidShape("mixed design needs d divisible by 3 and >= 6")
            if self.r != 6:
                raise InvalidShape("mixed design uses exactly 6 separating columns")
            if self.rho != 0.0:
                raise InvalidShape("rho only applies to the continuous family")


def ari(z1, z2) -> float:
    """Hubert–Arabie adjusted Rand index between two hard partitions.

    Degenerate case (both partitions single-class, or both all-singletons):
    the index is defined as 1.
    """
    z1 = np.asarray(z1).ravel()
    z2 = np.asarray(z2).ravel()
    if len(z1) != len(z2):
        raise LengthMismatch(f"partition lengths differ: {len(z1)} vs {len(z2)}")
    _, c1 = np.unique(z1, return_inverse=True)
    _, c2 = np.unique(z2, return_inverse=True)
    table = np.zeros((c1.max() + 1, c2.max() + 1), dtype=np.int64)
    np.add.at(table, (c1, c2), 1)

    def comb2(x):
        x = np.asarray(x, dtype=object)
        return (x * (x - 1) // 2)

    T = int(comb2(table).sum())
    A = int(comb2(table.sum(axis=1)).sum())
    B = int(comb2(table.sum(axis=0)).sum())
    N2 = len(z1) * (len(z1) - 1) // 2
    expected = A * B / N2 if N2 else 0.0
    maximum = 0.5 * (A + B)
    if maximum == expected:
        return 1.0
    return float((T - expected) / (maximum - expected))


def _tridiag(r: int, rho: float) -> np.ndarray:
    S = np.eye(r)
    idx = np.arange(r - 1)
    S[idx, idx + 1] = rho
    S[idx + 1, idx] = rho
    return S


def _pair_sum(t):
    """Row sums of an (n, 2) array: the rounding of ``t.sum(axis=1)``
    without the cost of a length-2 reduction."""
    return t[:, 0] + t[:, 1]


def _mixed_log_ratio(xc, xi, xb, delta):
    """Log density ratio (component 2 over component 1) of the six separating
    margins of the mixed design."""
    lam1, lam2 = 3.0 - delta, 3.0 + delta
    log_lam, dlam = np.log(lam2 / lam1), lam2 - lam1
    log_hi, log_lo = np.log(0.7 / 0.3), np.log(0.3 / 0.7)
    lr = _pair_sum(2.0 * delta * xc)
    lr += _pair_sum(xi * log_lam - dlam)
    lr += _pair_sum(xb * log_hi + (1 - xb) * log_lo)
    return lr


def _mixed_bayes_error(delta: float, n_draws: int, seed: int) -> float:
    """Monte-Carlo Bayes risk of the two-component mixed design."""
    rng = seeded_rng(seed)
    half = n_draws // 2
    lam1, lam2 = 3.0 - delta, 3.0 + delta
    xc = rng.standard_normal((half, 2)) - delta
    xi = rng.poisson(lam1, size=(half, 2)).astype(float)
    xb = rng.binomial(1, 0.3, size=(half, 2)).astype(float)
    err1 = np.mean(_mixed_log_ratio(xc, xi, xb, delta) > 0)
    xc = rng.standard_normal((half, 2)) + delta
    xi = rng.poisson(lam2, size=(half, 2)).astype(float)
    xb = rng.binomial(1, 0.7, size=(half, 2)).astype(float)
    err2 = np.mean(_mixed_log_ratio(xc, xi, xb, delta) <= 0)
    return 0.5 * float(err1 + err2)


def calibrate_delta(spec: ScenarioSpec) -> float:
    """Overlap knob giving the spec's target Bayes misclassification rate.

    Continuous family: closed form from the Mahalanobis separation of the two
    centers. Mixed family: Monte-Carlo risk (1e6 draws) plus bisection to
    |error - target| < 0.002; unreachable targets raise NoRoot.
    """
    if spec.family == CONTINUOUS_TRIDIAG:
        q = float(np.ones(spec.r) @ np.linalg.solve(_tridiag(spec.r, spec.rho),
                                                    np.ones(spec.r)))
        return float(ndtri(1.0 - spec.target_error) / np.sqrt(q))
    return _calibrate_mixed(round(spec.target_error, 9))


@lru_cache(maxsize=None)
def _calibrate_mixed(target: float) -> float:
    lo, hi = 1e-9, 3.0 - 1e-9
    n_draws = 1_000_000
    seed = derive_seed(_CALIBRATION_SEED, int(round(target * 1e9)))
    if _mixed_bayes_error(hi, n_draws, seed) > target + 0.002:
        raise NoRoot("target below the reachable error range")
    if _mixed_bayes_error(lo, n_draws, seed) < target - 0.002:
        raise NoRoot("target above the error at zero separation")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        err = _mixed_bayes_error(mid, n_draws, seed)
        if abs(err - target) < 0.002:
            return mid
        if err > target:
            lo = mid
        else:
            hi = mid
    raise NoRoot("bisection failed to reach the target error")


def _balanced_labels(n: int, rng: np.random.Generator) -> np.ndarray:
    z = np.repeat([1, 2], [n - n // 2, n // 2])
    rng.shuffle(z)
    return z


def gen_continuous(spec: ScenarioSpec):
    """Two balanced Gaussian components: r separating columns with centers
    ±delta and tridiagonal covariance, d - r standard-normal noise columns.

    Returns (Dataset, true labels, true Model).
    """
    if spec.family != CONTINUOUS_TRIDIAG:
        raise InvalidShape("spec is not a continuous design")
    delta = calibrate_delta(spec)
    rng = seeded_rng(spec.seed, 1)
    z = _balanced_labels(spec.n, rng)
    L = np.linalg.cholesky(_tridiag(spec.r, spec.rho))
    X = np.empty((spec.n, spec.d))
    signs = np.where(z == 1, -1.0, 1.0)
    X[:, : spec.r] = signs[:, None] * delta + rng.standard_normal((spec.n, spec.r)) @ L.T
    X[:, spec.r:] = rng.standard_normal((spec.n, spec.d - spec.r))
    kinds = [VariableKind.continuous()] * spec.d
    omega = np.zeros(spec.d, dtype=np.int8)
    omega[: spec.r] = 1
    ds = Dataset(X, kinds)
    return ds, z, Model(2, omega)


def _mixed_margins(delta: float, p_offset: float = 0.2):
    """Per-component margins (mu, lambda, p-level-2) of the mixed design."""
    return {
        "mu": (-delta, delta),
        "lam": (3.0 - delta, 3.0 + delta),
        "p2": (0.5 - p_offset, 0.5 + p_offset),
        "noise": {"mu": 0.0, "lam": 3.0, "p2": 0.5},
    }


def gen_mixed(spec: ScenarioSpec):
    """Two balanced components over independent mixed margins: 2 continuous,
    2 count and 2 binary separating columns, plus equal numbers of noise
    columns of each kind. Returns (Dataset, true labels, true Model)."""
    if spec.family != MIXED_INDEP:
        raise InvalidShape("spec is not a mixed design")
    delta = calibrate_delta(spec)
    if delta >= 3.0:
        raise NonPositiveRate("count rate 3 - delta must stay positive")
    par = _mixed_margins(delta)
    rng = seeded_rng(spec.seed, 2)
    z = _balanced_labels(spec.n, rng)
    k = z - 1
    n, d = spec.n, spec.d
    n_noise = (d - 6) // 3
    X = np.empty((n, d))
    mu = np.asarray(par["mu"])[k]
    X[:, 0:2] = mu[:, None] + rng.standard_normal((n, 2))
    lam = np.asarray(par["lam"])[k]
    X[:, 2:4] = rng.poisson(lam[:, None], size=(n, 2))
    p2 = np.asarray(par["p2"])[k]
    X[:, 4:6] = 1.0 + rng.binomial(1, p2[:, None], size=(n, 2))
    c0 = 6
    X[:, c0:c0 + n_noise] = rng.standard_normal((n, n_noise))
    X[:, c0 + n_noise:c0 + 2 * n_noise] = rng.poisson(par["noise"]["lam"],
                                                      size=(n, n_noise))
    X[:, c0 + 2 * n_noise:] = 1.0 + rng.binomial(1, par["noise"]["p2"],
                                                 size=(n, n_noise))
    kinds = ([VariableKind.continuous()] * 2 + [VariableKind.integer()] * 2
             + [VariableKind.categorical(2)] * 2
             + [VariableKind.continuous()] * n_noise
             + [VariableKind.integer()] * n_noise
             + [VariableKind.categorical(2)] * n_noise)
    cat_cols = [j for j, kd in enumerate(kinds) if kd.tag == "cat"]
    labels = {j: ["a", "b"] for j in cat_cols}
    omega = np.zeros(d, dtype=np.int8)
    omega[:6] = 1
    ds = Dataset(X, kinds, cat_labels=labels)
    return ds, z, Model(2, omega)


def generate(spec: ScenarioSpec):
    """Dispatch on family and apply MCAR masking per the spec."""
    ds, z, model = gen_continuous(spec) if spec.family == CONTINUOUS_TRIDIAG \
        else gen_mixed(spec)
    if spec.missing_rate > 0:
        ds = inject_mcar(ds, spec.missing_rate, derive_seed(spec.seed, 3))
    return ds, z, model


def inject_mcar(dataset: Dataset, rate: float, seed: int) -> Dataset:
    """Mask each cell independently with the given probability; columns that
    would end up all-missing are redrawn (column-locally) so validation holds."""
    if not 0.0 <= rate < 1.0:
        raise InvalidShape("rate must lie in [0, 1)")
    if rate == 0.0:
        return dataset
    rng = seeded_rng(seed, 4)
    keep = rng.random(dataset.X.shape) >= rate
    mask = dataset.mask & keep
    for j in range(dataset.d):
        while not mask[:, j].any():
            mask[:, j] = dataset.mask[:, j] & (rng.random(dataset.n) >= rate)
    return dataset.replace_mask(mask)
