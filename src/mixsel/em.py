"""EM for a fixed model and the penalized EM that selects variables.

Both engines share one mask-aware code path: masked cells are stored as 0 and
excluded through 0/1 mask matrices, so with a fully observed dataset the
arithmetic reduces exactly to the complete-data formulas.

The shared block of an irrelevant column (and of a zero-weight cell) is the
per-class estimator run at g = 1 (``one_class_fit``), so no path treats g = 1
apart. From ``_init_theta`` to the returned fit the engines keep one layout:
``tau`` and the ``(mu, sigma, rate, probs)`` blocks, the means centered like
``Packed``'s cells and the probabilities padded to (g, n_cat, m_max).
``Parameters`` is built only at the API boundary: ``_parameters`` makes one
per returned ``EmResult``, and ``_e_kernel_at`` reads one back.

An iteration is one M step (``_m_kernel``, where the penalized engine also
re-chooses the relevance vector from the per-column Delta) and one E step
(``_e_kernel``); the public ``e_step``, ``m_step`` and ``penalized_m_step``
wrap the same kernels. The E kernel also yields the observed-data
log-likelihood, which is all ``observed_loglik`` computes. Its (g, n) log
joint is one product of per-class coefficients with ``Packed.cells``, the
mirror of ``Packed.class_sums``, and the Delta reads the class sums, so no
per-cell density array is built. Inside the engines n is the inner axis:
responsibilities are (g, n); the public operations take and give (n, g).

The penalized engine maximizes `loglik - nu_m * c` jointly over the relevance
vector and the parameters; `c = ln(n)/2` yields the BIC, `c = 1` the AIC.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import densities as dens
from .data import Dataset, Model, Packed, Parameters, count_params
from .util import seeded_rng

EMPTY_COMPONENT_TOL = 1e-8
WEIGHT_TOL = 1e-12
MAX_REDRAWS = 10  # redraws of a start whose component empties; the last one floors


class EmError(RuntimeError):
    pass


class EmptyComponent(EmError):
    def __init__(self, k: int):
        self.k = k
        super().__init__(f"component {k + 1} received (almost) no mass")


class DegenerateComponent(EmError):
    """A component collapsed onto a variance spike on a relevant continuous
    column (singleton or exact-duplicate class). The start is redrawn, and
    discarded if it keeps collapsing."""


@dataclass
class EmConfig:
    """Knobs shared by the EM engines: the seed of the starts, the iteration
    budget and relative-change stopping rule of one run, and the number of
    random starts. The penalty constant is an argument of the penalized
    runner."""

    seed: int
    max_iterations: int = 500
    rel_tolerance: float = 1e-6
    n_starts: int = 20

    def __post_init__(self):
        if self.max_iterations < 1 or self.n_starts < 1 or self.rel_tolerance <= 0:
            raise ValueError("invalid EM configuration")


@dataclass
class EmResult:
    theta: Parameters
    model: Model
    loglik: float
    objective: float
    fuzzy: np.ndarray
    n_iterations: int
    converged: bool
    traces: list = field(default_factory=list)
    start_index: int = 0
    degenerate: bool = False  # True when only a variance-spike fit was found


# ---------------------------------------------------------------------------
# vectorized building blocks
# ---------------------------------------------------------------------------

def _cont_moments(st: dict):
    """(carries weight, weighted mean, pre-floor variance) per class and column."""
    W = st["Mc"]
    ok = W > WEIGHT_TOL
    Wsafe = np.where(ok, W, 1.0)
    mean = st["Xc"] / Wsafe
    return ok, mean, np.maximum(st["Xc2"] / Wsafe - mean * mean, 0.0)


def _per_class_blocks(packed: Packed, st: dict):
    """Per block, the mask of cells that carry weight, and the floored
    per-component MLE blocks (mu, sigma, rate, probs). Zero-weight cells carry
    no observed information: continuous and integer ones take the shared
    block (``_install``), categorical ones keep the uniform ``floor_probs``."""
    ok, mu, var = _cont_moments(st)
    sigma = dens.floor_sigma(np.sqrt(var))
    oki = st["Mi"] > WEIGHT_TOL
    rate = dens.floor_rate(st["Xi"] / np.where(oki, st["Mi"], 1.0))
    probs = dens.floor_probs(st["onehot"], packed.level_mask)
    return (ok, ok, oki, True), (mu, sigma, rate, probs)


def _install(keep, blocks, shared):
    """Per block, the per-class value where ``keep`` holds and the shared
    (1, ...) block of the one-class fit elsewhere."""
    return tuple(np.where(k, b, s) for k, b, s in zip(keep, blocks, shared))


def _weighted_loglik_by_column(packed: Packed, st: dict, blocks):
    """(d,) expected log-likelihood per column: the sum over classes and
    observed cells of t_ik * log f_kj at the per-class ``blocks``, from the
    class sums ``st`` of the weights t. A continuous column's sum of
    t (x - mu)^2 is W (v + (mean - mu)^2), with v the pre-floor variance the
    M step takes sigma from, so it cancels nothing the M step does not."""
    mu, sigma, rate, probs = blocks
    gr = packed.groups
    out = np.zeros(packed.d)
    W, (_, mean, var) = st["Mc"], _cont_moments(st)
    out[gr.cont] = (-0.5 * W * (var + (mean - mu) ** 2) / (sigma * sigma)
                    - W * (np.log(sigma) + 0.5 * dens.LOG_2PI)).sum(axis=0)
    out[gr.integer] = (st["Xi"] * np.log(rate) - st["Mi"] * rate - st["lgam"]).sum(axis=0)
    lp = np.log(np.where(packed.level_mask, probs, 1.0))
    out[gr.cat] = (st["onehot"] * lp).sum(axis=(0, 2))
    return out


class OneClassFit(NamedTuple):
    """The one-component fit: the shared block of every irrelevant column."""

    blocks: tuple       # (mu, sigma, rate, probs) shaped as for g = 1, mu centered
    loglik: np.ndarray  # (d,) per-column log-likelihood


def one_class_fit(packed: Packed) -> OneClassFit:
    """The per-class estimator at g = 1, on all-ones weights."""
    st = packed.class_sums(np.ones((1, packed.n)))
    _, blocks = _per_class_blocks(packed, st)
    return OneClassFit(blocks, _weighted_loglik_by_column(packed, st, blocks))


def _install_omega(packed: Packed, omega, blocks):
    """Per-class blocks on the columns ``omega`` marks relevant, the shared
    block of the one-class fit everywhere else."""
    gr = packed.groups
    rel = [omega[cols] == 1 for cols in (gr.cont, gr.cont, gr.integer, gr.cat[:, None])]
    return _install(rel, blocks, packed.one_class.blocks)


def _parameters(packed: Packed, tau, blocks) -> Parameters:
    """The public ``Parameters`` of internal blocks: the means back in
    original units, one (g, m_j) matrix per categorical column."""
    mu, sigma, rate, probs = blocks
    return Parameters(np.asarray(tau, dtype=float), mu + packed.shift, sigma, rate,
                      [probs[:, j, :m] for j, m in enumerate(packed.m)], packed.groups)


def _tau_from_nk(nk: np.ndarray, n: int, floor: bool):
    if (nk < EMPTY_COMPONENT_TOL).any():
        if not floor:
            raise EmptyComponent(int(np.argmin(nk)))
        nk = np.maximum(nk, 1e-10)
    return nk / nk.sum() if floor else nk / n


def _spikes(packed: Packed, sigma, omega) -> np.ndarray:
    """(g, n_cont) variance spikes: a relevant continuous column whose
    per-class sigma sits on the floor while the column itself has real spread
    means the component collapsed onto a single point or exact duplicates
    (the floored density there grows without bound as the class shrinks)."""
    rel = omega[packed.groups.cont] == 1
    _, sigma1, _, _ = packed.one_class.blocks
    return (sigma <= dens.SIGMA_FLOOR) & rel & (sigma1 > 1e-6)


def _log_joint(packed: Packed, blocks) -> np.ndarray:
    """(g, n) sum of log f_k over each row's observed cells: one product of
    per-class coefficients with ``Packed.cells`` (rows 0 on masked cells). The
    Gaussian expansion over the Mc, Xc and Xc2 rows rounds at ~eps mu^2/sigma^2
    per cell, so a pair whose mean lies over 1e3 sigmas from the column mean (on
    the sigma floor, or collapsed onto duplicates) is added cell by cell."""
    mu, sigma, rate, probs = blocks
    g = len(mu)
    by_cell = mu * mu > 1e6 * sigma * sigma
    prec = np.where(by_cell, 0.0, 1.0 / (sigma * sigma))
    const = np.where(by_cell, 0.0, np.log(sigma) + 0.5 * dens.LOG_2PI)
    # log-probabilities laid out like the padded one-hot, 0 on padding
    lp = np.log(np.where(packed.level_mask, probs, 1.0))
    V = np.hstack([-0.5 * mu * mu * prec - const, mu * prec, -0.5 * prec,  # Packed.BLOCKS
                   -rate, np.log(rate), -np.ones_like(rate),
                   np.zeros((g, packed.groups.n_cat)), lp.reshape(g, -1)]) @ packed.cells
    for k, j in zip(*np.nonzero(by_cell)):
        V[k] += dens.normal_logpdf(packed.Xc[j], mu[k, j], sigma[k, j]) * packed.Mc[j]
    return V


def _e_kernel(packed: Packed, tau, blocks):
    """(g, n) responsibilities t_ki ∝ tau_k * prod of observed-cell densities
    and the observed-data log-likelihood, from one stabilized log-space pass
    over ``_log_joint``. Masked cells contribute 0."""
    V = _log_joint(packed, blocks) + np.log(tau)[:, None]
    vmax = V.max(axis=0)
    V -= vmax
    np.exp(V, out=V)
    s = V.sum(axis=0)
    V /= s
    return V, float((vmax + np.log(s)).sum())


def _e_kernel_at(packed: Packed, theta: Parameters):
    """``_e_kernel`` at a public ``Parameters``, moved to the internal layout."""
    probs = np.ones((theta.g, packed.groups.n_cat, packed.m_max))
    for j, m in enumerate(packed.m):
        probs[:, j, :m] = theta.probs[j]
    return _e_kernel(packed, theta.tau, (theta.mu - packed.shift, theta.sigma, theta.rate, probs))


def _m_kernel(packed: Packed, t: np.ndarray, omega, floor: bool,
              allow_spikes: bool, penalty_c: float | None = None):
    """Weighted MLE update under the (g, n) weights ``t``: per-class blocks
    on relevant columns, the one-class block on irrelevant ones, proportions
    from the soft counts.

    ``penalty_c`` None keeps ``omega``. Otherwise Delta_j compares the
    expected log-likelihood of the per-class fit of column j against the
    shared fit minus the extra-parameter cost (g-1) * nu_j * c, and the
    column is relevant iff Delta_j > 0. ``floor`` floors empty components
    and ``allow_spikes`` accepts variance spikes instead of raising.

    Returns (tau, blocks, omega, Delta or None).
    """
    st = packed.class_sums(t)
    tau = _tau_from_nk(st["nk"], packed.n, floor)
    blocks = _install(*_per_class_blocks(packed, st), packed.one_class.blocks)
    delta = None
    if penalty_c is not None:
        wll = _weighted_loglik_by_column(packed, st, blocks)
        delta = wll - packed.one_class.loglik - (len(t) - 1.0) * packed.nu * penalty_c
        omega = (delta > 0).astype(np.int8)
    spiky = _spikes(packed, blocks[1], omega)
    if not allow_spikes and spiky.any():
        raise DegenerateComponent(
            f"variance spike at (component, column) = "
            f"{tuple(int(v) for v in np.argwhere(spiky)[0])}")
    return tau, _install_omega(packed, omega, blocks), omega, delta


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def e_step(dataset: Dataset, model: Model, theta: Parameters) -> np.ndarray:
    """Responsibilities t_ik ∝ tau_k * prod of observed-cell densities,
    computed in log space with max subtraction and row-normalized: (n, g)."""
    return np.ascontiguousarray(_e_kernel_at(dataset.packed(), theta)[0].T)


def m_step(dataset: Dataset, model: Model, fuzzy: np.ndarray) -> Parameters:
    """Weighted MLE update: per-class blocks on relevant columns, the shared
    unweighted MLE on irrelevant ones, proportions from the soft counts."""
    if fuzzy.shape[1] != model.g or len(model.omega) != dataset.d:
        raise ValueError("fuzzy must have g columns and omega d entries")
    packed = dataset.packed()
    tau, blocks, *_ = _m_kernel(packed, fuzzy.T, model.omega, False, False)
    return _parameters(packed, tau, blocks)


def observed_loglik(dataset: Dataset, model: Model, theta: Parameters) -> float:
    """Observed-data log-likelihood of ``theta``, the one the E step
    computes; ``model`` is implied by ``theta`` (shared blocks on irrelevant
    columns)."""
    return _e_kernel_at(dataset.packed(), theta)[1]


def penalized_m_step(dataset: Dataset, g: int, fuzzy: np.ndarray, c: float):
    """Joint update of the relevance vector and the parameters: the M step
    with omega_j = 1 iff Delta_j > 0 (see ``_m_kernel``); ``fuzzy`` must have
    g columns.

    Returns (omega, Parameters, Delta vector).
    """
    if g != fuzzy.shape[1]:
        raise ValueError("fuzzy must have g columns")
    packed = dataset.packed()
    tau, blocks, omega, delta = _m_kernel(packed, fuzzy.T, None, False, False,
                                          penalty_c=float(c))
    return omega, _parameters(packed, tau, blocks), delta


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def _init_theta(packed: Packed, g: int, omega: np.ndarray, rng: np.random.Generator):
    """Random start, as (tau, blocks): g distinct observations as centers,
    one-class scales, perturbed one-class level frequencies; shared columns
    start at the one-class fit; uniform proportions."""
    gr = packed.groups
    if packed.n < g:
        raise EmError("need at least g observations")
    mu1, sigma1, rate1, probs1 = packed.one_class.blocks
    centers = rng.choice(packed.n, size=g, replace=False)
    mu = np.where(packed.Mc[:, centers].T > 0, packed.Xc[:, centers].T, mu1)
    sigma = np.tile(np.maximum(sigma1, 1e-6), (g, 1))
    rate = np.maximum(np.where(packed.Mi[:, centers].T > 0, packed.Xi[:, centers].T, rate1),
                      1e-2)
    # unit-scale log-normal perturbations: categorical starts need to be
    # as assertive as the data-point centers are for continuous columns,
    # or category-driven basins are never explored
    noise = rng.standard_normal((g, gr.n_cat, packed.m_max))
    raw = probs1 * np.exp(noise)
    probs = dens.floor_probs(raw, packed.level_mask)
    return np.full(g, 1.0 / g), _install_omega(packed, omega, (mu, sigma, rate, probs))


def _em_sequence(packed: Packed, tau, blocks, omega: np.ndarray, cfg: EmConfig,
                 penalty_c: float | None, floor: bool, allow_spikes: bool):
    """One EM run from the start (tau, blocks), as an ``EmResult`` with its trace.

    ``penalty_c`` None means the model (omega) stays fixed; otherwise omega is
    re-optimized every M step and the objective is penalized.
    """
    g = len(tau)
    t, _ = _e_kernel(packed, tau, blocks)
    prev_obj = -np.inf
    trace = []
    converged = False
    model, penalty = None, 0.0
    for it in range(1, cfg.max_iterations + 1):
        tau, blocks, omega, _ = _m_kernel(packed, t, omega, floor, allow_spikes, penalty_c)
        t, loglik = _e_kernel(packed, tau, blocks)
        if model is None or (omega != model.omega).any():
            # the penalty only changes with omega
            model = Model(g, omega)
            if penalty_c is not None:
                penalty = count_params(model, packed.kinds) * penalty_c
        obj = loglik - penalty
        trace.append(obj)
        if prev_obj > -np.inf and \
                abs(obj - prev_obj) / (abs(prev_obj) + 1.0) < cfg.rel_tolerance:
            converged = True
            break
        prev_obj = obj
    return EmResult(theta=_parameters(packed, tau, blocks), model=model, loglik=loglik,
                    objective=obj, fuzzy=np.ascontiguousarray(t.T), n_iterations=it,
                    converged=converged, traces=[np.array(trace)])


def _run_starts(dataset: Dataset, g: int, omega0, cfg: EmConfig,
                penalty_c: float | None) -> EmResult:
    """Best-of-n-starts driver shared by the plain and penalized engines.

    ``omega0`` is a fixed relevance vector (plain EM) or None (penalized EM,
    Bernoulli(1/2) redraw per start). A start whose component empties is
    redrawn, up to ``MAX_REDRAWS`` times, and the last redraw floors empty
    components; a start that keeps collapsing onto a variance spike is
    discarded instead, since a floored spike is a near-singular fit, not a
    usable optimum. Only if every start degenerates is a single floored run
    accepted so the call can return.
    """
    packed = dataset.packed()

    def attempt(rng, floor: bool, allow_spikes: bool):
        omega = omega0 if omega0 is not None else \
            rng.integers(0, 2, size=packed.d).astype(np.int8)
        return _em_sequence(packed, *_init_theta(packed, g, omega, rng), omega, cfg,
                            penalty_c, floor, allow_spikes)

    best = None
    traces = []
    for s in range(cfg.n_starts):
        rng = seeded_rng(cfg.seed, s)
        res = None
        for redraw in range(MAX_REDRAWS + 1):
            try:
                res = attempt(rng, redraw == MAX_REDRAWS, False)
                break
            except (EmptyComponent, DegenerateComponent):
                continue
        if res is None:
            continue
        res.start_index = s
        traces += res.traces
        if best is None or res.objective > best.objective:
            best = res
    if best is None:
        # every start spiked: the landscape is dominated by a degenerate
        # solution; return one floored fit rather than failing the call
        best = attempt(seeded_rng(cfg.seed, cfg.n_starts), True, True)
        best.start_index = cfg.n_starts
        traces += best.traces
    best.traces = traces
    best.degenerate = bool(_spikes(packed, best.theta.sigma, best.model.omega).any())
    return best


def run_em(dataset: Dataset, model: Model, config: EmConfig) -> EmResult:
    """Maximum-likelihood EM for a fixed model, best of ``n_starts`` starts."""
    if len(model.omega) != dataset.d:
        raise ValueError("omega length must equal d")
    return _run_starts(dataset, model.g, model.omega, config, penalty_c=None)


def run_penalized_em(dataset: Dataset, g: int, c: float, config: EmConfig) -> EmResult:
    """Penalized EM jointly selecting the relevance vector at fixed g.

    With ``c = ln(n)/2`` the final objective equals the BIC of the returned
    model; with ``c = 1`` it equals the AIC.
    """
    if c < 0:
        raise ValueError("penalty must be nonnegative")
    if g < 1:
        raise ValueError("g must be >= 1")
    return _run_starts(dataset, g, None, config, penalty_c=float(c))
