"""EM for a fixed model and the penalized EM that selects variables.

Both engines share one mask-aware code path: masked cells are stored as 0 and
excluded through 0/1 mask matrices, so with a fully observed dataset the
arithmetic reduces exactly to the complete-data formulas.

The shared block of an irrelevant column (and of a zero-weight cell) is the
per-class estimator run at g = 1 (``one_class_fit``), so no path treats g = 1
apart. The kernels work on ``Packed``'s centered cells; ``_assemble_theta``
reports the means back in original units.

An iteration is one M step (``_m_kernel``, where the penalized engine also
re-chooses the relevance vector from the per-column Delta) and one E step
(``_e_kernel``); the public ``e_step``, ``m_step`` and ``penalized_m_step``
wrap the same kernels. The E kernel also yields the observed-data
log-likelihood, which is all ``observed_loglik`` computes. The Gaussian
per-cell log-densities are evaluated once per iteration, in the M step, and
feed both the Delta and the next E step. Inside the engines n is the inner,
contiguous axis: responsibilities are (g, n) and the Gaussian cells
(g, n_cont, n); the public operations and ``EmResult`` take and give (n, g).

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

def _cont_logdens(packed: Packed, mu, sigma) -> np.ndarray:
    """(g, n_cont, n) Gaussian log-densities, class k at (mu[k], sigma[k]);
    masked cells are 0."""
    L = dens.normal_logpdf(packed.Xc, mu[:, :, None], sigma[:, :, None])
    return np.multiply(L, packed.Mc, out=L)


def _log_component_matrix(packed: Packed, theta: Parameters, Lc: np.ndarray):
    """(g, n) sums of per-cell log densities over all columns, one matrix
    product per kind. ``Lc`` holds the continuous per-cell log-densities at
    ``theta`` (see ``_cont_logdens``). Masked cells contribute 0."""
    V = np.log(theta.rate) @ packed.Xi
    V -= theta.rate @ packed.Mi
    V -= packed.lgam_rows
    V += Lc.sum(axis=1)
    if packed.groups.n_cat:
        # log-probabilities laid out like the padded one-hot, 0 on padding
        lp = np.zeros((theta.g, packed.level_mask.size))
        lp[:, packed.level_mask.ravel()] = np.log(np.concatenate(theta.probs, axis=1))
        V += lp @ packed.onehot.reshape(-1, packed.n)
    return V


def _per_class_blocks(packed: Packed, st: dict):
    """Per block, the mask of cells that carry weight, and the floored
    per-component MLE blocks (mu, sigma, rate, probs). Zero-weight cells carry
    no observed information: continuous and integer ones take the shared
    block (``_install``), categorical ones keep the uniform ``floor_probs``."""
    Wc, S1, S2 = st["Mc"], st["Xc"], st["Xc2"]
    ok = Wc > WEIGHT_TOL
    Wsafe = np.where(ok, Wc, 1.0)
    mu = S1 / Wsafe
    sigma = dens.floor_sigma(np.sqrt(np.maximum(S2 / Wsafe - mu * mu, 0.0)))
    oki = st["Mi"] > WEIGHT_TOL
    rate = dens.floor_rate(st["Xi"] / np.where(oki, st["Mi"], 1.0))
    probs = dens.floor_probs(st["onehot"], packed.level_mask)
    return (ok, ok, oki, True), (mu, sigma, rate, probs)


def _install(keep, blocks, shared):
    """Per block, the per-class value where ``keep`` holds and the shared
    (1, ...) block of the one-class fit elsewhere."""
    return tuple(np.where(k, b, s) for k, b, s in zip(keep, blocks, shared))


def _weighted_loglik_by_column(packed: Packed, t: np.ndarray, st: dict,
                               Lc: np.ndarray, rate, probs):
    """(d,) expected log-likelihood per column at the given per-class blocks,
    i.e. sum over classes and observed cells of t_ik * log f_kj.

    The continuous part is evaluated cell by cell (``Lc`` at the per-class
    blocks): the sufficient-statistic expansion of sum t (x - mu)^2 cancels
    catastrophically once sigma sits on its floor.
    """
    gr = packed.groups
    out = np.zeros(packed.d)
    acc = np.zeros(gr.n_cont)
    for k in range(len(t)):
        acc += Lc[k] @ t[k]
    out[gr.cont] = acc
    terms = st["Xi"] * np.log(rate) - st["Mi"] * rate
    out[gr.integer] = terms.sum(axis=0) - packed.lgam.sum(axis=1)
    lp = np.log(np.where(packed.level_mask, probs, 1.0))
    out[gr.cat] = (st["onehot"] * lp).sum(axis=(0, 2))
    return out


class OneClassFit(NamedTuple):
    """The one-component fit: the shared block of every irrelevant column."""

    blocks: tuple       # (mu, sigma, rate, probs) shaped as for g = 1, mu centered
    Lc: np.ndarray      # (1, n_cont, n) per-cell Gaussian log-densities
    loglik: np.ndarray  # (d,) per-column log-likelihood


def one_class_fit(packed: Packed) -> OneClassFit:
    """The per-class estimator at g = 1, on all-ones weights."""
    t = np.ones((1, packed.n))
    st = packed.class_sums(t)
    _, (mu, sigma, rate, probs) = _per_class_blocks(packed, st)
    Lc = _cont_logdens(packed, mu, sigma)
    return OneClassFit((mu, sigma, rate, probs), Lc,
                       _weighted_loglik_by_column(packed, t, st, Lc, rate, probs))


def _assemble_theta(packed: Packed, tau, omega, mu, sigma, rate, probs) -> Parameters:
    """Install per-class blocks on relevant columns and the shared block
    everywhere else, with the continuous means back in original units."""
    gr = packed.groups
    rel = omega == 1
    mu, sigma, rate, probs = _install(
        (rel[gr.cont], rel[gr.cont], rel[gr.integer], rel[gr.cat][:, None]),
        (mu, sigma, rate, probs), packed.one_class.blocks)
    # one (g, m_j) matrix per categorical column, padding dropped
    plist = np.split(probs[:, packed.level_mask], np.cumsum(packed.m), axis=1)[:-1]
    return Parameters(np.asarray(tau, dtype=float), mu + packed.shift, sigma, rate,
                      plist, gr)


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


def _e_kernel(packed: Packed, theta: Parameters, Lc: np.ndarray | None = None):
    """(g, n) responsibilities t_ki ∝ tau_k * prod of observed-cell densities
    and the observed-data log-likelihood, from one stabilized log-space pass.
    ``Lc`` holds the continuous per-cell log-densities at ``theta`` (None:
    evaluate them here, on the centered cells)."""
    if Lc is None:
        Lc = _cont_logdens(packed, theta.mu - packed.shift, theta.sigma)
    V = _log_component_matrix(packed, theta, Lc) + np.log(theta.tau)[:, None]
    vmax = V.max(axis=0)
    V -= vmax
    np.exp(V, out=V)
    s = V.sum(axis=0)
    V /= s
    return V, float((vmax + np.log(s)).sum())


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

    Returns (Parameters, omega, Delta or None, the ``_cont_logdens`` of the
    new parameters for the next E step, or None when it has none to reuse).
    """
    g = len(t)
    shared = packed.one_class
    st = packed.class_sums(t)
    tau = _tau_from_nk(st["nk"], packed.n, floor)
    mu, sigma, rate, probs = _install(*_per_class_blocks(packed, st), shared.blocks)
    Lc = delta = None
    if penalty_c is not None:
        Lc = _cont_logdens(packed, mu, sigma)
        wll = _weighted_loglik_by_column(packed, t, st, Lc, rate, probs)
        delta = wll - shared.loglik - (g - 1.0) * packed.nu * penalty_c
        omega = (delta > 0).astype(np.int8)
    spiky = _spikes(packed, sigma, omega)
    if not allow_spikes and spiky.any():
        raise DegenerateComponent(
            f"variance spike at (component, column) = "
            f"{tuple(int(v) for v in np.argwhere(spiky)[0])}")
    theta = _assemble_theta(packed, tau, omega, mu, sigma, rate, probs)
    if Lc is not None:
        # reuse the Delta's per-class matrices; shared columns take the one-class one
        irr = omega[packed.groups.cont] == 0
        Lc[:, irr] = shared.Lc[:, irr]
    return theta, omega, delta, Lc


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def e_step(dataset: Dataset, model: Model, theta: Parameters) -> np.ndarray:
    """Responsibilities t_ik ∝ tau_k * prod of observed-cell densities,
    computed in log space with max subtraction and row-normalized: (n, g)."""
    return np.ascontiguousarray(_e_kernel(dataset.packed(), theta)[0].T)


def m_step(dataset: Dataset, model: Model, fuzzy: np.ndarray) -> Parameters:
    """Weighted MLE update: per-class blocks on relevant columns, the shared
    unweighted MLE on irrelevant ones, proportions from the soft counts."""
    return _m_kernel(dataset.packed(), fuzzy.T, model.omega, False, False)[0]


def observed_loglik(dataset: Dataset, model: Model, theta: Parameters) -> float:
    """Observed-data log-likelihood of ``theta``, the one the E step
    computes; ``model`` is implied by ``theta`` (shared blocks on irrelevant
    columns)."""
    return _e_kernel(dataset.packed(), theta)[1]


def penalized_m_step(dataset: Dataset, g: int, fuzzy: np.ndarray, c: float):
    """Joint update of the relevance vector and the parameters: the M step
    with omega_j = 1 iff Delta_j > 0 (see ``_m_kernel``); ``fuzzy`` must have
    g columns.

    Returns (omega, Parameters, Delta vector).
    """
    if g != fuzzy.shape[1]:
        raise ValueError("fuzzy must have g columns")
    theta, omega, delta, _ = _m_kernel(dataset.packed(), fuzzy.T, None, False, False,
                                       penalty_c=float(c))
    return omega, theta, delta


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def _init_theta(packed: Packed, g: int, omega: np.ndarray, rng: np.random.Generator) -> Parameters:
    """Random start: g distinct observations as centers, one-class scales,
    perturbed one-class level frequencies; shared columns start at the
    one-class fit; uniform proportions."""
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
    tau = np.full(g, 1.0 / g)
    return _assemble_theta(packed, tau, omega, mu, sigma, rate, probs)


def _em_sequence(packed: Packed, theta: Parameters, omega: np.ndarray, cfg: EmConfig,
                 penalty_c: float | None, floor: bool, allow_spikes: bool):
    """One EM run from one start, as an ``EmResult`` holding its own trace.

    ``penalty_c`` None means the model (omega) stays fixed; otherwise omega is
    re-optimized every M step and the objective is penalized.
    """
    g = theta.g
    t, _ = _e_kernel(packed, theta)
    prev_obj = -np.inf
    trace = []
    converged = False
    model, penalty = None, 0.0
    for it in range(1, cfg.max_iterations + 1):
        theta, omega, _, Lc = _m_kernel(packed, t, omega, floor, allow_spikes, penalty_c)
        t, loglik = _e_kernel(packed, theta, Lc)
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
    return EmResult(theta=theta, model=model, loglik=loglik, objective=obj,
                    fuzzy=np.ascontiguousarray(t.T), n_iterations=it, converged=converged,
                    traces=[np.array(trace)])


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
        theta0 = _init_theta(packed, g, omega, rng)
        return _em_sequence(packed, theta0, omega, cfg, penalty_c, floor, allow_spikes)

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
    return _run_starts(dataset, g, None, config, penalty_c=float(c))
