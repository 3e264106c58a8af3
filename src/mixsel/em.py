"""EM for a fixed model and the penalized EM that selects variables.

Both engines share one mask-aware code path: masked cells are stored as 0 and
excluded through 0/1 mask matrices, so with a fully observed dataset the
arithmetic reduces exactly to the complete-data formulas.

The shared block of an irrelevant column (and of a zero-weight cell) is the
per-class estimator run at g = 1 (``one_class_fit``), so at g = 1 no column
is relevant. From ``_init_theta`` to the returned fit the engines keep one layout:
``tau`` and the ``(mu, sigma, rate, probs)`` blocks, the means centered like
``Packed``'s cells and the probabilities padded to (g, n_cat, m_max).
``Parameters`` is built only at the API boundary: ``_parameters`` makes one
per returned ``EmResult``, and ``_e_kernel_at`` reads one back.

An iteration is one M step (``_m_slots``, where the penalized engine also
re-chooses the relevance vector from the per-column Delta) and one E step
(``_e_kernel``); the public ``e_step``, ``m_step`` and ``penalized_m_step``
run the same kernels. The E kernel also yields the observed-data
log-likelihood, which is all ``observed_loglik`` computes. Its log joint is
one product of per-class coefficients with ``Packed.cells``, the mirror of
``Packed.class_sums``, and the Delta reads the class sums, so no per-cell
density array is built. The random starts of one fit run as slots of one
stack (``_em_slots``): S live starts are S·g rows of every class-axis array,
so these two products serve them all, and only the per-start reductions
(proportions, log-sum-exp, the Delta's sum over classes, spikes) see
(S, g, ·). Inside the engines n is the inner axis: responsibilities are
(S·g, n); the public operations take and give (n, g).

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
MAX_REDRAWS = 10  # redraws of a start whose component empties or spikes, then discarded


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


def _weighted_loglik_by_column(packed: Packed, st: dict, blocks, g: int):
    """(S, d) expected log-likelihood per slot of g classes and column: the sum
    over its classes and observed cells of t_ik * log f_kj at the per-class
    ``blocks``, from the class sums ``st`` of the weights t. A continuous
    column's sum of t (x - mu)^2 is W (v + (mean - mu)^2), with v the pre-floor
    variance the M step takes sigma from, so it cancels nothing it does not."""
    mu, sigma, rate, probs = blocks
    gr = packed.groups
    W, (_, mean, var) = st["Mc"], _cont_moments(st)
    S = len(W) // g
    out = np.zeros((S, packed.d))
    out[:, gr.cont] = (-0.5 * W * (var + (mean - mu) ** 2) / (sigma * sigma) - W * (
        np.log(sigma) + 0.5 * dens.LOG_2PI)).reshape(S, g, gr.n_cont).sum(axis=1)
    out[:, gr.integer] = (st["Xi"] * np.log(rate) - st["Mi"] * rate
                          - st["lgam"]).reshape(S, g, gr.n_int).sum(axis=1)
    lp = np.log(np.where(packed.level_mask, probs, 1.0))
    out[:, gr.cat] = (st["onehot"] * lp).reshape(S, g, gr.n_cat, packed.m_max).sum(axis=(1, 3))
    return out


class OneClassFit(NamedTuple):
    """The one-component fit: the shared block of every irrelevant column."""

    blocks: tuple       # (mu, sigma, rate, probs) shaped as for g = 1, mu centered
    loglik: np.ndarray  # (d,) per-column log-likelihood


def one_class_fit(packed: Packed) -> OneClassFit:
    """The per-class estimator at g = 1, on all-ones weights."""
    st = packed.class_sums(np.ones((1, packed.n)))
    _, blocks = _per_class_blocks(packed, st)
    return OneClassFit(blocks, _weighted_loglik_by_column(packed, st, blocks, 1)[0])


def _relevant_rows(omega, rows: int) -> np.ndarray:
    """(rows, d) relevance: each slot's row of the (S, d) ``omega`` per class."""
    return np.repeat(omega == 1, rows // len(omega), axis=0)


def _install_omega(packed: Packed, omega, blocks):
    """Per-class blocks on the columns the (S, d) ``omega`` marks relevant in
    each slot, the shared block of the one-class fit everywhere else."""
    gr = packed.groups
    rel = _relevant_rows(omega, len(blocks[0]))
    return _install([rel[:, cols] for cols in (gr.cont, gr.cont, gr.integer, gr.cat[:, None])],
                    blocks, packed.one_class.blocks)


def _parameters(packed: Packed, tau, blocks) -> Parameters:
    """The public ``Parameters`` of internal blocks: the means back in
    original units, one (g, m_j) matrix per categorical column."""
    mu, sigma, rate, probs = blocks
    return Parameters(np.asarray(tau, dtype=float), mu + packed.shift, sigma, rate,
                      [probs[:, j, :m] for j, m in enumerate(packed.m)], packed.groups)


def _spikes(packed: Packed, sigma, omega) -> np.ndarray:
    """(S·g, n_cont) variance spikes under the (S, d) ``omega``: a relevant
    continuous column whose per-class sigma sits on the floor while the column
    has real spread means the component collapsed onto a single point or
    exact duplicates (the floored density grows without bound as it shrinks)."""
    rel = _relevant_rows(omega, len(sigma))[:, packed.groups.cont]
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
                   -rate, np.log(rate), -np.ones_like(rate), np.zeros((g, packed.groups.n_cat)),
                   lp.reshape(g, packed.groups.n_cat * packed.m_max)]) @ packed.cells
    for k, j in zip(*np.nonzero(by_cell)):
        V[k] += dens.normal_logpdf(packed.Xc[j], mu[k, j], sigma[k, j]) * packed.Mc[j]
    return V


def _e_kernel(packed: Packed, tau, blocks):
    """(S·g, n) responsibilities t_ki ∝ tau_k * prod of observed-cell
    densities for the slots of the (S, g) ``tau``, and their (S,)
    observed-data log-likelihoods, from one stabilized log-space pass over
    ``_log_joint``. Masked cells contribute 0."""
    V = _log_joint(packed, blocks) + np.log(tau).reshape(-1, 1)
    slots = V.reshape(*np.shape(tau), packed.n)  # a view: (S, g, n)
    vmax = slots.max(axis=1)
    slots -= vmax[:, None]
    np.exp(V, out=V)
    s = slots.sum(axis=1)
    slots /= s[:, None]
    return V, (vmax + np.log(s)).sum(axis=1)


def _e_kernel_at(packed: Packed, theta: Parameters):
    """``_e_kernel`` at a public ``Parameters``, moved to the internal layout:
    (g, n) responsibilities and the log-likelihood."""
    probs = np.ones((theta.g, packed.groups.n_cat, packed.m_max))
    for j, m in enumerate(packed.m):
        probs[:, j, :m] = theta.probs[j]
    t, loglik = _e_kernel(packed, np.reshape(theta.tau, (1, -1)),
                          (theta.mu - packed.shift, theta.sigma, theta.rate, probs))
    return t, float(loglik[0])


def _m_slots(packed: Packed, t: np.ndarray, g: int, omega, floor: bool = False,
             penalty_c: float | None = None):
    """Weighted MLE update of the slots of g classes under the (S·g, n)
    weights ``t``: per-class blocks on relevant columns, the one-class block
    on irrelevant ones, proportions from the soft counts.

    ``penalty_c`` None keeps the (S, d) ``omega``. Otherwise Delta_j compares
    the expected log-likelihood of the per-class fit of column j against the
    shared fit minus the extra-parameter cost (g-1) * nu_j * c, and the column
    is relevant iff Delta_j > 0 and g > 1: at g = 1 the two fits are one, and
    Delta is 0 up to the rounding of the class-sum product. With ``floor``
    every slot lifts its soft counts to at least 1e-10 and renormalizes them.

    Returns (tau, blocks, omega, Delta or None, empty, spikes): the (S, g)
    components whose soft count is under ``EMPTY_COMPONENT_TOL`` and the
    (S·g, n_cont) variance spikes (``_spikes``) mark the slots that failed.
    """
    st = packed.class_sums(t)
    nk = st["nk"].reshape(-1, g)
    empty, lifted = nk < EMPTY_COMPONENT_TOL, np.maximum(nk, 1e-10)
    tau = lifted / lifted.sum(axis=1, keepdims=True) if floor else nk / packed.n
    blocks = _install(*_per_class_blocks(packed, st), packed.one_class.blocks)
    delta = None
    if penalty_c is not None:
        wll = _weighted_loglik_by_column(packed, st, blocks, g)
        delta = wll - packed.one_class.loglik - (g - 1.0) * packed.nu * penalty_c
        omega = ((delta > 0) & (g > 1)).astype(np.int8)
    return (tau, _install_omega(packed, omega, blocks), omega, delta, empty,
            _spikes(packed, blocks[1], omega))


def _m_kernel(packed: Packed, t: np.ndarray, omega, penalty_c: float | None = None):
    """``_m_slots`` on one slot, as the public steps see it: (g, n) weights
    and (d,) ``omega`` (None under a penalty). An empty component raises
    ``EmptyComponent`` and a variance spike ``DegenerateComponent``.

    Returns (tau, blocks, omega, Delta or None).
    """
    tau, blocks, omega, delta, empty, spiky = _m_slots(
        packed, t, len(t), None if omega is None else omega[None], penalty_c=penalty_c)
    if empty.any():
        raise EmptyComponent(int(np.argmin(tau[0])))
    if spiky.any():
        raise DegenerateComponent(
            f"variance spike at (component, column) = "
            f"{tuple(int(v) for v in np.argwhere(spiky)[0])}")
    return tau[0], blocks, omega[0], None if delta is None else delta[0]


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
    tau, blocks, *_ = _m_kernel(packed, fuzzy.T, model.omega)
    return _parameters(packed, tau, blocks)


def observed_loglik(dataset: Dataset, model: Model, theta: Parameters) -> float:
    """Observed-data log-likelihood of ``theta``, the one the E step
    computes; ``model`` is implied by ``theta`` (shared blocks on irrelevant
    columns)."""
    return _e_kernel_at(dataset.packed(), theta)[1]


def penalized_m_step(dataset: Dataset, g: int, fuzzy: np.ndarray, c: float):
    """Joint update of the relevance vector and the parameters: the M step
    with omega_j = 1 iff Delta_j > 0 (see ``_m_slots``); ``fuzzy`` must have
    g columns.

    Returns (omega, Parameters, Delta vector).
    """
    if g != fuzzy.shape[1]:
        raise ValueError("fuzzy must have g columns")
    packed = dataset.packed()
    tau, blocks, omega, delta = _m_kernel(packed, fuzzy.T, None, penalty_c=float(c))
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
    return np.full(g, 1.0 / g), _install_omega(packed, omega[None], (mu, sigma, rate, probs))


def _em_slots(packed: Packed, g: int, omega0, cfg: EmConfig, penalty_c: float | None,
              starts, floor: bool) -> list:
    """EM runs from the random ``starts``, stacked: one ``_m_slots`` and one
    ``_e_kernel`` call per iteration advance every live slot, and a slot
    leaves the stack when it converges or reaches ``cfg.max_iterations``.

    Start s draws from ``seeded_rng(cfg.seed, s)``: omega (Bernoulli(1/2) per
    column if ``omega0`` is None), then ``_init_theta``. A slot whose
    component empties or spikes (a near-singular fit, not a usable optimum)
    is redrawn from its stream, up to ``MAX_REDRAWS`` times, and then
    discarded; other slots run on. With ``floor`` no slot fails: empty
    components are floored, and a slot whose last M step spiked is kept and
    flagged ``degenerate``. ``penalty_c`` None keeps omega fixed; otherwise
    it is re-chosen every M step and the objective is penalized.

    Returns the kept starts' ``EmResult``s in start order.
    """
    rngs = {s: seeded_rng(cfg.seed, s) for s in starts}
    redraws = dict.fromkeys(starts, 0)
    runs, done, fresh = {}, {}, list(starts)
    live, t, omega = [], np.empty((0, packed.n)), np.empty((0, packed.d), np.int8)
    while fresh or live:
        if fresh:  # (re)drawn starts join after one E step at their start
            oms = [omega0 if omega0 is not None else
                   rngs[s].integers(0, 2, size=packed.d).astype(np.int8) for s in fresh]
            taus, blocks = zip(*(_init_theta(packed, g, om, rngs[s])
                                 for s, om in zip(fresh, oms)))
            tf, _ = _e_kernel(packed, np.array(taus), tuple(map(np.concatenate, zip(*blocks))))
            runs.update((s, [[], None, 0.0]) for s in fresh)  # trace, model, penalty
            t, omega = np.vstack([t, tf]), np.vstack([omega, *oms])
            live, fresh = live + fresh, []
        tau, blocks, omega, _, empty, spiky = _m_slots(packed, t, g, omega, floor, penalty_c)
        spiky = spiky.any(axis=1).reshape(-1, g).any(axis=1)
        ok = floor | ~(empty.any(axis=1) | spiky)
        for s in [s for s, k in zip(live, ok) if not k]:
            redraws[s] += 1
            fresh += [s] if redraws[s] <= MAX_REDRAWS else []
        if not ok.all():
            live, tau, omega, spiky, blocks = (
                [s for s, k in zip(live, ok) if k], tau[ok], omega[ok], spiky[ok],
                tuple(b[np.repeat(ok, g)] for b in blocks))
        t, loglik = _e_kernel(packed, tau, blocks)
        going = np.ones(len(live), bool)
        for i, s in enumerate(live):
            trace, model, penalty = run = runs[s]
            if model is None or (omega[i] != model.omega).any():
                # the penalty only changes with omega
                model = run[1] = Model(g, omega[i])
                if penalty_c is not None:
                    penalty = run[2] = count_params(model, packed.kinds) * penalty_c
            obj, prev = float(loglik[i]) - penalty, trace[-1] if trace else -np.inf
            converged = prev > -np.inf and \
                abs(obj - prev) / (abs(prev) + 1.0) < cfg.rel_tolerance
            trace.append(obj)
            if converged or len(trace) == cfg.max_iterations:
                going[i], k = False, slice(i * g, (i + 1) * g)
                done[s] = EmResult(
                    theta=_parameters(packed, tau[i], tuple(b[k] for b in blocks)), model=model,
                    loglik=float(loglik[i]), objective=obj, fuzzy=np.ascontiguousarray(t[k].T),
                    n_iterations=len(trace), converged=converged, traces=[np.array(trace)],
                    start_index=s, degenerate=bool(spiky[i]))
        if not going.all():
            live, t, omega = [s for s, k in zip(live, going) if k], t[np.repeat(going, g)], \
                omega[going]
    return [done[s] for s in starts if s in done]


def _run_starts(dataset: Dataset, g: int, omega0, cfg: EmConfig,
                penalty_c: float | None) -> EmResult:
    """Best-of-n-starts driver shared by the plain and penalized engines: the
    starts run as one stack (``_em_slots``), and the first of the best
    objectives wins. Only if every start is discarded is one more start run,
    the one that floors empty components and accepts spikes, so the call can
    return: the landscape is then dominated by a degenerate solution.
    """
    packed = dataset.packed()
    kept = _em_slots(packed, g, omega0, cfg, penalty_c, range(cfg.n_starts), False) or \
        _em_slots(packed, g, omega0, cfg, penalty_c, [cfg.n_starts], True)
    best = max(kept, key=lambda res: res.objective)
    best.traces = [trace for res in kept for trace in res.traces]
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
