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
density array is built. The random starts of one fit, or of several (the
MICL start EMs of one g, or the fits of every g of a ``select_model``
sweep), run as slots of one stack (``_em_slots``). Each slot has its own g
and holds g rows of every class-axis array, so these two products serve
every live slot. The slots of equal g are kept contiguous, and each
per-slot reduction (proportions, log-sum-exp, the Delta's sum over classes,
the penalty, spikes) runs once per run of equal g on a (slots, g, ·)
reshape, so a slot's sums add in the order they would in a stack of its g
alone. Only the two products see the other slots: BLAS may block a product
of another row count differently, so a row's sums can change in the last
bit with the number of live slots. Inside the engines n is the inner axis:
responsibilities are (rows, n); the public operations take and give (n, g).

The penalized engine maximizes `loglik - nu_m * c` jointly over the relevance
vector and the parameters; `c = ln(n)/2` yields the BIC, `c = 1` the AIC.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import densities as dens
from .data import Dataset, Model, Packed, Parameters
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
    runner; the MICL optimizer reads the seed and the number of starts. The
    two budgets are integers: a slot stops at exactly ``max_iterations``."""

    seed: int
    max_iterations: int = 500
    rel_tolerance: float = 1e-6
    n_starts: int = 20

    def __post_init__(self):
        budgets = (self.max_iterations, self.n_starts)
        if not (all(isinstance(b, (int, np.integer)) and b >= 1 for b in budgets)
                and 0 < self.rel_tolerance < np.inf):
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


def _runs(gs) -> list:
    """(g, its slots, their class rows) per run of equal g in the per-slot
    ``gs``, the slots and rows as slices. Each per-slot reduction is taken
    once per run, on a (slots, g, ...) reshape of the run's rows."""
    runs, slot, row = [], 0, 0
    for g, run in itertools.groupby(gs.tolist()):
        count = len(list(run))
        runs.append((g, slice(slot, slot + count), slice(row, row + count * g)))
        slot, row = slot + count, row + count * g
    return runs


def _weighted_loglik_by_column(packed: Packed, st: dict, blocks, gs) -> np.ndarray:
    """(S, d) expected log-likelihood per slot and column, slot s having
    ``gs[s]`` classes: the sum over its classes and observed cells of
    t_ik * log f_kj at the per-class ``blocks``, from the class sums ``st`` of
    the weights t. A continuous column's sum of t (x - mu)^2 is
    W (v + (mean - mu)^2), with v the pre-floor variance the M step takes
    sigma from, so it cancels nothing it does not."""
    mu, sigma, rate, probs = blocks
    gr = packed.groups
    W, (_, mean, var) = st["Mc"], _cont_moments(st)
    cont = -0.5 * W * (var + (mean - mu) ** 2) / (sigma * sigma) - W * (
        np.log(sigma) + 0.5 * dens.LOG_2PI)
    integer = st["Xi"] * np.log(rate) - st["Mi"] * rate - st["lgam"]
    cat = st["onehot"] * np.log(np.where(packed.level_mask, probs, 1.0))
    out = np.zeros((len(gs), packed.d))
    for g, slots, rows in _runs(gs):
        S = slots.stop - slots.start
        out[slots, gr.cont] = cont[rows].reshape(S, g, gr.n_cont).sum(axis=1)
        out[slots, gr.integer] = integer[rows].reshape(S, g, gr.n_int).sum(axis=1)
        out[slots, gr.cat] = cat[rows].reshape(S, g, gr.n_cat, packed.m_max).sum(axis=(1, 3))
    return out


class OneClassFit(NamedTuple):
    """The one-component fit: the shared block of every irrelevant column."""

    blocks: tuple       # (mu, sigma, rate, probs) shaped as for g = 1, mu centered
    loglik: np.ndarray  # (d,) per-column log-likelihood
    sums: dict          # the class sums of the one-class partition (``Packed.class_sums``)


def one_class_fit(packed: Packed) -> OneClassFit:
    """The per-class estimator at g = 1, on all-ones weights."""
    st = packed.class_sums(np.ones((1, packed.n)))
    _, blocks = _per_class_blocks(packed, st)
    return OneClassFit(blocks, _weighted_loglik_by_column(packed, st, blocks, np.array([1]))[0],
                       st)


def _relevant_rows(omega, gs) -> np.ndarray:
    """(rows, d) relevance: each slot's row of the (S, d) ``omega`` once per
    class, slot s having ``gs[s]`` classes."""
    return np.repeat(omega == 1, gs, axis=0)


def _install_omega(packed: Packed, omega, gs, blocks):
    """Per-class blocks on the columns the (S, d) ``omega`` marks relevant in
    each slot of ``gs`` classes, the shared block of the one-class fit
    everywhere else."""
    gr = packed.groups
    rel = _relevant_rows(omega, gs)
    return _install([rel[:, cols] for cols in (gr.cont, gr.cont, gr.integer, gr.cat[:, None])],
                    blocks, packed.one_class.blocks)


def _parameters(packed: Packed, tau, blocks) -> Parameters:
    """The public ``Parameters`` of internal blocks: the means back in
    original units, one (g, m_j) matrix per categorical column."""
    mu, sigma, rate, probs = blocks
    return Parameters(np.asarray(tau, dtype=float), mu + packed.shift, sigma, rate,
                      [probs[:, j, :m] for j, m in enumerate(packed.m)], packed.groups)


def _spikes(packed: Packed, sigma, omega, gs) -> np.ndarray:
    """(rows, n_cont) variance spikes under the (S, d) ``omega`` of slots of
    ``gs`` classes: a relevant continuous column whose per-class sigma sits on
    the floor while the column has real spread means the component collapsed
    onto a single point or exact duplicates (the floored density grows
    without bound as it shrinks)."""
    rel = _relevant_rows(omega, gs)[:, packed.groups.cont]
    _, sigma1, _, _ = packed.one_class.blocks
    return (sigma <= dens.SIGMA_FLOOR) & rel & (sigma1 > 1e-6)


def _log_joint(packed: Packed, blocks) -> np.ndarray:
    """(g, n) sum of log f_k over each row's observed cells: one product of
    per-class coefficients with ``Packed.cells`` (rows 0 on masked cells). The
    Gaussian expansion over the Mc, Xc and Xc2 rows rounds at ~eps mu^2/sigma^2
    per cell, so a pair whose mean lies over 1e3 sigmas from the column mean (on
    the sigma floor, or collapsed onto duplicates) is added cell by cell, over
    its observed cells."""
    mu, sigma, rate, probs = blocks
    g = len(mu)
    by_cell = mu * mu > 1e6 * sigma * sigma
    prec = np.where(by_cell, 0.0, 1.0 / (sigma * sigma))
    const = np.where(by_cell, 0.0, np.log(sigma) + 0.5 * dens.LOG_2PI)
    # log-probabilities laid out like the padded one-hot, 0 on padding
    lp = np.log(np.where(packed.level_mask, probs, 1.0))
    coef = np.hstack([-0.5 * mu * mu * prec - const, mu * prec, -0.5 * prec,  # Packed.BLOCKS
                      -rate, np.log(rate), -np.ones_like(rate),
                      np.zeros((g, packed.groups.n_cat)),
                      lp.reshape(g, packed.groups.n_cat * packed.m_max)])
    # An observed cell so far from a class that its squared term overflows
    # has density 0 there, so its -inf is right: the pair's mean lies within
    # 1e3 sigmas of the column mean, so no term of the product overflows to
    # +inf. The by-cell pairs see observed cells only: a masked cell's stored
    # 0 may lie far enough from a floored mean to give -inf, which its 0 mask
    # would turn into NaN.
    with np.errstate(over="ignore"):
        V = coef @ packed.cells
        for k, j in zip(*np.nonzero(by_cell)):
            obs = packed.Mc[j] > 0
            V[k, obs] += dens.normal_logpdf(packed.Xc[j, obs], mu[k, j], sigma[k, j])
    return V


def _e_kernel(packed: Packed, tau, gs, blocks):
    """(rows, n) responsibilities t_ki ∝ tau_k * prod of observed-cell
    densities for the slots of ``gs`` classes whose proportions ``tau`` lists
    row by row, and their (S,) observed-data log-likelihoods, from one
    stabilized log-space pass over ``_log_joint``. Masked cells contribute 0."""
    V = _log_joint(packed, blocks) + np.log(tau).reshape(-1, 1)
    loglik = np.empty(len(gs))
    for g, run, rows in _runs(gs):
        slots = V[rows].reshape(-1, g, packed.n)  # a view: (slots, g, n)
        vmax = slots.max(axis=1)
        slots -= vmax[:, None]
        np.exp(slots, out=slots)
        s = slots.sum(axis=1)
        slots /= s[:, None]
        loglik[run] = (vmax + np.log(s)).sum(axis=1)
    return V, loglik


def _e_kernel_at(packed: Packed, theta: Parameters):
    """``_e_kernel`` at a public ``Parameters``, moved to the internal layout:
    (g, n) responsibilities and the log-likelihood."""
    probs = np.ones((theta.g, packed.groups.n_cat, packed.m_max))
    for j, m in enumerate(packed.m):
        probs[:, j, :m] = theta.probs[j]
    t, loglik = _e_kernel(packed, theta.tau, np.array([theta.g]),
                          (theta.mu - packed.shift, theta.sigma, theta.rate, probs))
    return t, float(loglik[0])


def _m_slots(packed: Packed, t: np.ndarray, gs, omega, floor: bool = False,
             penalty_c: float | None = None):
    """Weighted MLE update of the slots of ``gs`` classes under the (rows, n)
    weights ``t``, slot s holding the next ``gs[s]`` rows: per-class blocks on
    relevant columns, the one-class block on irrelevant ones, proportions
    from the soft counts.

    ``penalty_c`` None keeps the (S, d) ``omega``. Otherwise Delta_j compares
    the expected log-likelihood of the per-class fit of column j against the
    shared fit minus the extra-parameter cost (g-1) * nu_j * c, and the column
    is relevant iff Delta_j > 0 and g > 1: at g = 1 the two fits are one, and
    Delta is 0 up to the rounding of the class-sum product. With ``floor``
    every slot lifts its soft counts to at least 1e-10 and renormalizes them.

    Returns (tau, blocks, omega, Delta or None, empty, spikes): the (rows,)
    proportions, the components whose soft count is under
    ``EMPTY_COMPONENT_TOL`` and the (rows, n_cont) variance spikes
    (``_spikes``) mark the slots that failed.
    """
    st = packed.class_sums(t)
    nk = st["nk"]
    if floor:
        lifted = np.maximum(nk, 1e-10)
        runs = [lifted[rows].reshape(-1, g) for g, _, rows in _runs(gs)]
        tau = np.concatenate([(run / run.sum(axis=1, keepdims=True)).ravel() for run in runs])
    else:
        tau = nk / packed.n
    blocks = _install(*_per_class_blocks(packed, st), packed.one_class.blocks)
    delta = None
    if penalty_c is not None:
        g = gs[:, None]
        wll = _weighted_loglik_by_column(packed, st, blocks, gs)
        delta = wll - packed.one_class.loglik - (g - 1.0) * packed.nu * penalty_c
        omega = ((delta > 0) & (g > 1)).astype(np.int8)
    return (tau, _install_omega(packed, omega, gs, blocks), omega, delta,
            nk < EMPTY_COMPONENT_TOL, _spikes(packed, blocks[1], omega, gs))


def _m_kernel(packed: Packed, t: np.ndarray, omega, penalty_c: float | None = None):
    """``_m_slots`` on one slot, as the public steps see it: (g, n) weights
    and (d,) ``omega`` (None under a penalty). An empty component raises
    ``EmptyComponent`` and a variance spike ``DegenerateComponent``.

    Returns (tau, blocks, omega, Delta or None).
    """
    tau, blocks, omega, delta, empty, spiky = _m_slots(
        packed, t, np.array([len(t)]), None if omega is None else omega[None],
        penalty_c=penalty_c)
    if empty.any():
        raise EmptyComponent(int(np.argmin(tau)))
    if spiky.any():
        raise DegenerateComponent(
            f"variance spike at (component, column) = "
            f"{tuple(int(v) for v in np.argwhere(spiky)[0])}")
    return tau, blocks, omega[0], None if delta is None else delta[0]


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
    if g != fuzzy.shape[1] or not 0 <= c < np.inf:
        raise ValueError("fuzzy must have g columns, and c be finite and nonnegative")
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
    return np.full(g, 1.0 / g), _install_omega(packed, omega[None], np.array([g]),
                                               (mu, sigma, rate, probs))


def _em_slots(packed: Packed, cfg: EmConfig, penalty_c: float | None, starts: dict,
              floor: bool) -> dict:
    """EM runs from the random ``starts``, stacked: one ``_m_slots`` and one
    ``_e_kernel`` call per iteration advance every live slot, and a slot
    leaves the stack when it converges or reaches ``cfg.max_iterations``.

    ``starts`` maps a key (fit, start index) to (g, stream, omega): the stream
    draws omega, if None, as Bernoulli(1/2) per column, then ``_init_theta``
    for g classes. A floored stack may hold (g, n) weights in place of all
    its streams: its starts begin at the M step at those weights. Each slot
    has the g of its start, and the slots of equal g are kept contiguous, in
    the order they joined, so each per-slot reduction runs once per g.
    A slot whose component empties or spikes (a near-singular fit, not a
    usable optimum) is redrawn from its stream, up to ``MAX_REDRAWS`` times,
    and then discarded; other slots run on. With ``floor`` no slot fails:
    empty components are floored, and a slot whose last M step spiked is kept
    and flagged ``degenerate``. ``penalty_c`` None keeps omega fixed;
    otherwise it is re-chosen every M step and the objective is penalized.

    Returns the kept starts' ``EmResult``s by key, in the order of ``starts``.
    """
    redraws = dict.fromkeys(starts, 0)
    traces, done, fresh = {}, {}, list(starts)
    live, gs = [], np.empty(0, int)
    t, omega = np.empty((0, packed.n)), np.empty((0, packed.d), np.int8)
    while fresh or live:
        if fresh:  # (re)drawn starts join after one E step at their start
            new = [starts[key][0] for key in fresh]
            oms = [om if om is not None else rng.integers(0, 2, size=packed.d).astype(np.int8)
                   for _, rng, om in map(starts.get, fresh)]
            tf = [starts[key][1] for key in fresh]  # or weights, which join as they are
            if isinstance(tf[0], np.ndarray):
                tf = np.vstack(tf)
            else:
                taus, blocks = zip(*(_init_theta(packed, g, om, rng)
                                     for g, rng, om in zip(new, tf, oms)))
                tf, _ = _e_kernel(packed, np.concatenate(taus), np.array(new),
                                  tuple(map(np.concatenate, zip(*blocks))))
            traces.update((key, []) for key in fresh)
            # the slots of equal g stay contiguous, each g's in joining order
            gs = np.concatenate([gs, new])
            order = np.argsort(gs, kind="stable")
            t = np.vstack([t, tf])[np.argsort(np.repeat(gs, gs), kind="stable")]
            omega, gs = np.vstack([omega, *oms])[order], gs[order]
            live, fresh = [(live + fresh)[i] for i in order], []
        tau, blocks, omega, _, empty, spiky = _m_slots(packed, t, gs, omega, floor, penalty_c)
        firsts = list(itertools.accumulate(gs.tolist(), initial=0))[:-1]  # each slot's first row
        spiky = np.logical_or.reduceat(spiky.any(axis=1), firsts)
        ok = floor | ~(np.logical_or.reduceat(empty, firsts) | spiky)
        for key in [key for key, k in zip(live, ok) if not k]:
            redraws[key] += 1
            fresh += [key] if redraws[key] <= MAX_REDRAWS else []
        if not ok.all():
            rows = np.repeat(ok, gs)
            live, gs, tau, omega, spiky, blocks = (
                [key for key, k in zip(live, ok) if k], gs[ok], tau[rows], omega[ok], spiky[ok],
                tuple(b[rows] for b in blocks))
        t, loglik = _e_kernel(packed, tau, gs, blocks)
        # the parameter counts are small integers, which float64 holds exactly
        objective = loglik - (penalty_c or 0.0) * (
            gs - 1 + np.where(omega == 1, gs[:, None], 1) @ packed.nu)
        going, sizes = np.ones(len(live), bool), gs.tolist()
        for i, (key, g, end) in enumerate(zip(live, sizes, itertools.accumulate(sizes))):
            trace = traces[key]
            obj, prev = float(objective[i]), trace[-1] if trace else -np.inf
            converged = prev > -np.inf and \
                abs(obj - prev) / (abs(prev) + 1.0) < cfg.rel_tolerance
            trace.append(obj)
            if converged or len(trace) == cfg.max_iterations:
                going[i], k = False, slice(end - g, end)
                done[key] = EmResult(
                    theta=_parameters(packed, tau[k], tuple(b[k] for b in blocks)),
                    model=Model(g, omega[i]),
                    loglik=float(loglik[i]), objective=obj, fuzzy=np.ascontiguousarray(t[k].T),
                    n_iterations=len(trace), converged=converged, traces=[np.array(trace)],
                    start_index=key[1], degenerate=bool(spiky[i]))
        if not going.all():
            live, t, omega, gs = [key for key, k in zip(live, going) if k], \
                t[np.repeat(going, gs)], omega[going], gs[going]
    return {key: done[key] for key in starts if key in done}


def run_starts(dataset: Dataset, fits: list, cfg: EmConfig, penalty_c: float | None) -> list:
    """Best-of-``cfg.n_starts`` driver of every EM fit: ``fits`` lists (g,
    seed, omega or None) triples, start s of a fit draws from
    ``seeded_rng(seed, s)``, and the starts of all fits, of any g, run as one
    stack (``_em_slots``). A fit whose every start is discarded runs one more
    start (index ``cfg.n_starts``) that floors empty components and accepts
    spikes, so the fit can return: its landscape is dominated by a degenerate
    solution. Returns per fit the first of its best objectives, holding the
    traces of all its kept starts."""
    packed = dataset.packed()
    starts = {(f, s): (g, seeded_rng(seed, s), omega)
              for f, (g, seed, omega) in enumerate(fits) for s in range(cfg.n_starts)}
    kept = _em_slots(packed, cfg, penalty_c, starts, False)
    lost = {(f, cfg.n_starts): (g, seeded_rng(seed, cfg.n_starts), omega)
            for f, (g, seed, omega) in enumerate(fits) if all(key[0] != f for key in kept)}
    kept.update(_em_slots(packed, cfg, penalty_c, lost, True))
    out = []
    for f in range(len(fits)):
        results = [res for key, res in kept.items() if key[0] == f]
        best = max(results, key=lambda res: res.objective)
        best.traces = [trace for res in results for trace in res.traces]
        out.append(best)
    return out


def run_em(dataset: Dataset, model: Model, config: EmConfig) -> EmResult:
    """Maximum-likelihood EM for a fixed model, best of ``n_starts`` starts."""
    if len(model.omega) != dataset.d:
        raise ValueError("omega length must equal d")
    return run_starts(dataset, [(model.g, config.seed, model.omega)], config, None)[0]


def run_em_from(dataset: Dataset, model: Model, z, config: EmConfig) -> EmResult:
    """Maximum-likelihood EM for a fixed model from one start at the hard
    partition ``z``, whose classes are numbered by first row, empty ones last.
    Empty components are floored; a spike is kept, flagged ``degenerate``.
    Reads neither ``config.seed`` nor ``config.n_starts``."""
    labels = list(dict.fromkeys(np.asarray(z).tolist()))  # in first-row order
    if len(model.omega) != dataset.d or len(z) != dataset.n or len(labels) > model.g:
        raise ValueError("need d omega entries and n labels of at most g classes")
    weights = np.zeros((model.g, dataset.n))
    weights[:len(labels)] = np.equal.outer(labels, z)
    start = {(0, 0): (model.g, weights, model.omega)}
    return _em_slots(dataset.packed(), config, None, start, True)[(0, 0)]


def run_penalized_em(dataset: Dataset, g: int, c: float, config: EmConfig) -> EmResult:
    """Penalized EM jointly selecting the relevance vector at fixed g.

    With ``c = ln(n)/2`` the final objective equals the BIC of the returned
    model; with ``c = 1`` it equals the AIC.
    """
    if not 0 <= c < np.inf:
        raise ValueError("penalty must be finite and nonnegative")
    if g < 1:
        raise ValueError("g must be >= 1")
    return run_starts(dataset, [(g, config.seed, None)], config, float(c))[0]
