"""Integrated complete-data likelihood under conjugate priors, and the
alternating partition/model optimizer that maximizes it.

Every per-variable marginal has a closed form:

* continuous: Normal–Inverse-Gamma, sigma² ~ IG(a/2, b²/2), mu|sigma² ~ N(c, sigma²/d),
* integer: Gamma(a, b) on the Poisson rate (b is a rate, posterior rate b + n),
* categorical: symmetric Dirichlet(a) over the level probabilities,

applied once per component on a relevant column and once globally on an
irrelevant one. All counts are observed-cell counts, so missing cells simply
drop out of the sufficient statistics. An empty component contributes its
prior normalization, i.e. exactly zero on the log scale.

``MiclState`` is the one evaluator of the integrated complete-data likelihood:
it builds the per-class sums with ``Packed.class_sums`` (the EM's M step uses
the same builder), and ``log_integrated_complete`` and ``log_marginal_variable``
read their values from a state built at the given partition.

The partition step is a greedy sweep of single-row moves in a random order.
It scores the next rows of the order as one block against the current state
(``MiclState.candidate_values`` on many rows is one numpy pass) and takes the
first improving move; the rows before it saw the state a row-by-row sweep
would have seen, so the blocked sweep makes the same moves.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln

from .data import Dataset, Hyperparameters, Model
from .em import EmConfig, run_em
from .util import derive_seed, seeded_rng

LOG_PI = float(np.log(np.pi))
SWEEP_CAP = 50           # greedy sweeps per partition step
BLOCK_ROWS = 256         # rows scored per candidate_values pass of a sweep
MAX_ALTERNATIONS = 100   # partition/model alternations per start
# the small EM whose MAP partition seeds a start (its seed is set per start)
START_EM = EmConfig(seed=0, n_starts=1, max_iterations=200, rel_tolerance=1e-4)


# ---------------------------------------------------------------------------
# closed-form per-class factors (vectorized over stat arrays)
# ---------------------------------------------------------------------------

def _phi_cont(n, s1, s2, a, b, c, d):
    """Log marginal of one Gaussian cell group with n observed values,
    sum s1 and sum of squares s2 (0 when n = 0)."""
    n = np.asarray(n, dtype=float)
    nsafe = np.where(n > 0, n, 1.0)
    xbar = s1 / nsafe
    ss = np.maximum(s2 - s1 * xbar, 0.0)
    A = a + n
    D = d + n
    B2 = b * b + ss + (c - xbar) ** 2 / (1.0 / d + 1.0 / nsafe)
    val = (-0.5 * n * LOG_PI + a * np.log(b) + 0.5 * np.log(d) - gammaln(0.5 * a)
           + gammaln(0.5 * A) - 0.5 * A * np.log(B2) - 0.5 * np.log(D))
    return np.where(n > 0, val, 0.0)


def _phi_int(n, s, glg, a, b):
    """Log marginal of one Poisson cell group: n observed values with sum s
    and sum of ln Gamma(x+1) equal to glg."""
    n = np.asarray(n, dtype=float)
    A = a + s
    val = -glg + a * np.log(b) - gammaln(a) + gammaln(A) - A * np.log(b + n)
    return np.where(n > 0, val, 0.0)


def _phi_cat(cnt, nobs, a, m, level_mask):
    """Log marginal of one multinomial cell group: per-level counts ``cnt``
    (last axis, padded), total ``nobs``."""
    nobs = np.asarray(nobs, dtype=float)
    lev = np.where(level_mask, gammaln(cnt + a[..., None]), 0.0).sum(axis=-1)
    val = gammaln(m * a) - m * gammaln(a) + lev - gammaln(nobs + m * a)
    return np.where(nobs > 0, val, 0.0)


def log_dirichlet_proportion_term(nk, u: float) -> float:
    """Log of the Dirichlet–multinomial factor of the component counts."""
    nk = np.asarray(nk, dtype=float)
    g = len(nk)
    return float(gammaln(g * u) - g * gammaln(u)
                 + gammaln(nk + u).sum() - gammaln(nk.sum() + g * u))


# ---------------------------------------------------------------------------
# dataset-level constant tables
# ---------------------------------------------------------------------------

class MarginalTables:
    """Per-dataset constants used by the optimizer: the hyperparameter arrays
    of the continuous (a, b, c, d) and integer (a, b) columns, and the global
    (one-group) marginal of every column, which is what an irrelevant column
    contributes for any partition. The prior mean ``c`` is shifted with
    ``Packed``'s centered cells, which leaves every marginal unchanged."""

    def __init__(self, dataset: Dataset, hyper: Hyperparameters):
        self.dataset = dataset
        self.hyper = hyper
        p = dataset.packed()
        self.packed = p
        self.hyp_cont = (hyper.cont_a, hyper.cont_b, hyper.cont_c - p.shift, hyper.cont_d)
        self.hyp_int = (hyper.int_a, hyper.int_b)
        self.mq = p.m.astype(float)
        # the global marginal is the per-class factor of the one-class partition
        self.global_cont, self.global_int, self.global_cat = (
            phi[0] for phi in self.factors(p.class_sums(np.ones((p.n, 1)))))

    def factors(self, st: dict) -> tuple:
        """(g, ·) per-class factors of the continuous, integer and categorical
        columns from the class sums ``st`` (see ``Packed.class_sums``)."""
        return (_phi_cont(st["Mc"], st["Xc"], st["Xc2"], *self.hyp_cont),
                _phi_int(st["Mi"], st["Xi"], st["lgam"], *self.hyp_int),
                _phi_cat(st["onehot"], st["Mq"], self.hyper.cat_a, self.mq,
                         self.packed.level_mask))


class MiclState:
    """Current (model, partition) with per-component sufficient statistics and
    cached per-column marginal factors, supporting O(1)-per-column single
    observation moves.

    Continuous and integer columns share one move rule: per class an observed
    count, a sum and a second sum (of squares, or of ln Gamma(x+1)), and a
    closed-form factor of the three; categorical columns keep level counts.
    ``candidate_values`` scores a block of rows against the frozen state in
    one pass over the relevant columns, where a missing cell adds exactly 0;
    ``apply_move`` then updates the statistics of the one row that moves.
    """

    def __init__(self, tables: MarginalTables, model: Model, zi: np.ndarray):
        self.tables = tables
        self.model = model.copy()
        self.zi = np.asarray(zi, dtype=np.intp).copy()  # 0-based
        p = tables.packed
        Z = np.zeros((p.n, model.g))
        Z[np.arange(p.n), self.zi] = 1.0
        st = p.class_sums(Z)
        self.nk = st["nk"]
        self.cn, self.cS1, self.cS2 = st["Mc"], st["Xc"], st["Xc2"]
        self.inn, self.iS, self.iG = st["Mi"], st["Xi"], st["lgam"]
        self.catn, self.ccnt = st["Mq"], st["onehot"]
        self.phic, self.phii, self.phiq = tables.factors(st)
        # per kind: dataset columns, per-class factors, global factors
        self._kinds = ((p.groups.cont, self.phic, tables.global_cont),
                       (p.groups.integer, self.phii, tables.global_int),
                       (p.groups.cat, self.phiq, tables.global_cat))
        # per moment kind: count, sum, second sum, factors, the row mask and
        # the cell values behind the three, the factor function and its
        # hyperparameters
        self._moments = ((self.cn, self.cS1, self.cS2, self.phic, p.Mc, p.Xc, p.Xc2,
                          _phi_cont, tables.hyp_cont),
                         (self.inn, self.iS, self.iG, self.phii, p.Mi, p.Xi, p.lgam,
                          _phi_int, tables.hyp_int))
        self._set_rel_masks()
        self.log_icl = self._value()

    @classmethod
    def from_partition(cls, tables: MarginalTables, model: Model, z) -> "MiclState":
        """Build a state from 1-based hard labels."""
        return cls(tables, model, np.asarray(z, dtype=np.intp) - 1)

    @property
    def z(self) -> np.ndarray:
        """Hard labels, 1-based."""
        return self.zi + 1

    def _set_rel_masks(self):
        """Per kind, the relevance of its columns (order of ``_kinds``), and
        the relevant columns' cells that ``candidate_values`` reads: per
        moment kind (positions, mask, values, hyperparameters), and for the
        categorical columns (positions, mask, flat index of each cell's level
        count, Dirichlet weight, level count)."""
        self.rel = tuple(self.model.omega[cols] == 1 for cols, _, _ in self._kinds)
        pos = [np.flatnonzero(r) for r in self.rel]
        self._rel_cells = tuple(
            (J, M[:, J], X1[:, J], X2[:, J], [v[J] for v in hyp])
            for J, (*_, M, X1, X2, _fn, hyp) in zip(pos, self._moments))
        p, J = self.tables.packed, pos[2]
        flat = J * p.m_max + p.codes[:, J]
        self._rel_cat = (J, p.Mq[:, J], flat, self.tables.hyper.cat_a[J],
                         self.tables.mq[J])

    def _value(self) -> float:
        total = log_dirichlet_proportion_term(self.nk, self.tables.hyper.u)
        for (_, phi, glob), rel in zip(self._kinds, self.rel):
            total += float(np.where(rel, phi.sum(0), glob).sum())
        return total

    def recomputed_value(self) -> float:
        """From-scratch value of the current (model, z); for consistency checks."""
        return MiclState(self.tables, self.model, self.zi).log_icl

    # -- single-observation moves -------------------------------------------

    def candidate_values(self, rows) -> np.ndarray:
        """Objective value after reassigning each of ``rows`` alone to each
        component, all scored against the current state: shape (B, g), or
        (g,) for a scalar row (entry of the row's own component = current
        value).

        One pass over the block: per kind, the (B, g, J) "up" factors (the
        row joins class k) and the (B, J) "down" factors (it leaves its own
        class) over the J relevant columns; a missing cell adds exactly 0."""
        h = self.tables.hyper
        R = np.atleast_1d(rows)
        idx = np.arange(len(R))
        a = self.zi[R]
        vals = np.log(self.nk + h.u) - np.log(self.nk[a] - 1.0 + h.u)[:, None]
        rem = np.zeros(len(R))
        for (cn, s1, s2, phi, *_, fn, _), (J, M, X1, X2, hj) in zip(self._moments,
                                                                    self._rel_cells):
            if J.size:
                m, x, x2 = M.take(R, axis=0), X1.take(R, axis=0), X2.take(R, axis=0)
                obs = m > 0
                cJ, t1, t2 = cn.take(J, axis=1), s1.take(J, axis=1), s2.take(J, axis=1)
                base = phi.take(J, axis=1)
                up = fn(cJ + 1.0, t1 + x[:, None, :], t2 + x2[:, None, :], *hj)
                vals += np.where(obs[:, None, :], up - base, 0.0).sum(axis=2)
                down = fn(cJ[a] - m, t1[a] - x, t2[a] - x2, *hj)
                rem += np.where(obs, down - base[a], 0.0).sum(axis=1)
        J, M, flat, aq, mq = self._rel_cat
        if J.size:
            m = M.take(R, axis=0)
            obs = m > 0
            # (B, g, J): per class, the count of each cell's level
            cnt = self.ccnt.reshape(self.model.g, -1)[:, flat.take(R, axis=0)]
            cnt = cnt.transpose(1, 0, 2)
            N = self.catn.take(J, axis=1)
            up = (gammaln(cnt + 1.0 + aq) - gammaln(cnt + aq)
                  - gammaln(N + 1.0 + mq * aq) + gammaln(N + mq * aq))
            vals += np.where(obs[:, None, :], up, 0.0).sum(axis=2)
            ca, Na = cnt[idx, a], N[a]
            down = (gammaln(ca - m + aq) - gammaln(ca + aq)
                    - gammaln(Na - m + mq * aq) + gammaln(Na + mq * aq))
            rem += np.where(obs, down, 0.0).sum(axis=1)
        vals = self.log_icl + vals + rem[:, None]
        vals[idx, a] = self.log_icl
        return vals if np.ndim(rows) else vals[0]

    def apply_move(self, i: int, k: int, new_value: float | None = None) -> None:
        """Reassign observation i to component k (0-based) and update the
        statistics, the per-column factors and the cached objective."""
        a = self.zi[i]
        if k == a:
            return
        if new_value is None:
            new_value = float(self.candidate_values(i)[k])
        p, h = self.tables.packed, self.tables.hyper
        for cn, s1, s2, phi, M, X1, X2, fn, hyp in self._moments:
            o = np.flatnonzero(M[i])
            if o.size:
                x, x2 = X1[i][o], X2[i][o]
                for cls, sgn in ((a, -1.0), (k, 1.0)):
                    cn[cls][o] += sgn
                    s1[cls][o] += sgn * x
                    s2[cls][o] += sgn * x2
                hj = [v[o] for v in hyp]
                for cls in (a, k):
                    phi[cls][o] = fn(cn[cls][o], s1[cls][o], s2[cls][o], *hj)
        oq = np.flatnonzero(p.Mq[i])
        if oq.size:
            code = p.codes[i, oq]
            self.ccnt[a, oq, code] -= 1.0
            self.ccnt[k, oq, code] += 1.0
            self.catn[a, oq] -= 1.0
            self.catn[k, oq] += 1.0
            aq, mq = h.cat_a[oq], self.tables.mq[oq]
            lm = p.level_mask[oq]
            for cls in (a, k):
                self.phiq[cls, oq] = _phi_cat(self.ccnt[cls, oq, :], self.catn[cls, oq],
                                              aq, mq, lm)
        self.nk[a] -= 1.0
        self.nk[k] += 1.0
        self.zi[i] = k
        self.log_icl = new_value

    # -- block updates --------------------------------------------------------

    def model_update(self) -> bool:
        """Set every omega_j to the per-column argmax of the marginal
        (strict inequality keeps a column relevant; ties drop it). Returns
        True when omega changed."""
        omega = np.zeros(self.tables.packed.d, dtype=np.int8)
        for cols, phi, glob in self._kinds:
            omega[cols] = phi.sum(0) > glob
        changed = bool((omega != self.model.omega).any())
        self.model = Model(self.model.g, omega)
        self._set_rel_masks()
        self.log_icl = self._value()
        return changed


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def log_marginal_variable(dataset: Dataset, j: int, z, g: int, omega_j: int,
                          hyper: Hyperparameters) -> float:
    """Exact log marginal of column j given hard labels ``z`` (1-based):
    per-component factors when the column is relevant, one global factor when
    it is not. Only observed cells enter the statistics."""
    model = Model(g, np.full(dataset.d, omega_j, dtype=np.int8))
    state = MiclState.from_partition(MarginalTables(dataset, hyper), model, z)
    for cols, phi, glob in state._kinds:
        pos = np.flatnonzero(cols == j)
        if pos.size:
            return float(phi[:, pos[0]].sum() if omega_j else glob[pos[0]])
    raise IndexError(f"column {j} out of range")


def log_integrated_complete(dataset: Dataset, z, model: Model,
                            hyper: Hyperparameters) -> float:
    """Closed-form log of the integrated complete-data likelihood: the value
    of the optimizer's state at (model, z)."""
    return MiclState.from_partition(MarginalTables(dataset, hyper), model, z).log_icl


def model_step(dataset: Dataset, z, g: int, hyper: Hyperparameters) -> np.ndarray:
    """Per-column relevance argmax at a fixed partition."""
    tables = MarginalTables(dataset, hyper)
    state = MiclState.from_partition(tables, Model(g, np.ones(dataset.d, dtype=np.int8)), z)
    state.model_update()
    return state.model.omega


def partition_step(dataset: Dataset, state: MiclState, *,
                   rng: np.random.Generator) -> MiclState:
    """Greedy single-observation reassignments (random order per sweep) until
    a full sweep makes no move or ``SWEEP_CAP`` sweeps are done. Never
    decreases the objective.

    The next ``BLOCK_ROWS`` rows of the sweep's order are scored as one block
    against the current state; the first row with an improving move takes
    it, and the sweep resumes right after that row. The rows before it were
    scored against the same state the sequential sweep would have seen, so
    the visits and moves are those of a row-by-row sweep."""
    if state.tables.dataset is not dataset:
        raise ValueError("state was built for a different dataset")
    n = state.tables.packed.n
    for _ in range(SWEEP_CAP):
        moved = False
        order = rng.permutation(n)
        pos = 0
        while pos < n:
            rows = order[pos:pos + BLOCK_ROWS]
            vals = state.candidate_values(rows)
            best = vals.argmax(axis=1)
            idx = np.arange(len(rows))
            hits = np.flatnonzero(vals[idx, best] > vals[idx, state.zi[rows]])
            if not hits.size:
                pos += len(rows)
                continue
            f = int(hits[0])
            state.apply_move(int(rows[f]), int(best[f]), float(vals[f, best[f]]))
            moved = True
            pos += f + 1
        if not moved:
            break
    state.log_icl = state._value()
    return state


@dataclass
class MiclConfig:
    """Seed and number of random starts of the MICL optimizer; its sweep,
    alternation and start-EM budgets are the module constants above."""

    seed: int
    n_starts: int = 20

    def __post_init__(self):
        if self.n_starts < 1:
            raise ValueError("invalid MICL configuration")


def run_micl(dataset: Dataset, g: int, hyper: Hyperparameters,
             config: MiclConfig):
    """Best-of-starts alternating maximization of the integrated complete-data
    likelihood over (omega, z) at fixed g.

    Each start draws omega ~ Bernoulli(1/2) per column, fits that model by a
    small-budget EM, takes the MAP partition, then alternates partition and
    model steps until neither improves the objective.

    Returns (Model, 1-based hard labels, objective value).
    """
    tables = MarginalTables(dataset, hyper)
    best: tuple | None = None
    for s in range(config.n_starts):
        rng = seeded_rng(config.seed, 91, s)
        omega0 = rng.integers(0, 2, size=dataset.d).astype(np.int8) if g > 1 else \
            np.zeros(dataset.d, dtype=np.int8)
        fit = run_em(dataset, Model(g, omega0),
                     replace(START_EM, seed=derive_seed(config.seed, 92, s)))
        z0 = np.argmax(fit.fuzzy, axis=1) + 1
        state = MiclState.from_partition(tables, Model(g, omega0), z0)
        prev = state.log_icl
        for _ in range(MAX_ALTERNATIONS):
            partition_step(dataset, state, rng=rng)
            state.model_update()
            if state.log_icl <= prev + 1e-9:
                break
            prev = state.log_icl
        if best is None or state.log_icl > best[2]:
            best = (state.model.copy(), state.z.copy(), state.log_icl)
    return best
