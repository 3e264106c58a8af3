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
    """Per-dataset constants used by the optimizer: the global (one-group)
    marginal of every column, which is what an irrelevant column contributes
    for any partition."""

    def __init__(self, dataset: Dataset, hyper: Hyperparameters):
        self.dataset = dataset
        self.hyper = hyper
        p = dataset.packed()
        self.packed = p
        h = hyper
        self.global_cont = _phi_cont(p.Mc.sum(0), p.Xc.sum(0), p.Xc2.sum(0),
                                     h.cont_a, h.cont_b, h.cont_c, h.cont_d)
        self.global_int = _phi_int(p.Mi.sum(0), p.Xi.sum(0), p.lgam.sum(0),
                                   h.int_a, h.int_b)
        self.mq = p.m.astype(float)
        self.global_cat = _phi_cat(p.onehot.sum(0), p.Mq.sum(0),
                                   h.cat_a, self.mq, p.level_mask)


class MiclState:
    """Current (model, partition) with per-component sufficient statistics and
    cached per-column marginal factors, supporting O(1)-per-column single
    observation moves."""

    def __init__(self, tables: MarginalTables, model: Model, zi: np.ndarray):
        self.tables = tables
        self.model = model.copy()
        self.zi = np.asarray(zi, dtype=np.intp).copy()  # 0-based
        p, h = tables.packed, tables.hyper
        g = model.g
        Z = np.zeros((p.n, g))
        Z[np.arange(p.n), self.zi] = 1.0
        self.nk = Z.sum(axis=0)
        ZT = Z.T
        self.cn, self.cS1, self.cS2 = ZT @ p.Mc, ZT @ p.Xc, ZT @ p.Xc2
        self.inn, self.iS, self.iG = ZT @ p.Mi, ZT @ p.Xi, ZT @ p.lgam
        self.catn = ZT @ p.Mq
        self.ccnt = np.einsum("nk,njh->kjh", Z, p.onehot) if p.groups.n_cat else \
            np.zeros((g, 0, 0))
        self.phic = _phi_cont(self.cn, self.cS1, self.cS2,
                              h.cont_a, h.cont_b, h.cont_c, h.cont_d)
        self.phii = _phi_int(self.inn, self.iS, self.iG, h.int_a, h.int_b)
        self.phiq = _phi_cat(self.ccnt, self.catn, h.cat_a, tables.mq, p.level_mask)
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
        gr = self.tables.packed.groups
        om = self.model.omega
        self.relc = om[gr.cont] == 1
        self.reli = om[gr.integer] == 1
        self.relq = om[gr.cat] == 1

    def _value(self) -> float:
        t = self.tables
        total = log_dirichlet_proportion_term(self.nk, t.hyper.u)
        if self.phic.shape[1]:
            total += float(np.where(self.relc, self.phic.sum(0), t.global_cont).sum())
        if self.phii.shape[1]:
            total += float(np.where(self.reli, self.phii.sum(0), t.global_int).sum())
        if self.phiq.shape[1]:
            total += float(np.where(self.relq, self.phiq.sum(0), t.global_cat).sum())
        return total

    def recomputed_value(self) -> float:
        """From-scratch value of the current (model, z); for consistency checks."""
        return MiclState(self.tables, self.model, self.zi).log_icl

    # -- single-observation moves -------------------------------------------

    def candidate_values(self, i: int) -> np.ndarray:
        """Objective value after reassigning observation i to each component
        (entry of the current component = current value)."""
        p, h = self.tables.packed, self.tables.hyper
        a = self.zi[i]
        vals = np.log(self.nk + h.u) - np.log(self.nk[a] - 1.0 + h.u)
        rem = 0.0
        oc, oi, oq = p.row_obs(i)
        Jc = oc[self.relc[oc]] if oc.size else oc
        if Jc.size:
            x, x2 = p.Xc[i, Jc], p.Xc2[i, Jc]
            ha, hb, hc, hd = h.cont_a[Jc], h.cont_b[Jc], h.cont_c[Jc], h.cont_d[Jc]
            base = self.phic[:, Jc]
            up = _phi_cont(self.cn[:, Jc] + 1.0, self.cS1[:, Jc] + x,
                           self.cS2[:, Jc] + x2, ha, hb, hc, hd)
            vals += (up - base).sum(axis=1)
            down = _phi_cont(self.cn[a, Jc] - 1.0, self.cS1[a, Jc] - x,
                             self.cS2[a, Jc] - x2, ha, hb, hc, hd)
            rem += float((down - base[a]).sum())
        Ji = oi[self.reli[oi]] if oi.size else oi
        if Ji.size:
            x, lg = p.Xi[i, Ji], p.lgam[i, Ji]
            ha, hb = h.int_a[Ji], h.int_b[Ji]
            base = self.phii[:, Ji]
            up = _phi_int(self.inn[:, Ji] + 1.0, self.iS[:, Ji] + x,
                          self.iG[:, Ji] + lg, ha, hb)
            vals += (up - base).sum(axis=1)
            down = _phi_int(self.inn[a, Ji] - 1.0, self.iS[a, Ji] - x,
                            self.iG[a, Ji] - lg, ha, hb)
            rem += float((down - base[a]).sum())
        Jq = oq[self.relq[oq]] if oq.size else oq
        if Jq.size:
            code = p.codes[i, Jq]
            aq, mq = h.cat_a[Jq], self.tables.mq[Jq]
            cnt = self.ccnt[:, Jq, code]
            N = self.catn[:, Jq]
            vals += (gammaln(cnt + 1.0 + aq) - gammaln(cnt + aq)
                     - gammaln(N + 1.0 + mq * aq) + gammaln(N + mq * aq)).sum(axis=1)
            rem += float((gammaln(cnt[a] - 1.0 + aq) - gammaln(cnt[a] + aq)
                          - gammaln(N[a] - 1.0 + mq * aq) + gammaln(N[a] + mq * aq)).sum())
        vals = self.log_icl + vals + rem
        vals[a] = self.log_icl
        return vals

    def apply_move(self, i: int, k: int, new_value: float | None = None) -> None:
        """Reassign observation i to component k (0-based) and update the
        statistics, the per-column factors and the cached objective."""
        a = self.zi[i]
        if k == a:
            return
        if new_value is None:
            new_value = float(self.candidate_values(i)[k])
        p, h = self.tables.packed, self.tables.hyper
        oc, oi, oq = p.row_obs(i)
        if oc.size:
            x, x2 = p.Xc[i, oc], p.Xc2[i, oc]
            for cls, sgn in ((a, -1.0), (k, 1.0)):
                self.cn[cls, oc] += sgn
                self.cS1[cls, oc] += sgn * x
                self.cS2[cls, oc] += sgn * x2
            ha, hb, hc, hd = h.cont_a[oc], h.cont_b[oc], h.cont_c[oc], h.cont_d[oc]
            for cls in (a, k):
                self.phic[cls, oc] = _phi_cont(self.cn[cls, oc], self.cS1[cls, oc],
                                               self.cS2[cls, oc], ha, hb, hc, hd)
        if oi.size:
            x, lg = p.Xi[i, oi], p.lgam[i, oi]
            for cls, sgn in ((a, -1.0), (k, 1.0)):
                self.inn[cls, oi] += sgn
                self.iS[cls, oi] += sgn * x
                self.iG[cls, oi] += sgn * lg
            ha, hb = h.int_a[oi], h.int_b[oi]
            for cls in (a, k):
                self.phii[cls, oi] = _phi_int(self.inn[cls, oi], self.iS[cls, oi],
                                              self.iG[cls, oi], ha, hb)
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
        gr = self.tables.packed.groups
        omega = np.zeros(self.tables.packed.d, dtype=np.int8)
        if self.model.g > 1:
            if gr.n_cont:
                omega[gr.cont] = (self.phic.sum(0) > self.tables.global_cont).astype(np.int8)
            if gr.n_int:
                omega[gr.integer] = (self.phii.sum(0) > self.tables.global_int).astype(np.int8)
            if gr.n_cat:
                omega[gr.cat] = (self.phiq.sum(0) > self.tables.global_cat).astype(np.int8)
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
    p = dataset.packed()
    gr = dataset.groups
    h = hyper
    zi = np.asarray(z, dtype=np.intp) - 1
    Z = np.zeros((p.n, g))
    Z[np.arange(p.n), zi] = 1.0
    pos = np.searchsorted(gr.cont, j)
    if pos < gr.n_cont and gr.cont[pos] == j:
        args = (h.cont_a[pos], h.cont_b[pos], h.cont_c[pos], h.cont_d[pos])
        if omega_j:
            return float(_phi_cont(Z.T @ p.Mc[:, pos], Z.T @ p.Xc[:, pos],
                                   Z.T @ p.Xc2[:, pos], *args).sum())
        return float(_phi_cont(p.Mc[:, pos].sum(), p.Xc[:, pos].sum(),
                               p.Xc2[:, pos].sum(), *args))
    pos = np.searchsorted(gr.integer, j)
    if pos < gr.n_int and gr.integer[pos] == j:
        args = (h.int_a[pos], h.int_b[pos])
        if omega_j:
            return float(_phi_int(Z.T @ p.Mi[:, pos], Z.T @ p.Xi[:, pos],
                                  Z.T @ p.lgam[:, pos], *args).sum())
        return float(_phi_int(p.Mi[:, pos].sum(), p.Xi[:, pos].sum(),
                              p.lgam[:, pos].sum(), *args))
    pos = np.searchsorted(gr.cat, j)
    if pos < gr.n_cat and gr.cat[pos] == j:
        lm = p.level_mask[pos]
        mq = float(p.m[pos])
        if omega_j:
            return float(_phi_cat(np.einsum("nk,nh->kh", Z, p.onehot[:, pos, :]),
                                  Z.T @ p.Mq[:, pos], h.cat_a[pos], mq, lm).sum())
        return float(_phi_cat(p.onehot[:, pos, :].sum(0), p.Mq[:, pos].sum(),
                              h.cat_a[pos], mq, lm))
    raise IndexError(f"column {j} out of range")


def log_integrated_complete(dataset: Dataset, z, model: Model,
                            hyper: Hyperparameters) -> float:
    """Closed-form log of the integrated complete-data likelihood."""
    zi = np.asarray(z, dtype=np.intp)
    nk = np.bincount(zi - 1, minlength=model.g).astype(float)
    total = log_dirichlet_proportion_term(nk, hyper.u)
    for j in range(dataset.d):
        total += log_marginal_variable(dataset, j, z, model.g, int(model.omega[j]), hyper)
    return total


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
    decreases the objective."""
    if state.tables.dataset is not dataset:
        raise ValueError("state was built for a different dataset")
    n = state.tables.packed.n
    for _ in range(SWEEP_CAP):
        moved = False
        for i in rng.permutation(n):
            vals = state.candidate_values(int(i))
            k = int(np.argmax(vals))
            if vals[k] > vals[state.zi[i]]:
                state.apply_move(int(i), k, float(vals[k]))
                moved = True
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
