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

from collections import namedtuple
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


def _phi_cat(n, cnt, a, m, level_mask):
    """Log marginal of one multinomial cell group: n observed values with
    per-level counts ``cnt`` (last axis, padded)."""
    n = np.asarray(n, dtype=float)
    lev = np.where(level_mask, gammaln(cnt + a[..., None]), 0.0).sum(axis=-1)
    val = gammaln(m * a) - m * gammaln(a) + lev - gammaln(n + m * a)
    return np.where(n > 0, val, 0.0)


def _refit(factor, S, moved, base, *hyp):
    """A factor's change when one cell moves: the factor at the moved class
    sums minus the cached ``base``."""
    return factor(*moved, *hyp) - base


def _phi_cat_change(factor, S, moved, base, a, m, level_mask):
    """``_phi_cat``'s change when one cell moves, from the sums read at the
    cell's level (count, count of that level): only their two terms change."""
    (n, c), (n2, c2) = S, moved
    return gammaln(c2 + a) - gammaln(c + a) - gammaln(n2 + m * a) + gammaln(n + m * a)


def _at_rows(s, J, lev, R, a):
    """Columns J of a class sum as rows R read them, for every class and for
    each row's own class ``a``: (g, J) and (B, J), or for a level-count sum
    (g, ·, m), at each row's level ``lev`` (rows by J), (B, g, J)."""
    if s.ndim == 2:
        s = s.take(J, axis=1)
        return s, s[a]
    at = s.reshape(len(s), -1).take(lev.take(R, axis=0) + J * s.shape[2], axis=1)
    return at.transpose(1, 0, 2), at[a, np.arange(len(R))]


def log_dirichlet_proportion_term(nk, u: float) -> float:
    """Log of the Dirichlet–multinomial factor of the component counts."""
    nk = np.asarray(nk, dtype=float)
    g = len(nk)
    return float(gammaln(g * u) - g * gammaln(u)
                 + gammaln(nk + u).sum() - gammaln(nk.sum() + g * u))


# ---------------------------------------------------------------------------
# dataset-level constant tables
# ---------------------------------------------------------------------------

Kind = namedtuple("Kind", "cols keys factor hyp change level", defaults=[_refit, None])


class MarginalTables:
    """Per-dataset constants used by the optimizer. ``kinds`` holds one
    ``Kind`` per column kind: its dataset columns, the ``Packed.class_sums``
    keys its factor reads (observed count first), the factor, the per-column
    hyperparameters, the factor's change when one cell moves, and, for a kind
    whose last class sum has a level axis, each cell's level. ``glob`` holds,
    per kind, the global (one-group) marginal of every column, which is what
    an irrelevant column contributes for any partition. The continuous prior
    mean ``c`` is shifted with ``Packed``'s centered cells, which leaves every
    marginal unchanged."""

    def __init__(self, dataset: Dataset, hyper: Hyperparameters):
        self.dataset = dataset
        self.hyper = hyper
        p = dataset.packed()
        self.packed = p
        gr = p.groups
        kinds = (
            Kind(gr.cont, ("Mc", "Xc", "Xc2"), _phi_cont,
                 (hyper.cont_a, hyper.cont_b, hyper.cont_c - p.shift, hyper.cont_d)),
            Kind(gr.integer, ("Mi", "Xi", "lgam"), _phi_int, (hyper.int_a, hyper.int_b)),
            Kind(gr.cat, ("Mq", "onehot"), _phi_cat, (hyper.cat_a, p.m.astype(float), p.level_mask),
                 _phi_cat_change, p.codes))
        # a kind without columns would only add empty factor calls to each move
        self.kinds = tuple(kind for kind in kinds if kind.cols.size)
        # the global marginal is the per-class factor of the one-class partition
        self.glob = tuple(phi[0] for phi in self.factors(p.class_sums(np.ones((1, p.n)))))

    def factors(self, st: dict) -> tuple:
        """Per kind, the (g, ·) per-class factors of its columns from the
        class sums ``st`` (see ``Packed.class_sums``)."""
        return tuple(k.factor(*(st[key] for key in k.keys), *k.hyp) for k in self.kinds)


class MiclState:
    """Current (model, partition) with per-component sufficient statistics and
    cached per-column marginal factors, supporting O(1)-per-column single
    observation moves.

    Every column kind has one move rule: its factor is a closed-form function
    of its class sums, so a row that joins class k is scored at k's sums plus
    the row's entries and a row that leaves class a at a's sums minus them;
    a level count is read at the row's level only. ``candidate_values``
    scores a block of rows against the frozen state in one pass over the
    relevant columns, where a missing cell adds exactly 0; ``apply_move``
    then moves the one row's entries between two classes.
    """

    def __init__(self, tables: MarginalTables, model: Model, zi: np.ndarray):
        self.tables = tables
        self.model = model.copy()
        self.zi = np.asarray(zi, dtype=np.intp).copy()  # 0-based
        p = tables.packed
        Z = np.zeros((model.g, p.n))
        Z[self.zi, np.arange(p.n)] = 1.0
        self.st = p.class_sums(Z)
        self.phi = tables.factors(self.st)
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
        """Per kind, the relevance of its columns, and what ``candidate_values``
        reads of the relevant columns J: (J, each row's level in J or None,
        the row's entry of each class sum the kind reads, hyperparameters).
        A row's entry of a level-count sum is its one-hot at its own level.
        The (n, J) cells are copied out of ``Packed``'s (columns, n) rows."""
        p = self.tables.packed
        rows = np.arange(p.n)[:, None]
        self.rel = tuple(self.model.omega[k.cols] == 1 for k in self.tables.kinds)
        self._rel_cells = []
        for kind, J in zip(self.tables.kinds, map(np.flatnonzero, self.rel)):
            lev = None if kind.level is None else kind.level[J].T.copy()
            cells = [getattr(p, key) for key in kind.keys]
            cells = [c[J].T.copy() if c.ndim == 2 else c[J, lev, rows] for c in cells]
            self._rel_cells.append((J, lev, cells, [v[J] for v in kind.hyp]))

    def _value(self) -> float:
        total = log_dirichlet_proportion_term(self.st["nk"], self.tables.hyper.u)
        for rel, phi, glob in zip(self.rel, self.phi, self.tables.glob):
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
        nk, u = self.st["nk"], self.tables.hyper.u
        R = np.atleast_1d(rows)
        idx = np.arange(len(R))
        a = self.zi[R]
        vals = np.log(nk + u) - np.log(nk[a] - 1.0 + u)[:, None]
        rem = np.zeros(len(R))
        for kind, phi, (J, lev, cells, hj) in zip(self.tables.kinds, self.phi, self._rel_cells):
            if J.size:
                x = [c.take(R, axis=0) for c in cells]
                obs = x[0] > 0
                Sk, Sa = zip(*(_at_rows(self.st[key], J, lev, R, a) for key in kind.keys))
                base = phi.take(J, axis=1)
                # the count gains 1 whether or not the cell is observed: an
                # unobserved cell's term is dropped below
                moved = (Sk[0] + 1.0, *(s + xr[:, None] for s, xr in zip(Sk[1:], x[1:])))
                up = kind.change(kind.factor, Sk, moved, base, *hj)
                vals += np.where(obs[:, None, :], up, 0.0).sum(axis=2)
                moved = [s - xr for s, xr in zip(Sa, x)]
                down = kind.change(kind.factor, Sa, moved, base[a], *hj)
                rem += np.where(obs, down, 0.0).sum(axis=1)
        vals = self.log_icl + vals + rem[:, None]
        vals[idx, a] = self.log_icl
        return vals if np.ndim(rows) else vals[0]

    def apply_move(self, i: int, k: int, new_value: float | None = None) -> None:
        """Reassign observation i to component k (0-based) and update the
        class sums, the two classes' factors and the cached objective."""
        a = self.zi[i]
        if k == a:
            return
        if new_value is None:
            new_value = float(self.candidate_values(i)[k])
        p = self.tables.packed
        for key, S in self.st.items():
            x = 1.0 if key == "nk" else getattr(p, key)[..., i]
            S[a] -= x
            S[k] += x
        new = self.tables.factors({key: S[[a, k]] for key, S in self.st.items()})
        for phi, two in zip(self.phi, new):
            phi[[a, k]] = two
        self.zi[i] = k
        self.log_icl = new_value

    # -- block updates --------------------------------------------------------

    def model_update(self) -> bool:
        """Set every omega_j to the per-column argmax of the marginal
        (strict inequality keeps a column relevant; ties drop it). Returns
        True when omega changed."""
        omega = np.zeros(self.tables.packed.d, dtype=np.int8)
        for kind, phi, glob in zip(self.tables.kinds, self.phi, self.tables.glob):
            omega[kind.cols] = phi.sum(0) > glob
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
    for kind, phi, glob in zip(state.tables.kinds, state.phi, state.tables.glob):
        pos = np.flatnonzero(kind.cols == j)
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
