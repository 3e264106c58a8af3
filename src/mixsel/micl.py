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
its per-class sums are the product that ``Packed.class_sums`` forms for the
EM's M step, split by ``Packed.split``, and ``log_integrated_complete`` and
``log_marginal_variable`` read their values from a state built at the given
1-based partition.

Under a hard partition every ln Gamma in a factor is taken at a hyperparameter
plus an integer count, so ``MarginalTables`` tabulates them per column once
(``math.lgamma``, counts 0..n + 1; a Poisson sum past ``LGAMMA_ROWS`` takes
the Stirling series) and the factors read the tables. A row joining a class
is scored in closed form on continuous columns (a rank-one update of the
posterior scale) and categorical ones (ln(c + a) - ln(n + m·a)).

The partition step is a greedy sweep of single-row moves in a random order.
It scores the next rows of the order as one block against the current state
(``MiclState.candidate_values`` on many rows is one numpy pass) and takes the
first improving move; the rows before it saw the state a row-by-row sweep
would have seen, so the blocked sweep makes the same moves. A move is one
column update: the row's column of ``Packed.cells`` changes rows of the sums.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, Hyperparameters, Model
from .em import EmConfig, run_em
from .util import derive_seed, seeded_rng

LOG_PI = math.log(math.pi)
HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
LGAMMA_ROWS = 1024       # ln Gamma(a + v) of a Poisson sum v is tabulated for v < 2^10
SWEEP_CAP = 50           # greedy sweeps per partition step
BLOCK_ROWS = 256         # rows scored per candidate_values pass of a sweep
MAX_ALTERNATIONS = 100   # partition/model alternations per start
# the small EM whose MAP partition seeds a start (its seed is set per start)
START_EM = EmConfig(seed=0, n_starts=1, max_iterations=200, rel_tolerance=1e-4)


# ---------------------------------------------------------------------------
# closed-form per-class factors (vectorized over stat arrays)
# ---------------------------------------------------------------------------

def _lgamma_table(x, length, step=1.0):
    """Rows ln Gamma(x_j + step * c), c < length, one per distinct x_j."""
    uniq, inv = np.unique(x, return_inverse=True)
    rows = [[math.lgamma(u + step * c) for c in range(length)] for u in uniq.tolist()]
    return np.array(rows).reshape(len(uniq), length)[inv.ravel()]


def _at(table, v):
    """``table[j, v[..., j]]`` for the integer-valued ``v``, columns last."""
    J, L = table.shape
    return table.ravel().take(v.astype(np.intp) + np.arange(0, J * L, L))


def _lgamma_at(table, a, v):
    """ln Gamma(a_j + v) for integer-valued v >= 0: ``table`` (rows ln Gamma(a_j
    + c)) below its length, the Stirling series (next term < 1e-24) above."""
    out = _at(table, np.minimum(v, table.shape[1] - 1))
    big = v >= table.shape[1]
    if big.any():
        x = (a + v)[big]
        out[big] = ((x - 0.5) * np.log(x) - x + HALF_LOG_2PI
                    + (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * x * x)) / (x * x)) / x)
    return out


def _posterior_scale(n, s1, s2, b2, c, d):
    """B2 of the posterior sigma² ~ IG((a + n)/2, B2/2); b² when n = 0."""
    nsafe = np.where(n > 0, n, 1.0)
    xbar = s1 / nsafe
    ss = np.maximum(s2 - s1 * xbar, 0.0)
    return np.where(n > 0, b2 + ss + (c - xbar) ** 2 / (1.0 / d + 1.0 / nsafe), b2)


def _phi_cont(n, s1, s2, a, b2, c, d, G):
    """Log marginal of one Gaussian cell group with n observed values,
    sum s1 and sum of squares s2 (0 when n = 0)."""
    val = _at(G, n) - 0.5 * (a + n) * np.log(_posterior_scale(n, s1, s2, b2, c, d))
    return np.where(n > 0, val, 0.0)


def _phi_int(n, s, glg, a, b, const, LG):
    """Log marginal of one Poisson cell group: n observed values with sum s
    and sum of ln Gamma(x+1) equal to glg."""
    val = const - glg + _lgamma_at(LG, a, s) - (a + s) * np.log(b + n)
    return np.where(n > 0, val, 0.0)


def _phi_cat(n, cnt, a, ma, La, Lma):
    """Log marginal of one multinomial cell group: n observed values with
    per-level counts ``cnt`` (last axis; a padded level counts 0 and adds 0)."""
    lev = (_at(La, np.moveaxis(cnt, -1, 0)) - La[:, 0]).sum(axis=0)
    return np.where(n > 0, lev + Lma[:, 0] - _at(Lma, n), 0.0)


def _refit(factor, S, dx, base, *consts):
    """A factor's change when its class sums ``S`` (factors ``base``) move by
    ``dx``, a row's entries joining (+) or leaving (-) the class."""
    return factor(*(s + dxs for s, dxs in zip(S, dx)), *consts) - base


def _cont_up(factor, S, dx, base, a, b2, c, d, G):
    """``_refit`` of ``_phi_cont`` for a joining value x: it updates the
    posterior scale by rank one, B2 + D/(D+1)·(x - m)² with D = d + n and
    m = (d·c + s1)/D. The count gains 1 even on a missing cell."""
    n, s1, s2 = S
    D = d + n
    B2 = _posterior_scale(n, s1, s2, b2, c, d) + D / (D + 1.0) * (dx[1] - (d * c + s1) / D) ** 2
    return (_at(G, n + 1.0) - base) - 0.5 * (a + n + 1.0) * np.log(B2)


def _cat_up(factor, S, dx, base, a, ma, *tables):
    """``_refit`` of ``_phi_cat`` for a joining row, from the count n and the
    count c of the row's level."""
    return np.log(S[1] + a) - np.log(S[0] + ma)


def _cat_down(factor, S, dx, base, a, ma, *tables):
    """``_refit`` of ``_phi_cat`` for a leaving row: ``_cat_up`` at the sums
    without it, negated."""
    return np.log(S[0] + dx[0] + ma) - np.log(S[1] + dx[1] + a)


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
    nk = np.asarray(nk, dtype=float).tolist()
    g = len(nk)
    return (math.lgamma(g * u) - g * math.lgamma(u)
            + sum(math.lgamma(v + u) for v in nk) - math.lgamma(sum(nk) + g * u))


# ---------------------------------------------------------------------------
# dataset-level constant tables
# ---------------------------------------------------------------------------

Kind = namedtuple("Kind", "cols keys factor consts up down level",
                  defaults=[_refit, _refit, None])


class MarginalTables:
    """Per-dataset constants used by the optimizer. ``kinds`` holds one
    ``Kind`` per column kind: its dataset columns, the ``Packed.class_sums``
    keys its factor reads (observed count first), the factor, its per-column
    constants (one table row per column), the factor's changes when a row
    joins a class and leaves its own, and, for a kind whose last class sum
    has a level axis, each cell's level. ``glob`` holds, per kind, the global
    (one-group) marginal of every column, which is what an irrelevant column
    contributes for any partition. The continuous prior mean ``c`` is shifted
    with ``Packed``'s centered cells, which leaves every marginal unchanged."""

    def __init__(self, dataset: Dataset, hyper: Hyperparameters):
        self.hyper = hyper
        p = dataset.packed()
        self.packed = p
        gr = p.groups
        count = np.arange(p.n + 2.0)  # a class count, the moving row included
        a, b, d = hyper.cont_a, hyper.cont_b, hyper.cont_d
        lg = _lgamma_table(0.5 * a, p.n + 2, 0.5)
        G = (a * np.log(b) + 0.5 * np.log(d) - lg[:, 0])[:, None] + (
            lg - 0.5 * (LOG_PI * count + np.log(d[:, None] + count)))
        cont = (a, b * b, hyper.cont_c - p.shift, d, G)
        a, b = hyper.int_a, hyper.int_b
        lg = _lgamma_table(a, LGAMMA_ROWS)
        integer = (a, b, a * np.log(b) - lg[:, 0], lg)
        a, ma = hyper.cat_a, p.m * hyper.cat_a
        cat = (a, ma, _lgamma_table(a, p.n + 2), _lgamma_table(ma, p.n + 2))
        kinds = (Kind(gr.cont, ("Mc", "Xc", "Xc2"), _phi_cont, cont, _cont_up),
                 Kind(gr.integer, ("Mi", "Xi", "lgam"), _phi_int, integer),
                 Kind(gr.cat, ("Mq", "onehot"), _phi_cat, cat, _cat_up, _cat_down, p.codes))
        # a kind without columns would only add empty factor calls to each move
        self.kinds = tuple(kind for kind in kinds if kind.cols.size)
        # the global marginal is the per-class factor of the one-class partition
        self.glob = tuple(phi[0] for phi in self.factors(p.class_sums(np.ones((1, p.n)))))

    def factors(self, st: dict) -> tuple:
        """Per kind, the (g, ·) per-class factors of its columns from the
        class sums ``st`` (see ``Packed.class_sums``)."""
        return tuple(k.factor(*(st[key] for key in k.keys), *k.consts) for k in self.kinds)


class MiclState:
    """Current (model, partition) with per-component sufficient statistics and
    cached per-column marginal factors, supporting O(1)-per-column single
    observation moves.

    Built from n labels ``z`` in 1..g and an omega of d entries (else
    ``ValueError``). ``st`` holds the class sizes ``nk`` and the views
    (``Packed.split``) of the (g, D) class-sum block ``S``.

    Each column kind scores a row joining class k (``up``) from k's sums and
    the row's entries, and a row leaving its class a (``down``) from a's sums
    minus them: by refitting the factor or by a closed-form change; a level
    count is read at the row's level only. ``candidate_values`` scores a
    block of rows against the frozen state in one pass over the relevant
    columns, where a missing cell adds exactly 0; ``apply_move`` then moves
    the one row's column of ``Packed.cells`` between two rows of ``S``.
    """

    def __init__(self, tables: MarginalTables, model: Model, z):
        p = tables.packed
        z = np.asarray(z)
        if z.shape != (p.n,) or not np.isin(z, np.arange(1, model.g + 1)).all() \
                or model.omega.shape != (p.d,):
            raise ValueError(f"need {p.n} labels in 1..{model.g} and {p.d} omega entries")
        self.tables = tables
        self.model = model.copy()
        self.zi = z.astype(np.intp) - 1  # 0-based, as the rows of S
        Z = np.zeros((model.g, p.n))
        Z[self.zi, np.arange(p.n)] = 1.0
        self.S = Z @ p.cells.T
        self.st = {**p.split(self.S), "nk": Z.sum(axis=1)}
        self.phi = tables.factors(self.st)
        self._set_rel_masks()
        self.log_icl = self._value()

    @property
    def z(self) -> np.ndarray:
        """Hard labels, 1-based."""
        return self.zi + 1

    def _set_rel_masks(self):
        """Per kind, the relevance of its columns, and what ``candidate_values``
        reads of the relevant columns J: (J, each row's level in J or None,
        the row's entry of each class sum the kind reads, constants).
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
            self._rel_cells.append((J, lev, cells, [v[J] for v in kind.consts]))

    def _value(self) -> float:
        total = log_dirichlet_proportion_term(self.st["nk"], self.tables.hyper.u)
        for rel, phi, glob in zip(self.rel, self.phi, self.tables.glob):
            total += float(np.where(rel, phi.sum(0), glob).sum())
        return total

    # -- single-observation moves -------------------------------------------

    def candidate_values(self, rows: np.ndarray) -> np.ndarray:
        """Objective value after reassigning each of ``rows`` (a 1-d block of
        row indices) alone to each component, all scored against the current
        state: shape (B, g), the entry of a row's own component being the
        current value.

        One pass over the block: per kind, the (B, g, J) "up" factors (the
        row joins class k) and the (B, J) "down" factors (it leaves its own
        class) over the J relevant columns; a missing cell adds exactly 0."""
        nk, u = self.st["nk"], self.tables.hyper.u
        idx = np.arange(len(rows))
        a = self.zi[rows]
        vals = np.log(nk + u) - np.log(nk[a] - 1.0 + u)[:, None]
        rem = np.zeros(len(rows))
        for kind, phi, (J, lev, cells, cj) in zip(self.tables.kinds, self.phi, self._rel_cells):
            if J.size:
                x = [c.take(rows, axis=0) for c in cells]
                obs = x[0] > 0
                Sk, Sa = zip(*(_at_rows(self.st[key], J, lev, rows, a) for key in kind.keys))
                base = phi.take(J, axis=1)
                up = kind.up(kind.factor, Sk, [xr[:, None] for xr in x], base, *cj)
                vals += np.where(obs[:, None, :], up, 0.0).sum(axis=2)
                down = kind.down(kind.factor, Sa, [-xr for xr in x], base[a], *cj)
                rem += np.where(obs, down, 0.0).sum(axis=1)
        vals = self.log_icl + vals + rem[:, None]
        vals[idx, a] = self.log_icl
        return vals

    def apply_move(self, i: int, k: int, new_value: float) -> None:
        """Reassign observation i to component k (0-based): move its column of
        ``Packed.cells`` between two rows of ``S``, refit the two classes'
        factors and take ``new_value`` (from ``candidate_values``) as the value."""
        a = self.zi[i]
        if k == a:
            return
        p = self.tables.packed
        self.S[a] -= p.cells[:, i]
        self.S[k] += p.cells[:, i]
        self.st["nk"][[a, k]] += (-1.0, 1.0)
        new = self.tables.factors(p.split(self.S[[a, k]]))
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
    state = MiclState(MarginalTables(dataset, hyper), model, z)
    for kind, phi, glob in zip(state.tables.kinds, state.phi, state.tables.glob):
        pos = np.flatnonzero(kind.cols == j)
        if pos.size:
            return float(phi[:, pos[0]].sum() if omega_j else glob[pos[0]])
    raise IndexError(f"column {j} out of range")


def log_integrated_complete(dataset: Dataset, z, model: Model, hyper: Hyperparameters,
                            tables: MarginalTables | None = None) -> float:
    """Closed-form log of the integrated complete-data likelihood: the value
    of the optimizer's state at (model, z). ``tables`` is
    ``MarginalTables(dataset, hyper)``, built once by a caller scoring many z."""
    tables = MarginalTables(dataset, hyper) if tables is None else tables
    return MiclState(tables, model, z).log_icl


def partition_step(state: MiclState, *, rng: np.random.Generator) -> MiclState:
    """Greedy single-observation reassignments (random order per sweep) until
    a full sweep makes no move or ``SWEEP_CAP`` sweeps are done. Never
    decreases the objective.

    The next ``BLOCK_ROWS`` rows of the sweep's order are scored as one block
    against the current state; the first row with an improving move takes
    it, and the sweep resumes right after that row. The rows before it were
    scored against the same state the sequential sweep would have seen, so
    the visits and moves are those of a row-by-row sweep."""
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
             config: MiclConfig, tables: MarginalTables | None = None):
    """Best-of-starts alternating maximization of the integrated complete-data
    likelihood over (omega, z) at fixed g.

    Each start draws omega ~ Bernoulli(1/2) per column, fits that model by a
    small-budget EM, takes the MAP partition, then alternates partition and
    model steps until neither improves the objective. ``tables`` defaults to
    ``MarginalTables(dataset, hyper)``, built once by a caller sweeping g.

    Returns (Model, 1-based hard labels, objective value).
    """
    tables = MarginalTables(dataset, hyper) if tables is None else tables
    best: tuple | None = None
    for s in range(config.n_starts):
        rng = seeded_rng(config.seed, 91, s)
        omega0 = rng.integers(0, 2, size=dataset.d).astype(np.int8)
        fit = run_em(dataset, Model(g, omega0),
                     replace(START_EM, seed=derive_seed(config.seed, 92, s)))
        z0 = np.argmax(fit.fuzzy, axis=1) + 1
        state = MiclState(tables, Model(g, omega0), z0)
        prev = state.log_icl
        for _ in range(MAX_ALTERNATIONS):
            partition_step(state, rng=rng)
            state.model_update()
            if state.log_icl <= prev + 1e-9:
                break
            prev = state.log_icl
        if best is None or state.log_icl > best[2]:
            best = (state.model.copy(), state.z.copy(), state.log_icl)
    model, z, _ = best
    # the value of a state built at the result, free of the rounding of the moves
    return model, z, MiclState(tables, model, z).log_icl
