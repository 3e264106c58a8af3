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
is scored in closed form on every column kind (a rank-one update of the
continuous posterior scale, the Poisson factor's per-class terms taken once,
ln(c + a) - ln(n + m·a) at a categorical level), and so is a row leaving its
class (a rank-one downdate of the continuous scale, the Poisson factor at
the class sums without the row, the level ratio negated).

The partition step is a greedy sweep of single-row moves in a random order.
It scores the next rows of the order as one block against the current state
(``MiclState.candidate_values`` on many rows is one numpy pass) and takes the
first improving move; the rows before it saw the state a row-by-row sweep
would have seen, so the blocked sweep makes the same moves. A move is one
column update: the row's column of ``Packed.cells`` changes rows of the sums,
and the per-column changes its scoring pass kept are added to the factors of
the relevant columns. So a move keeps the relevant columns' factors exact,
and the model step, the only reader of the irrelevant columns' factors,
refits every factor from the class sums. A start alternates the two steps
until it reaches a fixed point of both: a partition step whose last sweep
made no move, then a model step that keeps omega. At g = 1 the answer is
fixed (every label 1, no relevant column), so ``run_micl`` returns it directly.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import replace

import numpy as np

from .data import Dataset, Hyperparameters, Model, map_partition
from .em import EmConfig, run_starts
from .util import derive_seed, seeded_rng

LOG_PI = math.log(math.pi)
HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
LGAMMA_ROWS = 1024       # ln Gamma(a + v) of a Poisson sum v is tabulated for v < 2^10
SWEEP_CAP = 50           # greedy sweeps per partition step
BLOCK_ROWS = 256         # rows scored per candidate_values pass of a sweep
MAX_ALTERNATIONS = 100   # partition/model alternations per start
# the budget of the small EM whose MAP partition seeds a start (each start's
# fit names its seed)
START_EM = {"n_starts": 1, "max_iterations": 200, "rel_tolerance": 1e-4}


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


def _cont_moves(S, a, x, base, a0, b2, c, d, G):
    """``_phi_cont``'s changes when a row with entries ``x`` (keys, B, J)
    joins each class, (B, g, J), and leaves its own class ``a``, (B, J),
    from the class sums ``S`` (keys, g, J) and the current factors ``base``
    (g, J). They are rank-one changes of the posterior scale, with D = d + n
    and m = (d·c + s1)/D of the class: a joining value x gives
    B2 + D/(D+1)·(x - m)², and a leaving one B2 - D/(D-1)·(x - m)².
    The downdate is at least b² exactly, and is taken so, as rounding may
    cancel it to 0 or below when x holds nearly all of the class's scatter.
    A class left without an observed cell has factor 0. On a missing cell
    the join still counts the row, and the leave keeps B2 and the count."""
    n, s1, s2 = S
    B2, D = _posterior_scale(n, s1, s2, b2, c, d), d + n
    m = (d * c + s1) / D
    up = x[1][:, None] - m  # (B, g, J), updated in place
    np.square(up, out=up)
    up *= D / (D + 1.0)
    up += B2
    np.log(up, out=up)
    up *= 0.5 * (a0 + n + 1.0)
    np.subtract(_at(G, n + 1.0) - base, up, out=up)
    obs, n, D = x[0], n.take(a, axis=0), D.take(a, axis=0)
    B2 = B2.take(a, axis=0) - obs * D / (D - obs) * (x[1] - m.take(a, axis=0)) ** 2
    n = n - obs
    down = np.where(n > 0, _at(G, n) - 0.5 * (a0 + n) * np.log(np.maximum(B2, b2)), 0.0)
    return up, down - base.take(a, axis=0)


def _int_moves(S, a, x, base, a0, b, const, LG):
    """``_cont_moves`` for ``_phi_int``: a joining value x, with ln x! = l,
    gives const - (glg + l) + ln Gamma(a + s + x) - (a + s + x)·ln(b + n + 1),
    the per-class terms taken once, and a leaving one the factor at its
    class's sums without it. On a missing cell the join still counts the
    row."""
    n, s, glg = S
    v = s + x[1][:, None]  # (B, g, J)
    up = _lgamma_at(LG, a0, v) - (a0 + v) * np.log(b + n + 1.0)
    up += const - glg - base
    up -= x[2][:, None]
    left = (sums.take(a, axis=0) - entry for sums, entry in zip(S, x))
    return up, _phi_int(*left, a0, b, const, LG) - base.take(a, axis=0)


def _cat_moves(S, a, x, base, a0, ma, *tables):
    """``_cont_moves`` for ``_phi_cat``, from the count n and the count c
    of the row's level (``S`` (2, B, g, J), read at each row's level):
    ln(c + a) - ln(n + m·a) for a joining row, and that at its own class's
    sums without it, negated, for a leaving one."""
    up = np.log(S[1] + a0) - np.log(S[0] + ma)
    n, c = S[:, np.arange(len(a)), a] - x
    return up, np.log(n + ma) - np.log(c + a0)


def log_dirichlet_proportion_term(nk, u: float) -> float:
    """Log of the Dirichlet–multinomial factor of the component counts."""
    nk = np.asarray(nk, dtype=float).tolist()
    g = len(nk)
    return (math.lgamma(g * u) - g * math.lgamma(u)
            + sum(math.lgamma(v + u) for v in nk) - math.lgamma(sum(nk) + g * u))


# ---------------------------------------------------------------------------
# dataset-level constant tables
# ---------------------------------------------------------------------------

Kind = namedtuple("Kind", "cols keys factor consts moves level", defaults=[None])


class MarginalTables:
    """Per-dataset constants used by the optimizer. ``kinds`` holds one
    ``Kind`` per column kind: its dataset columns, the ``Packed.class_sums``
    keys its factor reads (observed count first), the factor, its per-column
    constants (one table row per column), the factor's changes when a row
    joins a class and leaves its own (``_cont_moves``' signature), and, for a
    kind whose last class sum has a level axis, each cell's level. ``glob``
    holds, per kind, the global (one-group) marginal of every column, which
    is what an irrelevant column contributes for any partition. The
    continuous prior mean ``c`` is shifted with ``Packed``'s centered cells,
    which leaves every marginal unchanged."""

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
        kinds = (Kind(gr.cont, ("Mc", "Xc", "Xc2"), _phi_cont, cont, _cont_moves),
                 Kind(gr.integer, ("Mi", "Xi", "lgam"), _phi_int, integer, _int_moves),
                 Kind(gr.cat, ("Mq", "onehot"), _phi_cat, cat, _cat_moves, p.codes))
        # a kind without columns would only add empty factor calls to each move
        self.kinds = tuple(kind for kind in kinds if kind.cols.size)
        # the global marginal is the per-class factor of the one-class partition
        self.glob = tuple(phi[0] for phi in self.factors(p.one_class.sums))

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

    Each column kind scores (``Kind.moves``) a row joining class k from k's
    sums and the row's entries, and a row leaving its class a from a's sums
    minus them, in closed form; a level count is read at the row's level
    only. ``candidate_values`` scores a block of rows against the frozen
    state in one pass over the relevant columns, where a missing cell adds
    exactly 0, and keeps those per-column changes; ``apply_move`` then moves
    the one row's column of ``Packed.cells`` between two rows of ``S`` and
    adds the row's kept changes to the two classes' factors. So a move keeps
    ``phi`` exact on the relevant columns only, and the model step
    (``model_update``) refits every factor: outside the constructor it is the
    one refit point.
    """

    def __init__(self, tables: MarginalTables, model: Model, z):
        p = tables.packed
        z = np.asarray(z)
        if z.shape != (p.n,) or not ((z >= 1) & (z <= model.g) & (z % 1 == 0)).all() \
                or model.omega.shape != (p.d,):
            raise ValueError(f"need {p.n} labels in 1..{model.g} and {p.d} omega entries")
        self.tables = tables
        self.zi = z.astype(np.intp) - 1  # 0-based, as the rows of S
        Z = np.zeros((model.g, p.n))
        Z[self.zi, np.arange(p.n)] = 1.0
        self.S = Z @ p.cells.T
        self.st = {**p.split(self.S), "nk": Z.sum(axis=1)}
        self.phi = tables.factors(self.st)
        self._set_model(model.copy())

    @property
    def z(self) -> np.ndarray:
        """Hard labels, 1-based."""
        return self.zi + 1

    def _set_model(self, model: Model):
        """Take ``model``, and set what follows from it and ``phi``: per kind,
        the relevance of its columns and what ``candidate_values`` reads of
        the relevant columns J, and the value ``log_icl``. What it reads is
        (J, the (keys, J) columns of ``S`` holding the class sums the kind
        reads, each row's (keys, J) entries there, constants). A level-count
        sum is read at each row's own level, so its columns are per row,
        (keys, n, J), and the row's entry there is 1 on an observed cell. The
        entries are copied out of ``Packed.cells`` as one (keys, n, J) array.
        Drops the last scored block."""
        p = self.tables.packed
        self.model = model
        self.rel = tuple(model.omega[k.cols] == 1 for k in self.tables.kinds)
        self._rel_cells = []
        self._scored = None
        for kind, J in zip(self.tables.kinds, map(np.flatnonzero, self.rel)):
            at = [p.block_rows[key].start + (J[:, None] if getattr(p, key).ndim == 2
                                             else J[:, None] * p.m_max + kind.level[J])
                  for key in kind.keys]
            at = np.stack(np.broadcast_arrays(*at))  # (keys, J, 1 or n)
            cells = p.cells[at, np.arange(p.n)].transpose(0, 2, 1).copy()
            cols = at[..., 0] if at.shape[2] == 1 else at.transpose(0, 2, 1).copy()
            self._rel_cells.append((J, cols, cells, [v[J] for v in kind.consts]))
        total = log_dirichlet_proportion_term(self.st["nk"], self.tables.hyper.u)
        for rel, phi, glob in zip(self.rel, self.phi, self.tables.glob):
            total += float(np.where(rel, phi.sum(0), glob).sum())
        self.log_icl = total

    # -- single-observation moves -------------------------------------------

    def candidate_values(self, rows: np.ndarray) -> np.ndarray:
        """Objective value after reassigning each of ``rows`` (a 1-d block of
        row indices) alone to each component, all scored against the current
        state: shape (B, g), the entry of a row's own component being the
        current value.

        One pass over the block: per kind, one gather of its class sums at
        the J relevant columns, then the (B, g, J) "up" changes (the row joins
        class k) and the (B, J) "down" changes (it leaves its own class); a
        missing cell adds exactly 0. The state keeps these changes and the
        returned values until the next move, for ``apply_move``."""
        nk, u = self.st["nk"], self.tables.hyper.u
        idx = np.arange(len(rows))
        a = self.zi[rows]
        vals = np.log(nk + u) - np.log(nk[a] - 1.0 + u)[:, None]
        rem = np.zeros(len(rows))
        changes = []
        for kind, phi, (J, cols, cells, cj) in zip(self.tables.kinds, self.phi, self._rel_cells):
            if not J.size:
                changes.append(None)
                continue
            x = cells.take(rows, axis=1)  # (keys, B, J)
            if cols.ndim == 2:
                S = self.S.take(cols, axis=1).transpose(1, 0, 2)  # (keys, g, J)
            else:  # at each row's level: (keys, B, g, J)
                S = self.S.take(cols[:, rows], axis=1).transpose(1, 2, 0, 3)
            up, down = kind.moves(S, a, x, phi.take(J, axis=1), *cj)
            miss = x[0] == 0
            np.copyto(up, 0.0, where=miss[:, None, :])
            np.copyto(down, 0.0, where=miss)
            vals += up.sum(axis=2)
            rem += down.sum(axis=1)
            changes.append((up, down))
        vals = self.log_icl + vals + rem[:, None]
        vals[idx, a] = self.log_icl
        self._scored = (rows, changes, vals)
        return vals

    def apply_move(self, i: int, k: int) -> None:
        """Reassign observation i to component k (0-based): move its column of
        ``Packed.cells`` between two rows of ``S``, add the changes that the
        last ``candidate_values`` pass kept for row i to the two classes'
        factors of the relevant columns, and take that pass's value of the
        move as ``log_icl``. ``ValueError`` if that pass did not score row i."""
        hit = None if self._scored is None else np.flatnonzero(self._scored[0] == i)
        if hit is None or not hit.size:
            raise ValueError(f"row {i} is not in the last scored block")
        a = self.zi[i]
        if k == a:
            return
        p, b = self.tables.packed, hit[0]
        self.S[a] -= p.cells[:, i]
        self.S[k] += p.cells[:, i]
        self.st["nk"][[a, k]] += (-1.0, 1.0)
        for phi, (J, *_), change in zip(self.phi, self._rel_cells, self._scored[1]):
            if change is not None:
                phi[a, J] += change[1][b]
                phi[k, J] += change[0][b, k]
        self.zi[i] = k
        self.log_icl = float(self._scored[2][b, k])
        self._scored = None

    # -- block updates --------------------------------------------------------

    def model_update(self) -> None:
        """Refit every factor from the class sums, then set every omega_j to
        the per-column argmax of the marginal (strict inequality keeps a
        column relevant; ties drop it). A column observed in one class only
        ties exactly, so it needs observed cells in two classes, not a
        comparison that rounding decides. The moves keep only the relevant
        columns' factors exact, so this is the one refit after them, and the
        one reader of the irrelevant columns' factors."""
        self.phi = self.tables.factors(self.st)
        omega = np.zeros(self.tables.packed.d, dtype=np.int8)
        for kind, phi, glob in zip(self.tables.kinds, self.phi, self.tables.glob):
            split = (self.st[kind.keys[0]] > 0).sum(0) >= 2
            omega[kind.cols] = split & (phi.sum(0) > glob)
        self._set_model(Model(self.model.g, omega))


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


def partition_step(state: MiclState, *, rng: np.random.Generator) -> bool:
    """Greedy single-observation reassignments (random order per sweep) until
    a full sweep makes no move or ``SWEEP_CAP`` sweeps are done. Never
    decreases the objective. Returns True when the last sweep made no move
    (the partition is settled under the state's model), False when
    ``SWEEP_CAP`` stopped it.

    The next ``BLOCK_ROWS`` rows of the sweep's order are scored as one block
    against the current state; the first row with an improving move takes
    it, and the sweep resumes right after that row. The rows before it were
    scored against the same state the sequential sweep would have seen, so
    the visits and moves are those of a row-by-row sweep.

    A row improves when a value beats ``log_icl``, its own class's value. A
    move keeps the relevant columns' factors exact and takes ``log_icl``
    from its scoring pass; the irrelevant columns' factors are left for
    ``MiclState.model_update`` to refit."""
    n = state.tables.packed.n
    for _ in range(SWEEP_CAP):
        moved = False
        order = rng.permutation(n)
        pos = 0
        while pos < n:
            rows = order[pos:pos + BLOCK_ROWS]
            vals = state.candidate_values(rows)
            hits = np.flatnonzero(vals.max(axis=1) > state.log_icl)
            if not hits.size:
                pos += len(rows)
                continue
            f = int(hits[0])
            state.apply_move(int(rows[f]), int(vals[f].argmax()))
            moved = True
            pos += f + 1
        if not moved:
            return True
    return False


def run_micl(dataset: Dataset, g: int, hyper: Hyperparameters,
             config: EmConfig, tables: MarginalTables | None = None):
    """Best-of-``config.n_starts`` alternating maximization of the integrated
    complete-data likelihood over (omega, z) at fixed g. Reads only
    ``config.seed`` and ``config.n_starts``; the sweep, alternation and
    start-EM budgets are the module constants above.

    Each start draws omega ~ Bernoulli(1/2) per column, fits that model by a
    small-budget EM, takes the MAP partition, then alternates partition and
    model steps until a settled partition step is followed by a model step
    that keeps omega, or ``MAX_ALTERNATIONS`` are done. The start EMs of one
    g run as one stack (``run_starts``). ``tables`` defaults to
    ``MarginalTables(dataset, hyper)``, built once by a caller sweeping g.
    At g = 1 every start ends at the same state: every label 1 and, as no
    column is observed in two classes, no column relevant. That state is
    returned without running the starts.

    Returns (Model, 1-based hard labels, objective value).
    """
    tables = MarginalTables(dataset, hyper) if tables is None else tables
    if g == 1:
        model, z = Model(1, np.zeros(dataset.d, dtype=np.int8)), np.ones(dataset.n, dtype=np.intp)
        return model, z, MiclState(tables, model, z).log_icl
    rngs = [seeded_rng(config.seed, 91, s) for s in range(config.n_starts)]
    omegas = [rng.integers(0, 2, size=dataset.d).astype(np.int8) for rng in rngs]
    fits = run_starts(dataset, [(g, derive_seed(config.seed, 92, s), omega0)
                                for s, omega0 in enumerate(omegas)],
                      replace(config, **START_EM), None)
    best: tuple | None = None
    for rng, omega0, fit in zip(rngs, omegas, fits):
        state = MiclState(tables, Model(g, omega0), map_partition(fit.fuzzy))
        for _ in range(MAX_ALTERNATIONS):
            omega = state.model.omega
            settled = partition_step(state, rng=rng)
            state.model_update()
            if settled and (state.model.omega == omega).all():
                break
        if best is None or state.log_icl > best[2]:
            best = (state.model, state.z, state.log_icl)
    model, z, _ = best
    # the value of a state built at the result, free of the rounding of the moves
    return model, z, MiclState(tables, model, z).log_icl
