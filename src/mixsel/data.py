"""Core data structures for mixed-type model-based clustering.

Conventions shared by all engines:

* a dataset is an (n, d) float matrix with one row per observation; missing
  cells are NaN in the matrix and False in the boolean ``mask``,
* continuous columns hold reals, integer columns nonnegative whole numbers,
  categorical columns level codes 1..m_j,
* a fuzzy partition is an (n, g) responsibility matrix with rows summing to 1,
* a hard partition is an integer label vector with values in 1..g.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CONT = "cont"
INT = "int"
CAT = "cat"


class DataError(ValueError):
    """Base class for dataset validation failures."""


class AllMissingColumn(DataError):
    def __init__(self, j: int):
        self.j = j
        super().__init__(f"column {j} has no observed cells")


class OutOfRangeCategorical(DataError):
    def __init__(self, i: int, j: int, value: float, levels: int):
        self.i, self.j = i, j
        super().__init__(
            f"categorical cell ({i}, {j}) = {value!r} outside 1..{levels}"
        )


class NegativeInteger(DataError):
    def __init__(self, i: int, j: int, value: float):
        self.i, self.j = i, j
        super().__init__(f"integer cell ({i}, {j}) = {value!r} is not a nonnegative whole number")


@dataclass(frozen=True)
class VariableKind:
    """Column type: continuous, integer (count), or categorical with m levels."""

    tag: str
    levels: int = 0

    def __post_init__(self):
        if self.tag not in (CONT, INT, CAT):
            raise ValueError(f"unknown kind tag {self.tag!r}")
        if self.tag == CAT and self.levels < 2:
            raise ValueError("categorical kind needs at least 2 levels")

    @staticmethod
    def continuous() -> "VariableKind":
        return VariableKind(CONT)

    @staticmethod
    def integer() -> "VariableKind":
        return VariableKind(INT)

    @staticmethod
    def categorical(levels: int) -> "VariableKind":
        return VariableKind(CAT, levels)

    @property
    def n_free_params(self) -> int:
        """Free parameters of one univariate margin (2, 1, or m−1)."""
        if self.tag == CONT:
            return 2
        if self.tag == INT:
            return 1
        return self.levels - 1


@dataclass(frozen=True)
class ColumnGroups:
    """Column indices grouped by kind, in dataset column order."""

    cont: np.ndarray
    integer: np.ndarray
    cat: np.ndarray
    cat_levels: np.ndarray  # m_j aligned with `cat`

    @staticmethod
    def from_kinds(kinds) -> "ColumnGroups":
        tags = [k.tag for k in kinds]
        cont = np.array([j for j, t in enumerate(tags) if t == CONT], dtype=np.intp)
        integ = np.array([j for j, t in enumerate(tags) if t == INT], dtype=np.intp)
        cat = np.array([j for j, t in enumerate(tags) if t == CAT], dtype=np.intp)
        m = np.array([kinds[j].levels for j in cat], dtype=np.intp)
        return ColumnGroups(cont, integ, cat, m)

    @property
    def n_cont(self) -> int:
        return len(self.cont)

    @property
    def n_int(self) -> int:
        return len(self.integer)

    @property
    def n_cat(self) -> int:
        return len(self.cat)


class Dataset:
    """Immutable observation matrix with per-cell missingness.

    Parameters
    ----------
    X : (n, d) array
        Cell values; NaN marks a missing cell. Categorical cells are level
        codes 1..m_j, integer cells nonnegative whole numbers.
    kinds : sequence of VariableKind
    names : sequence of str, optional
        Column names (defaults v1..vd).
    mask : (n, d) bool array, optional
        True where observed. Defaults to ~isnan(X).
    cat_labels : dict, optional
        For categorical columns, original level labels indexed by column:
        ``{j: [label of level 1, ...]}``. Used only by the CSV layer.
    """

    def __init__(self, X, kinds, names=None, mask=None, cat_labels=None):
        X = np.asarray(X, dtype=float)  # np.where below makes the one copy
        if X.ndim != 2:
            raise DataError("X must be 2-dimensional")
        n, d = X.shape
        if n < 1 or d < 1:
            raise DataError("dataset needs n >= 1 and d >= 1")
        kinds = list(kinds)
        if len(kinds) != d:
            raise DataError("kinds length must equal the number of columns")
        # a C-ordered mask makes np.where's result C-ordered
        mask = ~np.isnan(X, order="C") if mask is None else np.array(mask, dtype=bool, order="C")
        if mask.shape != X.shape:
            raise DataError("mask shape must match X")
        self.X = np.where(mask, X, np.nan)
        self.mask = mask
        self.kinds = kinds
        self.names = list(names) if names is not None else [f"v{j + 1}" for j in range(d)]
        if len(self.names) != d:
            raise DataError("names length must equal the number of columns")
        self.cat_labels = dict(cat_labels) if cat_labels else {}
        self.groups = ColumnGroups.from_kinds(kinds)
        self._packed = None
        validate(self)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def packed(self) -> "Packed":
        if self._packed is None:
            self._packed = Packed(self)
        return self._packed

    def replace_mask(self, mask: np.ndarray) -> "Dataset":
        """New dataset with the same cells under a different mask."""
        return Dataset(self.X, self.kinds, names=self.names, mask=mask,
                       cat_labels=self.cat_labels)


def validate(dataset: Dataset) -> None:
    """Check all type invariants; raises a DataError subclass on failure."""
    X, mask = dataset.X, dataset.mask
    for j, kind in enumerate(dataset.kinds):
        col = X[:, j]
        obs = mask[:, j]
        if not obs.any():
            raise AllMissingColumn(j)
        vals = col[obs]
        if not np.isfinite(vals).all():
            i = int(np.flatnonzero(obs & ~np.isfinite(col))[0])
            raise DataError(f"non-finite observed cell at ({i}, {j})")
        if kind.tag == INT:
            bad = (vals < 0) | (vals != np.floor(vals))
            if bad.any():
                i = int(np.flatnonzero(obs)[np.flatnonzero(bad)[0]])
                raise NegativeInteger(i, j, float(X[i, j]))
        elif kind.tag == CAT:
            bad = (vals < 1) | (vals > kind.levels) | (vals != np.floor(vals))
            if bad.any():
                i = int(np.flatnonzero(obs)[np.flatnonzero(bad)[0]])
                raise OutOfRangeCategorical(i, j, float(X[i, j]), kind.levels)
    dataset.X.setflags(write=False)
    dataset.mask.setflags(write=False)


def map_partition(fuzzy: np.ndarray) -> np.ndarray:
    """Highest-responsibility labels (1-based); ties go to the lowest index."""
    return np.argmax(fuzzy, axis=1).astype(np.intp) + 1


@dataclass
class Model:
    """A component count g plus the binary relevance vector over columns."""

    g: int
    omega: np.ndarray

    def __post_init__(self):
        if self.g < 1:
            raise ValueError("g must be >= 1")
        om = np.asarray(self.omega)
        if not ((om == 0) | (om == 1)).all():
            raise ValueError("omega entries must be 0 or 1")
        self.omega = om.astype(np.int8)

    def copy(self) -> "Model":
        return Model(self.g, self.omega.copy())


def _block_sizes(kinds) -> np.ndarray:
    """Free parameters of each column's block, as floats."""
    return np.array([k.n_free_params for k in kinds], dtype=float)


def count_params(model: Model, kinds) -> int:
    """Free-parameter count: g-1 proportions plus, per column, one block per
    component if relevant and a single shared block otherwise."""
    return int(model.g - 1 + (_block_sizes(kinds) * np.where(model.omega == 1, model.g, 1)).sum())


@dataclass
class Parameters:
    """Mixture parameters grouped by column kind.

    ``mu``/``sigma`` are (g, n_cont), ``rate`` is (g, n_int) and ``probs``
    holds one (g, m_j) row-stochastic matrix per categorical column, all in
    the order given by ``groups``.
    """

    tau: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    rate: np.ndarray
    probs: list
    groups: ColumnGroups

    @property
    def g(self) -> int:
        return len(self.tau)

    def block(self, k: int, j: int) -> np.ndarray:
        """Per-(component, column) parameter block.

        Continuous -> [mu, sigma]; integer -> [rate]; categorical -> the
        probability vector. ``k`` is 0-based.
        """
        gr = self.groups
        pos = np.searchsorted(gr.cont, j)
        if pos < gr.n_cont and gr.cont[pos] == j:
            return np.array([self.mu[k, pos], self.sigma[k, pos]])
        pos = np.searchsorted(gr.integer, j)
        if pos < gr.n_int and gr.integer[pos] == j:
            return np.array([self.rate[k, pos]])
        pos = np.searchsorted(gr.cat, j)
        if pos < gr.n_cat and gr.cat[pos] == j:
            return self.probs[pos][k].copy()
        raise IndexError(f"column {j} out of range")


@dataclass(frozen=True)
class Hyperparameters:
    """Conjugate-prior constants.

    ``u`` weights the Dirichlet prior on proportions. Continuous columns get
    (a, b, c, d) for the Normal–Inverse-Gamma prior (sigma² ~ IG(a/2, b²/2),
    mu | sigma² ~ N(c, sigma²/d)); integer columns (a, b) for the Gamma prior
    on the rate; categorical columns a symmetric Dirichlet weight a.
    Arrays are aligned with the dataset's ``groups``.
    """

    u: float
    cont_a: np.ndarray
    cont_b: np.ndarray
    cont_c: np.ndarray
    cont_d: np.ndarray
    int_a: np.ndarray
    int_b: np.ndarray
    cat_a: np.ndarray

    def __post_init__(self):
        vals = [np.atleast_1d(self.u), self.cont_a, self.cont_b, self.cont_d,
                self.int_a, self.int_b, self.cat_a]
        for v in vals:
            if not np.all((np.asarray(v, dtype=float) > 0) & np.isfinite(v)):
                raise ValueError("hyperparameters must be finite and strictly positive")
        if not np.all(np.isfinite(self.cont_c)):
            raise ValueError("hyperparameters must be finite")

    @staticmethod
    def default(dataset: Dataset) -> "Hyperparameters":
        """Fairly flat defaults: u = 1/2, categorical a = 1/2; continuous
        a = b = 1, c = observed column mean, d = 0.01; integer a = b = 1."""
        gr = dataset.groups
        return Hyperparameters(
            u=0.5,
            cont_a=np.ones(gr.n_cont),
            cont_b=np.ones(gr.n_cont),
            cont_c=dataset.packed().shift.copy(),
            cont_d=np.full(gr.n_cont, 0.01),
            int_a=np.ones(gr.n_int),
            int_b=np.ones(gr.n_int),
            cat_a=np.full(gr.n_cat, 0.5),
        )


class Packed:
    """Dense per-kind views of a dataset, shared read-only by the engines.

    One C-ordered (D, n) block ``cells`` holds every cell, n the inner axis;
    each of ``BLOCKS`` is a (columns, n) row slice of it (``onehot``:
    (n_cat, m_max, n)), and ``block_rows`` maps its name to that slice.
    Missing cells are 0 in the value rows and excluded through the 0/1 mask
    rows, so masked sums are plain matrix products.
    Continuous cells are centered on their observed column mean (``shift``),
    so variances do not cancel at any location. ``one_class`` is
    ``em.one_class_fit``.
    """

    BLOCKS = ("Mc", "Xc", "Xc2", "Mi", "Xi", "lgam", "Mq", "onehot")

    def __init__(self, ds: Dataset):
        gr = ds.groups
        self.n, self.d = ds.n, ds.d
        self.groups = gr
        XT, MT = ds.X.T, ds.mask.T
        self.m = gr.cat_levels
        self.m_max = int(self.m.max()) if gr.n_cat else 0
        rows = [gr.n_cont] * 3 + [gr.n_int] * 3 + [gr.n_cat, gr.n_cat * self.m_max]
        ends = np.cumsum(rows).tolist()
        self.block_rows = {name: slice(lo, hi)
                           for name, lo, hi in zip(self.BLOCKS, [0] + ends, ends)}
        self.cells = np.zeros((ends[-1], self.n))
        for name, block in self.block_rows.items():
            setattr(self, name, self.cells[block])
        self.onehot = self.onehot.reshape(gr.n_cat, self.m_max, self.n)
        self.Mc[:], self.Mi[:], self.Mq[:] = MT[gr.cont], MT[gr.integer], MT[gr.cat]
        Xc = np.where(MT[gr.cont], XT[gr.cont], 0.0)
        with np.errstate(over="ignore", invalid="ignore"):  # a valid cell may overflow here
            self.shift = Xc.sum(axis=1) / self.Mc.sum(axis=1)  # observed column means
            np.subtract(Xc, self.shift[:, None], out=self.Xc, where=MT[gr.cont])
            np.multiply(self.Xc, self.Xc, out=self.Xc2)
        bad = np.flatnonzero(~np.isfinite(self.Xc2).all(axis=1))
        if bad.size:  # name the largest cell of the first such column
            i, j = int(np.abs(Xc[bad[0]]).argmax()), int(gr.cont[bad[0]])
            raise FloatingPointError(f"continuous cell ({i}, {j}) = {float(ds.X[i, j])!r} is "
                                     "too large: its column's centered squares overflow")
        self.Xi[:] = np.where(MT[gr.integer], XT[gr.integer], 0.0)
        values, inverse = np.unique(self.Xi, return_inverse=True)  # ln x! per distinct x
        log_fact = np.array([math.lgamma(v + 1.0) for v in values.tolist()])
        np.multiply(log_fact[inverse].reshape(self.Xi.shape), self.Mi, out=self.lgam)
        self.codes = np.where(MT[gr.cat], XT[gr.cat], 1.0).astype(np.intp) - 1
        levels = np.arange(self.m_max)
        # zero on missing cells and padded levels
        self.onehot[:] = (self.codes[:, None] == levels[:, None]) & MT[gr.cat][:, None]
        self.level_mask = levels < self.m[:, None]
        self.nu = _block_sizes(ds.kinds)  # per column
        from .em import one_class_fit  # local import: em imports this module
        self.one_class = one_class_fit(self)

    def split(self, S: np.ndarray) -> dict:
        """Views of the (g, D) class-sum block ``S``, one per named matrix,
        keyed by its name; ``onehot`` gives the (g, n_cat, m_max) level counts."""
        sums = {name: S[:, block] for name, block in self.block_rows.items()}
        sums["onehot"] = sums["onehot"].reshape(len(S), self.groups.n_cat, self.m_max)
        return sums

    def class_sums(self, t: np.ndarray) -> dict:
        """Per-class sums under the (g, n) weights ``t`` (responsibilities or
        a 0/1 hard partition), one product over ``cells``: ``nk`` the class
        sizes, and ``t @ M.T`` for every named matrix M (``split``)."""
        return {**self.split(t @ self.cells.T), "nk": t.sum(axis=1)}
