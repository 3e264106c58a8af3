"""Information criteria and the top-level model-selection driver sweeping
the component count. The parameter count ``count_params`` lives next to
``Model`` in ``data``, where the penalized EM shares it, and the MAP rule
``map_partition`` next to the hard-partition convention there, where the
MICL starts share it; both are re-exported here."""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, Hyperparameters, Model, count_params, map_partition
from .em import EmConfig, EmResult, run_em, run_em_from, run_penalized_em
from .micl import MarginalTables, log_integrated_complete, run_micl
from .util import derive_seed

CRITERIA = ("bic", "aic", "micl", "bic-noselect", "icl-noselect")


def bic(loglik: float, nu_m: int, n: int) -> float:
    if n < 1:
        raise ValueError("n must be >= 1")
    return loglik - 0.5 * nu_m * np.log(n)


@dataclass
class GRecord:
    """One fit of the g sweep: the model, its criterion value, and ``fit``,
    the EM fit behind that value. Under bic and aic ``fit`` is the penalized
    EM whose objective is the value; under bic-noselect and icl-noselect the
    plain EM whose log-likelihood or MAP partition the value scores. Under
    micl the value needs no EM fit, so ``fit`` is None except on the winner,
    which holds its refit from ``z_star``, its MICL partition."""

    g: int
    model: Model
    value: float
    fit: EmResult | None
    z_star: np.ndarray | None
    runtime_s: float


@dataclass
class SelectionReport:
    records: list = field(default_factory=list)
    best: GRecord | None = None
    partition: np.ndarray | None = None


def select_model(dataset: Dataset, criterion: str, g_max: int, config: EmConfig,
                 hyper: Hyperparameters | None = None) -> SelectionReport:
    """Sweep g = 1..g_max under one criterion and return the winning model.

    bic/aic run the penalized EM (c = ln(n)/2 or 1); micl runs the alternating
    integrated-likelihood optimizer and refits the winner by one EM from its
    MICL partition z*, classes numbered by first row; bic-noselect/icl-noselect
    force every column relevant and score plain EM fits by the BIC or by the
    integrated complete-data value at the MAP partition. The winner's
    ``fit`` holds its parameters and responsibilities, and ``partition`` is
    their MAP partition.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}")
    if g_max < 1:
        raise ValueError("g_max must be >= 1")
    if hyper is None and criterion in ("micl", "icl-noselect"):
        hyper = Hyperparameters.default(dataset)
    tables = MarginalTables(dataset, hyper) if criterion in ("micl", "icl-noselect") else None
    n = dataset.n
    report = SelectionReport()
    for g in range(1, g_max + 1):
        cfg = replace(config, seed=derive_seed(config.seed, 17, g))
        t0 = time.perf_counter()
        fit = z_star = None
        if criterion in ("bic", "aic"):
            c = 0.5 * np.log(n) if criterion == "bic" else 1.0
            fit = run_penalized_em(dataset, g, float(c), cfg)
            model, value = fit.model, fit.objective
        elif criterion == "micl":
            model, z_star, value = run_micl(dataset, g, hyper, cfg, tables)
        else:
            model = Model(g, np.ones(dataset.d, dtype=np.int8))
            fit = run_em(dataset, model, cfg)
            if criterion == "bic-noselect":
                value = bic(fit.loglik, count_params(model, dataset.kinds), n)
            else:
                value = log_integrated_complete(dataset, map_partition(fit.fuzzy),
                                                model, hyper, tables)
        report.records.append(GRecord(g, model, value, fit, z_star, time.perf_counter() - t0))
    # records are in g order and max keeps the first of equal values
    report.best = max(report.records, key=lambda rec: rec.value)
    if criterion == "micl":
        # inference for the selected model only, from its MICL partition
        report.best.fit = run_em_from(dataset, report.best.model, report.best.z_star, config)
    report.partition = map_partition(report.best.fit.fuzzy)
    return report
