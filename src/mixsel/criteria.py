"""Information criteria and the top-level model-selection driver sweeping
the component count. The parameter count ``count_params`` lives next to
``Model`` in ``data``, where the penalized EM shares it, and the MAP rule
``map_partition`` next to the hard-partition convention there, where the
MICL starts share it; both are re-exported here."""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, Hyperparameters, Model, Parameters, count_params, map_partition
from .em import EmConfig, EmResult, run_em, run_em_from, run_penalized_em
from .micl import MarginalTables, log_integrated_complete, run_micl
from .util import derive_seed

CRITERIA = ("bic", "aic", "micl", "bic-noselect", "icl-noselect")


def bic(loglik: float, nu_m: int, n: int) -> float:
    if n < 1:
        raise ValueError("n must be >= 1")
    return loglik - 0.5 * nu_m * np.log(n)


def aic(loglik: float, nu_m: int) -> float:
    return loglik - nu_m


@dataclass
class GRecord:
    """One fit of the g sweep."""

    g: int
    model: Model
    value: float
    loglik: float | None
    theta: Parameters | None
    z_star: np.ndarray | None
    runtime_s: float


@dataclass
class SelectionReport:
    records: list = field(default_factory=list)
    best: GRecord | None = None
    fuzzy: np.ndarray | None = None
    partition: np.ndarray | None = None


def select_model(dataset: Dataset, criterion: str, g_max: int, config: EmConfig,
                 hyper: Hyperparameters | None = None) -> SelectionReport:
    """Sweep g = 1..g_max under one criterion and return the winning model.

    bic/aic run the penalized EM (c = ln(n)/2 or 1); micl runs the alternating
    integrated-likelihood optimizer and refits the winner by one EM from its
    MICL partition z*, classes numbered by first row; bic-noselect/icl-noselect
    force every column relevant and score plain EM fits by the BIC or by the
    integrated complete-data value at the MAP partition.
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
    em_results: dict[int, EmResult] = {}
    for g in range(1, g_max + 1):
        cfg = replace(config, seed=derive_seed(config.seed, 17, g))
        t0 = time.perf_counter()
        if criterion in ("bic", "aic"):
            c = 0.5 * np.log(n) if criterion == "bic" else 1.0
            res = run_penalized_em(dataset, g, float(c), cfg)
            em_results[g] = res
            rec = GRecord(g, res.model, res.objective, res.loglik, res.theta, None,
                          time.perf_counter() - t0)
        elif criterion == "micl":
            model, z_star, value = run_micl(dataset, g, hyper, cfg, tables)
            rec = GRecord(g, model, value, None, None, z_star, time.perf_counter() - t0)
        else:
            model = Model(g, np.ones(dataset.d, dtype=np.int8))
            res = run_em(dataset, model, cfg)
            em_results[g] = res
            if criterion == "bic-noselect":
                value = bic(res.loglik, count_params(model, dataset.kinds), n)
            else:
                value = log_integrated_complete(dataset, map_partition(res.fuzzy),
                                                model, hyper, tables)
            rec = GRecord(g, model, value, res.loglik, res.theta, None,
                          time.perf_counter() - t0)
        report.records.append(rec)
    # records are in g order and max keeps the first of equal values
    report.best = max(report.records, key=lambda rec: rec.value)
    if criterion == "micl":
        # inference for the selected model only, from its MICL partition
        refit = run_em_from(dataset, report.best.model, report.best.z_star, config)
        report.best.theta, report.best.loglik = refit.theta, refit.loglik
        report.fuzzy = refit.fuzzy
    else:
        report.fuzzy = em_results[report.best.g].fuzzy
    report.partition = map_partition(report.fuzzy)
    return report
