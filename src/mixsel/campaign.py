"""Replicated benchmark campaigns: generate -> select -> score, with the
summary statistics (mean ARI, mean selected g, mean relevant-variable rate)
reported per criterion."""
from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from .criteria import CRITERIA, select_model
from .data import DataError
from .em import EmConfig
from .simulate import ScenarioSpec, ari, calibrate_delta, generate
from .util import derive_seed, parallel_map


def run_replicate(job: tuple) -> list:
    """One replicate of a campaign; a top-level function so pools can pickle it."""
    spec, rep, criteria, gmax, starts, delta = job
    spec_rep = replace(spec, seed=derive_seed(spec.seed, 51, rep))
    dataset, z_true, _ = generate(spec_rep, delta)
    records = []
    for crit in criteria:
        cfg = EmConfig(seed=derive_seed(spec.seed, 52, rep, CRITERIA.index(crit)),
                       n_starts=starts)
        t0 = time.perf_counter()
        report = select_model(dataset, crit, gmax, cfg)
        records.append({
            "rep": rep,
            "criterion": crit,
            "ari": ari(z_true, report.partition),
            "g": report.best.g,
            "rel_rate": float(np.mean(report.best.model.omega)),
            "value": report.best.value,
            "runtime_s": time.perf_counter() - t0,
        })
    return records


def run_campaign(spec: ScenarioSpec, criteria, replicates: int, gmax: int = 3,
                 starts: int = 20, threads: int = 1):
    """Run ``replicates`` independent replicates; returns (records, summary).
    An empty criteria list or an unknown criterion name raises ``DataError``
    before any work starts."""
    if not criteria:
        raise DataError("no criterion given")
    for crit in criteria:
        if crit not in CRITERIA:
            raise DataError(f"unknown criterion {crit!r}")
    delta = calibrate_delta(spec)
    jobs = [(spec, rep, tuple(criteria), gmax, starts, delta) for rep in range(replicates)]
    per_rep = parallel_map(run_replicate, jobs, threads=threads)
    records = [rec for recs in per_rep for rec in recs]
    return records, summarize(records)


def summarize(records) -> dict:
    """Per-criterion means of ARI, selected g and relevant-variable rate."""
    out = {}
    for crit in dict.fromkeys(r["criterion"] for r in records):
        rows = [r for r in records if r["criterion"] == crit]
        out[crit] = {
            "replicates": len(rows),
            "ari": float(np.mean([r["ari"] for r in rows])),
            "g": float(np.mean([r["g"] for r in rows])),
            "rel_rate": float(np.mean([r["rel_rate"] for r in rows])),
        }
    return out
