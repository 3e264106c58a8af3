"""Command-line front end.

Subcommands: ``cluster`` (fit + select on a CSV), ``simulate`` (replicated
benchmark campaigns), ``ari`` (agreement between two partition files).
Exit codes: 0 ok, 1 numerical failure, 2 usage or I/O error.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import os
import sys
import time

from . import __version__
from .criteria import CRITERIA, count_params, select_model
from .data import DataError, Hyperparameters
from .em import EmConfig, EmError
from .io import read_csv, read_partition, read_schema
from .simulate import (CONTINUOUS_TRIDIAG, MIXED_INDEP, InvalidShape,
                       LengthMismatch, NoRoot, ScenarioSpec, ari)
from .campaign import run_campaign
from .util import dump_json


def _manifest_id(argv) -> str:
    return hashlib.sha256(" ".join(argv).encode()).hexdigest()[:12]


def _write_manifest(out_dir, mid, argv, seed, schema_info, config, timings):
    dump_json({
        "manifest_id": mid,
        "command": " ".join(argv),
        "seed": seed,
        "version": __version__,
        "schema": schema_info,
        "config": config,
        "timings_s": timings,
    }, os.path.join(out_dir, "manifest.json"))


def _block_json(theta, dataset, j, k):
    kind = dataset.kinds[j]
    block = theta.block(k, j)
    if kind.tag == "cont":
        return {"mu": float(block[0]), "sigma": float(block[1])}
    if kind.tag == "int":
        return {"rate": float(block[0])}
    return {"probs": [float(p) for p in block]}


def cmd_cluster(args, argv) -> int:
    timings = {}
    t0 = time.perf_counter()
    schema = read_schema(args.schema) if args.schema else None
    dataset, info = read_csv(args.data, schema=schema)
    timings["ingest"] = time.perf_counter() - t0
    os.makedirs(args.out, exist_ok=True)
    mid = _manifest_id(argv)

    cfg = EmConfig(seed=args.seed, n_starts=args.starts)
    hyper = Hyperparameters.default(dataset)
    t0 = time.perf_counter()
    report = select_model(dataset, args.criterion, args.gmax, cfg, hyper=hyper)
    timings["fit"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    dump_json({
        "manifest_id": mid,
        "criterion": args.criterion,
        "n": dataset.n,
        "d": dataset.d,
        "g_best": report.best.g,
        "omega_best": [int(w) for w in report.best.model.omega],
        "value_best": report.best.value,
        "n_params_best": count_params(report.best.model, dataset.kinds),
        "per_g": [
            {"g": rec.g, "value": rec.value,
             "loglik": rec.loglik,
             "omega": [int(w) for w in rec.model.omega]}
            for rec in report.records
        ],
    }, os.path.join(args.out, "model.json"))
    timings["fit_per_g"] = [rec.runtime_s for rec in report.records]

    g = report.best.g
    with open(os.path.join(args.out, "partition.csv"), "w", newline="",
              encoding="utf-8") as fh:
        fh.write(f"# manifest_id: {mid}\n")
        w = csv.writer(fh)
        w.writerow(["row", "label"] + [f"t_{k + 1}" for k in range(g)])
        for i in range(dataset.n):
            w.writerow([i + 1, int(report.partition[i])]
                       + [repr(float(t)) for t in report.fuzzy[i]])

    dump_json({
        "manifest_id": mid,
        "tau": [float(t) for t in report.theta.tau],
        "columns": [
            {"name": dataset.names[j],
             "kind": dataset.kinds[j].tag,
             "levels": dataset.cat_labels.get(j),
             "relevant": bool(report.relevance[j]),
             "components": [_block_json(report.theta, dataset, j, k) for k in range(g)]}
            for j in range(dataset.d)
        ],
    }, os.path.join(args.out, "parameters.json"))
    timings["write"] = time.perf_counter() - t0

    _write_manifest(args.out, mid, argv, args.seed, info,
                    {"criterion": args.criterion, "gmax": args.gmax,
                     "starts": args.starts}, timings)
    print(f"selected g={report.best.g}, {int(report.best.model.omega.sum())}/"
          f"{dataset.d} relevant columns, {args.criterion}={report.best.value:.6f}")
    print(f"results written to {args.out}")
    return 0


def cmd_simulate(args, argv) -> int:
    family = CONTINUOUS_TRIDIAG if args.family == "continuous" else MIXED_INDEP
    spec = ScenarioSpec(family=family, n=args.n, d=args.d, rho=args.rho,
                        target_error=args.target_error,
                        missing_rate=args.missing, seed=args.seed)
    criteria = [c.strip() for c in args.criteria.split(",") if c.strip()]
    for c in criteria:
        if c not in CRITERIA:
            raise DataError(f"unknown criterion {c!r}")
    records, summary = run_campaign(spec, criteria, args.replicates,
                                    gmax=args.gmax, starts=args.starts,
                                    threads=args.threads)
    os.makedirs(args.out, exist_ok=True)
    mid = _manifest_id(argv)
    with open(os.path.join(args.out, "records.csv"), "w", newline="",
              encoding="utf-8") as fh:
        fh.write(f"# manifest_id: {mid}\n")
        w = csv.writer(fh)
        cols = ["rep", "criterion", "ari", "g", "rel_rate", "value", "runtime_s"]
        w.writerow(cols)
        for rec in records:
            w.writerow([rec[c] if c in ("rep", "criterion", "g") else repr(float(rec[c]))
                        for c in cols])
    dump_json({"manifest_id": mid, "scenario": {
        "family": args.family, "n": args.n, "d": args.d, "rho": args.rho,
        "target_error": args.target_error, "missing": args.missing,
        "replicates": args.replicates}, "summary": summary},
        os.path.join(args.out, "summary.json"))
    _write_manifest(args.out, mid, argv, args.seed, {},
                    {"criteria": criteria, "gmax": args.gmax,
                     "starts": args.starts, "threads": args.threads}, {})
    print(f"{'criterion':<14}{'ARI':>8}{'g':>8}{'rel.':>8}")
    for crit, row in summary.items():
        print(f"{crit:<14}{row['ari']:>8.2f}{row['g']:>8.2f}{row['rel_rate']:>8.2f}")
    print(f"results written to {args.out}")
    return 0


def cmd_ari(args, argv) -> int:
    za = read_partition(args.partition_a)
    zb = read_partition(args.partition_b)
    print(f"{ari(za, zb):.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mixsel",
                                description="Model-based clustering of mixed data "
                                            "with variable selection")
    p.add_argument("--version", action="version", version=f"mixsel {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("cluster", help="fit and select a model on a CSV dataset")
    pc.add_argument("data", help="input CSV (header row; NA or empty = missing)")
    pc.add_argument("--schema", help="sidecar schema: one name:kind line per column")
    pc.add_argument("--criterion", choices=CRITERIA, default="bic")
    pc.add_argument("--gmax", type=int, default=3)
    pc.add_argument("--starts", type=int, default=20)
    pc.add_argument("--seed", type=int, required=True)
    pc.add_argument("--out", required=True, help="output directory")
    pc.set_defaults(func=cmd_cluster)

    ps = sub.add_parser("simulate", help="run a replicated benchmark campaign")
    ps.add_argument("--family", choices=["continuous", "mixed"], required=True)
    ps.add_argument("--n", type=int, default=200)
    ps.add_argument("--d", type=int, default=10)
    ps.add_argument("--rho", type=float, default=0.0)
    ps.add_argument("--target-error", type=float, default=0.05, dest="target_error")
    ps.add_argument("--missing", type=float, default=0.0)
    ps.add_argument("--replicates", type=int, default=20)
    ps.add_argument("--seed", type=int, required=True)
    ps.add_argument("--criteria", default="bic",
                    help="comma-separated list from " + ",".join(CRITERIA))
    ps.add_argument("--gmax", type=int, default=3)
    ps.add_argument("--starts", type=int, default=20)
    ps.add_argument("--out", required=True)
    ps.add_argument("--threads", type=int, default=1)
    ps.set_defaults(func=cmd_simulate)

    pa = sub.add_parser("ari", help="adjusted Rand index between two partition files")
    pa.add_argument("partition_a")
    pa.add_argument("partition_b")
    pa.set_defaults(func=cmd_ari)
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "gmax", 1) < 1:
        parser.error("--gmax must be >= 1")
    if getattr(args, "starts", 1) < 1:
        parser.error("--starts must be >= 1")
    if getattr(args, "replicates", 1) < 1:
        parser.error("--replicates must be >= 1")
    try:
        return args.func(args, ["mixsel"] + argv)
    except (DataError, LengthMismatch, InvalidShape, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EmError, NoRoot, FloatingPointError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
