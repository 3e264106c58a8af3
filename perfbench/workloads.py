"""The benchmark's workloads: how each one builds its inputs from a seed, the
argv it hands to ``mixsel.cli.main``, and the checks on each call's outputs.

Every input is generated before timing starts, with the package's own
generators. The program only ever sees a CSV, its schema and an argv.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One workload. The calls of a run cycle over ``pool`` generated
    datasets, each call with a fresh CLI seed: call time depends on how fast
    the random starts converge and on the data, so a run averages over many
    starts and several datasets to give a median that repeats across seeds."""

    name: str
    command: str                  # "cluster" or "simulate"
    params: dict                  # generator parameters (recorded in provenance)
    flags: list                   # CLI flags besides input, --seed and --out
    pool: int = 1                 # datasets generated per run (cluster only)
    inproc_flags: list = field(default_factory=list)  # overrides for in-process calls


WORKLOADS = {
    "cluster-bic-tall": Workload(
        "cluster-bic-tall", "cluster",
        {"family": "mixed-indep", "n": 4000, "d": 48, "target_error": 0.10,
         "missing_rate": 0.10},
        ["--criterion", "bic", "--gmax", "3", "--starts", "5"], pool=6),
    "simulate-mixed-micl": Workload(
        "simulate-mixed-micl", "simulate",
        {"family": "mixed", "n": 100, "d": 48, "target_error": 0.01,
         "missing_rate": 0.20, "replicates": 2},
        ["--family", "mixed", "--n", "100", "--d", "48", "--target-error", "0.01",
         "--missing", "0.2", "--criteria", "bic,icl-noselect,micl",
         "--starts", "3", "--replicates", "2", "--threads", "2"],
        # The fresh call 0 runs the pool of two workers; the timed and traced
        # in-process calls run one, so a run loads one CPU (two pool workers
        # on a two-vCPU shared host time the host's scheduler) and every span
        # lands in the tracer.
        inproc_flags=["--threads", "1"]),
}

# Toy sizes for the smoke test: the same code paths in a few seconds.
TOY = {
    "cluster-bic-tall": ({"n": 300, "d": 12}, []),
    "simulate-mixed-micl": ({"n": 40, "d": 12},
                            ["--n", "40", "--d", "12", "--starts", "2"]),
}


def toy(wl: Workload) -> Workload:
    params, flags = TOY[wl.name]
    return Workload(wl.name, wl.command, {**wl.params, **params},
                    _override(wl.flags, flags), wl.pool, wl.inproc_flags)


def flag(flags: list, name: str, default: str | None = None) -> str | None:
    """Value of ``--name value`` in a flag list."""
    return flags[flags.index(name) + 1] if name in flags else default


def _override(flags: list, changes: list) -> list:
    """Replace the values of ``--flag value`` pairs named in ``changes``."""
    out = list(flags)
    for k in range(0, len(changes), 2):
        out[out.index(changes[k]) + 1] = changes[k + 1]
    return out


class CheckFailed(Exception):
    pass


@dataclass
class Input:
    """One dataset of the pool (cluster); empty for simulate, whose data the
    program generates from the campaign seed."""

    csv_path: str | None = None
    schema_path: str | None = None
    z_true: np.ndarray | None = None
    dataset: object = None        # parsed back through mixsel.io, for BIC checks


def make_inputs(wl: Workload, seed: int, work: str) -> list:
    """Generate the workload's input pool under ``work``."""
    from mixsel.io import read_csv, read_schema, write_csv, write_schema
    from mixsel.simulate import MIXED_INDEP, ScenarioSpec, generate
    from mixsel.util import derive_seed

    if wl.command == "simulate":
        return [Input() for _ in range(wl.pool)]
    p = wl.params
    inputs = []
    for k in range(wl.pool):
        spec = ScenarioSpec(family=MIXED_INDEP, n=p["n"], d=p["d"],
                            target_error=p["target_error"],
                            missing_rate=p["missing_rate"],
                            seed=derive_seed(seed, 101, k))
        ds, z, _ = generate(spec)
        csv_path = os.path.join(work, f"data{k}.csv")
        schema_path = os.path.join(work, f"data{k}.schema")
        write_csv(ds, csv_path)
        write_schema(ds, schema_path)
        parsed, _ = read_csv(csv_path, schema=read_schema(schema_path))
        inputs.append(Input(csv_path, schema_path, z, parsed))
    return inputs


def argv_for(wl: Workload, inp: Input, cli_seed: int, out_dir: str,
             fresh: bool = False) -> list:
    """argv of a call; ``fresh`` for the call in a fresh interpreter, which
    keeps the workload's flags as a user gives them."""
    flags = wl.flags if fresh else _override(wl.flags, wl.inproc_flags)
    head = [wl.command]
    if wl.command == "cluster":
        head += [inp.csv_path, "--schema", inp.schema_path]
    return head + flags + ["--seed", str(cli_seed), "--out", out_dir]


def same_call(a: list, b: list) -> bool:
    """Whether two argv differ at most in ``--threads``, whose value must not
    change the results (parallel_map reduces in input order)."""
    return _override(a, ["--threads", "1"]) == _override(b, ["--threads", "1"]) \
        if "--threads" in a and "--threads" in b else a == b


def repeat_files(wl: Workload) -> tuple:
    """Outputs the README promises are byte-identical for a repeated seed."""
    return ("model.json", "partition.csv") if wl.command == "cluster" \
        else ("summary.json", "records.csv")


def read_repeatable(wl: Workload, out_dir: str) -> dict:
    out = {}
    for name in repeat_files(wl):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if wl.command == "simulate":
            # manifest_id hashes the argv, --threads included; runtime_s in
            # records.csv is a wall time; everything else is deterministic
            rows = [line for line in data.splitlines() if b"manifest_id" not in line]
            if name == "records.csv":
                rows = [line.rsplit(b",", 1)[0] for line in rows]
            data = b"\n".join(rows)
        out[name] = data
    return out


# ---------------------------------------------------------------------------
# per-call correctness checks; each returns (ari, objective) of the call
# ---------------------------------------------------------------------------

def _finite(obj, where: str) -> None:
    if isinstance(obj, dict):
        for v in obj.values():
            _finite(v, where)
    elif isinstance(obj, list):
        for v in obj:
            _finite(v, where)
    elif isinstance(obj, float) and not math.isfinite(obj):
        raise CheckFailed(f"{where}: non-finite value {obj!r}")


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    _finite(obj, os.path.basename(path))
    return obj


def _read_rows(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row for row in csv.reader(fh) if row and not row[0].startswith("#")]


def _theta_from_json(params: dict, dataset):
    """Rebuild ``Parameters`` and the relevance ``Model`` from parameters.json."""
    from mixsel.data import Model, Parameters

    cols = params["columns"]
    g = len(params["tau"])
    cont = [c for c in cols if c["kind"] == "cont"]
    ints = [c for c in cols if c["kind"] == "int"]
    cats = [c for c in cols if c["kind"] == "cat"]
    mu = np.array([[c["components"][k]["mu"] for c in cont] for k in range(g)])
    sigma = np.array([[c["components"][k]["sigma"] for c in cont] for k in range(g)])
    rate = np.array([[c["components"][k]["rate"] for c in ints] for k in range(g)])
    probs = [np.array([c["components"][k]["probs"] for k in range(g)]) for c in cats]
    theta = Parameters(np.array(params["tau"]), mu.reshape(g, len(cont)),
                       sigma.reshape(g, len(cont)), rate.reshape(g, len(ints)),
                       probs, dataset.groups)
    omega = np.array([1 if c["relevant"] else 0 for c in cols], dtype=np.int8)
    return theta, Model(g, omega)


def check_cluster(out_dir: str, inp: Input, criterion: str):
    from mixsel.criteria import count_params
    from mixsel.em import observed_loglik
    from mixsel.simulate import ari

    model = _load_json(os.path.join(out_dir, "model.json"))
    params = _load_json(os.path.join(out_dir, "parameters.json"))
    rows = _read_rows(os.path.join(out_dir, "partition.csv"))
    header, body = rows[0], rows[1:]
    n, g = inp.dataset.n, model["g_best"]
    if len(body) != n:
        raise CheckFailed(f"partition.csv has {len(body)} rows, expected {n}")
    li = header.index("label")
    labels = np.array([int(r[li]) for r in body])
    if labels.min() < 1 or labels.max() > g:
        raise CheckFailed(f"labels outside 1..{g}")
    fuzzy = np.array([[float(x) for x in r[li + 1:]] for r in body])
    if not np.isfinite(fuzzy).all():
        raise CheckFailed("partition.csv: non-finite responsibility")
    values = {rec["g"]: rec["value"] for rec in model["per_g"]}
    best = model["value_best"]
    if values.get(g) != best or max(values.values()) != best:
        raise CheckFailed(f"value_best {best} is not the largest per_g value at g_best")
    if criterion == "bic":
        theta, mdl = _theta_from_json(params, inp.dataset)
        recomputed = observed_loglik(inp.dataset, mdl, theta) \
            - 0.5 * count_params(mdl, inp.dataset.kinds) * math.log(n)
        if abs(recomputed - best) > 1e-6 * abs(best):
            raise CheckFailed(f"BIC recomputed {recomputed!r} != value_best {best!r}")
    return ari(inp.z_true, labels), best


def check_simulate(out_dir: str, wl: Workload):
    criteria = flag(wl.flags, "--criteria").split(",")
    reps = int(flag(wl.flags, "--replicates"))
    summary = _load_json(os.path.join(out_dir, "summary.json"))["summary"]
    rows = _read_rows(os.path.join(out_dir, "records.csv"))
    header, body = rows[0], rows[1:]
    if len(body) != reps * len(criteria):
        raise CheckFailed(f"records.csv has {len(body)} rows, expected "
                          f"{reps * len(criteria)}")
    recs = [dict(zip(header, r)) for r in body]
    num = {c: np.array([float(r[c]) for r in recs])
           for c in ("ari", "g", "rel_rate", "value")}
    if not all(np.isfinite(v).all() for v in num.values()):
        raise CheckFailed("records.csv: non-finite value")
    for crit in criteria:
        sel = np.array([r["criterion"] == crit for r in recs])
        for col in ("ari", "g", "rel_rate"):
            mean = float(num[col][sel].mean())
            if not math.isclose(mean, summary[crit][col], rel_tol=1e-9, abs_tol=1e-12):
                raise CheckFailed(f"summary {crit}.{col} {summary[crit][col]!r} "
                                  f"!= records mean {mean!r}")
    return float(num["ari"].mean()), float(num["value"].mean())
