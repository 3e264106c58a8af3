"""Compare two sets of benchmark results.

    python3 perfbench/run.py --compare BASE CHANGE

BASE and CHANGE are result files written by run.py, or directories holding
them. For each workload and metric it prints each side's median and
quartiles, the ratio CHANGE/BASE with its base, and a verdict against the
bounds in BENCHMARK.json (metrics it does not gate, such as error_rate, are
compared as per-layer metrics are):

* worse      -- the change's median is worse than the base's by more than the
                bound (per-layer metrics, which have no bound: by more than
                either side's quartile spread);
* improved   -- better by more than the base's own quartile spread, and the
                change wins at least 9 of 10 runs paired by seed;
* unresolved -- a side's quartile spread is wider than the bound, and not
                every change run beats (or loses to) every base run; or
                better by more than the base's spread, but the two sides
                share no seeds to pair or the change wins fewer pairs;
* unchanged  -- otherwise.
"""
from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str, meta: dict) -> dict:
    """{(workload, metric): [(seed, value), ...]} from one result file or a
    directory of them; fills ``meta`` with each metric's unit and direction."""
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    out = defaultdict(list)
    for f in files:
        if f.name.endswith(".spans.json"):
            continue
        res = json.loads(f.read_text(encoding="utf-8"))
        for name, m in res["metrics"].items():
            out[(res["workload"], name)].append((res["seed"], m["value"]))
            meta.setdefault(name, {"unit": m["unit"], "better": m["better"]})
    return out


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base: list, change: list, better: str, bound: float | None) -> str:
    sign = 1.0 if better == "lower" else -1.0   # sign * (change - base) > 0: worse
    bv, cv = [v for _, v in base], [v for _, v in change]
    bq1, bmed, bq3 = quartiles(bv)
    cq1, cmed, cq3 = quartiles(cv)
    scale = abs(bmed) or 1.0
    base_spread, change_spread = (bq3 - bq1) / scale, (cq3 - cq1) / (abs(cmed) or 1.0)
    worse_by = sign * (cmed - bmed) / scale
    if bound is not None and max(base_spread, change_spread) > bound:
        if all(sign * (c - b) < 0 for c in cv for b in bv):
            return "improved"
        if all(sign * (c - b) > 0 for c in cv for b in bv):
            return "worse"
        return "unresolved"
    limit = bound if bound is not None else max(base_spread, change_spread)
    if worse_by > limit:
        return "worse"
    bs, cs = dict(base), dict(change)
    seeds = sorted(set(bs) & set(cs))
    wins = sum(sign * (cs[s] - bs[s]) < 0 for s in seeds)
    if -worse_by > base_spread:
        return "improved" if seeds and wins >= 0.9 * len(seeds) else "unresolved"
    return "unchanged"


def main(base_path: str, change_path: str) -> int:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    meta = {}
    base, change = load(base_path, meta), load(change_path, meta)
    print(f"{'workload':<20} {'metric':<36} {'base q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'ratio':>8}  verdict")
    for key in sorted(set(base) & set(change)):
        wl, name = key
        m = meta[name]
        b, c = base[key], change[key]
        bq, cq = quartiles([v for _, v in b]), quartiles([v for _, v in c])
        ratio = cq[1] / bq[1] if bq[1] else float("nan")
        v = verdict(b, c, m["better"], bounds.get(name))
        fmt = "{:.4g}/{:.4g}/{:.4g}"
        print(f"{wl:<20} {name:<36} {fmt.format(*bq):>32} {fmt.format(*cq):>32} "
              f"{ratio:>8.4f}  {v} (n={len(b)} vs {len(c)}, base {bq[1]:.4g} "
              f"{m['unit']})")
    return 0
