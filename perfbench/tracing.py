"""Spans around the public functions of each mixsel module.

The wrappers live here, not in the package: installing one replaces the
function on its module (and on every ``mixsel`` module that imported it by
name) or the method on its class, and ``uninstall`` puts the originals back.
Spans are kept in memory as (name, start, end, parent, call id) and written
out at the end of the run.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

# (owner, attribute, span name). An owner is a module or "module:Class".
TARGETS = [
    ("mixsel.cli", "main", "cli.main"),
    ("mixsel.io", "read_csv", "io.read_csv"),
    ("mixsel.data:Packed", "__init__", "data.packed"),
    ("mixsel.densities", "normal_logpdf", "densities.normal_logpdf"),
    ("mixsel.em", "run_penalized_em", "em.run_penalized_em"),
    ("mixsel.em", "run_em", "em.run_em"),
    ("mixsel.micl", "run_micl", "micl.run_micl"),
    ("mixsel.micl", "partition_step", "micl.partition_step"),
    ("mixsel.micl:MiclState", "candidate_values", "micl.candidate_values"),
    ("mixsel.micl:MiclState", "apply_move", "micl.apply_move"),
    ("mixsel.micl:MiclState", "model_update", "micl.model_update"),
    ("mixsel.criteria", "select_model", "criteria.select_model"),
    ("mixsel.criteria", "log_integrated_complete", "criteria.log_integrated_complete"),
    ("mixsel.simulate", "calibrate_delta", "simulate.calibrate_delta"),
    ("mixsel.simulate", "generate", "simulate.generate"),
    ("mixsel.simulate", "ari", "simulate.ari"),
    ("mixsel.campaign", "run_replicate", "campaign.run_replicate"),
    ("mixsel.util", "dump_json", "util.dump_json"),
]


def _em_info(result, args, kwargs) -> dict:
    """Iterations and kept starts, read from the returned ``EmResult``."""
    config = kwargs.get("config", args[-1] if args else None)
    return {"iterations": sum(len(t) for t in result.traces),
            "starts_kept": len(result.traces),
            "starts": getattr(config, "n_starts", 0)}


def _csv_info(result, args, kwargs) -> dict:
    dataset = result[0]
    return {"cells": dataset.n * dataset.d}


INFO = {"em.run_penalized_em": _em_info, "em.run_em": _em_info,
        "io.read_csv": _csv_info}


class Tracer:
    """Span recorder; ``install`` before a traced call, ``uninstall`` after."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, call id, info]
        self._stack = []
        self.call_id = -1
        self._patches = []
        self.missing = []      # targets the package no longer has

    def _wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, INFO.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.call_id, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if info is not None:
                rec[5] = info(result, args, kwargs)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "mixsel" or k.startswith("mixsel."))]
        for owner_name, attr, name in TARGETS:
            mod_name, _, cls_name = owner_name.partition(":")
            owner = sys.modules.get(mod_name)
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                if name not in self.missing:
                    self.missing.append(name)
                continue
            wrapped = self._wrap(name, orig)
            if cls_name:
                self._patches.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def span_dicts(self) -> list:
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "call": s[4], **({"info": s[5]} if s[5] else {})}
                for s in self.spans]


def per_call(spans) -> dict:
    """Per call id: inclusive time, count and summed info per span name, and
    self time per layer (a span's duration minus its direct children's)."""
    calls = defaultdict(lambda: {"s": defaultdict(float), "calls": defaultdict(int),
                                 "info": defaultdict(float),
                                 "self_s": defaultdict(float)})
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    for idx, s in enumerate(spans):
        c = calls[s[4]]
        dur = s[2] - s[1]
        c["s"][s[0]] += dur
        c["calls"][s[0]] += 1
        c["self_s"][s[0].split(".")[0]] += dur - child[idx]
        if s[0] == "cli.main":
            c["s"]["cli.self"] += dur - child[idx]
        for key, val in (s[5] or {}).items():
            c["info"][f"{s[0]}.{key}"] += val
    return calls
