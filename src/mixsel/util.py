"""Shared plumbing: seed derivation, parallel maps, JSON output."""
from __future__ import annotations

import concurrent.futures
import json
from typing import Any, Callable, Sequence

import numpy as np


def _seed_sequence(parts) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=[int(p) & 0xFFFFFFFFFFFFFFFF for p in parts])


def derive_seed(*parts: int) -> int:
    """Fold a parent seed plus integer tags into a fresh 64-bit seed.

    Deterministic in the inputs, so independent workers can be seeded
    without sharing generator state.
    """
    return int(_seed_sequence(parts).generate_state(1, np.uint64)[0])


def seeded_rng(seed: int, *tags: int) -> np.random.Generator:
    """Generator of the stream named by a seed plus integer tags (e.g. the
    start index), from the same entropy ``derive_seed`` folds."""
    return np.random.default_rng(_seed_sequence((seed, *tags)))


def parallel_map(fn: Callable[[Any], Any], items: Sequence[Any], threads: int = 1) -> list:
    """Map ``fn`` over ``items``, optionally on a process pool.

    Results are returned in input order, so the reduction is identical
    for any worker count (each item must be seeded independently). The pool
    has at most one worker per item: under the fork start method every
    worker is forked at the first submit, busy or not.
    """
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    workers = min(threads, len(items))
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _render_json(obj: Any, indent: int, level: int) -> str:
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad_in}{json.dumps(str(k))}: {_render_json(v, indent, level + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj.tolist()) if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            return "[]"
        items = [f"{pad_in}{_render_json(v, indent, level + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            raise ValueError(f"non-finite value in JSON output: {x!r}")
        return f"{x:.17g}"
    return json.dumps(obj)


def dump_json(obj: Any, path: str) -> None:
    """Write JSON with floats at 17 significant digits (round-trip exact)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_render_json(obj, indent=2, level=0))
        fh.write("\n")

