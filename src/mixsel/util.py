"""Shared plumbing: seed derivation, parallel maps, JSON output."""
from __future__ import annotations

import concurrent.futures
import json
import math
import os
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


class NonFiniteValue(ValueError):
    """A NaN or infinite float where ``dump_json`` writes a number."""


def _jsonable(obj: Any):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _first_non_finite(obj: Any, where: str = ""):
    """(path, value) of the first NaN or infinite float in the decoded JSON
    value ``obj``, or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else (where, obj)
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        found = _first_non_finite(value, f"{where}[{key!r}]")
        if found:
            return found
    return None


def dump_json(obj: Any, path: str) -> None:
    """Write ``obj`` as JSON indented by 2, numpy arrays and scalars as their
    Python values. Floats take Python's shortest round-trip form, so they read
    back equal; a non-finite float raises ``NonFiniteValue``, which names the
    file and the value's place. The file is written only once the whole text
    is built, so a failed dump leaves no file."""
    try:
        text = json.dumps(obj, indent=2, allow_nan=False, default=_jsonable)
    except ValueError:
        found = _first_non_finite(json.loads(json.dumps(obj, default=_jsonable)))
        if found is None:
            raise
        raise NonFiniteValue(f"{os.path.basename(path)}: {found[0]} is {found[1]}, "
                             "not a finite number") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
