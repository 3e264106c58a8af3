"""CSV ingestion and emission.

External format: a header row of column names; the literal ``NA``
(case-sensitive) or an empty field marks a missing cell. Kinds come from a
sidecar schema (one ``name:kind`` line per column, kind in {cont, int, cat},
optionally ``name:cat:level1|level2``) or are inferred: numeric with a decimal
point/exponent -> cont, numeric integral and nonnegative -> int, otherwise cat
with levels mapped 1..m in sorted order. Level mappings always land in the run
manifest so results are reproducible.

``csv.reader`` is the one parser. ``read_csv`` then works a column at a
time: one ``str.strip`` pass, one ``float`` pass (the missing tokens read
as ``nan``) or one level lookup, and the mask from the NaNs. A column whose
NaN count differs from its missing-token count holds a literal ``nan`` cell,
and only then is each cell tested for a missing token. The cell that stops a
column's parse is located only after the column fails.
"""
from __future__ import annotations

import csv
from itertools import filterfalse

import numpy as np

from .data import CAT, CONT, INT, DataError, Dataset, VariableKind

MISSING_TOKEN = "NA"
_MISSING = frozenset(("", MISSING_TOKEN))
_AS_NAN = dict.fromkeys(_MISSING, "nan")  # what float() reads a missing cell as


def _numeric(raw: str):
    """One cell's float (NaN for a missing token), None if it is not numeric."""
    try:
        return float(_AS_NAN.get(raw, raw))
    except ValueError:
        return None


def infer_kind(values: list[str]) -> str:
    """Kind of a column from its observed raw strings."""
    try:
        x = np.array(list(map(float, values)))
    except ValueError:
        return CAT
    text = "".join(values)
    if "." in text or "e" in text or "E" in text or ((x != np.floor(x)) | (x < 0)).any():
        return CONT
    return INT


def read_schema(path: str) -> dict:
    """Parse ``name:kind[:lev1|lev2|...]`` lines into {name: (kind, levels)}."""
    out: dict[str, tuple[str, list[str] | None]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(":", 2)
            if len(parts) < 2:
                raise DataError(f"{path}:{lineno}: expected name:kind")
            name, kind = parts[0], parts[1]
            if kind not in (CONT, INT, CAT):
                raise DataError(f"{path}:{lineno}: unknown kind {kind!r}")
            levels = parts[2].split("|") if len(parts) == 3 else None
            if levels is not None and kind != CAT:
                raise DataError(f"{path}:{lineno}: only cat columns declare levels")
            out[name] = (kind, levels)
    return out


def read_csv(path: str, schema: dict | None = None):
    """Load a dataset; returns (Dataset, manifest info).

    The manifest info records, per column, the kind, whether it was declared
    or inferred, and the categorical level mapping.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader
                if row and not (row[0].startswith("#") and len(row) == 1)]
    if len(rows) < 2:
        raise DataError(f"{path}: need a header row and at least one data row")
    (_, header), *body = rows
    names = [c.strip() for c in header]
    n, d = len(body), len(names)
    seen = set()
    for name in names:
        if name in seen:
            raise DataError(f"{path}: duplicate column name {name!r}")
        seen.add(name)
    for line, row in body:
        if len(row) != d:
            raise DataError(f"{path}:{line}: expected {d} fields, got {len(row)}")
    kinds: list[VariableKind] = []
    info = {"kinds": {}, "source": {}, "categorical_levels": {}}
    XT = np.empty((d, n))
    maskT = np.empty((d, n), dtype=bool)  # only NA or "" is missing, not "nan"
    cat_labels = {}
    columns = zip(*(row for _, row in body))
    for j, (name, col) in enumerate(zip(names, columns)):
        col = list(map(str.strip, col))
        declared = schema.get(name) if schema else None
        if schema is not None and declared is None:
            raise DataError(f"{path}: column {name!r} missing from the schema")
        tag, levels = declared if declared else \
            (infer_kind(list(filterfalse(_MISSING.__contains__, col))), None)
        info["source"][name] = "declared" if declared else "inferred"
        if tag == CAT:
            if levels is None:
                levels = sorted(set(col) - _MISSING)
            if len(levels) < 2:
                raise DataError(f"{path}: categorical column {name!r} needs >= 2 levels")
            kinds.append(VariableKind.categorical(len(levels)))
            cat_labels[j] = list(levels)
            info["categorical_levels"][name] = list(levels)
            lookup = {lab: float(h + 1) for h, lab in enumerate(levels)}
            lookup.update(dict.fromkeys(_MISSING, np.nan))
            values = list(map(lookup.get, col))
            bad, problem = None in values, "is not a declared level"
        else:
            kinds.append(VariableKind.continuous() if tag == CONT
                         else VariableKind.integer())
            try:
                values, bad = list(map(float, map(_AS_NAN.get, col, col))), False
            except ValueError:
                values, bad = list(map(_numeric, col)), True
            problem = "is not numeric"
        if bad:
            i = values.index(None)
            raise DataError(f"{path}: cell ({i + 1}, {name!r}) = {col[i]!r} {problem}")
        XT[j] = values
        observed = ~np.isnan(XT[j])
        if tag != CAT and n - np.count_nonzero(observed) != \
                col.count("") + col.count(MISSING_TOKEN):
            observed = [raw not in _MISSING for raw in col]  # a literal nan cell
        maskT[j] = observed
        info["kinds"][name] = tag
    ds = Dataset(XT.T, kinds, names=names, mask=maskT.T, cat_labels=cat_labels)
    return ds, info


def write_csv(dataset: Dataset, path: str) -> None:
    """Emit the dataset in the external format (missing cells as NA)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(dataset.names)
        for i in range(dataset.n):
            row = []
            for j, kind in enumerate(dataset.kinds):
                if not dataset.mask[i, j]:
                    row.append(MISSING_TOKEN)
                elif kind.tag == CONT:
                    row.append(repr(float(dataset.X[i, j])))
                elif kind.tag == INT:
                    row.append(str(int(dataset.X[i, j])))
                else:
                    level = int(dataset.X[i, j])
                    labels = dataset.cat_labels.get(j)
                    row.append(labels[level - 1] if labels else str(level))
            w.writerow(row)


def write_schema(dataset: Dataset, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for j, (name, kind) in enumerate(zip(dataset.names, dataset.kinds)):
            if kind.tag == CAT:
                labels = dataset.cat_labels.get(j) or [str(h + 1) for h in range(kind.levels)]
                fh.write(f"{name}:cat:{'|'.join(labels)}\n")
            else:
                fh.write(f"{name}:{kind.tag}\n")


def read_partition(path: str) -> np.ndarray:
    """Hard labels from a partition file: either our partition.csv (a
    ``label`` column) or one label per line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader
                if row and not row[0].startswith("#")]
    if not rows:
        raise DataError(f"{path}: empty partition file")
    header = [c.strip() for c in rows[0][1]]
    if "label" in header:
        col = header.index("label")
        for line, row in rows[1:]:
            if len(row) <= col:
                raise DataError(f"{path}:{line}: no label field (column {col + 1})")
        labels = [row[col].strip() for _, row in rows[1:]]
    else:
        labels = [row[0].strip() for _, row in rows]
        if labels[0].lower() in ("label", "labels"):
            labels = labels[1:]
    if not labels:
        raise DataError(f"{path}: no labels in the partition file")
    return np.array(labels)
