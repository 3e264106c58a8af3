"""CSV ingestion and emission.

External format: a header row of column names; the literal ``NA``
(case-sensitive) or an empty field marks a missing cell. Kinds come from a
sidecar schema (one ``name:kind`` line per column, kind in {cont, int, cat},
optionally ``name:cat:level1|level2``) or are inferred: numeric with a decimal
point/exponent -> cont, numeric integral and nonnegative -> int, otherwise cat
with levels mapped 1..m in sorted order. Level mappings always land in the run
manifest so results are reproducible.

``csv.reader`` is the one parser, and its rows are kept as it returns them.
``read_csv`` then works a column at a time, in one path. Every column not
declared ``cat`` is first parsed from its raw fields in one ``float`` pass
(``float`` strips blanks itself, and the exact missing tokens read as
``nan``); only if that fails (a padded or blank missing token, a bad cell) is
it stripped and parsed once more. A declared numeric column that still fails
names its first bad cell, found by the same parse run on one cell at a time;
an undeclared one is categorical. An undeclared column that parses takes its
kind from that parse: its observed values and its text. A categorical column
takes one strip pass and one level lookup. The mask comes from the NaNs. A
column whose NaN count differs from its missing-token count holds a literal
``nan`` cell, and only then is each cell tested for a missing token. The
physical line of a malformed row is found only after the row is, by reading
the file again.
"""
from __future__ import annotations

import csv

import numpy as np

from .data import CAT, CONT, INT, DataError, Dataset, VariableKind

MISSING_TOKEN = "NA"
_MISSING = frozenset(("", MISSING_TOKEN))
_AS_NAN = dict.fromkeys(_MISSING, "nan")  # what float() reads a missing cell as


def infer_kind(fields, x: np.ndarray) -> str:
    """Kind of a numeric column from its fields and its observed values ``x``:
    cont if a field has a decimal point or an exponent or a value is not a
    nonnegative integer, else int. The missing tokens hold no such mark."""
    text = "".join(fields)
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


def _is_data_row(row: list) -> bool:
    """A header or body row: neither blank nor a lone ``#`` comment field."""
    return bool(row) and not (row[0].startswith("#") and len(row) == 1)


def _is_label_row(row: list) -> bool:
    """A row of a partition file: neither blank nor a ``#`` comment."""
    return bool(row) and not row[0].startswith("#")


def _rows(path: str, keep) -> list:
    """The rows of ``path`` that ``keep`` keeps, as ``csv.reader`` returns them."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(filter(keep, csv.reader(fh)))


def _first_bad_row(path: str, keep, bad) -> tuple[int, list]:
    """(physical line, row) of the first row that ``keep`` keeps and ``bad``
    flags. Rows are kept without their line numbers, so the file is read
    again, only to name a malformed row in a message."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        row = next(row for row in reader if keep(row) and bad(row))
        return reader.line_num, row


def _parse_fields(fields, out: np.ndarray) -> bool:
    """Parse a numeric column's fields into ``out`` in one ``float`` pass,
    the exact missing tokens as ``nan``. False, with ``out`` untouched, if a
    field does not parse as it stands: a bad cell, or in raw fields a padded
    or blank missing token."""
    try:
        out[:] = np.fromiter(map(float, map(_AS_NAN.get, fields, fields)), float,
                             len(fields))
    except ValueError:
        return False
    return True


def read_csv(path: str, schema: dict | None = None):
    """Load a dataset; returns (Dataset, manifest info).

    The manifest info records, per column, the kind, whether it was declared
    or inferred, and the categorical level mapping.
    """
    rows = _rows(path, _is_data_row)
    if len(rows) < 2:
        raise DataError(f"{path}: need a header row and at least one data row")
    header, *body = rows
    names = [c.strip() for c in header]
    n, d = len(body), len(names)
    seen = set()
    for name in names:
        if name in seen:
            raise DataError(f"{path}: duplicate column name {name!r}")
        seen.add(name)
    if set(map(len, body)) != {d}:
        line, row = _first_bad_row(path, _is_data_row, lambda row: len(row) != d)
        raise DataError(f"{path}:{line}: expected {d} fields, got {len(row)}")
    kinds: list[VariableKind] = []
    XT = np.empty((d, n))
    maskT = np.empty((d, n), dtype=bool)  # only NA or "" is missing, not "nan"
    cat_labels = {}
    for j, (name, raw) in enumerate(zip(names, zip(*body))):
        declared = schema.get(name) if schema else None
        if schema is not None and declared is None:
            raise DataError(f"{path}: column {name!r} missing from the schema")
        tag, levels = declared or (None, None)
        col = raw  # while every field parses as it stands, none needs stripping
        if tag == CAT or not _parse_fields(col, XT[j]):
            col = list(map(str.strip, raw))
            if tag != CAT and not _parse_fields(col, XT[j]):
                if tag is not None:
                    i = next(i for i, cell in enumerate(col)
                             if not _parse_fields((cell,), XT[j, i:i + 1]))
                    raise DataError(f"{path}: cell ({i + 1}, {name!r}) = {col[i]!r} "
                                    "is not numeric")
                tag = CAT
        if tag == CAT:
            if levels is None:
                levels = sorted(set(col) - _MISSING)
            if len(levels) < 2:
                raise DataError(f"{path}: categorical column {name!r} needs >= 2 levels")
            cat_labels[j] = list(levels)
            lookup = {lab: float(h + 1) for h, lab in enumerate(levels)}
            lookup.update(dict.fromkeys(_MISSING, np.nan))
            values = list(map(lookup.get, col))
            if None in values:
                i = values.index(None)
                raise DataError(f"{path}: cell ({i + 1}, {name!r}) = {col[i]!r} "
                                "is not a declared level")
            XT[j] = values
        maskT[j] = ~np.isnan(XT[j])
        if tag != CAT and n - np.count_nonzero(maskT[j]) != \
                col.count("") + col.count(MISSING_TOKEN):
            # a literal nan cell
            maskT[j] = [cell not in _MISSING for cell in map(str.strip, col)]
        tag = tag or infer_kind(col, XT[j, maskT[j]])
        kinds.append(VariableKind(tag, len(levels or ())))
    info = {"kinds": {name: kind.tag for name, kind in zip(names, kinds)},
            "source": dict.fromkeys(names, "inferred" if schema is None else "declared"),
            "categorical_levels": {names[j]: list(levels) for j, levels in cat_labels.items()}}
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
    rows = _rows(path, _is_label_row)
    if not rows:
        raise DataError(f"{path}: empty partition file")
    header = [c.strip() for c in rows[0]]
    if "label" in header:
        col = header.index("label")
        if min(map(len, rows)) <= col:
            line, _ = _first_bad_row(path, _is_label_row, lambda row: len(row) <= col)
            raise DataError(f"{path}:{line}: no label field (column {col + 1})")
        labels = [row[col].strip() for row in rows[1:]]
    else:
        labels = [row[0].strip() for row in rows]
        if labels[0].lower() in ("label", "labels"):
            labels = labels[1:]
    if not labels:
        raise DataError(f"{path}: no labels in the partition file")
    return np.array(labels)
