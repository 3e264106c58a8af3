"""The column-at-a-time CSV reader and the one-pass ``partition.csv`` writer
against the cell-by-cell and row-by-row references in ``oracles``."""
import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import read_csv_per_cell, write_partition_per_row

from mixsel import DataError, ScenarioSpec, generate
from mixsel.cli import _write_partition
from mixsel.criteria import map_partition
from mixsel.io import read_csv, read_schema, write_csv, write_schema


def read_both(path, schema=None):
    """Both readers' results, or both readers' error messages."""
    out = []
    for reader in (read_csv, read_csv_per_cell):
        try:
            out.append(reader(str(path), schema=schema))
        except DataError as exc:
            out.append(str(exc))
    return out


def assert_same_reading(path, schema=None):
    got, want = read_both(path, schema)
    if isinstance(want, str):
        assert got == want
        return
    (ds, info), (ref, ref_info) = got, want
    assert np.array_equal(ds.X, ref.X, equal_nan=True)
    assert np.array_equal(ds.mask, ref.mask)
    assert ds.kinds == ref.kinds
    assert ds.names == ref.names
    assert ds.cat_labels == ref.cat_labels
    assert info == ref_info


@pytest.mark.parametrize("family, seed", [("mixed-indep", 1), ("mixed-indep", 2),
                                          ("continuous-tridiag", 3)])
def test_reader_matches_the_per_cell_reference_on_generated_sets(tmp_path, family, seed):
    ds, _, _ = generate(ScenarioSpec(family, n=150, d=12, missing_rate=0.15, seed=seed))
    csv_path, schema_path = tmp_path / "d.csv", tmp_path / "d.schema"
    write_csv(ds, str(csv_path))
    write_schema(ds, str(schema_path))
    assert_same_reading(csv_path)
    assert_same_reading(csv_path, read_schema(str(schema_path)))


EDGE = [
    "a,b,c",
    " 1.5 , 3,x",
    " NA ,1_000,NA",
    "  ,1e3, y ",
    "-2.25,,y",
    "1e-3,NA,",
    "0.5, 7 ,x",
]


def write_edge(tmp_path, rows):
    path, schema = tmp_path / "edge.csv", tmp_path / "edge.schema"
    path.write_text("\n".join(rows) + "\n")
    schema.write_text("a:cont\nb:cont\nc:cat:x|NA|y\n")
    return path, read_schema(str(schema))


def test_reader_matches_the_per_cell_reference_on_edge_cells(tmp_path):
    path, schema = write_edge(tmp_path, EDGE)
    assert_same_reading(path)
    assert_same_reading(path, schema)
    ds, info = read_csv(str(path), schema=schema)
    # padded numbers and underscores parse; padded or blank NA cells are
    # missing, also where NA is a declared level
    assert ds.X[0, 0] == 1.5 and ds.X[1, 1] == 1000.0 and ds.X[5, 1] == 7.0
    assert ds.mask[:, 0].tolist() == [True, False, False, True, True, True]
    assert ds.mask[:, 2].tolist() == [True, False, True, True, False, True]
    assert info["categorical_levels"]["c"] == ["x", "NA", "y"]
    assert ds.X[2, 2] == 3.0


@pytest.mark.parametrize("row, cell, message", [
    (4, "-2.25,zz,w", r"cell \(4, 'b'\) = 'zz' is not numeric"),
    (5, "1e-3,NA,w", r"cell \(5, 'c'\) = 'w' is not a declared level"),
    (3, "nan,1e3, y ", r"non-finite observed cell at \(2, 0\)"),
    (6, "0.5, inf ,x", r"non-finite observed cell at \(5, 1\)"),
])
def test_reader_names_the_same_bad_cell_as_the_reference(tmp_path, row, cell, message):
    rows = list(EDGE)
    rows[row] = cell
    path, schema = write_edge(tmp_path, rows)
    assert_same_reading(path)
    assert_same_reading(path, schema)
    with pytest.raises(DataError, match=message):
        read_csv(str(path), schema=schema)


CELLS = ["", "  ", "NA", " NA ", "na", "0", " 1.5 ", "-2", "3", "1e3", "1_000", "-0",
         "nan", "inf", "a", " b ", "b"]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.sampled_from(CELLS), min_size=3, max_size=3),
                min_size=1, max_size=6),
       st.lists(st.sampled_from(["cont", "int", "cat:a|b", "cat:a|NA|b"]),
                min_size=3, max_size=3))
def test_reader_matches_the_per_cell_reference_on_random_cells(tmp_path_factory, rows,
                                                                kinds):
    tmp = tmp_path_factory.mktemp("cells")
    path, schema = tmp / "d.csv", tmp / "d.schema"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([["x", "y", "z"], *rows])
    schema.write_text("".join(f"{name}:{kind}\n" for name, kind in zip("xyz", kinds)))
    assert_same_reading(path)
    assert_same_reading(path, read_schema(str(schema)))


@pytest.mark.parametrize("g", [1, 2, 3])
def test_partition_writer_matches_the_per_row_reference(tmp_path, g):
    rng = np.random.default_rng(g)
    special = [0.0, 1.0, 1e-300, 5e-324]
    fuzzy = rng.choice(np.concatenate([special, rng.random(4)]), size=(40, g))
    fuzzy[:4, 0] = special
    partition = map_partition(fuzzy)
    _write_partition(str(tmp_path / "new.csv"), "abc123", partition, fuzzy)
    write_partition_per_row(str(tmp_path / "ref.csv"), "abc123", partition, fuzzy)
    blob = (tmp_path / "new.csv").read_bytes()
    assert blob == (tmp_path / "ref.csv").read_bytes()
    assert blob.count(b"\r\n") == 41 and b"5e-324" in blob
