import numpy as np
import pytest

from mixsel import (AllMissingColumn, DataError, Dataset, Hyperparameters, Model,
                    NegativeInteger, OutOfRangeCategorical, VariableKind)
from mixsel.io import infer_kind, read_csv, read_schema, write_csv, write_schema

CONT = VariableKind.continuous()
INT = VariableKind.integer()


def test_valid_small_dataset():
    ds = Dataset([[0.5, 1.0], [1.5, 2.0]], [CONT, VariableKind.categorical(2)])
    assert ds.n == 2 and ds.d == 2
    assert ds.mask.all()


def test_all_missing_column_rejected():
    X = np.array([[1.0, np.nan], [2.0, np.nan]])
    with pytest.raises(AllMissingColumn):
        Dataset(X, [CONT, CONT])


def test_out_of_range_categorical():
    with pytest.raises(OutOfRangeCategorical):
        Dataset([[5.0]], [VariableKind.categorical(3)])


def test_negative_integer_rejected():
    with pytest.raises(NegativeInteger):
        Dataset([[1.0], [-2.0]], [INT])
    with pytest.raises(NegativeInteger):
        Dataset([[1.5]], [INT])


def _observed_counts(ds, t):
    """Observed cells per (class, continuous column) under the (g, n) weights
    ``t``, as the engines count them: ``Packed.class_sums`` of the mask."""
    return ds.packed().class_sums(t)["Mc"]


def test_observed_counts():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 1))
    ds = Dataset(X, [CONT])
    assert _observed_counts(ds, np.ones((1, ds.n)))[0, 0] == 200

    X = rng.normal(size=(10, 1))
    X[:3, 0] = np.nan
    ds = Dataset(X, [CONT])
    assert _observed_counts(ds, np.ones((1, ds.n)))[0, 0] == 7

    # per-class counts partition the column count for any labelling
    X = rng.normal(size=(40, 2))
    X[rng.random((40, 2)) < 0.3] = np.nan
    X[0, :] = 0.0  # keep both columns observed somewhere
    ds = Dataset(X, [CONT, CONT])
    z = rng.integers(1, 4, size=40)
    for j in range(2):
        parts = _observed_counts(ds, np.eye(3)[z - 1].T)[:, j].sum()
        assert parts == _observed_counts(ds, np.ones((1, ds.n)))[0, j]


def test_mask_defines_missingness():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    mask = np.array([[True, False], [True, True]])
    ds = Dataset(X, [CONT, CONT], mask=mask)
    assert np.isnan(ds.X[0, 1]) and not ds.mask.all()


def test_dataset_copies_the_callers_arrays_once_and_leaves_them_alone():
    X = np.array([[1.0, 2.0], [3.0, np.nan], [5.0, 6.0]])
    mask = np.array([[True, False], [True, False], [True, True]])
    X0, mask0 = X.copy(), mask.copy()
    ds = Dataset(X, [CONT, CONT], mask=mask)
    assert X.flags.writeable and mask.flags.writeable
    assert np.array_equal(X, X0, equal_nan=True) and np.array_equal(mask, mask0)
    assert not np.shares_memory(ds.X, X) and not np.shares_memory(ds.mask, mask)
    assert ds.X.flags.c_contiguous and ds.mask.flags.c_contiguous
    assert np.array_equal(ds.X, [[1.0, np.nan], [3.0, np.nan], [5.0, 6.0]], equal_nan=True)
    # without a mask, and from a Fortran-ordered matrix
    F = np.asfortranarray(X)
    ds = Dataset(F, [CONT, CONT])
    assert F.flags.writeable and not np.shares_memory(ds.X, F)
    assert ds.X.flags.c_contiguous and ds.mask.flags.c_contiguous
    assert np.array_equal(ds.mask, ~np.isnan(X))


def test_model_invariants():
    m = Model(2, [1, 0, 1])
    assert list(np.flatnonzero(m.omega == 1)) == [0, 2]
    assert list(np.flatnonzero(m.omega == 0)) == [1]
    with pytest.raises(ValueError):
        Model(0, [1])
    with pytest.raises(ValueError):
        Model(2, [2, 0])


def test_hyperparameters_default_and_positivity():
    ds = Dataset([[1.0, 2.0], [3.0, 1.0]], [CONT, INT])
    h = Hyperparameters.default(ds)
    assert h.u == 0.5
    assert h.cont_c[0] == pytest.approx(2.0)
    with pytest.raises(ValueError):
        Hyperparameters(u=0.0, cont_a=h.cont_a, cont_b=h.cont_b, cont_c=h.cont_c,
                        cont_d=h.cont_d, int_a=h.int_a, int_b=h.int_b,
                        cat_a=h.cat_a)


@pytest.mark.parametrize("field, value", [("u", np.nan), ("u", np.inf), ("cont_b", np.inf),
                                          ("cont_a", np.nan), ("cont_c", np.nan),
                                          ("cont_c", -np.inf), ("cat_a", np.inf)])
def test_hyperparameters_reject_non_finite_values(field, value):
    # NaN passes a `<= 0` check and gave a NaN MICL value with RuntimeWarnings
    from dataclasses import replace
    ds = Dataset([[1.0, 2.0, 1.0], [3.0, 1.0, 2.0]], [CONT, INT, VariableKind.categorical(2)])
    h = Hyperparameters.default(ds)
    with pytest.raises(ValueError):
        replace(h, **{field: value if field == "u" else np.full_like(getattr(h, field), value)})


def test_kind_inference():
    assert infer_kind(["1.5", "2"]) == "cont"
    assert infer_kind(["1e3", "2"]) == "cont"
    assert infer_kind(["1", "2", "30"]) == "int"
    assert infer_kind(["-1", "2"]) == "cont"  # negatives leave Poisson support
    assert infer_kind(["a", "2"]) == "cat"


def test_csv_roundtrip_with_schema(tmp_path):
    rng = np.random.default_rng(3)
    X = np.column_stack([
        rng.normal(size=12),
        rng.poisson(4, 12).astype(float),
        rng.integers(1, 4, 12).astype(float),
    ])
    X[rng.random((12, 3)) < 0.25] = np.nan
    X[0] = [0.25, 2.0, 1.0]
    kinds = [CONT, INT, VariableKind.categorical(3)]
    ds = Dataset(X, kinds, names=["x", "y", "w"], cat_labels={2: ["lo", "mid", "hi"]})
    csv_path, schema_path = tmp_path / "d.csv", tmp_path / "d.schema"
    write_csv(ds, str(csv_path))
    write_schema(ds, str(schema_path))
    back, info = read_csv(str(csv_path), schema=read_schema(str(schema_path)))
    assert [k.tag for k in back.kinds] == [k.tag for k in ds.kinds]
    assert back.kinds[2].levels == 3
    assert np.array_equal(back.mask, ds.mask)
    obs = ds.mask
    assert np.array_equal(back.X[obs], ds.X[obs])
    assert info["source"]["x"] == "declared"


def test_csv_inference_roundtrip(tmp_path):
    ds = Dataset([[0.5, 2.0, 1.0], [1.5, 3.0, 2.0]],
                 [CONT, INT, VariableKind.categorical(2)],
                 cat_labels={2: ["no", "yes"]})
    path = tmp_path / "d.csv"
    write_csv(ds, str(path))
    back, info = read_csv(str(path))
    assert [k.tag for k in back.kinds] == ["cont", "int", "cat"]
    assert info["source"]["v1"] == "inferred"
    assert info["categorical_levels"]["v3"] == ["no", "yes"]
    assert np.array_equal(back.X, ds.X)


def test_parameters_block_accessor():
    from mixsel import EmConfig, run_em
    rng = np.random.default_rng(1)
    X = np.column_stack([rng.normal(size=30), rng.poisson(2, 30),
                         rng.integers(1, 3, 30)]).astype(float)
    ds = Dataset(X, [CONT, INT, VariableKind.categorical(2)])
    res = run_em(ds, Model(2, [1, 1, 0]), EmConfig(seed=0, n_starts=2))
    b = res.theta.block(0, 0)
    assert b.shape == (2,) and b[1] > 0
    assert res.theta.block(1, 1).shape == (1,)
    probs = res.theta.block(0, 2)
    assert probs.shape == (2,) and probs.sum() == pytest.approx(1.0)
    # shared column: identical across components
    assert np.array_equal(res.theta.block(0, 2), res.theta.block(1, 2))


def test_packed_onehot_is_c_ordered_and_matches_loop_reference():
    rng = np.random.default_rng(8)
    n = 30
    X = np.column_stack([rng.normal(size=n), rng.integers(1, 3, n),
                         rng.integers(1, 5, n), rng.integers(1, 4, n)]).astype(float)
    X[rng.random(X.shape) < 0.2] = np.nan
    X[0] = [0.0, 1.0, 4.0, 3.0]
    kinds = [CONT, VariableKind.categorical(2), VariableKind.categorical(4),
             VariableKind.categorical(3)]
    p = Dataset(X, kinds).packed()
    assert p.onehot.flags.c_contiguous and p.onehot.dtype == float
    ref = np.zeros((n, 3, 4))
    mask = np.zeros((3, 4), dtype=bool)
    for jj, j in enumerate((1, 2, 3)):
        mask[jj, :kinds[j].levels] = True
        for i in range(n):
            if not np.isnan(X[i, j]):
                ref[i, jj, int(X[i, j]) - 1] = 1.0
    # (n_cat, m_max, n): n is the inner axis of every packed matrix
    assert np.array_equal(p.onehot, ref.transpose(1, 2, 0))
    assert np.array_equal(p.level_mask, mask)


def test_packed_centers_continuous_cells():
    ds = Dataset([[1e8 + 1.0, 2.0], [np.nan, 1.0], [1e8 + 3.0, 0.0]], [CONT, INT])
    p = ds.packed()
    assert p.shift[0] == 1e8 + 2.0
    assert list(p.Xc[0]) == [-1.0, 0.0, 1.0]
    assert Hyperparameters.default(ds).cont_c[0] == 1e8 + 2.0


def test_read_csv_error_names_the_file_line(tmp_path):
    # comment and blank lines count: the short row is line 5 of the file
    path = tmp_path / "d.csv"
    path.write_text("# note\na,b\n1,2\n\n3\n")
    with pytest.raises(DataError, match=r"d\.csv:5: expected 2 fields, got 1"):
        read_csv(str(path))
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(DataError, match=r"d\.csv:3: expected 2 fields, got 1"):
        read_csv(str(path))


def test_read_csv_names_the_first_bad_cell_in_column_order(tmp_path):
    path, schema = tmp_path / "d.csv", tmp_path / "d.schema"
    path.write_text("a,b,c\n1,q,u\nz,2,w\n")
    schema.write_text("a:int\nb:int\nc:cat:u|v\n")
    with pytest.raises(DataError, match=r"cell \(2, 'a'\) = 'z' is not numeric"):
        read_csv(str(path), schema=read_schema(str(schema)))
    schema.write_text("a:cat:1|z\nb:cat:q|2\nc:cat:u|v\n")
    with pytest.raises(DataError, match=r"cell \(2, 'c'\) = 'w' is not a declared level"):
        read_csv(str(path), schema=read_schema(str(schema)))


def test_read_csv_rejects_duplicate_column_names(tmp_path):
    # the manifest is keyed by name, so a repeated name would hide a column
    path = tmp_path / "d.csv"
    path.write_text("a,a,b\n1.5,x,1\n2.5,y,2\n")
    with pytest.raises(DataError, match=r"d\.csv: duplicate column name 'a'"):
        read_csv(str(path))
    path.write_text("a, b,b\n1.5,x,1\n2.5,y,2\n")  # names are compared stripped
    with pytest.raises(DataError, match="duplicate column name 'b'"):
        read_csv(str(path))
