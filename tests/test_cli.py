import json

import numpy as np
import pytest

from mixsel import Dataset, VariableKind
from mixsel.cli import main
from mixsel.io import write_csv, write_schema


@pytest.fixture()
def sample_csv(tmp_path):
    rng = np.random.default_rng(0)
    z = np.repeat([0, 1], 30)
    X = np.column_stack([
        rng.normal(3.0 * z, 1.0),
        rng.normal(size=60),
        rng.poisson(2.0, 60),
        rng.integers(1, 3, 60),
    ]).astype(float)
    X[rng.random(X.shape) < 0.1] = np.nan
    X[0] = [0.1, 0.2, 1.0, 1.0]
    ds = Dataset(X, [VariableKind.continuous(), VariableKind.continuous(),
                     VariableKind.integer(), VariableKind.categorical(2)],
                 names=["sig", "noise", "count", "flag"],
                 cat_labels={3: ["off", "on"]})
    path = tmp_path / "data.csv"
    write_csv(ds, str(path))
    write_schema(ds, str(tmp_path / "data.schema"))
    return str(path), str(tmp_path / "data.schema")


def test_cluster_writes_artifacts(sample_csv, tmp_path, capsys):
    data, schema = sample_csv
    out = tmp_path / "run"
    code = main(["cluster", data, "--schema", schema, "--criterion", "bic",
                 "--gmax", "3", "--starts", "5", "--seed", "7", "--out", str(out)])
    assert code == 0
    for name in ("model.json", "partition.csv", "parameters.json", "manifest.json"):
        assert (out / name).exists()
    model = json.loads((out / "model.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    assert model["manifest_id"] == manifest["manifest_id"]
    assert len(model["per_g"]) == 3
    params = json.loads((out / "parameters.json").read_text())
    assert len(params["columns"]) == 4
    lines = (out / "partition.csv").read_text().splitlines()
    assert lines[0].startswith("# manifest_id:")
    assert len(lines) == 2 + 60


def test_cluster_reruns_byte_identical(sample_csv, tmp_path):
    data, schema = sample_csv
    out = tmp_path / "a"
    args = ["cluster", data, "--schema", schema, "--criterion", "aic",
            "--gmax", "2", "--starts", "4", "--seed", "11", "--out", str(out)]
    assert main(args) == 0
    first = {name: (out / name).read_bytes()
             for name in ("model.json", "partition.csv", "parameters.json")}
    assert main(args) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob


def test_cluster_inference_recorded_without_schema(sample_csv, tmp_path):
    data, _ = sample_csv
    out = tmp_path / "run"
    code = main(["cluster", data, "--criterion", "bic", "--gmax", "2",
                 "--starts", "3", "--seed", "3", "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema"]["source"]["sig"] == "inferred"
    assert "flag" in manifest["schema"]["categorical_levels"]


def test_cluster_micl_emits_refit_parameters(sample_csv, tmp_path):
    data, schema = sample_csv
    out = tmp_path / "run"
    code = main(["cluster", data, "--schema", schema, "--criterion", "micl",
                 "--gmax", "2", "--starts", "4", "--seed", "5", "--out", str(out)])
    assert code == 0
    params = json.loads((out / "parameters.json").read_text())
    assert params["tau"]
    finite = json.loads((out / "model.json").read_text())
    assert all(np.isfinite(rec["value"]) for rec in finite["per_g"])


def test_usage_errors_exit_two(sample_csv, tmp_path):
    data, _ = sample_csv
    with pytest.raises(SystemExit) as exc:
        main(["cluster", data, "--gmax", "0", "--seed", "1",
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["cluster", data, "--out", str(tmp_path / "x")])  # --seed required
    assert exc.value.code == 2
    assert main(["cluster", str(tmp_path / "missing.csv"), "--seed", "1",
                 "--out", str(tmp_path / "x")]) == 2


def test_ari_command(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("label\n1\n1\n2\n2\n")
    b.write_text("label\n1\n2\n1\n2\n")
    assert main(["ari", str(a), str(a)]) == 0
    assert capsys.readouterr().out.strip() == "1.000000"
    assert main(["ari", str(a), str(b)]) == 0
    assert capsys.readouterr().out.strip() == "-0.500000"
    c = tmp_path / "c.csv"
    c.write_text("label\n1\n2\n")
    assert main(["ari", str(a), str(c)]) == 2


def test_ari_reads_partition_csv(sample_csv, tmp_path, capsys):
    data, schema = sample_csv
    out = tmp_path / "run"
    main(["cluster", data, "--schema", schema, "--criterion", "bic",
          "--gmax", "2", "--starts", "3", "--seed", "2", "--out", str(out)])
    capsys.readouterr()
    assert main(["ari", str(out / "partition.csv"), str(out / "partition.csv")]) == 0
    assert capsys.readouterr().out.strip() == "1.000000"


def test_simulate_single_replicate(tmp_path, capsys):
    out = tmp_path / "sim"
    code = main(["simulate", "--family", "continuous", "--n", "60", "--d", "8",
                 "--target-error", "0.05", "--replicates", "1", "--seed", "19",
                 "--criteria", "bic", "--gmax", "2", "--starts", "3",
                 "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    records = (out / "records.csv").read_text().splitlines()
    assert summary["summary"]["bic"]["replicates"] == 1
    # with one replicate the summary equals the record
    row = records[2].split(",")
    assert float(row[2]) == pytest.approx(summary["summary"]["bic"]["ari"])
    assert (out / "manifest.json").exists()


def test_cluster_rejects_threads_flag(sample_csv, tmp_path):
    # starts and g values run sequentially; only simulate takes --threads
    data, schema = sample_csv
    with pytest.raises(SystemExit) as exc:
        main(["cluster", data, "--schema", schema, "--seed", "1", "--threads", "2",
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_simulate_mixed_rejects_rho(tmp_path, capsys):
    # the mixed design has no correlation knob; a nonzero rho is a usage error
    out = tmp_path / "sim"
    code = main(["simulate", "--family", "mixed", "--n", "60", "--d", "12",
                 "--rho", "0.3", "--replicates", "1", "--seed", "3",
                 "--out", str(out)])
    assert code == 2
    assert "rho" in capsys.readouterr().err
    assert not out.exists()


def test_ari_one_row_and_header_only_files(tmp_path, capsys):
    one = tmp_path / "one.csv"
    one.write_text("label\n1\n")
    assert main(["ari", str(one), str(one)]) == 0
    assert capsys.readouterr().out.strip() == "1.000000"
    for text in ("label\n", "row,label,t_1\n"):
        empty = tmp_path / "empty.csv"
        empty.write_text(text)
        assert main(["ari", str(empty), str(empty)]) == 2
        assert "no labels" in capsys.readouterr().err
    # a label header over a row too short to hold the label names the line
    empty.write_text("row,label\n3\n")
    assert main(["ari", str(empty), str(empty)]) == 2
    assert "empty.csv:2: no label field" in capsys.readouterr().err


def test_simulate_unreachable_target_error_exits_one(tmp_path, capsys):
    # a Bayes error of 0.45 lies above the error at zero separation
    code = main(["simulate", "--family", "mixed", "--n", "20", "--d", "6",
                 "--target-error", "0.45", "--replicates", "1", "--seed", "1",
                 "--out", str(tmp_path / "sim")])
    assert code == 1
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("criterion", ["bic", "micl"])
def test_cluster_more_components_than_rows_exits_one(tmp_path, capsys, criterion):
    data = tmp_path / "three.csv"
    data.write_text("x,k\n0.5,1\n1.5,2\n2.5,4\n")
    code = main(["cluster", str(data), "--criterion", criterion, "--gmax", "5",
                 "--starts", "2", "--seed", "1", "--out", str(tmp_path / "run")])
    assert code == 1
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cluster_overflowing_cell_exits_one_without_model(tmp_path, capsys):
    # a valid cell whose square overflows: Packed's squared-value row holds
    # inf, the objective comes out NaN and dump_json refuses to write it
    data, out = tmp_path / "big.csv", tmp_path / "run"
    data.write_text("x,k\n0.5,1\n1e200,2\n2.5,4\n1.0,3\n")
    code = main(["cluster", str(data), "--gmax", "2", "--starts", "2", "--seed", "1",
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("numerical failure")
    assert not (out / "model.json").exists()


@pytest.mark.parametrize("csv_text, schema_text", [
    ("x,k\n0.5,1\n1.5,nan\n2.5,4\n", None),
    ("x,k\n0.5,1\n1.5,inf\n2.5,4\n", None),
    ("x,c\n0.5,a\n1.5,a\n2.5,NA\n", None),
    ("x,k\n0.5,1\n1.5,2\n2.5,4\n", "x:cont\n"),
    ("x,k\n0.5,1\n1.5,2\n2.5,4\n", "x:cont\nk:real\n"),
    ("x,k\n0.5,1\n1.5\n2.5,4\n", None),
    ("x,x\n0.5,1\n1.5,2\n2.5,4\n", None),
], ids=["nan-cell", "inf-cell", "one-level", "schema-missing-column",
        "schema-unknown-kind", "ragged-row", "duplicate-name"])
def test_cluster_invalid_input_exits_two_without_output(tmp_path, capsys, csv_text,
                                                        schema_text):
    data, out = tmp_path / "data.csv", tmp_path / "run"
    data.write_text(csv_text)
    args = ["cluster", str(data), "--seed", "1", "--out", str(out)]
    if schema_text is not None:
        (tmp_path / "data.schema").write_text(schema_text)
        args += ["--schema", str(tmp_path / "data.schema")]
    assert main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not out.exists()
