import contextlib
import functools
import io
import json
import os
import string
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixsel import Dataset, VariableKind
from mixsel.cli import main
from mixsel.criteria import CRITERIA
from mixsel.em import EmConfig
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


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_simulate_threads_below_one_exits_two(tmp_path, capsys, monkeypatch, threads):
    def no_campaign(*args, **kwargs):
        raise AssertionError("a campaign started")

    monkeypatch.setattr("mixsel.cli.run_campaign", no_campaign)
    out = tmp_path / "sim"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--family", "mixed", "--replicates", "1", "--seed", "3",
              "--threads", threads, "--out", str(out)])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_unknown_criterion_exits_two_before_calibrating(tmp_path, capsys,
                                                                 monkeypatch):
    def no_calibration(*args, **kwargs):
        raise AssertionError("calibrate_delta ran")

    monkeypatch.setattr("mixsel.campaign.calibrate_delta", no_calibration)
    out = tmp_path / "sim"
    code = main(["simulate", "--family", "mixed", "--n", "40", "--d", "12",
                 "--replicates", "1", "--seed", "3", "--criteria", "bic,nope",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "nope" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("criteria", [",", " , "])
def test_simulate_empty_criteria_list_exits_two_before_calibrating(tmp_path, capsys,
                                                                    monkeypatch, criteria):
    def no_calibration(*args, **kwargs):
        raise AssertionError("calibrate_delta ran")

    monkeypatch.setattr("mixsel.campaign.calibrate_delta", no_calibration)
    out = tmp_path / "sim"
    code = main(["simulate", "--family", "mixed", "--n", "40", "--d", "12",
                 "--replicates", "1", "--seed", "3", "--criteria", criteria,
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "criterion" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("family", ["continuous", "mixed"])
def test_simulate_default_d_suits_both_families(tmp_path, family):
    out = tmp_path / "sim"
    code = main(["simulate", "--family", family, "--n", "30", "--replicates", "1",
                 "--seed", "4", "--criteria", "bic", "--gmax", "2", "--starts", "2",
                 "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"]["d"] == 12


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


def test_cluster_gmax_above_the_row_count_exits_one_before_any_fit(tmp_path, capsys,
                                                                   monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran")
    monkeypatch.setattr("mixsel.criteria.run_starts", no_fit)
    data, out = tmp_path / "three.csv", tmp_path / "run"
    data.write_text("x,k\n0.5,1\n1.5,2\n2.5,4\n")
    code = main(["cluster", str(data), "--gmax", "4", "--starts", "2", "--seed", "1",
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["numerical failure: g_max 4 exceeds n = 3, the number of rows"]
    assert not out.exists()


def test_cluster_lets_a_programming_error_through(sample_csv, tmp_path, monkeypatch):
    # only named failures exit 1; any other ValueError keeps its traceback
    def broken(*args, **kwargs):
        raise ValueError("not a numerical failure")
    monkeypatch.setattr("mixsel.cli.select_model", broken)
    data, schema = sample_csv
    with pytest.raises(ValueError, match="not a numerical failure"):
        main(["cluster", data, "--schema", schema, "--seed", "1",
              "--out", str(tmp_path / "run")])


@pytest.mark.parametrize("seed", range(6))
def test_cluster_masked_cells_far_from_a_spike_give_a_finite_model(tmp_path, capsys, seed):
    # a 1e150 pair and missing cells in one column: a class collapses onto
    # the pair, and its spike is evaluated cell by cell over observed cells
    # only, so no masked cell turns the fit into NaN; the winner is the
    # degenerate fallback fit
    data, out = tmp_path / "far.csv", tmp_path / "run"
    data.write_text("x,y\n1e150,1\n1e150,2\n0,1\n0.5,NA\n-1,3\n2,NA\n,2\n,1\n1,1\n0.3,2\n")
    code = main(["cluster", str(data), "--criterion", "bic-noselect", "--gmax", "3",
                 "--starts", "2", "--seed", str(seed), "--out", str(out)])
    assert code == 0
    model = json.loads((out / "model.json").read_text())
    assert np.isfinite([(rec["value"], rec["loglik"]) for rec in model["per_g"]]).all()
    assert model["per_g"][model["g_best"] - 1]["degenerate"] is True
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: ") and "degenerate" in err[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cluster_overflowing_cell_exits_one_without_model(tmp_path, capsys):
    # a valid cell whose square overflows: Packed's squared-value row holds
    # inf, the objective comes out NaN and dump_json refuses to write it
    data, out = tmp_path / "big.csv", tmp_path / "run"
    data.write_text("x,k\n0.5,1\n1e200,2\n2.5,4\n1.0,3\n")
    code = main(["cluster", str(data), "--gmax", "2", "--starts", "2", "--seed", "1",
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("numerical failure")
    assert "cell (1, 0) = 1e+200" in err
    assert not (out / "model.json").exists()
    assert not out.exists()


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


def test_cluster_flags_a_degenerate_winner(tmp_path, capsys):
    # tests/test_em.py's all-spiked set: three pairs of exact duplicates, so
    # every 3-class start collapses onto variance spikes and only the floored
    # fallback start, flagged degenerate, survives
    data, out = tmp_path / "dup.csv", tmp_path / "run"
    data.write_text("x\n0\n0\n5\n5\n10\n10\n")
    (tmp_path / "dup.schema").write_text("x:cont\n")
    code = main(["cluster", str(data), "--schema", str(tmp_path / "dup.schema"),
                 "--criterion", "bic-noselect", "--gmax", "3", "--starts", "3",
                 "--seed", "0", "--out", str(out)])
    assert code == 0
    model = json.loads((out / "model.json").read_text())
    best = model["per_g"][model["g_best"] - 1]
    assert model["g_best"] == 3 and best["degenerate"] is True
    assert [rec["degenerate"] for rec in model["per_g"]] == [False, False, True]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: ") and "degenerate" in err[0]


def test_cluster_flags_a_winner_cut_at_its_iteration_budget(sample_csv, tmp_path, capsys,
                                                              monkeypatch):
    monkeypatch.setattr("mixsel.cli.EmConfig", functools.partial(EmConfig, max_iterations=2))
    data, schema = sample_csv
    out = tmp_path / "run"
    assert main(["cluster", data, "--schema", schema, "--criterion", "aic",
                 "--gmax", "3", "--starts", "3", "--seed", "7", "--out", str(out)]) == 0
    model = json.loads((out / "model.json").read_text())
    # a one-class fit is at its optimum after one M step; two classes are not
    assert [rec["converged"] for rec in model["per_g"]] == [True, False, False]
    assert [rec["n_iterations"] for rec in model["per_g"]] == [2, 2, 2]
    assert model["g_best"] == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: ")
    assert "did not converge in 2 iterations" in err[0]


def test_cluster_records_flags_per_g(sample_csv, tmp_path, capsys):
    data, schema = sample_csv
    for criterion in ("bic", "micl"):
        out = tmp_path / criterion
        assert main(["cluster", data, "--schema", schema, "--criterion", criterion,
                     "--gmax", "2", "--starts", "3", "--seed", "7", "--out", str(out)]) == 0
        model = json.loads((out / "model.json").read_text())
        for rec in model["per_g"]:
            flags = (rec["loglik"], rec["n_iterations"], rec["converged"], rec["degenerate"])
            if criterion == "bic" or rec["g"] == model["g_best"]:
                assert flags[2:] == (True, False) and flags[0] is not None
                assert isinstance(flags[1], int) and 2 <= flags[1] < 500
            else:  # micl runs EM only for its winner
                assert flags == (None, None, None, None)
        assert capsys.readouterr().err == ""


# extreme but valid cells, and missing ones; declared cat columns list all
# 26 letters as levels
FUZZ_CELLS = {"cont": ["1e150", "-1e150", "1e-300", "0", "0.5", "-2.25", "3.0", "NA", ""],
              "int": ["0", "1", "3", str(2 ** 40), "NA", ""],
              "cat": ["a", "b", "c", "d", "z", "NA", ""]}


@st.composite
def _fuzz_csv(draw):
    """(column kinds, rows, whether a schema declares the kinds): rows drawn
    from a pool of at most 6, so duplicate rows are common."""
    kinds = draw(st.lists(st.sampled_from(sorted(FUZZ_CELLS)), min_size=1, max_size=3))
    pool = draw(st.lists(st.tuples(*[st.sampled_from(FUZZ_CELLS[k]) for k in kinds]),
                         min_size=1, max_size=6))
    return kinds, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=14)), draw(st.booleans())


def _quiet_main(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


def _outputs(out_dir):
    """The files a same-seed rerun reproduces, without their manifest lines."""
    files = {}
    for name in ("model.json", "partition.csv", "parameters.json"):
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            files[name] = [line for line in fh if "manifest_id" not in line]
    return files


@settings(max_examples=80, deadline=None)
@given(_fuzz_csv(), st.sampled_from(CRITERIA), st.integers(1, 4), st.integers(0, 3))
def test_cluster_on_extreme_valid_cells_answers_or_names_its_failure(data, criterion, gmax,
                                                                     seed):
    # exit 0 with finite outputs that a same-seed rerun repeats byte for
    # byte, or exit 1 or 2 with one line naming the cause; g_max may exceed
    # n, and one g's starts may all be discarded while the others' run on
    kinds, rows, declared = data
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(f"c{j}" for j in range(len(kinds))) + "\n")
            fh.writelines(",".join(row) + "\n" for row in rows)
        argv = ["cluster", path, "--criterion", criterion, "--gmax", str(gmax),
                "--starts", "2", "--seed", str(seed)]
        if declared:
            levels = ":" + "|".join(string.ascii_lowercase)
            with open(os.path.join(tmp, "data.schema"), "w", encoding="utf-8") as fh:
                fh.writelines(f"c{j}:{kind}{levels if kind == 'cat' else ''}\n"
                              for j, kind in enumerate(kinds))
            argv += ["--schema", os.path.join(tmp, "data.schema")]
        code, err = _quiet_main(argv + ["--out", os.path.join(tmp, "a")])
        if code != 0:
            assert code in (1, 2) and len(err) == 1, err
            prefix = "numerical failure: " if code == 1 else "error: "
            assert err[0].startswith(prefix) and len(err[0]) > len(prefix) + 10, err
            assert "JSON" not in err[0]
            return
        first = _outputs(os.path.join(tmp, "a"))
        model = json.loads("".join(first["model.json"]))
        assert np.isfinite([rec["value"] for rec in model["per_g"]]).all()
        labels = [line.split(",") for line in first["partition.csv"][1:]]
        assert np.isfinite([[float(v) for v in row[2:]] for row in labels]).all()
        assert _quiet_main(argv + ["--out", os.path.join(tmp, "b")])[0] == 0
        assert _outputs(os.path.join(tmp, "b")) == first
