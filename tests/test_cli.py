"""CLI surface tests: subcommands, exit codes, and the fixture pipeline."""

import csv
import json
import os

import numpy as np
import pytest

from mnarfuse.cli import build_parser, main


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


def test_simulate_writes_two_files(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert run(["simulate", "--model", "1", "--setting", "T", "--n", "2000",
                "--seed", "7", "--out", str(out)]) == 0
    assert out.exists()
    assert (tmp_path / "d.csv.truth.csv").exists()


def test_simulate_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert run(["simulate", "--model", "2", "--n", "500", "--seed", "3",
                    "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_n_zero_usage_error(tmp_path):
    code = run(["simulate", "--model", "1", "--n", "0",
                "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_estimate_recovers_model1_truth(tmp_path, capsys):
    out = tmp_path / "d.csv"
    run(["simulate", "--model", "1", "--n", "2000", "--seed", "7",
         "--out", str(out)])
    report_path = tmp_path / "r.json"
    assert run(["estimate", "--data", str(out), "--model", "1",
                "--json", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert abs(report["beta_hat"] - 1.8) < 0.15
    assert report["estimator"] == "ipw-model1"


def test_estimate_mcar_no_missingness(tmp_path, capsys):
    path = tmp_path / "full.csv"
    rng = np.random.default_rng(0)
    y = rng.normal(size=30)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["domain", "r", "x1", "m", "y"])
        for i in range(30):
            writer.writerow([1, 1, 0.0, 0.0, repr(float(y[i]))])
        for _ in range(10):
            writer.writerow([2, 1, 0.0, 0.0, "?"])
    assert run(["estimate", "--data", str(path), "--model", "mcar"]) == 0
    printed = capsys.readouterr().out
    assert f"{y.mean():.6f}" in printed


def test_estimate_malformed_row_names_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("domain,r,x1,m,y\n1,1,0.0,1.0,2.0\n1,oops,0.0,1.0,2.0\n")
    assert run(["estimate", "--data", str(path), "--model", "mcar"]) == 1
    assert "line 3" in capsys.readouterr().err


def test_validate_flags_auxiliary_y(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("domain,r,x1,m,y\n1,1,0.0,1.0,2.0\n2,1,0.0,1.0,2.0\n")
    assert run(["validate", "--data", str(path)]) == 1
    assert "auxiliary" in capsys.readouterr().out.lower()


def test_replicate_writes_reports(tmp_path, capsys):
    prefix = tmp_path / "rep"
    assert run(["replicate", "--model", "1", "--n", "300", "--reps", "4",
                "--seed", "2", "--out-prefix", str(prefix)]) == 0
    assert (tmp_path / "rep_summary.csv").exists()
    assert (tmp_path / "rep_replicates.csv").exists()
    assert "ipw" in capsys.readouterr().out


def test_oracle_check_passes(capsys):
    assert run(["oracle-check", "--laws", "10", "--seed", "1"]) == 0


def test_oracle_check_injected_violation_fails(capsys):
    assert run(["oracle-check", "--laws", "2", "--seed", "1",
                "--inject-violation"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_fixture_pipeline(tmp_path, capsys):
    prefix = tmp_path / "covid"
    assert run(["make-fixture", "--n", "1200", "--seed", "5",
                "--out-prefix", str(prefix)]) == 0
    rows = list(csv.DictReader(open(prefix.with_suffix(".csv"))))
    assert len(rows) == 1200

    # missing-rate summary matches the construction: the missing token
    # appears exactly on followup == 0 rows
    for row in rows:
        assert (row["strain"] == "NA") == (row["followup"] == "0")

    assert run(["validate", "--data", str(prefix) + ".csv",
                "--config", str(prefix) + ".ini"]) == 0
    assert run(["estimate", "--data", str(prefix) + ".csv",
                "--config", str(prefix) + ".ini", "--model", "1"]) == 0
    printed = capsys.readouterr().out
    assert "beta_hat" in printed


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("MNARFUSE_OUT_DIR", str(tmp_path))
    assert run(["simulate", "--model", "1", "--n", "100", "--seed", "1",
                "--out", "env.csv"]) == 0
    assert (tmp_path / "env.csv").exists()


@pytest.mark.parametrize("argv", [
    ["estimate", "--data", "d.csv", "--model", "1", "--bootstrap", "-1"],
    ["oracle-check", "--laws", "-3"],
    ["oracle-check", "--laws", "0"],
    ["make-fixture", "--n", "0", "--out-prefix", "fx"],
    ["replicate", "--model", "1", "--n", "100", "--reps", "2", "--workers", "0"],
])
def test_out_of_range_counts_are_usage_errors(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    assert not any(tmp_path.iterdir())


def test_workers_clamped_to_cpu_count():
    # parsing only: no pool is started
    args = build_parser().parse_args(
        ["replicate", "--model", "1", "--n", "100", "--reps", "2", "--workers", "100000"])
    assert args.workers == (os.cpu_count() or 1)
    args = build_parser().parse_args(
        ["replicate", "--model", "1", "--n", "100", "--reps", "2", "--workers", "1"])
    assert args.workers == 1


def test_bootstrap_failure_is_a_one_line_error(tmp_path, capsys):
    # one complete primary row among ten: about a third of the resamples have
    # no complete case, which is over the failure budget
    path = tmp_path / "thin.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["domain", "r", "x1", "m", "y"])
        writer.writerow([1, 1, 0.0, 0.0, 1.0])
        for _ in range(9):
            writer.writerow([1, 0, 0.0, "?", "?"])
        writer.writerow([2, 1, 0.0, 0.0, "?"])
    assert run(["estimate", "--data", str(path), "--model", "mcar",
                "--bootstrap", "50"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "EstimationError" in err
