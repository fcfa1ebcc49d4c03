"""CLI surface tests: subcommands, exit codes, and the fixture pipeline."""

import csv
import hashlib
import json
import os
from dataclasses import fields

import numpy as np
import pytest

from mnarfuse import oracle
from mnarfuse.cli import build_parser, main
from mnarfuse.data import read_csv
from mnarfuse.simulate import SCALAR_SCHEMA
from mnarfuse.solver import SolverResult


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


def test_a_byte_order_mark_is_skipped(tmp_path):
    # spreadsheet "CSV UTF-8" exports start the file with a UTF-8 byte-order mark
    out, bom = tmp_path / "d.csv", tmp_path / "bom.csv"
    assert run(["simulate", "--model", "1", "--n", "300", "--seed", "1", "--out", str(out)]) == 0
    bom.write_bytes(b"\xef\xbb\xbf" + out.read_bytes())
    assert read_csv(str(bom), SCALAR_SCHEMA) == read_csv(str(out), SCALAR_SCHEMA)
    assert run(["validate", "--data", str(bom)]) == 0


def test_a_config_byte_order_mark_is_skipped(tmp_path, capsys):
    # Windows Notepad starts a UTF-8 file with a byte-order mark
    prefix = str(tmp_path / "fx")
    assert run(["make-fixture", "--n", "200", "--seed", "1", "--out-prefix", prefix]) == 0
    with open(prefix + ".ini", "rb") as fh:
        config = fh.read()
    with open(prefix + "bom.ini", "wb") as fh:
        fh.write(b"\xef\xbb\xbf" + config)
    capsys.readouterr()
    assert run(["validate", "--data", prefix + ".csv", "--config", prefix + "bom.ini"]) == 0
    assert capsys.readouterr().out == "ok: 200 rows\n"


def _latin1_fixture(tmp_path):
    """A make-fixture pair, a copy of its config whose first line is a
    Latin-1 comment, and a copy of its data with a Latin-1 level on line 3."""
    prefix = str(tmp_path / "fx")
    assert run(["make-fixture", "--n", "200", "--seed", "1", "--out-prefix", prefix]) == 0
    with open(prefix + ".ini", "rb") as fh:
        (tmp_path / "latin.ini").write_bytes("# café\n".encode("latin-1") + fh.read())
    with open(prefix + ".csv", "rb") as fh:
        lines = fh.read().split(b"\n")
    lines[2] = lines[2].rsplit(b",", 2)[0] + ",sévère,NA\r".encode("latin-1")
    (tmp_path / "latin.csv").write_bytes(b"\n".join(lines))
    return prefix


def test_a_latin1_config_is_an_error_naming_the_file_and_line(tmp_path, capsys):
    prefix = _latin1_fixture(tmp_path)
    config = str(tmp_path / "latin.ini")
    capsys.readouterr()
    assert run(["validate", "--data", prefix + ".csv", "--config", config]) == 1
    assert capsys.readouterr().err == (
        f"error: config file {config}: line 1: byte 0xe9 is not UTF-8 text; "
        "save the file as UTF-8\n")


def test_a_latin1_data_file_is_an_error_naming_the_file_and_line(tmp_path, capsys):
    prefix = _latin1_fixture(tmp_path)
    data = str(tmp_path / "latin.csv")
    capsys.readouterr()
    assert run(["validate", "--data", data, "--config", prefix + ".ini"]) == 1
    assert capsys.readouterr().err == (
        f"error: {data}: line 3: byte 0xe9 is not UTF-8 text; save the file as UTF-8\n")


def test_a_config_that_is_a_directory_is_reported_as_one(tmp_path, capsys):
    prefix = _latin1_fixture(tmp_path)
    (tmp_path / "d.ini").mkdir()
    capsys.readouterr()
    assert run(["validate", "--data", prefix + ".csv", "--config",
                str(tmp_path / "d.ini")]) == 1
    assert capsys.readouterr().err == (
        f"error: config file {tmp_path / 'd.ini'} is a directory, not a file\n")


@pytest.mark.parametrize("argv", [
    ["validate", "--data", "nope.csv"],
    ["estimate", "--data", "nope.csv", "--model", "1"],
    ["validate", "--data", "."],
    ["simulate", "--model", "1", "--n", "50", "--out", "nodir/x.csv"],
    ["estimate", "--data", "d.csv", "--model", "1", "--json", "nodir/r.json"],
], ids=["missing-data", "estimate-missing-data", "data-is-a-directory",
        "simulate-into-missing-dir", "json-into-missing-dir"])
def test_an_unusable_path_is_a_one_line_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["simulate", "--model", "1", "--n", "300", "--seed", "1", "--out", "d.csv"]) == 0
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_one_level_categorical_m_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text("domain,r,x1,m,y\n1,1,0.0,a,2.0\n2,1,0.5,a,?\n")
    for command in (["validate"], ["estimate", "--model", "1"]):
        assert run([*command, "--data", str(path), "--m-kind", "categorical",
                    "--m-levels", "a"]) == 1
        assert capsys.readouterr().err == "error: categorical M requires at least 2 levels\n"


def test_a_level_that_is_the_missing_token_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "na.csv"
    path.write_text("domain,r,x1,m,y\n1,1,0.0,a,2.0\n1,1,0.5,NA,1.0\n2,1,0.5,a,NA\n")
    assert run(["validate", "--data", str(path), "--m-kind", "categorical",
                "--m-levels", "a,NA", "--missing-token", "NA"]) == 1
    assert capsys.readouterr().err == (
        "error: missing token 'NA' is also a categorical M level\n")


def test_a_padded_missing_token_is_a_one_line_error(tmp_path, capsys):
    # the reader strips every token, so a padded missing token would never match
    path = tmp_path / "na.csv"
    path.write_text("domain,r,x1,m,y\n1,1,0.0,1.0,2.0\n2,0,0.5,NA,NA\n")
    assert run(["validate", "--data", str(path), "--missing-token", " NA"]) == 1
    assert capsys.readouterr().err == (
        "error: missing_token: ' NA' is padded, and the reader strips it\n")


def test_a_missing_token_that_is_a_written_number_is_a_one_line_error(tmp_path, capsys):
    # write_csv writes a present M or Y of 1.0 as 1.0, which would read back as missing
    path = tmp_path / "na.csv"
    path.write_text("domain,r,x1,m,y\n1,1,0.0,1.0,2.0\n2,0,0.5,NA,NA\n")
    assert run(["validate", "--data", str(path), "--missing-token", "1.0"]) == 1
    assert capsys.readouterr().err == (
        "error: missing_token: '1.0' is how write_csv writes the number 1.0\n")


def test_levels_for_a_numeric_m_are_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("domain,r,x1,m,y\n1,1,0.0,1.0,2.0\n2,0,0.5,?,?\n")
    assert run(["validate", "--data", str(path), "--m-levels", "a,b"]) == 1
    assert capsys.readouterr().err == "error: m_levels: a numeric M has no levels\n"


@pytest.mark.parametrize("argv, link", [
    (["simulate", "--model", "1", "--n", "10", "--out", "a.csv", "--truth-out", "a.csv"], None),
    (["simulate", "--model", "1", "--n", "10", "--out", "a.csv", "--truth-out", "b/../a.csv"],
     None),
    (["estimate", "--model", "mcar", "--data", "out/a.csv", "--json", "a.csv"], None),
    (["estimate", "--model", "mcar", "--data", "out/b.csv", "--config", "out/a.csv",
      "--json", "a.csv"], None),
    (["simulate", "--model", "1", "--n", "10", "--out", "a.csv", "--truth-out", "h.csv"],
     "h.csv"),
    (["estimate", "--model", "mcar", "--data", "out/a.csv", "--json", "h.csv"], "h.csv"),
], ids=["simulate", "simulate-other-spelling", "estimate", "estimate-config",
        "simulate-hard-link", "estimate-hard-link"])
def test_a_command_refuses_to_overwrite_a_file_it_needs(tmp_path, monkeypatch, capsys, argv,
                                                        link):
    # outputs go under $MNARFUSE_OUT_DIR, and the input path is taken as given;
    # a hard link to the file it needs, out/<link>, names that file too
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("MNARFUSE_OUT_DIR", str(tmp_path / "out"))
    (tmp_path / "out").mkdir()
    assert run(["simulate", "--model", "1", "--n", "10", "--out", "a.csv"]) == 0
    target = tmp_path / "out" / "a.csv"
    if link:
        os.link(target, tmp_path / "out" / link)
    before = target.read_bytes()
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {argv[-2]} and {argv[-4]} name the same file ")
    assert target.read_bytes() == before


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--model", "1", "--n", "20", "--out", "ok.csv", "--truth-out", "no/t.csv"],
     "--truth-out"),
    (["simulate", "--model", "1", "--n", "20", "--out", "dir"], "--out"),
    (["estimate", "--data", "d.csv", "--model", "1", "--json", "no/x.json"], "--json"),
    (["estimate", "--data", "d.csv", "--model", "1", "--bootstrap", "5", "--json", "dir"],
     "--json"),
    (["replicate", "--model", "1", "--n", "200", "--reps", "3", "--out-prefix", "no/p"],
     "--out-prefix"),
    (["make-fixture", "--n", "50", "--out-prefix", "no/f"], "--out-prefix"),
    (["make-fixture", "--n", "50", "--out-prefix", "f"], "--out-prefix"),
], ids=["simulate", "simulate-into-a-directory", "estimate", "estimate-into-a-directory",
        "replicate", "make-fixture", "make-fixture-second-file"])
def test_an_unwritable_output_fails_before_any_output(argv, flag, tmp_path, monkeypatch,
                                                       capsys):
    # a path in a directory that does not exist, or that is a directory
    # (dir, and f.ini beside make-fixture's f.csv), is refused before the
    # command prints or writes anything
    monkeypatch.chdir(tmp_path)
    assert run(["simulate", "--model", "1", "--n", "300", "--seed", "1", "--out", "d.csv"]) == 0
    (tmp_path / "dir").mkdir()
    (tmp_path / "f.ini").mkdir()
    before = sorted(os.listdir(tmp_path))
    capsys.readouterr()
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} ") and captured.err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == before


# three of ten primary rows complete: a resample without one fails
_THIN_ROWS = ([[1, 1, 0.0, 0.0, float(i)] for i in range(3)] + [[1, 0, 0.0, "?", "?"]] * 7
              + [[2, 1, 0.0, 0.0, "?"]])


@pytest.mark.parametrize("simulate, warnings", [
    (["--model", "1", "--n", "50", "--seed", "1"],
     ["130 of 200 bootstrap refits kept without converging "
      "(stalled: 111, max_iter: 14, singular: 5)"]),
    (["--model", "1", "--n", "2000", "--seed", "1"], []),
    (None, ["3 of 200 bootstrap refits failed and dropped (EstimationError: 3)"]),
], ids=["nonconverged", "clean", "failed"])
def test_bootstrap_refits_that_did_not_converge_or_failed_are_warned_of(
        tmp_path, capsys, simulate, warnings):
    path = tmp_path / "sim.csv"
    if simulate:
        _simulated_lines(tmp_path, *simulate)
    else:
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([["domain", "r", "x1", "m", "y"], *_THIN_ROWS])
    capsys.readouterr()
    assert run(["estimate", "--data", str(path), "--model", "1" if simulate else "mcar",
                "--bootstrap", "200", "--seed", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("beta_hat = ") and captured.out.count("\n") == 1
    assert captured.err == "".join(f"warning: {w}\n" for w in warnings)


def test_an_r_beyond_int64_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "big.csv"
    path.write_text("domain,r,x1,m,y\n1,1,0.0,1.0,2.0\n1,99999999999999999999,0.0,1.0,2.0\n")
    assert run(["validate", "--data", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: line 3: column 'r': '99999999999999999999' is out of range for int64\n")


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
    # the injected law fails the battery's own odds-ratio recovery check
    assert run(["oracle-check", "--laws", "2", "--seed", "1",
                "--inject-violation"]) == 1
    assert capsys.readouterr().out == (
        "FAIL law_seed=424242 check=or_recovery_error:recovered tilt non-positive at the "
        "reference level (x=1.0) value=inf tol=1.0e-10\n")


def test_the_injected_violation_goes_through_the_per_law_check(monkeypatch, capsys):
    # the CLI holds no check of its own: a per-law check that fails is
    # reported for the injected law, and one that finds nothing passes it
    def stub(law_seed, law, or_true):
        return [oracle.BatteryFailure(law_seed, "stub", 1.0, 0.5)] if law_seed == 424242 else []
    monkeypatch.setattr(oracle, "check_model2_law", stub)
    assert run(["oracle-check", "--laws", "2", "--inject-violation"]) == 1
    assert capsys.readouterr().out == "FAIL law_seed=424242 check=stub value=1.000e+00 tol=5.0e-01\n"
    monkeypatch.setattr(oracle, "check_model2_law", lambda law_seed, law, or_true: [])
    assert run(["oracle-check", "--laws", "2", "--inject-violation"]) == 0


def test_fixture_pipeline(tmp_path, capsys):
    prefix = tmp_path / "covid"
    assert run(["make-fixture", "--n", "1200", "--seed", "5",
                "--out-prefix", str(prefix)]) == 0
    with open(prefix.with_suffix(".csv")) as fh:
        rows = list(csv.DictReader(fh))
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
    ["simulate", "--model", "1", "--n", "100", "--seed", "-1", "--out", "s.csv"],
    ["estimate", "--data", "d.csv", "--model", "1", "--seed", "-1"],
    ["replicate", "--model", "1", "--n", "100", "--reps", "2", "--seed", "-1"],
    ["oracle-check", "--laws", "1", "--seed", "-1"],
    ["make-fixture", "--n", "10", "--seed", "-1", "--out-prefix", "fx"],
])
def test_out_of_range_counts_are_usage_errors(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("spelling", ["flag-empty", "flag-blank-names", "config-empty"])
def test_a_blank_covariate_list_is_an_error(tmp_path, capsys, spelling):
    # a list that names no column would fit without X: an error, not a
    # fallback to the default and not an X-free schema
    data, config, report = tmp_path / "d.csv", tmp_path / "d.ini", tmp_path / "r.json"
    assert run(["simulate", "--model", "1", "--n", "200", "--seed", "1000",
                "--out", str(data)]) == 0
    config.write_text("[schema]\ncovariates =\n")
    flags = {"flag-empty": ["--covariates", ""], "flag-blank-names": ["--covariates", " , "],
             "config-empty": ["--config", str(config)]}[spelling]
    capsys.readouterr()
    code = run(["estimate", "--data", str(data), "--model", "1", "--json", str(report), *flags])
    assert not report.exists()
    err = capsys.readouterr().err
    if spelling == "config-empty":
        assert code == 1
        assert err == f"error: config file {config}: covariates names no column\n"
    else:
        assert code == 2 and "--covariates: names no column" in err


@pytest.mark.parametrize("spelling", ["flag", "config"])
def test_a_repeated_covariate_name_is_a_one_line_error(tmp_path, capsys, spelling):
    data, config = tmp_path / "d.csv", tmp_path / "d.ini"
    assert run(["simulate", "--model", "1", "--n", "300", "--seed", "1",
                "--out", str(data)]) == 0
    config.write_text("[schema]\ncovariates = x1, x1\n")
    flags = {"flag": ["--covariates", "x1,x1"], "config": ["--config", str(config)]}[spelling]
    capsys.readouterr()
    assert run(["estimate", "--data", str(data), "--model", "1", *flags]) == 1
    assert capsys.readouterr().err == "error: covariate names must be distinct\n"


@pytest.mark.parametrize("argv, covariate", [
    (["estimate", "--model", "mcar", "--config", "alias.ini"], "x1"),  # [columns] x1 = r
    (["validate", "--covariates", "r"], "r"),
    (["estimate", "--model", "mar", "--covariates", "r"], "r"),
], ids=["config-alias", "covariates-validate", "covariates-mar"])
def test_a_column_read_as_two_names_is_an_error(tmp_path, monkeypatch, capsys, argv, covariate):
    # unchecked, the alias fitted with x1 = R, and --covariates r made
    # validate say ok and MAR fail as rank deficient at x1
    monkeypatch.chdir(tmp_path)
    assert run(["simulate", "--model", "1", "--n", "300", "--seed", "1", "--out", "d.csv"]) == 0
    (tmp_path / "alias.ini").write_text("[columns]\nx1 = r\n")
    capsys.readouterr()
    assert run([*argv, "--data", "d.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: d.csv: column 'r' is read as both r and covariate {covariate}\n"


def test_workers_clamped_to_cpu_count(monkeypatch):
    # parsing only: no pool is started; the clamp is the CPUs this process
    # may run on, which the pool binds its workers to, not the machine's count
    def workers(count):
        return build_parser().parse_args(
            ["replicate", "--model", "1", "--n", "100", "--reps", "2", "--workers", count]).workers

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert workers("100000") == (cpus or 1)
    assert workers("1") == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert workers("8") == 1


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


def test_fixture_marker_draw_matches_per_row_choice():
    # make-fixture's vectorised draw against rng.choice(3, p=row) per row,
    # the construction it replaced; both generators must end in one state
    from mnarfuse.cli import _draw_categories
    from mnarfuse.simulate import make_rng

    for seed in range(3):
        x = make_rng(seed, 1).uniform(-1.0, 1.0, 2000)
        probs = np.exp(np.column_stack([np.zeros(x.size), 0.8 * x + 0.2, 1.2 * x - 0.4]))
        probs /= probs.sum(axis=1, keepdims=True)
        ref_rng, rng = make_rng(seed, 2), make_rng(seed, 2)
        reference = np.array([ref_rng.choice(3, p=p) for p in probs])
        assert np.array_equal(_draw_categories(rng, probs), reference)
        assert np.array_equal(rng.random(5), ref_rng.random(5))


def test_binary_outcome_schema_rejects_other_values(tmp_path, capsys):
    path = tmp_path / "binary.csv"
    path.write_text("domain,r,x1,m,y\n1,1,0.0,1.0,1\n1,1,0.5,1.0,2\n1,1,0.2,0.0,0.5\n"
                    "1,0,0.1,?,?\n2,1,0.0,1.0,?\n")
    assert run(["validate", "--data", str(path), "--y-kind", "binary"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["row 1: binary Y must be 0 or 1, got 2.0",
                   "row 2: binary Y must be 0 or 1, got 0.5"]
    assert run(["estimate", "--data", str(path), "--model", "mcar",
                "--y-kind", "binary"]) == 1
    assert "row 1: binary Y" in capsys.readouterr().err
    assert run(["validate", "--data", str(path)]) == 0


def test_estimate_json_reports_solver_counters(tmp_path, capsys):
    out = tmp_path / "d.csv"
    run(["simulate", "--model", "2", "--n", "1000", "--seed", "3", "--out", str(out)])
    report_path = tmp_path / "r.json"
    assert run(["estimate", "--data", str(out), "--model", "2", "--bootstrap", "5",
                "--json", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    solver = report["solver"]
    assert set(solver) == {"status", "final_residual_norm", "iterations", "residual_evals",
                           "jacobian_evals"}
    assert list(solver) == [f.name for f in fields(SolverResult) if f.name != "theta_hat"]
    assert solver["status"] == "converged"
    # one Jacobian per Newton step, and the residual at the start and at each step
    assert solver["jacobian_evals"] == solver["iterations"]
    assert solver["residual_evals"] >= solver["iterations"] + 1
    assert report["ci"]["nonconverged"] == {}
    assert report["ci"]["method"] == "percentile-bootstrap"
    # the five refits, stacked or not, with their solver work summed
    refits = report["ci"]["refits"]
    assert refits["stacked"] + refits["per_refit"] == 5
    assert refits["residual_evals"] >= refits["iterations"] + 5 > 5


def _fixture_lines(tmp_path):
    prefix = str(tmp_path / "fx")
    assert run(["make-fixture", "--n", "40", "--seed", "2", "--out-prefix", prefix]) == 0
    with open(prefix + ".csv") as fh:
        return prefix, fh.read().splitlines()


def _rewrite(prefix, lines):
    with open(prefix + ".csv", "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_config_short_row_names_its_line(tmp_path, capsys):
    prefix, lines = _fixture_lines(tmp_path)
    lines[5] = lines[5].rsplit(",", 1)[0]  # line 6 loses its last field
    _rewrite(prefix, lines)
    assert run(["estimate", "--data", prefix + ".csv", "--config", prefix + ".ini",
                "--model", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 6" in err


def test_config_validate_flags_auxiliary_y(tmp_path, capsys):
    prefix, lines = _fixture_lines(tmp_path)
    i = next(i for i, line in enumerate(lines) if line.startswith("B,"))
    lines[i] = lines[i].rsplit(",", 1)[0] + ",1"
    _rewrite(prefix, lines)
    assert run(["validate", "--data", prefix + ".csv", "--config", prefix + ".ini"]) == 1
    assert f"row {i - 1}: Y present in auxiliary domain" in capsys.readouterr().out


def test_config_maps_a_capitalised_covariate(tmp_path, capsys):
    # [columns] names keep their case; [schema] option names do not matter
    data = tmp_path / "d.csv"
    data.write_text("domain,r,AgeYears,m,y\n1,1,0.5,1.0,2.0\n1,0,0.1,?,?\n2,1,0.3,0.2,?\n")
    config = tmp_path / "d.ini"
    config.write_text("[schema]\nCovariates = Age\n\n[columns]\nAge = AgeYears\n")
    assert run(["validate", "--data", str(data), "--config", str(config)]) == 0
    assert capsys.readouterr().out.startswith("ok: 3 rows")
    config.write_text("[schema]\nCovariates = Age\ncovariates = Age\n\n"
                      "[columns]\nAge = AgeYears\n")
    assert run(["validate", "--data", str(data), "--config", str(config)]) == 1
    assert "appears twice" in capsys.readouterr().err


def test_config_rejects_equal_domain_tokens(tmp_path, capsys):
    prefix, _ = _fixture_lines(tmp_path)
    with open(prefix + ".ini") as fh:
        text = fh.read()
    with open(prefix + ".ini", "w") as fh:
        fh.write(text.replace("domain_auxiliary = B", "domain_auxiliary = A"))
    assert run(["validate", "--data", prefix + ".csv", "--config", prefix + ".ini"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "domain_primary" in err and "domain_auxiliary" in err


@pytest.mark.parametrize("text", ["[columns]\nm = m\nm = m\n", "[columns\nm = m\n"],
                         ids=["repeated-option", "bad-section-header"])
def test_malformed_config_is_a_one_line_error(tmp_path, capsys, text):
    data = tmp_path / "d.csv"
    data.write_text("domain,r,x1,m,y\n1,1,0.5,1.0,2.0\n2,1,0.3,0.2,?\n")
    config = tmp_path / "d.ini"
    config.write_text(text)
    assert run(["validate", "--data", str(data), "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {config}") and err.count("\n") == 1


@pytest.mark.parametrize("old, new, key", [
    ("missing_token = NA", "missing = NA", "[schema] option 'missing'"),
    ("y = recovered", "outcome = recovered", "[columns] name 'outcome'"),
    ("m = strain", "m = strain\nx2 = nothing", "[columns] name 'x2'"),
    ("[columns]", "[column]", "section 'column'"),
], ids=["schema-option", "columns-name", "columns-covariate", "section"])
def test_an_unknown_config_key_is_an_error_naming_it(tmp_path, capsys, old, new, key):
    # ignored, these gave a float error on line 2 (NA read as a number), a
    # "Y absent" line per row, an exit 0 (x2 is no covariate), and a
    # missing column 'domain' (no header mapped)
    prefix, _ = _fixture_lines(tmp_path)
    config = prefix + ".ini"
    with open(config) as fh:
        text = fh.read()
    with open(config, "w") as fh:
        fh.write(text.replace(old, new))
    capsys.readouterr()
    assert run(["validate", "--data", prefix + ".csv", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {config}: unknown {key} (known: ")
    assert err.count("\n") == 1


def test_an_unknown_level_is_a_read_error_naming_its_line(tmp_path, capsys):
    prefix, lines = _fixture_lines(tmp_path)
    i = next(i for i, line in enumerate(lines) if ",mild," in line)
    lines[i] = lines[i].replace(",mild,", ",extreme,")
    _rewrite(prefix, lines)
    capsys.readouterr()
    assert run(["validate", "--data", prefix + ".csv", "--config", prefix + ".ini"]) == 1
    assert capsys.readouterr().err == (f"error: {prefix}.csv: line {i + 1}: unknown M level "
                                       "'extreme'; the levels are none, mild, severe\n")


# sha256 of the files the CLI writes at seed 7, at n=3000 (one block of the
# writer) and n=16385 (two full blocks and one row): the bytes of every
# writer are part of the interface.
SIMULATE_SHA256 = {
    ("1", "T"): {3000: ("1c864dbfe15dab18811bb3d21f4661580485e8a7065597b2c6d8c7d94be9a010",
                        "8108c7af1f9c0813e9b1fca92f376b29820a1b395378916f15872c269572398c"),
                 16385: ("ce027acd718ba9e2418f8d2f5bcd943281b06b96209de7a5cc10c94a9c49aaed",
                         "8defb9405dc701df5bda333a0425f917d56d4419aac09cbbafdabf2a0033ff3d")},
    ("1", "F"): {3000: ("1624191236180134cde3095e12b924cf944f60d5a27174a8beb32574229e877a",
                        "b19d8524fe5c0df42eb39a2b3e5cf8b59d5241e847af2e85984b556a6f65d595"),
                 16385: ("95fcccf0e998793891ad9c0480cd62f7a35593bfb48673a0f4abd5625bed87a0",
                         "50ef900af85c8fbd778a803d00d60b6e3f88af9559fc831943907f828bca459d")},
    ("2", "T"): {3000: ("039e9a8638d28f2e91ff90a09ce1871dabaa8d2f7d9d2d0f8e6efa888ad964b4",
                        "a51d1324b42173d3f97703d554a34ef0a9003ad20f18fa39bc5a71576743be3c"),
                 16385: ("af78a60aa8c660b03172cca56f2671a343adbc270c90c345b6b3858a2de3ef3a",
                         "8aeee8632c88f7e15c50ce91d4daad567f4c79a64e3b231a6123cdfeaa33077c")},
    ("2", "F"): {3000: ("388260c5e891ea0584bd5db1bbc810db8fc7ab15e148e939d8599db7e7c4fd86",
                        "444ac7551bee5a1b133d57f626b1fdf53c1461053445e6a0ae03d4bb2b8b781a"),
                 16385: ("fbb13751570910a68cb3264ad587a5608f456f84a6d0ab5cdaf6ca2dcb4cd50c",
                         "9f7ae052ca20d84c9e12a9116fa797c8a95236dd89aeb0caa6d4fcf3601fc751")},
}
FIXTURE_SHA256 = {
    3000: {".csv": "daf03a9b49459abaa8ffa8ec0d4ba4479adcd1ad2a65bc23197be8ed4cdcc964",
           ".ini": "702ea15da9d6c6cf7957e9ceee0a58324264897850b00c63917b3795f9d2f7d6"},
    16385: {".csv": "61525fe5e25c509022e109df06c88ef2c87720b0141dd077576c61b99849a0bc",
            ".ini": "702ea15da9d6c6cf7957e9ceee0a58324264897850b00c63917b3795f9d2f7d6"},
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("model,setting", sorted(SIMULATE_SHA256))
def test_simulate_output_bytes_are_pinned(tmp_path, capsys, model, setting):
    for n, digests in SIMULATE_SHA256[model, setting].items():
        out = tmp_path / f"d{n}.csv"
        assert run(["simulate", "--model", model, "--setting", setting, "--n", str(n),
                    "--seed", "7", "--out", str(out)]) == 0
        assert (_sha256(out), _sha256(tmp_path / f"d{n}.csv.truth.csv")) == digests


def test_make_fixture_output_bytes_are_pinned(tmp_path, capsys):
    for n, digests in FIXTURE_SHA256.items():
        prefix = tmp_path / f"fixture{n}"
        assert run(["make-fixture", "--n", str(n), "--seed", "7",
                    "--out-prefix", str(prefix)]) == 0
        for suffix, digest in digests.items():
            assert _sha256(tmp_path / f"fixture{n}{suffix}") == digest


def test_back_to_back_calls_do_not_share_arguments(tmp_path, capsys):
    data = tmp_path / "d.csv"
    assert run(["simulate", "--model", "1", "--n", "500", "--seed", "7",
                "--out", str(data)]) == 0
    report = tmp_path / "r.json"
    assert run(["estimate", "--data", str(data), "--model", "1",
                "--json", str(report)]) == 0
    report.unlink()
    assert run(["estimate", "--data", str(data), "--model", "1"]) == 0
    assert not report.exists()


def _simulated_lines(tmp_path, *argv):
    """The lines of a simulated file, header first: `simulate --model 1
    --n 500 --seed 3` unless argv gives other flags."""
    path = tmp_path / "sim.csv"
    assert run(["simulate", *(argv or ("--model", "1", "--n", "500", "--seed", "3")),
                "--out", str(path)]) == 0
    return path.read_text().splitlines()


@pytest.mark.parametrize("column, token, model, message", [
    ("x1", "nan", "mar", "covariate x1 must be finite, got nan"),
    ("x1", "inf", "1", "covariate x1 must be finite, got inf"),
    ("m", "-inf", "1", "M must be finite, got -inf"),
    ("y", "inf", "1", "Y must be finite, got inf"),
    ("y", "inf", "mcar", "Y must be finite, got inf"),
], ids=["x-nan-mar", "x-inf-model1", "m-inf-model1", "y-inf-model1", "y-inf-mcar"])
def test_a_non_finite_value_is_a_validation_error(tmp_path, capsys, column, token, model,
                                                  message):
    lines = _simulated_lines(tmp_path)
    header, first = lines[0].split(","), lines[1].split(",")
    assert first[:2] == ["1", "1"]  # a primary row with R = 1
    first[header.index(column)] = token
    path = tmp_path / "edited.csv"
    path.write_text("\n".join([lines[0], ",".join(first), *lines[2:]]) + "\n")
    capsys.readouterr()
    assert run(["validate", "--data", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [f"row 0: {message}"]
    assert run(["estimate", "--data", str(path), "--model", model]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"invalid dataset: row 0: {message}\n"


@pytest.mark.parametrize("model", ["1", "2", "mar"])
def test_a_rank_error_names_the_covariate_by_its_schema_name(tmp_path, capsys, model):
    # a constant primary age: the X-only basis (1, age) has rank 1 there
    lines = _simulated_lines(tmp_path)
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        if row[0] == "1":
            row[2] = "0.5"
    path = tmp_path / "flat.csv"
    path.write_text("\n".join(["domain,r,age,m,y", *map(",".join, rows)]) + "\n")
    capsys.readouterr()
    assert run(["estimate", "--data", str(path), "--model", model, "--covariates", "age"]) == 1
    assert capsys.readouterr().err == ("error: design matrix is rank deficient at column 1 "
                                       "(age)\n")


def test_a_nonconverged_estimate_prints_its_warning(tmp_path, capsys):
    _simulated_lines(tmp_path, "--model", "1", "--setting", "F", "--n", "500", "--seed", "37")
    capsys.readouterr()
    assert run(["estimate", "--data", str(tmp_path / "sim.csv"), "--model", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("beta_hat = ")
    assert captured.err == "warning: moment solver did not converge (status=max_iter)\n"


@pytest.mark.parametrize("domain, message", [
    ("1", "dataset has no auxiliary-domain records"),
    ("2", "dataset has no primary-domain records"),
], ids=["primary-only", "auxiliary-only"])
def test_a_one_domain_file_is_a_validation_error(tmp_path, capsys, domain, message):
    lines = _simulated_lines(tmp_path)
    path = tmp_path / "one.csv"
    path.write_text("\n".join([lines[0], *(line for line in lines[1:]
                                           if line.startswith(domain + ","))]) + "\n")
    capsys.readouterr()
    assert run(["validate", "--data", str(path)]) == 1
    assert capsys.readouterr().out == message + "\n"
    assert run(["estimate", "--data", str(path), "--model", "1"]) == 1
    assert capsys.readouterr().err == f"invalid dataset: {message}\n"
