"""CLI surface tests: subcommands, exit codes, and the fixture pipeline."""

import csv
import hashlib
import json
import os

import numpy as np
import pytest

from mnarfuse.cli import build_parser, main
from mnarfuse.data import read_csv
from mnarfuse.simulate import SCALAR_SCHEMA


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
    assert solver["status"] == "converged"
    # one Jacobian per Newton step, and the residual at the start and at each step
    assert solver["jacobian_evals"] == solver["iterations"]
    assert solver["residual_evals"] >= solver["iterations"] + 1
    assert report["ci"]["nonconverged"] == {}
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


# sha256 of the files the CLI writes at n=3000, seed 7: the bytes of every
# writer are part of the interface.
SIMULATE_SHA256 = {
    ("1", "T"): ("1c864dbfe15dab18811bb3d21f4661580485e8a7065597b2c6d8c7d94be9a010",
                 "8108c7af1f9c0813e9b1fca92f376b29820a1b395378916f15872c269572398c"),
    ("1", "F"): ("1624191236180134cde3095e12b924cf944f60d5a27174a8beb32574229e877a",
                 "b19d8524fe5c0df42eb39a2b3e5cf8b59d5241e847af2e85984b556a6f65d595"),
    ("2", "T"): ("039e9a8638d28f2e91ff90a09ce1871dabaa8d2f7d9d2d0f8e6efa888ad964b4",
                 "a51d1324b42173d3f97703d554a34ef0a9003ad20f18fa39bc5a71576743be3c"),
    ("2", "F"): ("388260c5e891ea0584bd5db1bbc810db8fc7ab15e148e939d8599db7e7c4fd86",
                 "444ac7551bee5a1b133d57f626b1fdf53c1461053445e6a0ae03d4bb2b8b781a"),
}
FIXTURE_SHA256 = {
    ".csv": "daf03a9b49459abaa8ffa8ec0d4ba4479adcd1ad2a65bc23197be8ed4cdcc964",
    ".ini": "dac99c76d3b9cc6acb9028a34f688ec7db317b3a8b0fd230f018725d37ddac95",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("model,setting", sorted(SIMULATE_SHA256))
def test_simulate_output_bytes_are_pinned(tmp_path, capsys, model, setting):
    out = tmp_path / "d.csv"
    assert run(["simulate", "--model", model, "--setting", setting, "--n", "3000",
                "--seed", "7", "--out", str(out)]) == 0
    assert (_sha256(out), _sha256(tmp_path / "d.csv.truth.csv")) \
        == SIMULATE_SHA256[model, setting]


def test_make_fixture_output_bytes_are_pinned(tmp_path, capsys):
    prefix = tmp_path / "fixture"
    assert run(["make-fixture", "--n", "3000", "--seed", "7",
                "--out-prefix", str(prefix)]) == 0
    for suffix, digest in FIXTURE_SHA256.items():
        assert _sha256(tmp_path / f"fixture{suffix}") == digest


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
