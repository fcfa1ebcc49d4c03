"""Bootstrap and replication harness tests."""

import csv

import numpy as np
import pytest

from mnarfuse import inference
from mnarfuse.data import DomainTag, PooledDataset, UnitRecord, VariableSchema
from mnarfuse.inference import (
    CI_LEVEL,
    BootstrapConfig,
    BootstrapError,
    _draw,
    bootstrap_ci,
    replicate,
)
from mnarfuse.baselines import mcar_estimate
from mnarfuse.model1 import EstimationError
from mnarfuse.simulate import Model1Design, TrueBeta, generate_model1, make_rng
from mnarfuse.solver import _MAX_ITER

SCHEMA = VariableSchema(covariate_names=("x1",))


def _use_bank(monkeypatch, **estimators):
    """Make replicate fit the named estimators in place of its design's
    bank; the calls run in this process, which the patch reaches."""
    monkeypatch.setattr(inference, "default_estimators", lambda design: estimators)


def _repeated_row_dataset(n_each=20):
    rows = []
    for _ in range(n_each):
        rows.append(UnitRecord(g=DomainTag.PRIMARY, x=(1.0,), m=0.5, y=2.0, r=1))
        rows.append(UnitRecord(g=DomainTag.AUXILIARY, x=(1.0,), m=0.5, y=None, r=1))
    return PooledDataset(records=tuple(rows), schema=SCHEMA)


def test_degenerate_dataset_width_zero():
    ci = bootstrap_ci(_repeated_row_dataset(), mcar_estimate,
                      BootstrapConfig(k=30, seed=1))
    assert ci.width == 0.0
    assert ci.n_failed == 0


def test_bootstrap_deterministic():
    ds, _ = generate_model1(Model1Design(n=400), seed=4)
    a = bootstrap_ci(ds, mcar_estimate, BootstrapConfig(k=40, seed=9))
    b = bootstrap_ci(ds, mcar_estimate, BootstrapConfig(k=40, seed=9))
    assert (a.lo, a.hi) == (b.lo, b.hi)


def test_stratified_resampling_preserves_domain_counts():
    ds, _ = generate_model1(Model1Design(n=999), seed=2)
    counts = {tag: sum(rec.g == tag for rec in ds.records)
              for tag in (DomainTag.PRIMARY, DomainTag.AUXILIARY)}
    resampled = ds.take(_draw(ds, make_rng(0, 0)))
    for tag, n in counts.items():
        assert sum(rec.g == tag for rec in resampled.records) == n


def test_bootstrap_failure_budget():
    calls = {"n": 0}

    def flaky(dataset):
        calls["n"] += 1
        raise EstimationError("solver blew up")

    with pytest.raises(BootstrapError):
        bootstrap_ci(_repeated_row_dataset(), flaky, BootstrapConfig(k=20, seed=0))


def test_replicate_summary_and_variance_oracle(monkeypatch):
    _use_bank(monkeypatch, mcar=mcar_estimate)
    report = replicate(Model1Design(n=300), n_reps=12, seed=8)
    values = report.estimates["mcar"]
    summary = report.summaries[0]
    assert summary.n_ok == 12 and summary.n_failed == 0
    # two-pass unbiased variance as the independent check
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    assert summary.variance == pytest.approx(var, rel=1e-12)
    assert summary.bias == pytest.approx(mean - report.beta_true.value, rel=1e-12)
    assert summary.mse == pytest.approx(
        float(np.mean((values - report.beta_true.value) ** 2)), rel=1e-12)


def test_replicate_zero_reps_empty_report(monkeypatch):
    _use_bank(monkeypatch, mcar=mcar_estimate)
    report = replicate(Model1Design(n=300), n_reps=0, seed=8)
    assert report.n_reps == 0
    assert report.summaries[0].n_ok == 0


@pytest.mark.parametrize("n_reps,n_workers,seed,message", [
    (-2, 1, 0, "n_reps must be at least 0, got -2"),
    (3, 0, 0, "n_workers must be at least 1, got 0"),
    # numpy would reject it only when the first replicate's stream is made
    (3, 1, -1, "seed must be at least 0, got -1"),
    (3, 1, -2**63, f"seed must be at least 0, got {-2**63}"),
])
def test_replicate_rejects_bad_counts(n_reps, n_workers, seed, message):
    with pytest.raises(ValueError, match=message):
        replicate(Model1Design(n=100), n_reps=n_reps, seed=seed, n_workers=n_workers)


def test_replicate_worker_count_invariance(monkeypatch):
    _use_bank(monkeypatch, mcar=mcar_estimate)
    serial = replicate(Model1Design(n=300), n_reps=6, seed=3)
    parallel = replicate(Model1Design(n=300), n_reps=6, seed=3, n_workers=3)
    np.testing.assert_array_equal(serial.estimates["mcar"],
                                  parallel.estimates["mcar"])


def test_replicate_failures_counted_and_excluded(monkeypatch):
    def sometimes(dataset):
        if len(dataset.records) % 2 == 0:  # always true here; fail via y check
            raise EstimationError("boom")

    _use_bank(monkeypatch, bad=sometimes, mcar=mcar_estimate)
    report = replicate(Model1Design(n=300), n_reps=4, seed=3)
    by_name = {s.name: s for s in report.summaries}
    assert by_name["bad"].n_failed == 4
    assert by_name["mcar"].n_failed == 0


def test_replicate_counts_failures_by_reason(monkeypatch):
    def flaky(dataset):
        first = dataset.x[0, 0]
        if first < -0.5:
            raise EstimationError("odd dataset")
        report = mcar_estimate(dataset)
        if first > 1.0:
            report.beta_hat = float("nan")
        return report

    # blocks of at most 5 replicates, so the counts of three blocks are summed
    monkeypatch.setattr(inference, "_BLOCK_ROWS", 5 * 300)
    _use_bank(monkeypatch, flaky=flaky, mcar=mcar_estimate)
    report = replicate(Model1Design(n=300), n_reps=12, seed=3)
    by_name = {s.name: s for s in report.summaries}
    assert by_name["flaky"].failures == {"EstimationError": 2, "non-finite": 3}
    assert by_name["flaky"].n_failed == 5 == np.isnan(report.estimates["flaky"]).sum()
    assert by_name["flaky"].n_ok == 7
    assert by_name["mcar"].failures == {} and by_name["mcar"].n_failed == 0


def test_report_emission(tmp_path, monkeypatch):
    _use_bank(monkeypatch, mcar=mcar_estimate)
    report = replicate(Model1Design(n=300), n_reps=3, seed=1)
    text = report.to_text()
    assert "mcar" in text and "bias" in text
    summary_path = tmp_path / "s.csv"
    long_path = tmp_path / "l.csv"
    report.write_summary_csv(str(summary_path))
    report.write_replicates_csv(str(long_path))
    assert summary_path.read_text().count("\n") == 2
    assert long_path.read_text().count("\n") == 4  # header + 3 replicates


def _replicate_csvs_by_rows(report, summary_path, long_path):
    """Reference: both replicate CSVs written row by row through csv.writer."""
    with open(summary_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["design", "n", "n_reps", "beta_true", "estimator",
                         "bias", "pct_bias", "mse", "variance", "n_ok", "n_failed"])
        for s in report.summaries:
            writer.writerow([report.design_label, report.n, report.n_reps,
                             repr(report.beta_true.value), s.name, repr(s.bias),
                             repr(s.pct_bias), repr(s.mse), repr(s.variance),
                             s.n_ok, s.n_failed])
    with open(long_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replicate", "estimator", "beta_hat"])
        for rep in range(report.n_reps):
            for name, values in report.estimates.items():
                v = values[rep]
                writer.writerow([rep, name, "" if np.isnan(v) else repr(float(v))])


@pytest.mark.parametrize("case", ["failing", "zero-truth", "no-replicates"])
def test_replicate_csvs_are_the_bytes_csv_writer_writes(tmp_path, monkeypatch, case):
    def failing(dataset):
        raise EstimationError("boom")

    n_reps = 0 if case == "no-replicates" else 3
    if case == "zero-truth":  # pct_bias is written nan
        monkeypatch.setattr(inference, "true_beta", lambda design: TrueBeta(0.0, "zero"))
    # names that need quoting, and one that is not ASCII
    _use_bank(monkeypatch, **{'a,"bad"': failing, "mcar": mcar_estimate,
                              "β\r\nmcar": mcar_estimate})
    report = replicate(Model1Design(n=300), n_reps=n_reps, seed=1)
    assert np.isnan(report.estimates['a,"bad"']).all()
    report.write_summary_csv(str(tmp_path / "s.csv"))
    report.write_replicates_csv(str(tmp_path / "l.csv"))
    _replicate_csvs_by_rows(report, tmp_path / "s_rows.csv", tmp_path / "l_rows.csv")
    for name in ("s", "l"):
        assert (tmp_path / f"{name}.csv").read_bytes() == \
            (tmp_path / f"{name}_rows.csv").read_bytes()
    # the failing estimator's cells are empty, and a zero truth has no % bias
    assert (tmp_path / "l.csv").read_bytes().count(b'"a,""bad""",\r\n') == n_reps
    if case == "zero-truth":
        with open(tmp_path / "s.csv", newline="", encoding="utf-8") as fh:
            assert [row[6] for row in csv.reader(fh) if row[4] == "mcar"] == ["nan"]


def test_bootstrap_failures_counted_by_reason(monkeypatch):
    def flaky(dataset):
        # the primary share of a resample is fixed, so key off its first x
        first = dataset.x[0, 0]
        if first < -1.0:
            raise EstimationError("odd resample")
        report = mcar_estimate(dataset)
        if first > 2.0:
            report.beta_hat = float("nan")
        return report

    ds, _ = generate_model1(Model1Design(n=400), seed=4)
    monkeypatch.setattr(inference, "MAX_FAILURE_FRACTION", 0.5)
    ci = bootstrap_ci(ds, flaky, BootstrapConfig(k=200, seed=3))
    assert set(ci.failures) == {"EstimationError", "non-finite"}
    assert sum(ci.failures.values()) == ci.n_failed > 0
    report = mcar_estimate(ds)
    report.ci = ci
    assert report.to_dict()["ci"]["failures"] == ci.failures


def test_programming_errors_propagate_out_of_bootstrap_and_replicate(monkeypatch):
    def broken(dataset):
        raise TypeError("unsupported operand")

    with pytest.raises(TypeError):
        bootstrap_ci(_repeated_row_dataset(), broken, BootstrapConfig(k=5, seed=0))
    _use_bank(monkeypatch, bad=broken)
    with pytest.raises(TypeError):
        replicate(Model1Design(n=300), n_reps=2, seed=3)


@pytest.mark.parametrize("kwargs", [
    {"k": 0}, {"k": -1}, {"k": -2}, {"k": 0.5}, {"k": -1000}, {"k": -2**63},
    {"k": 5, "seed": -1},
])
def test_bootstrap_config_rejects_out_of_range(kwargs):
    # a negative seed would reach numpy only at the first resample
    with pytest.raises(ValueError, match="must be at least"):
        BootstrapConfig(**kwargs)


def test_pct_bias_is_nan_at_zero_truth(tmp_path, monkeypatch):
    monkeypatch.setattr(inference, "true_beta", lambda design: TrueBeta(0.0, "zero"))
    _use_bank(monkeypatch, mcar=mcar_estimate)
    report = replicate(Model1Design(n=300), n_reps=3, seed=1)
    summary = report.summaries[0]
    assert np.isnan(summary.pct_bias) and np.isfinite(summary.bias)
    assert "nan%" in report.to_text()
    path = tmp_path / "s.csv"
    report.write_summary_csv(str(path))
    assert path.read_text().splitlines()[1].split(",")[6] == "nan"


def test_nonconverged_refits_are_kept_and_counted():
    # Model 1 on this dataset stops at max_iter with a residual norm of 0.25:
    # the calibration equation has no root, and nor does it on its resamples
    from mnarfuse.model1 import estimate_model1

    ds, _ = generate_model1(Model1Design(n=500, setting="F"), seed=37)
    solver = estimate_model1(ds).solver
    # one attempt: at most one Jacobian per Newton iteration
    assert solver.status == "max_iter" and solver.jacobian_evals <= _MAX_ITER
    config = BootstrapConfig(k=4, seed=0)
    ci = bootstrap_ci(ds, estimate_model1, config)
    assert ci.nonconverged == {"max_iter": 3, "stalled": 1} and ci.n_failed == 0
    refits = [estimate_model1(ds.take(_draw(ds, make_rng(0, b)))).beta_hat
              for b in range(config.k)]
    tail = 0.5 * (1.0 - CI_LEVEL)
    assert (ci.lo, ci.hi) == tuple(np.quantile(refits, [tail, 1.0 - tail]))
    report = estimate_model1(ds)
    report.ci = ci
    assert report.to_dict()["ci"]["nonconverged"] == {"max_iter": 3, "stalled": 1}


def test_replicate_counts_nonconverged_fits_among_the_kept(monkeypatch):
    from mnarfuse.model1 import estimate_model1

    _use_bank(monkeypatch, ipw=estimate_model1, mcar=mcar_estimate)
    report = replicate(Model1Design(n=500, setting="F"), n_reps=12, seed=1)
    by_name = {s.name: s for s in report.summaries}
    assert (by_name["ipw"].n_ok, by_name["ipw"].n_failed) == (12, 0)
    assert by_name["ipw"].n_nonconverged == 1
    assert by_name["mcar"].n_nonconverged == 0
    assert "n_nonconv" in report.to_text()
