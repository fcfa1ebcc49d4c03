"""Bootstrap and replication harness tests."""

import numpy as np
import pytest

from mnarfuse import inference
from mnarfuse.data import DomainTag, PooledDataset, UnitRecord, VariableSchema
from mnarfuse.inference import (
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


def test_replicate_summary_and_variance_oracle():
    report = replicate(Model1Design(n=300), n_reps=12, seed=8,
                       estimators={"mcar": mcar_estimate})
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


def test_replicate_zero_reps_empty_report():
    report = replicate(Model1Design(n=300), n_reps=0, seed=8,
                       estimators={"mcar": mcar_estimate})
    assert report.n_reps == 0
    assert report.summaries[0].n_ok == 0


@pytest.mark.parametrize("n_reps,n_workers,message", [
    (-2, 1, "n_reps must be at least 0, got -2"),
    (3, 0, "n_workers must be at least 1, got 0"),
])
def test_replicate_rejects_bad_counts(n_reps, n_workers, message):
    with pytest.raises(ValueError, match=message):
        replicate(Model1Design(n=100), n_reps=n_reps, n_workers=n_workers,
                  estimators={"mcar": mcar_estimate})


def test_replicate_worker_count_invariance():
    serial = replicate(Model1Design(n=300), n_reps=6, seed=3,
                       estimators={"mcar": mcar_estimate})
    parallel = replicate(Model1Design(n=300), n_reps=6, seed=3,
                         estimators={"mcar": mcar_estimate}, n_workers=3)
    np.testing.assert_array_equal(serial.estimates["mcar"],
                                  parallel.estimates["mcar"])


def test_replicate_failures_counted_and_excluded():
    def sometimes(dataset):
        if len(dataset.records) % 2 == 0:  # always true here; fail via y check
            raise EstimationError("boom")

    report = replicate(Model1Design(n=300), n_reps=4, seed=3,
                       estimators={"bad": sometimes, "mcar": mcar_estimate})
    by_name = {s.name: s for s in report.summaries}
    assert by_name["bad"].n_failed == 4
    assert by_name["mcar"].n_failed == 0


def test_report_emission(tmp_path):
    report = replicate(Model1Design(n=300), n_reps=3, seed=1,
                       estimators={"mcar": mcar_estimate})
    text = report.to_text()
    assert "mcar" in text and "bias" in text
    summary_path = tmp_path / "s.csv"
    long_path = tmp_path / "l.csv"
    report.write_summary_csv(str(summary_path))
    report.write_replicates_csv(str(long_path))
    assert summary_path.read_text().count("\n") == 2
    assert long_path.read_text().count("\n") == 4  # header + 3 replicates


def test_bootstrap_failures_counted_by_reason():
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
    ci = bootstrap_ci(ds, flaky, BootstrapConfig(k=200, seed=3,
                                                 max_failure_fraction=0.5))
    assert set(ci.failures) == {"EstimationError", "non-finite"}
    assert sum(ci.failures.values()) == ci.n_failed > 0
    report = mcar_estimate(ds)
    report.ci = ci
    assert report.to_dict()["ci"]["failures"] == ci.failures


def test_programming_errors_propagate_out_of_bootstrap_and_replicate():
    def broken(dataset):
        raise TypeError("unsupported operand")

    with pytest.raises(TypeError):
        bootstrap_ci(_repeated_row_dataset(), broken, BootstrapConfig(k=5, seed=0))
    with pytest.raises(TypeError):
        replicate(Model1Design(n=300), n_reps=2, seed=3, estimators={"bad": broken})


@pytest.mark.parametrize("kwargs", [
    {"k": 0}, {"ci_level": 0.0}, {"ci_level": 1.0}, {"ci_level": 1.5},
    {"max_failure_fraction": -0.1}, {"max_failure_fraction": 1.0},
])
def test_bootstrap_config_rejects_out_of_range(kwargs):
    with pytest.raises(ValueError):
        BootstrapConfig(**kwargs)


def test_pct_bias_is_nan_at_zero_truth(tmp_path, monkeypatch):
    monkeypatch.setattr(inference, "true_beta", lambda design: TrueBeta(0.0, "zero"))
    report = replicate(Model1Design(n=300), n_reps=3, seed=1,
                       estimators={"mcar": mcar_estimate})
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
    tail = 0.5 * (1.0 - config.ci_level)
    assert (ci.lo, ci.hi) == tuple(np.quantile(refits, [tail, 1.0 - tail]))
    report = estimate_model1(ds)
    report.ci = ci
    assert report.to_dict()["ci"]["nonconverged"] == {"max_iter": 3, "stalled": 1}


def test_replicate_counts_nonconverged_fits_among_the_kept():
    from mnarfuse.model1 import estimate_model1

    report = replicate(Model1Design(n=500, setting="F"), n_reps=12, seed=1,
                       estimators={"ipw": estimate_model1, "mcar": mcar_estimate})
    by_name = {s.name: s for s in report.summaries}
    assert (by_name["ipw"].n_ok, by_name["ipw"].n_failed) == (12, 0)
    assert by_name["ipw"].n_nonconverged == 1
    assert by_name["mcar"].n_nonconverged == 0
    assert "n_nonconv" in report.to_text()
