"""IPW estimators, the outcome-regression plug-in, and the MAR/MCAR baselines."""

import numpy as np
import pytest

from mnarfuse.baselines import mar_estimate, mcar_estimate
from mnarfuse.data import DomainTag, PooledDataset, UnitRecord, VariableSchema
from mnarfuse.model1 import (
    EstimationError,
    Model1Spec,
    estimate_model1,
    fit_aux_moment_targets,
)
from mnarfuse.model2 import Model2Spec, estimate_model2, recovered_propensity
from mnarfuse.models import (
    BasisSpec,
    CoefficientModel,
    RankDeficientError,
    evaluate_basis_matrix,
    solve_least_squares,
)
from mnarfuse.report import domain_arrays
from mnarfuse.simulate import Model1Design, generate_model1

SCHEMA = VariableSchema(covariate_names=("x1",))


def _make_dataset(g, x, m, y, r):
    records = []
    for i in range(len(g)):
        primary = g[i] == 1
        observed = r[i] == 1
        records.append(UnitRecord(
            g=DomainTag.PRIMARY if primary else DomainTag.AUXILIARY,
            x=(float(x[i]),),
            m=float(m[i]) if observed else None,
            y=float(y[i]) if (primary and observed) else None,
            r=int(r[i]),
        ))
    return PooledDataset(records=tuple(records), schema=SCHEMA)


def test_aux_targets_recover_m_regression():
    ds, _ = generate_model1(Model1Design(n=5000), seed=2)
    _, coefs = fit_aux_moment_targets(ds, BasisSpec.parse("1,m"),
                                      BasisSpec.parse("1,x1,x1^2"))
    np.testing.assert_allclose(coefs[:, 1], [0.0, 0.0, 0.4], atol=0.05)


def test_aux_targets_constant_component():
    ds, _ = generate_model1(Model1Design(n=500), seed=2)
    preds, _ = fit_aux_moment_targets(ds, BasisSpec.parse("1"),
                                      BasisSpec.parse("1,x1"))
    np.testing.assert_allclose(preds[:, 0], 1.0, atol=1e-10)


def test_aux_targets_degenerate_design_raises():
    n = 40
    g = np.array([1] * 20 + [2] * 20)
    x = np.concatenate([np.linspace(-1, 1, 20), np.full(20, 0.5)])
    rng = np.random.default_rng(0)
    m = rng.normal(size=n)
    y = rng.normal(size=n)
    ds = _make_dataset(g, x, m, y, np.ones(n, dtype=int))
    with pytest.raises(RankDeficientError):
        fit_aux_moment_targets(ds, BasisSpec.parse("1,m"), BasisSpec.parse("1,x1"))


def test_model1_intercept_only_reduces_to_complete_case_mean():
    # intercept-only propensity and h: q is constant n1/#complete, so the
    # weighted mean collapses to the complete-case mean
    rng = np.random.default_rng(1)
    n = 400
    g = np.array([1] * 200 + [2] * 200)
    x = rng.normal(size=n)
    m = rng.normal(size=n)
    y = rng.normal(size=n)
    r = np.ones(n, dtype=int)
    r[:100] = rng.integers(0, 2, size=100)
    ds = _make_dataset(g, x, m, y, r)
    spec = Model1Spec(
        propensity_basis=BasisSpec.parse("1"),
        h_basis=BasisSpec.parse("1"),
        aux_regression_basis=BasisSpec.parse("1"),
        outcome_basis=BasisSpec.parse("1"),
    )
    report = estimate_model1(ds, spec)
    cc = (g == 1) & (r == 1)
    assert report.beta_hat == pytest.approx(float(y[cc].mean()), abs=1e-6)


def test_model1_requires_both_domains():
    rng = np.random.default_rng(1)
    n = 50
    ds = _make_dataset(np.ones(n, dtype=int), rng.normal(size=n),
                       rng.normal(size=n), rng.normal(size=n),
                       np.ones(n, dtype=int))
    with pytest.raises(EstimationError, match="both domains"):
        estimate_model1(ds)


def test_model1_diagnostics_report_counts_and_weights():
    ds, _ = generate_model1(Model1Design(n=1000), seed=5)
    report = estimate_model1(ds)
    d = report.diagnostics
    assert d["n_primary"] + d["n_auxiliary"] == 1000
    assert 0 < d["n_complete_primary"] <= d["n_primary"]
    assert d["min_weight"] >= 1.0
    assert report.solver is not None and report.solver.converged


def _outcome_regression_plugin(dataset: PooledDataset) -> float:
    """Outcome-regression plug-in of the Model 1 identification functional,
    with the default spec: E[Y | X, M] fitted on primary complete cases,
    those fitted values projected onto the X-only basis over auxiliary
    complete cases, and the projection averaged over all primary X."""
    spec = Model1Spec.default(dataset.schema)
    primary = domain_arrays(dataset, DomainTag.PRIMARY)
    auxiliary = domain_arrays(dataset, DomainTag.AUXILIARY)
    cc1, cc2 = primary.complete, auxiliary.complete
    outcome_coef = solve_least_squares(
        evaluate_basis_matrix(spec.outcome_basis, primary.x[cc1], primary.m[cc1]),
        primary.y[cc1])
    fitted_aux = evaluate_basis_matrix(
        spec.outcome_basis, auxiliary.x[cc2], auxiliary.m[cc2]) @ outcome_coef
    outer_coef = solve_least_squares(
        evaluate_basis_matrix(spec.aux_regression_basis, auxiliary.x[cc2]), fitted_aux)
    return float((evaluate_basis_matrix(spec.aux_regression_basis, primary.x)
                  @ outer_coef).mean())


def test_plugin_constant_outcome():
    rng = np.random.default_rng(1)
    n = 200
    g = np.array([1] * 100 + [2] * 100)
    ds = _make_dataset(g, rng.normal(size=n), rng.normal(size=n),
                       np.full(n, 4.25), np.ones(n, dtype=int))
    assert _outcome_regression_plugin(ds) == pytest.approx(4.25, abs=1e-8)


def test_model2_gamma_fixed_zero_intercept_baseline():
    # with OR frozen at 1 and an intercept-only baseline, the weighted mean
    # collapses to the complete-case mean
    rng = np.random.default_rng(6)
    n = 600
    g = np.array([1] * 300 + [2] * 300)
    x = rng.normal(size=n)
    m = rng.normal(size=n)
    y = rng.normal(size=n)
    r = (rng.random(n) < 0.7).astype(int)
    ds = _make_dataset(g, x, m, y, r)
    spec = Model2Spec(
        baseline_basis=BasisSpec.parse("1"),
        h_basis=BasisSpec.parse("1"),
        aux_regression_basis=BasisSpec.parse("1"),
    )
    report = estimate_model2(ds, spec, fix_gamma=0.0)
    cc = (g == 1) & (r == 1)
    assert report.beta_hat == pytest.approx(float(y[cc].mean()), abs=1e-6)
    assert report.nuisance["gamma"] == 0.0


def _alpha_54():
    return CoefficientModel(BasisSpec.parse("1,x1"), (0.5, 0.4), link="logistic")


def test_recovered_propensity_baseline_at_y_zero():
    alpha = _alpha_54()
    for x in (-1.0, 0.0, 1.5):
        p = recovered_propensity([x], 0.0, alpha, gamma=0.3, x_interactions=(0.7,))
        assert p == pytest.approx(1.0 / (1.0 + np.exp(-(0.5 + 0.4 * x))))


def test_recovered_propensity_gamma_zero_ignores_y():
    alpha = _alpha_54()
    values = {recovered_propensity([1.0], y, alpha, gamma=0.0) for y in (-2.0, 0.0, 3.0)}
    assert len(values) == 1


def test_recovered_propensity_scalar_example():
    # with the simulation sign convention (w - 1 = exp(-gamma*y - alpha.b)),
    # gamma = -0.3 makes the selection probability fall in y
    p = recovered_propensity([1.0], 2.0, _alpha_54(), gamma=-0.3)
    assert p == pytest.approx(1.0 / (1.0 + np.exp(0.6 - 0.9)), abs=1e-12)
    assert abs(p - 0.5744) < 1e-4


def test_mcar_complete_case_mean():
    g = np.array([1, 1, 1, 2])
    ds = _make_dataset(g, np.zeros(4), np.zeros(4),
                       np.array([1.0, 2.0, 3.0, 0.0]), np.ones(4, dtype=int))
    assert mcar_estimate(ds).beta_hat == pytest.approx(2.0)


def test_mcar_no_missingness_is_sample_mean():
    rng = np.random.default_rng(2)
    n = 100
    g = np.array([1] * 60 + [2] * 40)
    y = rng.normal(size=n)
    ds = _make_dataset(g, rng.normal(size=n), rng.normal(size=n), y,
                       np.ones(n, dtype=int))
    assert mcar_estimate(ds).beta_hat == pytest.approx(float(y[:60].mean()))


def test_mar_no_missingness_is_sample_mean():
    rng = np.random.default_rng(3)
    n = 100
    g = np.array([1] * 60 + [2] * 40)
    y = rng.normal(size=n)
    ds = _make_dataset(g, rng.normal(size=n), rng.normal(size=n), y,
                       np.ones(n, dtype=int))
    report = mar_estimate(ds, BasisSpec.parse("1,x1"))
    assert report.beta_hat == pytest.approx(float(y[:60].mean()), abs=1e-10)
