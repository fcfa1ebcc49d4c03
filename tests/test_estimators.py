"""IPW estimators, the outcome-regression plug-in, and the MAR/MCAR baselines."""

import dataclasses
import math

import numpy as np
import pytest

from mnarfuse.baselines import mar_estimate, mcar_estimate
from mnarfuse.data import DomainTag, PooledDataset, UnitRecord, VariableSchema
from mnarfuse.model1 import EstimationError, Model1Spec, _fit_targets, calibrate, estimate_model1
from mnarfuse.model2 import Model2Spec, estimate_model2
from mnarfuse.models import (
    W_MAX,
    BasisSpec,
    RankDeficientError,
    evaluate_basis_matrix,
    solve_least_squares,
)
from mnarfuse.report import FitRows
from mnarfuse.simulate import Model1Design, Model2Design, generate_model1, generate_model2

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
    _, coefs = _fit_targets(ds, FitRows(ds), BasisSpec.parse("1,m"),
                            BasisSpec.parse("1,x1,x1^2"))
    np.testing.assert_allclose(coefs[:, 1], [0.0, 0.0, 0.4], atol=0.05)


def test_aux_targets_constant_component():
    # the regression of h = 1 on 1, x1 is 1 + 0 x1, so its prediction is 1
    # at every primary row, and so is their mean
    ds, _ = generate_model1(Model1Design(n=500), seed=2)
    target, coefs = _fit_targets(ds, FitRows(ds), BasisSpec.parse("1"),
                                 BasisSpec.parse("1,x1"))
    assert target == pytest.approx([1.0], rel=0, abs=1e-12)
    assert coefs[:, 0] == pytest.approx([1.0, 0.0], rel=0, abs=1e-12)


def test_aux_targets_degenerate_design_raises():
    n = 40
    g = np.array([1] * 20 + [2] * 20)
    x = np.concatenate([np.linspace(-1, 1, 20), np.full(20, 0.5)])
    rng = np.random.default_rng(0)
    m = rng.normal(size=n)
    y = rng.normal(size=n)
    ds = _make_dataset(g, x, m, y, np.ones(n, dtype=int))
    with pytest.raises(RankDeficientError):
        _fit_targets(ds, FitRows(ds), BasisSpec.parse("1,m"), BasisSpec.parse("1,x1"))


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


def test_an_h_basis_narrower_than_the_propensity_basis_is_an_error():
    # two moments cannot pin down three propensity parameters
    ds, _ = generate_model1(Model1Design(n=300), seed=1)
    spec = dataclasses.replace(Model1Spec.default(SCHEMA), h_basis=BasisSpec.parse("1,x1"))
    assert str(spec.propensity_basis) == "1,x1,m"
    with pytest.raises(EstimationError) as err:
        estimate_model1(ds, spec)
    assert str(err.value) == "h basis has 2 components for 3 propensity parameters"


def test_model1_requires_both_domains():
    rng = np.random.default_rng(1)
    n = 50
    ds = _make_dataset(np.ones(n, dtype=int), rng.normal(size=n),
                       rng.normal(size=n), rng.normal(size=n),
                       np.ones(n, dtype=int))
    with pytest.raises(EstimationError, match="both domains"):
        estimate_model1(ds)


@pytest.mark.parametrize("n_or_params,gamma_fixed,solved", [
    (1, False, ["alpha", "gamma"]),
    (2, False, ["alpha", "gamma", "or_interactions"]),  # theta's last entry is the x1*y tilt
    (2, True, ["alpha"]),  # gamma held at 0: the baseline basis alone as B
], ids=["one-odds-ratio-parameter", "two-odds-ratio-parameters", "gamma-fixed"])
def test_model2_nuisance_holds_every_solved_coefficient(n_or_params, gamma_fixed, solved):
    ds = generate_model2(Model2Design(n=600), 3)[0]
    spec = Model2Spec(BasisSpec.parse("1,x1"), BasisSpec.parse("1,x1,m,x1*m"),
                      BasisSpec.parse("1,x1,x1^2"), n_or_params=n_or_params)
    if gamma_fixed:
        report = calibrate(ds, spec.baseline_basis, *spec.bases[1:], "ipw-model2")
    else:
        report = estimate_model2(ds, spec)
    assert report.solver.converged
    assert list(report.nuisance) == solved + ["aux_regression"]
    reported = report.to_dict()["nuisance"]
    assert [v for name in solved for v in reported[name]] == report.solver.theta_hat.tolist()


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
    rows = FitRows(dataset)
    (x_primary,), (x_cc, m_cc, y_cc), (aux_x_cc, aux_m_cc) = (
        rows[name] for name in ("primary", "cc", "aux_cc"))
    outcome_coef = solve_least_squares(
        evaluate_basis_matrix(spec.outcome_basis, x_cc, m_cc), y_cc)
    fitted_aux = evaluate_basis_matrix(spec.outcome_basis, aux_x_cc, aux_m_cc) @ outcome_coef
    outer_coef = solve_least_squares(
        evaluate_basis_matrix(spec.aux_regression_basis, aux_x_cc), fitted_aux)
    return float((evaluate_basis_matrix(spec.aux_regression_basis, x_primary)
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
    report = calibrate(ds, spec.baseline_basis, *spec.bases[1:], "ipw-model2")
    cc = (g == 1) & (r == 1)
    assert report.beta_hat == pytest.approx(float(y[cc].mean()), abs=1e-6)
    assert report.solver.theta_hat.size == 1  # alpha alone: no odds-ratio parameter


def recovered_propensity(x_row, y, alpha, gamma, x_interactions=()):
    """The selection probability 1 / w that Model 2 implies at (x_row, y):
    the baseline propensity logistic(alpha . (1, x1, ..., xd)) tilted by the
    odds ratio exp(-gamma * y - sum_j x_interactions[j] * x_{j+1} * y), so
    w = min(1 + exp(-alpha . (1, x) - gamma * y - ...), W_MAX).  It equals
    the baseline propensity exactly at y = 0."""
    x = np.asarray(x_row, dtype=float)
    tilt = gamma + sum(c * x[j] for j, c in enumerate(x_interactions))
    return 1.0 / min(1.0 + math.exp(-(alpha[0] + x @ alpha[1:]) - tilt * y), W_MAX)


_ALPHA_54 = np.array([0.5, 0.4])


def test_recovered_propensity_baseline_at_y_zero():
    alpha = _ALPHA_54
    for x in (-1.0, 0.0, 1.5):
        p = recovered_propensity([x], 0.0, alpha, gamma=0.3, x_interactions=(0.7,))
        assert p == pytest.approx(1.0 / (1.0 + np.exp(-(0.5 + 0.4 * x))))


def test_recovered_propensity_gamma_zero_ignores_y():
    alpha = _ALPHA_54
    values = {recovered_propensity([1.0], y, alpha, gamma=0.0) for y in (-2.0, 0.0, 3.0)}
    assert len(values) == 1


def test_recovered_propensity_scalar_example():
    # with the simulation sign convention (w - 1 = exp(-gamma*y - alpha.b)),
    # gamma = -0.3 makes the selection probability fall in y
    p = recovered_propensity([1.0], 2.0, _ALPHA_54, gamma=-0.3)
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
    report = mar_estimate(ds)  # basis 1, x1
    assert report.beta_hat == pytest.approx(float(y[:60].mean()), abs=1e-10)


# str() of each default basis of d covariates, recorded from the code that
# spelled the defaults out in each spec: Model 1's (B, h, auxiliary
# regression, outcome), Model 2's (baseline, h, auxiliary regression), and
# Model 2's B with 1 and 2 odds-ratio parameters
DEFAULT_BASES = {
    1: (("1,x1,m", "1,x1,m", "1,x1,x1^2", "1,x1,x1^2,m"),
        ("1,x1", "1,x1,m", "1,x1,x1^2"),
        ("1,x1,y", "1,x1,y,x1*y")),
    2: (("1,x1,x2,m", "1,x1,x2,m", "1,x1,x1^2,x2,x2^2", "1,x1,x1^2,x2,x2^2,m"),
        ("1,x1,x2", "1,x1,x2,m", "1,x1,x1^2,x2,x2^2"),
        ("1,x1,x2,y", "1,x1,x2,y,x1*y")),
    3: (("1,x1,x2,x3,m", "1,x1,x2,x3,m", "1,x1,x1^2,x2,x2^2,x3,x3^2",
         "1,x1,x1^2,x2,x2^2,x3,x3^2,m"),
        ("1,x1,x2,x3", "1,x1,x2,x3,m", "1,x1,x1^2,x2,x2^2,x3,x3^2"),
        ("1,x1,x2,x3,y", "1,x1,x2,x3,y,x1*y")),
}


@pytest.mark.parametrize("d", sorted(DEFAULT_BASES))
def test_default_bases_keep_their_terms(d):
    schema = VariableSchema(covariate_names=tuple(f"x{j}" for j in range(1, d + 1)))
    m1, m2 = Model1Spec.default(schema), Model2Spec.default(schema)
    model1, model2, tilted = DEFAULT_BASES[d]
    assert tuple(map(str, (m1.propensity_basis, m1.h_basis, m1.aux_regression_basis,
                           m1.outcome_basis))) == model1
    assert tuple(map(str, (m2.baseline_basis, m2.h_basis, m2.aux_regression_basis))) == model2
    assert m2.n_or_params == 1
    assert tuple(str(dataclasses.replace(m2, n_or_params=k).bases[0]) for k in (1, 2)) == tilted


@pytest.mark.parametrize("d", [1, 2])
def test_mar_default_basis_is_linear_in_x(d):
    rng = np.random.default_rng(d)
    n = 300
    schema = VariableSchema(covariate_names=tuple(f"x{j}" for j in range(1, d + 1)))
    g = np.where(rng.random(n) < 0.5, 1, 2)
    x = rng.normal(size=(n, d))
    y = x.sum(axis=1) + rng.normal(size=n)
    r = (rng.random(n) < 0.7).astype(int)
    ds = PooledDataset(schema, g=g, x=x, m=np.where(r == 1, rng.normal(size=n), np.nan),
                       y=np.where((g == 1) & (r == 1), y, np.nan), r=r)
    default = mar_estimate(ds)
    # the regression mar_estimate fits, with its basis spelled out
    spelled = BasisSpec.parse(",".join(["1"] + list(schema.covariate_names)))
    rows = FitRows(ds)
    (x_primary,), (x_cc, _, y_cc) = rows["primary"], rows["cc"]
    coef = solve_least_squares(evaluate_basis_matrix(spelled, x_cc), y_cc, spelled.column_names())
    beta = float((evaluate_basis_matrix(spelled, x_primary) @ coef).mean())
    assert default.beta_hat.hex() == beta.hex()
    assert default.nuisance == {"outcome_regression": coef.tolist()}
