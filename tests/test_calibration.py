"""The calibration equation shared by both IPW estimators: its analytic
Jacobian, Model 1's equivariance in Y and overlap warning, and the estimates
of the finite-difference solver it replaced on a fixed seed panel."""

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mnarfuse import model1, models
from mnarfuse.data import DomainTag, PooledDataset, VariableSchema
from mnarfuse.model1 import Model1Spec, calibrate, estimate_model1
from mnarfuse.model2 import Model2Spec, estimate_model2
from mnarfuse.models import W_MAX, BasisSpec, evaluate_basis_matrix, logistic
from mnarfuse.report import FitRows, domain_arrays
from mnarfuse.simulate import Model1Design, Model2Design, generate_model1, generate_model2
from mnarfuse.solver import newton_stack, solve
from test_estimators import recovered_propensity

CATEGORICAL = VariableSchema(covariate_names=("x1",), m_kind="categorical",
                             m_levels=("none", "mild", "severe"))


def _categorical_dataset(n=600, seed=0):
    rng = np.random.default_rng(seed)
    g = np.where(rng.random(n) < 0.5, 1, 2)
    x = rng.uniform(-1.0, 1.0, n)
    m = rng.integers(0, 3, n).astype(float)
    y = 0.5 * x + 0.9 * (m == 1) + 1.6 * (m == 2) + rng.normal(size=n)
    r = (rng.random(n) < logistic(0.4 + 0.3 * x + 0.8 * (m == 1) - 0.5 * (m == 2))).astype(int)
    return PooledDataset(CATEGORICAL, g=g, x=x[:, None], m=np.where(r == 1, m, np.nan),
                         y=np.where((g == 1) & (r == 1), y, np.nan), r=r)


def _model2_spec(n_or_params):
    return Model2Spec(baseline_basis=BasisSpec.parse("1,x1"),
                      h_basis=BasisSpec.parse("1,x1,m,x1^2"),
                      aux_regression_basis=BasisSpec.parse("1,x1,x1^2"),
                      n_or_params=n_or_params)


_M1 = generate_model1(Model1Design(n=600), 3)[0]
_M2 = generate_model2(Model2Design(n=600), 3)[0]
_CAT = _categorical_dataset()

# name -> (dataset, propensity basis, weight cap, fit); each fit runs with
# models.W_MAX patched to its case's cap
CASES = {
    "model1-numeric": (_M1, Model1Spec.default(_M1.schema).propensity_basis, W_MAX,
                       lambda: estimate_model1(_M1)),
    "model1-numeric-capped": (_M1, Model1Spec.default(_M1.schema).propensity_basis, 3.0,
                              lambda: estimate_model1(_M1)),
    "model1-categorical": (_CAT, Model1Spec.default(CATEGORICAL).propensity_basis, W_MAX,
                           lambda: estimate_model1(_CAT)),
    "model2-gamma": (_M2, BasisSpec.parse("1,x1,y"), 3.0, lambda: estimate_model2(_M2)),
    "model2-xy-tilt": (_M2, BasisSpec.parse("1,x1,y,x1*y"), W_MAX,
                       lambda: estimate_model2(_M2, _model2_spec(2))),
    # gamma held at 0, the MAR-in-X fit: Model 2's baseline basis alone as B
    "model2-fixed-gamma": (_M2, BasisSpec.parse("1,x1"), 3.0,
                           lambda: calibrate(_M2, _model2_spec(1).baseline_basis,
                                             *_model2_spec(1).bases[1:], "ipw-model2")),
}
_SYSTEMS = {}


def _system(case):
    """The moment system the estimator hands to the solver, and its solved
    theta."""
    if case not in _SYSTEMS:
        real_solve = model1.solve

        def capture(system):
            result = real_solve(system)
            _SYSTEMS[case] = system, result.theta_hat
            return result

        model1.solve = capture
        try:
            with mock.patch.object(models, "W_MAX", CASES[case][2]):
                CASES[case][-1]()
        finally:
            model1.solve = real_solve
    return _SYSTEMS[case]


def _at(stacked, theta):
    """A captured system's stacked residual or Jacobian at one theta (p,)."""
    return stacked(theta[None], np.zeros(1, dtype=np.intp))[0]


def _linear_predictor(case, theta):
    """-B.theta on the primary complete cases, rebuilt from the case."""
    dataset, basis, _, _ = CASES[case]
    x_cc, m_cc, y_cc = FitRows(dataset)["cc"]
    return -evaluate_basis_matrix(basis, x_cc, m_cc, y_cc) @ theta


def _central_difference(fn, theta, step=1e-6):
    cols = []
    for j in range(theta.size):
        h = step * (1.0 + abs(theta[j]))
        up, down = theta.copy(), theta.copy()
        up[j] += h
        down[j] -= h
        cols.append((fn(up) - fn(down)) / (2.0 * h))
    return np.column_stack(cols)


@pytest.mark.parametrize("case", [c for c in CASES if CASES[c][2] < W_MAX])
def test_capped_cases_exercise_the_cap_mask(case):
    w_max = CASES[case][2]
    weights = 1.0 + np.exp(_linear_predictor(case, _system(case)[1]))
    assert np.any(weights > w_max) and np.any(weights < w_max)


@pytest.mark.parametrize("case", list(CASES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_analytic_jacobian_matches_central_differences(case, data):
    system, theta_hat = _system(case)
    shift = data.draw(st.lists(st.floats(-0.5, 0.5), min_size=system.init.size,
                               max_size=system.init.size))
    theta = theta_hat + np.array(shift)
    # keep every row away from the cap's kink, where the residual has no
    # derivative and a central difference straddles it
    kink = math.log(CASES[case][2] - 1.0)
    assume(np.min(np.abs(_linear_predictor(case, theta) - kink)) > 1e-3)
    # a context manager, not monkeypatch: Hypothesis rejects function-scoped fixtures
    with mock.patch.object(models, "W_MAX", CASES[case][2]):
        analytic = _at(system.jacobian, theta)
        numeric = _central_difference(lambda t: _at(system.residual, t), theta)
    np.testing.assert_allclose(analytic, numeric, rtol=1e-5,
                               atol=1e-5 * np.abs(analytic).max())


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(1, 30), setting=st.sampled_from(["T", "F"]),
       a=st.floats(-10.0, 10.0),
       b=st.floats(0.1, 5.0).flatmap(lambda v: st.sampled_from([v, -v])))
def test_model1_is_affine_equivariant_in_y(seed, setting, a, b):
    # the constant h-moment forces sum(q)/n1 = 1 at the root, so the
    # weighted mean of a + bY is a + b times the weighted mean of Y
    dataset = generate_model1(Model1Design(n=500, setting=setting), seed)[0]
    base = estimate_model1(dataset)
    assume(base.solver.converged)
    shifted = PooledDataset(dataset.schema, g=dataset.g, x=dataset.x, m=dataset.m,
                            y=a + b * dataset.y, r=dataset.r)
    report = estimate_model1(shifted)
    assert report.solver.converged
    assert report.beta_hat == pytest.approx(a + b * base.beta_hat, abs=1e-9)


@pytest.mark.parametrize("estimate,generate,design",
                         [(estimate_model1, generate_model1, Model1Design),
                          (estimate_model2, generate_model2, Model2Design)],
                         ids=["model1", "model2"])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), setting=st.sampled_from(["T", "F"]),
       order=st.integers(0, 2**31 - 1), shift=st.floats(-0.3, 0.3))
def test_converged_beta_hat_is_invariant_under_row_order_and_start(
        estimate, generate, design, seed, setting, order, shift):
    # a converged fit is polished to the root of its equation, which does
    # not depend on the order of the rows; where within tol of the root an
    # unpolished fit stopped did (2.9e-8 apart on a non-converged fit)
    dataset = generate(design(n=500, setting=setting), seed)[0]
    report = estimate(dataset)
    assume(report.solver.converged)
    permuted = estimate(dataset.take(np.random.default_rng(order).permutation(len(dataset))))
    assert permuted.solver.converged
    assert permuted.beta_hat == pytest.approx(report.beta_hat, abs=1e-12, rel=0)
    # nor on where the solve starts: the dataset's rows, counted once each,
    # solved from a start off the point fit's theta
    [fit] = estimate.stacked_fits(FitRows.of_resamples(dataset, [np.arange(len(dataset))]),
                                  report.solver.theta_hat + shift)
    assume(fit is not None)
    assert fit[0] == pytest.approx(report.beta_hat, abs=1e-12, rel=0)


def test_a_model2_equation_with_two_roots(monkeypatch):
    # a dataset on which the property test above fails for Model 2: the
    # calibration equation folds, and a refit started off the point fit's
    # root converges to a second root, where det J has the other sign
    dataset = generate_model2(Model2Design(n=500, setting="F"), 48666392)[0]
    systems = []
    real_solve = model1.solve

    def capture(system):
        systems.append(system)
        return real_solve(system)

    monkeypatch.setattr(model1, "solve", capture)
    report = estimate_model2(dataset)
    point = report.solver
    assert point.converged and point.iterations == 10
    assert report.beta_hat == pytest.approx(-1.1963142, abs=1e-7)
    np.testing.assert_allclose(point.theta_hat, [3.954, -1.096, 1.729], atol=1e-3)
    [(beta_hat, refit)] = estimate_model2.stacked_fits(
        FitRows.of_resamples(dataset, [np.arange(len(dataset))]), point.theta_hat + 0.25)
    assert refit.converged and refit.iterations == 9
    assert beta_hat == pytest.approx(-1.2471433, abs=1e-7)
    np.testing.assert_allclose(refit.theta_hat, [4.881, -1.346, 2.023], atol=1e-3)
    [system] = systems
    for theta, det, cond in ((point.theta_hat, -3.27e-3, 992), (refit.theta_hat, 2.79e-3, 1229)):
        assert np.linalg.norm(_at(system.residual, theta)) < 1e-12  # both are roots
        jacobian = _at(system.jacobian, theta)
        assert np.linalg.det(jacobian) == pytest.approx(det, rel=2e-3)
        assert np.linalg.cond(jacobian) == pytest.approx(cond, rel=1e-3)


_GENERATORS = {"model1": (generate_model1, Model1Design, estimate_model1),
               "model2": (generate_model2, Model2Design, estimate_model2)}


@pytest.mark.parametrize("case", ["model1-T", "model1-F", "model2-T", "model2-F",
                                  "model1-categorical", "model1-numeric-capped"])
def test_the_point_fit_solves_its_system_as_a_one_member_stack(case, monkeypatch):
    # the system that calibrate hands to solve is in newton_stack's own form
    systems = []
    real_solve = model1.solve

    def capture(system):
        systems.append(system)
        return real_solve(system)

    monkeypatch.setattr(model1, "solve", capture)
    if case in CASES:
        monkeypatch.setattr(models, "W_MAX", CASES[case][2])
        CASES[case][-1]()
    else:
        model, setting = case.split("-")
        generate, design, estimate = _GENERATORS[model]
        estimate(generate(design(n=600, setting=setting), 3)[0])
    [system] = systems
    alone = solve(system)
    [stacked] = newton_stack(system.residual, system.jacobian, system.init[None])
    assert alone.theta_hat.tobytes() == stacked.theta_hat.tobytes()
    assert ((alone.status, alone.iterations, alone.residual_evals, alone.jacobian_evals,
             alone.final_residual_norm)
            == (stacked.status, stacked.iterations, stacked.residual_evals,
                stacked.jacobian_evals, stacked.final_residual_norm))


def test_model1_warns_of_degenerate_overlap():
    with mock.patch.object(models, "W_MAX", 2.0):
        capped = estimate_model1(_M1)
    d = capped.diagnostics
    assert d["weight_cap_count"] > 0.1 * d["n_complete_primary"]
    assert any(w.startswith("degenerate overlap") for w in capped.warnings)
    with mock.patch.object(models, "W_MAX", 3.0):
        assert not any(w.startswith("degenerate overlap")
                       for w in estimate_model1(_M1).warnings)


def test_model2_weights_are_the_recovered_propensities():
    n1 = domain_arrays(_M2, DomainTag.PRIMARY).n
    x_cc, _, y_cc = FitRows(_M2)["cc"]
    report = estimate_model2(_M2)
    alpha = np.array(report.nuisance["alpha"])
    weights = np.array([1.0 / recovered_propensity(x, y, alpha, report.nuisance["gamma"])
                        for x, y in zip(x_cc, y_cc)])
    assert weights @ y_cc / n1 == pytest.approx(report.beta_hat, abs=1e-12)


def test_h_is_the_propensity_design_when_their_bases_are_one():
    # Model 1's default h and B are both 1, x1, m; Model 2's B adds y
    for dataset, spec, shared in ((_M1, Model1Spec.default(_M1.schema), True),
                                  (_M2, Model2Spec.default(_M2.schema), False)):
        basis, h_basis, _ = spec.bases
        rows = FitRows(dataset)
        equation = model1._Calibration(rows, basis, h_basis, np.zeros(h_basis.width()))
        assert (equation.h is equation.design) is shared
        x_cc, m_cc, _ = rows["cc"]
        np.testing.assert_array_equal(equation.h, evaluate_basis_matrix(h_basis, x_cc, m_cc))
        stack = model1._Calibration(FitRows.of_block([dataset, dataset]), basis, h_basis,
                                    np.zeros((2, h_basis.width())))
        part = stack.take(np.array([1]))
        assert (part.h is part.design) is shared
        np.testing.assert_array_equal(part.h[0], equation.h)


# sha256 of the auxiliary regression coefficients of each model's default
# spec, recorded from the code that averaged the regression's (n1, q)
# predictions at the primary rows into the target
AUX_COEFS = {
    ("model1", "T"): "788b6f43695c0771e5d020fa1f01772c7ab1bc833a5ddf6f30349a0f5c129087",
    ("model1", "F"): "788b6f43695c0771e5d020fa1f01772c7ab1bc833a5ddf6f30349a0f5c129087",
    ("model2", "T"): "aa3f4b32250ef2047a0239b9e8f950803aaf9a819d8ae39e640f94c3c5498b85",
    ("model2", "F"): "bc0091dc0408022daeffefcecbf4639cd05c909dc109b5b638b38295e7b0fcd9",
    ("categorical", "T"): "ec7068298ed6dd97b2c57109d889ad8877e38c92b2b864aa30b5544352ab573a",
}


@pytest.mark.parametrize("model,setting", list(AUX_COEFS))
def test_target_is_the_regression_at_the_primary_mean_of_the_basis(model, setting):
    if model == "model2":
        dataset = generate_model2(Model2Design(n=600, setting=setting), 3)[0]
        spec = Model2Spec.default(dataset.schema)
    else:
        dataset = (_CAT if model == "categorical"
                   else generate_model1(Model1Design(n=600, setting=setting), 3)[0])
        spec = Model1Spec.default(dataset.schema)
    _, h_basis, aux_basis = spec.bases
    target, coefs = model1._fit_targets(dataset, FitRows(dataset), h_basis, aux_basis)
    primary = evaluate_basis_matrix(
        aux_basis, dataset.x[domain_arrays(dataset, DomainTag.PRIMARY).rows])
    np.testing.assert_allclose(target, (primary @ coefs).mean(axis=0), rtol=0, atol=1e-13)
    assert hashlib.sha256(coefs.tobytes()).hexdigest() == AUX_COEFS[model, setting]


# beta_hat of the forward-difference Newton solver these estimators used
# before the analytic Jacobian, at n=2000 and tol=1e-12 (seeds 1-5)
PANEL = {
    (1, "T"): (1.8189202805354356, 1.7549662586292765, 1.8748341576104792,
               1.7511545029290752, 1.8924288184157225),
    (1, "F"): (1.8270494170489369, 1.7073240910543515, 1.7402203975725117,
               1.7095474472111063, 1.9907802279406646),
    (2, "T"): (-0.5378718488063914, -0.28716086726841067, -0.6089595315900614,
               -0.6162676259630792, -0.7036725819085412),
    (2, "F"): (-0.5326592994874958, -0.19775153045125946, -0.551706649164552,
               -0.4965243302687338, -0.6346105055686652),
}


@pytest.mark.parametrize("model,setting", list(PANEL))
def test_same_estimates_as_the_finite_difference_solver(model, setting):
    for seed, expected in enumerate(PANEL[model, setting], start=1):
        if model == 1:
            report = estimate_model1(
                generate_model1(Model1Design(n=2000, setting=setting), seed)[0])
        else:
            report = estimate_model2(
                generate_model2(Model2Design(n=2000, setting=setting), seed)[0])
        assert report.solver.converged
        assert abs(report.beta_hat - expected) <= 1e-10
