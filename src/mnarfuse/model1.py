"""The calibration equation shared by the IPW estimators, and the estimator
for an outcome mean whose missingness is driven by the possibly-missing
auxiliary variable M (conditional on covariates).

The reciprocal propensity w(theta) = min(1 + exp(-B.theta + offset), w_max)
is calibrated so that the weighted complete-case average of a user-chosen
h(x, m) in the primary domain matches the auxiliary-domain regression
prediction of the same h; the outcome mean is then the w-weighted
complete-case average of Y over all primary rows.  Here B = b(x, m); the
Y-driven estimator (model2) puts y and its x-interactions into B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import DomainTag, PooledDataset, VariableSchema
from .models import (
    W_MAX,
    BasisSpec,
    calibration_weights,
    evaluate_basis_matrix,
    fit_logistic,
    solve_least_squares,
)
from .report import DomainArrays, EstimateReport, domain_arrays
from .solver import MomentSystem, SolverConfig, solve


class EstimationError(ValueError):
    pass


def _polynomial_x_basis(d: int, degree: int = 2) -> BasisSpec:
    text = "1"
    for j in range(1, d + 1):
        for p in range(1, degree + 1):
            text += f",x{j}" if p == 1 else f",x{j}^{p}"
    return BasisSpec.parse(text)


def _linear_xm_basis(d: int) -> BasisSpec:
    text = "1" + "".join(f",x{j}" for j in range(1, d + 1)) + ",m"
    return BasisSpec.parse(text)


@dataclass(frozen=True)
class Model1Spec:
    propensity_basis: BasisSpec
    h_basis: BasisSpec
    aux_regression_basis: BasisSpec
    outcome_basis: BasisSpec

    @classmethod
    def default(cls, schema: VariableSchema) -> "Model1Spec":
        d = schema.n_covariates
        xm = _linear_xm_basis(d)
        quad = _polynomial_x_basis(d)
        outcome = BasisSpec.parse(
            "1"
            + "".join(f",x{j},x{j}^2" for j in range(1, d + 1))
            + ",m"
        )
        return cls(
            propensity_basis=xm,
            h_basis=xm,
            aux_regression_basis=quad,
            outcome_basis=outcome,
        )


def _require_domains(dataset: PooledDataset) -> tuple[DomainArrays, DomainArrays]:
    primary = domain_arrays(dataset, DomainTag.PRIMARY)
    auxiliary = domain_arrays(dataset, DomainTag.AUXILIARY)
    if primary.n == 0 or auxiliary.n == 0:
        raise EstimationError("estimation requires records in both domains")
    return primary, auxiliary


def fit_aux_moment_targets(
    dataset: PooledDataset,
    h_basis: BasisSpec,
    aux_regression_basis: BasisSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Auxiliary-domain regression predictions of each h-component.

    Each column of h(X, M) is regressed on the X-only basis over auxiliary
    complete cases, and the fitted regressions are evaluated at every
    primary-domain X.  Returns (predictions with shape (n_primary, dim_h),
    coefficient matrix with shape (dim_aux_basis, dim_h)).
    """
    primary, auxiliary = _require_domains(dataset)
    cc = auxiliary.complete
    n_cc = int(cc.sum())
    if n_cc == 0:
        raise EstimationError("no complete cases in the auxiliary domain")
    if n_cc < len(aux_regression_basis.terms):
        raise EstimationError(
            f"only {n_cc} auxiliary complete cases for "
            f"{len(aux_regression_basis.terms)} regression terms"
        )
    h_cc = evaluate_basis_matrix(h_basis, auxiliary.x[cc], auxiliary.m[cc])
    design = evaluate_basis_matrix(aux_regression_basis, auxiliary.x[cc])
    coefs = solve_least_squares(design, h_cc, aux_regression_basis.column_names())
    design_primary = evaluate_basis_matrix(aux_regression_basis, primary.x)
    return design_primary @ coefs, coefs


def _init_theta(primary: DomainArrays, basis: BasisSpec, m_dim: int) -> np.ndarray:
    """Initial propensity coefficients: logistic fit of R on the X-only part
    of the basis over all primary rows; M and Y coefficients start at 0."""
    x_only = [not (t.uses_m or t.uses_y) for t in basis.terms]
    design = evaluate_basis_matrix(
        BasisSpec(tuple(t for t, keep in zip(basis.terms, x_only) if keep)), primary.x
    )
    init = np.zeros(basis.width(m_dim))
    init[np.repeat(x_only, [t.width(m_dim) for t in basis.terms])] = fit_logistic(
        design, primary.r.astype(float)
    )
    return init


def calibrate(
    dataset: PooledDataset,
    basis: BasisSpec,
    h_basis: BasisSpec,
    aux_regression_basis: BasisSpec,
    estimator: str,
    config: Optional[SolverConfig] = None,
    w_max: float = W_MAX,
    fixed_gamma: float = 0.0,
) -> EstimateReport:
    """Solve h_cc^T w(theta) / n1 = target for the propensity coefficients,
    then average the w-weighted complete-case outcomes.

    B is `basis` over the primary complete cases (x, m, y), h_cc is `h_basis`
    there, and the target is the primary-domain mean of the auxiliary
    regression predictions of h.  fixed_gamma holds a Y tilt fixed through
    the offset -fixed_gamma * y.  The moment system carries its analytic
    Jacobian -h_cc^T diag(exp(-B.theta + offset) 1[uncapped]) B / n1.  The
    nuisance "alpha" is the whole solved theta.
    """
    if config is None:
        config = SolverConfig()
    primary, auxiliary = _require_domains(dataset)
    cc = primary.complete
    n1 = primary.n
    n_cc = int(cc.sum())
    if n_cc == 0:
        raise EstimationError("no complete cases in the primary domain")

    preds, aux_coefs = fit_aux_moment_targets(dataset, h_basis, aux_regression_basis)
    target = preds.mean(axis=0)

    x_cc, m_cc, y_cc = primary.x[cc], primary.m[cc], primary.y[cc]
    design = evaluate_basis_matrix(basis, x_cc, m_cc, y_cc)
    h_cc = evaluate_basis_matrix(h_basis, x_cc, m_cc)
    if h_cc.shape[1] < design.shape[1]:
        raise EstimationError(
            f"h basis has {h_cc.shape[1]} components for {design.shape[1]} "
            "propensity parameters"
        )
    offset = -fixed_gamma * y_cc if fixed_gamma else 0.0

    def residual(theta: np.ndarray) -> np.ndarray:
        w, _ = calibration_weights(design, theta, offset, w_max)
        return h_cc.T @ w / n1 - target

    def jacobian(theta: np.ndarray) -> np.ndarray:
        _, slope = calibration_weights(design, theta, offset, w_max)
        return -(h_cc.T @ (design * slope[:, None])) / n1

    result = solve(
        MomentSystem(
            residual=residual,
            dim_theta=design.shape[1],
            init=_init_theta(primary, basis, dataset.schema.m_dim),
            config=config,
            jacobian=jacobian,
        )
    )

    w_hat, _ = calibration_weights(design, result.theta_hat, offset, w_max)
    n_capped = int(np.sum(w_hat >= w_max))
    warnings = []
    if not result.converged:
        warnings.append(f"moment solver did not converge (status={result.status})")
    if n_capped > 0.1 * n_cc:
        warnings.append(
            f"degenerate overlap: {n_capped} of {n_cc} complete-case weights capped"
        )
    return EstimateReport(
        beta_hat=float(w_hat @ y_cc / n1),
        estimator=estimator,
        nuisance={
            "alpha": result.theta_hat.tolist(),
            "aux_regression": aux_coefs.ravel().tolist(),
        },
        solver=result,
        diagnostics={
            "n_primary": n1,
            "n_auxiliary": auxiliary.n,
            "n_complete_primary": n_cc,
            "n_complete_auxiliary": int(auxiliary.complete.sum()),
            "weight_cap_count": n_capped,
            "min_weight": float(w_hat.min()),
            "max_weight": float(w_hat.max()),
        },
        warnings=warnings,
    )


def estimate_model1(
    dataset: PooledDataset,
    spec: Optional[Model1Spec] = None,
    config: Optional[SolverConfig] = None,
    w_max: float = W_MAX,
) -> EstimateReport:
    """Two-step IPW estimate: solve the h-moment system for the propensity
    coefficients on b(x, m), then average the reweighted complete-case
    outcomes."""
    if spec is None:
        spec = Model1Spec.default(dataset.schema)
    return calibrate(dataset, spec.propensity_basis, spec.h_basis,
                     spec.aux_regression_basis, "ipw-model1", config, w_max)


def identify_beta_model1_plugin(
    dataset: PooledDataset,
    spec: Optional[Model1Spec] = None,
) -> float:
    """Outcome-regression plug-in of the identification functional.

    Fits E[Y | X, M] on primary complete cases, projects those fitted values
    onto the X-only basis over auxiliary complete cases, and averages the
    resulting predictions over all primary-domain X.
    """
    if spec is None:
        spec = Model1Spec.default(dataset.schema)
    primary, auxiliary = _require_domains(dataset)
    cc1 = primary.complete
    if int(cc1.sum()) == 0:
        raise EstimationError("no complete cases in the primary domain")
    design1 = evaluate_basis_matrix(spec.outcome_basis, primary.x[cc1], primary.m[cc1])
    g1_coef = solve_least_squares(
        design1, primary.y[cc1], spec.outcome_basis.column_names(dataset.schema.m_dim)
    )

    cc2 = auxiliary.complete
    if int(cc2.sum()) == 0:
        raise EstimationError("no complete cases in the auxiliary domain")
    g1_aux = (
        evaluate_basis_matrix(spec.outcome_basis, auxiliary.x[cc2], auxiliary.m[cc2])
        @ g1_coef
    )
    design2 = evaluate_basis_matrix(spec.aux_regression_basis, auxiliary.x[cc2])
    outer_coef = solve_least_squares(
        design2, g1_aux, spec.aux_regression_basis.column_names()
    )
    preds = evaluate_basis_matrix(spec.aux_regression_basis, primary.x) @ outer_coef
    return float(preds.mean())
