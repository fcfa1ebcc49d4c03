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

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import DomainTag, PooledDataset, VariableSchema
from .models import (
    W_MAX,
    BasisSpec,
    calibration_slope,
    calibration_weights,
    evaluate_basis_matrix,
    fit_logistic,
    solve_least_squares,
    weighted_cross_products,
)
from .report import DomainArrays, EstimateReport, domain_arrays
from .solver import MomentSystem, SolverConfig, SolverResult, newton_stack, solve


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
    @functools.lru_cache(maxsize=64)
    def default(cls, schema: VariableSchema) -> "Model1Spec":
        """The default spec of a schema, built once per schema: specs are
        frozen, so every fit can share it."""
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


def _aux_regression_matrices(primary: DomainArrays, auxiliary: DomainArrays,
                             h_basis: BasisSpec, aux_regression_basis: BasisSpec):
    """h over the auxiliary complete cases, the X-only regression basis
    there, and that basis at every primary-domain X."""
    cc = auxiliary.complete
    return (evaluate_basis_matrix(h_basis, auxiliary.x[cc], auxiliary.m[cc]),
            evaluate_basis_matrix(aux_regression_basis, auxiliary.x[cc]),
            evaluate_basis_matrix(aux_regression_basis, primary.x))


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
    n_cc = int(auxiliary.complete.sum())
    if n_cc == 0:
        raise EstimationError("no complete cases in the auxiliary domain")
    if n_cc < len(aux_regression_basis.terms):
        raise EstimationError(
            f"only {n_cc} auxiliary complete cases for "
            f"{len(aux_regression_basis.terms)} regression terms"
        )
    h_cc, design, design_primary = _aux_regression_matrices(
        primary, auxiliary, h_basis, aux_regression_basis)
    coefs = solve_least_squares(design, h_cc, aux_regression_basis.column_names())
    return design_primary @ coefs, coefs


class _Calibration:
    """The calibration equation h^T (c w(theta)) / n1 = target on one
    dataset's primary complete cases, built once for its point fit and its
    stacked refits.

    B is `basis` over the complete cases (x, m, y), h is `h_basis` there, and
    the offset is -fixed_gamma * y.  A stack's member k counts complete case
    i counts[k, i] times, or once when counts is None, and has its own n1
    and target; methods take theta (K, p) and the members' counts, n1 and
    targets.  The Jacobian is -h^T diag(c * slope) B / n1.
    """

    def __init__(self, primary: DomainArrays, basis: BasisSpec, h_basis: BasisSpec,
                 m_dim: int, w_max: float = W_MAX, fixed_gamma: float = 0.0):
        cc = primary.complete
        x_cc, m_cc, self.y = primary.x[cc], primary.m[cc], primary.y[cc]
        self.design = evaluate_basis_matrix(basis, x_cc, m_cc, self.y)
        self.h = evaluate_basis_matrix(h_basis, x_cc, m_cc)
        if self.h.shape[1] < self.design.shape[1]:
            raise EstimationError(
                f"h basis has {self.h.shape[1]} components for {self.design.shape[1]} "
                "propensity parameters"
            )
        self.offset = -fixed_gamma * self.y if fixed_gamma else 0.0
        self.w_max = w_max
        x_only = [not (t.uses_m or t.uses_y) for t in basis.terms]
        self._init_design = evaluate_basis_matrix(
            BasisSpec(tuple(t for t, keep in zip(basis.terms, x_only) if keep)), primary.x)
        self._init_columns = np.repeat(x_only, [t.width(m_dim) for t in basis.terms])
        self._r = primary.r.astype(float)
        self._h_diag_b = weighted_cross_products(self.h, self.design)

    def init(self, counts: Optional[np.ndarray] = None) -> np.ndarray:
        """Initial theta (K, p): logistic fit of R on the X-only part of the
        basis over all primary rows, row i counted counts[k, i] times (once
        when counts is None, K = 1); M and Y coefficients start at 0."""
        init = np.zeros((1 if counts is None else len(counts), self._init_columns.size))
        init[:, self._init_columns] = fit_logistic(self._init_design, self._r, weights=counts)
        return init

    def weights(self, theta, counts=None):
        """Counted weights c w(theta), (K, n_cc)."""
        w = calibration_weights(self.design, theta, self.offset, self.w_max)
        return w if counts is None else w * counts

    def residual(self, theta, counts, n1, target):
        return self.weights(theta, counts) @ self.h / n1[:, None] - target

    def jacobian(self, theta, counts, n1):
        slope = calibration_slope(self.design, theta, self.offset, self.w_max)
        if counts is not None:
            slope = slope * counts
        return -self._h_diag_b(slope) / n1[:, None, None]

    def beta_hat(self, w, n1):
        """The outcome mean of counted weights w: their complete-case
        outcome sum over n1."""
        return w @ self.y / n1


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
    equation = _Calibration(primary, basis, h_basis, dataset.schema.m_dim, w_max, fixed_gamma)
    n1s, target = np.array([n1]), preds.mean(axis=0)[None]
    result = solve(
        MomentSystem(
            residual=lambda theta: equation.residual(theta[None], None, n1s, target)[0],
            dim_theta=equation.design.shape[1],
            init=equation.init()[0],
            config=config,
            jacobian=lambda theta: equation.jacobian(theta[None], None, n1s)[0],
        )
    )

    w_hat = equation.weights(result.theta_hat)
    n_capped = int(np.sum(w_hat >= w_max))
    warnings = []
    if not result.converged:
        warnings.append(f"moment solver did not converge (status={result.status})")
    if n_capped > 0.1 * n_cc:
        warnings.append(
            f"degenerate overlap: {n_capped} of {n_cc} complete-case weights capped"
        )
    return EstimateReport(
        beta_hat=float(equation.beta_hat(w_hat, n1)),
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


# A block of stacked refits of a dataset of n rows and p propensity
# parameters holds _BLOCK_BYTES // (8 n p) refits.  Blocks from 2 to 8 MiB
# ran about equally fast at n=2000; smaller ones pay the per-call overhead
# of numpy more often, larger ones fall out of cache.
_BLOCK_BYTES = 1 << 22


class StackedRefits:
    """`calibrate` with its default solver settings, weight cap and no fixed
    Y tilt, refitted on resamples of one dataset, a block at a time.

    A resample is given by its draw rows and fitted as the count vector of
    those rows: a frequency-weighted fit of the dataset's own rows, which is
    the fit of the resample up to the order of float sums.  The basis
    matrices and the dataset's `_Calibration`, the one the point fit solves,
    are built once, here; a block then runs the weighted auxiliary
    regression, the weighted logistic init and the one Newton attempt of
    each member as stacked operations.

    A refit comes back as None, to be refitted on its rows by the caller,
    when it has an empty domain, too few auxiliary complete cases, a rank
    deficient design, a singular init, a non-finite residual or beta_hat, a
    singular step, or does not converge: the per-refit fit then gives the
    failure reason or the solver status.
    """

    def __init__(self, dataset: PooledDataset, basis: BasisSpec, h_basis: BasisSpec,
                 aux_regression_basis: BasisSpec):
        self._n = len(dataset)
        primary = domain_arrays(dataset, DomainTag.PRIMARY)
        auxiliary = domain_arrays(dataset, DomainTag.AUXILIARY)
        self._primary_rows = np.flatnonzero(dataset.g == DomainTag.PRIMARY)
        self._aux_rows = np.flatnonzero(dataset.g == DomainTag.AUXILIARY)
        self._cc, self._aux_cc = primary.complete, auxiliary.complete
        self._min_aux_cc = max(1, len(aux_regression_basis.terms))
        self._aux_h, self._aux_design, self._aux_at_primary = _aux_regression_matrices(
            primary, auxiliary, h_basis, aux_regression_basis)
        self._equation = _Calibration(primary, basis, h_basis, dataset.schema.m_dim)
        self.block_size = max(
            1, _BLOCK_BYTES // (8 * max(1, self._n) * self._equation.design.shape[1]))

    def __call__(self, draws: list) -> list[Optional[tuple[float, SolverResult]]]:
        """(beta_hat, solver result) of the refit on each draw, or None."""
        out: list[Optional[tuple[float, SolverResult]]] = [None] * len(draws)
        counts = np.array([np.bincount(rows, minlength=self._n) for rows in draws],
                          dtype=float)
        primary, auxiliary = counts[:, self._primary_rows], counts[:, self._aux_rows]
        n1, aux_cc = primary.sum(axis=1), auxiliary[:, self._aux_cc]
        live = np.flatnonzero((n1 > 0) & (auxiliary.sum(axis=1) > 0)
                              & (primary[:, self._cc].sum(axis=1) > 0)
                              & (aux_cc.sum(axis=1) >= self._min_aux_cc))
        if live.size == 0:
            return out
        coefs = solve_least_squares(self._aux_design, self._aux_h, weights=aux_cc[live])
        target = np.einsum("ka,kaq->kq", primary[live] @ self._aux_at_primary,
                           coefs) / n1[live, None]
        equation = self._equation
        init = equation.init(primary[live])
        ok = np.all(np.isfinite(target), axis=1) & np.all(np.isfinite(init), axis=1)
        live, target, init = live[ok], target[ok], init[ok]
        if live.size == 0:
            return out
        cc_counts, n1 = primary[live][:, self._cc], n1[live]
        fits = newton_stack(
            lambda theta, members: equation.residual(theta, cc_counts[members], n1[members],
                                                     target[members]),
            lambda theta, members: equation.jacobian(theta, cc_counts[members], n1[members]),
            init, SolverConfig())
        done = np.array([fit is not None and fit.converged for fit in fits])
        members = np.flatnonzero(done)
        if members.size == 0:
            return out
        w = equation.weights(np.array([fits[k].theta_hat for k in members]), cc_counts[members])
        betas = equation.beta_hat(w, n1[members])
        for k, beta in zip(members.tolist(), betas.tolist()):
            if math.isfinite(beta):
                out[live[k]] = (beta, fits[k])
        return out


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


def _stacked_model1(dataset: PooledDataset) -> StackedRefits:
    spec = Model1Spec.default(dataset.schema)
    return StackedRefits(dataset, spec.propensity_basis, spec.h_basis,
                         spec.aux_regression_basis)


# bootstrap_ci refits the estimator with its defaults through this; a
# function attribute survives functools.wraps, which copies __dict__.
estimate_model1.stacked_refits = _stacked_model1


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
