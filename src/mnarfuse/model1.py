"""The calibration equation shared by the IPW estimators, and the estimator
for an outcome mean whose missingness is driven by the possibly-missing
auxiliary variable M (conditional on covariates).

The reciprocal propensity w(theta) = min(1 + exp(-B.theta), W_MAX) is
calibrated so that the weighted complete-case average of a user-chosen
h(x, m) in the primary domain matches the auxiliary-domain regression
prediction of the same h; the outcome mean is then the w-weighted
complete-case average of Y over all primary rows.  Here B = b(x, m); the
Y-driven estimator (model2) puts y and its x-interactions into B.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import DomainTag, PooledDataset, VariableSchema
from .models import (
    BasisSpec,
    calibration_slope,
    calibration_weights,
    capped_count,
    dependent_columns,
    evaluate_basis_matrix,
    fit_logistic,  # noqa: F401  (a lookup site patched by bench/tracing.py)
    member_sums,
    polynomial_basis,
    solve_least_squares,
    weighted_cross_products,
)
from .report import DomainArrays, EstimateReport, FitRows, domain_arrays
from .solver import MomentSystem, SolverResult, newton_stack, solve


class EstimationError(ValueError):
    pass


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
        xm = polynomial_basis(d, m=True)
        return cls(propensity_basis=xm, h_basis=xm,
                   aux_regression_basis=polynomial_basis(d, 2),
                   outcome_basis=polynomial_basis(d, 2, m=True))

    @property
    def bases(self) -> tuple[BasisSpec, BasisSpec, BasisSpec]:
        """(B, h, auxiliary regression basis), as `calibrate` takes them."""
        return self.propensity_basis, self.h_basis, self.aux_regression_basis


def _require_domains(dataset: PooledDataset) -> tuple[DomainArrays, DomainArrays]:
    primary = domain_arrays(dataset, DomainTag.PRIMARY)
    auxiliary = domain_arrays(dataset, DomainTag.AUXILIARY)
    if primary.n == 0 or auxiliary.n == 0:
        raise EstimationError("estimation requires records in both domains")
    return primary, auxiliary


def _aux_targets(rows: FitRows, h_basis: BasisSpec,
                 aux_regression_basis: BasisSpec) -> tuple[np.ndarray, np.ndarray]:
    """The calibration target of the FitRows `rows` and its regression
    coefficients: each column of h(X, M) regressed on the X-only basis over
    the auxiliary complete cases, predicted at the primary rows and averaged
    there.  On one dataset's rows, the target (q,) is the regressions at the
    primary mean of the basis, the coefficients are (a, q), and a rank
    deficient design raises RankDeficientError naming its term.  On a stack
    each member is weighted by its counts, giving (K, q) and (K, a, q), NaN
    where it is rank deficient.  Its matrices are freed on return."""
    x, m = rows["aux_cc"]
    h = evaluate_basis_matrix(h_basis, x, m)
    design = evaluate_basis_matrix(aux_regression_basis, x)
    at_primary = evaluate_basis_matrix(aux_regression_basis, *rows["primary"])
    primary = rows.counts("primary")
    coefs = solve_least_squares(design, h, aux_regression_basis.column_names(
        rows.schema.covariate_names), weights=rows.counts("aux_cc"))
    if primary is None:
        return at_primary.mean(axis=0) @ coefs, coefs
    return np.einsum("ka,kaq->kq", member_sums(primary, at_primary),
                     coefs) / primary.sum(axis=1)[:, None], coefs


def _fit_targets(dataset: PooledDataset, rows: FitRows, h_basis: BasisSpec,
                 aux_regression_basis: BasisSpec) -> tuple[np.ndarray, np.ndarray]:
    """`_aux_targets` of the dataset's FitRows `rows`, once the auxiliary
    domain has complete cases enough for the regression: (target with shape
    (dim_h,), coefficient matrix with shape (dim_aux_basis, dim_h))."""
    n_cc = len(_require_domains(dataset)[1].cc)
    if n_cc == 0:
        raise EstimationError("no complete cases in the auxiliary domain")
    if n_cc < len(aux_regression_basis.terms):
        raise EstimationError(
            f"only {n_cc} auxiliary complete cases for "
            f"{len(aux_regression_basis.terms)} regression terms"
        )
    return _aux_targets(rows, h_basis, aux_regression_basis)


class _Calibration:
    """The calibration equation h^T (c w(theta)) / n1 = target on the primary
    complete cases of a stack of members: the one member of `calibrate`'s
    point fit, or the members of a `_fit_stack`: the resamples of one
    dataset or a block of datasets.

    B is `basis` over the complete cases (x, m, y) of the FitRows `rows`,
    and h is `h_basis` there.  The members share the rows of one dataset,
    or each has its own, as `rows` lays them out: every row array then has
    a leading member axis.  Member k counts complete case i counts[k, i]
    times, or once when counts is None, and has its own n1 and target[k];
    residual and jacobian take theta of the given members, as newton_stack
    calls them.  The Jacobian is -h^T diag(c * slope) B / n1.
    """

    def __init__(self, rows: FitRows, basis: BasisSpec, h_basis: BasisSpec, target: np.ndarray):
        x_cc, m_cc, y = rows["cc"]
        m_dim = m_cc.shape[-1]
        if h_basis.width(m_dim) < basis.width(m_dim):
            raise EstimationError(
                f"h basis has {h_basis.width(m_dim)} components for {basis.width(m_dim)} "
                "propensity parameters"
            )
        self.design = evaluate_basis_matrix(basis, x_cc, m_cc, y)
        self.h = self.design if h_basis == basis else evaluate_basis_matrix(h_basis, x_cc, m_cc)
        self.y = y
        self.basis = basis
        self.counts, primary = rows.counts("cc"), rows.counts("primary")
        self.n1 = np.array([len(rows["primary"][0])]) if primary is None else primary.sum(axis=1)
        self.target = target
        self._h_diag_b = []  # built on the first Jacobian; shared rows' takes share it

    def take(self, members: np.ndarray) -> "_Calibration":
        """The equation of the given members of the stack, ascending, or
        itself when they are all of them."""
        if members.size == len(self.n1):
            return self
        part = copy.copy(self)
        part.counts, part.n1, part.target = (self.counts[members], self.n1[members],
                                             self.target[members])
        if self.design.ndim == 3:  # each member has its own rows
            part.design, part.y = self.design[members], self.y[members]
            part.h = part.design if self.h is self.design else self.h[members]
            part._h_diag_b = []
        return part

    def init(self, rows: FitRows) -> np.ndarray:
        """Initial theta (K, p): 0, where each weight is 2, for a member
        whose X-only part of the basis has full rank over the primary rows
        of `rows`, row i counted rows.counts("primary")[k, i] times; NaN for
        the others.  On one dataset's rows (K = 1) a rank deficient X-only
        design raises RankDeficientError instead, naming its term with the
        schema's covariate names."""
        x_only = BasisSpec(tuple(t for t in self.basis.terms if not (t.uses_m or t.uses_y)))
        init = np.zeros((len(self.n1), self.design.shape[-1]))
        bad = dependent_columns(evaluate_basis_matrix(x_only, *rows["primary"]),
                                rows.counts("primary"),
                                x_only.column_names(rows.schema.covariate_names))
        init[bad >= 0] = np.nan
        return init

    def weights(self, theta):
        """Counted weights c w(theta), (K, n_cc)."""
        w = calibration_weights(self.design, theta)
        return w if self.counts is None else w * self.counts

    def residual(self, theta, members):
        part = self.take(members)
        return member_sums(part.weights(theta), part.h) / part.n1[:, None] - part.target

    def jacobian(self, theta, members):
        part = self.take(members)
        slope = calibration_slope(part.design, theta)
        if part.counts is not None:
            slope = slope * part.counts
        if not part._h_diag_b:
            part._h_diag_b.append(weighted_cross_products(part.h, part.design))
        return -part._h_diag_b[0](slope) / part.n1[:, None, None]

    def beta_hat(self, w):
        """The outcome mean of each member's counted weights w: their
        complete-case outcome sum over its n1."""
        if self.y.ndim == 1:
            return w @ self.y / self.n1
        return np.einsum("kn,kn->k", w, self.y) / self.n1


def calibrate(dataset: PooledDataset, basis: BasisSpec, h_basis: BasisSpec,
              aux_regression_basis: BasisSpec, estimator: str) -> EstimateReport:
    """Solve h_cc^T w(theta) / n1 = target for the propensity coefficients,
    then average the w-weighted complete-case outcomes.

    B is `basis` over the primary complete cases (x, m, y), h_cc is `h_basis`
    there, and the target is the auxiliary regression of h evaluated at the
    primary-domain mean of its X-only basis.  The moment system carries its
    analytic Jacobian -h_cc^T diag(exp(-B.theta) 1[uncapped]) B / n1.  The
    nuisance "alpha" is the whole solved theta.
    """
    primary, auxiliary = _require_domains(dataset)
    n1, n_cc = primary.n, len(primary.cc)
    if n_cc == 0:
        raise EstimationError("no complete cases in the primary domain")

    rows = FitRows(dataset)
    target, aux_coefs = _fit_targets(dataset, rows, h_basis, aux_regression_basis)
    equation = _Calibration(rows, basis, h_basis, target)
    init = equation.init(rows)[0]
    del rows  # the solve reads the equation alone: its peak memory holds no other row copy
    result = solve(MomentSystem(equation.residual, equation.jacobian, init))

    w_hat = equation.weights(result.theta_hat)
    n_capped = capped_count(w_hat)
    warnings = []
    if not result.converged:
        warnings.append(f"moment solver did not converge (status={result.status})")
    if n_capped > 0.1 * n_cc:
        warnings.append(
            f"degenerate overlap: {n_capped} of {n_cc} complete-case weights capped"
        )
    return EstimateReport(
        beta_hat=float(equation.beta_hat(w_hat)[0]),
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
            "n_complete_auxiliary": len(auxiliary.cc),
            "weight_cap_count": n_capped,
            "min_weight": float(w_hat.min()),
            "max_weight": float(w_hat.max()),
        },
        warnings=warnings,
    )


def _fit_stack(spec, rows: FitRows, start: Optional[np.ndarray] = None,
               ) -> list[Optional[tuple[float, SolverResult]]]:
    """`calibrate` with the bases of spec.default(rows.schema), the default
    spec of the spec class `spec`, for the members of the stack `rows` at
    once: (beta_hat, solver result) of each member, or None.  Member k
    counts row i of each set rows.counts(set)[k, i] times.  Every member's
    Newton attempt starts at `start` when it has the equation's width p,
    else at `_Calibration.init`; the attempts run as stacked operations.

    A member comes back as None, to be refitted on its own rows by the
    caller, when it is not live (no primary complete case, or fewer
    auxiliary complete cases than max(1, auxiliary regression terms)), has
    a rank deficient auxiliary regression or (from `_Calibration.init`)
    X-only design, whose NaN target or start makes its first residual
    non-finite, a non-finite residual or beta_hat, a singular step, or does
    not converge: the fit of the one dataset then gives the failure reason
    or the solver status.
    """
    basis, h_basis, aux_regression_basis = spec.default(rows.schema).bases
    out: list[Optional[tuple[float, SolverResult]]] = [None] * len(rows.counts("primary"))
    live = np.flatnonzero((rows.counts("cc").sum(axis=1) > 0)
                          & (rows.counts("aux_cc").sum(axis=1)
                             >= max(1, len(aux_regression_basis.terms))))
    if live.size == 0:
        return out
    rows = rows.take(live)
    # the targets' regression matrices are freed before the calibration's
    # are built, which bounds the memory of a stack
    equation = _Calibration(rows, basis, h_basis,
                            _aux_targets(rows, h_basis, aux_regression_basis)[0])
    if start is None or start.shape != equation.design.shape[-1:]:
        init = equation.init(rows)
    else:
        init = np.tile(start, (live.size, 1))
    fits = newton_stack(equation.residual, equation.jacobian, init)
    members = np.flatnonzero([fit is not None and fit.converged for fit in fits])
    if members.size == 0:
        return out
    done = equation.take(members)
    w = done.weights(np.array([fits[k].theta_hat for k in members]))
    for k, beta in zip(members.tolist(), done.beta_hat(w).tolist()):
        if math.isfinite(beta):
            out[live[k]] = (beta, fits[k])
    return out


def estimate_model1(dataset: PooledDataset,
                    spec: Optional[Model1Spec] = None) -> EstimateReport:
    """Two-step IPW estimate: solve the h-moment system for the propensity
    coefficients on b(x, m), then average the reweighted complete-case
    outcomes."""
    if spec is None:
        spec = Model1Spec.default(dataset.schema)
    return calibrate(dataset, *spec.bases, "ipw-model1")


# the stacked fit of the defaults, through which bootstrap_ci and replicate fit
# stacks
estimate_model1.stacked_fits = functools.partial(_fit_stack, Model1Spec)
estimate_model1.stacked_fits.owner = estimate_model1
