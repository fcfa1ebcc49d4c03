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

import copy
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
    dependent_columns,
    evaluate_basis_matrix,
    fit_logistic,  # noqa: F401  (a lookup site patched by bench/tracing.py)
    member_sums,
    solve_least_squares,
    weighted_cross_products,
)
from .report import DomainArrays, EstimateReport, FitRows, domain_arrays, domain_rows
from .solver import MomentSystem, SolverResult, newton_stack, solve


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


def _aux_regression_matrices(rows: FitRows, h_basis: BasisSpec,
                             aux_regression_basis: BasisSpec):
    """h over the auxiliary complete cases, the X-only regression basis
    there, and that basis at every primary-domain X; as rows stacks them."""
    x, m = rows["aux_cc"]
    return (rows.stack("aux_cc", evaluate_basis_matrix(h_basis, x, m)),
            rows.stack("aux_cc", evaluate_basis_matrix(aux_regression_basis, x)),
            rows.stack("primary", evaluate_basis_matrix(aux_regression_basis, *rows["primary"])))


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
        FitRows(primary, auxiliary), h_basis, aux_regression_basis)
    coefs = solve_least_squares(design, h_cc, aux_regression_basis.column_names())
    return design_primary @ coefs, coefs


class _Calibration:
    """The calibration equation h^T (c w(theta)) / n1 = target on the primary
    complete cases of a stack of members: the one member of `calibrate`'s
    point fit, the resamples of one dataset (StackedRefits) or a block of
    datasets (fit_datasets).

    B is `basis` over the complete cases (x, m, y) of the FitRows `rows`, h
    is `h_basis` there, and the offset is -fixed_gamma * y.  The members
    share the rows of one dataset, or each has its own, as `rows` lays them
    out: every row array then has a leading member axis.  Member k counts
    complete case i counts[k, i] times, or once when counts is None, and has
    its own n1 and target; methods take theta (K, p) and the members'
    counts, n1 and targets.  The Jacobian is -h^T diag(c * slope) B / n1.
    """

    def __init__(self, rows: FitRows, basis: BasisSpec, h_basis: BasisSpec,
                 w_max: float = W_MAX, fixed_gamma: float = 0.0):
        x_cc, m_cc, y = rows["cc"]
        m_dim = m_cc.shape[1]
        if h_basis.width(m_dim) < basis.width(m_dim):
            raise EstimationError(
                f"h basis has {h_basis.width(m_dim)} components for {basis.width(m_dim)} "
                "propensity parameters"
            )
        self.design = rows.stack("cc", evaluate_basis_matrix(basis, x_cc, m_cc, y))
        self.h = rows.stack("cc", evaluate_basis_matrix(h_basis, x_cc, m_cc))
        self.y = rows.stack("cc", y)
        self.offset = -fixed_gamma * self.y if fixed_gamma else 0.0
        self.w_max = w_max
        x_only = BasisSpec(tuple(t for t in basis.terms if not (t.uses_m or t.uses_y)))
        self._x_only = rows.stack("primary", evaluate_basis_matrix(x_only, *rows["primary"]))
        self._h_diag_b = None  # built on the first Jacobian

    def take(self, members: np.ndarray) -> "_Calibration":
        """The equation of the given members of the stack, for their
        residuals, Jacobians, weights and beta_hat (`init` stays the whole
        stack's): itself when the members share their rows or when members
        are all of them."""
        if self.design.ndim == 2 or members.size == len(self.design):
            return self
        part = copy.copy(self)
        part.design, part.h, part.y = (rows[members] for rows in (self.design, self.h, self.y))
        if not np.isscalar(self.offset):
            part.offset = self.offset[members]
        part._h_diag_b = None
        return part

    def init(self, counts: Optional[np.ndarray] = None) -> np.ndarray:
        """Initial theta (K, p): 0, where each weight is its base weight
        1 + exp(offset), for a member whose X-only part of the basis has full
        rank over all primary rows, row i counted counts[k, i] times; NaN for
        the others.  With counts None (K = 1) a rank deficient X-only design
        raises RankDeficientError instead."""
        init = np.zeros((1 if counts is None else len(counts), self.design.shape[-1]))
        init[dependent_columns(self._x_only, counts) >= 0] = np.nan
        return init

    def weights(self, theta, counts=None):
        """Counted weights c w(theta), (K, n_cc)."""
        w = calibration_weights(self.design, theta, self.offset, self.w_max)
        return w if counts is None else w * counts

    def residual(self, theta, counts, n1, target):
        return member_sums(self.weights(theta, counts), self.h) / n1[:, None] - target

    def jacobian(self, theta, counts, n1):
        slope = calibration_slope(self.design, theta, self.offset, self.w_max)
        if counts is not None:
            slope = slope * counts
        if self._h_diag_b is None:
            self._h_diag_b = weighted_cross_products(self.h, self.design)
        return -self._h_diag_b(slope) / n1[:, None, None]

    def beta_hat(self, w, n1):
        """The outcome mean of counted weights w: their complete-case
        outcome sum over n1."""
        if self.y.ndim == 1:
            return w @ self.y / n1
        return np.einsum("kn,kn->k", w, self.y) / n1


def calibrate(
    dataset: PooledDataset,
    basis: BasisSpec,
    h_basis: BasisSpec,
    aux_regression_basis: BasisSpec,
    estimator: str,
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
    primary, auxiliary = _require_domains(dataset)
    cc = primary.complete
    n1 = primary.n
    n_cc = int(cc.sum())
    if n_cc == 0:
        raise EstimationError("no complete cases in the primary domain")

    preds, aux_coefs = fit_aux_moment_targets(dataset, h_basis, aux_regression_basis)
    equation = _Calibration(FitRows(primary, auxiliary), basis, h_basis, w_max, fixed_gamma)
    n1s, target = np.array([n1]), preds.mean(axis=0)[None]
    result = solve(
        MomentSystem(
            residual=lambda theta: equation.residual(theta[None], None, n1s, target)[0],
            jacobian=lambda theta: equation.jacobian(theta[None], None, n1s)[0],
            init=equation.init()[0],
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


def _pick(a: np.ndarray, members: np.ndarray) -> np.ndarray:
    """a[members], without a copy when members are all of a's members."""
    return a if members.size == len(a) else a[members]


def _of_members(rows: np.ndarray, members: np.ndarray) -> np.ndarray:
    """The rows of the given members of a stack; shared (2-d) rows are
    every member's."""
    return rows if rows.ndim == 2 else _pick(rows, members)


class _AuxTargets:
    """The calibration targets of the members of a stack: each member's
    weighted regression of h on the X-only basis over the auxiliary complete
    cases, predicted at its primary rows and averaged there.  The rows are
    shared, or each member's own, as `rows` lays them out."""

    def __init__(self, rows: FitRows, h_basis: BasisSpec, aux_regression_basis: BasisSpec):
        self.min_aux_cc = max(1, len(aux_regression_basis.terms))
        self._h, self._design, self._at_primary = _aux_regression_matrices(
            rows, h_basis, aux_regression_basis)

    def __call__(self, primary: np.ndarray, aux_cc: np.ndarray, live: np.ndarray) -> np.ndarray:
        """The (len(live), q) targets of the live members, member k counting
        primary row i primary[k, i] times and auxiliary complete case i
        aux_cc[k, i] times; NaN where its regression is rank deficient."""
        if live.size == 0:
            return np.zeros((0, self._h.shape[-1]))
        coefs = solve_least_squares(_of_members(self._design, live),
                                    _of_members(self._h, live), weights=_pick(aux_cc, live))
        primary = _pick(primary, live)
        return np.einsum("ka,kaq->kq", member_sums(primary, _of_members(self._at_primary, live)),
                         coefs) / primary.sum(axis=1)[:, None]


def _live(cc: np.ndarray, aux_cc: np.ndarray, min_aux_cc: int) -> np.ndarray:
    """The members with a primary complete case and at least min_aux_cc >= 1
    auxiliary complete cases (so rows in both domains), as cc and aux_cc
    count each member's primary and auxiliary complete cases."""
    return np.flatnonzero((cc.sum(axis=1) > 0) & (aux_cc.sum(axis=1) >= min_aux_cc))


def _fit_stack(equation: _Calibration, primary: np.ndarray, cc: np.ndarray, live: np.ndarray,
               target: np.ndarray, start: Optional[np.ndarray] = None,
               ) -> list[Optional[tuple[float, SolverResult]]]:
    """`calibrate` with its default weight cap and no fixed Y tilt, for the
    live members of a stack at once: (beta_hat, solver result) of each
    member, or None.  Member k counts primary row i primary[k, i] times and
    complete case i cc[k, i] times; target holds the live members' targets.
    Every member's Newton attempt starts at `start` (p,) when it is given,
    else at `_Calibration.init`; the attempts run as stacked operations.

    A member comes back as None, to be refitted on its own rows by the
    caller, when it is not live (an empty domain or too few complete cases),
    has a rank deficient auxiliary regression or (without `start`) X-only
    design, a non-finite residual or beta_hat, a singular step, or does not
    converge: the fit of the one dataset then gives the failure reason or
    the solver status.
    """
    out: list[Optional[tuple[float, SolverResult]]] = [None] * len(primary)
    if live.size == 0:
        return out
    n1 = primary.sum(axis=1)
    if start is None:
        init = equation.init(primary)[live]  # the members share their stack of rows
    else:
        init = np.tile(start, (live.size, 1))
    ok = np.all(np.isfinite(target), axis=1) & np.all(np.isfinite(init), axis=1)
    live, target, init = live[ok], target[ok], init[ok]
    if live.size == 0:
        return out
    equation, cc, n1 = equation.take(live), _pick(cc, live), n1[live]
    fits = newton_stack(
        lambda theta, members: equation.take(members).residual(
            theta, _pick(cc, members), n1[members], target[members]),
        lambda theta, members: equation.take(members).jacobian(
            theta, _pick(cc, members), n1[members]),
        init)
    members = np.flatnonzero([fit is not None and fit.converged for fit in fits])
    if members.size == 0:
        return out
    done = equation.take(members)
    w = done.weights(np.array([fits[k].theta_hat for k in members]), _pick(cc, members))
    for k, beta in zip(members.tolist(), done.beta_hat(w, n1[members]).tolist()):
        if math.isfinite(beta):
            out[live[k]] = (beta, fits[k])
    return out


class StackedRefits:
    """`_fit_stack` of resamples of one dataset, a block at a time.

    A resample is given by its draw rows and fitted as the count vector of
    those rows: a frequency-weighted fit of the dataset's own rows, which is
    the fit of the resample up to the order of float sums.  The basis
    matrices and the calibration equation are built once per dataset, here.
    Every refit's Newton attempt starts at the theta of `point`, the solver
    result of the dataset's point fit, when that solver converged and its
    theta has the equation's width p; else at `_Calibration.init`.
    """

    def __init__(self, dataset: PooledDataset, basis: BasisSpec, h_basis: BasisSpec,
                 aux_regression_basis: BasisSpec, point: Optional[SolverResult] = None):
        self._n = len(dataset)
        primary = domain_arrays(dataset, DomainTag.PRIMARY)
        auxiliary = domain_arrays(dataset, DomainTag.AUXILIARY)
        self._primary_rows = domain_rows(dataset, DomainTag.PRIMARY)
        self._aux_rows = domain_rows(dataset, DomainTag.AUXILIARY)
        self._cc, self._aux_cc = primary.complete, auxiliary.complete
        rows = FitRows(primary, auxiliary)
        self._targets = _AuxTargets(rows, h_basis, aux_regression_basis)
        self._equation = _Calibration(rows, basis, h_basis)
        width = self._equation.design.shape[1]
        self._start = None
        if point is not None and point.converged and point.theta_hat.shape == (width,):
            self._start = point.theta_hat
        self.block_size = max(1, _BLOCK_BYTES // (8 * max(1, self._n) * width))

    def __call__(self, draws: list) -> list[Optional[tuple[float, SolverResult]]]:
        """(beta_hat, solver result) of the refit on each draw, or None."""
        counts = np.array([np.bincount(rows, minlength=self._n) for rows in draws],
                          dtype=float)
        primary, auxiliary = counts[:, self._primary_rows], counts[:, self._aux_rows]
        cc, aux_cc = primary[:, self._cc], auxiliary[:, self._aux_cc]
        live = _live(cc, aux_cc, self._targets.min_aux_cc)
        return _fit_stack(self._equation, primary, cc, live,
                          self._targets(primary, aux_cc, live), self._start)


def fit_datasets(rows: FitRows, basis: BasisSpec, h_basis: BasisSpec,
                 aux_regression_basis: BasisSpec) -> list[Optional[tuple[float, SolverResult]]]:
    """`_fit_stack` of a block of datasets, each member with its own rows,
    as FitRows.of_block lays them out: (beta_hat, solver result) of each
    dataset's fit, or None where it is to be fitted on its own."""
    primary, cc, aux_cc = (rows.counts(name) for name in ("primary", "cc", "aux_cc"))
    targets = _AuxTargets(rows, h_basis, aux_regression_basis)
    live = _live(cc, aux_cc, targets.min_aux_cc)
    target = targets(primary, aux_cc, live)
    # the auxiliary regression's stacked rows are dropped before the
    # calibration's are built, which bounds the memory of a block
    del targets
    return _fit_stack(_Calibration(rows, basis, h_basis), primary, cc, live, target)


def estimate_model1(
    dataset: PooledDataset,
    spec: Optional[Model1Spec] = None,
    w_max: float = W_MAX,
) -> EstimateReport:
    """Two-step IPW estimate: solve the h-moment system for the propensity
    coefficients on b(x, m), then average the reweighted complete-case
    outcomes."""
    if spec is None:
        spec = Model1Spec.default(dataset.schema)
    return calibrate(dataset, spec.propensity_basis, spec.h_basis,
                     spec.aux_regression_basis, "ipw-model1", w_max)


def _stacked_model1(dataset: PooledDataset,
                    point: Optional[SolverResult] = None) -> StackedRefits:
    spec = Model1Spec.default(dataset.schema)
    return StackedRefits(dataset, spec.propensity_basis, spec.h_basis,
                         spec.aux_regression_basis, point)


def _stacked_fits_model1(datasets: list,
                         rows: FitRows) -> list[Optional[tuple[float, SolverResult]]]:
    spec = Model1Spec.default(datasets[0].schema)
    return fit_datasets(rows, spec.propensity_basis, spec.h_basis, spec.aux_regression_basis)


# bootstrap_ci refits the estimator with its defaults through stacked_refits,
# and replicate fits a block of datasets through stacked_fits; a function
# attribute survives functools.wraps, which copies __dict__.
estimate_model1.stacked_refits = _stacked_model1
estimate_model1.stacked_fits = _stacked_fits_model1


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
