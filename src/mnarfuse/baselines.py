"""MCAR and MAR reference estimators for the primary-domain outcome mean."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .data import DomainTag, PooledDataset
from .models import (
    evaluate_basis_matrix,
    linear_predictor,
    polynomial_basis,
    solve_least_squares,
)
from .model1 import EstimationError
from .report import EstimateReport, FitRows, domain_arrays


def mcar_estimate(dataset: PooledDataset) -> EstimateReport:
    """Complete-case mean of Y in the primary domain."""
    primary = domain_arrays(dataset, DomainTag.PRIMARY)
    if len(primary.cc) == 0:
        raise EstimationError("no complete cases in the primary domain")
    return EstimateReport(
        beta_hat=float(dataset.y[primary.cc].mean()),
        estimator="mcar",
        diagnostics={
            "n_primary": primary.n,
            "n_complete_primary": len(primary.cc),
        },
    )


def _mar_fit(rows: FitRows) -> tuple:
    """The MAR fit of the FitRows `rows`: the regression of Y on 1, x1, ...,
    xd over the primary complete cases, averaged over all primary-domain X.
    On one dataset's rows it returns (beta_hat, coefficients (p,)), and a
    rank deficient design raises RankDeficientError naming its term; on a
    stack, each member weighted by its counts, (K,) and (K, p), NaN where it
    is rank deficient."""
    x_basis = polynomial_basis(rows.schema.n_covariates)
    x_cc, _, y_cc = rows["cc"]
    coef = solve_least_squares(evaluate_basis_matrix(x_basis, x_cc), y_cc,
                               x_basis.column_names(rows.schema.covariate_names),
                               weights=rows.counts("cc"))
    # a padding row holds the basis at 0, whose prediction is the intercept
    at_primary = evaluate_basis_matrix(x_basis, *rows["primary"])
    primary = rows.counts("primary")
    if primary is None:
        return float((at_primary @ coef).mean()), coef
    return (linear_predictor(at_primary, coef) * primary).sum(axis=1) / primary.sum(axis=1), coef


def mar_estimate(dataset: PooledDataset) -> EstimateReport:
    """`_mar_fit` of the dataset (targets the whole-domain outcome mean)."""
    primary = domain_arrays(dataset, DomainTag.PRIMARY)
    if len(primary.cc) == 0:
        raise EstimationError("no complete cases in the primary domain")
    beta_hat, coef = _mar_fit(FitRows(dataset))
    return EstimateReport(
        beta_hat=beta_hat,
        estimator="mar",
        nuisance={"outcome_regression": coef.tolist()},
        diagnostics={
            "n_primary": primary.n,
            "n_complete_primary": len(primary.cc),
        },
    )


def _stacked_mar(rows: FitRows,
                 start: Optional[np.ndarray] = None) -> list[Optional[tuple[float, None]]]:
    """`_mar_fit` of the live members of the FitRows stack `rows`, those with
    a complete case: (beta_hat, None) of each member, or None where it is not
    live, is rank deficient or has a non-finite beta_hat, to be fitted on its
    own.  The fit has no solver, so start is not used."""
    out: list[Optional[tuple[float, None]]] = [None] * len(rows.counts("primary"))
    live = np.flatnonzero(rows.counts("cc").sum(axis=1) > 0)
    if live.size == 0:
        return out
    for k, beta in zip(live.tolist(), _mar_fit(rows.take(live))[0].tolist()):
        if math.isfinite(beta):
            out[k] = (beta, None)
    return out


# bootstrap_ci and replicate fit a stack of resamples or datasets through
# this; see model1.
mar_estimate.stacked_fits = _stacked_mar
_stacked_mar.owner = mar_estimate
