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


def mar_estimate(dataset: PooledDataset) -> EstimateReport:
    """Regression of Y on X over primary complete cases, averaged over all
    primary-domain X (targets the whole-domain outcome mean).  The basis is
    1, x1, ..., xd."""
    x_basis = polynomial_basis(dataset.schema.n_covariates)
    primary = domain_arrays(dataset, DomainTag.PRIMARY)
    if len(primary.cc) == 0:
        raise EstimationError("no complete cases in the primary domain")
    design = evaluate_basis_matrix(x_basis, dataset.x[primary.cc])
    coef = solve_least_squares(design, dataset.y[primary.cc],
                               x_basis.column_names(dataset.schema.covariate_names))
    preds = evaluate_basis_matrix(x_basis, dataset.x[primary.rows]) @ coef
    return EstimateReport(
        beta_hat=float(preds.mean()),
        estimator="mar",
        nuisance={"outcome_regression": coef.tolist()},
        diagnostics={
            "n_primary": primary.n,
            "n_complete_primary": len(primary.cc),
        },
    )


def _stacked_mar(rows: FitRows,
                 start: Optional[np.ndarray] = None) -> list[Optional[tuple[float, None]]]:
    """`mar_estimate` on the members of the FitRows stack `rows`, as one
    least squares: (beta_hat, None) of each member, or None where it has no
    complete case, a rank deficient design or a non-finite beta_hat, to be
    fitted on its own.  The fit has no solver, so start is not used."""
    out: list[Optional[tuple[float, None]]] = [None] * len(rows.counts("primary"))
    live = np.flatnonzero(rows.counts("cc").sum(axis=1) > 0)
    if live.size == 0:
        return out
    rows = rows.take(live)
    primary = rows.counts("primary")
    x_basis = polynomial_basis(rows.schema.n_covariates)
    x_cc, _, y_cc = rows["cc"]
    coef = solve_least_squares(evaluate_basis_matrix(x_basis, x_cc), y_cc,
                               weights=rows.counts("cc"))
    # a padding row holds the basis at 0, whose prediction is the intercept
    at_primary = evaluate_basis_matrix(x_basis, *rows["primary"])
    betas = (linear_predictor(at_primary, coef) * primary).sum(axis=1) / primary.sum(axis=1)
    for k, beta in zip(live.tolist(), betas.tolist()):
        if math.isfinite(beta):
            out[k] = (beta, None)
    return out


# bootstrap_ci and replicate fit a stack of resamples or datasets through
# this; see model1.
mar_estimate.stacked_fits = _stacked_mar
