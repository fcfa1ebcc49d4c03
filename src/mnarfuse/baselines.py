"""MCAR and MAR reference estimators for the primary-domain outcome mean."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .data import DomainTag, PooledDataset, VariableSchema
from .models import (
    BasisSpec,
    evaluate_basis_matrix,
    linear_predictor,
    solve_least_squares,
    stack_rows,
)
from .model1 import EstimationError
from .report import EstimateReport, domain_arrays, stacked_domain_arrays


def default_mar_basis(schema: VariableSchema) -> BasisSpec:
    d = schema.n_covariates
    return BasisSpec.parse("1" + "".join(f",x{j}" for j in range(1, d + 1)))


def mcar_estimate(dataset: PooledDataset) -> EstimateReport:
    """Complete-case mean of Y in the primary domain."""
    primary = domain_arrays(dataset, DomainTag.PRIMARY)
    cc = primary.complete
    if int(cc.sum()) == 0:
        raise EstimationError("no complete cases in the primary domain")
    return EstimateReport(
        beta_hat=float(primary.y[cc].mean()),
        estimator="mcar",
        diagnostics={
            "n_primary": primary.n,
            "n_complete_primary": int(cc.sum()),
        },
    )


def mar_estimate(
    dataset: PooledDataset, x_basis: Optional[BasisSpec] = None
) -> EstimateReport:
    """Regression of Y on X over primary complete cases, averaged over all
    primary-domain X (targets the whole-domain outcome mean)."""
    if x_basis is None:
        x_basis = default_mar_basis(dataset.schema)
    primary = domain_arrays(dataset, DomainTag.PRIMARY)
    cc = primary.complete
    if int(cc.sum()) == 0:
        raise EstimationError("no complete cases in the primary domain")
    design = evaluate_basis_matrix(x_basis, primary.x[cc])
    coef = solve_least_squares(design, primary.y[cc], x_basis.column_names())
    preds = evaluate_basis_matrix(x_basis, primary.x) @ coef
    return EstimateReport(
        beta_hat=float(preds.mean()),
        estimator="mar",
        nuisance={"outcome_regression": coef.tolist()},
        diagnostics={
            "n_primary": primary.n,
            "n_complete_primary": int(cc.sum()),
        },
    )


def _stacked_mar(datasets: list) -> list[Optional[tuple[float, None]]]:
    """`mar_estimate` with its default basis on a block of datasets of one
    schema, as one least squares whose members have their own rows:
    (beta_hat, None) of each dataset, or None where it has no complete case,
    a rank deficient design or a non-finite beta_hat, to be fitted on its
    own."""
    size = len(datasets)
    primary, member = stacked_domain_arrays(datasets, DomainTag.PRIMARY)
    x_basis = evaluate_basis_matrix(default_mar_basis(datasets[0].schema), primary.x)
    cc = np.flatnonzero(primary.complete)
    (design, counts), (y, _) = (stack_rows(rows, member[cc], size)
                                for rows in (x_basis[cc], primary.y[cc]))
    at_primary, rows = stack_rows(x_basis, member, size)
    live = np.flatnonzero(counts.sum(axis=1) > 0)
    out: list[Optional[tuple[float, None]]] = [None] * size
    if live.size == 0:
        return out
    coef = solve_least_squares(design[live], y[live], weights=counts[live])
    betas = linear_predictor(at_primary[live], coef).sum(axis=1) / rows[live].sum(axis=1)
    for k, beta in zip(live.tolist(), betas.tolist()):
        if math.isfinite(beta):
            out[k] = (beta, None)
    return out


# replicate fits a block of datasets through this; see model1.
mar_estimate.stacked_fits = _stacked_mar
