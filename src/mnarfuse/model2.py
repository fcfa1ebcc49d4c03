"""IPW estimator for the outcome mean when missingness is driven by the
possibly-missing outcome itself.

The selection probability is parameterized through a baseline propensity
p(R=1 | X, Y=0) on an X-only basis together with an exponential-tilt odds
ratio exp(-gamma * y - sum_j c_j * x_j * y).  The implied reciprocal
propensity w = 1 + exp(-gamma*y - ... - alpha . b(x)) is the calibration
weight of model1 with y and its x-interactions appended to the propensity
basis, so the estimator is that calibration with theta = (alpha, gamma, c).
Only primary complete cases enter the equations, so the weight is always
computable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .data import PooledDataset, VariableSchema
from .models import (
    W_MAX,
    BasisSpec,
    CoefficientModel,
    calibration_weights,
    evaluate_basis_matrix,
    fit_logistic,  # noqa: F401  (a lookup site patched by bench/tracing.py)
    parse_term,
)
from .model1 import (
    StackedRefits,
    _linear_xm_basis,
    _polynomial_x_basis,
    calibrate,
    fit_datasets,
)
from .report import EstimateReport
from .solver import SolverResult, solve  # noqa: F401  (solve: bench/tracing.py patches it)


def _tilted_basis(baseline: BasisSpec, n_or_params: int) -> BasisSpec:
    """The baseline basis followed by the odds-ratio terms y, x1*y, ...,
    one per odds-ratio parameter."""
    tilts = ["y"] + [f"x{j}*y" for j in range(1, n_or_params)]
    return BasisSpec(baseline.terms + tuple(parse_term(t) for t in tilts))


@dataclass(frozen=True)
class Model2Spec:
    baseline_basis: BasisSpec  # X-only basis for logit p(R=1 | X, Y=0)
    h_basis: BasisSpec
    aux_regression_basis: BasisSpec
    n_or_params: int = 1  # gamma, plus optional X-interaction tilts

    @classmethod
    @functools.lru_cache(maxsize=64)
    def default(cls, schema: VariableSchema) -> "Model2Spec":
        """The default spec of a schema, built once per schema: specs are
        frozen, so every fit can share it."""
        d = schema.n_covariates
        baseline = BasisSpec.parse("1" + "".join(f",x{j}" for j in range(1, d + 1)))
        return cls(
            baseline_basis=baseline,
            h_basis=_linear_xm_basis(d),
            aux_regression_basis=_polynomial_x_basis(d),
        )


def estimate_model2(
    dataset: PooledDataset,
    spec: Optional[Model2Spec] = None,
    w_max: float = W_MAX,
    fix_gamma: Optional[float] = None,
) -> EstimateReport:
    """Solve the stacked (alpha, gamma) moment system, then average the
    w-weighted complete-case outcomes.

    With fix_gamma given (e.g. 0 for a MAR-in-X check) the odds ratio is
    exp(-fix_gamma * y), held fixed, and only alpha is solved for.
    """
    if spec is None:
        spec = Model2Spec.default(dataset.schema)
    basis = spec.baseline_basis
    if fix_gamma is None:
        basis = _tilted_basis(basis, spec.n_or_params)
    report = calibrate(dataset, basis, spec.h_basis, spec.aux_regression_basis,
                       "ipw-model2", w_max, fixed_gamma=fix_gamma or 0.0)
    theta = report.nuisance["alpha"]
    p_alpha = spec.baseline_basis.width()
    report.nuisance = {
        "alpha": theta[:p_alpha],
        "gamma": fix_gamma if fix_gamma is not None else theta[p_alpha],
        "aux_regression": report.nuisance["aux_regression"],
    }
    return report


def _stacked_model2(dataset: PooledDataset,
                    point: Optional[SolverResult] = None) -> StackedRefits:
    spec = Model2Spec.default(dataset.schema)
    return StackedRefits(dataset, _tilted_basis(spec.baseline_basis, spec.n_or_params),
                         spec.h_basis, spec.aux_regression_basis, point)


def _stacked_fits_model2(datasets: list) -> list[Optional[tuple[float, SolverResult]]]:
    spec = Model2Spec.default(datasets[0].schema)
    return fit_datasets(datasets, _tilted_basis(spec.baseline_basis, spec.n_or_params),
                        spec.h_basis, spec.aux_regression_basis)


# bootstrap_ci and replicate fit the estimator with its defaults through
# these; see model1.
estimate_model2.stacked_refits = _stacked_model2
estimate_model2.stacked_fits = _stacked_fits_model2


def recovered_propensity(
    x_row,
    y: float,
    alpha: CoefficientModel,
    gamma: float,
    x_interactions: Sequence[float] = (),
    w_max: float = W_MAX,
) -> float:
    """Selection probability implied by the baseline propensity `alpha` and
    the odds ratio exp(-gamma * y - sum_j x_interactions[j] * x_{j+1} * y).

    Equals the baseline working model exactly at y = 0.
    """
    basis = _tilted_basis(alpha.basis, 1 + len(x_interactions))
    design = evaluate_basis_matrix(basis, np.atleast_2d(np.asarray(x_row, dtype=float)),
                                   y=np.array([float(y)]))
    theta = np.array([*alpha.coefficients, gamma, *x_interactions], dtype=float)
    w = calibration_weights(design, theta, w_max=w_max)
    return float(1.0 / w[0])
