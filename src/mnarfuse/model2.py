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
from typing import Optional

from .data import PooledDataset, VariableSchema
from .models import (
    BasisSpec,
    evaluate_basis_matrix,  # noqa: F401  (a lookup site patched by bench/tracing.py)
    fit_logistic,  # noqa: F401  (a lookup site patched by bench/tracing.py)
    parse_term,
    polynomial_basis,
)
from .model1 import _fit_stack, calibrate
from .report import EstimateReport
from .solver import solve  # noqa: F401  (a lookup site patched by bench/tracing.py)


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
        return cls(baseline_basis=polynomial_basis(d), h_basis=polynomial_basis(d, m=True),
                   aux_regression_basis=polynomial_basis(d, 2))

    @property
    def bases(self) -> tuple[BasisSpec, BasisSpec, BasisSpec]:
        """(B, h, auxiliary regression basis), as `calibrate` takes them:
        B is the baseline basis followed by the odds-ratio terms."""
        return (_tilted_basis(self.baseline_basis, self.n_or_params), self.h_basis,
                self.aux_regression_basis)


def estimate_model2(dataset: PooledDataset,
                    spec: Optional[Model2Spec] = None) -> EstimateReport:
    """Solve the stacked (alpha, gamma) moment system, then average the
    w-weighted complete-case outcomes.

    The nuisance splits the solved theta into "alpha", "gamma" and, with
    n_or_params > 1, "or_interactions": the x_j*y tilts.  A fit with gamma
    held at 0 (MAR in X) is `calibrate` with the baseline basis as B.
    """
    if spec is None:
        spec = Model2Spec.default(dataset.schema)
    report = calibrate(dataset, *spec.bases, "ipw-model2")
    theta = report.nuisance["alpha"]
    p_alpha = spec.baseline_basis.width()
    nuisance = {"alpha": theta[:p_alpha], "gamma": theta[p_alpha]}
    if spec.n_or_params > 1:
        nuisance["or_interactions"] = theta[p_alpha + 1:]
    nuisance["aux_regression"] = report.nuisance["aux_regression"]
    report.nuisance = nuisance
    return report


estimate_model2.stacked_fits = functools.partial(_fit_stack, Model2Spec)
estimate_model2.stacked_fits.owner = estimate_model2
