"""Synthetic data generators for the two-domain missing-data designs.

Each design has a correctly-specified (T) and a misspecified (F) setting.
Generators are pure functions of (design, seed): the same pair always yields
a byte-identical dataset.  Pre-masking latent values are returned in a truth
sidecar for bias computation and generator checks; estimators never read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .data import PooledDataset, VariableSchema, _floats, _floats_or, _ints, _write_columns
from .models import logistic

SCALAR_SCHEMA = VariableSchema(covariate_names=("x1",))


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator (Philox) keyed by the seed and a stream path.

    Derived streams (per replicate, per bootstrap resample) use the same
    construction, so parallel and serial runs see identical draws.  The seed
    and each stream component must be at least 0.
    """
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    for i, part in enumerate(stream):
        if part < 0:
            raise ValueError(f"stream component {i} must be at least 0, got {part}")
    return np.random.Generator(np.random.Philox(seed=np.random.SeedSequence([seed, *stream])))


@dataclass(frozen=True)
class Design:
    """n units of a model's design in its correctly-specified (T) or
    misspecified (F) setting; `model` (1 or 2) names the model."""

    n: int
    setting: str = "T"
    model: ClassVar[int]

    def __post_init__(self):
        if self.setting not in ("T", "F"):
            raise ValueError(f"setting must be T or F, got {self.setting!r}")
        if self.n < 1:
            raise ValueError("n must be at least 1")

    @property
    def label(self) -> str:
        return f"model{self.model}-{self.setting}"


class Model1Design(Design):
    """M-driven missingness design.

    Primary domain: X ~ N(1,1), M ~ N(0.4 X^2, 1), Y ~ N(X + M, 1),
    selection logis(0.3 + 0.1 X + M) in the T setting and
    logis(0.3 + 0.1 X - M^2) in the F setting.
    Auxiliary domain: X ~ N(0,1), same M law, selection logis(1.4 + X).
    """

    model = 1

    @property
    def a2(self) -> float:
        return 1.0 if self.setting == "T" else 0.0

    @property
    def a3(self) -> float:
        return 0.0 if self.setting == "T" else -1.0


# Model2Design's odds-ratio coefficient (odds ratio exp(-gamma * Y)) and
# beta_y3, the coefficient of M in Y.
MODEL2_GAMMA = 0.3
MODEL2_BETA_Y3 = 1.0


class Model2Design(Design):
    """Y-driven missingness design, generated sequentially X -> R -> M -> Y.

    Primary domain: X ~ N(0,1); logit p(R=1|X) follows the closed form implied
    by baseline logit 0.5 + 0.4 X + a2 X^2 (a2 = 0 for T, 0.4 for F) and odds
    ratio exp(-0.3 Y); M | R=1 ~ N(-0.4 X^2, 1) and M | R=0 is shifted down by
    0.3; Y | R=1 ~ N(X + M, 1) and Y | R=0 is shifted down by 0.3.
    Auxiliary domain: X ~ N(1,1), M drawn through the same temporary-indicator
    construction, true selection logis(X).
    """

    model = 2

    @property
    def a2(self) -> float:
        return 0.0 if self.setting == "T" else 0.4


@dataclass(frozen=True)
class TruthSidecar:
    """Pre-masking latent values, aligned with the dataset rows."""

    g: np.ndarray
    r: np.ndarray
    m_latent: np.ndarray
    y_latent: np.ndarray  # NaN in the auxiliary domain


@dataclass(frozen=True)
class TrueBeta:
    value: float
    provenance: str  # "analytic" or "quadrature(nodes=...)"


def _assemble(g, x, m_latent, y_latent, r) -> tuple[PooledDataset, TruthSidecar]:
    dataset = PooledDataset.of_draws(SCALAR_SCHEMA, g, x[:, None], m_latent, y_latent, r)
    sidecar = TruthSidecar(g=g.copy(), r=r.copy(), m_latent=m_latent.copy(),
                           y_latent=y_latent.copy())
    return dataset, sidecar


def _model1_arrays(design: Model1Design, rng: np.random.Generator):
    n = design.n
    g = np.where(rng.random(n) < 0.5, 1, 2)
    x = rng.normal(0.0, 1.0, n) + (g == 1)  # N(1,1) primary, N(0,1) auxiliary
    m = rng.normal(0.4 * x**2, 1.0)
    y = rng.normal(x + m, 1.0)
    y[g == 2] = np.nan
    p_primary = logistic(0.3 + 0.1 * x + design.a2 * m + design.a3 * m**2)
    p_aux = logistic(1.4 + x)
    p = np.where(g == 1, p_primary, p_aux)
    r = (rng.random(n) < p).astype(int)
    return g, x, m, y, r


def generate_model1(design: Model1Design, seed: int) -> tuple[PooledDataset, TruthSidecar]:
    rng = make_rng(seed)
    return _assemble(*_model1_arrays(design, rng))


def _model2_selection_logit(design: Model2Design, x: np.ndarray) -> np.ndarray:
    gamma, b3 = MODEL2_GAMMA, MODEL2_BETA_Y3
    mu_y_tilde = x  # outcome mean with the M contribution removed
    mu_m = -0.4 * x**2
    mu_r = 0.5 + 0.4 * x + design.a2 * x**2
    return (
        mu_y_tilde * gamma
        - 0.5 * gamma**2
        + mu_m * b3 * gamma
        - 0.5 * b3**2 * gamma**2
        + mu_r
    )


def _model2_arrays(design: Model2Design, rng: np.random.Generator):
    n = design.n
    gamma, b3 = MODEL2_GAMMA, MODEL2_BETA_Y3
    g = np.where(rng.random(n) < 0.5, 1, 2)
    x = rng.normal(0.0, 1.0, n) + (g == 2)  # N(0,1) primary, N(1,1) auxiliary
    mu_m = -0.4 * x**2

    logit_r = _model2_selection_logit(design, x)
    # primary R and the auxiliary temporary indicator come from the same law
    sel = (rng.random(n) < logistic(logit_r)).astype(int)
    m = rng.normal(mu_m, 1.0) - (1 - sel) * b3 * gamma
    y = rng.normal(x + m, 1.0) - (1 - sel) * gamma
    y[g == 2] = np.nan

    r = sel.copy()
    aux = g == 2
    r_aux = (rng.random(n) < logistic(x)).astype(int)
    r[aux] = r_aux[aux]
    return g, x, m, y, r


def generate_model2(design: Model2Design, seed: int) -> tuple[PooledDataset, TruthSidecar]:
    rng = make_rng(seed)
    return _assemble(*_model2_arrays(design, rng))


_QUADRATURE_NODES = 80


@lru_cache(maxsize=None)
def _normal_quadrature(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Hermite nodes and weights for an N(0, 1) expectation,
    computed once per process."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_nodes)
    weights = weights / weights.sum()  # probabilists' nodes: N(0, 1) expectation
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def true_beta(design: Design) -> TrueBeta:
    """Target value of the outcome mean for a design.

    The M-driven design admits the closed form E[X] + 0.4 E[X^2] = 1.8.  In
    the Y-driven design the unselected units have M and Y shifted down, so
    E[Y | G=1] = E[X] - 0.4 E[X^2] - gamma (1 + beta_y3) P(R=0) with
    X ~ N(0, 1); the expectation over X is a Gauss-Hermite sum, exact for the
    polynomial terms.
    """
    if design.model == 1:
        return TrueBeta(value=1.8, provenance="analytic")
    nodes, weights = _normal_quadrature(_QUADRATURE_NODES)
    p_unselected = 1.0 - logistic(_model2_selection_logit(design, nodes))
    shift = MODEL2_GAMMA * (1.0 + MODEL2_BETA_Y3)
    value = weights @ (nodes - 0.4 * nodes**2 - shift * p_unselected)
    return TrueBeta(value=float(value),
                    provenance=f"quadrature(nodes={_QUADRATURE_NODES})")


def write_truth_csv(sidecar: TruthSidecar, path: str) -> None:
    _write_columns(
        path,
        ["domain", "r", "m_latent", "y_latent"],
        [(sidecar.g, _ints), (sidecar.r, _ints), (sidecar.m_latent, _floats),
         (sidecar.y_latent, _floats_or(""))],
    )
