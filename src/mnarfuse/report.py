"""Estimate reports and the numeric array view of a pooled dataset."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Mapping, Optional

import numpy as np

from .data import DomainTag, PooledDataset, m_features
from .solver import SolverResult


@dataclass(frozen=True)
class RefitCounts:
    """How the refits of a bootstrap interval, or the fits of one estimator
    in a replication, ran."""

    stacked: int = 0  # solved in a block of stacked fits
    per_refit: int = 0  # by a call of the estimator on its dataset, fallbacks included
    # summed over the refits that returned a solver result: their Newton
    # iterations and residual evaluations
    iterations: int = 0
    residual_evals: int = 0


@dataclass(frozen=True)
class ConfidenceInterval:
    lo: float
    hi: float
    method: str = "percentile-bootstrap"
    failures: Mapping[str, int] = field(default_factory=dict)  # reason -> count
    # solver status -> count of refits kept in the interval without converging
    nonconverged: Mapping[str, int] = field(default_factory=dict)
    refits: RefitCounts = RefitCounts()

    @property
    def n_failed(self) -> int:
        return sum(self.failures.values())

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass
class EstimateReport:
    beta_hat: float
    estimator: str
    nuisance: dict = field(default_factory=dict)
    solver: Optional[SolverResult] = None
    diagnostics: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    ci: Optional[ConfidenceInterval] = None

    def to_dict(self) -> dict:
        out = {
            "beta_hat": self.beta_hat,
            "estimator": self.estimator,
            "nuisance": {k: list(np.atleast_1d(v)) for k, v in self.nuisance.items()},
            "diagnostics": dict(self.diagnostics),
            "warnings": list(self.warnings),
        }
        if self.solver is not None:
            out["solver"] = {
                "status": self.solver.status,
                "final_residual_norm": self.solver.final_residual_norm,
                "iterations": self.solver.iterations,
                "residual_evals": self.solver.residual_evals,
                "jacobian_evals": self.solver.jacobian_evals,
            }
        if self.ci is not None:
            out["ci"] = {
                "lo": self.ci.lo,
                "hi": self.ci.hi,
                "width": self.ci.width,
                "method": self.ci.method,
                "n_failed": self.ci.n_failed,
                "failures": dict(self.ci.failures),
                "nonconverged": dict(self.ci.nonconverged),
                "refits": asdict(self.ci.refits),
            }
        return out


@dataclass(frozen=True)
class DomainArrays:
    """Numeric view of one domain: NaN marks missing M / Y entries."""

    x: np.ndarray  # (n, d)
    m: np.ndarray  # (n, m_dim)
    y: np.ndarray  # (n,)
    r: np.ndarray  # (n,) in {0, 1}

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def complete(self) -> np.ndarray:
        return self.r == 1


def domain_arrays(dataset: PooledDataset, tag: DomainTag) -> DomainArrays:
    """The rows of one domain, split off at the first lookup and kept on the
    dataset: a repeated lookup returns the same read-only arrays."""
    return dataset.memo(tag, _split_domain)


def domain_rows(dataset: PooledDataset, tag: DomainTag) -> np.ndarray:
    """The (read-only) row indices of one domain, found at the first lookup
    and kept on the dataset."""
    return dataset.memo(("rows", tag), _find_rows)


def _find_rows(dataset: PooledDataset, key: tuple) -> np.ndarray:
    rows = np.flatnonzero(dataset.g == key[1])
    rows.flags.writeable = False
    return rows


def _split_domain(dataset: PooledDataset, tag: DomainTag) -> DomainArrays:
    rows = dataset.g == int(tag)  # an int compares faster than the enum member
    split = DomainArrays(
        x=dataset.x[rows],
        m=m_features(dataset.m[rows], dataset.schema),
        y=dataset.y[rows],
        r=dataset.r[rows],
    )
    for array in (split.x, split.m, split.y, split.r):
        array.flags.writeable = False
    return split


def stacked_domain_arrays(datasets: list, tag: DomainTag) -> tuple[DomainArrays, np.ndarray]:
    """One domain of several datasets of one schema: its rows in each
    dataset, one dataset after another, and the index of each row's
    dataset."""
    parts = [domain_arrays(ds, tag) for ds in datasets]
    member = np.repeat(np.arange(len(parts)), [part.n for part in parts])
    return DomainArrays(*(np.concatenate([getattr(part, name) for part in parts])
                          for name in ("x", "m", "y", "r"))), member
