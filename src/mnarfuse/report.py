"""Estimate reports and the numeric array view of a pooled dataset."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Mapping, Optional

import numpy as np

from .data import DomainTag, PooledDataset, m_features
from .models import stack_rows
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


class FitRows:
    """The row sets that calibration fits read: "primary", the primary
    domain's (x,); "cc", its complete cases' (x, m, y); "aux_cc", the
    auxiliary complete cases' (x, m).  The members of a stack share one
    dataset's rows, FitRows(primary, auxiliary), or each has its own,
    FitRows.of_block(datasets), whose sets hold their members' rows one
    member after another.  The fits evaluate their bases themselves, so
    bench/tracing.py finds those calls where it patches them."""

    def __init__(self, primary: DomainArrays, auxiliary: DomainArrays):
        # an index array selects rows several times faster than a mask
        cc, aux_cc = np.flatnonzero(primary.complete), np.flatnonzero(auxiliary.complete)
        self._sets = {"primary": (primary.x,),
                      "cc": (primary.x[cc], primary.m[cc], primary.y[cc]),
                      "aux_cc": (auxiliary.x[aux_cc], auxiliary.m[aux_cc])}
        self._sizes: Optional[dict] = None  # shared rows

    @classmethod
    def of_block(cls, datasets: list) -> "FitRows":
        """The rows of a block of datasets of one schema, each a member with
        its own rows.  Each dataset keeps its primary split, which its MCAR
        fit reads, but not its auxiliary one, which bounds the memory of a
        block."""
        members = [cls(domain_arrays(ds, DomainTag.PRIMARY),
                       _split_domain(ds, DomainTag.AUXILIARY)) for ds in datasets]
        block = cls.__new__(cls)
        block._sets = {name: tuple(map(np.concatenate, zip(*(rows[name] for rows in members))))
                       for name in members[0]._sets}
        block._sizes = {name: np.array([len(rows[name][0]) for rows in members])
                       for name in block._sets}
        return block

    def __getitem__(self, name: str) -> tuple[np.ndarray, ...]:
        return self._sets[name]

    def stack(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Rows (N, ...) over the row set `name`: unchanged when the members
        share them, else the (K, n, ...) stack of each member's own rows
        (see models.stack_rows)."""
        if self._sizes is None:
            return rows
        return stack_rows(rows, self._sizes[name])

    def counts(self, name: str) -> np.ndarray:
        """The (K, n) frequency weights of a block's stacked row set `name`:
        1 on each member's rows, 0 on the padding after them."""
        sizes = self._sizes[name]
        return (np.arange(sizes.max(initial=0)) < sizes[:, None]).astype(float)
