"""Estimate reports and the numeric array view of a pooled dataset."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
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
            out["solver"] = {f.name: getattr(self.solver, f.name)
                             for f in fields(SolverResult) if f.name != "theta_hat"}
        if self.ci is not None:
            out["ci"] = {
                "lo": self.ci.lo,
                "hi": self.ci.hi,
                "width": self.ci.width,
                "method": "percentile-bootstrap",
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
    auxiliary complete cases' (x, m).  A point fit reads one dataset's
    rows, FitRows(primary, auxiliary).  A stack of members carries each
    member's (K, n) counts of every set, and its members share one
    dataset's rows, FitRows.of_resamples(dataset, draws), or each has its
    own, FitRows.of_block(datasets), whose sets are (K, n, ...) stacks of
    their members' rows, padded with zeros after each member's rows.  The
    fits evaluate their bases themselves, straight into those stacks, so
    bench/tracing.py finds those calls where it patches them."""

    def __init__(self, primary: DomainArrays, auxiliary: DomainArrays):
        # an index array selects rows several times faster than a mask
        cc, aux_cc = np.flatnonzero(primary.complete), np.flatnonzero(auxiliary.complete)
        self._sets = {"primary": (primary.x,),
                      "cc": (primary.x[cc], primary.m[cc], primary.y[cc]),
                      "aux_cc": (auxiliary.x[aux_cc], auxiliary.m[aux_cc])}

    @classmethod
    def of_resamples(cls, dataset: PooledDataset, draws: list) -> "FitRows":
        """The rows of a dataset, shared by K resamples of it, each given by
        its drawn rows and counting each row as often as it was drawn: a
        frequency-weighted fit of the dataset's rows is the fit of the
        resample up to the order of float sums."""
        primary = domain_arrays(dataset, DomainTag.PRIMARY)
        auxiliary = domain_arrays(dataset, DomainTag.AUXILIARY)
        stack = cls(primary, auxiliary)
        counts = np.array([np.bincount(rows, minlength=len(dataset)) for rows in draws],
                          dtype=float)
        in_primary = counts[:, domain_rows(dataset, DomainTag.PRIMARY)]
        stack._counts = {
            "primary": in_primary, "cc": in_primary[:, primary.complete],
            "aux_cc": counts[:, domain_rows(dataset, DomainTag.AUXILIARY)][:, auxiliary.complete]}
        return stack

    @classmethod
    def of_block(cls, datasets: list) -> "FitRows":
        """The rows of a block of datasets of one schema, each a member with
        its own rows.  Each dataset keeps its primary split, which its MCAR
        fit reads, but not its auxiliary one, which bounds the memory of a
        block."""
        members = [cls(domain_arrays(ds, DomainTag.PRIMARY),
                       _split_domain(ds, DomainTag.AUXILIARY)) for ds in datasets]
        block = cls.__new__(cls)
        block._sets, block._counts = {}, {}
        for name in members[0]._sets:
            sets = [rows[name] for rows in members]
            sizes = np.array([len(rows[0]) for rows in sets])
            block._counts[name] = (np.arange(sizes.max()) < sizes[:, None]).astype(float)
            block._sets[name] = tuple(np.zeros((len(sets), sizes.max()) + a.shape[1:])
                                      for a in sets[0])
            for k, rows in enumerate(sets):  # slices: far faster than a mask or index assignment
                for stacked, a in zip(block._sets[name], rows):
                    stacked[k, :len(a)] = a
        return block

    def __getitem__(self, name: str) -> tuple[np.ndarray, ...]:
        return self._sets[name]

    def counts(self, name: str) -> np.ndarray:
        """The (K, n) frequency weights of a stack's row set `name`: the
        times each resample drew a row, or 1 on each block member's rows
        and 0 on the padding after them."""
        return self._counts[name]
