"""Estimate reports and the numeric array view of a pooled dataset."""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, field, fields
from typing import Mapping, NamedTuple, Optional

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


class DomainArrays(NamedTuple):
    """One domain of a dataset as two read-only indices into its columns:
    `rows`, the domain's rows in order, and `cc`, its complete cases' rows,
    rows[r[rows] == 1]; n is len(rows).  No copy of the domain's values is
    kept: FitRows selects them from the dataset's columns."""

    rows: np.ndarray
    cc: np.ndarray
    n: int


def _split(dataset: PooledDataset, tag: DomainTag) -> DomainArrays:
    rows = np.flatnonzero(dataset.g == int(tag))  # an int compares faster than the enum
    cc = rows[dataset.r[rows] == 1]
    rows.flags.writeable = cc.flags.writeable = False
    return DomainArrays(rows, cc, len(rows))


def domain_arrays(dataset: PooledDataset, tag: DomainTag) -> DomainArrays:
    """The row indices of one domain, found at the first lookup and kept on
    the dataset: a repeated lookup returns the same DomainArrays."""
    return dataset.memo(tag, _split)


def _select(dataset: PooledDataset, name: str, rows: np.ndarray) -> np.ndarray:
    """Column `name` ("x", "m" or "y") of the dataset at the given rows,
    read-only; "m" as M's m_features block (n, m_dim)."""
    column = getattr(dataset, name)[rows]
    if name == "m":
        column = m_features(column, dataset.schema)
    column.flags.writeable = False
    return column


class FitRows:
    """The row sets that calibration fits read: "primary", the primary
    domain's (x,); "cc", its complete cases' (x, m, y); "aux_cc", the
    auxiliary complete cases' (x, m); m as M's m_features block.  A point
    fit reads one dataset's rows, FitRows(dataset), which selects each set
    by its domain's index straight from the dataset's columns.  A stack of
    members carries each member's (K, n) counts of every set, and its
    members share one dataset's rows, FitRows.of_resamples(dataset, draws),
    each draw the dataset's rows a resample holds, or each has its own,
    FitRows.of_block(datasets), whose sets are (K, n, ...) stacks of their
    members' rows, padded with zeros after each member's rows; `take` cuts
    a stack to some of its members.  Each carries its rows' `schema`.  The
    fits evaluate their bases straight into those stacks, so
    bench/tracing.py finds those calls where it patches them."""

    def __init__(self, dataset: PooledDataset):
        primary = domain_arrays(dataset, DomainTag.PRIMARY)
        auxiliary = domain_arrays(dataset, DomainTag.AUXILIARY)
        self.schema = dataset.schema
        self._sets = {"primary": (_select(dataset, "x", primary.rows),),
                      "cc": tuple(_select(dataset, name, primary.cc) for name in "xmy"),
                      "aux_cc": tuple(_select(dataset, name, auxiliary.cc) for name in "xm")}
        self._counts = dict.fromkeys(self._sets)

    @classmethod
    def of_resamples(cls, dataset: PooledDataset, draws: list) -> "FitRows":
        """The rows of a dataset, shared by K resamples of it, each given by
        the dataset's rows it holds, counting each row as often as it was
        drawn: a frequency-weighted fit of the dataset's rows is the fit of
        the resample up to the order of float sums.  The counts are floats
        in Fortran order, which fixes the order of the fits' float sums and
        so their last bits, read from one (K, n) buffer: glibc's malloc
        raises its mmap and trim thresholds to the largest mapped block
        freed, and freeing one this large keeps the Newton stack's (K, n_cc)
        temporaries on its heap.  A buffer per domain took 3.4 times the
        page faults of a k=1000 bootstrap at n=2000, and the stack's exp and
        weight kernels ran 2-2.5 times slower."""
        counts = np.empty((len(draws), len(dataset)), dtype=np.intp)
        for k, rows in enumerate(draws):
            counts[k] = np.bincount(rows, minlength=len(dataset))
        counts = np.asfortranarray(counts, dtype=float)
        primary = domain_arrays(dataset, DomainTag.PRIMARY)
        stack = cls(dataset)
        stack._counts = {"primary": counts[:, primary.rows], "cc": counts[:, primary.cc],
                         "aux_cc": counts[:, domain_arrays(dataset, DomainTag.AUXILIARY).cc]}
        return stack

    @classmethod
    def of_block(cls, datasets: list) -> "FitRows":
        """The rows of a block of datasets of one schema, each a member with
        its own rows, selected by the index of each of its domains."""
        members = [cls(ds) for ds in datasets]
        block = cls.__new__(cls)
        block.schema, block._sets, block._counts = members[0].schema, {}, {}
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

    def counts(self, name: str) -> Optional[np.ndarray]:
        """The (K, n) frequency weights of a stack's row set `name`: the
        times each resample drew a row, or 1 on each block member's rows
        and 0 on the padding after them; None for one dataset's rows."""
        return self._counts[name]

    def take(self, members: np.ndarray) -> "FitRows":
        """The stack of the given members, ascending, or itself when they
        are all of them: shared rows stay shared, own rows are cut too."""
        if members.size == len(self._counts["primary"]):
            return self
        part = copy.copy(self)
        part._counts = {name: counts[members] for name, counts in self._counts.items()}
        if self._sets["primary"][0].ndim == 3:  # each member has its own rows
            part._sets = {name: tuple(a[members] for a in sets)
                          for name, sets in self._sets.items()}
        return part
