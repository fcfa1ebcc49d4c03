"""Resampling-based uncertainty and Monte Carlo replication.

Both routines key every random draw off a root seed and an integer path
(resample index or replicate index) through the same counter-based generator
the simulators use, so results do not depend on execution order or on the
number of worker processes.
"""

from __future__ import annotations

import csv
import math
import sys
import threading
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .baselines import mar_estimate, mcar_estimate
from .data import DomainTag, PooledDataset
from .model1 import EstimationError, estimate_model1
from .model2 import estimate_model2
from .models import RankDeficientError
from .report import ConfidenceInterval, EstimateReport, FitRows, RefitCounts, domain_rows
from .simulate import (
    Model1Design,
    Model2Design,
    TrueBeta,
    generate_model1,
    generate_model2,
    make_rng,
    true_beta,
)
from .solver import ResidualError, SolverResult

Estimator = Callable[[PooledDataset], EstimateReport]

# What a fit raises on data it cannot fit; any other exception is a bug and
# propagates instead of counting as a failed resample or replicate.
FIT_ERRORS = (EstimationError, RankDeficientError, ResidualError, np.linalg.LinAlgError)


class BootstrapError(RuntimeError):
    pass


@dataclass(frozen=True)
class BootstrapConfig:
    k: int = 1000
    ci_level: float = 0.95
    seed: int = 0
    max_failure_fraction: float = 0.2

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"bootstrap k must be at least 1, got {self.k}")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError(f"ci_level must be in (0, 1), got {self.ci_level}")
        if not 0.0 <= self.max_failure_fraction < 1.0:
            raise ValueError(
                f"max_failure_fraction must be in [0, 1), got {self.max_failure_fraction}"
            )


def _draw(dataset: PooledDataset, rng: np.random.Generator) -> np.ndarray:
    """The rows of one resample, drawn with replacement within each domain
    (primary first)."""
    parts = []
    for tag in (DomainTag.PRIMARY, DomainTag.AUXILIARY):
        idx = domain_rows(dataset, tag)
        if idx.size:
            parts.append(idx[rng.integers(0, idx.size, size=idx.size)])
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)


def bootstrap_ci(
    dataset: PooledDataset,
    estimator: Estimator,
    config: Optional[BootstrapConfig] = None,
    point: Optional[EstimateReport] = None,
) -> ConfidenceInterval:
    """Percentile bootstrap interval for the point estimator.

    Resampling is with replacement within each domain (domain sizes are fixed
    design quantities, not random); resample b draws from make_rng(seed, b).
    Resamples where the estimator raises one of FIT_ERRORS or returns a
    non-finite value are dropped and counted by reason (the exception class
    name, or "non-finite"); more than max_failure_fraction failures is an
    error rather than a silently narrower interval.  Refits whose solver
    stopped without converging are kept in the interval and counted by
    solver status.

    An estimator with a `stacked_refits` attribute (the IPW estimators with
    their defaults) refits a block of resamples at a time through it; a
    resample it returns no fit for is refitted by calling the estimator on
    it, as every resample is for any other estimator.  The stack is given
    the solver result of `point`, the estimator's report on the dataset,
    and starts its refits there (see StackedRefits).  Pass `point` when it
    is at hand, as `estimate --bootstrap` does: fitting it again costs
    about a tenth of an `estimate --bootstrap 20` call at n=2000.  Without
    `point` the point is fitted here, and a point fit that raises one of
    FIT_ERRORS or does not converge leaves every refit to start at
    theta = 0.  The solver polishes every converged fit to its root, so
    the start moves no estimate beyond ~1e-12; a refit that fails from it
    is refitted on its own.
    """
    if config is None:
        config = BootstrapConfig()
    stacked = getattr(estimator, "stacked_refits", None)
    refit_block = None
    if stacked is not None:
        point_fit = _point_fit(dataset, estimator) if point is None else point.solver
        refit_block = stacked(dataset, point_fit)
    block_size = 1 if refit_block is None else refit_block.block_size
    estimates = []
    failures = Counter()
    nonconverged = Counter()
    refits = Counter()
    for first in range(0, config.k, block_size):
        draws = [_draw(dataset, make_rng(config.seed, b))
                 for b in range(first, min(first + block_size, config.k))]
        fits = [None] * len(draws) if refit_block is None else refit_block(draws)
        for beta_hat, solver, failure in _fit_each(estimator, fits, draws, dataset.take,
                                                   refits):
            if failure is None and not math.isfinite(beta_hat):
                failure = "non-finite"
            if failure is not None:
                failures[failure] += 1
                continue
            estimates.append(beta_hat)
            status = _nonconverged_status(solver)
            if status is not None:
                nonconverged[status] += 1
    n_failed = sum(failures.values())
    if n_failed > config.max_failure_fraction * config.k:
        reasons = ", ".join(f"{name}: {count}" for name, count in failures.most_common())
        raise BootstrapError(
            f"{n_failed} of {config.k} bootstrap resamples failed ({reasons})"
        )
    tail = 0.5 * (1.0 - config.ci_level)
    lo, hi = np.quantile(np.asarray(estimates), [tail, 1.0 - tail])
    return ConfidenceInterval(lo=float(lo), hi=float(hi),
                              method="percentile-bootstrap", failures=dict(failures),
                              nonconverged=dict(nonconverged), refits=RefitCounts(**refits))


def _point_fit(dataset: PooledDataset, estimator: Estimator) -> Optional[SolverResult]:
    """The solver result of the estimator's fit of the dataset, or None
    where that fit raises one of FIT_ERRORS."""
    try:
        return estimator(dataset).solver
    except FIT_ERRORS:
        return None


def _fit_each(estimator: Estimator, fits: list, items: list, dataset_of: Callable,
              counts: Counter):
    """(beta_hat, solver, failure) of each item: its stacked fit, or, where
    that is None, the estimator's fit of dataset_of(item).  failure is None,
    or the class name of the one of FIT_ERRORS that the fit raised, with a
    NaN beta_hat.  counts tallies the stacked and per-dataset fits and the
    iterations and residual evaluations of their solvers (see
    report.RefitCounts)."""
    for item, fit in zip(items, fits):
        if fit is None:
            counts["per_refit"] += 1
            try:
                report = estimator(dataset_of(item))
            except FIT_ERRORS as exc:
                yield math.nan, None, type(exc).__name__
                continue
            fit = report.beta_hat, report.solver
        else:
            counts["stacked"] += 1
        beta_hat, solver = fit
        if solver is not None:
            counts["iterations"] += solver.iterations
            counts["residual_evals"] += solver.residual_evals
        yield beta_hat, solver, None


def _nonconverged_status(solver: Optional[SolverResult]) -> Optional[str]:
    """The status of a solver that did not converge, else None."""
    if solver is None or solver.converged:
        return None
    return solver.status


# ---------------------------------------------------------------------------
# replication harness
# ---------------------------------------------------------------------------

def generate_for(design, seed: int) -> PooledDataset:
    if isinstance(design, Model1Design):
        return generate_model1(design, seed)[0]
    if isinstance(design, Model2Design):
        return generate_model2(design, seed)[0]
    raise TypeError(f"unknown design {type(design).__name__}")


def default_estimators(design) -> dict:
    """Named estimator bank for a design: the matching IPW estimator plus the
    MAR and MCAR references."""
    ipw = estimate_model1 if isinstance(design, Model1Design) else estimate_model2
    return {"ipw": ipw, "mar": mar_estimate, "mcar": mcar_estimate}


@dataclass(frozen=True)
class EstimatorSummary:
    name: str
    bias: float
    pct_bias: float
    mse: float
    variance: float
    mean: float
    n_ok: int
    n_failed: int
    n_nonconverged: int  # of the n_ok: kept although the solver did not converge


@dataclass(frozen=True)
class ReplicationReport:
    design_label: str
    n: int
    n_reps: int
    seed: int
    beta_true: TrueBeta
    summaries: tuple[EstimatorSummary, ...]
    estimates: dict  # name -> (n_reps,) array, NaN where the replicate failed
    fits: dict  # name -> RefitCounts: how its fits ran

    def to_text(self) -> str:
        header = (
            f"{'estimator':<10} {'bias':>10} {'%bias':>10} {'mse':>10} "
            f"{'var':>10} {'n_ok':>6} {'n_fail':>6} {'n_nonconv':>9}"
        )
        lines = [
            f"design={self.design_label} n={self.n} reps={self.n_reps} "
            f"beta_true={self.beta_true.value:.4f} ({self.beta_true.provenance})",
            header,
        ]
        for s in self.summaries:
            lines.append(
                f"{s.name:<10} {s.bias:>10.4f} {100 * s.pct_bias:>9.2f}% "
                f"{s.mse:>10.4f} {s.variance:>10.4f} {s.n_ok:>6d} {s.n_failed:>6d} "
                f"{s.n_nonconverged:>9d}"
            )
        return "\n".join(lines)

    def write_summary_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["design", "n", "n_reps", "beta_true", "estimator",
                 "bias", "pct_bias", "mse", "variance", "n_ok", "n_failed"]
            )
            for s in self.summaries:
                writer.writerow(
                    [self.design_label, self.n, self.n_reps,
                     repr(self.beta_true.value), s.name, repr(s.bias),
                     repr(s.pct_bias), repr(s.mse), repr(s.variance),
                     s.n_ok, s.n_failed]
                )

    def write_replicates_csv(self, path: str) -> None:
        """Long-format replicate-level estimates (empty cell on failure)."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["replicate", "estimator", "beta_hat"])
            for rep in range(self.n_reps):
                for name, values in self.estimates.items():
                    v = values[rep]
                    writer.writerow(
                        [rep, name, "" if np.isnan(v) else repr(float(v))]
                    )


# A block of replicates of a design of n rows holds at most _BLOCK_ROWS // n
# replicates, fitted as one stack: 8 at n=2000.  A block holds its datasets,
# their domain splits and their stacked rows, about 0.35 MB per 2000-row
# replicate at its peak; blocks of 16 fitted a fifth faster per replicate
# but raised the peak memory of a 16-replicate call by 7 % instead of 2 %.
_BLOCK_ROWS = 1 << 14


def _blocks(design, n_reps: int) -> list[range]:
    """The replicates split into blocks of nearly equal size, the fewest
    that hold at most max(1, _BLOCK_ROWS // n) each."""
    n_blocks = -(-n_reps // max(1, _BLOCK_ROWS // design.n))
    return [range(n_reps * b // n_blocks, n_reps * (b + 1) // n_blocks)
            for b in range(n_blocks)]


def _run_block(design, seed: int, reps: range, estimators: dict) -> dict:
    """name -> (beta_hats, whether each fit's solver stopped unconverged, fit
    counts) over the block's replicates; a beta_hat is NaN where the fit
    failed.  An estimator with a `stacked_fits` attribute (the default bank
    but MCAR) fits the block's datasets as one stack through it, as
    stacked_fits(datasets, rows): rows is the block's FitRows.of_block,
    split once here and read by every such estimator."""
    datasets = [generate_for(design, int(make_rng(seed, rep).integers(2**31)))
                for rep in reps]
    stacked = {name: getattr(fn, "stacked_fits", None) for name, fn in estimators.items()}
    rows = FitRows.of_block(datasets) if any(stacked.values()) else None
    out = {}
    for name, fn in estimators.items():
        fits = [None] * len(datasets) if stacked[name] is None else stacked[name](datasets, rows)
        counts = Counter()
        values, nonconverged = [], []
        for beta_hat, solver, failure in _fit_each(fn, fits, datasets, lambda ds: ds, counts):
            ok = failure is None and math.isfinite(beta_hat)
            values.append(beta_hat if ok else math.nan)
            nonconverged.append(ok and _nonconverged_status(solver) is not None)
        out[name] = (values, nonconverged, counts)
    return out


# The process pool of parallel `replicate` calls, kept for the next call:
# (pool, its process count, {id: estimator its workers hold}) or None.  A
# worker unpickles an estimator by module and qualified name as they stood
# when the pool started, so a call that sends an object the pool does not
# know (one defined or redefined since) gets a new pool.  The lock lets one
# call at a time use the pool.
_pool: Optional[tuple[ProcessPoolExecutor, int, dict]] = None
_pool_lock = threading.Lock()


def _worker_pool(n_workers: int, n_blocks: int, estimators: dict) -> ProcessPoolExecutor:
    """A pool whose workers hold the estimators, with at least
    min(n_workers, n_blocks) and at most n_workers processes: the kept one
    if it fits, else a new one of min(n_workers, n_blocks) processes,
    started after the kept one has shut down."""
    global _pool
    size = min(n_workers, n_blocks)
    if _pool is not None:
        _, n_processes, known = _pool
        if not (size <= n_processes <= n_workers
                and all(known.get(id(fn)) is fn for fn in estimators.values())):
            _drop_pool()
    if _pool is None:
        # The call's estimators are pickled right after the fork, which
        # checks each is found under its name; the default bank is known if
        # it is found there now.
        bank = (estimate_model1, estimate_model2, mar_estimate, mcar_estimate)
        known = {id(fn): fn for fn in bank if _found_by_name(fn)}
        known.update((id(fn), fn) for fn in estimators.values())
        _pool = (ProcessPoolExecutor(max_workers=size), size, known)
    return _pool[0]


def _found_by_name(obj) -> bool:
    """Whether obj is what its module holds under its qualified name, which
    is where a worker looks when unpickling it."""
    found = sys.modules.get(getattr(obj, "__module__", None))
    for part in getattr(obj, "__qualname__", "").split("."):
        found = getattr(found, part, None)
    return found is obj


def _drop_pool() -> None:
    global _pool
    _pool[0].shutdown(wait=True)
    _pool = None


def replicate(
    design,
    n_reps: int,
    seed: int = 0,
    estimators: Optional[dict] = None,
    n_workers: int = 1,
) -> ReplicationReport:
    """Monte Carlo replication of the estimator bank over fresh datasets.

    Replicate r draws its dataset seed from the (seed, r) stream.  The
    replicates are fitted in blocks (`_blocks`), which depend on the design
    and n_reps alone, so the estimate array is a pure function of (design,
    seed, n_reps) regardless of worker count or completion order.  With
    n_workers > 1 and two or more blocks the blocks run in a pool of
    min(n_workers, blocks) processes, which is kept for the next call: a
    call reuses it if it has enough processes and no more than n_workers,
    and if its workers hold the estimators passed, else shuts it down and
    starts its own.  A call whose pool broke (a worker died) drops it and
    raises BrokenProcessPool.  With the fork start method the workers are
    forked when the pool starts, so they see module state as it was then:
    a monkeypatch of something an estimator calls, made after that, does
    not reach them.  Else the blocks run in this process.
    """
    if n_reps < 0:
        raise ValueError(f"n_reps must be at least 0, got {n_reps}")
    if n_workers < 1:
        raise ValueError(f"n_workers must be at least 1, got {n_workers}")
    if estimators is None:
        estimators = default_estimators(design)
    beta_true = true_beta(design)

    blocks = _blocks(design, n_reps)
    if n_workers > 1 and len(blocks) > 1:
        with _pool_lock:
            try:
                runs = list(_worker_pool(n_workers, len(blocks), estimators).map(
                    _run_block, [design] * len(blocks), [seed] * len(blocks), blocks,
                    [estimators] * len(blocks)))
            except BrokenProcessPool:
                _drop_pool()  # the next call starts a new one
                raise
    else:
        runs = [_run_block(design, seed, reps, estimators) for reps in blocks]

    estimates, summaries, fits = {}, [], {}
    for name in estimators:
        values = np.array([v for run in runs for v in run[name][0]], dtype=float)
        nonconverged = sum(flag for run in runs for flag in run[name][1])
        fits[name] = RefitCounts(**sum((run[name][2] for run in runs), Counter()))
        estimates[name] = values
        ok = values[np.isfinite(values)]
        n_ok = ok.size
        if n_ok == 0:
            summaries.append(EstimatorSummary(name, math.nan, math.nan, math.nan,
                                              math.nan, math.nan, 0, n_reps, 0))
            continue
        bias = float(ok.mean() - beta_true.value)
        summaries.append(
            EstimatorSummary(
                name=name,
                bias=bias,
                pct_bias=bias / beta_true.value if beta_true.value else math.nan,
                mse=float(np.mean((ok - beta_true.value) ** 2)),
                variance=float(ok.var(ddof=1)) if n_ok > 1 else 0.0,
                mean=float(ok.mean()),
                n_ok=n_ok,
                n_failed=n_reps - n_ok,
                n_nonconverged=nonconverged,
            )
        )
    label = f"model{1 if isinstance(design, Model1Design) else 2}-{design.setting}"
    return ReplicationReport(
        design_label=label,
        n=design.n,
        n_reps=n_reps,
        seed=seed,
        beta_true=beta_true,
        summaries=tuple(summaries),
        estimates=estimates,
        fits=fits,
    )
