"""Resampling-based uncertainty and Monte Carlo replication.

Both routines key every random draw off a root seed and an integer path
(resample index or replicate index) through the same counter-based generator
the simulators use, so results do not depend on execution order or on the
number of worker processes.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .baselines import mar_estimate, mcar_estimate
from .data import (DomainTag, PooledDataset, _floats, _floats_or, _ints, _lookup,
                   _write_columns)
from .model1 import EstimationError, estimate_model1
from .model2 import estimate_model2
from .models import RankDeficientError
from .report import ConfidenceInterval, EstimateReport, FitRows, RefitCounts, domain_arrays
from .simulate import Design, TrueBeta, generate_model1, generate_model2, make_rng, true_beta
from .solver import ResidualError

Estimator = Callable[[PooledDataset], EstimateReport]

# What a fit raises on data it cannot fit; any other exception is a bug and
# propagates instead of counting as a failed resample or replicate.
FIT_ERRORS = (EstimationError, RankDeficientError, ResidualError, np.linalg.LinAlgError)


class BootstrapError(RuntimeError):
    pass


CI_LEVEL = 0.95  # the coverage of every bootstrap interval
MAX_FAILURE_FRACTION = 0.2  # bootstrap_ci raises when a larger share of its resamples fail


@dataclass(frozen=True)
class BootstrapConfig:
    k: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"bootstrap k must be at least 1, got {self.k}")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")


def _draw(dataset: PooledDataset, rng: np.random.Generator) -> np.ndarray:
    """One resample, as the dataset's rows it holds: each domain's rows
    drawn with replacement there, primary first."""
    domains = [domain_arrays(dataset, tag).rows
               for tag in (DomainTag.PRIMARY, DomainTag.AUXILIARY)]
    return np.concatenate([rows[rng.integers(0, len(rows), size=len(rows))] if len(rows) else rows
                           for rows in domains])


# A block of bootstrap refits of a dataset of n rows holds _REFIT_ROWS // n
# resamples: 87 at n=2000, 4 MiB of (n, 3) float rows.  Blocks from 2 to
# 8 MiB ran about equally fast at n=2000; smaller ones pay the per-call
# overhead of numpy more often, larger ones fall out of cache.
_REFIT_ROWS = (1 << 22) // 24


def bootstrap_ci(
    dataset: PooledDataset,
    estimator: Estimator,
    config: BootstrapConfig,
    point: Optional[EstimateReport] = None,
) -> ConfidenceInterval:
    """Percentile bootstrap interval for the point estimator.

    Resampling is with replacement within each domain (domain sizes are fixed
    design quantities, not random); resample b draws from make_rng(seed, b)
    and is the dataset's rows it holds (`_draw`).  Resamples where the
    estimator raises one of FIT_ERRORS or returns a non-finite value are
    dropped and counted by reason (the exception class name, or
    "non-finite"); more than MAX_FAILURE_FRACTION * k failures is an error
    rather than a silently narrower interval.  Refits whose solver stopped
    without converging are kept in the interval and counted by solver
    status.

    An estimator with a `stacked_fits` attribute (the IPW estimators with
    their defaults, and MAR) refits a block of resamples at a time through
    it, as stacked_fits(FitRows.of_resamples(dataset, draws), start); a
    resample it returns no fit for is refitted by calling the estimator on
    dataset.take(rows), as every resample is for any other estimator.  A
    block holds max(1, _REFIT_ROWS // n) resamples of a dataset of n rows.
    start is the theta of `point`, the estimator's report on the dataset, when its
    solver converged, else None.  Pass `point` when it is at hand, as
    `estimate --bootstrap` does: fitting it again costs about a tenth of an
    `estimate --bootstrap 20` call at n=2000.  Without `point` the point is
    fitted here, and a point fit that raises one of FIT_ERRORS or does not
    converge leaves every refit to start at theta = 0.  The solver polishes
    every converged fit to its root, so the start moves no estimate beyond
    ~1e-12; a refit that fails from it is refitted on its own.  The hook's
    `owner` uses it as it is, as `replicate` uses its bank's hooks; another
    estimator that carries it (a functools.wraps wrapper copies it) uses it
    only if its fit of the dataset's rows, each once, from that start is the
    point's (`_reproduces`), passed or fitted here, or the point fit raised;
    else every resample is refitted by calling the estimator.
    """
    stacked = getattr(estimator, "stacked_fits", None)
    start = None
    if stacked is not None:
        if point is None:
            try:
                point = estimator(dataset)
            except FIT_ERRORS:
                pass  # no point to start from or to check
        if point is not None and point.solver is not None and point.solver.converged:
            start = point.solver.theta_hat
        if getattr(stacked, "owner", None) is not estimator and point is not None and not (
                _reproduces(point, stacked(FitRows.of_resamples(
                    dataset, [np.arange(len(dataset))]), start)[0])):
            stacked = None  # the hook fits another estimator: say, a wrapper's defaults
    block_size = max(1, _REFIT_ROWS // max(1, len(dataset)))
    estimates = []
    refits, failures, nonconverged = Counter(), Counter(), Counter()
    for first in range(0, config.k, block_size):
        draws = [_draw(dataset, make_rng(config.seed, b))
                 for b in range(first, min(first + block_size, config.k))]
        fits = ([None] * len(draws) if stacked is None
                else stacked(FitRows.of_resamples(dataset, draws), start))
        estimates += _fit_each(estimator, fits, draws, dataset.take,
                               refits, failures, nonconverged)
    n_failed = sum(failures.values())
    if n_failed > MAX_FAILURE_FRACTION * config.k:
        reasons = ", ".join(f"{name}: {count}" for name, count in failures.most_common())
        raise BootstrapError(
            f"{n_failed} of {config.k} bootstrap resamples failed ({reasons})"
        )
    tail = 0.5 * (1.0 - CI_LEVEL)
    lo, hi = np.quantile([v for v in estimates if math.isfinite(v)], [tail, 1.0 - tail])
    return ConfidenceInterval(lo=float(lo), hi=float(hi), failures=dict(failures),
                              nonconverged=dict(nonconverged), refits=RefitCounts(**refits))


def _reproduces(point: EstimateReport, fit: Optional[tuple]) -> bool:
    """Whether `fit`, a stacked fit of the point's own dataset, is the
    point's fit: none where the point's solver did not converge, else a
    beta_hat within 1e-9 relative of the point's."""
    if point.solver is not None and not point.solver.converged:
        return fit is None
    return fit is not None and math.isclose(fit[0], point.beta_hat, rel_tol=1e-9)


def _fit_each(estimator: Estimator, fits: list, items: list, dataset_of: Callable,
              refits: Counter, failures: Counter, nonconverged: Counter) -> list:
    """The beta_hat of each item: its stacked fit, or, where that is None,
    the estimator's fit of dataset_of(item).  A fit that raises one of
    FIT_ERRORS or returns a non-finite beta_hat fails: its beta_hat is NaN,
    and failures counts it by reason (the exception class name, or
    "non-finite").  Any other fit is kept, and nonconverged counts the kept
    fits whose solver stopped without converging, by solver status.  refits
    tallies the stacked and per-dataset fits and the iterations and residual
    evaluations of their solvers (see report.RefitCounts)."""
    values = []
    for item, fit in zip(items, fits):
        if fit is None:
            refits["per_refit"] += 1
            try:
                report = estimator(dataset_of(item))
            except FIT_ERRORS as exc:
                failures[type(exc).__name__] += 1
                values.append(math.nan)
                continue
            fit = report.beta_hat, report.solver
        else:
            refits["stacked"] += 1
        beta_hat, solver = fit
        if solver is not None:
            refits["iterations"] += solver.iterations
            refits["residual_evals"] += solver.residual_evals
        if not math.isfinite(beta_hat):
            failures["non-finite"] += 1
            beta_hat = math.nan
        elif solver is not None and not solver.converged:
            nonconverged[solver.status] += 1
        values.append(beta_hat)
    return values


# ---------------------------------------------------------------------------
# replication harness
# ---------------------------------------------------------------------------

def generate_for(design: Design, seed: int) -> PooledDataset:
    generate = generate_model1 if design.model == 1 else generate_model2
    return generate(design, seed)[0]


def default_estimators(design: Design) -> dict:
    """Named estimator bank for a design: the matching IPW estimator plus the
    MAR and MCAR references."""
    ipw = estimate_model1 if design.model == 1 else estimate_model2
    return {"ipw": ipw, "mar": mar_estimate, "mcar": mcar_estimate}


@dataclass(frozen=True)
class EstimatorSummary:
    name: str
    bias: float
    pct_bias: float
    mse: float
    variance: float
    n_ok: int
    n_nonconverged: int  # of the n_ok: kept although the solver did not converge
    failures: Mapping[str, int] = field(default_factory=dict)  # reason -> count

    @property
    def n_failed(self) -> int:
        return sum(self.failures.values())


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
        k = len(self.summaries)
        stats = [np.array([getattr(s, name) for s in self.summaries])
                 for name in ("bias", "pct_bias", "mse", "variance", "n_ok", "n_failed")]
        _write_columns(
            path,
            ["design", "n", "n_reps", "beta_true", "estimator",
             "bias", "pct_bias", "mse", "variance", "n_ok", "n_failed"],
            [(np.zeros(k, int), _lookup((self.design_label,))), (np.full(k, self.n), _ints),
             (np.full(k, self.n_reps), _ints), (np.full(k, self.beta_true.value), _floats),
             (np.arange(k), _lookup([s.name for s in self.summaries])),
             *zip(stats, [_floats] * 4 + [_ints] * 2)],
        )

    def write_replicates_csv(self, path: str) -> None:
        """Long-format replicate-level estimates (empty cell on failure)."""
        k = len(self.estimates)
        _write_columns(
            path,
            ["replicate", "estimator", "beta_hat"],
            [(np.repeat(np.arange(self.n_reps), k), _ints),
             (np.tile(np.arange(k), self.n_reps), _lookup(list(self.estimates))),
             (np.array(list(self.estimates.values()), dtype=float).T.ravel(),
              _floats_or(""))],
        )


# A block of replicates of a design of n rows holds at most _BLOCK_ROWS // n
# replicates, fitted as one stack: 8 at n=2000.  A block holds its datasets,
# their domain indices and their stacked rows, about 0.35 MB per 2000-row
# replicate at its peak; blocks of 16 fitted a fifth faster per replicate
# but raised the peak memory of a 16-replicate call by 7 % instead of 2 %.
_BLOCK_ROWS = 1 << 14


def _blocks(design, n_reps: int) -> list[range]:
    """The replicates split into blocks of nearly equal size, the fewest
    that hold at most max(1, _BLOCK_ROWS // n) each."""
    n_blocks = -(-n_reps // max(1, _BLOCK_ROWS // design.n))
    return [range(n_reps * b // n_blocks, n_reps * (b + 1) // n_blocks)
            for b in range(n_blocks)]


def _run_block(design, seed: int, reps: range) -> dict:
    """name -> (beta_hats, refits, failures, nonconverged) of each estimator
    of default_estimators(design) over the block's replicates, as _fit_each
    gives and counts them.  An estimator with a `stacked_fits` attribute
    (the bank but MCAR) fits the block's datasets as one stack through it,
    as stacked_fits(rows): rows is the block's FitRows.of_block, laid out
    once here and read by every such estimator."""
    estimators = default_estimators(design)
    datasets = [generate_for(design, int(make_rng(seed, rep).integers(2**31)))
                for rep in reps]
    stacked = {name: getattr(fn, "stacked_fits", None) for name, fn in estimators.items()}
    rows = FitRows.of_block(datasets) if any(stacked.values()) else None
    out = {}
    for name, fn in estimators.items():
        fits = ([None] * len(datasets) if stacked[name] is None
                else stacked[name](rows))
        counts = Counter(), Counter(), Counter()
        out[name] = (_fit_each(fn, fits, datasets, lambda ds: ds, *counts), *counts)
    return out


# The process pool of parallel `replicate` calls, kept for the next call:
# (pool, its process count) or None.  The lock lets one call at a time use
# the pool.
_pool: Optional[tuple[ProcessPoolExecutor, int]] = None
_pool_lock = threading.Lock()


def _worker_pool(n_workers: int, n_blocks: int) -> ProcessPoolExecutor:
    """A pool of at least min(n_workers, n_blocks) and at most n_workers
    processes: the kept one if it fits, else a new one of min(n_workers,
    n_blocks) processes, started after the kept one has shut down.  A new
    pool of at least as many processes as the CPUs this process may run on
    binds each worker to one of them; a smaller one stays unbound, so that
    small jobs on a large machine do not pile onto its first CPUs."""
    global _pool
    size = min(n_workers, n_blocks)
    if _pool is not None and not size <= _pool[1] <= n_workers:
        _drop_pool()
    if _pool is None:
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
        binding = ({"initializer": _bind_worker,
                    "initargs": (cpus, multiprocessing.Value("i", 0))}
                   if cpus and size >= len(cpus) else {})
        _pool = (ProcessPoolExecutor(max_workers=size, **binding), size)
    return _pool[0]


def _bind_worker(cpus: list, started) -> None:
    """Pool initializer: bind this worker to cpus[i % len(cpus)], where i
    counts the pool's workers in the order they start (`started`, a shared
    integer).  A worker that cannot be bound runs unbound."""
    with started.get_lock():
        i = started.value
        started.value += 1
    bind = getattr(os, "sched_setaffinity", None)
    if bind is not None:
        try:
            bind(0, {cpus[i % len(cpus)]})
        except OSError:
            pass  # say, the CPU has left this process's set since the pool started


def _drop_pool() -> None:
    global _pool
    _pool[0].shutdown(wait=True)
    _pool = None


def replicate(design: Design, n_reps: int, seed: int = 0,
              n_workers: int = 1) -> ReplicationReport:
    """Monte Carlo replication of the design's estimator bank,
    default_estimators(design), over fresh datasets.

    Replicate r draws its dataset seed from the (seed, r) stream.  The
    replicates are fitted in blocks (`_blocks`), which depend on the design
    and n_reps alone, so the estimate array is a pure function of (design,
    seed, n_reps) regardless of worker count or completion order.  With
    n_workers > 1 and two or more blocks the blocks run in a pool of
    min(n_workers, blocks) processes, which is kept for the next call: a
    call reuses it if it has enough processes and no more than n_workers,
    else shuts it down and starts its own.  A new pool of at least as many
    processes as the CPUs this process may run on binds its workers to
    them round robin (`_bind_worker`); a smaller one stays unbound.
    Unbound, the workers of a two-worker call on 2 vCPUs woke on the
    caller's CPU and shared it, and replicated more slowly than one
    worker; bound, the benchmark's two-worker rate rose from a median 800
    to 1169 replicates/s.  Binding changes no estimate.  A worker receives
    the design, the seed and a block's replicates, and builds the bank
    itself.  A call whose pool broke (a worker died) drops it and raises
    BrokenProcessPool.
    With the fork start method the workers are forked when the pool starts,
    so they see module state as it was then: a monkeypatch made after that
    does not reach them.  Else the blocks run in this process.
    """
    if n_reps < 0:
        raise ValueError(f"n_reps must be at least 0, got {n_reps}")
    if n_workers < 1:
        raise ValueError(f"n_workers must be at least 1, got {n_workers}")
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    beta_true = true_beta(design)

    blocks = _blocks(design, n_reps)
    if n_workers > 1 and len(blocks) > 1:
        with _pool_lock:
            try:
                runs = list(_worker_pool(n_workers, len(blocks)).map(
                    _run_block, [design] * len(blocks), [seed] * len(blocks), blocks))
            except BrokenProcessPool:
                _drop_pool()  # the next call starts a new one
                raise
    else:
        runs = [_run_block(design, seed, reps) for reps in blocks]

    estimates, summaries, fits = {}, [], {}
    for name in default_estimators(design):
        values = np.array([v for run in runs for v in run[name][0]], dtype=float)
        refits, failures, nonconverged = (sum((run[name][i] for run in runs), Counter())
                                          for i in (1, 2, 3))
        fits[name] = RefitCounts(**refits)
        estimates[name] = values
        ok = values[np.isfinite(values)]
        n_ok = ok.size
        if n_ok == 0:
            summaries.append(EstimatorSummary(name, math.nan, math.nan, math.nan, math.nan,
                                              0, 0, dict(failures)))
            continue
        bias = float(ok.mean() - beta_true.value)
        summaries.append(
            EstimatorSummary(
                name=name,
                bias=bias,
                pct_bias=bias / beta_true.value if beta_true.value else math.nan,
                mse=float(np.mean((ok - beta_true.value) ** 2)),
                variance=float(ok.var(ddof=1)) if n_ok > 1 else 0.0,
                n_ok=n_ok,
                n_nonconverged=sum(nonconverged.values()),
                failures=dict(failures),
            )
        )
    return ReplicationReport(
        design_label=design.label,
        n=design.n,
        n_reps=n_reps,
        seed=seed,
        beta_true=beta_true,
        summaries=tuple(summaries),
        estimates=estimates,
        fits=fits,
    )
