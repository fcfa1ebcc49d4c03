"""In-memory span tracing of mnarfuse, installed from outside the package.

Every traced function is wrapped under the name its caller looks it up by
(modules import functions by name, so `mnarfuse.model1.solve` and
`mnarfuse.model2.solve` are patched separately).  Spans are kept in a list
and written out at the end of the run; per-layer metrics are computed from
them afterwards.

This module must not import numpy or mnarfuse at import time: the launcher
times `import mnarfuse` as part of set-up.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gzip
import importlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: Optional[int] = None  # index into Tracer.spans
    op: int = 0  # index of the root span of this operation
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one thread; the innermost open span is the
    parent of the next one, and a root span starts a new operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        op = idx if parent is None else self.spans[parent].op
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op=op))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while {popped} was innermost")

    def wrap(self, name: str, fn, on_result=None):
        """Wrap fn so every call records a span; on_result(span, args, result)
        may attach attributes once the call has returned."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans[idx].attrs["error"] = True
                raise
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(self.spans[idx], args, result)
            return result

        return traced

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op, s.attrs]))
                fh.write("\n")


# ---------------------------------------------------------------------------
# instrumentation of mnarfuse
# ---------------------------------------------------------------------------

_FITS = {
    "estimate_model1": "model1.estimate_model1",
    "estimate_model2": "model2.estimate_model2",
    "mar_estimate": "baselines.mar_estimate",
    "mcar_estimate": "baselines.mcar_estimate",
}

# (module, attribute, span name): every lookup site of a traced function.
# The CLI looks its estimators up in cli._ESTIMATORS, patched separately.
_SITES = [
    ("cli", "main", "cli.main"),
    ("cli", "read_csv", "data.read_csv"),
    ("cli", "_ingest", "data.ingest"),
    ("cli", "validate", "data.validate"),
    ("cli", "write_csv", "data.write_csv"),
    ("cli", "write_truth_csv", "simulate.write_truth_csv"),
    ("cli", "generate_model1", "simulate.generate_model1"),
    ("cli", "generate_model2", "simulate.generate_model2"),
    ("cli", "bootstrap_ci", "inference.bootstrap_ci"),
    ("inference", "replicate", "inference.replicate"),
    ("inference", "generate_model1", "simulate.generate_model1"),
    ("inference", "generate_model2", "simulate.generate_model2"),
    ("inference", "true_beta", "simulate.true_beta"),
    ("inference", "estimate_model1", "model1.estimate_model1"),
    ("inference", "estimate_model2", "model2.estimate_model2"),
    ("inference", "mar_estimate", "baselines.mar_estimate"),
    ("inference", "mcar_estimate", "baselines.mcar_estimate"),
    ("model1", "estimate_model1", "model1.estimate_model1"),
    ("model2", "estimate_model2", "model2.estimate_model2"),
    ("model1", "domain_arrays", "report.domain_arrays"),
    ("baselines", "domain_arrays", "report.domain_arrays"),
    ("model1", "evaluate_basis_matrix", "models.evaluate_basis_matrix"),
    ("model2", "evaluate_basis_matrix", "models.evaluate_basis_matrix"),
    ("baselines", "evaluate_basis_matrix", "models.evaluate_basis_matrix"),
    ("model1", "solve_least_squares", "models.solve_least_squares"),
    ("baselines", "solve_least_squares", "models.solve_least_squares"),
    ("model1", "fit_logistic", "models.fit_logistic"),
    ("model2", "fit_logistic", "models.fit_logistic"),
    ("oracle", "sample_law", "oracle.sample_law"),
    ("oracle", "run_battery", "oracle.run_battery"),
]


def _file_bytes(key: str, path_arg: int):
    def record(span, args, result):
        span.attrs[key] = os.path.getsize(args[path_arg])
    return record


def _record_ci(span, args, result):
    span.attrs["n_failed"] = result.n_failed


def _record_solver(span, args, result):
    span.attrs["iterations"] = result.iterations
    span.attrs["converged"] = result.converged


_ON_RESULT = {
    "data.read_csv": _file_bytes("bytes_read", 0),
    "data.ingest": _file_bytes("bytes_read", 0),
    "data.write_csv": _file_bytes("bytes_written", 1),
    "simulate.write_truth_csv": _file_bytes("bytes_written", 1),
    "inference.bootstrap_ci": _record_ci,
}


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch every lookup site of the traced functions; restore on exit."""
    modules = {name: importlib.import_module(f"mnarfuse.{name}")
               for name in ("cli", "inference", "model1", "model2", "baselines", "oracle")}
    estimators = modules["cli"]._ESTIMATORS
    saved_attrs = [(mod, attr, getattr(modules[mod], attr)) for mod, attr, _ in _SITES]
    saved_attrs += [(mod, "solve", modules[mod].solve) for mod in ("model1", "model2")]
    saved_estimators = dict(estimators)
    try:
        for mod, attr, span in _SITES:
            fn = getattr(modules[mod], attr)
            setattr(modules[mod], attr, tracer.wrap(span, fn, _ON_RESULT.get(span)))
        for mod in ("model1", "model2"):
            modules[mod].solve = _traced_solve(tracer, modules[mod].solve)
        for key, fn in saved_estimators.items():
            estimators[key] = tracer.wrap(_FITS[fn.__name__], fn)
        yield tracer
    finally:
        for mod, attr, fn in saved_attrs:
            setattr(modules[mod], attr, fn)
        estimators.update(saved_estimators)


def _traced_solve(tracer: Tracer, solve):
    """The solve wrapper hands the solver a copy of the system whose residual
    records one span per evaluation."""

    def counted(system):
        return solve(dataclasses.replace(
            system, residual=tracer.wrap("solver.residual", system.residual)))

    return tracer.wrap("solver.solve", counted, _record_solver)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover
    (the union of the child intervals, clipped to the parent)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


# name -> (unit, better); the order is the order of the report
PER_LAYER = {
    "cli.self_s": ("s", "lower"),
    "data.read_csv_s": ("s", "lower"),
    "data.ingest_s": ("s", "lower"),
    "data.validate_s": ("s", "lower"),
    "data.bytes_read": ("bytes", "lower"),
    "data.write_csv_s": ("s", "lower"),
    "data.bytes_written": ("bytes", "lower"),
    "report.domain_arrays_s": ("s", "lower"),
    "report.domain_arrays_calls_per_fit": ("calls/fit", "lower"),
    "models.evaluate_basis_s": ("s", "lower"),
    "models.evaluate_basis_calls_per_fit": ("calls/fit", "lower"),
    "models.lstsq_s": ("s", "lower"),
    "models.fit_logistic_s": ("s", "lower"),
    "solver.solve_s": ("s", "lower"),
    "solver.residual_eval_s": ("s", "lower"),
    "solver.iterations_per_solve": ("iter/solve", "lower"),
    "solver.residual_evals_per_solve": ("evals/solve", "lower"),
    "solver.converged_frac": ("frac", "higher"),
    "model1.self_s": ("s", "lower"),
    "model1.fits": ("count", "higher"),
    "model1.fit_p50_s": ("s", "lower"),
    "model1.fit_p99_s": ("s", "lower"),
    "model2.self_s": ("s", "lower"),
    "model2.fits": ("count", "higher"),
    "model2.fit_p50_s": ("s", "lower"),
    "model2.fit_p99_s": ("s", "lower"),
    "baselines.self_s": ("s", "lower"),
    "inference.bootstrap_self_s": ("s", "lower"),
    "inference.refits": ("count", "higher"),
    "inference.refits_failed": ("count", "lower"),
    "inference.replicate_self_s": ("s", "lower"),
    "simulate.generate_s": ("s", "lower"),
    "simulate.write_truth_csv_s": ("s", "lower"),
    "simulate.true_beta_s": ("s", "lower"),
    "oracle.sample_law_s": ("s", "lower"),
    "oracle.battery_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}

_FIT_SPANS = frozenset(_FITS.values())


def layer_metrics(spans: list[Span], overhead_frac: float) -> dict[str, float]:
    """Every PER_LAYER metric from one traced run's spans."""
    import numpy as np

    def percentile(values, q):
        return float(np.percentile(values, q)) if values else 0.0

    own = self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    attr_sum: dict[str, float] = {}
    refits = 0
    for s, self_s in zip(spans, own):
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_total[s.name] = self_total.get(s.name, 0.0) + self_s
        calls[s.name] = calls.get(s.name, 0) + 1
        durations.setdefault(s.name, []).append(s.duration)
        for key, value in s.attrs.items():
            attr_sum[key] = attr_sum.get(key, 0.0) + float(value)
        if (s.name in _FIT_SPANS and s.parent is not None
                and spans[s.parent].name == "inference.bootstrap_ci"):
            refits += 1

    def tot(*names):
        return sum(total.get(n, 0.0) for n in names)

    def own_of(*names):
        return sum(self_total.get(n, 0.0) for n in names)

    def n(*names):
        return sum(calls.get(k, 0) for k in names)

    def ratio(num, den):
        return num / den if den else 0.0

    fits = n(*_FIT_SPANS)
    solves = n("solver.solve")
    m1 = durations.get("model1.estimate_model1", [])
    m2 = durations.get("model2.estimate_model2", [])
    return {
        "cli.self_s": own_of("cli.main"),
        "data.read_csv_s": tot("data.read_csv"),
        "data.ingest_s": tot("data.ingest"),
        "data.validate_s": tot("data.validate"),
        "data.bytes_read": attr_sum.get("bytes_read", 0.0),
        "data.write_csv_s": tot("data.write_csv"),
        "data.bytes_written": attr_sum.get("bytes_written", 0.0),
        "report.domain_arrays_s": tot("report.domain_arrays"),
        "report.domain_arrays_calls_per_fit": ratio(n("report.domain_arrays"), fits),
        "models.evaluate_basis_s": tot("models.evaluate_basis_matrix"),
        "models.evaluate_basis_calls_per_fit":
            ratio(n("models.evaluate_basis_matrix"), fits),
        "models.lstsq_s": tot("models.solve_least_squares"),
        "models.fit_logistic_s": tot("models.fit_logistic"),
        "solver.solve_s": tot("solver.solve"),
        "solver.residual_eval_s": tot("solver.residual"),
        "solver.iterations_per_solve": ratio(attr_sum.get("iterations", 0.0), solves),
        "solver.residual_evals_per_solve": ratio(n("solver.residual"), solves),
        "solver.converged_frac": ratio(attr_sum.get("converged", 0.0), solves),
        "model1.self_s": own_of("model1.estimate_model1"),
        "model1.fits": float(len(m1)),
        "model1.fit_p50_s": percentile(m1, 50),
        "model1.fit_p99_s": percentile(m1, 99),
        "model2.self_s": own_of("model2.estimate_model2"),
        "model2.fits": float(len(m2)),
        "model2.fit_p50_s": percentile(m2, 50),
        "model2.fit_p99_s": percentile(m2, 99),
        "baselines.self_s": own_of("baselines.mar_estimate", "baselines.mcar_estimate"),
        "inference.bootstrap_self_s": own_of("inference.bootstrap_ci"),
        "inference.refits": float(refits),
        "inference.refits_failed": attr_sum.get("n_failed", 0.0),
        "inference.replicate_self_s": own_of("inference.replicate"),
        "simulate.generate_s": tot("simulate.generate_model1", "simulate.generate_model2"),
        "simulate.write_truth_csv_s": tot("simulate.write_truth_csv"),
        "simulate.true_beta_s": tot("simulate.true_beta"),
        "oracle.sample_law_s": tot("oracle.sample_law"),
        "oracle.battery_s": tot("oracle.run_battery"),
        "trace.overhead_frac": overhead_frac,
    }
