"""Tests of the benchmark's own helpers: span arithmetic, instrumentation and
the output checks.  Run with `PYTHONPATH=src python -m pytest bench`."""

import math
import os
import sys

import numpy as np
import pytest

sys.path[:0] = [os.path.dirname(os.path.abspath(__file__)),
                os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")]

from checks import (  # noqa: E402
    Checks,
    beta_matches,
    ci_valid,
    estimates_identical,
    mc_tolerance,
    truth_matches,
    within,
)
from tracing import Span, Tracer, instrument, layer_metrics, self_times  # noqa: E402
import workloads  # noqa: E402
from workloads import fixture_dataset  # noqa: E402


def _span(name, start, end, parent=None, **attrs):
    return Span(name, start, end, parent=parent, attrs=attrs)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 5.0, parent=0),  # overlaps a: together they cover [1, 5]
        _span("c", 6.0, 7.0, parent=0),
        _span("a.child", 1.5, 2.0, parent=1),
        _span("late", 9.5, 11.0, parent=0),  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([10 - 4 - 1 - 0.5, 1.5, 3.0, 1.0, 0.5, 1.5])


def test_layer_metrics_on_a_synthetic_bootstrap_tree():
    spans = [_span("cli.main", 0.0, 10.0), _span("inference.bootstrap_ci", 1.0, 9.0, 0,
                                                  n_failed=1)]
    for k, start in enumerate((2.0, 5.0)):
        fit = len(spans)
        spans.append(_span("model1.estimate_model1", start, start + 2.0, 1))
        for j in range(4):
            spans.append(_span("report.domain_arrays", start + 0.1 * j, start + 0.1 * j + 0.05,
                               fit))
        solve = len(spans)
        spans.append(_span("solver.solve", start + 1.0, start + 1.5, fit, iterations=3 + k,
                           converged=k == 0))
        for j in range(5):
            spans.append(_span("solver.residual", start + 1.0 + 0.01 * j,
                               start + 1.005 + 0.01 * j, solve))
    m = layer_metrics(spans, overhead_frac=0.02)
    assert m["inference.refits"] == 2
    assert m["inference.refits_failed"] == 1
    assert m["report.domain_arrays_calls_per_fit"] == 4
    assert m["solver.residual_evals_per_solve"] == 5
    assert m["solver.iterations_per_solve"] == 3.5
    assert m["solver.converged_frac"] == 0.5
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["inference.bootstrap_self_s"] == pytest.approx(4.0)
    assert m["model1.self_s"] == pytest.approx(2 * (2.0 - 0.2 - 0.5))
    assert m["model1.fit_p50_s"] == pytest.approx(2.0)
    assert m["trace.overhead_frac"] == 0.02
    assert m["baselines.self_s"] == 0.0


def test_calls_scale_each_call_by_the_kernel_around_it(monkeypatch):
    kernel = iter([0.1, 0.1, 0.05, 0.05, 0.05, 0.05])
    monkeypatch.setattr(workloads, "reference_kernel", lambda: next(kernel))
    clock = iter([0.0, 1.0, 10.0, 10.5, 20.0, 20.2, 30.0, 33.0])
    monkeypatch.setattr(workloads.time, "perf_counter", lambda: next(clock))
    calls = workloads.Calls()
    for kind in ("a", "a", "a", "b"):
        calls.measure(kind, 100 if kind == "a" else 50, lambda: None)
    # a: 1.0, 0.5, 0.2 s; b: 3.0 s, after which the kernel runs three times
    assert calls.times["a"] == pytest.approx([1.0, 0.5, 0.2])
    assert len(calls.kernel) == 6
    # kernel medians around the calls: 0.1, 0.1, 0.075, 0.05 against REFERENCE_S
    assert workloads.REFERENCE_S == 0.05
    assert calls.scaled["a"] == pytest.approx([0.5, 0.25, 0.2 / 1.5])
    assert calls.scaled["b"] == pytest.approx([3.0])
    assert calls.rate(raw=True) == pytest.approx(150 / 3.5)
    assert calls.rate() == pytest.approx(150 / 3.25)
    assert calls.rate(["a"]) == pytest.approx(400.0)
    assert calls.rounds == 1


def test_tracer_nests_spans_and_closes_them_on_error():
    tracer = Tracer()

    def fail():
        raise KeyError("x")

    inner = tracer.wrap("inner", lambda: 1)
    outer = tracer.wrap("outer", lambda: inner() + inner())
    assert outer() == 2
    with pytest.raises(KeyError):
        tracer.wrap("bad", fail)()
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [
        ("outer", None, 0), ("inner", 0, 0), ("inner", 0, 0), ("bad", None, 3)]
    assert tracer.spans[3].attrs == {"error": True}
    assert all(s.end >= s.start for s in tracer.spans)


def test_instrument_counts_one_fit_and_restores_the_package():
    from mnarfuse import model1, simulate

    original = model1.solve
    dataset, _ = simulate.generate_model1(simulate.Model1Design(n=400), seed=7)
    tracer = Tracer()
    with instrument(tracer):
        traced_beta = model1.estimate_model1(dataset).beta_hat
    assert model1.solve is original
    assert traced_beta == model1.estimate_model1(dataset).beta_hat
    m = layer_metrics(tracer.spans, 0.0)
    assert m["model1.fits"] == 1
    assert m["report.domain_arrays_calls_per_fit"] == 4
    assert m["solver.residual_evals_per_solve"] > m["solver.iterations_per_solve"] > 0


# ---------------------------------------------------------------------------
# each check accepts the exact result and rejects a perturbed one
# ---------------------------------------------------------------------------

def test_beta_check_rejects_a_shift_of_1e_6():
    beta = 1.7934512
    assert beta_matches(beta, beta)
    assert not beta_matches(beta + 1e-6, beta)


@pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (2.0, 1.0), (math.nan, 1.0), (0.0, math.inf)])
def test_ci_check_rejects_empty_reversed_or_non_finite(lo, hi):
    assert ci_valid(0.9, 1.1)
    assert not ci_valid(lo, hi)


def test_worker_invariance_check_rejects_one_changed_entry():
    serial = {"ipw": np.array([1.0, 2.0, np.nan]), "mar": np.array([0.5, 0.25, 0.125])}
    pooled = {k: v.copy() for k, v in serial.items()}
    assert estimates_identical(serial, pooled)
    pooled["mar"][1] = np.nextafter(0.25, 1.0)
    assert not estimates_identical(serial, pooled)
    assert not estimates_identical(serial, {"ipw": serial["ipw"]})


def test_truth_check_rejects_a_changed_value(tmp_path):
    from mnarfuse import simulate

    _, sidecar = simulate.generate_model2(simulate.Model2Design(n=50), seed=2)
    path = str(tmp_path / "truth.csv")
    simulate.write_truth_csv(sidecar, path)
    assert truth_matches(path, sidecar)
    sidecar.m_latent[7] += 1e-6
    assert not truth_matches(path, sidecar)


def test_fixture_reference_matches_the_cli_fixture(tmp_path):
    import argparse

    from mnarfuse import cli

    prefix = str(tmp_path / "fx")
    assert cli.main(["make-fixture", "--n", "300", "--seed", "4", "--out-prefix", prefix]) == 0
    schema, columns, domains = cli._load_schema_map(argparse.Namespace(config=prefix + ".ini"))
    written = cli._ingest(prefix + ".csv", schema, columns, domains)
    assert written == fixture_dataset(300, 4)
    assert written != fixture_dataset(300, 5)


def test_oracle_tolerance_scales_with_draws_and_rejects_outside():
    pilots = [0.50, 0.52, 0.48, 0.51, 0.49]
    tol = mc_tolerance(pilots, n_pilot=10_000, n=1_000_000)
    assert tol == pytest.approx(5.0 * np.std(pilots, ddof=1) / 10.0)
    assert within(0.5 + 0.9 * tol, 0.5, tol)
    assert not within(0.5 + 1.1 * tol, 0.5, tol)
    assert not within(math.nan, 0.5, tol)


def test_checks_tally():
    checks = Checks()
    assert checks.expect(True, "fine")
    assert not checks.expect(False, "broken")
    assert (checks.passed, checks.failures, checks.total) == (1, ["broken"], 2)
