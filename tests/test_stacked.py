"""Stacked fits: the bootstrap's refits give the same draws and the same
numbers as refitting the estimator on each resample, and replication's
blocks the same numbers as fitting each replicate dataset on its own."""

import argparse
import functools
import multiprocessing
import os
import re
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mnarfuse import baselines, cli, model1, model2, models
from mnarfuse.data import DomainTag, PooledDataset, VariableSchema, read_csv
from mnarfuse import inference
from mnarfuse.inference import (
    BootstrapConfig,
    _draw,
    bootstrap_ci,
    default_estimators,
    replicate,
)
from mnarfuse.model1 import EstimationError, estimate_model1
from mnarfuse.model2 import estimate_model2
from mnarfuse.models import (
    RankDeficientError,
    dependent_columns,
    solve_least_squares,
)
from mnarfuse.report import FitRows, domain_arrays
from mnarfuse.simulate import (
    Model1Design,
    Model2Design,
    generate_model1,
    generate_model2,
    make_rng,
)


def _fixture(tmp_path_factory, n=600, seed=3):
    prefix = str(tmp_path_factory.mktemp("fixture") / "fx")
    assert cli.main(["make-fixture", "--n", str(n), "--seed", str(seed),
                     "--out-prefix", prefix]) == 0
    return read_csv(prefix + ".csv",
                    *cli._load_schema_map(argparse.Namespace(config=prefix + ".ini")))


def _tiny_auxiliary(n=400, seed=5):
    """All primary rows of a Model 1 dataset and five of its auxiliary rows,
    three complete: a resample may hold too few auxiliary complete cases
    for the three-term regression, or too few distinct ones."""
    ds, _ = generate_model1(Model1Design(n=n, setting="T"), seed)
    aux = ds.g == DomainTag.AUXILIARY
    complete = np.flatnonzero(aux & (ds.r == 1))[:3]
    incomplete = np.flatnonzero(aux & (ds.r == 0))[:2]
    return ds.take(np.concatenate([np.flatnonzero(~aux), complete, incomplete]))


@pytest.fixture(scope="module")
def panel(tmp_path_factory):
    return {
        "model1-T": (generate_model1(Model1Design(n=400, setting="T"), 1)[0], estimate_model1),
        "model1-F": (generate_model1(Model1Design(n=400, setting="F"), 2)[0], estimate_model1),
        "model2-T": (generate_model2(Model2Design(n=400, setting="T"), 1)[0], estimate_model2),
        "model2-F": (generate_model2(Model2Design(n=400, setting="F"), 2)[0], estimate_model2),
        "fixture": (_fixture(tmp_path_factory), estimate_model1),
        "tiny-auxiliary": (_tiny_auxiliary(), estimate_model1),
    }


def _per_refit(estimator):
    """The estimator without its stacked refits."""
    return lambda dataset: estimator(dataset)


def _refits(estimator, dataset, draws, start=None):
    """The estimator's stacked fits of the resamples of dataset given by
    their rows, draws, started at start."""
    return estimator.stacked_fits(FitRows.of_resamples(dataset, draws), start)


def _pooled_draw(dataset, rng):
    """Rows drawn with replacement over the whole dataset, so that the
    resamples' domain sizes differ and a domain can be empty."""
    return rng.integers(0, len(dataset), size=len(dataset))


@pytest.mark.parametrize("draw", ["stratified", "pooled"])
@pytest.mark.parametrize("name", ["model1-T", "model1-F", "model2-T", "model2-F",
                                  "fixture", "tiny-auxiliary"])
def test_stacked_refits_match_refits_on_the_resamples(panel, name, draw):
    # the stack fits any draw of rows: bootstrap_ci's, within each domain,
    # and draws over the whole dataset
    ds, estimator = panel[name]
    k, seed = 12, 7
    draw_rows = {"stratified": _draw, "pooled": _pooled_draw}[draw]
    draws = [draw_rows(ds, make_rng(seed, b)) for b in range(k)]
    cold = _refits(estimator, ds, draws)
    point = estimator(ds).solver
    assert point.converged
    warm = _refits(estimator, ds, draws, point.theta_hat)
    stacked = 0
    for b, (fit, warm_fit) in enumerate(zip(cold, warm)):
        if fit is None:
            continue
        stacked += 1
        reference = estimator(ds.take(draws[b]))
        assert fit[0] == pytest.approx(reference.beta_hat, abs=1e-12, rel=0)
        assert fit[1].converged and reference.solver.converged
        # from theta = 0 the stack takes the per-refit fit's steps
        assert fit[1].iterations == reference.solver.iterations
        assert fit[1].residual_evals == reference.solver.residual_evals
        # from the point fit's theta it reaches the same root
        assert warm_fit is not None and warm_fit[1].converged
        assert warm_fit[0] == pytest.approx(fit[0], abs=1e-12, rel=0)
    assert stacked > 0


@pytest.mark.parametrize("name", ["fixture", "tiny-auxiliary"])
def test_resample_counts_are_the_bincounts_of_their_rows(panel, name):
    # bootstrap_ci's resamples are the rows they hold, and the stack counts
    # each row set as the bincount of a resample's rows, in Fortran layout
    ds, _ = panel[name]
    draws = [_draw(ds, make_rng(3, b)) for b in range(5)]
    stack = FitRows.of_resamples(ds, draws)
    counts = np.array([np.bincount(draw, minlength=len(ds)) for draw in draws], dtype=float)
    for row_set, tag in (("primary", DomainTag.PRIMARY), ("cc", DomainTag.PRIMARY),
                         ("aux_cc", DomainTag.AUXILIARY)):
        domain = domain_arrays(ds, tag)
        want = counts[:, domain.rows if row_set == "primary" else domain.cc]
        assert stack.counts(row_set).flags.f_contiguous
        np.testing.assert_array_equal(stack.counts(row_set), want)


@settings(max_examples=60, deadline=None)
@given(units=st.lists(st.tuples(st.sampled_from([1, 2]), st.sampled_from([0, 1])),
                      min_size=1, max_size=25),
       seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4),
       draw=st.sampled_from(["stratified", "pooled"]))
@example(units=[(1, 1), (1, 0), (1, 1)], seed=0, k=3, draw="stratified")  # no auxiliary rows
@example(units=[(2, 1), (2, 0), (2, 1)], seed=0, k=3, draw="pooled")  # no primary rows
def test_resample_counts_are_the_bincounts_of_any_draw_of_rows(units, seed, k, draw):
    # any draw of a dataset's rows, within each domain or over the whole
    # dataset, of a dataset with or without rows in each domain: each row
    # set's counts are the bincounts of the draws' rows at that set's rows,
    # in Fortran layout
    g, r = np.array(units).T
    n = len(units)
    ds = PooledDataset(VariableSchema(covariate_names=("x1",)), g=g, x=np.zeros((n, 1)),
                       m=np.where(r == 1, 0.0, np.nan),
                       y=np.where((g == 1) & (r == 1), 0.0, np.nan), r=r)
    draw_rows = {"stratified": _draw, "pooled": _pooled_draw}[draw]
    draws = [draw_rows(ds, make_rng(seed, b)) for b in range(k)]
    stack = FitRows.of_resamples(ds, draws)
    counts = np.array([np.bincount(rows, minlength=n) for rows in draws], dtype=float)
    primary, auxiliary = (domain_arrays(ds, tag)
                          for tag in (DomainTag.PRIMARY, DomainTag.AUXILIARY))
    for row_set, rows in (("primary", primary.rows), ("cc", primary.cc),
                          ("aux_cc", auxiliary.cc)):
        assert stack.counts(row_set).flags.f_contiguous
        np.testing.assert_array_equal(stack.counts(row_set), counts[:, rows])


def test_warm_refits_take_no_more_iterations_over_the_panel(panel):
    # some refits, and the refits of some datasets, take more steps from
    # the point fit's theta than from theta = 0; the panel's refits
    # together take no more
    cold_iterations = warm_iterations = 0
    for ds, estimator in panel.values():
        point = estimator(ds).solver
        draws = [_draw(ds, make_rng(7, b)) for b in range(12)]
        cold = _refits(estimator, ds, draws)
        warm = _refits(estimator, ds, draws, point.theta_hat)
        for fit, warm_fit in zip(cold, warm):
            if fit is not None and warm_fit is not None:
                cold_iterations += fit[1].iterations
                warm_iterations += warm_fit[1].iterations
    assert 0 < warm_iterations <= cold_iterations


@pytest.mark.parametrize("k", [1, 7])
@pytest.mark.parametrize("name", ["model1-T", "model2-F", "fixture", "mar-model1-T",
                                  "mar-model2-F"])
def test_stacked_interval_matches_the_per_refit_interval(panel, monkeypatch, name, k):
    # MAR refits share the dataset's rows in the stack, as the IPW ones do
    ds, estimator = panel[name.removeprefix("mar-")]
    if name.startswith("mar-"):
        estimator = baselines.mar_estimate
    # blocks of three resamples, so that k=7 ends on a short block
    monkeypatch.setattr(inference, "_REFIT_ROWS", 3 * len(ds))
    monkeypatch.setattr(inference, "MAX_FAILURE_FRACTION", 0.9)
    config = BootstrapConfig(k=k, seed=11)
    stacked = bootstrap_ci(ds, estimator, config)
    reference = bootstrap_ci(ds, _per_refit(estimator), config)
    assert stacked.lo == pytest.approx(reference.lo, abs=1e-12, rel=0)
    assert stacked.hi == pytest.approx(reference.hi, abs=1e-12, rel=0)
    assert stacked.failures == reference.failures
    assert stacked.nonconverged == reference.nonconverged
    assert stacked.refits.stacked + stacked.refits.per_refit == k
    assert reference.refits.stacked == 0 and reference.refits.per_refit == k
    assert stacked.refits.stacked > 0


def test_tiny_auxiliary_domain_resamples_fail_alike(panel, monkeypatch):
    ds, estimator = panel["tiny-auxiliary"]
    monkeypatch.setattr(inference, "MAX_FAILURE_FRACTION", 0.9)
    config = BootstrapConfig(k=40, seed=2)
    stacked = bootstrap_ci(ds, estimator, config)
    reference = bootstrap_ci(ds, _per_refit(estimator), config)
    assert stacked.failures == reference.failures
    assert set(stacked.failures) == {"EstimationError", "RankDeficientError"}
    assert (stacked.lo, stacked.hi) == pytest.approx((reference.lo, reference.hi),
                                                     abs=1e-12, rel=0)
    # every failed refit was refitted on its rows
    assert stacked.refits.per_refit >= stacked.n_failed


def test_a_mar_stack_without_a_complete_case_leaves_each_member_to_its_own_fit(panel):
    # each resample draws one incomplete primary row n1 times, so no member
    # of the stack is live and none is fitted
    ds, _ = panel["model1-T"]
    primary = domain_arrays(ds, DomainTag.PRIMARY)
    incomplete = np.setdiff1d(primary.rows, primary.cc)
    auxiliary = domain_arrays(ds, DomainTag.AUXILIARY).rows
    draws = [np.concatenate([np.repeat(row, primary.n), auxiliary]) for row in incomplete[:2]]
    assert _refits(baselines.mar_estimate, ds, draws) == [None, None]


def _interval(ds, estimator, point=None, k=24):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inference, "MAX_FAILURE_FRACTION", 0.9)
        return bootstrap_ci(ds, estimator, BootstrapConfig(k=k, seed=3), point)


def _cold(estimator):
    """The estimator with its stacked refits started at theta = 0."""
    @functools.wraps(estimator)
    def cold(dataset):
        return estimator(dataset)

    cold.stacked_fits = lambda rows, start=None: estimator.stacked_fits(rows)
    return cold


def _same_refits(a, b):
    assert (a.lo, a.hi) == pytest.approx((b.lo, b.hi), abs=1e-12, rel=0)
    assert a.failures == b.failures and a.nonconverged == b.nonconverged
    assert (a.refits.stacked, a.refits.per_refit) == (b.refits.stacked, b.refits.per_refit)


@pytest.mark.parametrize("name", ["model1-T", "model1-F", "model2-T", "model2-F",
                                  "fixture", "tiny-auxiliary"])
def test_a_passed_point_gives_the_interval_of_the_point_fitted_here(panel, name):
    ds, estimator = panel[name]
    report = estimator(ds)
    assert report.solver.converged
    passed = _interval(ds, estimator, report)
    assert passed == _interval(ds, estimator)
    # from theta = 0 the refits reach the same roots
    _same_refits(passed, _interval(ds, _cold(estimator)))


def test_a_point_without_a_usable_theta_leaves_the_refits_cold(panel):
    ds, _ = panel["model2-T"]
    cold = _interval(ds, _cold(estimate_model2))
    assert _interval(ds, estimate_model2).refits != cold.refits
    # gamma held at 0: a converged theta without the odds-ratio parameter
    spec = model2.Model2Spec.default(ds.schema)
    narrow = model1.calibrate(ds, spec.baseline_basis, *spec.bases[1:], "ipw-model2")
    assert narrow.solver.converged and narrow.solver.theta_hat.size == 2
    assert _interval(ds, estimate_model2, narrow) == cold
    assert _interval(ds, estimate_model2, baselines.mar_estimate(ds)) == cold

    @functools.wraps(estimate_model2)
    def fails_on_the_point(dataset):
        if dataset is ds:
            raise EstimationError("no point fit")
        return estimate_model2(dataset)

    assert _interval(ds, fails_on_the_point) == cold


def test_a_nonconverged_point_leaves_the_refits_cold():
    ds = generate_model1(Model1Design(n=500, setting="F"), 37)[0]
    report = estimate_model1(ds)
    assert report.solver.status == "max_iter"
    cold = _interval(ds, _cold(estimate_model1))
    # two refits converge in the stack, so the counts show where they started
    assert cold.refits.stacked > 0
    assert _interval(ds, estimate_model1, report) == cold
    assert _interval(ds, estimate_model1) == cold


def test_no_fit_runs_a_logistic_regression(panel, monkeypatch):
    # every calibration starts at theta = 0: the point fits, a replicate
    # block and refits without a point to start from
    def fail(*args, **kwargs):
        raise AssertionError("fit_logistic called")

    for module in (models, model1, model2):
        monkeypatch.setattr(module, "fit_logistic", fail)
    ds1, ds2 = panel["model1-T"][0], panel["model2-T"][0]
    assert estimate_model1(ds1).solver.converged
    assert estimate_model2(ds2).solver.converged
    fits = replicate(Model2Design(n=500), n_reps=4, seed=1).fits["ipw"]
    assert fits.stacked > 0 and fits.stacked + fits.per_refit == 4
    ci = bootstrap_ci(ds1, _cold(estimate_model1), BootstrapConfig(k=6, seed=1))
    assert ci.refits.stacked == 6


def _constant_x(dataset, tag=DomainTag.PRIMARY):
    """The dataset with every X of domain `tag`, the primary one by default,
    set to 0.5."""
    x = dataset.x.copy()
    x[dataset.g == tag] = 0.5
    return PooledDataset(dataset.schema, g=dataset.g, x=x, m=dataset.m, y=dataset.y,
                         r=dataset.r)


@pytest.mark.parametrize("design,estimate", [(Model1Design(n=500), estimate_model1),
                                             (Model2Design(n=500), estimate_model2)],
                         ids=["model1", "model2"])
def test_a_constant_primary_x_is_a_rank_deficient_failure(design, estimate, monkeypatch):
    # the X-only part of the propensity basis, (1, x1), has rank 1 over the
    # primary rows: the point fit raises, and a stack member falls back to it
    flat = _constant_x(inference.generate_for(design, 3))
    with pytest.raises(RankDeficientError) as err:
        estimate(flat)
    assert str(err.value) == "design matrix is rank deficient at column 1 (x1)"

    generate = inference.generate_for
    made = []

    def every_other_flat(design, seed):
        made.append(generate(design, seed))
        return _constant_x(made[-1]) if len(made) % 2 else made[-1]

    monkeypatch.setattr(inference, "generate_for", every_other_flat)
    report = replicate(design, n_reps=4, seed=1)
    np.testing.assert_array_equal(np.isnan(report.estimates["ipw"]), [True, False] * 2)
    assert (report.fits["ipw"].stacked, report.fits["ipw"].per_refit) == (2, 2)


def test_the_stacked_path_survives_wraps_and_skips_partials(panel):
    ds, _ = panel["model1-T"]
    config = BootstrapConfig(k=6, seed=1)

    @functools.wraps(estimate_model1)
    def traced(dataset):
        return estimate_model1(dataset)

    assert bootstrap_ci(ds, traced, config).refits.stacked == 6
    partial = functools.partial(estimate_model1, spec=None)
    assert bootstrap_ci(ds, partial, config).refits.stacked == 0


def _own_spec_wrapper(*bases):
    """A functools.wraps wrapper of estimate_model1 that fits its own spec,
    and so copies a hook that fits the default one."""
    spec = model1.Model1Spec(*map(models.BasisSpec.parse, bases))
    return functools.wraps(estimate_model1)(lambda dataset: estimate_model1(dataset, spec))


def _trimmed(dataset):
    """estimate_model1 of the dataset without its primary rows of x1 > 2.5."""
    return estimate_model1(dataset.take(np.flatnonzero(
        ~((dataset.g == DomainTag.PRIMARY) & (dataset.x[:, 0] > 2.5)))))


def _copied_hook(dataset):
    """_trimmed as a plain function, with estimate_model1's hook set by hand."""
    return _trimmed(dataset)


_copied_hook.stacked_fits = estimate_model1.stacked_fits

# name -> (estimator, whether bootstrap_ci keeps its stacked refits)
_TRUST_GRID = {
    "owner": (estimate_model1, True),
    "pass-through": (functools.wraps(estimate_model1)(lambda dataset: estimate_model1(dataset)),
                     True),
    "trimming": (functools.wraps(estimate_model1)(lambda dataset: _trimmed(dataset)), False),
    "copied-hook": (_copied_hook, False),
}


@pytest.fixture(scope="module")
def trust_dataset():
    return generate_model1(Model1Design(n=1000), 3)[0]


@pytest.mark.parametrize("bases,status", [
    (("1,x1,m", "1,x1,m,x1^2", "1,x1", "1,x1"), "max_iter"),
    (("1,x1,m", "1,x1,m", "1,x1", "1,x1"), "converged"),
], ids=["nonconverged", "converged"])
def test_a_wrapper_of_another_spec_gets_its_own_refits(trust_dataset, bases, status):
    # the nonconverged wrapper's point does not converge, and the hook's does
    ds = trust_dataset
    mine = _own_spec_wrapper(*bases)
    assert mine.stacked_fits is estimate_model1.stacked_fits
    point = mine(ds)
    assert point.solver.status == status
    config = BootstrapConfig(k=50, seed=1)
    reference = bootstrap_ci(ds, _per_refit(mine), config)
    for passed in (None, point):
        wrapped = bootstrap_ci(ds, mine, config, passed)
        _same_refits(wrapped, reference)
        assert wrapped.refits.per_refit == 50


@pytest.mark.parametrize("passed", [True, False], ids=["point-passed", "point-fitted"])
@pytest.mark.parametrize("name", list(_TRUST_GRID))
def test_a_hook_is_used_as_is_by_its_owner_and_else_only_if_it_reproduces_the_point(
        trust_dataset, name, passed):
    # a hook that fits another estimator than the one carrying it gives the
    # per-refit interval, whether the point was passed or fitted here
    ds = trust_dataset
    estimator, keeps_stacked = _TRUST_GRID[name]
    assert estimator.stacked_fits is estimate_model1.stacked_fits
    config = BootstrapConfig(k=50, seed=1)
    ci = bootstrap_ci(ds, estimator, config, estimator(ds) if passed else None)
    if keeps_stacked:
        assert ci.refits.stacked == config.k
    else:
        _same_refits(ci, bootstrap_ci(ds, _per_refit(estimator), config))
        assert ci.refits.per_refit == config.k


@pytest.mark.parametrize("estimator,fit", [(estimate_model1, "newton_stack"),
                                           (baselines.mar_estimate, "_mar_fit")],
                         ids=["model1", "mar"])
def test_an_owner_without_a_point_fits_each_block_once(trust_dataset, monkeypatch, estimator,
                                                        fit):
    # two blocks of 25 resamples: model1's stacked solves are the blocks'
    # alone, and MAR fits the point and then each block
    module = model1 if fit == "newton_stack" else baselines
    calls = []
    real = getattr(module, fit)

    def counted(*args, **kwargs):
        calls.append(fit)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, fit, counted)
    monkeypatch.setattr(inference, "_REFIT_ROWS", 25 * len(trust_dataset))
    ci = bootstrap_ci(trust_dataset, estimator, BootstrapConfig(k=50, seed=1))
    assert ci.refits.stacked == 50
    assert len(calls) == (2 if fit == "newton_stack" else 3)


@pytest.mark.parametrize("name,estimator", [
    ("model1-T", estimate_model1), ("model2-F", estimate_model2),
    ("fixture", baselines.mar_estimate),
], ids=["model1", "model2", "mar"])
def test_an_estimator_whose_hook_reproduces_its_point_keeps_its_stacked_refits(
        panel, name, estimator):
    # a pass-through wrapper: test_the_stacked_path_survives_wraps_and_skips_partials
    ds = panel[name][0]
    assert bootstrap_ci(ds, estimator, BootstrapConfig(k=6, seed=1)).refits.stacked == 6


def _every_row_once(ds):
    return FitRows.of_resamples(ds, [np.arange(len(ds))])


@pytest.mark.parametrize("name", ["model1-T", "model1-F", "model2-T", "model2-F", "fixture"])
def test_the_target_and_the_mar_fit_of_a_dataset_are_their_one_member_stack(panel, name):
    ds, estimator = panel[name]
    spec = model1.Model1Spec if estimator is estimate_model1 else model2.Model2Spec
    _, h_basis, aux_basis = spec.default(ds.schema).bases
    target, coefs = model1._aux_targets(FitRows(ds), h_basis, aux_basis)
    targets, stacked_coefs = model1._aux_targets(_every_row_once(ds), h_basis, aux_basis)
    assert (targets.shape, stacked_coefs.shape) == ((1,) + target.shape, (1,) + coefs.shape)
    np.testing.assert_allclose(targets[0], target, rtol=0, atol=1e-12)
    np.testing.assert_allclose(stacked_coefs[0], coefs, rtol=0, atol=1e-12)
    beta, coef = baselines._mar_fit(FitRows(ds))
    betas, stacked_coef = baselines._mar_fit(_every_row_once(ds))
    assert betas.shape == (1,) and stacked_coef.shape == (1,) + coef.shape
    assert betas[0] == pytest.approx(beta, abs=1e-12, rel=0)
    np.testing.assert_allclose(stacked_coef[0], coef, rtol=0, atol=1e-12)
    assert baselines.mar_estimate(ds).beta_hat == beta


@pytest.mark.parametrize("tag", [DomainTag.AUXILIARY, DomainTag.PRIMARY], ids=["ipw", "mar"])
def test_a_rank_deficient_regression_raises_on_a_dataset_and_is_nan_in_a_stack(panel, tag):
    # a constant auxiliary x1 leaves the target regression's (1, x1, x1^2)
    # of rank 1, a constant primary x1 the MAR regression's (1, x1)
    ds = panel["model1-T"][0]
    flat = _constant_x(ds, tag)
    block = FitRows.of_block([flat, ds])
    message = re.escape("design matrix is rank deficient at column 1 (x1)")
    if tag == DomainTag.AUXILIARY:
        _, h_basis, aux_basis = model1.Model1Spec.default(ds.schema).bases
        with pytest.raises(RankDeficientError, match=message):
            model1._aux_targets(FitRows(flat), h_basis, aux_basis)
        fitted = model1._aux_targets(block, h_basis, aux_basis)
        estimate = estimate_model1
    else:
        with pytest.raises(RankDeficientError, match=message):
            baselines._mar_fit(FitRows(flat))
        fitted = baselines._mar_fit(block)
        estimate = baselines.mar_estimate
    for values in fitted:
        assert np.isnan(values[0]).all() and np.isfinite(values[1]).all()
    with pytest.raises(RankDeficientError, match=message):
        estimate(flat)
    fits = estimate.stacked_fits(block)
    assert fits[0] is None
    assert fits[1][0] == pytest.approx(estimate(ds).beta_hat, abs=1e-12, rel=0)


def _count_site_calls(monkeypatch) -> dict:
    """Count each call of the regressions' lookup sites that the benchmark's
    tracer patches, model1's and baselines' evaluate_basis_matrix and
    solve_least_squares, by function name."""
    calls = {"evaluate_basis_matrix": 0, "solve_least_squares": 0}
    for module in (model1, baselines):
        for name in calls:
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("fit,expected", [
    (lambda ds1, ds2, draws: estimate_model1(ds1), (5, 1)),
    (lambda ds1, ds2, draws: estimate_model2(ds2), (6, 1)),
    (lambda ds1, ds2, draws: baselines.mar_estimate(ds1), (2, 1)),
    (lambda ds1, ds2, draws: _refits(estimate_model1, ds1, draws), (5, 1)),
    (lambda ds1, ds2, draws: _refits(baselines.mar_estimate, ds1, draws), (2, 1)),
], ids=["model1", "model2", "mar", "model1-stack", "mar-stack"])
def test_every_fit_keeps_its_calls_at_the_lookup_sites(monkeypatch, fit, expected):
    # a regression moved off a patched site would zero its traced layer
    ds1 = generate_model1(Model1Design(n=500, setting="T"), 1)[0]
    ds2 = generate_model2(Model2Design(n=500, setting="T"), 1)[0]
    draws = [_draw(ds1, make_rng(1, b)) for b in range(5)]
    calls = _count_site_calls(monkeypatch)
    fit(ds1, ds2, draws)
    assert (calls["evaluate_basis_matrix"], calls["solve_least_squares"]) == expected


def test_count_weighted_fits_equal_fits_on_duplicated_rows():
    rng = np.random.default_rng(4)
    n = 300
    x = rng.normal(size=n)
    design = np.column_stack([np.ones(n), x, x**2])
    target = np.column_stack([np.sin(x), x**3])
    counts = np.stack([np.bincount(rng.integers(0, n, size=n), minlength=n)
                       for _ in range(4)]).astype(float)
    ls_coefs = solve_least_squares(design, target, weights=counts)
    for k, c in enumerate(counts):
        rows = np.repeat(np.arange(n), c.astype(int))
        np.testing.assert_allclose(ls_coefs[k], solve_least_squares(design[rows], target[rows]),
                                   rtol=0, atol=1e-12)


def test_weighted_fits_flag_rank_deficient_members_with_nan():
    design = np.column_stack([np.ones(6), np.arange(6.0)])
    counts = np.array([[1, 1, 1, 1, 1, 1], [0, 0, 4, 0, 0, 0]], dtype=float)
    coefs = solve_least_squares(design, np.arange(6.0) * 2.0 + 1.0, weights=counts)
    np.testing.assert_allclose(coefs[0], [1.0, 2.0], atol=1e-12)
    assert np.isnan(coefs[1]).all()
    assert dependent_columns(design, counts).tolist() == [-1, 1]


def _shared_design(basis: str, x: np.ndarray) -> np.ndarray:
    one = np.ones_like(x)
    return np.column_stack({"quadratic": [one, x, x**2],
                            "shifted": [one, x + 1e3],
                            "cubic": [one, x, x**3],
                            "shifted-cubic": [one, x + 1e3, x**3]}[basis])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 300), size=st.integers(1, 6),
       basis=st.sampled_from(["quadratic", "shifted", "cubic", "shifted-cubic"]),
       scale=st.sampled_from([1.0, 10.0]), density=st.floats(0.02, 1.0))
def test_one_qr_route_matches_the_weighted_qr_route(seed, n, size, basis, scale, density):
    # counts from 0 to 3 on a random share of the rows: members range from
    # bootstrap-like to a handful of rows, and the route must certify only
    # members that pass the QR's rank test
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) * scale
    design = _shared_design(basis, x)
    target = np.column_stack([np.sin(x), x**2, rng.normal(size=n)])
    counts = (rng.integers(0, 4, size=(size, n))
              * (rng.random((size, n)) < density)).astype(float)
    coefs, certified = models._shared_qr_solve(design, target, counts)
    reference = models._qr_solve(design, target, counts)
    assert (dependent_columns(design, counts)[certified] == -1).all()
    for k in np.flatnonzero(certified):
        assert (np.linalg.norm(coefs[k] - reference[k])
                <= 1e-10 * np.linalg.norm(reference[k]))


def _categorical_design(n=90, seed=8):
    """A constant, a covariate and two indicators of a three-level
    category, rows cycling through the levels."""
    rng = np.random.default_rng(seed)
    level = np.arange(n) % 3
    design = np.column_stack([np.ones(n), rng.normal(size=n), level == 1, level == 2])
    return design.astype(float), level, rng.normal(size=(n, 2))


def test_rank_deficient_shared_members_get_the_qr_rank_test():
    design, level, target = _categorical_design()
    n = len(design)
    counts = np.ones((6, n))
    counts[1, level == 2] = 0.0  # a dropped level
    counts[2] = 0.0
    counts[2, :3] = 1.0  # fewer rows than columns
    counts[3] = 0.0
    counts[3, 4] = 5.0  # one row
    counts[4] = 0.0  # all-zero weights
    counts[5] = np.random.default_rng(1).multinomial(n, np.full(n, 1 / n))
    bad = dependent_columns(design, counts)
    assert bad.tolist() == [-1, 3, 3, 1, 0, -1]
    coefs = solve_least_squares(design, target, weights=counts)
    assert (np.isnan(coefs).all(axis=(1, 2)) == (bad >= 0)).all()
    assert np.isfinite(coefs[bad < 0]).all()


def _count_weighted_qrs(monkeypatch) -> list:
    """The weights of each call of models._weighted_qr from here on."""
    calls = []
    weighted_qr = models._weighted_qr

    def counted(design, weights, mode):
        calls.append(weights)
        return weighted_qr(design, weights, mode)

    monkeypatch.setattr(models, "_weighted_qr", counted)
    return calls


def test_shared_stack_takes_one_qr_and_only_uncertified_members_reach_weighted_qrs(
        monkeypatch):
    design, level, target = _categorical_design()
    n = len(design)
    counts = np.random.default_rng(2).multinomial(n, np.full(n, 1 / n), size=8).astype(float)
    calls = _count_weighted_qrs(monkeypatch)
    solve_least_squares(design, target, weights=counts)
    assert calls == []
    counts[5, level == 1] = 0.0
    coefs = solve_least_squares(design, target, weights=counts)
    assert [c.tolist() for c in calls] == [counts[5:6].tolist()]
    assert np.isnan(coefs[5]).all() and np.isfinite(np.delete(coefs, 5, axis=0)).all()


# ---------------------------------------------------------------------------
# replication: a block of datasets is one stack with per-member rows
# ---------------------------------------------------------------------------

REPLICATE_DESIGNS = {
    "model1-T": Model1Design(n=500, setting="T"),
    "model1-F": Model1Design(n=500, setting="F"),
    "model2-T": Model2Design(n=500, setting="T"),
    "model2-F": Model2Design(n=500, setting="F"),
}


def _replicate_per_refit(design, n_reps, seed):
    """replicate with each estimator of the design's bank called on each
    replicate's dataset, without its stacked fits."""
    bank = default_estimators(design)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inference, "default_estimators",
                      lambda design: {key: _per_refit(fn) for key, fn in bank.items()})
        return replicate(design, n_reps=n_reps, seed=seed)


@pytest.mark.parametrize("name", sorted(REPLICATE_DESIGNS))
def test_stacked_replication_matches_fitting_each_dataset(name):
    design = REPLICATE_DESIGNS[name]
    bank = default_estimators(design)
    stacked = replicate(design, n_reps=16, seed=1)
    reference = _replicate_per_refit(design, n_reps=16, seed=1)
    for key in bank:
        values, expected = stacked.estimates[key], reference.estimates[key]
        np.testing.assert_array_equal(np.isnan(values), np.isnan(expected))
        np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12)
    assert ([(s.n_failed, s.n_nonconverged) for s in stacked.summaries]
            == [(s.n_failed, s.n_nonconverged) for s in reference.summaries])
    assert stacked.fits["ipw"].stacked > 0 and stacked.fits["mar"].stacked > 0
    assert stacked.fits["mcar"].stacked == 0
    assert all(counts.stacked == 0 for counts in reference.fits.values())


def _complete_cases(dataset, tag):
    return int(np.count_nonzero((dataset.g == tag) & (dataset.r == 1)))


@pytest.mark.parametrize("design_class", [Model1Design, Model2Design], ids=["model1", "model2"])
def test_tiny_replicate_blocks_match_fitting_each_dataset(design_class):
    # one block of 40 tiny datasets per n: its members include ones with no
    # auxiliary complete case, no primary complete case, and fewer
    # auxiliary complete cases than the three auxiliary regression terms
    kinds = set()
    for n in (3, 8, 12):
        design = design_class(n=n)
        assert len(inference._blocks(design, 40)) == 1
        for rep in range(40):
            dataset = inference.generate_for(design, int(make_rng(0, rep).integers(2**31)))
            aux_cc = _complete_cases(dataset, DomainTag.AUXILIARY)
            if aux_cc == 0:
                kinds.add("no auxiliary complete case")
            elif aux_cc < 3:
                kinds.add("too few auxiliary complete cases")
            if _complete_cases(dataset, DomainTag.PRIMARY) == 0:
                kinds.add("no primary complete case")
        bank = default_estimators(design)
        stacked = replicate(design, n_reps=40, seed=0)
        reference = _replicate_per_refit(design, n_reps=40, seed=0)
        for key in bank:
            values, expected = stacked.estimates[key], reference.estimates[key]
            np.testing.assert_array_equal(np.isnan(values), np.isnan(expected))
            np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12)
        assert ([(s.name, s.n_failed) for s in stacked.summaries]
                == [(s.name, s.n_failed) for s in reference.summaries])
    assert kinds == {"no auxiliary complete case", "too few auxiliary complete cases",
                     "no primary complete case"}


def test_a_nonconverged_replicate_is_refitted_on_its_own():
    # replicate 5 of this panel stops at max_iter in the stack and on its own
    report = replicate(Model1Design(n=500, setting="F"), n_reps=16, seed=1)
    ipw = {s.name: s for s in report.summaries}["ipw"]
    assert ipw.n_nonconverged == 1 and ipw.n_failed == 0
    assert (report.fits["ipw"].stacked, report.fits["ipw"].per_refit) == (15, 1)


def test_fit_counts_add_up_to_the_replicates():
    report = replicate(Model2Design(n=300, setting="T"), n_reps=5, seed=2)
    for counts in report.fits.values():
        assert counts.stacked + counts.per_refit == 5
    assert report.fits["ipw"].iterations > 0 and report.fits["ipw"].residual_evals > 0
    assert report.fits["mar"].iterations == 0


def test_replication_does_not_depend_on_the_worker_count(monkeypatch):
    design = Model1Design(n=500, setting="F")
    monkeypatch.setattr(inference, "_BLOCK_ROWS", 2 * design.n)  # 7 reps: 4 blocks
    assert len(inference._blocks(design, 7)) == 4
    runs = [replicate(design, n_reps=7, seed=1, n_workers=w) for w in (1, 2, 3)]
    for run in runs[1:]:
        for key, values in runs[0].estimates.items():
            assert values.tobytes() == run.estimates[key].tobytes()
        assert run.summaries == runs[0].summaries
        assert run.fits == runs[0].fits


@pytest.fixture
def two_blocks(monkeypatch):
    """replicate(n_workers) of a design of 300 rows (Model 1 by default)
    over n_reps replicates (4 by default) in blocks of 2: with n_workers > 1
    and two or more blocks they run in the kept pool."""
    monkeypatch.setattr(inference, "_BLOCK_ROWS", 2 * 300)

    def run(n_workers, n_reps=4, design=Model1Design(n=300)):
        return replicate(design, n_reps=n_reps, seed=2, n_workers=n_workers)
    return run


def _kept_pool():
    return inference._pool[0]


class _FailingDesign(Model1Design):
    """A Model 1 design whose generation raises an error that is no fit
    error; its truth is analytic, so only the generation raises."""

    @property
    def a2(self) -> float:
        raise LookupError("not a fit error")


def test_calls_with_the_same_worker_count_share_one_pool(two_blocks):
    two_blocks(2)
    pool = _kept_pool()
    two_blocks(2)
    assert _kept_pool() is pool


def test_the_pool_has_no_more_processes_than_blocks(two_blocks):
    two_blocks(8)
    assert inference._pool[1] == 2 and len(_kept_pool()._processes) == 2
    pool = _kept_pool()
    two_blocks(2)  # needs 2 processes and allows 2
    assert _kept_pool() is pool


def test_a_pool_too_small_or_too_large_is_shut_down_and_replaced(two_blocks):
    two_blocks(2)
    old = _kept_pool()
    workers = list(old._processes.values())
    two_blocks(3, n_reps=6)  # 3 blocks: the pool of 2 is too small
    assert inference._pool[1] == 3 and _kept_pool() is not old
    assert not any(worker.is_alive() for worker in workers)
    with pytest.raises(RuntimeError, match="shutdown"):
        old.submit(abs, 1)
    three = _kept_pool()
    two_blocks(3)  # 2 blocks in 3 processes, no more than n_workers
    assert _kept_pool() is three
    two_blocks(2)  # 3 processes exceed n_workers
    assert inference._pool[1] == 2 and _kept_pool() is not three


def test_model1_and_model2_calls_share_one_pool(two_blocks):
    model1 = two_blocks(2)
    pool = _kept_pool()
    model2 = two_blocks(2, design=Model2Design(n=300))
    assert _kept_pool() is pool
    assert (model1.design_label, model2.design_label) == ("model1-T", "model2-T")
    serial = two_blocks(1, design=Model2Design(n=300))
    for key, values in serial.estimates.items():
        assert values.tobytes() == model2.estimates[key].tobytes()
    assert two_blocks(2).estimates["ipw"].tobytes() == model1.estimates["ipw"].tobytes()
    assert _kept_pool() is pool


def test_a_broken_pool_is_dropped_and_the_next_call_starts_a_new_one(two_blocks):
    serial = two_blocks(1)
    two_blocks(2)
    pool = _kept_pool()
    os.kill(next(iter(pool._processes)), signal.SIGKILL)
    deadline = time.monotonic() + 30
    while not pool._broken and time.monotonic() < deadline:
        time.sleep(0.01)
    with pytest.raises(BrokenProcessPool):
        two_blocks(2)
    assert inference._pool is None
    report = two_blocks(2)
    assert _kept_pool() is not pool
    assert report.estimates["mcar"].tobytes() == serial.estimates["mcar"].tobytes()


def test_an_error_in_a_worker_reaches_the_caller_and_the_pool_lives_on(two_blocks):
    failing = _FailingDesign(n=300)
    with pytest.raises(LookupError, match="not a fit error"):
        two_blocks(2, design=failing)
    pool = _kept_pool()
    with pytest.raises(LookupError, match="not a fit error"):
        two_blocks(2, design=failing)
    assert _kept_pool() is pool
    assert two_blocks(2).summaries[0].n_ok == 4
    assert _kept_pool() is pool


def test_estimates_do_not_depend_on_the_worker_count_over_two_rounds(two_blocks):
    runs = [two_blocks(w) for _ in range(2) for w in (1, 2, 3)]
    for run in runs[1:]:
        for key, values in runs[0].estimates.items():
            assert values.tobytes() == run.estimates[key].tobytes()
        assert run.fits == runs[0].fits


needs_affinity = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                                    reason="no CPU affinity on this platform")
_affinity = getattr(os, "sched_getaffinity", None)  # the real one, where a test patches it


def _drop_kept_pool():
    if inference._pool is not None:
        inference._drop_pool()


@pytest.fixture
def fresh_pool():
    """No kept pool when the test starts, so that it starts its own, and
    none left when it ends."""
    _drop_kept_pool()
    try:
        yield
    finally:
        _drop_kept_pool()


def _see_cpus(monkeypatch, cpus):
    """Make a new pool see `cpus` as the CPUs this process may run on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))


def _worker_cpus(pool) -> list:
    """The sorted CPUs of the pool's workers, once each is bound to a single
    CPU; fails after 30 s."""
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        sets = [_affinity(pid) for pid in pool._processes]
        if all(len(cpus) == 1 for cpus in sets):
            return sorted(cpu for cpus in sets for cpu in cpus)
        time.sleep(0.01)
    raise AssertionError(f"workers not bound within 30 s: {sets}")


@needs_affinity
@pytest.mark.parametrize("extra", [0, 1], ids=["one-per-cpu", "one-more"])
def test_a_pool_as_large_as_the_cpu_set_binds_its_workers_round_robin(
        two_blocks, fresh_pool, monkeypatch, extra):
    # at most 3 of this machine's CPUs, so that the pool stays small on a
    # large machine, and at least 2 workers; one more worker than CPUs
    # shares the first CPU, and the estimates stay those of the serial run
    cpus = sorted(_affinity(0))[:3]
    _see_cpus(monkeypatch, cpus)
    size = max(2, len(cpus)) + extra
    serial = two_blocks(1, n_reps=2 * size)
    pooled = two_blocks(size, n_reps=2 * size)
    assert inference._pool[1] == size
    workers = len(_kept_pool()._processes)
    assert _worker_cpus(_kept_pool()) == sorted(cpus[i % len(cpus)] for i in range(workers))
    for key, values in serial.estimates.items():
        assert values.tobytes() == pooled.estimates[key].tobytes()
    assert pooled.fits == serial.fits


@needs_affinity
def test_a_pool_smaller_than_the_cpu_set_stays_unbound(two_blocks, fresh_pool, monkeypatch):
    # several small jobs on a large machine would pile onto its first CPUs
    real = _affinity(0)
    _see_cpus(monkeypatch, real | {max(real) + 1, max(real) + 2})
    two_blocks(2)
    assert inference._pool[1] == 2
    assert [_affinity(pid) for pid in _kept_pool()._processes] == [real, real]


def test_a_worker_that_cannot_be_bound_runs_unbound(monkeypatch):
    bound = []

    def bind(pid, cpus):
        bound.append(cpus)
        raise OSError(22, "Invalid argument")
    monkeypatch.setattr(os, "sched_setaffinity", bind, raising=False)
    started = multiprocessing.Value("i", 0)
    for _ in range(3):
        inference._bind_worker([4, 6], started)
    assert bound == [{4}, {6}, {4}] and started.value == 3
    monkeypatch.delattr(os, "sched_setaffinity")
    inference._bind_worker([4, 6], started)
    assert started.value == 4


@pytest.fixture(params=["fork", "forkserver", "spawn"])
def start_method(request, fresh_pool):
    """Pools start their workers by this method for the test's length."""
    before = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(request.param, force=True)
    try:
        yield request.param
    finally:
        _drop_kept_pool()
        multiprocessing.set_start_method(before, force=True)


def test_replication_does_not_depend_on_the_start_method(two_blocks, start_method,
                                                         monkeypatch):
    # the workers are bound where the platform allows it, so the binding's
    # arguments reach the workers under each method
    if _affinity is not None:
        _see_cpus(monkeypatch, sorted(_affinity(0))[:2])
    serial, pooled = two_blocks(1), two_blocks(2)
    for key, values in serial.estimates.items():
        assert values.tobytes() == pooled.estimates[key].tobytes()
    assert pooled.summaries == serial.summaries and pooled.fits == serial.fits
    if _affinity is not None:
        assert len(_worker_cpus(_kept_pool())) == 2


def test_blocks_depend_on_the_design_and_the_replicate_count_alone():
    design = Model1Design(n=2000)
    for n_reps in (0, 1, 16, 33, 100):
        blocks = inference._blocks(design, n_reps)
        assert [rep for block in blocks for rep in block] == list(range(n_reps))
        assert all(len(b) <= max(1, inference._BLOCK_ROWS // design.n) for b in blocks)
        assert max(map(len, blocks), default=0) - min(map(len, blocks), default=0) <= 1


def test_a_block_pads_each_row_set_into_its_stack():
    datasets = [generate_model1(Model1Design(n=n), seed)[0]
                for n, seed in ((150, 1), (300, 2), (220, 3))]
    block = FitRows.of_block(datasets)
    own = [FitRows(ds) for ds in datasets]
    for name in ("primary", "cc", "aux_cc"):
        sizes = [len(rows[name][0]) for rows in own]
        n = max(sizes)
        assert len(set(sizes)) == 3
        assert block.counts(name).tolist() == [[1.0] * size + [0.0] * (n - size)
                                               for size in sizes]
        for position, stacked in enumerate(block[name]):
            assert stacked.shape == (3, n) + own[0][name][position].shape[1:]
            for k, rows in enumerate(own):
                assert np.array_equal(stacked[k, :sizes[k]], rows[name][position])
                assert not stacked[k, sizes[k]:].any()


def test_a_take_of_resamples_cuts_their_counts_and_shares_the_rows():
    ds = generate_model1(Model1Design(n=300), 1)[0]
    draws = [_draw(ds, make_rng(3, b)) for b in range(5)]
    stack = FitRows.of_resamples(ds, draws)
    assert stack.take(np.arange(5)) is stack
    part, alone = stack.take(np.array([1, 3])), FitRows.of_resamples(ds, [draws[1], draws[3]])
    assert part.schema == alone.schema
    for name in ("primary", "cc", "aux_cc"):
        np.testing.assert_array_equal(part.counts(name), alone.counts(name))
        assert all(a is b for a, b in zip(part[name], stack[name]))
        for got, want in zip(part[name], alone[name]):
            np.testing.assert_array_equal(got, want)


def test_a_take_of_a_block_cuts_its_members_rows():
    datasets = [generate_model1(Model1Design(n=n), seed)[0]
                for n, seed in ((150, 1), (300, 2), (220, 3))]
    block = FitRows.of_block(datasets)
    assert block.take(np.arange(3)) is block
    for members in ([1, 2], [0, 2], [2]):
        part = block.take(np.array(members))
        alone = FitRows.of_block([datasets[k] for k in members])
        assert part.schema == alone.schema
        for name in ("primary", "cc", "aux_cc"):
            # a take keeps the block's padding, to its widest member's rows
            n, width = alone.counts(name).shape[1], block.counts(name).shape[1]
            for got, want in zip((part.counts(name),) + part[name],
                                 (alone.counts(name),) + alone[name]):
                assert got.shape[:2] == (len(members), width)
                np.testing.assert_array_equal(got[:, :n], want)
                assert not got[:, n:].any()


# the Jacobian tables of the own-row stacks of the test below, recorded from
# the code before FitRows.take: one for the whole stack and one for each
# Jacobian of fewer members; a take of own rows builds its own table
_OWN_ROW_TABLES = {(1, "T"): 4, (1, "F"): 8, (2, "T"): 4, (2, "F"): 4}


@pytest.mark.parametrize("design", [Model1Design, Model2Design], ids=["model1", "model2"])
@pytest.mark.parametrize("setting", ["T", "F"])
def test_a_stack_of_shared_rows_builds_one_jacobian_table(design, setting):
    estimator = default_estimators(design(n=2000, setting=setting))["ipw"]
    ds = inference.generate_for(design(n=2000, setting=setting), 7)
    shared = FitRows.of_resamples(ds, [_draw(ds, make_rng(1, b)) for b in range(40)])
    own = FitRows.of_block([inference.generate_for(design(n=500, setting=setting), seed)
                            for seed in range(8)])
    tables = []
    for rows in (shared, own):
        with pytest.MonkeyPatch.context() as patch:
            calls = []
            patch.setattr(model1, "weighted_cross_products",
                          lambda *a: calls.append(a) or models.weighted_cross_products(*a))
            assert all(fit is not None for fit in estimator.stacked_fits(rows))
        tables.append(len(calls))
    assert tables[0] == 1
    assert tables[1] <= _OWN_ROW_TABLES[design.model, setting]


def _own_rows(n_members=4, n=120, seed=6):
    """Designs and targets of members of various sizes, with their rows one
    member after another."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(n // 2, n, size=n_members)
    member = np.repeat(np.arange(n_members), sizes)
    x = rng.normal(size=member.size)
    design = np.column_stack([np.ones_like(x), x, x**2])
    target = np.column_stack([np.sin(x), x**3])
    return sizes, member, design, target


def _stacked_fit(sizes, design, target):
    """The members' rows as (K, n, ...) stacks, padded with a nonzero row
    that their zero counts must mask, and their least-squares fits."""
    counts = (np.arange(sizes.max()) < sizes[:, None]).astype(float)
    stacked = np.tile(1.0 + np.arange(design.shape[1]), counts.shape + (1,))
    stacked_target = np.full(counts.shape + target.shape[1:], 5.0)
    stacked[counts > 0], stacked_target[counts > 0] = design, target
    return stacked, counts, solve_least_squares(stacked, stacked_target, weights=counts)


def test_fits_with_their_own_rows_equal_fits_of_each_member():
    sizes, member, design, target = _own_rows()
    *_, ls_coefs = _stacked_fit(sizes, design, target)
    for k in range(sizes.size):
        rows = member == k
        np.testing.assert_allclose(ls_coefs[k], solve_least_squares(design[rows], target[rows]),
                                   rtol=0, atol=1e-12)


def test_fits_with_their_own_rows_flag_a_rank_deficient_member_with_nan():
    sizes, member, design, target = _own_rows()
    design[member == 2, 2] = design[member == 2, 1]  # member 2: two equal columns
    stacked, counts, ls_coefs = _stacked_fit(sizes, design, target)
    assert np.isnan(ls_coefs[2]).all()
    assert np.isfinite(np.delete(ls_coefs, 2, axis=0)).all()
    assert dependent_columns(stacked, counts).tolist() == [-1, -1, 2, -1]
