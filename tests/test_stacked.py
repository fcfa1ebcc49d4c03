"""Stacked fits: the bootstrap's refits give the same draws and the same
numbers as refitting the estimator on each resample, and replication's
blocks the same numbers as fitting each replicate dataset on its own."""

import argparse
import dataclasses
import functools
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnarfuse import baselines, cli, model1, model2, models
from mnarfuse.baselines import mcar_estimate
from mnarfuse.data import DomainTag, PooledDataset, read_csv
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
    stack_rows,
)
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
    cold = estimator.stacked_refits(ds, None)(draws)
    point = estimator(ds).solver
    assert point.converged
    warm = estimator.stacked_refits(ds, point)(draws)
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


def test_warm_refits_take_no_more_iterations_over_the_panel(panel):
    # some refits, and the refits of some datasets, take more steps from
    # the point fit's theta than from theta = 0; the panel's refits
    # together take no more
    cold_iterations = warm_iterations = 0
    for ds, estimator in panel.values():
        point = estimator(ds).solver
        draws = [_draw(ds, make_rng(7, b)) for b in range(12)]
        cold = estimator.stacked_refits(ds, None)(draws)
        warm = estimator.stacked_refits(ds, point)(draws)
        for fit, warm_fit in zip(cold, warm):
            if fit is not None and warm_fit is not None:
                cold_iterations += fit[1].iterations
                warm_iterations += warm_fit[1].iterations
    assert 0 < warm_iterations <= cold_iterations


@pytest.mark.parametrize("k", [1, 7])
@pytest.mark.parametrize("name", ["model1-T", "model2-F", "fixture"])
def test_stacked_interval_matches_the_per_refit_interval(panel, monkeypatch, name, k):
    ds, estimator = panel[name]
    build = estimator.stacked_refits

    def blocks_of_three(dataset, point=None):  # so that k=7 ends on a short block
        refits = build(dataset, point)
        refits.block_size = 3
        return refits

    monkeypatch.setattr(estimator, "stacked_refits", blocks_of_three)
    config = BootstrapConfig(k=k, seed=11, max_failure_fraction=0.9)
    stacked = bootstrap_ci(ds, estimator, config)
    reference = bootstrap_ci(ds, _per_refit(estimator), config)
    assert stacked.lo == pytest.approx(reference.lo, abs=1e-12, rel=0)
    assert stacked.hi == pytest.approx(reference.hi, abs=1e-12, rel=0)
    assert stacked.failures == reference.failures
    assert stacked.nonconverged == reference.nonconverged
    assert stacked.refits.stacked + stacked.refits.per_refit == k
    assert reference.refits.stacked == 0 and reference.refits.per_refit == k
    assert stacked.refits.stacked > 0


def test_tiny_auxiliary_domain_resamples_fail_alike(panel):
    ds, estimator = panel["tiny-auxiliary"]
    config = BootstrapConfig(k=40, seed=2, max_failure_fraction=0.9)
    stacked = bootstrap_ci(ds, estimator, config)
    reference = bootstrap_ci(ds, _per_refit(estimator), config)
    assert stacked.failures == reference.failures
    assert set(stacked.failures) == {"EstimationError", "RankDeficientError"}
    assert (stacked.lo, stacked.hi) == pytest.approx((reference.lo, reference.hi),
                                                     abs=1e-12, rel=0)
    # every failed refit was refitted on its rows
    assert stacked.refits.per_refit >= stacked.n_failed


def _interval(ds, estimator, point=None, k=24):
    return bootstrap_ci(ds, estimator, BootstrapConfig(k=k, seed=3, max_failure_fraction=0.9),
                        point)


def _cold(estimator):
    """The estimator with its stacked refits started at theta = 0."""
    @functools.wraps(estimator)
    def cold(dataset):
        return estimator(dataset)

    cold.stacked_refits = lambda dataset, point: estimator.stacked_refits(dataset, None)
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
    # gamma held fixed: a converged theta without the odds-ratio parameter
    narrow = estimate_model2(ds, fix_gamma=0.0)
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


def _constant_primary_x(dataset):
    """The dataset with every primary-domain X set to 0.5."""
    x = dataset.x.copy()
    x[dataset.g == DomainTag.PRIMARY] = 0.5
    return PooledDataset(dataset.schema, g=dataset.g, x=x, m=dataset.m, y=dataset.y,
                         r=dataset.r, m_labels=dataset.m_labels)


@pytest.mark.parametrize("design,estimate", [(Model1Design(n=500), estimate_model1),
                                             (Model2Design(n=500), estimate_model2)],
                         ids=["model1", "model2"])
def test_a_constant_primary_x_is_a_rank_deficient_failure(design, estimate, monkeypatch):
    # the X-only part of the propensity basis, (1, x1), has rank 1 over the
    # primary rows: the point fit raises, and a stack member falls back to it
    flat = _constant_primary_x(inference.generate_for(design, 3))
    with pytest.raises(RankDeficientError) as err:
        estimate(flat)
    assert str(err.value) == "design matrix is rank deficient at column 1"

    generate = inference.generate_for
    made = []

    def every_other_flat(design, seed):
        made.append(generate(design, seed))
        return _constant_primary_x(made[-1]) if len(made) % 2 else made[-1]

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


@pytest.mark.parametrize("name", sorted(REPLICATE_DESIGNS))
def test_stacked_replication_matches_fitting_each_dataset(name):
    design = REPLICATE_DESIGNS[name]
    bank = default_estimators(design)
    stacked = replicate(design, n_reps=16, seed=1)
    reference = replicate(design, n_reps=16, seed=1,
                          estimators={key: _per_refit(fn) for key, fn in bank.items()})
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
        reference = replicate(design, n_reps=40, seed=0,
                              estimators={key: _per_refit(fn) for key, fn in bank.items()})
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
    """replicate(n_workers) over n_reps replicates (4 by default) in blocks
    of 2: with n_workers > 1 and two or more blocks they run in the kept
    pool."""
    design = Model1Design(n=300)
    monkeypatch.setattr(inference, "_BLOCK_ROWS", 2 * design.n)

    def run(n_workers, estimators=None, n_reps=4):
        return replicate(design, n_reps=n_reps, seed=2, n_workers=n_workers,
                         estimators=estimators or {"mcar": mcar_estimate})
    return run


def _kept_pool():
    return inference._pool[0]


def _not_a_fit_error(dataset):
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


def test_a_redefined_estimator_reaches_the_workers(two_blocks, monkeypatch):
    original = baselines.mcar_estimate
    first = two_blocks(2, {"mcar": original})
    pool = _kept_pool()

    def mcar_estimate(dataset):
        report = original(dataset)
        return dataclasses.replace(report, beta_hat=report.beta_hat + 1.0)
    # the same module and name as the function it replaces, as after a reload
    mcar_estimate.__module__, mcar_estimate.__qualname__ = (
        original.__module__, original.__qualname__)
    with monkeypatch.context() as patch:
        patch.setattr(baselines, "mcar_estimate", mcar_estimate)
        bank = {"mcar": mcar_estimate}
        parallel, serial = two_blocks(2, bank), two_blocks(1, bank)
        assert parallel.estimates["mcar"].tobytes() == serial.estimates["mcar"].tobytes()
        assert _kept_pool() is not pool
        np.testing.assert_array_equal(serial.estimates["mcar"], first.estimates["mcar"] + 1.0)
    # the original is back under its name, but not in the kept pool's workers
    restored = two_blocks(2, {"mcar": original})
    assert restored.estimates["mcar"].tobytes() == first.estimates["mcar"].tobytes()


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
    bank = {"mcar": mcar_estimate, "bad": _not_a_fit_error}
    with pytest.raises(LookupError, match="not a fit error"):
        two_blocks(2, bank)
    pool = _kept_pool()
    with pytest.raises(LookupError, match="not a fit error"):
        two_blocks(2, bank)
    assert _kept_pool() is pool
    assert two_blocks(2).summaries[0].n_ok == 4
    assert _kept_pool() is pool


def test_estimates_do_not_depend_on_the_worker_count_over_two_rounds(two_blocks):
    bank = default_estimators(Model1Design(n=300))
    runs = [two_blocks(w, bank) for _ in range(2) for w in (1, 2, 3)]
    for run in runs[1:]:
        for key, values in runs[0].estimates.items():
            assert values.tobytes() == run.estimates[key].tobytes()
        assert run.fits == runs[0].fits


def test_blocks_depend_on_the_design_and_the_replicate_count_alone():
    design = Model1Design(n=2000)
    for n_reps in (0, 1, 16, 33, 100):
        blocks = inference._blocks(design, n_reps)
        assert [rep for block in blocks for rep in block] == list(range(n_reps))
        assert all(len(b) <= max(1, inference._BLOCK_ROWS // design.n) for b in blocks)
        assert max(map(len, blocks), default=0) - min(map(len, blocks), default=0) <= 1


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
    stacked = stack_rows(design, sizes)
    counts = (np.arange(stacked.shape[1]) < sizes[:, None]).astype(float)
    return stacked, counts, solve_least_squares(stacked, stack_rows(target, sizes),
                                                weights=counts)


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
