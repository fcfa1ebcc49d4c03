"""Stacked bootstrap refits: the same draws and the same numbers as refitting
the estimator on each resample."""

import argparse
import functools

import numpy as np
import pytest

from mnarfuse import cli
from mnarfuse.data import DomainTag, read_csv
from mnarfuse.inference import BootstrapConfig, _draw, _resample, bootstrap_ci
from mnarfuse.model1 import estimate_model1
from mnarfuse.model2 import estimate_model2
from mnarfuse.models import fit_logistic, solve_least_squares
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


@pytest.mark.parametrize("stratified", [True, False], ids=["stratified", "pooled"])
@pytest.mark.parametrize("name", ["model1-T", "model1-F", "model2-T", "model2-F",
                                  "fixture", "tiny-auxiliary"])
def test_stacked_refits_match_refits_on_the_resamples(panel, name, stratified):
    ds, estimator = panel[name]
    k, seed = 12, 7
    fits = estimator.stacked_refits(ds)(
        [_draw(ds, make_rng(seed, b), stratified) for b in range(k)])
    stacked = 0
    for b, fit in enumerate(fits):
        if fit is None:
            continue
        stacked += 1
        reference = estimator(_resample(ds, make_rng(seed, b), stratified))
        assert fit[0] == pytest.approx(reference.beta_hat, abs=1e-12, rel=0)
        assert fit[1].converged and reference.solver.converged
        assert fit[1].iterations == reference.solver.iterations
        assert fit[1].residual_evals == reference.solver.residual_evals
    assert stacked > 0


@pytest.mark.parametrize("k", [1, 7])
@pytest.mark.parametrize("stratified", [True, False], ids=["stratified", "pooled"])
@pytest.mark.parametrize("name", ["model1-T", "model2-F", "fixture"])
def test_stacked_interval_matches_the_per_refit_interval(panel, monkeypatch, name,
                                                         stratified, k):
    ds, estimator = panel[name]
    build = estimator.stacked_refits

    def blocks_of_three(dataset):  # so that k=7 ends on a short block
        refits = build(dataset)
        refits.block_size = 3
        return refits

    monkeypatch.setattr(estimator, "stacked_refits", blocks_of_three)
    config = BootstrapConfig(k=k, seed=11, stratified_by_domain=stratified,
                             max_failure_fraction=0.9)
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


def test_the_stacked_path_survives_wraps_and_skips_partials(panel):
    ds, _ = panel["model1-T"]
    config = BootstrapConfig(k=6, seed=1)

    @functools.wraps(estimate_model1)
    def traced(dataset):
        return estimate_model1(dataset)

    assert bootstrap_ci(ds, traced, config).refits.stacked == 6
    partial = functools.partial(estimate_model1, config=None)
    assert bootstrap_ci(ds, partial, config).refits.stacked == 0


def test_count_weighted_fits_equal_fits_on_duplicated_rows():
    rng = np.random.default_rng(4)
    n = 300
    x = rng.normal(size=n)
    design = np.column_stack([np.ones(n), x, x**2])
    outcome = (rng.random(n) < 1.0 / (1.0 + np.exp(-0.3 - 0.8 * x))).astype(float)
    target = np.column_stack([np.sin(x), x**3])
    counts = np.stack([np.bincount(rng.integers(0, n, size=n), minlength=n)
                       for _ in range(4)]).astype(float)
    logistic_coefs = fit_logistic(design, outcome, weights=counts)
    ls_coefs = solve_least_squares(design, target, weights=counts)
    for k, c in enumerate(counts):
        rows = np.repeat(np.arange(n), c.astype(int))
        np.testing.assert_allclose(logistic_coefs[k], fit_logistic(design[rows], outcome[rows]),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(ls_coefs[k], solve_least_squares(design[rows], target[rows]),
                                   rtol=0, atol=1e-12)


def test_weighted_fits_flag_rank_deficient_members_with_nan():
    design = np.column_stack([np.ones(6), np.arange(6.0)])
    counts = np.array([[1, 1, 1, 1, 1, 1], [0, 0, 4, 0, 0, 0]], dtype=float)
    coefs = solve_least_squares(design, np.arange(6.0) * 2.0 + 1.0, weights=counts)
    np.testing.assert_allclose(coefs[0], [1.0, 2.0], atol=1e-12)
    assert np.isnan(coefs[1]).all()
    logistic_coefs = fit_logistic(design, np.array([0, 1, 0, 1, 1, 0.0]), weights=counts)
    assert np.isfinite(logistic_coefs[0]).all() and np.isnan(logistic_coefs[1]).all()
