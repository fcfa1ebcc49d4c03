"""Generator law checks: marginals, missing rates, sequential-design
conditionals, and reproducibility."""

import numpy as np
import pytest

from mnarfuse import oracle
from mnarfuse.data import DomainTag, write_csv
from mnarfuse.simulate import (
    Model1Design,
    Model2Design,
    generate_model1,
    _model2_arrays,
    generate_model2,
    make_rng,
    true_beta,
)


def _domain_stats(dataset):
    return dataset.g, dataset.r, dataset.x[:, 0]


def test_model1_primary_x_centering():
    ds, _ = generate_model1(Model1Design(n=2000), seed=0)
    g, _, x = _domain_stats(ds)
    assert abs(x[g == 1].mean() - 1.0) < 0.1
    assert abs(x[g == 2].mean()) < 0.1


def test_model1_missing_fractions():
    ds, _ = generate_model1(Model1Design(n=10_000), seed=1)
    g, r, _ = _domain_stats(ds)
    primary_missing = 1.0 - r[g == 1].mean()
    aux_missing = 1.0 - r[g == 2].mean()
    assert 0.20 < primary_missing < 0.40
    # the domain-2 selection law logistic(1.4 + X) with X ~ N(0,1) keeps
    # roughly four rows in five
    assert 0.15 < aux_missing < 0.30


def test_model1_domain_balance():
    ds, _ = generate_model1(Model1Design(n=4000), seed=3)
    g, _, _ = _domain_stats(ds)
    assert 0.45 < (g == 1).mean() < 0.55


def test_model1_f_setting_darkens_selection():
    # the misspecified design replaces the +M term with -M^2, so selection
    # probabilities drop and the missing fraction rises
    t_ds, _ = generate_model1(Model1Design(n=10_000, setting="T"), seed=4)
    f_ds, _ = generate_model1(Model1Design(n=10_000, setting="F"), seed=4)
    gt, rt, _ = _domain_stats(t_ds)
    gf, rf, _ = _domain_stats(f_ds)
    assert rf[gf == 1].mean() < rt[gt == 1].mean()


def test_model2_missing_fraction():
    ds, _ = generate_model2(Model2Design(n=10_000), seed=1)
    g, r, _ = _domain_stats(ds)
    assert 0.40 < 1.0 - r[g == 1].mean() < 0.50


def test_model2_missing_case_m_conditional_mean():
    ds, sidecar = generate_model2(Model2Design(n=1_000_000), seed=2)
    g, r, x = _domain_stats(ds)
    primary = g == 1
    for x0 in (-1.0, 0.0, 1.0):
        pick = primary & (r == 0) & (np.abs(x - x0) < 0.05)
        observed = sidecar.m_latent[pick].mean()
        assert abs(observed - (-0.4 * x0**2 - 0.3)) < 0.05


def test_model2_latent_outcome_mean():
    ds, sidecar = generate_model2(Model2Design(n=200_000), seed=5)
    g, _, _ = _domain_stats(ds)
    assert abs(sidecar.y_latent[g == 1].mean() + 0.659) < 0.02


def test_model2_m_law_shared_across_domains():
    ds, sidecar = generate_model2(Model2Design(n=400_000), seed=6)
    g, _, x = _domain_stats(ds)
    for lo, hi in ((-0.5, 0.0), (0.0, 0.5), (0.5, 1.0)):
        in_bin = (x >= lo) & (x < hi)
        m1 = sidecar.m_latent[in_bin & (g == 1)].mean()
        m2 = sidecar.m_latent[in_bin & (g == 2)].mean()
        assert abs(m1 - m2) < 0.05


def test_true_beta_values():
    assert true_beta(Model1Design(n=10, setting="T")).value == 1.8
    assert true_beta(Model1Design(n=10, setting="F")).value == 1.8
    t = true_beta(Model2Design(n=10, setting="T"))
    f = true_beta(Model2Design(n=10, setting="F"))
    assert abs(t.value + 0.659) < 0.01
    assert abs(f.value + 0.615) < 0.01
    assert t.provenance == "quadrature(nodes=80)"


@pytest.mark.parametrize("setting", ["T", "F"])
def test_model2_true_beta_matches_monte_carlo(setting):
    # the quadrature value against the simulated primary-domain outcome mean
    design = Model2Design(n=2_000_000, setting=setting)
    g, _, _, y, _ = _model2_arrays(design, make_rng(20240229, 0))
    y1 = y[g == 1]
    se = y1.std(ddof=1) / np.sqrt(y1.size)
    assert abs(y1.mean() - true_beta(design).value) < 5 * se


def test_generators_reproducible(tmp_path):
    a, _ = generate_model1(Model1Design(n=300), seed=9)
    b, _ = generate_model1(Model1Design(n=300), seed=9)
    assert a.records == b.records
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, str(pa))
    write_csv(b, str(pb))
    assert pa.read_bytes() == pb.read_bytes()


def test_masking_is_consistent():
    ds, _ = generate_model2(Model2Design(n=500), seed=7)
    for rec in ds.records:
        assert (rec.m is None) == (rec.r == 0)
        if rec.g == DomainTag.AUXILIARY:
            assert rec.y is None
        else:
            assert (rec.y is None) == (rec.r == 0)


def test_bad_setting_rejected():
    with pytest.raises(ValueError):
        Model1Design(n=10, setting="X")
    with pytest.raises(ValueError):
        Model2Design(n=0)


@pytest.mark.parametrize("cls, model", [(Model1Design, 1), (Model2Design, 2)])
def test_a_design_carries_its_model_and_label(cls, model):
    design = cls(n=10, setting="F")
    assert (design.model, design.label) == (model, f"model{model}-F")
    other = Model2Design if model == 1 else Model1Design
    assert design != other(n=10, setting="F")
    with pytest.raises(ValueError):
        cls(n=10, setting="X")
    with pytest.raises(ValueError):
        cls(n=0)


@pytest.mark.parametrize("draw", [
    lambda: generate_model1(Model1Design(n=300), seed=-3),
    lambda: generate_model2(Model2Design(n=300), seed=-3),
    lambda: oracle.sample_law(oracle.random_model2_law(make_rng(6))[0], 100, seed=-3),
    lambda: oracle.run_battery(2, seed=-3),
    lambda: make_rng(-3, 1),
], ids=["generate_model1", "generate_model2", "sample_law", "run_battery", "make_rng"])
def test_a_negative_seed_is_named(draw):
    # every draw is made through make_rng, which names the seed before numpy
    # sees it
    with pytest.raises(ValueError, match=r"^seed must be at least 0, got -3$"):
        draw()


@pytest.mark.parametrize("stream, position", [((-2,), 0), ((0, -5), 1)])
def test_a_negative_stream_component_is_named(stream, position):
    with pytest.raises(ValueError, match=rf"^stream component {position} must be at least 0, "
                                         rf"got {stream[position]}$"):
        make_rng(1, *stream)
