"""Discrete-oracle tests: assumption checks, identification exactness,
odds-ratio recovery, identity residuals, and sampling."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from mnarfuse import oracle
from mnarfuse.data import PooledDataset, VariableSchema
from mnarfuse.model1 import Model1Spec, estimate_model1
from mnarfuse.models import BasisSpec
from mnarfuse.oracle import (
    BatteryFailure,
    DiscreteFullLaw,
    OracleError,
    RankConditionError,
    bridge_residual,
    brute_force_beta,
    check_assumptions,
    identify_model1,
    identify_model2,
    observed_law,
    random_model1_law,
    random_model2_law,
    recover_odds_ratio,
    reference_y_index,
    run_battery,
    sample_law,
    verify_or_identities,
)
from mnarfuse.simulate import make_rng


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed=np.random.SeedSequence([seed])))


def _product_law(nx=2, nm=2, ny=2, p_r1=0.6):
    """Fully independent selection: R depends on X only, in both domains."""
    rng = _rng(1)
    p_g = np.array([0.5, 0.5])
    p_x = rng.dirichlet(np.full(nx, 5.0))
    p_m_x = rng.dirichlet(np.full(nm, 5.0), size=nx)
    p_y_xm = rng.dirichlet(np.full(ny, 5.0), size=(nx, nm))
    table = np.zeros((2, nx, nm, ny, 2))
    for g in range(2):
        for xi in range(nx):
            base = p_g[g] * p_x[xi] * p_m_x[xi][:, None] * p_y_xm[xi]
            table[g, xi, :, :, 1] = base * p_r1
            table[g, xi, :, :, 0] = base * (1 - p_r1)
    return DiscreteFullLaw(tuple(map(float, range(nx))), tuple(map(float, range(nm))),
                           tuple(map(float, range(ny))), table)


def test_product_law_satisfies_all_assumptions():
    checks = check_assumptions(_product_law())
    for name in ("aux_mar", "selection", "m_driven", "y_driven", "completeness"):
        assert checks.holds[name], name


def test_constructed_m_driven_violation_reported():
    law = random_model1_law(_rng(2))
    table = law.table.copy()
    # make primary selection depend on y as well
    table[0, :, :, 0, 1] *= 0.5
    table[0, :, :, 0, 0] = law.table[0, :, :, 0, :].sum(-1) - table[0, :, :, 0, 1]
    broken = DiscreteFullLaw(law.x_support, law.m_support, law.y_support,
                             table / table.sum())
    checks = check_assumptions(broken)
    assert not checks.holds["m_driven"]
    assert checks.violation["m_driven"] > 1e-3


def test_completeness_impossible_when_m_support_small():
    checks = check_assumptions(_product_law(nm=2, ny=3))
    assert not checks.holds["completeness"]


def test_observed_law_pools_missing_strata():
    law = random_model1_law(_rng(3))
    obs = observed_law(law)
    total = obs.primary_r1.sum() + obs.primary_r0.sum() + obs.aux_r1.sum() + obs.aux_r0.sum()
    assert total == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(obs.primary_r1, law.table[0, :, :, :, 1])
    np.testing.assert_allclose(obs.primary_r0,
                               law.table[0, :, :, :, 0].sum(axis=(1, 2)))


def test_identify_model1_exact_on_random_law():
    law = random_model1_law(_rng(4))
    assert identify_model1(observed_law(law)) == pytest.approx(
        brute_force_beta(law), abs=1e-12)


def test_identify_model1_mcar_reduction():
    law = _product_law()
    obs = observed_law(law)
    cc_mean = float(np.tensordot(obs.primary_r1.sum(axis=(0, 1)), obs.y_support, 1)
                    / obs.primary_r1.sum())
    assert identify_model1(obs) == pytest.approx(cc_mean, abs=1e-12)


def test_identify_model1_needs_shared_m_law():
    # break the shared-M assumption: re-draw the auxiliary M law
    law = random_model1_law(_rng(5))
    table = law.table.copy()
    tilt = np.array([0.3, 1.7])
    table[1] = table[1] * tilt[None, :, None, None]
    broken = DiscreteFullLaw(law.x_support, law.m_support, law.y_support,
                             table / table.sum())
    assert not check_assumptions(broken).holds["selection"]
    assert abs(identify_model1(observed_law(broken)) - brute_force_beta(broken)) > 0.01


def test_or_recovery_matches_construction():
    law, or_true = random_model2_law(_rng(6))
    or_table = recover_odds_ratio(observed_law(law))
    np.testing.assert_allclose(or_table, or_true, atol=1e-10)
    y_ref = reference_y_index(law.y_support)
    assert law.y_support[y_ref] == 0.0
    assert (or_table[:, y_ref] == 1.0).all()


def test_or_recovery_known_exponential_tilt():
    # construct the law with OR(x, y) = exp(-0.3 y) on Y support {0, 1}
    rng = _rng(7)
    law, or_true = random_model2_law(rng, nx=2, nm=3, ny=2)
    target = np.exp(-0.3 * np.arange(2))[None, :].repeat(2, axis=0)
    # rebuild selection with the wanted OR
    baseline = law.table[0, :, 0, 0, 1] / law.table[0, :, 0, 0, :].sum(-1)
    p_r1 = 1.0 / (1.0 + target * ((1.0 - baseline) / baseline)[:, None])
    table = law.table.copy()
    joint = law.table[0].sum(axis=-1)
    table[0, :, :, :, 1] = joint * p_r1[:, None, :]
    table[0, :, :, :, 0] = joint * (1.0 - p_r1[:, None, :])
    built = DiscreteFullLaw(law.x_support, law.m_support, law.y_support,
                            table / table.sum())
    np.testing.assert_allclose(recover_odds_ratio(observed_law(built)), target, atol=1e-10)


def test_or_recovery_mar_in_x_is_identity():
    or_table = recover_odds_ratio(observed_law(_product_law(nm=3)))
    np.testing.assert_allclose(or_table, 1.0, atol=1e-10)


def test_or_recovery_single_m_level_rank_error():
    law, _ = random_model2_law(_rng(8), nx=2, nm=1, ny=2)
    with pytest.raises(RankConditionError):
        recover_odds_ratio(observed_law(law))


def test_identify_model2_exact():
    law, _ = random_model2_law(_rng(9))
    assert identify_model2(observed_law(law)) == pytest.approx(
        brute_force_beta(law), abs=1e-10)


def test_identify_model2_no_missingness_reduces_to_mean():
    law, _ = random_model2_law(_rng(10))
    table = law.table.copy()
    table[0, :, :, :, 1] += table[0, :, :, :, 0]
    table[0, :, :, :, 0] = 0.0
    full = DiscreteFullLaw(law.x_support, law.m_support, law.y_support, table)
    assert identify_model2(observed_law(full)) == pytest.approx(
        brute_force_beta(full), abs=1e-12)


def _emptied_cell_law(keep_aux: bool) -> DiscreteFullLaw:
    """A Y-driven law with no complete cases at (x, m) = (0, 0); with
    keep_aux False the auxiliary domain has no mass there either."""
    law, _ = random_model2_law(make_rng(5))
    table = law.table.copy()
    table[0, 0, 0, :, 1] = 0.0
    if not keep_aux:
        table[1, 0, 0] = 0.0
    return DiscreteFullLaw(law.x_support, law.m_support, law.y_support,
                           table / table.sum())


_UNIT_ODDS_RATIO = np.ones((2, 2))


def test_a_cell_with_no_mass_adds_nothing():
    obs = observed_law(_emptied_cell_law(keep_aux=False))
    # identify_model1 before the two functionals were merged
    value = float.fromhex("0x1.ef7ac6b605978p-2")
    assert abs(identify_model1(obs) - value) <= 1e-12
    assert abs(identify_model2(obs, _UNIT_ODDS_RATIO) - value) <= 1e-12


def test_a_cell_with_only_missing_mass_is_an_error():
    obs = observed_law(_emptied_cell_law(keep_aux=True))
    message = r"^p\(m=0\.0, R=1 \| x=0\.0, G=1\) is zero$"
    with pytest.raises(OracleError, match=message):
        identify_model1(obs)
    with pytest.raises(OracleError, match=message):
        identify_model2(obs, _UNIT_ODDS_RATIO)


def test_recovery_needs_every_m_level_among_complete_cases():
    obs = observed_law(_emptied_cell_law(keep_aux=True))
    with pytest.raises(OracleError, match=r"^p\(m \| x=0\.0, R=1, G=1\) has a zero cell$"):
        recover_odds_ratio(obs)


def test_recovery_needs_complete_cases_whose_y_law_moves_with_m():
    law, _ = random_model2_law(make_rng(6))
    table = law.table.copy()
    cells = table[0, 0, :, :, 1]  # (m, y) at x = 0
    # every m level gets the pooled p(y | x=0, R=1), keeping its own mass
    cells[:] = cells.sum(axis=1, keepdims=True) * (cells.sum(axis=0) / cells.sum())
    with pytest.raises(RankConditionError,
                       match=r"^completeness fails at x=0\.0: min singular value \S+$"):
        recover_odds_ratio(observed_law(_with_table(law, table)))


def _law_without_missing_units() -> DiscreteFullLaw:
    """An M-driven law with no missing primary unit, whose auxiliary M law
    differs from the primary one."""
    law = random_model1_law(_rng(19))
    table = law.table.copy()
    table[0, :, :, :, 1] += table[0, :, :, :, 0]
    table[0, :, :, :, 0] = 0.0
    table[1, :, 0] *= 1.7
    return DiscreteFullLaw(law.x_support, law.m_support, law.y_support,
                           table / table.sum())


def test_an_x_without_missing_units_adds_its_complete_cases():
    # no primary unit is missing, and the auxiliary M law differs from the
    # primary one: the bridge is not used, so the functional is the mean
    full = _law_without_missing_units()
    assert not check_assumptions(full).holds["selection"]
    assert identify_model1(observed_law(full)) == pytest.approx(
        brute_force_beta(full), abs=1e-12)


def test_assumption_checks_skip_strata_without_mass():
    # R = 0 has no primary mass: the m_driven and y_driven strata conditioned
    # on it are skipped; values recorded from the cell-by-cell checks
    checks = check_assumptions(_law_without_missing_units())
    assert checks.holds == {"aux_mar": True, "selection": False, "m_driven": True,
                            "y_driven": True, "shadow_dep": True, "completeness": True}
    recorded = {"aux_mar": "0x1.0000000000000p-53", "selection": "0x1.4d2e67ac34b24p-4",
                "m_driven": "0x0.0p+0", "y_driven": "0x0.0p+0",
                "shadow_dep": "0x1.1290e3907d1f8p-3", "completeness": "0x0.0p+0"}
    assert sorted(checks.violation) == sorted(recorded)
    for name, value in recorded.items():
        assert abs(checks.violation[name] - float.fromhex(value)) <= 1e-12, name


def _y_driven_table(seed=20):
    law, _ = random_model2_law(_rng(seed))
    return law, law.table.copy()


def _with_table(law, table) -> DiscreteFullLaw:
    return DiscreteFullLaw(law.x_support, law.m_support, law.y_support, table / table.sum())


def test_or_identities_need_every_x_y_r_cell():
    law, table = _y_driven_table()
    table[0, 1, :, 0, 0] = 0.0  # no missing unit at (x, y) = (1, 0)
    with pytest.raises(OracleError, match=r"every \(x, y, r\) cell"):
        verify_or_identities(_with_table(law, table))


def test_or_identities_need_every_x_m_y_r_cell():
    law, table = _y_driven_table()
    table[0, 1, 0, 0, 0] = 0.0  # the other m levels keep (x, y, r) positive
    assert (_with_table(law, table).table[0].sum(axis=1) > 0).all()
    with pytest.raises(OracleError, match=r"every \(x, m, y, r\) cell"):
        verify_or_identities(_with_table(law, table))


def test_or_identities_skip_an_x_without_primary_mass():
    law, table = _y_driven_table(12)
    # a violation at x = 1, and no primary unit at x = 0
    table[0, 1, 0, :, 1] *= 0.6
    table[0, 1, 0, :, 0] = law.table[0, 1, 0, :, :].sum(-1) - table[0, 1, 0, :, 1]
    table[0, 0] = 0.0
    residuals = verify_or_identities(_with_table(law, table))
    alone = DiscreteFullLaw((law.x_support[1],), law.m_support, law.y_support,
                            table[:, 1:] / table[:, 1:].sum())
    expected = verify_or_identities(alone)
    assert sorted(residuals) == sorted(expected)
    assert residuals["or_m_invariance"] > 1e-3
    for name, value in expected.items():
        assert abs(residuals[name] - value) <= 1e-12, name


def test_an_x_without_primary_mass_leaves_its_tilt_at_one():
    # identification and the identity checks skip such an x; so do odds-ratio
    # recovery and the completeness verdict
    for seed in range(5):
        law, or_true = random_model2_law(make_rng(seed), nx=3, nm=3, ny=2)
        table = law.table.copy()
        table[0, 2] = 0.0
        law = _with_table(law, table)
        assert check_assumptions(law).holds["completeness"]
        obs = observed_law(law)
        assert identify_model2(obs) == pytest.approx(brute_force_beta(law), abs=1e-12)
        or_table = recover_odds_ratio(obs)
        np.testing.assert_allclose(or_table[:2], or_true[:2], rtol=0, atol=1e-12)
        assert (or_table[2] == 1.0).all()


def test_or_identities_hold_on_y_driven_law():
    law, _ = random_model2_law(_rng(11))
    residuals = verify_or_identities(law)
    for name, value in residuals.items():
        assert value < 1e-12, (name, value)


def test_or_identities_flag_violation():
    law, _ = random_model2_law(_rng(12))
    table = law.table.copy()
    table[0, :, 0, :, 1] *= 0.6
    table[0, :, 0, :, 0] = law.table[0, :, 0, :, :].sum(-1) - table[0, :, 0, :, 1]
    broken = DiscreteFullLaw(law.x_support, law.m_support, law.y_support,
                             table / table.sum())
    residuals = verify_or_identities(broken)
    assert residuals["or_m_invariance"] > 1e-3


def test_bridge_identity_exact():
    for seed in (13, 14):
        assert bridge_residual(random_model1_law(_rng(seed))) < 1e-12
        assert bridge_residual(random_model2_law(_rng(seed))[0]) < 1e-12


def test_battery_clean():
    assert run_battery(20, seed=123) == []


def test_the_battery_reports_what_its_per_law_check_reports(monkeypatch):
    # each Y-driven law goes through check_model2_law, with the true table
    # it was built from
    seen = []

    def stub(law_seed, law, or_true):
        seen.append((law_seed, or_true[:, 0].tolist()))
        return [BatteryFailure(law_seed, "stub", 1.0, 0.5)]
    monkeypatch.setattr(oracle, "check_model2_law", stub)
    assert run_battery(3, seed=0) == [BatteryFailure(i, "stub", 1.0, 0.5) for i in range(3)]
    assert seen == [(i, [1.0, 1.0]) for i in range(3)]


def test_m_dependent_selection_fails_the_per_law_checks():
    law, or_true = random_model2_law(_rng(3))
    table = law.table.copy()
    table[0, :, 0, :, 1] *= 0.55  # M-dependent selection
    table[0, :, 0, :, 0] = law.table[0, :, 0, :, :].sum(axis=-1) - table[0, :, 0, :, 1]
    broken = DiscreteFullLaw(law.x_support, law.m_support, law.y_support, table / table.sum())
    assert oracle.check_model2_law(0, law, or_true) == []
    failures = oracle.check_model2_law(7, broken, or_true)
    assert all(f.law_seed == 7 and f.value > f.tolerance for f in failures)
    assert [f.check for f in failures] == ["or_recovery", "identify_model2", "or_m_invariance",
                                           "or_propensity", "missing_outcome_law",
                                           "tilt_m_ratio"]


def test_law_rejects_bad_tables():
    law = random_model1_law(_rng(15))
    with pytest.raises(OracleError):
        DiscreteFullLaw(law.x_support, law.m_support, law.y_support,
                        law.table * 2.0)
    with pytest.raises(OracleError):
        DiscreteFullLaw(law.x_support, law.m_support, law.y_support,
                        -law.table)
    table = law.table.copy()
    table[0, 0, 0, 0, 0] = np.nan
    with pytest.raises(OracleError, match="non-finite"):
        DiscreteFullLaw(law.x_support, law.m_support, law.y_support, table)


def _zeroed(table, cells):
    """The table with the given cells set to 0, renormalised."""
    table = table.copy()
    table[cells] = 0.0
    return table / table.sum()


@pytest.mark.parametrize("name, message", [
    ("shape", "table shape (2, 1, 2, 2, 2) != (2, 2, 2, 2, 2)"),
    ("zero-mass", "domain 2 has zero mass"),
    ("positivity", "positivity fails: p(R=1|x, g=1) = 0 somewhere"),
])
def test_a_law_rejects_a_table_of_another_shape_or_without_support(name, message):
    law = random_model1_law(_rng(15))
    table = {"shape": law.table[:, :1],
             "zero-mass": _zeroed(law.table, 1),
             # x = 0 keeps its primary mass, none of it with R = 1
             "positivity": _zeroed(law.table, np.s_[0, 0, :, :, 1])}[name]
    with pytest.raises(OracleError) as excinfo:
        DiscreteFullLaw(law.x_support, law.m_support, law.y_support, table)
    assert str(excinfo.value) == message


def test_the_odds_ratio_anchor_without_a_zero_is_the_smallest_y():
    assert reference_y_index((1.0, 2.0, -0.5, 3.0)) == 2
    assert reference_y_index((1.0, 0.0, -0.5)) == 1


def test_the_bridge_needs_auxiliary_complete_cases_at_each_primary_x():
    # the auxiliary domain has no unit at x = 0, which a law allows
    law = random_model1_law(_rng(15))
    table = _zeroed(law.table, np.s_[1, 0])
    obs = observed_law(DiscreteFullLaw(law.x_support, law.m_support, law.y_support, table))
    with pytest.raises(OracleError) as excinfo:
        identify_model1(obs)
    assert str(excinfo.value) == "p(R=1 | x=0.0, G=2) is zero"


def test_recovery_needs_complete_cases_at_each_x_with_missing_units():
    # a law's positivity check forbids this, so the observed law is built
    # as a dataclass: x = 0 has missing primary units and no complete case
    law, _ = random_model2_law(make_rng(6))
    obs = observed_law(law)
    primary_r1 = obs.primary_r1.copy()
    primary_r1[0] = 0.0
    with pytest.raises(OracleError) as excinfo:
        recover_odds_ratio(dataclasses.replace(obs, primary_r1=primary_r1))
    assert str(excinfo.value) == "zero complete-case mass at x=0.0"


def test_sampling_matches_law_marginals():
    law = random_model1_law(_rng(16))
    ds, latent = sample_law(law, 50_000, seed=1)
    assert len(ds.records) == 50_000
    primary_mass = law.table[0].sum()
    g = latent[:, 0]
    assert abs((g == 1).mean() - primary_mass) < 0.01
    for rec in ds.records[:200]:
        assert (rec.m is None) == (rec.r == 0)


def test_sampling_deterministic():
    law = random_model1_law(_rng(17))
    a, _ = sample_law(law, 500, seed=2)
    b, _ = sample_law(law, 500, seed=2)
    assert a.records == b.records


def _reference_draw(law, n, seed):
    """sample_law's draw built by the first method: each unit's int64 cell
    index unravelled over the table, then the latent (g, x, m, y, r)
    stacked and cast to float."""
    rng = make_rng(seed)
    flat = law.table.ravel()
    cells = np.repeat(np.arange(flat.size), rng.multinomial(n, flat))
    rng.shuffle(cells)
    g_idx, x_idx, m_idx, y_idx, r_idx = np.unravel_index(cells, law.table.shape)
    xs = np.asarray(law.x_support)[x_idx]
    ms = np.asarray(law.m_support)[m_idx]
    ys = np.asarray(law.y_support)[y_idx]
    observed = r_idx == 1
    dataset = PooledDataset(
        VariableSchema(covariate_names=("x1",)),
        g=g_idx + 1,
        x=xs[:, None],
        m=np.where(observed, ms, np.nan),
        y=np.where(observed & (g_idx == 0), ys, np.nan),
        r=r_idx,
    )
    return dataset, np.column_stack([g_idx + 1, xs, ms, ys, r_idx]).astype(float)


def _sampled_law(model, shape):
    """A random Model 1 or Model 2 law of the given (nx, nm, ny) shape, or,
    with shape None, a law with cells of zero mass.  A (10, 10, 3) law has
    1200 cells, so its cell indices need 16 bits."""
    if shape is None:
        return _emptied_cell_law(keep_aux=False)
    if model == 1:
        return random_model1_law(make_rng(31, *shape), *shape)
    return random_model2_law(make_rng(31, *shape), *shape)[0]


_SAMPLED_LAWS = [
    *(pytest.param(model, shape, id=f"model{model}-{'x'.join(map(str, shape))}")
      for model in (1, 2) for shape in ((2, 2, 2), (3, 3, 2), (10, 10, 3))),
    pytest.param(2, None, id="zero-mass-cells"),
]


@pytest.mark.parametrize("n", [0, 1, 500, 20_000])
@pytest.mark.parametrize("model,shape", _SAMPLED_LAWS)
def test_sampling_matches_the_reference_construction(model, shape, n):
    law = _sampled_law(model, shape)
    ds, latent = sample_law(law, n, seed=n + 3)
    ref, ref_latent = _reference_draw(law, n, seed=n + 3)
    for name in ("g", "x", "m", "y", "r"):
        got, want = getattr(ds, name), getattr(ref, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name
        assert not np.shares_memory(got, latent), name
    assert (latent.dtype, latent.shape) == (ref_latent.dtype, ref_latent.shape)
    assert latent.tobytes() == ref_latent.tobytes()


def test_sampling_holds_only_what_it_returns():
    law = random_model2_law(make_rng(32), 3, 3, 2)[0]
    sample_law(law, 1000, seed=1)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        ds, latent = sample_law(law, 200_000, seed=1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    columns = [ds.g, ds.x, ds.m, ds.y, ds.r]
    returned = latent.nbytes + sum(col.nbytes for col in columns)
    assert peak <= 1.25 * returned, peak / returned
    assert held <= 1.05 * returned, held / returned
    for col in columns:
        # a dataset column is a read-only view of an array of its own size
        assert col.flags.c_contiguous
        assert col.base.flags.owndata and col.base.nbytes == col.nbytes


def test_a_fit_of_oracle_draws_keeps_no_copy_of_their_domains():
    # the oracle hand-off fits the saturated spec to many draws: its domains
    # are indices, so neither the fit's peak nor what it leaves kept on the
    # dataset holds a copy of the columns (a masked split held 0.80 of them)
    saturated = BasisSpec.parse("1,x1,m,x1*m")
    spec = Model1Spec(propensity_basis=saturated, h_basis=saturated,
                      aux_regression_basis=BasisSpec.parse("1,x1"), outcome_basis=saturated)
    ds = sample_law(random_model1_law(make_rng(2024)), 200_000, seed=1)[0]
    estimate_model1(ds.take(np.arange(1000)), spec)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        estimate_model1(ds, spec)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    columns = sum(col.nbytes for col in (ds.g, ds.x, ds.m, ds.y, ds.r))
    assert peak <= 1.35 * columns, peak / columns
    assert held <= 0.35 * columns, held / columns
