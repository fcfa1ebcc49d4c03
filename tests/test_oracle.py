"""Discrete-oracle tests: assumption checks, identification exactness,
odds-ratio recovery, and identity residuals."""

import numpy as np
import pytest

from mnarfuse.oracle import (
    DiscreteFullLaw,
    ORRecovery,
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
    recovery = recover_odds_ratio(observed_law(law))
    np.testing.assert_allclose(recovery.or_table, or_true, atol=1e-10)
    assert recovery.reference_value == 0.0


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
    recovery = recover_odds_ratio(observed_law(built))
    np.testing.assert_allclose(recovery.or_table, target, atol=1e-10)


def test_or_recovery_mar_in_x_is_identity():
    recovery = recover_odds_ratio(observed_law(_product_law(nm=3)))
    np.testing.assert_allclose(recovery.or_table, 1.0, atol=1e-10)


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


_UNIT_ODDS_RATIO = ORRecovery(or_table=np.ones((2, 2)), reference_index=0,
                              reference_value=0.0)


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
