"""Exact identification checks on finite-support full laws.

A full law is a probability table over (G, X, M, Y, R).  From it one can
compute the observed-data law (masking M and Y where R = 0, and Y everywhere
in the auxiliary domain), evaluate both identification functionals exactly,
recover the odds-ratio function from observed data alone, and verify the
odds-ratio identities cell by cell.  Everything here is deterministic
arithmetic on small tables; tolerances in the battery are near machine
precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import PooledDataset, VariableSchema
from .simulate import make_rng

CI_TOL = 1e-12  # conditional-independence cell tolerance
_RANK_TOL = 1e-10  # singular-value threshold for the completeness condition
# run_battery's tolerances: identification error, identity and bridge
# residuals, odds-ratio recovery error
TOL_IDENTIFY = 1e-8
TOL_IDENTITY = 1e-12
TOL_OR = 1e-10


class OracleError(ValueError):
    pass


class RankConditionError(OracleError):
    """Raised when the completeness (full-rank) condition fails."""


@dataclass(frozen=True)
class DiscreteFullLaw:
    """Joint probability table p(g, x, m, y, r) over finite supports.

    table has shape (2, nx, nm, ny, 2) indexed by (g-1, x, m, y, r).
    """

    x_support: tuple[float, ...]
    m_support: tuple[float, ...]
    y_support: tuple[float, ...]
    table: np.ndarray

    def __post_init__(self):
        expected = (2, len(self.x_support), len(self.m_support), len(self.y_support), 2)
        if self.table.shape != expected:
            raise OracleError(f"table shape {self.table.shape} != {expected}")
        if not np.all(np.isfinite(self.table)):
            raise OracleError("non-finite cell probability")
        if np.any(self.table < 0):
            raise OracleError("negative cell probability")
        if abs(self.table.sum() - 1.0) > 1e-9:
            raise OracleError(f"table mass {self.table.sum()} != 1")
        for g in range(2):
            if self.table[g].sum() <= 0:
                raise OracleError(f"domain {g + 1} has zero mass")
            p_x = self.table[g].sum(axis=(1, 2, 3))
            p_x_r1 = self.table[g, :, :, :, 1].sum(axis=(1, 2))
            if np.any((p_x > 0) & (p_x_r1 <= 0)):
                raise OracleError(f"positivity fails: p(R=1|x, g={g + 1}) = 0 somewhere")


def reference_y_index(y_support) -> int:
    """Odds-ratio anchor: the index of y = 0, else the smallest support point."""
    ys = np.asarray(y_support)
    zeros = np.where(ys == 0.0)[0]
    if zeros.size:
        return int(zeros[0])
    return int(np.argmin(ys))


def brute_force_beta(law: DiscreteFullLaw) -> float:
    """Ground truth E[Y | G=1] straight from the full table."""
    p1 = law.table[0]
    p_y = p1.sum(axis=(0, 1, 3))
    return float(np.dot(law.y_support, p_y) / p1.sum())


@dataclass(frozen=True)
class ObservedLaw:
    """Observed-data probability masses, masked per the missingness pattern.

    primary_r1[x, m, y] = p(x, m, y, R=1, G=1); primary_r0[x] = p(x, R=0, G=1)
    with (m, y) pooled; aux_r1[x, m] = p(x, m, R=1, G=2) with y pooled always;
    aux_r0[x] = p(x, R=0, G=2).
    """

    x_support: tuple[float, ...]
    m_support: tuple[float, ...]
    y_support: tuple[float, ...]
    primary_r1: np.ndarray
    primary_r0: np.ndarray
    aux_r1: np.ndarray
    aux_r0: np.ndarray

    @property
    def p_g1(self) -> float:
        return float(self.primary_r1.sum() + self.primary_r0.sum())

    def p_x_g1(self) -> np.ndarray:
        return self.primary_r1.sum(axis=(1, 2)) + self.primary_r0


def observed_law(law: DiscreteFullLaw) -> ObservedLaw:
    t = law.table
    return ObservedLaw(
        x_support=law.x_support,
        m_support=law.m_support,
        y_support=law.y_support,
        primary_r1=t[0, :, :, :, 1].copy(),
        primary_r0=t[0, :, :, :, 0].sum(axis=(1, 2)),
        aux_r1=t[1, :, :, :, 1].sum(axis=2),
        aux_r0=t[1, :, :, :, 0].sum(axis=(1, 2)),
    )


# ---------------------------------------------------------------------------
# assumption checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssumptionCheckResult:
    """Per-assumption verdicts with the maximal violation magnitude."""

    holds: dict
    violation: dict


def _max_conditional_dev(joint: np.ndarray, cond_axis: int) -> float:
    """Max deviation of p(target | ..., cond) from p(target | ...) where the
    conditioning variable sits on cond_axis and the target on the last axis."""
    joint = np.moveaxis(joint, cond_axis, -2)  # (..., cond, target)
    mass = joint.sum(axis=-1, keepdims=True)
    base = joint.sum(axis=-2, keepdims=True)
    base_mass = joint.sum(axis=(-2, -1), keepdims=True)
    # strata without mass are skipped; a stratum with mass has a base with mass
    live = np.broadcast_to(mass > 0, joint.shape)
    p_cond = np.divide(joint, mass, out=np.zeros_like(joint), where=live)
    p_base = np.divide(base, base_mass, out=np.zeros_like(base), where=base_mass > 0)
    return float(np.abs(p_cond - p_base).max(initial=0.0, where=live))


def _completeness_sigma(primary_r1: np.ndarray) -> np.ndarray:
    """Smallest singular value of p(y | R=1, x, m) for each x, from the
    primary complete-case masses (x, m, y); 0 when |M| < |Y|."""
    nx, nm, ny = primary_r1.shape
    if nm < ny:
        return np.zeros(nx)
    row_mass = primary_r1.sum(axis=2, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        cond = np.where(row_mass > 0, primary_r1 / row_mass, 0.0)
    return np.linalg.svd(cond, compute_uv=False)[:, ny - 1]


def check_assumptions(law: DiscreteFullLaw) -> AssumptionCheckResult:
    """Verify the identifying conditional-independence statements cell by cell.

    aux_mar:       M independent of R given X in the auxiliary domain.
    selection:     M independent of G given X.
    m_driven:      Y independent of R given (X, M) in the primary domain.
    y_driven:      M independent of R given (X, Y) in the primary domain.
    shadow_dep:    M is NOT independent of Y given X among primary complete
                   cases (the association that makes M informative).
    completeness:  p(y | R=1, x, m) has full column rank for every x.
    """
    t = law.table
    holds, violation = {}, {}

    def record(name, dev, tol=CI_TOL):
        violation[name] = dev
        holds[name] = dev <= tol

    # aux_mar: joint over (x, r, m) in domain 2
    joint = t[1].sum(axis=2)  # (x, m, r)
    record("aux_mar", _max_conditional_dev(np.swapaxes(joint, 1, 2), cond_axis=1))

    # selection: joint over (x, g, m)
    joint = t.sum(axis=(3, 4))  # (g, x, m)
    record("selection", _max_conditional_dev(np.moveaxis(joint, 0, 1), cond_axis=1))

    # m_driven: joint over (x, m, r, y) in domain 1
    joint = np.moveaxis(t[0], 3, 2)  # (x, m, r, y)
    record("m_driven", _max_conditional_dev(joint, cond_axis=2))

    # y_driven: joint over (x, y, r, m) in domain 1
    joint = np.transpose(t[0], (0, 2, 3, 1))  # (x, y, r, m)
    record("y_driven", _max_conditional_dev(joint, cond_axis=2))

    # shadow_dep: association of M and Y among primary complete cases
    joint = t[0, :, :, :, 1]  # (x, m, y)
    dep = _max_conditional_dev(np.swapaxes(joint, 1, 2), cond_axis=1)
    violation["shadow_dep"] = dep
    holds["shadow_dep"] = dep > 1e-6

    # completeness: rank of p(y | R=1, x, m) per x
    min_sigma = float(_completeness_sigma(t[0, :, :, :, 1]).min())
    violation["completeness"] = max(0.0, _RANK_TOL - min_sigma)
    holds["completeness"] = min_sigma > _RANK_TOL
    return AssumptionCheckResult(holds=holds, violation=violation)


# ---------------------------------------------------------------------------
# identification functionals
# ---------------------------------------------------------------------------

def _bridged_missing_m(obs: ObservedLaw, xs) -> np.ndarray:
    """The bridge: p(m, R=0 | x, G=1) = p(m | x, R=1, G=2) - p(m, R=1 | x, G=1)
    for the x indices xs, as (len(xs), nm).  The auxiliary domain supplies
    the M law that the missing primary units hide."""
    aux_mass = obs.aux_r1[xs].sum(axis=1)
    empty = np.flatnonzero(aux_mass <= 0)
    if empty.size:
        raise OracleError(f"p(R=1 | x={obs.x_support[xs[empty[0]]]}, G=2) is zero")
    p_m_r1_joint = obs.primary_r1[xs].sum(axis=2) / obs.p_x_g1()[xs, None]
    return obs.aux_r1[xs] / aux_mass[:, None] - p_m_r1_joint


def _identify(obs: ObservedLaw, or_table: np.ndarray) -> float:
    """Y-driven identification functional under the odds-ratio table
    or_table (nx, ny): per (x, m) cell, the complete-case stratum plus the
    missing stratum, whose M law is bridged from the auxiliary domain and
    whose outcome law is the complete-case law tilted by the odds ratio.

    A cell with neither complete-case nor bridged missing-case mass adds
    nothing; one with missing-case mass alone is an error.  An x without a
    missing stratum adds only its complete-case term."""
    ys = np.asarray(obs.y_support)
    p_x_g1 = obs.p_x_g1()
    xs = np.flatnonzero(p_x_g1 > 0)
    missing = _bridged_missing_m(obs, xs)
    cells = obs.primary_r1[xs]  # (x, m, y)
    observed = cells.sum(axis=2) > 0
    hidden = np.argwhere(~observed & (missing != 0))
    if hidden.size:
        xi, mi = xs[hidden[0, 0]], hidden[0, 1]
        raise OracleError(
            f"p(m={obs.m_support[mi]}, R=1 | x={obs.x_support[xi]}, G=1) is zero"
        )
    tilted = or_table[xs, None, :] * cells
    with np.errstate(invalid="ignore", divide="ignore"):
        tilted_mean = np.where(observed, tilted @ ys / tilted.sum(axis=2), 0.0)
    missing_mass = np.where(obs.primary_r0[xs] > 0, p_x_g1[xs], 0.0)[:, None] * missing
    return float(ys @ cells.sum(axis=(0, 1)) + np.sum(missing_mass * tilted_mean)) / obs.p_g1


def identify_model1(obs: ObservedLaw) -> float:
    """Exact M-driven identification functional from observed data: the
    average over primary X of the auxiliary-complete-case M law composed with
    the primary-complete-case outcome regression.  It is the Y-driven
    functional at unit odds ratio."""
    return _identify(obs, np.ones((len(obs.x_support), len(obs.y_support))))


@dataclass(frozen=True)
class ORRecovery:
    """Odds-ratio function recovered from observed data, per (x, y)."""

    or_table: np.ndarray  # (nx, ny), anchored at the reference y
    reference_index: int
    reference_value: float


def recover_odds_ratio(obs: ObservedLaw) -> ORRecovery:
    """Invert the finite linear system linking the normalized odds-ratio tilt
    to the ratio of missing- and observed-case M laws, using the auxiliary
    domain as the bridge to the unobservable missing-case M law."""
    nx, nm, ny = obs.primary_r1.shape
    if nm < ny:
        raise RankConditionError(
            f"completeness impossible: |M support| = {nm} < |Y support| = {ny}"
        )
    y_ref = reference_y_index(obs.y_support)
    p_x_g1 = obs.p_x_g1()
    sigma = _completeness_sigma(obs.primary_r1)
    or_table = np.ones((nx, ny))  # identity where x has no missing stratum
    for xi in range(nx):
        if p_x_g1[xi] <= 0:
            raise OracleError(f"p(x={obs.x_support[xi]} | G=1) is zero")
        p_r0 = obs.primary_r0[xi] / p_x_g1[xi]
        if p_r0 <= 0:
            continue  # no missing stratum: the tilt is unconstrained there
        cc_mass = obs.primary_r1[xi].sum()
        if cc_mass <= 0:
            raise OracleError(f"zero complete-case mass at x={obs.x_support[xi]}")
        p_m_r0 = _bridged_missing_m(obs, [xi])[0] / p_r0
        p_m_r1 = obs.primary_r1[xi].sum(axis=1) / cc_mass
        if np.any(p_m_r1 <= 0):
            raise OracleError(
                f"p(m | x={obs.x_support[xi]}, R=1, G=1) has a zero cell"
            )
        if sigma[xi] <= _RANK_TOL:
            raise RankConditionError(
                f"completeness fails at x={obs.x_support[xi]}: "
                f"min singular value {sigma[xi]:.3e}"
            )
        design = obs.primary_r1[xi] / obs.primary_r1[xi].sum(axis=1, keepdims=True)
        sol, *_ = np.linalg.lstsq(design, p_m_r0 / p_m_r1, rcond=None)
        if sol[y_ref] <= 0:
            raise OracleError(
                f"recovered tilt non-positive at the reference level (x={obs.x_support[xi]})"
            )
        or_table[xi] = sol / sol[y_ref]
    return ORRecovery(
        or_table=or_table,
        reference_index=y_ref,
        reference_value=float(obs.y_support[y_ref]),
    )


def identify_model2(obs: ObservedLaw, recovery: Optional[ORRecovery] = None) -> float:
    """Exact Y-driven identification functional under the odds ratio
    recovered from observed data."""
    if recovery is None:
        recovery = recover_odds_ratio(obs)
    return _identify(obs, recovery.or_table)


# ---------------------------------------------------------------------------
# odds-ratio identity verification on the full law
# ---------------------------------------------------------------------------

def verify_or_identities(law: DiscreteFullLaw) -> dict:
    """Max absolute residual of each odds-ratio identity, from the full law.

    Keys: or_m_invariance (the odds ratio does not depend on m),
    or_propensity (outcome-law odds ratio equals the selection-odds form),
    missing_outcome_law (missing-case outcome law equals the tilted
    complete-case law), inverse_propensity (reciprocal selection probability
    from the baseline and tilt), baseline_propensity (baseline from the
    complete-case tilt mean and the marginal selection odds), and
    tilt_m_ratio (complete-case mean of the normalized tilt equals the
    missing/observed M-law ratio).  An x without primary mass is skipped.
    """
    t1 = law.table[0] / law.table[0].sum()  # conditional on G=1: (x, m, y, r)
    p_xmyr = t1[t1.sum(axis=(1, 2, 3)) > 0]  # the x strata with mass
    p_xy_r = p_xmyr.sum(axis=1)  # (x, y, r)
    if np.any(p_xy_r <= 0):
        raise OracleError("identity check requires positive mass in every (x, y, r) cell")
    if np.any(p_xmyr <= 0):
        raise OracleError("identity check requires positive mass in every (x, m, y, r) cell")
    y_ref = reference_y_index(law.y_support)

    # selection probabilities given (x, y), and their odds ratio
    p_r_xy = p_xy_r / p_xy_r.sum(axis=2, keepdims=True)
    p_r0_xy, p_r1_xy = p_r_xy[..., 0], p_r_xy[..., 1]
    or_prop = (p_r0_xy / p_r1_xy) * (p_r1_xy[:, y_ref] / p_r0_xy[:, y_ref])[:, None]

    # outcome laws given (x, m, r), and their odds ratio
    p_y_xmr = p_xmyr / p_xmyr.sum(axis=2, keepdims=True)
    p_y_r0, p_y_r1 = p_y_xmr[..., 0], p_y_xmr[..., 1]  # (x, m, y)
    ratio = p_y_r0 / p_y_r1
    or_from_outcome = ratio / ratio[:, :, y_ref, None]
    e_or = np.einsum("xy,xmy->xm", or_prop, p_y_r1)[..., None]

    # complete-case tilt mean and marginal selection odds given x
    p_y_r1_x = p_xy_r[..., 1] / p_xy_r[..., 1].sum(axis=1, keepdims=True)
    e_or_x = np.einsum("xy,xy->x", or_prop, p_y_r1_x)
    odds_r0 = p_xy_r[..., 0].sum(axis=1) / p_xy_r[..., 1].sum(axis=1)
    or_tilde = or_prop / e_or_x[:, None]
    p_m_r = p_xmyr.sum(axis=2) / p_xmyr.sum(axis=(1, 2))[:, None]  # p(m | x, r)

    residuals = {
        "or_m_invariance": or_from_outcome - or_from_outcome[:, :1],
        "or_propensity": or_from_outcome - or_prop[:, None],
        # missing-case outcome law from the tilted complete-case law
        "missing_outcome_law": p_y_r0 - p_y_r1 * or_prop[:, None] / e_or,
        # reciprocal selection probability from baseline and tilt
        "inverse_propensity": 1.0 / p_r1_xy
        - (1.0 + or_prop * p_r0_xy[:, y_ref, None] / p_r1_xy[:, y_ref, None]),
        # baseline propensity from the complete-case tilt mean
        "baseline_propensity": p_r1_xy[:, y_ref] - e_or_x / (e_or_x + odds_r0),
        # complete-case mean of the normalized tilt vs the M-law ratio
        "tilt_m_ratio": np.einsum("xy,xmy->xm", or_tilde, p_y_r1)
        - p_m_r[..., 0] / p_m_r[..., 1],
    }
    return {name: float(np.abs(r).max()) for name, r in residuals.items()}


def bridge_residual(law: DiscreteFullLaw) -> float:
    """Max cell residual of the auxiliary-domain bridge identity
    p(m | x, R=1, G=2) - p(m, R=1 | x, G=1) = p(m, R=0 | x, G=1), the right
    side read from the full law."""
    obs = observed_law(law)
    p_x_g1 = obs.p_x_g1()
    xs = np.flatnonzero((p_x_g1 > 0) & (obs.aux_r1.sum(axis=1) > 0))
    missing = law.table[0, xs, :, :, 0].sum(axis=2) / p_x_g1[xs, None]
    residual = np.abs(_bridged_missing_m(obs, xs) - missing)
    return float(residual.max(initial=0.0))


# ---------------------------------------------------------------------------
# random assumption-satisfying laws
# ---------------------------------------------------------------------------

def _shared_target_components(rng, nx, nm, ny):
    p_g = rng.dirichlet(np.full(2, 8.0))
    p_x_g = rng.dirichlet(np.full(nx, 8.0), size=2)
    p_m_x = rng.dirichlet(np.full(nm, 4.0), size=nx)
    p_y_xm = rng.dirichlet(np.full(ny, 4.0), size=(nx, nm))
    return p_g, p_x_g, p_m_x, p_y_xm


def _law_from_factors(p_g, p_x_g, p_m_x, p_y_xm, p_r1_primary, p_r1_aux) -> DiscreteFullLaw:
    """The law p(g) p(x | g) p(m | x) p(y | x, m) p(r | g, x, m, y) on the
    supports 0, 1, ...: p_r1_primary broadcasts to (x, m, y) and p_r1_aux is
    per x."""
    nx, nm, ny = p_y_xm.shape
    base = p_g[:, None, None, None] * p_x_g[:, :, None, None] * p_m_x[:, :, None] * p_y_xm
    p_r1 = np.empty_like(base)
    p_r1[0] = p_r1_primary
    p_r1[1] = p_r1_aux[:, None, None]
    table = np.empty(base.shape + (2,))
    table[..., 0] = base * (1.0 - p_r1)
    table[..., 1] = base * p_r1
    return DiscreteFullLaw(
        x_support=tuple(float(v) for v in range(nx)),
        m_support=tuple(float(v) for v in range(nm)),
        y_support=tuple(float(v) for v in range(ny)),
        table=table,
    )


def random_model1_law(rng: np.random.Generator, nx=2, nm=2, ny=2) -> DiscreteFullLaw:
    """Random law with M-driven primary missingness: built factor by factor so
    the M law is shared across domains, auxiliary selection depends on X only,
    and primary selection depends on (X, M) only."""
    p_g, p_x_g, p_m_x, p_y_xm = _shared_target_components(rng, nx, nm, ny)
    p_r1_xm = rng.uniform(0.25, 0.75, size=(nx, nm))
    p_r1_x_aux = rng.uniform(0.25, 0.75, size=nx)
    return _law_from_factors(p_g, p_x_g, p_m_x, p_y_xm, p_r1_xm[:, :, None], p_r1_x_aux)


def random_model2_law(
    rng: np.random.Generator, nx=2, nm=3, ny=2
) -> tuple[DiscreteFullLaw, np.ndarray]:
    """Random law with Y-driven primary missingness, constructed forward from
    a baseline selection probability and a known odds-ratio table anchored at
    the reference y.  Returns the law and the true OR table (nx, ny)."""
    p_g, p_x_g, p_m_x, p_y_xm = _shared_target_components(rng, nx, nm, ny)
    baseline = rng.uniform(0.3, 0.7, size=nx)
    or_table = rng.uniform(0.4, 2.5, size=(nx, ny))
    or_table[:, 0] = 1.0  # support starts at y=0: the anchor level
    p_r1_xy = 1.0 / (1.0 + or_table * ((1.0 - baseline) / baseline)[:, None])
    p_r1_x_aux = rng.uniform(0.25, 0.75, size=nx)
    law = _law_from_factors(p_g, p_x_g, p_m_x, p_y_xm, p_r1_xy[:, None, :], p_r1_x_aux)
    return law, or_table


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatteryFailure:
    law_seed: int
    check: str
    value: float
    tolerance: float


def run_battery(n_laws: int, seed: int) -> list[BatteryFailure]:
    """Randomized oracle battery: identification exactness, odds-ratio
    identity residuals, bridge exactness, and OR recovery, over n_laws
    M-driven and n_laws Y-driven random laws."""
    failures = []

    def expect(law_seed, check, value, tolerance):
        if not value <= tolerance:
            failures.append(BatteryFailure(law_seed, check, value, tolerance))

    for i in range(n_laws):
        rng = make_rng(seed, i)
        law1 = random_model1_law(rng)
        truth = brute_force_beta(law1)
        expect(i, "identify_model1", abs(identify_model1(observed_law(law1)) - truth),
               TOL_IDENTIFY)
        expect(i, "bridge_model1_law", bridge_residual(law1), TOL_IDENTITY)

        law2, or_true = random_model2_law(rng)
        obs2 = observed_law(law2)
        truth2 = brute_force_beta(law2)
        try:
            recovery = recover_odds_ratio(obs2)
        except OracleError as exc:
            failures.append(BatteryFailure(i, f"or_recovery_error:{exc}", np.inf, TOL_OR))
            continue
        expect(i, "or_recovery", float(np.max(np.abs(recovery.or_table - or_true))), TOL_OR)
        expect(i, "identify_model2", abs(identify_model2(obs2, recovery) - truth2),
               TOL_IDENTIFY)
        expect(i, "bridge_model2_law", bridge_residual(law2), TOL_IDENTITY)
        for name, value in verify_or_identities(law2).items():
            expect(i, name, value, TOL_IDENTITY)
    return failures


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_law(
    law: DiscreteFullLaw, n: int, seed: int
) -> tuple[PooledDataset, np.ndarray]:
    """Draw n iid units from the law, masked per the drawn R pattern.

    Returns the dataset and the (n, 5) latent matrix of (g, x, m, y, r)
    values before masking.
    """
    rng = make_rng(seed)
    flat = law.table.ravel()
    counts = rng.multinomial(n, flat)
    cells = np.repeat(np.arange(flat.size), counts)
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
    latent = np.column_stack([g_idx + 1, xs, ms, ys, r_idx]).astype(float)
    return dataset, latent
