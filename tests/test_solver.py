"""Moment-system solver tests, including the grid-search likelihood oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mnarfuse.models import logistic
from mnarfuse.solver import MomentSystem, ResidualError, newton_stack, solve


def _system(residual, jacobian, init):
    """The MomentSystem of one system given as residual(theta) -> (q,) and
    jacobian(theta) -> (q, p): its one member's rows of the stacked form."""
    return MomentSystem(residual=lambda theta, members: np.asarray(residual(theta[0]))[None],
                        jacobian=lambda theta, members: np.asarray(jacobian(theta[0]))[None],
                        init=init)


def test_linear_root():
    result = solve(_system(residual=lambda t: t - 3.0, jacobian=lambda t: np.eye(1),
                          init=np.zeros(1)))
    assert result.converged
    np.testing.assert_allclose(result.theta_hat, [3.0], atol=1e-8)


def test_separable_two_dim_root():
    result = solve(_system(
        residual=lambda t: np.array([t[0] - 1.0, t[1] + 2.0]),
        jacobian=lambda t: np.eye(2), init=np.zeros(2),
    ))
    assert result.converged
    np.testing.assert_allclose(result.theta_hat, [1.0, -2.0], atol=1e-8)


def _bernoulli_fixture():
    rng = np.random.default_rng(11)
    x = rng.normal(size=200)
    design = np.column_stack([np.ones(200), x])
    outcome = (rng.random(200) < logistic(0.3 + 0.8 * x)).astype(float)
    return design, outcome


def _logistic_score_system():
    """The logistic-regression score equations of the Bernoulli fixture."""
    design, outcome = _bernoulli_fixture()

    def score(theta):
        return design.T @ (outcome - logistic(design @ theta)) / outcome.size

    def score_jacobian(theta):
        p = logistic(design @ theta)
        return -(design.T * (p * (1.0 - p))) @ design / outcome.size

    return _system(residual=score, jacobian=score_jacobian, init=np.zeros(2))


def test_logistic_score_matches_grid_search_oracle():
    design, outcome = _bernoulli_fixture()
    result = solve(_logistic_score_system())
    assert result.converged

    def loglik(theta):
        eta = design @ theta
        return float(np.sum(outcome * eta - np.logaddexp(0.0, eta)))

    # coarse-to-fine grid search over the coefficient box as the oracle
    best = (0.0, 0.0)
    lo, hi, step = -3.0, 3.0, 0.1
    for _ in range(3):
        grid = np.arange(lo, hi + step / 2, step)
        values = [(loglik(np.array([a, b])), (a, b)) for a in best[0] + grid
                  for b in best[1] + grid]
        best = max(values)[1]
        lo, hi, step = -step, step, step / 20
    np.testing.assert_allclose(result.theta_hat, best, atol=1e-3)


def test_nonfinite_residual_names_theta():
    def residual(theta):
        return np.array([np.nan])

    with pytest.raises(ResidualError, match="theta"):
        solve(_system(residual=residual, jacobian=lambda t: np.eye(1), init=np.ones(1)))


def test_one_attempt_from_a_flat_init():
    # the derivative vanishes at the init: the first Newton step is singular,
    # and the attempt stops there, at the init, with no second try
    def residual(theta):
        return np.array([theta[0] ** 3 - 8.0])

    def jacobian(theta):
        return np.array([[3.0 * theta[0] ** 2]])

    result = solve(_system(residual=residual, jacobian=jacobian, init=np.zeros(1)))
    assert (result.status, result.iterations) == ("singular", 0)
    np.testing.assert_array_equal(result.theta_hat, [0.0])
    # the residual at the init and the one Jacobian
    assert (result.residual_evals, result.jacobian_evals) == (1, 1)


def test_determinism():
    a = solve(_logistic_score_system())
    b = solve(_logistic_score_system())
    assert np.array_equal(a.theta_hat, b.theta_hat)
    assert a.status == b.status and a.iterations == b.iterations


def test_overdetermined_gauss_newton():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 2))
    b = a @ np.array([1.5, -0.5]) + rng.normal(scale=0.01, size=6)

    result = solve(_system(residual=lambda t: a @ t - b, jacobian=lambda t: a,
                          init=np.zeros(2)))
    assert result.converged
    exact = np.linalg.lstsq(a, b, rcond=None)[0]
    np.testing.assert_allclose(result.theta_hat, exact, atol=1e-6)


def test_underdetermined_rejected():
    with pytest.raises(ValueError, match="underdetermined"):
        solve(_system(residual=lambda t: np.array([t.sum()]),
                     jacobian=lambda t: np.ones((1, 2)), init=np.zeros(2)))


def test_scale_robustness():
    # same root expressed at wildly different residual scales
    for scale in (1e-4, 1.0, 1e4):
        result = solve(_system(
            residual=lambda t, s=scale: s * (t - 7.0),
            jacobian=lambda t, s=scale: s * np.eye(1), init=np.zeros(1),
        ))
        assert result.converged
        np.testing.assert_allclose(result.theta_hat, [7.0], atol=1e-6)


_A = np.array([[2.0, 1.0], [1.0, 3.0]])
_B = np.array([1.0, 2.0])


def test_counts_on_a_linear_system():
    # one Newton step lands on the root, and the max|r| test then takes the
    # polish step: the residual at the init, then a Jacobian and a residual
    # for each of the two steps
    result = solve(_system(residual=lambda t: _A @ t - _B, jacobian=lambda t: _A,
                          init=np.zeros(2)))
    assert result.converged and result.iterations == 2
    np.testing.assert_allclose(result.theta_hat, np.linalg.solve(_A, _B), atol=1e-15)
    assert (result.residual_evals, result.jacobian_evals) == (3, 2)


def test_counts_of_the_one_attempt():
    # a constant residual has no root: the attempt builds one Jacobian, then
    # its line search halves 30 times without a decrease and stalls
    result = solve(_system(residual=lambda t: np.ones(1),
                          jacobian=lambda t: np.ones((1, 1)), init=np.zeros(1)))
    assert (result.status, result.iterations) == ("stalled", 1)
    # the start, then the 30 line-search trials
    assert (result.residual_evals, result.jacobian_evals) == (31, 1)



def test_a_gauss_newton_step_that_cannot_be_solved_is_singular(capfd):
    # a finite residual with a NaN Jacobian, which never reaches lstsq:
    # LAPACK would print an error to the process's output
    [fit] = newton_stack(lambda theta, members: np.ones((len(members), 2)),
                         lambda theta, members: np.full((len(members), 2, 1), np.nan),
                         np.zeros((1, 1)))
    assert (fit.status, fit.iterations) == ("singular", 0)
    np.testing.assert_array_equal(fit.theta_hat, [0.0])
    assert (fit.residual_evals, fit.jacobian_evals) == (1, 1)
    assert capfd.readouterr() == ("", "")


def _cbrt_jacobian(t):
    return np.array([[1.0 / (3.0 * np.cbrt(t[0]) ** 2)]])


# name -> ((residual, jacobian), start, expected (status, iterations) or
# None for a member whose residual at its start is non-finite).  Newton on
# cbrt(theta) overshoots to -2 theta and the line search halves once, so
# each iteration halves |theta|: from 1e6 max|r| < 1e-8 first holds after
# 100 iterations, from 1e9 not within them.
_JUST_IDENTIFIED = {
    "polished": ((lambda t: t - 3.0, lambda t: np.eye(1)), 0.0, ("converged", 2)),
    "converged-at-the-last-check": ((np.cbrt, _cbrt_jacobian), 1e6, ("converged", 100)),
    "iteration-cap": ((np.cbrt, _cbrt_jacobian), 1e9, ("max_iter", 100)),
    "stalled": ((lambda t: np.ones(1), lambda t: np.ones((1, 1))), 0.0, ("stalled", 1)),
    "singular": ((lambda t: t ** 3 - 8.0, lambda t: 3.0 * t[None] ** 2), 0.0, ("singular", 0)),
    "non-finite-start": ((lambda t: np.full(1, np.nan), lambda t: np.eye(1)), 0.0, None),
    # r = 0 at the start meets the criterion, and the polish step's
    # Jacobian there is singular: no step, no trial residual
    "converged-with-a-singular-polish": ((lambda t: t ** 3, lambda t: 3.0 * t[None] ** 2),
                                         0.0, ("converged", 1)),
    "non-finite-jacobian": ((lambda t: np.ones(1), lambda t: np.full((1, 1), np.nan)),
                            0.0, ("singular", 0)),
}
_OVERDETERMINED = {
    "linear": ((lambda t: np.array([t[0] - 1.0, t[0] - 3.0]), lambda t: np.ones((2, 1))),
               0.0, ("converged", 1)),
    "nonlinear": ((lambda t: np.array([np.exp(t[0]) - 2.0, t[0] - 1.0]),
                   lambda t: np.array([[np.exp(t[0])], [1.0]])), 0.0, ("converged", 8)),
    "stalled": ((lambda t: np.ones(2), lambda t: np.ones((2, 1))), 0.0, ("stalled", 1)),
    "non-finite-start": ((lambda t: np.array([np.nan, 0.0]), lambda t: np.ones((2, 1))),
                         0.0, None),
    "non-finite-jacobian": ((lambda t: np.ones(2), lambda t: np.full((2, 1), np.nan)),
                            0.0, ("singular", 0)),
}


@pytest.mark.parametrize("stack", [_JUST_IDENTIFIED, _OVERDETERMINED],
                         ids=["newton", "gauss-newton"])
def test_each_member_of_a_stack_is_solved_as_if_alone(stack):
    systems = [system for system, _, _ in stack.values()]

    def residual(theta, members):
        return np.array([systems[k][0](t) for k, t in zip(members.tolist(), theta)])

    def jacobian(theta, members):
        return np.array([systems[k][1](t) for k, t in zip(members.tolist(), theta)])

    init = np.array([[start] for _, start, _ in stack.values()])
    fits = newton_stack(residual, jacobian, init)
    for (name, ((res, jac), start, expected)), fit in zip(stack.items(), fits):
        system = _system(residual=res, jacobian=jac, init=np.array([start]))
        if expected is None:
            assert fit is None
            with pytest.raises(ResidualError):
                solve(system)
            continue
        alone = solve(system)
        assert (fit.status, fit.iterations) == expected, name
        assert fit.theta_hat.tobytes() == alone.theta_hat.tobytes(), name
        assert fit.final_residual_norm == alone.final_residual_norm, name
        assert ((fit.status, fit.iterations, fit.residual_evals, fit.jacobian_evals)
                == (alone.status, alone.iterations, alone.residual_evals,
                    alone.jacobian_evals)), name


@pytest.mark.parametrize("stack, name", [
    (_JUST_IDENTIFIED, "converged-with-a-singular-polish"),
    (_JUST_IDENTIFIED, "non-finite-jacobian"),
    (_OVERDETERMINED, "non-finite-jacobian"),
], ids=["newton-singular-polish", "newton-non-finite-jacobian",
        "gauss-newton-non-finite-jacobian"])
def test_counts_of_a_member_that_stops_in_its_first_iteration(stack, name):
    # the start's residual and one Jacobian, and theta stays at the start
    (res, jac), start, expected = stack[name]
    fit = solve(_system(residual=res, jacobian=jac, init=np.array([start])))
    assert (fit.status, fit.iterations) == expected
    assert (fit.residual_evals, fit.jacobian_evals) == (1, 1)
    np.testing.assert_array_equal(fit.theta_hat, [start])


def _stack_fits(members):
    """newton_stack on members given as ((residual, jacobian), start), each
    residual(theta) -> (q,) and jacobian(theta) -> (q, p) of one system."""
    systems = [system for system, _ in members]

    def residual(theta, positions):
        return np.array([systems[k][0](t) for k, t in zip(positions.tolist(), theta)])

    def jacobian(theta, positions):
        return np.array([systems[k][1](t) for k, t in zip(positions.tolist(), theta)])

    return newton_stack(residual, jacobian, np.array([[start] for _, start in members]))


def test_members_that_stop_together_each_stop_as_if_alone():
    # in the first iteration one member meets the criterion with a singular
    # polish step, one meets it and keeps its polish step, one turns
    # singular; the fourth goes on to converge in its second iteration
    members = [
        (_JUST_IDENTIFIED["converged-with-a-singular-polish"][0], 0.0),
        ((lambda t: t - 3.0, lambda t: np.eye(1)), 3.0 + 1e-9),
        (_JUST_IDENTIFIED["singular"][0], 0.0),
        (_JUST_IDENTIFIED["polished"][0], 0.0),
    ]
    fits = _stack_fits(members)
    assert ([(f.status, f.iterations, f.residual_evals, f.jacobian_evals) for f in fits]
            == [("converged", 1, 1, 1), ("converged", 1, 2, 1), ("singular", 0, 1, 1),
                ("converged", 2, 3, 2)])
    assert [f.theta_hat.tolist() for f in fits] == [[0.0], [3.0], [0.0], [3.0]]
    for ((res, jac), start), fit in zip(members, fits):
        alone = solve(_system(residual=res, jacobian=jac, init=np.array([start])))
        assert fit.theta_hat.tobytes() == alone.theta_hat.tobytes()
        assert ((fit.status, fit.iterations, fit.residual_evals, fit.jacobian_evals)
                == (alone.status, alone.iterations, alone.residual_evals,
                    alone.jacobian_evals))


# Starts and constants on a grid of quarters: 0 included, and no tiny
# nonzero value whose Newton step would overflow a cube
_QUARTERS = st.integers(-40, 40).map(lambda i: i / 4)


def _linear(slope, root):
    return (lambda t: slope * t - root, lambda t: np.full((1, 1), slope))


def _shifted_cubic(shift):
    return (lambda t: t ** 3 - shift, lambda t: 3.0 * t[None] ** 2)


def _linear_pair(slope, first, second):
    return (lambda t: np.array([slope * t[0] - first, slope * t[0] - second]),
            lambda t: np.full((2, 1), slope))


def _exp_moments(level, root):
    return (lambda t: np.array([np.exp(t[0]) - level, t[0] - root]),
            lambda t: np.array([[np.exp(t[0])], [1.0]]))


def _member(system, start=_QUARTERS):
    return st.tuples(system, start)


_SQUARE_MEMBERS = st.one_of(
    _member(st.builds(_linear, _QUARTERS, _QUARTERS)),
    _member(st.builds(_shifted_cubic, _QUARTERS)),
    # cbrt from a nonzero start: its iterates halve |theta| and never reach
    # 0, where its Jacobian is infinite
    _member(st.just((np.cbrt, _cbrt_jacobian)),
            st.tuples(st.sampled_from([-1.0, 1.0]), st.integers(-3, 12)).map(
                lambda sign_power: sign_power[0] * 10.0 ** sign_power[1])),
    _member(st.just(_JUST_IDENTIFIED["stalled"][0])),
    _member(st.just(_JUST_IDENTIFIED["non-finite-start"][0])),
    _member(st.just(_JUST_IDENTIFIED["non-finite-jacobian"][0])),
)
_OVERDETERMINED_MEMBERS = st.one_of(
    _member(st.builds(_linear_pair, _QUARTERS, _QUARTERS, _QUARTERS)),
    # exp(theta) stays finite from a start within [-5, 5]
    _member(st.builds(_exp_moments, st.integers(1, 20).map(lambda i: i / 4), _QUARTERS),
            st.integers(-20, 20).map(lambda i: i / 4)),
    _member(st.just(_OVERDETERMINED["stalled"][0])),
    _member(st.just(_OVERDETERMINED["non-finite-start"][0])),
    _member(st.just(_OVERDETERMINED["non-finite-jacobian"][0])),
)


def _table_examples(test):
    """Each case of both stack tables as a one-member example, and each
    table as one stack."""
    for table in (_JUST_IDENTIFIED, _OVERDETERMINED):
        members = [(system, start) for system, start, _ in table.values()]
        for member in members:
            test = example(members=[member])(test)
        test = example(members=members)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(members=st.sampled_from([_SQUARE_MEMBERS, _OVERDETERMINED_MEMBERS]).flatmap(
    lambda kind: st.lists(kind, min_size=1, max_size=8)))
@_table_examples
def test_a_member_is_fitted_the_same_whatever_its_stack_mates(members):
    for ((res, jac), start), fit in zip(members, _stack_fits(members)):
        system = _system(residual=res, jacobian=jac, init=np.array([start]))
        if fit is None:
            with pytest.raises(ResidualError):
                solve(system)
            continue
        alone = solve(system)
        assert fit.theta_hat.tobytes() == alone.theta_hat.tobytes()
        assert fit.final_residual_norm == alone.final_residual_norm
        assert ((fit.status, fit.iterations, fit.residual_evals, fit.jacobian_evals)
                == (alone.status, alone.iterations, alone.residual_evals,
                    alone.jacobian_evals))
