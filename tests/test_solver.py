"""Moment-system solver tests, including the grid-search likelihood oracle."""

import numpy as np
import pytest

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
}
_OVERDETERMINED = {
    "linear": ((lambda t: np.array([t[0] - 1.0, t[0] - 3.0]), lambda t: np.ones((2, 1))),
               0.0, ("converged", 1)),
    "nonlinear": ((lambda t: np.array([np.exp(t[0]) - 2.0, t[0] - 1.0]),
                   lambda t: np.array([[np.exp(t[0])], [1.0]])), 0.0, ("converged", 8)),
    "stalled": ((lambda t: np.ones(2), lambda t: np.ones((2, 1))), 0.0, ("stalled", 1)),
    "non-finite-start": ((lambda t: np.array([np.nan, 0.0]), lambda t: np.ones((2, 1))),
                         0.0, None),
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
