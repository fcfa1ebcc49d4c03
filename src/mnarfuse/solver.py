"""Root finder for stacked sample estimating equations r(theta) = 0.

Just-identified systems are solved by Newton iteration with a halving line
search on ||r||; overdetermined systems by damped Gauss-Newton on
0.5*||r||^2, each with the Jacobian the system supplies.  Each system gets
one attempt from its initial point; an attempt that does not converge is
returned as it stopped.  The stopping rule is fixed: max|r| (just-identified)
or ||J^T r|| (overdetermined) below _TOL within _MAX_ITER iterations.

A just-identified system that meets max|r| < _TOL takes one more full Newton
step, the polish step, and keeps it unless it makes ||r|| grow.  Newton
converges quadratically, so the root is then met to about machine precision
rather than to _TOL, and the solution no longer depends on the path to it:
two starts, or two orders of the same rows, give the same theta to ~1e-13.
The polish step counts as an iteration, with its Jacobian and its one
residual; a system that meets the criterion only after _MAX_ITER iterations
is not polished.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .models import solve_linear

_TOL = 1e-8
_MAX_ITER = 100
_MAX_HALVINGS = 30  # per line search


class ResidualError(ValueError):
    """Raised when the residual map produces non-finite values."""


@dataclass(frozen=True)
class SolverResult:
    theta_hat: np.ndarray
    status: str  # "converged" | "max_iter" | "singular" | "stalled" (no line-search decrease)
    final_residual_norm: float
    iterations: int
    residual_evals: int
    jacobian_evals: int

    @property
    def converged(self) -> bool:
        return self.status == "converged"


@dataclass(frozen=True)
class MomentSystem:
    residual: Callable[[np.ndarray], np.ndarray]
    # d residual / d theta, shape (len(r), len(init))
    jacobian: Callable[[np.ndarray], np.ndarray]
    init: np.ndarray


class _Counted:
    """Residuals and Jacobians of a stack of systems, counting evaluations
    per member.  residual(theta, members) -> (m, q) and
    jacobian(theta, members) -> (m, q, p) evaluate the members at the given
    positions of the stack, theta (m, p) being theirs."""

    def __init__(self, residual, jacobian, size: int):
        self._residual = residual
        self._jacobian = jacobian
        self.residual_evals = np.zeros(size, dtype=int)
        self.jacobian_evals = np.zeros(size, dtype=int)

    def residual(self, theta, members) -> np.ndarray:
        self.residual_evals[members] += 1  # a stack's positions are distinct
        return np.asarray(self._residual(theta, members), dtype=float)

    def jacobian(self, theta, members) -> np.ndarray:
        self.jacobian_evals[members] += 1
        return np.asarray(self._jacobian(theta, members), dtype=float)


def _gauss_newton_steps(jac, r):
    """Least-squares solutions of jac[k] step = -r[k]; NaN and flagged where
    the solve fails."""
    step = np.full((len(jac), jac.shape[2]), np.nan)
    failed = np.zeros(len(jac), dtype=bool)
    for k in range(len(jac)):
        try:
            step[k] = np.linalg.lstsq(jac[k], -r[k], rcond=None)[0]
        except np.linalg.LinAlgError:
            failed[k] = True
    return step, failed


def _polish(counted: _Counted, theta, r, members):
    """One full Newton step of the given members of a just-identified stack,
    kept in theta (K, p) and r (K, p) where it does not make ||r|| grow."""
    th, res = theta[members], r[members]
    step, singular = solve_linear(counted.jacobian(th, members), -res)
    ok = np.flatnonzero(~singular & np.isfinite(step.sum(axis=1)))
    if ok.size:
        candidate = th[ok] + step[ok]
        r_new = counted.residual(candidate, members[ok])
        # a non-finite trial residual compares False: the step is dropped
        better = (r_new * r_new).sum(axis=1) <= (res[ok] * res[ok]).sum(axis=1)
        kept = members[ok[better]]
        theta[kept], r[kept] = candidate[better], r_new[better]


def _criterion(r, jac):
    """max|r| of a just-identified system (jac None), else ||J^T r||."""
    if jac is None:
        return np.abs(r).max(axis=1)
    return np.linalg.norm(np.einsum("kqp,kq->kp", jac, r), axis=1)


def _iterate(counted: _Counted, theta, r, active: np.ndarray):
    """One Newton (q = p) or Gauss-Newton (q > p) run of the members `active`
    of a stack from theta (K, p), where the residuals are r (K, q); both are
    updated in place.  Each member stops on its own criterion, singular step
    or stalled line search.  Returns each member's status and iteration count.

    A just-identified member's criterion is checked before its Jacobian is
    built; met within _MAX_ITER iterations, it is followed by the polish step
    (see the module docstring) as one more iteration.  A non-finite trial
    residual in the line search counts as no decrease.
    """
    just_identified = r.shape[1] == theta.shape[1]
    status = np.full(len(theta), "max_iter", dtype=object)
    iters = np.full(len(theta), _MAX_ITER)
    for it in range(1, _MAX_ITER + 1):
        if active.size == 0:
            break
        res = r[active]
        jac = None if just_identified else counted.jacobian(theta[active], active)
        done = _criterion(res, jac) < _TOL
        if done.any():
            gone, keep = active[done], ~done
            if just_identified:
                _polish(counted, theta, r, gone)
                status[gone], iters[gone] = "converged", it
            else:
                status[gone], iters[gone] = "converged", it - 1
                jac = jac[keep]
            active, res = active[keep], res[keep]
            if active.size == 0:
                break
        th = theta[active]
        if just_identified:
            step, singular = solve_linear(counted.jacobian(th, active), -res)
        else:
            step, singular = _gauss_newton_steps(jac, res)
        singular |= ~np.isfinite(step.sum(axis=1))
        if singular.any():
            gone, keep = active[singular], ~singular
            status[gone], iters[gone] = "singular", it - 1
            active, th, res, step = active[keep], th[keep], res[keep], step[keep]
            if active.size == 0:
                break

        # halving line search on each member's residual norm; the members
        # still searching have all been halved the same number of times
        searching, obj0, scale = active, (res * res).sum(axis=1), 1.0
        for _ in range(_MAX_HALVINGS):
            candidate = th + scale * step
            r_new = counted.residual(candidate, searching)
            better = (r_new * r_new).sum(axis=1) < obj0
            n_better = np.count_nonzero(better)
            if n_better == better.size:
                theta[searching], r[searching] = candidate, r_new
                break
            if n_better:
                moved, keep = searching[better], ~better
                theta[moved], r[moved] = candidate[better], r_new[better]
                searching, th, step, obj0 = searching[keep], th[keep], step[keep], obj0[keep]
            scale *= 0.5
        else:
            # no decrease found: stalled where the criterion already failed
            status[searching], iters[searching] = "stalled", it
            active = active[~np.isin(active, searching)]
    if active.size:
        jac = None if just_identified else counted.jacobian(theta[active], active)
        status[active[_criterion(r[active], jac) < _TOL]] = "converged"
    return status, iters


def _result(counted: _Counted, k: int, theta, r, status, iters) -> SolverResult:
    return SolverResult(
        theta_hat=theta[k],
        status=str(status[k]),
        final_residual_norm=float(np.linalg.norm(r[k])),
        iterations=int(iters[k]),
        residual_evals=int(counted.residual_evals[k]),
        jacobian_evals=int(counted.jacobian_evals[k]),
    )


def solve(system: MomentSystem) -> SolverResult:
    """Solve the moment system by one Newton / Gauss-Newton attempt from its
    init; an attempt that does not converge is returned with its status.

    Raises ResidualError when the residual at the init is non-finite.
    """
    init = np.asarray(system.init, dtype=float)

    def residual(theta, members):
        return np.asarray(system.residual(theta[0]))[None]

    def jacobian(theta, members):
        return np.asarray(system.jacobian(theta[0]))[None]

    [result] = newton_stack(residual, jacobian, init[None])
    if result is None:
        raise ResidualError(f"non-finite residual at theta={init.tolist()}")
    return result


def newton_stack(residual, jacobian, init: np.ndarray) -> list[Optional[SolverResult]]:
    """One Newton / Gauss-Newton attempt for each member of a stack of
    systems that share their shapes.

    residual(theta, members) -> (m, q) and jacobian(theta, members) ->
    (m, q, p) evaluate the members at the given positions, theta (m, p)
    being theirs; init is (K, p).  Each member converges, stalls or turns
    singular on its own.  Returns one SolverResult per member, or None for a
    member whose residual at init is non-finite.
    """
    size, dim_theta = init.shape
    counted = _Counted(residual, jacobian, size)
    r = counted.residual(init, np.arange(size)).copy()
    if r.shape[1] < dim_theta:
        raise ValueError(
            f"underdetermined system: {r.shape[1]} residuals for {dim_theta} parameters"
        )
    finite = np.all(np.isfinite(r), axis=1)
    theta = np.array(init, dtype=float)
    status, iters = _iterate(counted, theta, r, np.flatnonzero(finite))
    return [_result(counted, k, theta, r, status, iters) if finite[k] else None
            for k in range(size)]
