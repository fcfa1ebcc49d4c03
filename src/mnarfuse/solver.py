"""Root finder for stacked sample estimating equations r(theta) = 0.

Just-identified systems are solved by Newton iteration with a halving line
search on ||r||; overdetermined systems by damped Gauss-Newton on
0.5*||r||^2, each with the Jacobian the system supplies, in one iteration
whose step solve and stopping check depend on the kind.  Each system gets
one attempt from its initial point; an attempt that does not converge is
returned as it stopped.  The stopping rule is fixed: max|r|
(just-identified) or ||J^T r|| (overdetermined) below _TOL within _MAX_ITER
iterations.

A just-identified system that meets max|r| < _TOL takes that iteration's
full Newton step, the polish step, and keeps it unless it makes ||r|| grow.
Newton converges quadratically, so the root is then met to about machine
precision rather than to _TOL, and the solution no longer depends on the
path to it: two starts, or two orders of the same rows, give the same theta
to ~1e-13.  The polish step counts as an iteration, with its Jacobian and
its one residual; a system that meets the criterion only after _MAX_ITER
iterations is not polished.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

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
    """A one-member stack in newton_stack's form: residual(theta, members)
    -> (m, q) and jacobian(theta, members) -> (m, q, p) at theta (m, p);
    init is (p,)."""
    residual: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray]
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


def _steps(jac, r):
    """The steps of a stack: jac[k] step = -r[k] solved exactly for a square
    jac, in least squares for an overdetermined one; NaN and flagged where
    the solve fails or gives a non-finite step.  A non-finite jac[k] fails
    without reaching LAPACK, which would print an error of its own."""
    square = jac.shape[1] == jac.shape[2]
    failed = ~np.isfinite(jac).all(axis=(1, 2))
    if square and not failed.any():
        try:  # one batched solve, unless a member is singular
            step = np.linalg.solve(jac, -r[..., None])[..., 0]
            return step, ~np.isfinite(step.sum(axis=1))
        except np.linalg.LinAlgError:
            pass
    step = np.full((len(jac), jac.shape[2]), np.nan)
    for k in np.flatnonzero(~failed):
        try:
            step[k] = (np.linalg.solve(jac[k], -r[k]) if square
                       else np.linalg.lstsq(jac[k], -r[k], rcond=None)[0])
        except np.linalg.LinAlgError:
            failed[k] = True
    return step, failed | ~np.isfinite(step.sum(axis=1))


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

    Each iteration builds every active member's Jacobian once, then checks
    the criterion.  A just-identified member that meets it takes the polish
    step (see the module docstring) with that Jacobian, and the iteration
    counts as its last; a Gauss-Newton member that meets it stops without a
    step, and the iteration does not count.  A non-finite trial residual, in
    the polish or the line search, counts as no decrease.
    """
    just_identified = r.shape[1] == theta.shape[1]
    status = np.full(len(theta), "max_iter", dtype=object)
    iters = np.full(len(theta), _MAX_ITER)
    for it in range(1, _MAX_ITER + 1):
        if active.size == 0:
            break
        jac = counted.jacobian(theta[active], active)
        done = _criterion(r[active], None if just_identified else jac) < _TOL
        if done.any():
            status[active[done]] = "converged"
            iters[active[done]] = it if just_identified else it - 1
            if not just_identified:  # a converged Gauss-Newton member takes no step
                active, jac, done = active[~done], jac[~done], done[~done]
        th, res = theta[active], r[active]
        step, singular = _steps(jac, res)
        stop = done | singular
        if stop.any():
            polish = np.flatnonzero(done & ~singular)
            if polish.size:
                candidate = th[polish] + step[polish]
                r_new = counted.residual(candidate, active[polish])
                better = (r_new * r_new).sum(axis=1) <= (res[polish] * res[polish]).sum(axis=1)
                kept = active[polish[better]]
                theta[kept], r[kept] = candidate[better], r_new[better]
            gone = active[singular & ~done]
            status[gone], iters[gone] = "singular", it - 1
            active, th, res, step = active[~stop], th[~stop], res[~stop], step[~stop]
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


def solve(system: MomentSystem) -> SolverResult:
    """Solve the moment system by one Newton / Gauss-Newton attempt from its
    init; an attempt that does not converge is returned with its status.

    Raises ResidualError when the residual at the init is non-finite.
    """
    init = np.asarray(system.init, dtype=float)
    [result] = newton_stack(system.residual, system.jacobian, init[None])
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
    return [SolverResult(theta_hat=theta[k], status=str(status[k]),
                         final_residual_norm=float(np.linalg.norm(r[k])), iterations=int(iters[k]),
                         residual_evals=int(counted.residual_evals[k]),
                         jacobian_evals=int(counted.jacobian_evals[k]))
            if finite[k] else None for k in range(size)]
