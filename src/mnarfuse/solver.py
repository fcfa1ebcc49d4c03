"""Root finder for stacked sample estimating equations r(theta) = 0.

Just-identified systems are solved by Newton iteration with a halving line
search on ||r||; overdetermined systems by damped Gauss-Newton on
0.5*||r||^2, each with the Jacobian the system supplies.  Each system gets
one attempt from its initial point; an attempt that does not converge is
returned as it stopped.

A just-identified system that meets max|r| < tol takes one more full Newton
step, the polish step, and keeps it unless it makes ||r|| grow.  Newton
converges quadratically, so the root is then met to about machine precision
rather than to tol, and the solution no longer depends on the path to it:
two starts, or two orders of the same rows, give the same theta to ~1e-13.
The polish step counts as an iteration, with its Jacobian and its one
residual; a system that meets the criterion only after max_iter iterations
is not polished.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .models import solve_linear

_MAX_HALVINGS = 30


class ResidualError(ValueError):
    """Raised when the residual map produces non-finite values."""


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-8
    max_iter: int = 100

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class SolverResult:
    theta_hat: np.ndarray
    status: str  # "converged" | "max_iter" | "singular"
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
    # d residual / d theta, shape (len(r), dim_theta)
    jacobian: Callable[[np.ndarray], np.ndarray]
    dim_theta: int
    init: np.ndarray
    config: SolverConfig = field(default_factory=SolverConfig)


class _Counted:
    """Residuals and Jacobians of a stack of systems, counting evaluations
    per member.  residual(theta, members) -> (m, q) and
    jacobian(theta, members) -> (m, q, p) evaluate the members at the given
    positions of the stack, theta (m, p) being theirs."""

    def __init__(self, residual, jacobian, size: int):
        self._residual = residual
        self._jacobian = jacobian
        self.residual_evals = [0] * size
        self.jacobian_evals = [0] * size

    def residual(self, theta, members) -> np.ndarray:
        for k in members.tolist():
            self.residual_evals[k] += 1
        return np.asarray(self._residual(theta, members), dtype=float)

    def jacobian(self, theta, members) -> np.ndarray:
        for k in members.tolist():
            self.jacobian_evals[k] += 1
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
    """One full Newton step of the given members of a just-identified stack
    from theta (m, p), where the residuals are r (m, p).  Returns theta and
    r, updated in place where the step keeps ||r|| from growing."""
    step, singular = solve_linear(counted.jacobian(theta, members), -r)
    ok = np.flatnonzero(~singular & np.isfinite(step.sum(axis=1)))
    if ok.size:
        candidate = theta[ok] + step[ok]
        r_new = counted.residual(candidate, members[ok])
        # a non-finite trial residual compares False: the step is dropped
        better = (r_new * r_new).sum(axis=1) <= (r[ok] * r[ok]).sum(axis=1)
        theta[ok[better]], r[ok[better]] = candidate[better], r_new[better]
    return theta, r


def _iterate(counted: _Counted, theta0, r0, config: SolverConfig, just_identified: bool,
             members: np.ndarray):
    """One Newton / Gauss-Newton run of the given members of a stack from
    theta0 (K, p), where the residuals are r0 (K, q).  Each member stops on
    its own criterion, singular step or stalled line search.  Returns
    (theta, r, status, iters) with a status and an iteration count per
    member; the other members keep their start.

    The stopping criterion is max|r| for a just-identified system, so it is
    checked before a Jacobian is built; otherwise it is ||J^T r||.  A
    just-identified member that meets it within max_iter iterations takes
    the polish step (see the module docstring) as one more iteration.  A
    non-finite trial residual in the line search counts as no decrease.
    """

    def criterion(r, jac):
        if just_identified:
            return np.abs(r).max(axis=1)
        return np.linalg.norm(np.einsum("kqp,kq->kp", jac, r), axis=1)

    theta, r = theta0.copy(), r0.copy()
    status = np.full(len(theta), "max_iter", dtype=object)
    iters = np.full(len(theta), config.max_iter)
    # the members still iterating, with their iterates and residuals
    idx, th, res = members, theta[members], r[members]

    def stop(mask, why, it):
        """Record the masked members as stopped; returns the mask of the rest."""
        nonlocal idx, th, res
        gone = idx[mask]
        theta[gone], r[gone], status[gone], iters[gone] = th[mask], res[mask], why, it
        keep = ~mask
        idx, th, res = idx[keep], th[keep], res[keep]
        return keep

    for it in range(1, config.max_iter + 1):
        jac = None if just_identified else counted.jacobian(th, idx)
        done = criterion(res, jac) < config.tol
        if done.any():
            if just_identified:
                th[done], res[done] = _polish(counted, th[done], res[done], idx[done])
                stop(done, "converged", it)
            else:
                jac = jac[stop(done, "converged", it - 1)]
        if idx.size == 0:
            break
        if just_identified:
            step, singular = solve_linear(counted.jacobian(th, idx), -res)
        else:
            step, singular = _gauss_newton_steps(jac, res)
        singular |= ~np.isfinite(step.sum(axis=1))
        if singular.any():
            step = step[stop(singular, "singular", it - 1)]
            if idx.size == 0:
                break

        # halving line search on each member's residual norm; the members
        # still searching have all been halved the same number of times
        pending = slice(None)  # their positions among idx
        searching, start, obj0, scale = idx, th, (res * res).sum(axis=1), 1.0
        for _ in range(_MAX_HALVINGS):
            candidate = start + scale * step
            r_new = counted.residual(candidate, searching)
            better = (r_new * r_new).sum(axis=1) < obj0
            n_better = np.count_nonzero(better)
            if n_better == better.size:
                th[pending], res[pending] = candidate, r_new
                break
            if n_better:
                pending = np.arange(idx.size)[pending]
                th[pending[better]], res[pending[better]] = candidate[better], r_new[better]
                keep = ~better
                pending, searching, start, step, obj0 = (
                    pending[keep], searching[keep], start[keep], step[keep], obj0[keep])
            scale *= 0.5
        else:
            # no decrease found: stalled where the criterion already failed
            stalled = np.zeros(idx.size, dtype=bool)
            stalled[pending] = True
            stop(stalled, "max_iter", it)
            if idx.size == 0:
                break
    if idx.size:
        jac = None if just_identified else counted.jacobian(th, idx)
        converged = criterion(res, jac) < config.tol
        stop(converged, "converged", config.max_iter)
        stop(np.ones(idx.size, dtype=bool), "max_iter", config.max_iter)
    return theta, r, status, iters


def _result(counted: _Counted, k: int, theta, r, status, iters) -> SolverResult:
    return SolverResult(
        theta_hat=theta[k],
        status=str(status[k]),
        final_residual_norm=float(np.linalg.norm(r[k])),
        iterations=int(iters[k]),
        residual_evals=counted.residual_evals[k],
        jacobian_evals=counted.jacobian_evals[k],
    )


def solve(system: MomentSystem) -> SolverResult:
    """Solve the moment system by one Newton / Gauss-Newton attempt from its
    init; an attempt that does not converge is returned with its status.

    Raises ResidualError when the residual at the init is non-finite.
    """
    init = np.asarray(system.init, dtype=float)
    if init.size != system.dim_theta:
        raise ValueError("init length does not match dim_theta")

    def residual(theta, members):
        return np.asarray(system.residual(theta[0]))[None]

    def jacobian(theta, members):
        return np.asarray(system.jacobian(theta[0]))[None]

    [result] = newton_stack(residual, jacobian, init[None], system.config)
    if result is None:
        raise ResidualError(f"non-finite residual at theta={init.tolist()}")
    return result


def newton_stack(residual, jacobian, init: np.ndarray,
                 config: SolverConfig) -> list[Optional[SolverResult]]:
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
    r0 = counted.residual(init, np.arange(size))
    if r0.shape[1] < dim_theta:
        raise ValueError(
            f"underdetermined system: {r0.shape[1]} residuals for {dim_theta} parameters"
        )
    finite = np.all(np.isfinite(r0), axis=1)
    run = _iterate(counted, init, r0, config, r0.shape[1] == dim_theta, np.flatnonzero(finite))
    return [_result(counted, k, *run) if finite[k] else None for k in range(size)]
