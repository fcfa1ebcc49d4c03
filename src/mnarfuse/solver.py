"""Root finder for stacked sample estimating equations r(theta) = 0.

Just-identified systems are solved by Newton iteration with a halving line
search on ||r||; overdetermined systems by damped Gauss-Newton on
0.5*||r||^2.  The Jacobian is the system's own when it supplies one, else a
forward finite difference.  Failed attempts restart from the initial point
perturbed by centered uniform noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .simulate import make_rng

_FD_STEP = 1e-6
_MAX_HALVINGS = 30


class ResidualError(ValueError):
    """Raised when the residual map produces non-finite values."""


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-8
    max_iter: int = 100
    n_restarts: int = 5
    restart_scale: float = 0.5
    seed: int = 0

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
    iterations: int  # of the returned attempt
    residual_evals: int  # over all attempts, finite-difference ones included
    jacobian_evals: int  # over all attempts
    restarts: int  # attempts made after the first

    @property
    def converged(self) -> bool:
        return self.status == "converged"


@dataclass(frozen=True)
class MomentSystem:
    residual: Callable[[np.ndarray], np.ndarray]
    dim_theta: int
    init: np.ndarray
    config: SolverConfig = field(default_factory=SolverConfig)
    # d residual / d theta, shape (len(r), dim_theta); forward differences if None
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None


class _Counted:
    """The system's residual and Jacobian, counting evaluations."""

    def __init__(self, system: MomentSystem):
        self.system = system
        self.residual_evals = 0
        self.jacobian_evals = 0

    def residual(self, theta) -> np.ndarray:
        self.residual_evals += 1
        r = np.asarray(self.system.residual(theta), dtype=float)
        if not np.all(np.isfinite(r)):
            raise ResidualError(f"non-finite residual at theta={theta.tolist()}")
        return r

    def jacobian(self, theta, r0) -> np.ndarray:
        self.jacobian_evals += 1
        if self.system.jacobian is not None:
            return np.asarray(self.system.jacobian(theta), dtype=float)
        jac = np.empty((r0.size, theta.size))
        for j in range(theta.size):
            step = _FD_STEP * (1.0 + abs(theta[j]))
            bumped = theta.copy()
            bumped[j] += step
            jac[:, j] = (self.residual(bumped) - r0) / step
        return jac


def _iterate(counted: _Counted, theta0, r0, config: SolverConfig, just_identified: bool):
    """One Newton / Gauss-Newton run from theta0, where the residual is r0.
    Returns (theta, r, status, iters).

    The stopping criterion is max|r| for a just-identified system, so it is
    checked before a Jacobian is built; otherwise it is ||J^T r||.
    """

    def criterion(r, jac):
        if just_identified:
            return float(np.max(np.abs(r)))
        return float(np.linalg.norm(jac.T @ r))

    theta, r = theta0.copy(), r0
    for it in range(1, config.max_iter + 1):
        jac = None if just_identified else counted.jacobian(theta, r)
        if criterion(r, jac) < config.tol:
            return theta, r, "converged", it - 1
        if jac is None:
            jac = counted.jacobian(theta, r)
        try:
            if just_identified:
                step = np.linalg.solve(jac, -r)
            else:
                step = np.linalg.lstsq(jac, -r, rcond=None)[0]
        except np.linalg.LinAlgError:
            return theta, r, "singular", it - 1
        if not np.all(np.isfinite(step)):
            return theta, r, "singular", it - 1

        # halving line search on the residual norm
        obj0 = float(r @ r)
        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            candidate = theta + scale * step
            try:
                r_new = counted.residual(candidate)
            except ResidualError:
                scale *= 0.5
                continue
            if float(r_new @ r_new) < obj0:
                theta, r = candidate, r_new
                break
            scale *= 0.5
        else:
            # no decrease found: stalled where the criterion already failed
            return theta, r, "max_iter", it
    jac = None if just_identified else counted.jacobian(theta, r)
    status = "converged" if criterion(r, jac) < config.tol else "max_iter"
    return theta, r, status, config.max_iter


def solve(system: MomentSystem) -> SolverResult:
    """Solve the moment system, restarting from perturbed inits on failure.

    The best attempt (converged preferred, then smallest residual norm) is
    returned.  Restart noise is drawn from a generator seeded by the config
    seed, so identical inputs give identical results.
    """
    config = system.config
    counted = _Counted(system)
    init = np.asarray(system.init, dtype=float)
    if init.size != system.dim_theta:
        raise ValueError("init length does not match dim_theta")
    r_init = counted.residual(init)
    just_identified = r_init.size == system.dim_theta
    if r_init.size < system.dim_theta:
        raise ValueError(
            f"underdetermined system: {r_init.size} residuals for {system.dim_theta} parameters"
        )

    rng = make_rng(config.seed)
    best = None
    for attempt in range(config.n_restarts + 1):
        try:
            if attempt == 0:
                start, r0 = init, r_init
            else:
                noise = rng.uniform(-1.0, 1.0, size=init.size) * config.restart_scale * (
                    1.0 + np.abs(init)
                )
                start = init + noise
                r0 = counted.residual(start)
            theta, r, status, iters = _iterate(counted, start, r0, config, just_identified)
        except ResidualError:
            if attempt == 0:
                raise
            continue
        result = SolverResult(
            theta_hat=theta,
            status=status,
            final_residual_norm=float(np.linalg.norm(r)),
            iterations=iters,
            residual_evals=counted.residual_evals,
            jacobian_evals=counted.jacobian_evals,
            restarts=attempt,
        )
        if result.converged:
            return result
        if best is None or result.final_residual_norm < best.final_residual_norm:
            best = result
    assert best is not None
    return replace(best, residual_evals=counted.residual_evals,
                   jacobian_evals=counted.jacobian_evals, restarts=config.n_restarts)
