"""Feature bases and the small parametric models used as nuisance components.

A basis is an ordered list of monomial terms over the covariate features, the
(expanded) auxiliary variable M, and the outcome Y.  Coefficient models pair a
basis with a coefficient vector and an identity or logistic link.  The
calibrated reciprocal propensity of the IPW estimators is
`calibration_weights`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# Reciprocal-propensity weights are capped here; equivalently the propensity
# is floored at 1/W_MAX.  Every cap event is counted by the estimators.
W_MAX = 1e6

_RANK_TOL = 1e-10


@dataclass(frozen=True)
class Term:
    """Product of variable powers, e.g. x1^2 * m.  Empty factors = constant."""

    factors: tuple[tuple[str, int], ...]

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for var, power in self.factors:
            parts.append(var if power == 1 else f"{var}^{power}")
        return "*".join(parts)

    @property
    def uses_m(self) -> bool:
        return any(var == "m" for var, _ in self.factors)

    @property
    def uses_y(self) -> bool:
        return any(var == "y" for var, _ in self.factors)

    def width(self, m_dim: int = 1) -> int:
        """Number of output columns: m_dim for an m term when M is categorical."""
        return m_dim if (m_dim > 1 and self.uses_m) else 1


def parse_term(text: str) -> Term:
    text = text.strip()
    if text == "1":
        return Term(())
    factors = []
    for part in text.split("*"):
        part = part.strip()
        if "^" in part:
            var, power_s = part.split("^", 1)
            power = int(power_s)
        else:
            var, power = part, 1
        var = var.strip()
        if power < 1:
            raise ValueError(f"bad power in term {text!r}")
        if not (var == "m" or var == "y" or var.startswith("x")):
            raise ValueError(f"unknown variable {var!r} in term {text!r}")
        factors.append((var, power))
    return Term(tuple(factors))


@dataclass(frozen=True)
class BasisSpec:
    """Ordered, distinct monomial terms; the first term is the constant."""

    terms: tuple[Term, ...]

    def __post_init__(self):
        names = [str(t) for t in self.terms]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate terms in basis {names}")
        if not self.terms or self.terms[0].factors:
            raise ValueError("first basis term must be the constant")

    @classmethod
    def parse(cls, text: str) -> "BasisSpec":
        return cls(tuple(parse_term(t) for t in text.split(",")))

    def __str__(self) -> str:
        return ",".join(str(t) for t in self.terms)

    @property
    def uses_m(self) -> bool:
        return any(t.uses_m for t in self.terms)

    @property
    def uses_y(self) -> bool:
        return any(t.uses_y for t in self.terms)

    def width(self, m_dim: int = 1) -> int:
        """Number of output columns; bare-m terms expand to m_dim columns."""
        return sum(t.width(m_dim) for t in self.terms)

    def column_names(self, m_dim: int = 1) -> list[str]:
        names = []
        for t in self.terms:
            if m_dim > 1 and t.uses_m:
                names.extend(f"{t}[{k}]" for k in range(m_dim))
            else:
                names.append(str(t))
        return names


def evaluate_basis_matrix(
    basis: BasisSpec,
    x: np.ndarray,
    m: Optional[np.ndarray] = None,
    y: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Evaluate every term for every row.

    x has shape (n, d); m, when given, has shape (n,) or (n, m_dim); y has
    shape (n,).  Terms referencing an absent variable raise.  With a
    multi-column M block only plain first-power m factors are allowed, and
    such terms expand to one column per M feature.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n, d = x.shape
    if m is not None:
        m = np.asarray(m, dtype=float)
        if m.ndim == 1:
            m = m[:, None]
    m_dim = 1 if m is None else m.shape[1]
    if y is not None:
        y = np.asarray(y, dtype=float)

    cols = []
    for term in basis.terms:
        if not term.factors:
            cols.append(np.ones(n))
            continue
        scalar = np.ones(n)
        m_block = None
        for var, power in term.factors:
            if var == "m":
                if m is None:
                    raise ValueError(f"term {term} references M but M is absent")
                if m_dim > 1:
                    if power != 1 or m_block is not None:
                        raise ValueError(
                            f"term {term}: only first-power m allowed with categorical M"
                        )
                    m_block = m
                else:
                    scalar = scalar * m[:, 0] ** power
            elif var == "y":
                if y is None:
                    raise ValueError(f"term {term} references Y but Y is absent")
                scalar = scalar * y**power
            else:
                j = int(var[1:]) - 1
                if not 0 <= j < d:
                    raise ValueError(f"term {term}: covariate {var} out of range (d={d})")
                scalar = scalar * x[:, j] ** power
        if m_block is not None:
            cols.append(scalar[:, None] * m_block)
        else:
            cols.append(scalar)
    return np.column_stack(cols)


@dataclass(frozen=True)
class CoefficientModel:
    basis: BasisSpec
    coefficients: tuple[float, ...]
    link: str = "identity"  # "identity" or "logistic"

    def __post_init__(self):
        if self.link not in ("identity", "logistic"):
            raise ValueError(f"unknown link {self.link!r}")
        if not all(math.isfinite(c) for c in self.coefficients):
            raise ValueError("non-finite coefficients")


class RankDeficientError(ValueError):
    def __init__(self, column: int, name: str = ""):
        self.column = column
        label = f" ({name})" if name else ""
        super().__init__(f"design matrix is rank deficient at column {column}{label}")


def _check_full_rank(design: np.ndarray, names: Optional[list[str]] = None) -> None:
    # Diagonal of the (unpivoted) QR factor vanishes at the first column that
    # is linearly dependent on its predecessors.
    r = np.linalg.qr(design, mode="r")
    diag = np.abs(np.diag(r))
    scale = max(np.abs(design).max(), 1.0) * max(design.shape)
    bad = np.where(diag <= _RANK_TOL * scale)[0]
    if design.shape[0] < design.shape[1]:
        bad = np.array([design.shape[0]]) if bad.size == 0 else bad
    if bad.size:
        j = int(bad[0])
        name = names[j] if names and j < len(names) else ""
        raise RankDeficientError(j, name)


def solve_least_squares(design: np.ndarray, target: np.ndarray,
                        names: Optional[list[str]] = None) -> np.ndarray:
    """Least-squares coefficients; raises RankDeficientError on a singular design."""
    design = np.asarray(design, dtype=float)
    target = np.asarray(target, dtype=float)
    _check_full_rank(design, names)
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    return coef


def logistic(z):
    """1 / (1 + exp(-z)), stable for large |z|."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    if out.ndim == 0:
        return float(out)
    return out


def fit_logistic(design: np.ndarray, outcome: np.ndarray,
                 max_iter: int = 50, tol: float = 1e-10) -> np.ndarray:
    """Logistic regression coefficients by Newton (IRLS)."""
    design = np.asarray(design, dtype=float)
    outcome = np.asarray(outcome, dtype=float)
    _check_full_rank(design)
    coef = np.zeros(design.shape[1])
    for _ in range(max_iter):
        p = logistic(design @ coef)
        w = np.clip(p * (1.0 - p), 1e-10, None)
        grad = design.T @ (outcome - p)
        hess = design.T @ (design * w[:, None])
        step = np.linalg.solve(hess, grad)
        coef = coef + step
        if np.max(np.abs(step)) < tol:
            break
    return coef


def calibration_weights(
    design: np.ndarray,
    theta: np.ndarray,
    offset=0.0,
    w_max: float = W_MAX,
) -> tuple[np.ndarray, np.ndarray]:
    """Reciprocal propensity w = min(1 + exp(-design.theta + offset), w_max).

    Also returns the slope -dw/d(design.theta): exp(-design.theta + offset)
    where w is below the cap, and 0 where the cap binds.
    """
    lin = offset - design @ theta
    e = np.exp(np.minimum(lin, 700.0))
    w = np.minimum(1.0 + e, w_max)
    return w, e * ((w < w_max) & (lin < 700.0))
