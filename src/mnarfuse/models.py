"""Feature bases and the small parametric models used as nuisance components.

A basis is an ordered list of monomial terms over the covariate features, the
(expanded) auxiliary variable M, and the outcome Y; `polynomial_basis` builds
the estimators' default bases.  The calibrated reciprocal propensity of the
IPW estimators is `calibration_weights`, its slope `calibration_slope`, and
`capped_count` counts the weights at the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# Reciprocal-propensity weights are capped here; equivalently the propensity
# is floored at 1/W_MAX.  Every cap event is counted by the estimators.  Read
# only by the calibration functions below, when called: a patched cap moves
# the weights, their slope's kink and the cap count together.
W_MAX = 1e6

_RANK_TOL = 1e-10

# Largest precomputed table of row-wise outer products (weighted_cross_products).
_PRODUCT_BYTES = 1 << 22

# Largest condition number of Q0^T diag(w) Q0 that _shared_qr_solve solves:
# its p x p solve loses about that times the machine epsilon, where the QR
# of the weighted design loses only cond(diag(sqrt w) D) times it.
_GRAM_COND = 1e4


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

    def width(self, m_dim: int = 1) -> int:
        """Number of output columns; bare-m terms expand to m_dim columns."""
        return sum(t.width(m_dim) for t in self.terms)

    def column_names(self, covariates: Sequence[str] = ()) -> list[str]:
        """Each term as text, covariate xj spelled covariates[j - 1] when
        covariates are given."""
        spelled = {f"x{j}": name for j, name in enumerate(covariates, 1)}
        return [str(Term(tuple((spelled.get(var, var), power) for var, power in t.factors)))
                for t in self.terms]


def polynomial_basis(d: int, degree: int = 1, m: bool = False) -> BasisSpec:
    """1, x1, ..., x1^degree, ..., xd, ..., xd^degree, then m when asked:
    the default bases of the estimators over d covariates."""
    powers = [f"x{j}" if p == 1 else f"x{j}^{p}"
              for j in range(1, d + 1) for p in range(1, degree + 1)]
    return BasisSpec.parse(",".join(["1", *powers] + (["m"] if m else [])))


def evaluate_basis_matrix(
    basis: BasisSpec,
    x: np.ndarray,
    m: Optional[np.ndarray] = None,
    y: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Evaluate every term for every row.

    x has shape (n, d); m, when given, has shape (n,) or (n, m_dim); y has
    shape (n,).  Rows may carry a leading member axis, the (K, n, ...) stack
    of members with their own rows: x (K, n, d), m (K, n, m_dim), y (K, n)
    give (K, n, width).  Terms referencing an absent variable raise.  With a
    multi-column M block only plain first-power m factors are allowed, and
    such terms expand to one column per M feature.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    if m is not None:
        m = np.asarray(m, dtype=float)
        if m.ndim == 1:
            m = m[:, None]
    m_dim = 1 if m is None else m.shape[-1]
    if y is not None:
        y = np.asarray(y, dtype=float)

    out = np.empty(x.shape[:-1] + (basis.width(m_dim),))
    col = 0  # the term's first column in out
    for term in basis.terms:
        scalar = np.ones(x.shape[:-1])
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
                    scalar = scalar * m[..., 0] ** power
            elif var == "y":
                if y is None:
                    raise ValueError(f"term {term} references Y but Y is absent")
                scalar = scalar * y**power
            else:
                j = int(var[1:]) - 1
                if not 0 <= j < d:
                    raise ValueError(f"term {term}: covariate {var} out of range (d={d})")
                scalar = scalar * x[..., j] ** power
        if m_block is not None:
            np.multiply(scalar[..., None], m_block, out=out[..., col:col + m_dim])
        else:
            out[..., col] = scalar
        col += term.width(m_dim)
    return out


class RankDeficientError(ValueError):
    def __init__(self, column: int, name: str = ""):
        self.column = column
        label = f" ({name})" if name else ""
        super().__init__(f"design matrix is rank deficient at column {column}{label}")


def _weighted_qr(design: np.ndarray, weights: Optional[np.ndarray], mode: str):
    """QR factors of each member's design: the rows scaled by the root of the
    member's frequency weights, or the design itself when weights is None."""
    if weights is None:
        factors = np.linalg.qr(design, mode=mode)
        return factors[None] if mode == "r" else tuple(f[None] for f in factors)
    return np.linalg.qr(np.sqrt(weights)[:, :, None] * design, mode=mode)


def _dependent_columns(design: np.ndarray, weights: Optional[np.ndarray],
                       r: np.ndarray) -> np.ndarray:
    """For each member, the first column of the design that depends linearly
    on its predecessors, or -1.

    The diagonal of the (unpivoted) QR factor r vanishes at such a column,
    relative to max|design| over the rows in use times their number; with
    fewer rows than columns, every column from column `rows` on is.  A
    member with frequency weights gets the test of the design with each row
    repeated as often as its weight says.
    """
    n, p = design.shape[-2:]
    if weights is None:
        rows, top = np.array([n]), np.abs(design).max(initial=0.0)
    else:
        rows = weights.sum(axis=1)
        top = (np.abs(design) * (weights > 0)[..., None]).max(axis=(-2, -1), initial=0.0)
    limit = _RANK_TOL * np.maximum(top, 1.0) * np.maximum(rows, p)
    diag = np.zeros((rows.size, p))
    diag[:, :min(n, p)] = np.diagonal(r, axis1=1, axis2=2)
    bad = (np.abs(diag) <= limit[:, None]) | (np.arange(p) >= rows[:, None])
    return np.where(bad.any(axis=1), bad.argmax(axis=1), -1)


def _raise_if_dependent(bad: np.ndarray, names: Optional[list[str]] = None) -> None:
    if bad[0] >= 0:
        j = int(bad[0])
        raise RankDeficientError(j, names[j] if names and j < len(names) else "")


def linear_predictor(design: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """design.theta of each member of a stack, (K, n), for theta (K, p) and
    rows shared by the members, design (n, p), or their own, (K, n, p)."""
    if design.ndim == 2:
        return theta @ design.T
    return (design @ theta[:, :, None])[:, :, 0]


def member_sums(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_i weights[k, i] rows[i] of each member of a stack, (K, q), for
    rows shared by the members, (n, q), or sum_i weights[k, i] rows[k, i]
    for their own, (K, n, q)."""
    if rows.ndim == 2:
        return weights @ rows
    return (weights[:, None, :] @ rows)[:, 0, :]


def weighted_cross_products(a: np.ndarray, b: np.ndarray):
    """The function mapping weights (K, n) to the stack of
    a^T diag(weights[k]) b, shape (K, q, p), for a (n, q) and b (n, p), or
    a[k]^T diag(weights[k]) b[k] for members with their own rows, a (K, n, q)
    and b (K, n, p).

    While shared rows fit in _PRODUCT_BYTES, the outer products of the rows
    of a and b are formed once, and each call is one matrix product of the
    weights with them, which is fast for a stack.  Otherwise each call
    scales a by the weights, which takes no more memory than one copy of a
    per member.  Members' own rows are used too few times to repay a table;
    a contiguous copy of them, which is small, is.
    """
    if a.ndim == 3:
        a_t = np.ascontiguousarray(a.transpose(0, 2, 1))
        return lambda weights: (a_t * weights[:, None, :]) @ b
    (n, q), p = a.shape, b.shape[1]
    if n * q * p * 8 > _PRODUCT_BYTES:
        return lambda weights: (a.T * weights[:, None, :]) @ b
    a_t, b_t = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    products = (a_t[:, None, :] * b_t[None, :, :]).reshape(-1, n).T
    return lambda weights: (weights @ products).reshape(-1, q, p)


def _qr_solve(design: np.ndarray, rhs: np.ndarray, weights: Optional[np.ndarray],
              names: Optional[list[str]] = None) -> np.ndarray:
    """solve_least_squares by a QR of each member's weighted design: the
    (K, p, t) coefficients of rhs (..., n, t), NaN for a rank deficient
    member."""
    q, r = _weighted_qr(design, weights, "reduced")
    bad = _dependent_columns(design, weights, r)
    if weights is None:
        _raise_if_dependent(bad, names)
    rhs = rhs[None] if weights is None else np.sqrt(weights)[:, :, None] * rhs
    ok = bad < 0
    if ok.all():
        return np.linalg.solve(r, q.transpose(0, 2, 1) @ rhs)
    coef = np.full((bad.size, design.shape[-1], rhs.shape[-1]), np.nan)
    if ok.any():
        coef[ok] = np.linalg.solve(r[ok], q[ok].transpose(0, 2, 1) @ rhs[ok])
    return coef


def _shared_qr_solve(design: np.ndarray, rhs: np.ndarray,
                     weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """solve_least_squares of the members that share the rows of design
    (n, p), n >= p, and rhs (n, t), from one QR of design, D = Q0 R0: the
    (K, p, t) coefficients R0^-1 M^-1 C, with M = Q0^T diag(w) Q0 and
    C = Q0^T diag(w) rhs, and the mask of the members certified to pass
    _dependent_columns.

    |diag R| of a member's own QR is at least sigma_min(diag(sqrt w) D),
    which is at least sqrt(lambda_min(M)) sigma_min(R0).  A member is
    certified when that bound is twice _dependent_columns' limit, computed
    with max|D| over all rows, and M's condition number is below _GRAM_COND,
    so that lambda_min(M) and M^-1 C are accurate; its coefficients are
    then those of the QR to rounding.  The other members' coefficients are
    left for _qr_solve.
    """
    p = design.shape[1]
    q0, r0 = np.linalg.qr(design)
    products = weighted_cross_products(q0, np.hstack([q0, rhs]))(weights)
    m, c = products[:, :, :p], products[:, :, p:]
    eig = np.linalg.eigvalsh(m)
    rows = weights.sum(axis=1)
    limit = _RANK_TOL * max(np.abs(design).max(), 1.0) * np.maximum(rows, p)
    floor = np.sqrt(np.maximum(eig[:, 0], 0.0)) * np.linalg.svd(r0, compute_uv=False)[-1]
    ok = (rows >= p) & (eig[:, 0] * _GRAM_COND > eig[:, -1]) & (floor > 2.0 * limit)
    coef = np.full(c.shape, np.nan)
    coef[ok] = np.linalg.solve(r0, np.linalg.solve(m[ok], c[ok]))
    return coef, ok


def solve_least_squares(design: np.ndarray, target: np.ndarray,
                        names: Optional[list[str]] = None,
                        weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Least-squares coefficients by QR; raises RankDeficientError on a
    singular design.

    With (K, n) frequency weights, the K weighted fits are solved together
    and their coefficients are stacked on a new first axis; a fit whose
    weighted design is rank deficient gets NaN instead of raising.  The K
    fits share the rows of a design (n, p) and target (n, ...), or have
    their own, design (K, n, p) and target (K, n, ...).

    Fits that share their rows are solved from one QR of the design, each
    by two p x p solves (see _shared_qr_solve), when their weighted design
    is certified to be of full rank with a margin; the others, and fits with
    their own rows, by a QR of each fit's weighted design.  The rank test,
    and so the pattern of NaN, is the same either way.
    """
    design = np.asarray(design, dtype=float)
    target = np.asarray(target, dtype=float)
    rhs = target.reshape(*design.shape[:-1], -1)
    if weights is None or design.ndim == 3 or len(design) < design.shape[1]:
        coef = _qr_solve(design, rhs, weights, names)
    else:
        coef, ok = _shared_qr_solve(design, rhs, weights)
        if not ok.all():
            coef[~ok] = _qr_solve(design, rhs, weights[~ok])
    coef = coef.reshape(len(coef), design.shape[-1], *target.shape[design.ndim - 1:])
    return coef[0] if weights is None else coef


def logistic(z):
    """1 / (1 + exp(-z)), stable for large |z|: with e = exp(-|z|), which
    cannot overflow, it is 1 / (1 + e) for z >= 0 and e / (1 + e) below.
    The numerator is exp(min(z, 0)) rather than a select between the two,
    which is slow on mixed signs."""
    z = np.asarray(z, dtype=float)
    out = np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))
    if out.ndim == 0:
        return float(out)
    return out


def dependent_columns(design: np.ndarray, weights: Optional[np.ndarray] = None,
                      names: Optional[list[str]] = None) -> np.ndarray:
    """For each member, the first column of its design that depends linearly
    on its predecessors, or -1 (see _dependent_columns); the members are
    weighted as in solve_least_squares.  Raises RankDeficientError, naming
    the column by `names`, on a rank deficient design when weights is None."""
    bad = _dependent_columns(design, weights, _weighted_qr(design, weights, "r"))
    if weights is None:
        _raise_if_dependent(bad, names)
    return bad


def fit_logistic(design: np.ndarray, outcome: np.ndarray,
                 max_iter: int = 50, tol: float = 1e-10) -> np.ndarray:
    """Logistic regression coefficients by Newton (IRLS), iterated until the
    step is below tol.  Raises RankDeficientError on a rank deficient design
    and LinAlgError on a singular Hessian."""
    design = np.asarray(design, dtype=float)
    outcome = np.asarray(outcome, dtype=float)
    dependent_columns(design)
    coef = np.zeros(design.shape[1])
    for _ in range(max_iter):
        p = logistic(design @ coef)
        w = np.clip(p * (1.0 - p), 1e-10, None)
        step = np.linalg.solve((design.T * w) @ design, design.T @ (outcome - p))
        coef += step
        if np.abs(step).max() < tol:
            break
    return coef


def _calibration_exp(design: np.ndarray, theta: np.ndarray) -> tuple:
    """The linear predictor -design.theta and its exponential, held finite
    by evaluating it at no more than 700."""
    lin = -linear_predictor(design, theta)
    return lin, np.exp(np.minimum(lin, 700.0))


def calibration_weights(design: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Reciprocal propensity w = min(1 + exp(-design.theta), W_MAX).

    A (K, p) stack of theta gives (K, n) weights, on rows shared by the
    members, design (n, p), or on their own, (K, n, p).
    """
    return np.minimum(1.0 + _calibration_exp(design, theta)[1], W_MAX)


def calibration_slope(design: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The slope -dw/d(design.theta) of `calibration_weights`:
    exp(-design.theta) where w is below the cap, and 0 where the cap binds.
    A (K, p) stack of theta gives (K, n) slopes.
    """
    lin, e = _calibration_exp(design, theta)
    return e * ((1.0 + e < W_MAX) & (lin < 700.0))


def capped_count(weights: np.ndarray) -> int:
    """How many of the calibration weights sit at the cap W_MAX."""
    return int(np.sum(weights >= W_MAX))
