"""Basis evaluation, least squares, logistic pieces, and weight formulas."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnarfuse import models
from mnarfuse.models import (
    BasisSpec,
    RankDeficientError,
    calibration_slope,
    calibration_weights,
    capped_count,
    evaluate_basis_matrix,
    fit_logistic,
    logistic,
    solve_least_squares,
)


def test_basis_quadratic_point():
    basis = BasisSpec.parse("1,x1,x1^2")
    np.testing.assert_allclose(evaluate_basis_matrix(basis, [[2.0]])[0], [1.0, 2.0, 4.0])


def test_basis_with_m():
    basis = BasisSpec.parse("1,x1,m")
    np.testing.assert_allclose(evaluate_basis_matrix(basis, [[1.0]], m=[3.0])[0],
                               [1.0, 1.0, 3.0])


def test_basis_m_absent_raises():
    basis = BasisSpec.parse("1,m")
    with pytest.raises(ValueError, match="references M"):
        evaluate_basis_matrix(basis, [[1.0]])


def test_basis_categorical_m_expands():
    basis = BasisSpec.parse("1,m")
    out = evaluate_basis_matrix(basis, np.zeros((2, 1)),
                                np.array([[1.0, 0.0], [0.0, 1.0]]))
    np.testing.assert_allclose(out, [[1, 1, 0], [1, 0, 1]])


def _column_stack_basis(basis, x, m=None, y=None):
    """The basis matrix as np.column_stack of each term's column, or of its
    (n, m_dim) block for an m term with categorical M."""
    cols = []
    for term in basis.terms:
        scalar, block = np.ones(len(x)), None
        for var, power in term.factors:
            if var == "m" and m.ndim == 2:
                block = m
            elif var == "m":
                scalar = scalar * m**power
            elif var == "y":
                scalar = scalar * y**power
            else:
                scalar = scalar * x[:, int(var[1:]) - 1] ** power
        cols.append(scalar if block is None else scalar[:, None] * block)
    return np.column_stack(cols)


_BASIS_CASES = {
    "numeric-m": ("1,x1,x1^2,m,x1*m,m^2,x2*m^3", 1),
    "categorical-m2": ("1,x1,m,x1*m,x1^2*m", 2),
    "categorical-m3": ("1,x1,x2,m,x1*m,x2*m", 3),
    "y": ("1,x1,m,y,y^2,x1*y,m*y^2", 1),
    "categorical-y": ("1,m,y,x1*m,y^2*m", 3),
    "x-powers": ("1,x1,x1^2,x1^3,x2,x1*x2^2,x2^4", 0),
}


@pytest.mark.parametrize("n", [0, 1, 40])
@pytest.mark.parametrize("case", sorted(_BASIS_CASES))
def test_basis_matrix_matches_a_column_stack(case, n):
    text, m_dim = _BASIS_CASES[case]
    basis = BasisSpec.parse(text)
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 2))
    y = rng.normal(size=n) if "y" in text else None
    if m_dim == 0:
        m = None
    elif m_dim == 1:
        m = rng.normal(size=n)
    else:
        m = np.eye(m_dim)[rng.integers(m_dim, size=n)]
    out = evaluate_basis_matrix(basis, x, m, y)
    want = _column_stack_basis(basis, x, m, y)
    assert out.dtype == np.float64 and out.flags.c_contiguous
    assert out.shape == (n, basis.width(max(m_dim, 1))) == want.shape
    assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", ["numeric-m", "categorical-m2", "y"])
def test_basis_matrix_of_a_stack_is_each_members_matrix(case):
    # members with their own rows: x (K, n, d), m (K, n, m_dim), y (K, n)
    text, m_dim = _BASIS_CASES[case]
    basis = BasisSpec.parse(text)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 25, 2))
    y = rng.normal(size=(3, 25)) if "y" in text else None
    m = (rng.normal(size=(3, 25, 1)) if m_dim == 1
         else np.eye(m_dim)[rng.integers(m_dim, size=(3, 25))])
    out = evaluate_basis_matrix(basis, x, m, y)
    assert out.shape == (3, 25, basis.width(m_dim))
    for k in range(3):
        want = evaluate_basis_matrix(basis, x[k], m[k], None if y is None else y[k])
        assert out[k].tobytes() == want.tobytes()


@pytest.mark.parametrize("text,x,m,y,message", [
    ("1,x1*m", [[1.0]], None, None, "term x1*m references M but M is absent"),
    ("1,m,y^2", [[1.0]], [2.0], None, "term y^2 references Y but Y is absent"),
    ("1,x1,x3", [[1.0, 2.0]], None, None, "term x3: covariate x3 out of range (d=2)"),
])
def test_basis_matrix_names_what_a_term_lacks(text, x, m, y, message):
    with pytest.raises(ValueError) as excinfo:
        evaluate_basis_matrix(BasisSpec.parse(text), x, m, y)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("text, message", [
    ("x1^0", "bad power in term 'x1^0'"),
    ("1,x1*z", "unknown variable 'z' in term 'x1*z'"),
])
def test_a_basis_rejects_a_term_it_cannot_evaluate(text, message):
    with pytest.raises(ValueError) as excinfo:
        BasisSpec.parse(text)
    assert str(excinfo.value) == message


def test_a_categorical_m_block_takes_no_power():
    # a level indicator squared is itself: m^2 would repeat the m columns
    with pytest.raises(ValueError) as excinfo:
        evaluate_basis_matrix(BasisSpec.parse("1,m^2"), [[1.0]], m=[[1.0, 0.0]])
    assert str(excinfo.value) == "term m^2: only first-power m allowed with categorical M"


def test_least_squares_exact_interpolation():
    design = np.array([[1.0, 0.0], [1.0, 1.0]])
    coef = solve_least_squares(design, np.array([1.0, 3.0]))
    np.testing.assert_allclose(coef, [1.0, 2.0], atol=1e-12)


def test_least_squares_constant_target():
    rng = np.random.default_rng(0)
    x = rng.normal(size=40)
    design = np.column_stack([np.ones(40), x, x**2])
    coef = solve_least_squares(design, np.full(40, 7.0))
    np.testing.assert_allclose(coef, [7.0, 0.0, 0.0], atol=1e-10)


def _gaussian_elimination(a, b):
    """Independent normal-equations solver: plain pivoted elimination."""
    n = a.shape[0]
    aug = np.column_stack([a.astype(float), b.astype(float)])
    for col in range(n):
        pivot = col + np.argmax(np.abs(aug[col:, col]))
        aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = aug[col] / aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, -1]


def test_least_squares_matches_normal_equations_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=50)
    design = np.column_stack([np.ones(50), x, x**2])
    target = 1.0 - 2.0 * x + 0.5 * x**2 + rng.normal(scale=0.3, size=50)
    coef = solve_least_squares(design, target)
    oracle = _gaussian_elimination(design.T @ design, design.T @ target)
    np.testing.assert_allclose(coef, oracle, atol=1e-8)


def test_least_squares_rank_deficiency_names_column():
    design = np.column_stack([np.ones(10), np.full(10, 2.0)])
    with pytest.raises(RankDeficientError) as err:
        solve_least_squares(design, np.zeros(10), names=["1", "x1"])
    assert err.value.column == 1
    assert "x1" in str(err.value)


def test_logistic_values():
    assert logistic(0.0) == 0.5
    assert abs(logistic(1.4) - 0.8022) < 1e-4


@settings(max_examples=100, deadline=None)
@given(st.floats(-500, 500))
def test_logistic_symmetry(z):
    assert abs(logistic(z) + logistic(-z) - 1.0) < 1e-12


def test_logistic_extreme_arguments_stable():
    assert logistic(800.0) == 1.0
    assert logistic(-800.0) == 0.0


def _tilt_weight(x, y, theta):
    """Weight and slope of one row under the basis 1, x1, y with theta =
    (alpha_0, alpha_1, gamma)."""
    design = evaluate_basis_matrix(BasisSpec.parse("1,x1,y"), [[x]], y=[y])
    theta = np.asarray(theta, dtype=float)
    w = calibration_weights(design, theta)
    slope = calibration_slope(design, theta)
    return w[0], slope[0]


def test_weight_gamma_zero_intercept_zero():
    w, _ = _tilt_weight(0.0, 1.0, [0.0, 0.0, 0.0])
    assert w == pytest.approx(2.0)


def test_weight_gamma_zero_reduces_to_reciprocal_propensity():
    for x in (-1.0, 0.0, 2.0):
        w, _ = _tilt_weight(x, 5.0, [0.5, 0.4, 0.0])
        assert w == pytest.approx(1.0 / logistic(0.5 + 0.4 * x))


def test_weight_scalar_example():
    w, slope = _tilt_weight(0.0, 1.0, [0.5, 0.4, -0.3])
    assert abs(w - (1.0 + np.exp(0.3 - 0.5))) < 1e-12
    assert abs(w - 1.8187) < 1e-4
    assert slope == pytest.approx(w - 1.0, abs=1e-15)


def test_weight_cap_counted():
    w, slope = _tilt_weight(0.0, 0.0, [-50.0, 0.0, 0.0])
    assert w == 1e6
    assert slope == 0.0
    assert capped_count(np.array([w, 2.0])) == 1


def test_a_patched_cap_moves_the_weight_its_slope_and_the_count(monkeypatch):
    # the cap is read when the functions are called, not when they are defined
    monkeypatch.setattr(models, "W_MAX", 3.0)
    capped, slope = _tilt_weight(0.0, 0.0, [-1.0, 0.0, 0.0])  # 1 + e = 3.72
    assert capped == 3.0 and slope == 0.0
    below, slope = _tilt_weight(0.0, 0.0, [0.0, 0.0, 0.0])
    assert below == 2.0 and slope == 1.0
    assert capped_count(np.array([capped, below])) == 1


def test_fit_logistic_recovers_coefficients():
    rng = np.random.default_rng(3)
    x = rng.normal(size=20000)
    design = np.column_stack([np.ones(x.size), x])
    p = logistic(0.4 - 0.7 * x)
    outcome = (rng.random(x.size) < p).astype(float)
    coef = fit_logistic(design, outcome)
    np.testing.assert_allclose(coef, [0.4, -0.7], atol=0.06)


def test_basis_rejects_duplicates_and_missing_constant():
    with pytest.raises(ValueError):
        BasisSpec.parse("1,x1,x1")
    with pytest.raises(ValueError):
        BasisSpec.parse("x1,1")
