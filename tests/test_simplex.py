import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from whitney_lab.simplex import (
    SimplexError,
    _interpolation_rows,
    simplex_solve,
    solve_minimax,
    solve_weighted_l1,
)


def test_basic_standard_form():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6  ->  min -(x + y)
    A = np.array([[1.0, 2.0, 1.0, 0.0], [3.0, 1.0, 0.0, 1.0]])
    b = np.array([4.0, 6.0])
    c = np.array([-1.0, -1.0, 0.0, 0.0])
    x, val = simplex_solve(A, b, c, [2, 3])
    assert val == pytest.approx(-2.8)
    assert x[0] == pytest.approx(1.6)
    assert x[1] == pytest.approx(1.2)


def test_degenerate_problem_terminates():
    # multiple constraints meet at the optimum; Bland fallback keeps it finite
    A = np.hstack([np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]]), np.eye(3)])
    b = np.array([1.0, 1.0, 1.0])
    c = np.array([-1.0, -2.0, 0.0, 0.0, 0.0])
    x, val = simplex_solve(A, b, c, [2, 3, 4])
    assert val == pytest.approx(-2.0)


def test_iteration_cap_raises():
    A = np.array([[1.0, 1.0]])
    b = np.array([1.0])
    c = np.array([-1.0, 0.0])
    with pytest.raises(SimplexError, match="iteration cap"):
        simplex_solve(A, b, c, [1], max_iter=0)


def test_minimax_best_constant():
    # best uniform constant for values y is (max + min) / 2
    y = np.array([0.0, 0.3, 1.0, 0.1])
    design = np.ones((4, 1))
    coef, value = solve_minimax(design, y)
    assert coef[0] == pytest.approx(0.5)
    assert value == pytest.approx(0.5)


def test_minimax_matches_exhaustive_small_case():
    rng = np.random.default_rng(7)
    xs = np.linspace(-1, 1, 9)
    design = np.stack([np.ones_like(xs), xs], axis=1)
    y = rng.normal(size=9)
    coef, value = solve_minimax(design, y)
    # verify first-order optimality by random perturbation
    base = np.max(np.abs(y - design @ coef))
    assert value == pytest.approx(base, abs=1e-9)
    for _ in range(200):
        trial = coef + rng.normal(scale=1e-3, size=2)
        assert np.max(np.abs(y - design @ trial)) >= base - 1e-12


def test_weighted_l1_best_constant_is_weighted_median():
    y = np.array([0.0, 1.0, 10.0])
    w = np.array([1.0, 1.0, 1.0])
    design = np.ones((3, 1))
    coef, value = solve_weighted_l1(design, y, w)
    assert coef[0] == pytest.approx(1.0)  # the median
    assert value == pytest.approx(10.0)


def test_weighted_l1_perturbation_optimality():
    rng = np.random.default_rng(3)
    xs = np.linspace(0, 1, 11)
    design = np.stack([np.ones_like(xs), xs, xs ** 2], axis=1)
    y = np.sin(3 * xs)
    w = np.full(11, 1.0 / 11)
    coef, value = solve_weighted_l1(design, y, w)
    base = float(w @ np.abs(y - design @ coef))
    assert value == pytest.approx(base, abs=1e-10)
    for _ in range(200):
        trial = coef + rng.normal(scale=1e-3, size=3)
        assert float(w @ np.abs(y - design @ trial)) >= base - 1e-12


def test_minimax_value_is_residual_of_its_coefficients():
    # a row at 1e-8 sits below the solver's tolerance at the problem's scale;
    # the basic value of u reads 0 there, the coefficients leave ~3.3e-9
    design = np.array([[1e-8, 0.0], [0.0, 1.0], [3.0, 0.0]])
    y = np.array([0.0, 1.0, 1.0])
    coef, value = solve_minimax(design, y)
    assert value == np.max(np.abs(y - design @ coef))
    assert value == pytest.approx(1e-8 / (3.0 + 1e-8), rel=1e-6)


def test_weighted_l1_value_is_residual_of_its_coefficients():
    design = np.array([[1e-8, 0.0], [0.0, 1.0], [3.0, 0.0], [1.0, 1.0]])
    y = np.array([0.0, 1.0, 1.0, 2.0])
    w = np.array([1.0, 0.5, 0.25, 1.0])
    coef, value = solve_weighted_l1(design, y, w)
    assert value == float(w @ np.abs(y - design @ coef))


@st.composite
def _l1_problems(draw):
    """A small weighted-L1 fit, with entries zero or of size at least 1/8."""
    k = draw(st.integers(1, 4))
    m = draw(st.integers(k + 1, 12))
    entries = st.one_of(st.just(0.0), st.floats(0.125, 4.0), st.floats(-4.0, -0.125))
    design = draw(hnp.arrays(np.float64, (m, k), elements=entries))
    assume(np.linalg.matrix_rank(design) == k and np.linalg.cond(design) < 1e6)
    targets = draw(hnp.arrays(np.float64, m, elements=entries))
    weights = draw(hnp.arrays(np.float64, m, elements=st.floats(0.01, 1.0)))
    return design, targets, weights


def _l1_lp(design, targets, weights):
    """solve_weighted_l1's LP with the all-slack basis (coefficients 0):
    ``A``, the cost, that basis and the implicit slacks ``(rows, signs)``."""
    m, k = design.shape
    A = np.hstack([design, -design])
    cost = np.concatenate([np.zeros(2 * k), weights, weights])
    basis = np.where(targets >= 0.0, 2 * k + np.arange(m), 2 * k + m + np.arange(m))
    return A, cost, basis, (np.tile(np.arange(m), 2), np.repeat([1.0, -1.0], m))


def _cold_l1(design, targets, weights):
    """Coefficients and objective of the L1 fit solved from the all-slack basis."""
    k = design.shape[1]
    A, cost, basis, slacks = _l1_lp(design, targets, weights)
    x, value = simplex_solve(A, targets, cost, basis, slacks=slacks)
    return x[:k] - x[k:2 * k], value


@settings(max_examples=60, deadline=None)
@given(_l1_problems())
def test_implicit_slacks_match_slack_columns_in_A(problem):
    # solve_weighted_l1's LP, once with its slacks implicit and once with the
    # same +e_j and -e_j columns written into A: the same optimum
    design, targets, weights = problem
    m = design.shape[0]
    A, cost, basis, slacks = _l1_lp(design, targets, weights)
    _, implicit = simplex_solve(A, targets, cost, basis, slacks=slacks)
    _, explicit = simplex_solve(np.hstack([A, np.eye(m), -np.eye(m)]), targets, cost, basis)
    assert abs(implicit - explicit) <= 1e-9 * (1.0 + abs(explicit))


@settings(max_examples=100, deadline=None)
@given(_l1_problems())
def test_warm_start_reaches_the_cold_optimum(problem):
    # solve_weighted_l1 starts from the basis interpolating its L2 fit's best
    # rows; the simplex from coefficients 0 must reach the same objective
    design, targets, weights = problem
    _, value = solve_weighted_l1(design, targets, weights)
    _, cold = _cold_l1(design, targets, weights)
    assert abs(value - cold) <= 1e-9 * (1.0 + np.abs(targets).max())


def test_interpolation_rows_skip_dependent_duplicates():
    # four copies of the row at x = 0 carry the L2 fit's smallest residuals;
    # only one of them raises the rank, the next row kept is the best other one
    xs = np.array([0.0, 0.0, 0.0, 0.0, 1.0, -1.0, 2.0, 0.5, 3.0])
    design = np.stack([np.ones_like(xs), xs], axis=1)
    targets = np.array([0.0, 0.0, 0.0, 0.0, 1.0, -1.5, -1.0, 0.8, 1.2])
    weights = np.ones(xs.size)
    weighted = design.T * weights
    l2 = np.linalg.solve(weighted @ design, weighted @ targets)
    order = np.argsort(np.abs(targets - design @ l2), kind="stable")
    assert order.tolist()[:5] == [0, 1, 2, 3, 8]
    assert _interpolation_rows(design, targets, weights).tolist() == [0, 8]
    coef, value = solve_weighted_l1(design, targets, weights)
    cold_coef, cold = _cold_l1(design, targets, weights)
    assert abs(value - cold) <= 1e-12
    assert np.allclose(coef, cold_coef, atol=1e-12)


def test_rank_deficient_design_starts_from_the_slack_basis():
    # the second column is twice the first: no two independent rows, so the
    # fit runs from coefficients 0, exactly as the cold LP does
    xs = np.array([0.5, 1.0, -2.0, 3.0, 0.25])
    design = np.stack([xs, 2.0 * xs], axis=1)
    targets = np.array([1.0, 2.5, -3.0, 5.0, -0.5])
    weights = np.array([1.0, 0.5, 0.25, 1.0, 0.75])
    assert _interpolation_rows(design, targets, weights) is None
    coef, _ = solve_weighted_l1(design, targets, weights)
    cold_coef, _ = _cold_l1(design, targets, weights)
    assert np.array_equal(coef, cold_coef)
