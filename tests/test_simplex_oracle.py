"""The fitting LPs against an independent LP solver (scipy's HiGHS, test-only)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from whitney_lab.simplex import solve_minimax, solve_weighted_l1

linprog = pytest.importorskip("scipy.optimize").linprog

HIGHS_TOL = {"primal_feasibility_tolerance": 1e-10,
             "dual_feasibility_tolerance": 1e-10}
# zero or at least 1/8 in size: the solver's tolerances are absolute at the
# problem's scale (PIVOT_TOL * (1 + max|c| + max|b|)), so entries near 1e-8
# are resolved only to that tolerance and would test it, not the optimum
entries = st.one_of(st.just(0.0), st.floats(0.125, 4.0), st.floats(-4.0, -0.125))


def _close(value, reference, targets):
    # 1e-9 relative to the problem's scale: both solvers work to tolerances of
    # that scale, so optima of data at 1e-10 agree only to about 1e-10
    return abs(value - reference) <= 1e-9 * (1.0 + np.abs(targets).max())


def _highs_coef(c, k, **constraints):
    # HiGHS's own objective can sit a feasibility tolerance away from the
    # objective of its coefficients on badly scaled rows, so callers re-measure
    res = linprog(c, bounds=[(None, None)] * k + [(0, None)] * (c.size - k),
                  method="highs", options=HIGHS_TOL, **constraints)
    assert res.status == 0, res.message
    return res.x[:k]


@st.composite
def designs(draw):
    """Small full-column-rank designs with targets and positive weights."""
    k = draw(st.integers(1, 6))
    m = draw(st.integers(k + 1, 40))
    design = draw(hnp.arrays(np.float64, (m, k), elements=entries))
    assume(np.linalg.matrix_rank(design) == k and np.linalg.cond(design) < 1e6)
    targets = draw(hnp.arrays(np.float64, m, elements=entries))
    weights = draw(hnp.arrays(np.float64, m, elements=st.floats(0.01, 1.0)))
    return design, targets, weights


def _minimax_oracle(design, targets):
    # min u over (coef, u) with -u <= targets - design @ coef <= u
    m, k = design.shape
    ones = np.ones((m, 1))
    c = np.zeros(k + 1)
    c[-1] = 1.0
    coef = _highs_coef(c, k, A_ub=np.block([[-design, -ones], [design, -ones]]),
                       b_ub=np.concatenate([-targets, targets]))
    return np.abs(targets - design @ coef).max()


def _l1_oracle(design, targets, weights):
    # min w @ (s+ + s-) over (coef, s+, s-) with design @ coef + s+ - s- = targets
    m, k = design.shape
    eye = np.eye(m)
    coef = _highs_coef(np.concatenate([np.zeros(k), weights, weights]), k,
                       A_eq=np.hstack([design, eye, -eye]), b_eq=targets)
    return float(weights @ np.abs(targets - design @ coef))


@settings(max_examples=60, deadline=None)
@given(designs())
def test_minimax_optimum_matches_highs(problem):
    design, targets, _ = problem
    coef, value = solve_minimax(design, targets)
    assert _close(value, _minimax_oracle(design, targets), targets)
    assert _close(np.abs(targets - design @ coef).max(), value, targets)


@settings(max_examples=60, deadline=None)
@given(designs())
def test_weighted_l1_optimum_matches_highs(problem):
    design, targets, weights = problem
    coef, value = solve_weighted_l1(design, targets, weights)
    assert _close(value, _l1_oracle(design, targets, weights), targets)
    assert _close(float(weights @ np.abs(targets - design @ coef)), value, targets)


@pytest.mark.parametrize("draw", [
    lambda rng, m: 5.0 + rng.standard_normal(m),
    lambda rng, m: rng.lognormal(0.0, 1.5, m),
], ids=["normal", "lognormal"])
def test_weighted_median_walks_many_breakpoints(draw):
    # k = 1: the fit starts at the target nearest the weighted mean (the
    # weighted L2 fit) and walks across the sorted targets between it and the
    # weighted median, one slack-for-slack pivot per breakpoint crossed: 2
    # for the normal targets and about 41 for the skewed lognormal ones, whose
    # mean sits far into the long tail, against 82 from coefficient 0
    rng = np.random.default_rng(11)
    m = 169
    design = np.ones((m, 1))
    targets = draw(rng, m)
    weights = rng.uniform(0.1, 1.0, m)
    coef, value = solve_weighted_l1(design, targets, weights)
    assert _close(value, _l1_oracle(design, targets, weights), targets)
    assert _close(float(weights @ np.abs(targets - design @ coef)), value, targets)


def test_minimax_with_a_thousand_rows():
    # 500 points give 1,000 LP rows: -u <= targets - design @ coef <= u
    xs = np.linspace(-1.0, 1.0, 500)
    design = np.polynomial.legendre.legvander(xs, 4)
    targets = np.exp(xs) + np.abs(xs - 0.3) ** 0.5
    coef, value = solve_minimax(design, targets)
    assert _close(value, _minimax_oracle(design, targets), targets)
    assert _close(np.abs(targets - design @ coef).max(), value, targets)
