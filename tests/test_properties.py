"""Property tests: the polynomial class is annihilated, and every norm path
measures with the same tensor rule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitney_lab.differences import total_modulus, total_p_mean_modulus
from whitney_lab.geometry import Parallelepiped, QuadratureSpec, lp_norm
from whitney_lab.polyapprox import LEGENDRE, TensorPolynomial, best_approx
from whitney_lab.smoother import _identity_op, _smoothed_lp_norm

PS = [1.0, 2.0, math.inf]


@st.composite
def polynomial_cases(draw):
    """A random member of the order-r class on a random box, a step and a p."""
    d = draw(st.integers(1, 2))
    r = tuple(draw(st.integers(1, 3)) for _ in range(d))
    lower = [draw(st.floats(-1.0, 1.0)) for _ in range(d)]
    size = [draw(st.floats(0.5, 2.0)) for _ in range(d)]
    box = Parallelepiped(lower, [a + s for a, s in zip(lower, size)])
    coef = np.asarray(draw(st.lists(st.floats(-2.0, 2.0), min_size=int(np.prod(r)),
                                    max_size=int(np.prod(r))))).reshape(r)
    t = tuple(draw(st.floats(0.05, 1.0)) * s for s in size)
    p = draw(st.sampled_from(PS))
    return TensorPolynomial(r, coef, LEGENDRE, box), r, t, p


@settings(max_examples=20, deadline=None)
@given(polynomial_cases())
def test_polynomial_class_is_annihilated(case):
    poly, r, t, p = case
    box, quad = poly.box, QuadratureSpec.for_dim(len(r), 6, 9)
    # round-off of differences and fits at the problem's scale
    tol = 1e-11 * (1.0 + lp_norm(poly, box, math.inf, quad)) * (1.0 + box.volume())
    assert total_modulus(poly, r, t, p, box, 5, quad) <= tol
    assert total_p_mean_modulus(poly, r, t, p, box, quad, 3, 5) <= tol
    _, err = best_approx(poly, r, p, box, quad=quad)
    assert err <= tol


@settings(max_examples=20, deadline=None)
@given(polynomial_cases())
def test_identity_stencil_norm_is_lp_norm(case):
    poly, r, _, p = case
    box, quad = poly.box, QuadratureSpec.for_dim(len(r), 6, 9)
    ops = tuple(_identity_op() for _ in r)
    assert _smoothed_lp_norm(ops, poly, p, box, quad) == pytest.approx(
        lp_norm(poly, box, p, quad), rel=1e-12, abs=1e-300)
    assert _smoothed_lp_norm(ops, poly, p, box, quad, subtract_base=True) == 0.0
