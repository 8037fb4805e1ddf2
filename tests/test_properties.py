"""Property tests: the polynomial class is annihilated, every norm path
measures with the same tensor rule, the batched moduli agree with per-step
loops, the pruned step search keeps every bit, and the total modulus grows
with t."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitney_lab.differences import (
    mixed_difference,
    modulus,
    p_mean_modulus,
    total_modulus,
    total_p_mean_modulus,
)
from whitney_lab.functions import corpus, get_function
from whitney_lab.geometry import (
    GAUSS,
    Parallelepiped,
    QuadratureSpec,
    axis_rule,
    lp_norm,
    lp_power_integral,
    project,
    shifted_domain,
    subsets,
    tensor_quadrature,
)
from whitney_lab.polyapprox import TensorPolynomial, best_approx
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
    return TensorPolynomial(coef, box), r, t, p


@settings(max_examples=20, deadline=None)
@given(polynomial_cases())
def test_polynomial_class_is_annihilated(case):
    poly, r, t, p = case
    box, quad = poly.box, QuadratureSpec(6, 9)
    # round-off of differences and fits at the problem's scale
    volume = float(np.prod(box.size()))
    tol = 1e-11 * (1.0 + lp_norm(poly, box, math.inf, quad)) * (1.0 + volume)
    assert total_modulus(poly, r, t, p, box, quad=quad, h_grid=5) <= tol
    assert total_p_mean_modulus(poly, r, t, p, box, quad=quad, h_grid=5, mean_nodes=3) <= tol
    _, err = best_approx(poly, r, p, box, quad=quad)
    assert err <= tol


@settings(max_examples=20, deadline=None)
@given(polynomial_cases())
def test_identity_stencil_norm_is_lp_norm(case):
    poly, r, _, p = case
    box, quad = poly.box, QuadratureSpec(6, 9)
    ops, grid = tuple(_identity_op() for _ in r), tensor_quadrature(box, quad, p)
    assert _smoothed_lp_norm(ops, poly, p, grid) == pytest.approx(
        lp_norm(poly, box, p, quad), rel=1e-12, abs=1e-300)
    assert _smoothed_lp_norm(ops, poly, p, grid, subtract_base=True) == 0.0


# functions that are not even about any point of the box, per dimension
ODD_IDS = {1: ("exp_d1", "abspow_d1"), 2: ("exp_d2", "abspow_d2")}
SMOOTH_ID = {1: "sin_d1", 2: "sinprod_d2"}


@st.composite
def modulus_cases(draw):
    """A non-even function on a random box, an order, a subset, a step bound
    up to the box size (so that some shifted boxes are empty) and a p."""
    d = draw(st.integers(1, 2))
    r = tuple(draw(st.integers(1, 3)) for _ in range(d))
    lower = [draw(st.floats(-1.0, 1.0)) for _ in range(d)]
    size = [draw(st.floats(0.5, 2.0)) for _ in range(d)]
    box = Parallelepiped(lower, [a + s for a, s in zip(lower, size)])
    kind = draw(st.sampled_from(ODD_IDS[d] + ("poly",)))
    if kind == "poly":
        degrees = tuple(ri + 1 for ri in r)
        coef = np.asarray(draw(st.lists(st.floats(-2.0, 2.0), min_size=int(np.prod(degrees)),
                                        max_size=int(np.prod(degrees))))).reshape(degrees)
        poly = TensorPolynomial(coef, box)
        smooth = get_function(SMOOTH_ID[d])
        f = lambda x: poly(x) + smooth(x)  # noqa: E731
    else:
        f = get_function(kind)
    axes = draw(st.sets(st.integers(0, d - 1), min_size=1))
    t = tuple(draw(st.floats(0.05, 1.0)) * s for s in size)
    p = draw(st.sampled_from([1.0, 2.0, 3.5, math.inf]))
    return f, r, tuple(sorted(axes)), t, p, box


def _loop_norms(f, r_e, steps, p, box, quad):
    """The norm of the mixed difference over the shifted box, one step at a time."""
    out = []
    for h in steps:
        dom = shifted_domain(box, np.asarray(r_e) * h)
        diff = lambda x, h=h: mixed_difference(f, r_e, h, x)  # noqa: E731
        out.append(lp_norm(diff, dom, p, quad) if p == math.inf
                   else lp_power_integral(diff, dom, p, quad))
    return np.asarray(out)


def _steps(r_e, axis_nodes):
    active = [i for i in range(len(r_e)) if r_e[i] > 0]
    for combo in itertools.product(*axis_nodes):
        h = np.zeros(len(r_e))
        h[active] = combo
        yield h


@settings(max_examples=40, deadline=None)
@given(modulus_cases())
def test_batched_modulus_matches_per_step_loop(case):
    f, r, e, t, p, box = case
    quad, h_grid = QuadratureSpec(5, 7), 5
    r_e = project(r, e)
    t_max = [min(ti, si) for ti, si in zip(t, box.size())]  # modulus clamps t to the box
    grids = [np.linspace(0.0, t_max[i], h_grid) for i in e]
    norms = _loop_norms(f, r_e, list(_steps(r_e, grids)), p, box, quad)
    expected = max(0.0, float(np.max(norms ** (1.0 / p if p < math.inf else 1.0))))
    got = modulus(f, r_e, t, p, box, quad=quad, h_grid=h_grid)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-300)


@settings(max_examples=40, deadline=None)
@given(modulus_cases())
def test_folded_p_mean_matches_signed_step_box(case):
    f, r, e, t, p, box = case
    quad, mean_nodes, h_grid = QuadratureSpec(5, 7), 3, 5
    r_e = project(r, e)
    got = p_mean_modulus(f, r_e, t, p, box, quad=quad, h_grid=h_grid, mean_nodes=mean_nodes)
    if p == math.inf:
        expected = modulus(f, r_e, t, p, box, quad=quad, h_grid=h_grid)
        assert got == expected
        return
    # the step integral over the full signed box, split into two panels at h = 0
    nodes, weights = [], []
    for i in e:
        left = axis_rule(GAUSS, mean_nodes, -t[i], 0.0)
        right = axis_rule(GAUSS, mean_nodes, 0.0, t[i])
        nodes.append(np.concatenate([left[0], right[0]]))
        weights.append(np.concatenate([left[1], right[1]]))
    w_h = [math.prod(c) for c in itertools.product(*weights)]
    inner = _loop_norms(f, r_e, list(_steps(r_e, nodes)), p, box, quad)
    scale = math.prod(1.0 / t[i] for i in e)
    expected = (scale * float(np.dot(w_h, inner))) ** (1.0 / p)
    # The two forms evaluate f at points that agree up to round-off, about
    # 4 eps (1 + |x|) < 1e-14.  That moves a value of f by about 1e-14 * sup|f|
    # on the smooth entries (1e-12 allowed), but by up to sqrt(1e-14) * sup|f|
    # where a point of the kinked |x - c|^(1/2) lands on c.  A mixed difference
    # sums 2^|r_e| such values, which is not small against a modulus of order
    # t^r_e at small t.
    sup_f = lp_norm(f, box, math.inf, quad)
    moved = sup_f * (1e-7 if getattr(f, "id", "").startswith("abspow") else 1e-12)
    volume = float(np.prod(box.size()))
    floor = 2.0 ** sum(r_e) * moved * (2.0 ** len(e) * volume) ** (1.0 / p)
    assert got == pytest.approx(expected, rel=1e-12, abs=floor)


@settings(max_examples=20, deadline=None)
@given(modulus_cases(), st.integers(2, 5))
def test_total_modulus_is_monotone_in_t(case, n):
    # the grid of n steps on [0, t] is every other step of 2n - 1 on [0, 2t]
    f, r, _, t, p, box = case
    t = tuple(0.5 * ti for ti in t)  # 2t stays inside the box
    quad = QuadratureSpec(5, 7)
    small = total_modulus(f, r, t, p, box, quad=quad, h_grid=n)
    large = total_modulus(f, r, tuple(2.0 * ti for ti in t), p, box, quad=quad, h_grid=2 * n - 1)
    assert small <= large * (1.0 + 1e-12)


@st.composite
def factored_cases(draw):
    """A corpus entry on a box with corners in [-3, 3] and sides 2^-6 to 4,
    an order up to 4, a step bound from 1e-4 to twice the box side (so that
    some shifted boxes are empty), a p, the node counts and ``h_grid``."""
    f = draw(st.sampled_from(corpus()))
    d = f.dimension
    lower = [draw(st.floats(-3.0, 3.0)) for _ in range(d)]
    size = [2.0 ** draw(st.floats(-6.0, 2.0)) for _ in range(d)]
    box = Parallelepiped(lower, [a + s for a, s in zip(lower, size)])
    r = tuple(draw(st.integers(1, 4)) for _ in range(d))
    t = tuple(10.0 ** draw(st.floats(-4.0, math.log10(2.0 * s))) for s in size)
    p = draw(st.sampled_from([1.0, 2.0, 3.5, math.inf]))
    quad = QuadratureSpec(draw(st.integers(1, 9)), draw(st.integers(2, 11)))
    return f, r, t, p, box, quad, draw(st.integers(2, 17))


@settings(max_examples=100, deadline=None)
@given(factored_cases())
def test_pruned_step_search_keeps_every_bit(case):
    # the entry's factors prune the steps the grid measures; without them
    # the grid measures every step, and the two give the same float
    f, r, t, p, box, quad, h_grid = case
    plain = replace(f, factors=None)
    for e in subsets(f.dimension):
        r_e = project(r, e)
        assert (repr(modulus(f, r_e, t, p, box, quad=quad, h_grid=h_grid))
                == repr(modulus(plain, r_e, t, p, box, quad=quad, h_grid=h_grid)))
    assert (repr(total_modulus(f, r, t, p, box, quad=quad, h_grid=h_grid))
            == repr(total_modulus(plain, r, t, p, box, quad=quad, h_grid=h_grid)))
