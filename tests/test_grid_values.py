"""Tensor-grid evaluation: ``grid_values`` gives the point-wise values bit for
bit, so the stencil evaluator, the moduli kernel, the norms and the fits
return the same bits for a corpus entry (axis by axis) and for the same entry
behind a plain callable (the point-list fallback).  There are two exceptions,
both computed from the 1-D factors of an entry with ``factors``, and each
agrees with the grid path within an a-priori round-off bound: a stencil term
whose stencils put a derivative on at most one axis (the smoothing term
``||f - A_t f||`` and the ``|e| = 1`` derivative terms), and the p-mean
modulus at finite p and d >= 2."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from whitney_lab import differences, functions, smoother
from whitney_lab.differences import modulus, p_mean_modulus
from whitney_lab.polyapprox import best_approx
from whitney_lab.functions import corpus, get_function
from whitney_lab.geometry import (
    GAUSS,
    Parallelepiped,
    QuadratureSpec,
    axis_rule,
    grid_values,
    lp_norm,
    project,
    subsets,
    tensor_grid,
    tensor_quadrature,
)
from whitney_lab.smoother import (
    _apply_at_points,
    _apply_on_tensor_grid,
    _smoothed_lp_norm,
    k_functional_bracket,
    smooth_mixed,
    smoothed_derivative,
    subdivision_boxes,
)

# far outside the unit box too, plus the kink centres of the abspow entries
COORDS = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.3, 0.6, 0.0, -0.0, 1.0]))


@st.composite
def grid_cases(draw):
    f = draw(st.sampled_from(corpus()))
    batch = draw(st.sampled_from([(), (2,), (3, 2)]))
    axes = []
    for _ in range(f.dimension):
        n = draw(st.integers(1, 5))
        size = n * math.prod(batch)
        vals = draw(st.lists(COORDS, min_size=size, max_size=size))
        axes.append(np.asarray(vals).reshape(batch + (n,)))
    return f, axes


@settings(max_examples=150, deadline=None)
@given(grid_cases())
def test_grid_values_equal_pointwise_values(case):
    f, axes = case
    batch = axes[0].shape[:-1]
    got = grid_values(f, axes)
    fallback = grid_values(lambda pts: f(pts), axes)
    assert got.shape == fallback.shape == batch + tuple(a.shape[-1] for a in axes)
    for b in np.ndindex(batch):
        expected = f(tensor_grid([a[b] for a in axes]))
        assert np.array_equal(got[b].reshape(-1), expected)
        assert np.array_equal(fallback[b].reshape(-1), expected)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_derivative_evaluator_on_broadcast_coordinates_equals_the_point_values(data):
    # every Sobolev entry, every order up to 3 per axis: the derivative on
    # coordinate arrays that broadcast to a grid is the point-wise derivative
    f = data.draw(st.sampled_from([f for f in corpus() if f.is_sobolev]))
    d = f.dimension
    axes = [np.asarray(data.draw(st.lists(COORDS, min_size=1, max_size=5)))
            for _ in range(d)]
    coords = [a.reshape((1,) * i + (-1,) + (1,) * (d - 1 - i)) for i, a in enumerate(axes)]
    k = tuple(data.draw(st.integers(0, 3)) for _ in range(d))
    got = f.derivative_evaluator(k, coords)
    assert got.shape == tuple(a.size for a in axes)
    assert np.array_equal(got.reshape(-1), f.derivative(k, tensor_grid(axes)))


def _plain(f):
    return lambda pts: f(pts)  # no grid_evaluator: the point-list fallback


def _factor_bound(ops, f, p, domain, quad):
    """How far the factored form may move ``_smoothed_lp_norm`` of a stencil
    with a derivative on at most one axis, with or without ``subtract_base``:
    ``64 eps prod_i ||w_i||_1 max|f|``, the max over the grid expanded by the
    stencil offsets, times ``(sum of the quadrature weights)^(1/p)``, the
    norm's Lipschitz constant in the sup norm."""
    axes, wts = tensor_quadrature(domain, quad, p)
    expanded = [(x[:, None] + op.offsets).reshape(-1) for x, op in zip(axes, ops)]
    f_max = float(np.max(np.abs(grid_values(f, expanded))))
    bound = (64 * np.finfo(float).eps * f_max
             * math.prod(float(np.abs(op.weights).sum()) for op in ops))
    if p != math.inf:
        bound *= float(wts.sum()) ** (1 / p)
    return bound


def _p_mean_bound(f, r_e, t, p, box, quad, mean_nodes, values):
    """How far the factored p-mean modulus of an entry may lie from the grid
    path's (``differences`` module docstring).  The pruned step search's
    allowance ``delta`` of a step bounds the gap between its grid norm and the
    product ``U`` of its 1-D norms, so by Minkowski's inequality over the
    panel steps, whose weights sum to ``2^|e|``, the values lie within
    ``2^(|e|/p) max delta``.  Each value's own step sums, scale and root add
    at most ``m^|e| + |e| (m + 1) + d + 6`` roundings of it (``m`` panel
    nodes per active axis)."""
    d, k = len(r_e), sum(1 for ri in r_e if ri)
    axis_steps = [tuple(axis_rule(GAUSS, mean_nodes, 0.0, t[i])[0].tolist()) if r_e[i] else (0.0,)
                  for i in range(d)]
    _, delta = differences._step_bounds(f.factors, r_e, axis_steps, p, box, quad)
    rounding = (mean_nodes ** k + k * (mean_nodes + 1) + d + 6) * np.finfo(float).eps
    return (2.0 ** (k / p) * (1.0 + rounding) * float(np.max(delta))
            + rounding * sum(abs(v) for v in values))


@pytest.fixture(params=[False, True], ids=["one-chunk", "multi-chunk"])
def chunks(request, monkeypatch):
    if request.param:
        monkeypatch.setattr(smoother, "_CHUNK_BUDGET", 64)
        monkeypatch.setattr(differences, "_CHUNK_POINTS", 40)
    return request.param


@pytest.mark.parametrize("fid", ["exp_d1", "abspow_d1", "exp_d2", "sinprod_d2",
                                 "runge_d2", "abspow_d2", "poly_d2_deg32"])
def test_stencils_agree_on_both_paths(fid, chunks):
    f = get_function(fid)
    d = f.dimension
    box = Parallelepiped([0.1] * d, [0.9] * d)
    r, t = (2,) * d, (0.04, -0.03)[:d]
    quad = QuadratureSpec(5, 7)
    # each stencil with the number of axes that carry a derivative
    stencils = [(smooth_mixed(f, r, t, box, 4), 0)]
    stencils += [(smoothed_derivative(f, r, t, e, box, 4), len(e)) for e in subsets(d)]
    pts = np.random.default_rng(0).uniform(0.3, 0.6, size=(11, d))
    no_factors = dataclasses.replace(f, factors=None)
    for g, n_deriv in stencils:
        axes = [axis_rule("gauss_legendre", 4, *g.domain.axis_interval(i))[0]
                for i in range(d)]
        assert np.array_equal(_apply_on_tensor_grid(g.ops, f, axes),
                              _apply_on_tensor_grid(g.ops, _plain(f), axes))
        assert np.array_equal(_apply_at_points(g.ops, f, pts),
                              _apply_at_points(g.ops, _plain(f), pts))
        for p in (1.0, 2.0, math.inf):
            args = (p, tensor_quadrature(g.domain, quad, p))
            for subtract_base in (False, True):
                plain = _smoothed_lp_norm(g.ops, _plain(f), *args, subtract_base)
                # without factors, the grid contraction's bits
                assert _smoothed_lp_norm(g.ops, no_factors, *args, subtract_base) == plain
                got = _smoothed_lp_norm(g.ops, f, *args, subtract_base)
                if n_deriv <= 1:  # the outer product of 1-D stencil outputs
                    assert abs(got - plain) <= _factor_bound(g.ops, f, p, g.domain, quad)
                else:  # derivatives on two axes: the grid contraction, bit for bit
                    assert got == plain


@pytest.mark.parametrize("fid", ["exp_d1", "abspow_d1", "exp_d2", "sinprod_d2",
                                 "runge_d2", "abspow_d2", "poly_d2_deg32"])
@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_moduli_agree_on_both_paths(fid, p, chunks):
    f = get_function(fid)
    d = f.dimension
    box = Parallelepiped([-0.2] * d, [0.7] * d)
    quad = QuadratureSpec(5, 7)
    no_factors = dataclasses.replace(f, factors=None)
    kw = dict(quad=quad, h_grid=5, mean_nodes=3)
    for r in [(1,) * d, (3, 2)[:d]]:
        for t in [(0.05, 0.1)[:d], (0.5, 0.8)[:d]]:  # small steps and empty boxes
            for e in subsets(d):
                r_e = project(r, e)
                assert (modulus(f, r_e, t, p, box, quad=quad, h_grid=5)
                        == modulus(_plain(f), r_e, t, p, box, quad=quad, h_grid=5))
                plain = p_mean_modulus(_plain(f), r_e, t, p, box, **kw)
                # without factors, the grid path's bits
                assert p_mean_modulus(no_factors, r_e, t, p, box, **kw) == plain
                got = p_mean_modulus(f, r_e, t, p, box, **kw)
                if d == 1 or p == math.inf:  # the grid path, or modulus
                    assert got == plain
                else:  # the product of 1-D step integrals
                    assert abs(got - plain) <= _p_mean_bound(f, r_e, t, p, box, quad, 3,
                                                             (got, plain))
    # norms and fits evaluate through grid_values too
    assert lp_norm(f, box, p, quad) == lp_norm(_plain(f), box, p, quad)
    (poly, err), (plain_poly, plain_err) = [
        best_approx(g, (2,) * d, p, box, grid=(5,) * d, quad=quad) for g in (f, _plain(f))]
    assert err == plain_err
    assert np.array_equal(poly.coefficients, plain_poly.coefficients)


def _per_axis_contraction(ops, base, axis_points):
    """An independent copy of the grid contraction, which pins its bits and
    its ``_CHUNK_BUDGET`` block rule: base values laid out as
    ``(n_0, l_0, n_1, l_1, ...)`` per block of whole axis-0 rows, each
    ``l_i`` contracted in place by ``tensordot``."""
    d = len(axis_points)
    expanded = [axis_points[i][:, None] + ops[i].offsets[None, :] for i in range(d)]
    sizes = [e.shape for e in expanded]
    tail = int(np.prod([n * l for n, l in sizes[1:]])) if d > 1 else 1
    n0, l0 = sizes[0]
    block = max(1, smoother._CHUNK_BUDGET // max(1, l0 * tail))
    flat_rest = [e.reshape(-1) for e in expanded[1:]]
    chunks = []
    for start in range(0, n0, block):
        rows = expanded[0][start:start + block]
        vals = grid_values(base, [rows.reshape(-1), *flat_rest])
        arr = vals.reshape([rows.shape[0], l0] + [m for size in sizes[1:] for m in size])
        for i in range(d):
            arr = np.tensordot(arr, ops[i].weights, axes=(i + 1, 0))
        chunks.append(arr)
    return np.concatenate(chunks, axis=0)


_D3 = [functions._exp_spec("exp_d3", (1.0, 0.5, -1.0)),
       functions._sin_product_spec("sin_d3", (1.5, 2.0, 0.7), (0.3, 0.7, 0.1)),
       functions._abspow_spec("abspow_d3", (0.3, 0.6, 0.45), 0.5)]


@pytest.mark.parametrize("f", [get_function(fid) for fid in
                               ("exp_d1", "sin_d1", "abspow_d1", "exp_d2", "sinprod_d2",
                                "runge_d2", "abspow_d2")] + _D3, ids=lambda f: f.id)
@pytest.mark.parametrize("plain", [False, True], ids=["grid-evaluator", "point-list"])
def test_stencil_layout_matches_the_per_axis_contraction(f, plain, chunks, monkeypatch):
    d = f.dimension
    box = Parallelepiped([0.1] * d, [0.9] * d)
    if d < 3:
        r, t, panel_nodes, sizes = (2, 3)[:d], (0.04, -0.02)[:d], 6, (5, 6)[:d]
    else:  # sizes where an (n_1, n_2, l_2, l_1) row order would move gemv's last rows
        r, t, panel_nodes, sizes = (3, 1, 2), (0.02, -0.1, 0.03), 2, (5, 3, 3)
    stencils = [smooth_mixed(f, r, t, box, panel_nodes)]
    stencils += [smoothed_derivative(f, r, t, e, box, panel_nodes) for e in subsets(d)]
    base = _plain(f) if plain else f
    for g in stencils:
        axes = [axis_rule("gauss_legendre", n, *g.domain.axis_interval(i))[0]
                for i, n in enumerate(sizes)]
        got = _apply_on_tensor_grid(g.ops, base, axes)
        assert got.shape == sizes
        assert np.array_equal(got, _per_axis_contraction(g.ops, base, axes))
        # blocks of 2, 2 and 1 rows: numpy views a one-row block column-major
        tail = math.prod(n * op.offsets.size for n, op in zip(sizes[1:], g.ops[1:]))
        with monkeypatch.context() as m:
            m.setattr(smoother, "_CHUNK_BUDGET", 2 * g.ops[0].offsets.size * tail)
            assert np.array_equal(_apply_on_tensor_grid(g.ops, base, axes),
                                  _per_axis_contraction(g.ops, base, axes))


@st.composite
def smoothing_cases(draw):
    """A corpus entry, a box of aspect ratio up to 8, orders and scales inside
    the smoother's range, and p."""
    f = draw(st.sampled_from(corpus()))
    d = f.dimension
    side = draw(st.floats(0.1, 1.0))
    sizes = [side, side * draw(st.floats(1.0, 8.0))][:d]
    if d == 2 and draw(st.booleans()):
        sizes.reverse()
    lower = [draw(st.floats(-1.0, 0.5)) for _ in range(d)]
    box = Parallelepiped(lower, [a + s for a, s in zip(lower, sizes)])
    r = tuple(draw(st.integers(1, 3)) for _ in range(d))
    fracs = [draw(st.floats(-1.0, 1.0)) for _ in range(d)]
    t = tuple(q * s / (4 * ri * ri) for q, s, ri in zip(fracs, sizes, r))
    p = draw(st.sampled_from([1.0, 2.0, math.inf]))
    return f, box, r, t, p


@settings(max_examples=150, deadline=None)
@given(smoothing_cases(), st.integers(2, 6), st.integers(2, 9))
def test_factored_smoothing_term_matches_the_grid_contraction(case, panel_nodes, nodes):
    f, box, r, t, p = case
    g = smooth_mixed(f, r, t, box, panel_nodes)
    quad = QuadratureSpec(nodes, nodes + 1)
    args = (p, tensor_quadrature(g.domain, quad, p), True)
    got = _smoothed_lp_norm(g.ops, f, *args)
    generic = _smoothed_lp_norm(g.ops, dataclasses.replace(f, factors=None), *args)
    assert abs(got - generic) <= _factor_bound(g.ops, f, p, g.domain, quad)


@settings(max_examples=150, deadline=None)
@given(smoothing_cases(), st.sampled_from([1.0, 2.0, 3.5, math.inf]), st.integers(2, 6),
       st.integers(2, 9), st.data())
def test_factored_one_derivative_axis_terms_match_the_grid_contraction(
        case, p, panel_nodes, nodes, data):
    # the derivative stencil amplifies round-off by about |t|^-r on its axis,
    # which the bound's ||w||_1 carries; t keeps both signs, but stays off 0
    # on that axis, where t^-r overflows
    f, box, r, t, _ = case
    axis = data.draw(st.integers(0, f.dimension - 1))
    assume(abs(t[axis]) >= 1e-3 * box.size()[axis] / (4 * r[axis] ** 2))
    g = smoothed_derivative(f, r, t, (axis,), box, panel_nodes)
    quad = QuadratureSpec(nodes, nodes + 1)
    args = (p, tensor_quadrature(g.domain, quad, p))
    got = _smoothed_lp_norm(g.ops, f, *args)
    generic = _smoothed_lp_norm(g.ops, dataclasses.replace(f, factors=None), *args)
    assert abs(got - generic) <= _factor_bound(g.ops, f, p, g.domain, quad)


@settings(max_examples=60, deadline=None)
@given(smoothing_cases())
def test_bracket_moves_only_its_smoothing_term(case):
    f, box, r, t, p = case
    r = tuple(min(ri, 2) for ri in r)  # the modulus terms stay cheap
    t = tuple(max(abs(ti), 1e-3 * s / (4 * ri * ri))
              for ti, s, ri in zip(t, box.size(), r))  # t > 0, in the smoother's range
    cfg = dict(quad=QuadratureSpec(6, 7), h_grid=5, panel_nodes=3)
    got = k_functional_bracket(f, r, t, p, box, **cfg)
    generic = k_functional_bracket(dataclasses.replace(f, factors=None), r, t, p, box, **cfg)
    for key in ("omega_terms", "omega_total"):
        assert repr(got.details[key]) == repr(generic.details[key])
    assert repr(got.lower) == repr(generic.lower)
    got_terms, generic_terms = got.details["deriv_terms"], generic.details["deriv_terms"]
    for e in subsets(f.dimension):
        if len(e) > 1:  # derivatives on two axes: the grid contraction's bits
            assert repr(got_terms[e]) == repr(generic_terms[e])
    # per sign pattern: the bound of the factored smoothing term (key ()) and
    # the weighted bounds of the one-derivative-axis terms
    forward = tuple(range(f.dimension))
    bounds = {}
    for key in subdivision_boxes(box):
        signed = [ti if i in key else -ti for i, ti in enumerate(t)]
        g = smooth_mixed(f, r, signed, box, cfg["panel_nodes"])
        term_bounds = {(): _factor_bound(g.ops, f, p, g.domain, cfg["quad"])}
        for i in range(f.dimension):
            gd = smoothed_derivative(f, r, signed, (i,), box, cfg["panel_nodes"])
            term_bounds[(i,)] = t[i] ** r[i] * _factor_bound(gd.ops, f, p, gd.domain,
                                                              cfg["quad"])
        bounds[key] = sum(term_bounds.values())
        if key == forward:
            assert (abs(got.details["f_minus_g"] - generic.details["f_minus_g"])
                    <= term_bounds.pop(()))
            for e, bound in term_bounds.items():
                assert abs(got_terms[e] - generic_terms[e]) <= bound
    for key, bound in bounds.items():
        assert (abs(got.details["subdomain_uppers"][key]
                    - generic.details["subdomain_uppers"][key]) <= bound)
    assert abs(got.upper - generic.upper) <= sum(bounds.values())
    got_cands, generic_cands = dict(got.details["candidates"]), dict(generic.details["candidates"])
    assert (abs(got_cands.pop("smoother_subdivision") - generic_cands.pop("smoother_subdivision"))
            <= sum(bounds.values()))
    assert repr(got_cands) == repr(generic_cands)


@st.composite
def p_mean_cases(draw):
    """An entry of d >= 2 on a box with corners in [-3, 3] and sides 2^-6 to
    4, an order up to 4 projected to an axis subset, a step bound from 1e-4
    to twice the box side (so that some shifted boxes are empty), p in
    [1, 6], the Gauss nodes and ``mean_nodes`` (fewer in d = 3)."""
    f = draw(st.sampled_from([g for g in corpus() if g.dimension > 1] + _D3))
    d = f.dimension
    lower = [draw(st.floats(-3.0, 3.0)) for _ in range(d)]
    size = [2.0 ** draw(st.floats(-6.0, 2.0)) for _ in range(d)]
    box = Parallelepiped(lower, [a + s for a, s in zip(lower, size)])
    r = tuple(draw(st.integers(1, 4)) for _ in range(d))
    r_e = project(r, draw(st.sampled_from(subsets(d))))
    t = tuple(10.0 ** draw(st.floats(-4.0, math.log10(2.0 * s))) for s in size)
    p = draw(st.floats(1.0, 6.0))
    quad = QuadratureSpec(draw(st.integers(1, 9 if d == 2 else 4)), 2)
    return f, r_e, t, p, box, quad, draw(st.integers(1, 6 if d == 2 else 3))


@settings(max_examples=100, deadline=None)
@given(p_mean_cases())
def test_factored_p_mean_lies_within_the_allowance(case):
    # the entry's factors give the step integral as a product of 1-D ones;
    # without them the grid measures every step
    f, r_e, t, p, box, quad, mean_nodes = case
    kw = dict(quad=quad, mean_nodes=mean_nodes)
    got = p_mean_modulus(f, r_e, t, p, box, **kw)
    plain = p_mean_modulus(dataclasses.replace(f, factors=None), r_e, t, p, box, **kw)
    assert abs(got - plain) <= _p_mean_bound(f, r_e, t, p, box, quad, mean_nodes, (got, plain))
