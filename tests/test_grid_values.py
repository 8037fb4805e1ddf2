"""Tensor-grid evaluation: ``grid_values`` gives the point-wise values bit for
bit, so the stencil evaluator, the moduli kernel, the norms and the fits
return the same bits for a corpus entry (axis by axis) and for the same entry
behind a plain callable (the point-list fallback).  The one exception is the smoothing term
``||f - A_t f||`` of an entry with ``factors``, computed from 1-D stencils: it
agrees with the grid contraction within an a-priori round-off bound."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitney_lab import differences, functions, smoother
from whitney_lab.differences import modulus, p_mean_modulus
from whitney_lab.polyapprox import best_approx
from whitney_lab.functions import corpus, get_function
from whitney_lab.geometry import (
    Parallelepiped,
    QuadratureSpec,
    axis_rule,
    grid_values,
    lp_norm,
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
        expected = f.evaluator(tensor_grid([a[b] for a in axes]))
        assert np.array_equal(got[b].reshape(-1), expected)
        assert np.array_equal(fallback[b].reshape(-1), expected)


def _plain(f):
    return lambda pts: f(pts)  # no grid_evaluator: the point-list fallback


def _factor_bound(ops, f, p, domain, quad):
    """How far the factored smoothing term may move ``_smoothed_lp_norm(...,
    subtract_base=True)``: ``64 eps prod_i ||w_i||_1 max|f|``, the max over the
    grid expanded by the stencil offsets, times ``(sum of the quadrature
    weights)^(1/p)``, the norm's Lipschitz constant in the sup norm."""
    axes, wts = tensor_quadrature(domain, quad, p)
    expanded = [(x[:, None] + op.offsets).reshape(-1) for x, op in zip(axes, ops)]
    f_max = float(np.max(np.abs(grid_values(f, expanded))))
    bound = (64 * np.finfo(float).eps * f_max
             * math.prod(float(np.abs(op.weights).sum()) for op in ops))
    if p != math.inf:
        bound *= float(wts.sum()) ** (1 / p)
    return bound


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
    quad = QuadratureSpec.for_dim(d, 5, 7)
    stencils = [smooth_mixed(f, r, t, box, 4)]
    stencils += [smoothed_derivative(f, r, t, e, box, 4) for e in subsets(d)]
    pts = np.random.default_rng(0).uniform(0.3, 0.6, size=(11, d))
    for g in stencils:
        axes = [axis_rule("gauss_legendre", 4, *g.domain.axis_interval(i))[0]
                for i in range(d)]
        assert np.array_equal(_apply_on_tensor_grid(g.ops, f, axes),
                              _apply_on_tensor_grid(g.ops, _plain(f), axes))
        assert np.array_equal(_apply_at_points(g.ops, f, pts),
                              _apply_at_points(g.ops, _plain(f), pts))
        for p in (1.0, 2.0, math.inf):
            args = (p, g.domain, quad)
            assert (_smoothed_lp_norm(g.ops, f, *args)
                    == _smoothed_lp_norm(g.ops, _plain(f), *args))
            # without factors, base - output is the grid contraction's, bit for bit
            plain_diff = _smoothed_lp_norm(g.ops, _plain(f), *args, subtract_base=True)
            assert (_smoothed_lp_norm(g.ops, dataclasses.replace(f, factors=None), *args,
                                      subtract_base=True) == plain_diff)
            # with factors, the output is the outer product of 1-D stencil outputs
            assert (abs(_smoothed_lp_norm(g.ops, f, *args, subtract_base=True) - plain_diff)
                    <= _factor_bound(g.ops, f, *args))


@pytest.mark.parametrize("fid", ["exp_d1", "abspow_d1", "exp_d2", "sinprod_d2",
                                 "runge_d2", "abspow_d2", "poly_d2_deg32"])
@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_moduli_agree_on_both_paths(fid, p, chunks):
    f = get_function(fid)
    d = f.dimension
    box = Parallelepiped([-0.2] * d, [0.7] * d)
    quad = QuadratureSpec.for_dim(d, 5, 7)
    for r in [(1,) * d, (3, 2)[:d]]:
        for t in [(0.05, 0.1)[:d], (0.5, 0.8)[:d]]:  # small steps and empty boxes
            for e in subsets(d):
                r_e = e.project(r)
                assert (modulus(f, r_e, t, p, box, quad=quad, h_grid=5)
                        == modulus(_plain(f), r_e, t, p, box, quad=quad, h_grid=5))
                assert (p_mean_modulus(f, r_e, t, p, box, quad=quad, h_grid=5, mean_nodes=3)
                        == p_mean_modulus(_plain(f), r_e, t, p, box, quad=quad, h_grid=5,
                                          mean_nodes=3))
    # norms and fits evaluate through grid_values too
    assert lp_norm(f, box, p, quad) == lp_norm(_plain(f), box, p, quad)
    (poly, err), (plain_poly, plain_err) = [
        best_approx(g, (2,) * d, p, box, (5,) * d, quad) for g in (f, _plain(f))]
    assert err == plain_err
    assert np.array_equal(poly.coefficients, plain_poly.coefficients)


def _per_axis_contraction(ops, base, axis_points):
    """The reference for the stencil layout: base values laid out as
    ``(n_0, l_0, n_1, l_1, ...)``, each ``l_i`` contracted in place by
    ``tensordot``, with the same row blocks of ``_CHUNK_BUDGET``."""
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
    quad = QuadratureSpec.for_dim(f.dimension, nodes, nodes + 1)
    args = (p, g.domain, quad, True)
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
    cfg = dict(quad=QuadratureSpec.for_dim(f.dimension, 6, 7), h_grid=5, panel_nodes=3)
    got = k_functional_bracket(f, r, t, p, box, **cfg)
    generic = k_functional_bracket(dataclasses.replace(f, factors=None), r, t, p, box, **cfg)
    for key in ("deriv_terms", "omega_terms", "omega_total"):
        assert repr(got.details[key]) == repr(generic.details[key])
    assert repr(got.lower) == repr(generic.lower)
    bounds = {}
    for key in subdivision_boxes(box):
        signed = [ti if i in key else -ti for i, ti in enumerate(t)]
        g = smooth_mixed(f, r, signed, box, cfg["panel_nodes"])
        bounds[key] = _factor_bound(g.ops, f, p, g.domain, cfg["quad"])
    forward = tuple(range(f.dimension))
    assert abs(got.details["f_minus_g"] - generic.details["f_minus_g"]) <= bounds[forward]
    for key, bound in bounds.items():
        assert (abs(got.details["subdomain_uppers"][key]
                    - generic.details["subdomain_uppers"][key]) <= bound)
    assert abs(got.upper - generic.upper) <= sum(bounds.values())
    got_cands, generic_cands = dict(got.details["candidates"]), dict(generic.details["candidates"])
    assert (abs(got_cands.pop("smoother_subdivision") - generic_cands.pop("smoother_subdivision"))
            <= sum(bounds.values()))
    assert repr(got_cands) == repr(generic_cands)
