"""Tensor-grid evaluation: ``grid_values`` gives the point-wise values bit for
bit, so the stencil evaluator and the moduli kernel return the same bits for a
corpus entry (axis by axis) and for the same entry behind a plain callable
(the point-list fallback)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitney_lab import differences, functions, smoother
from whitney_lab.differences import ModulusRequest, modulus, p_mean_modulus
from whitney_lab.functions import corpus, get_function, grid_values
from whitney_lab.geometry import (
    Parallelepiped,
    QuadratureSpec,
    axis_rule,
    subsets,
    tensor_grid,
)
from whitney_lab.smoother import (
    _apply_at_points,
    _apply_on_tensor_grid,
    _smoothed_lp_norm,
    smooth_mixed,
    smoothed_derivative,
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
            for subtract_base in (False, True):
                args = (p, g.domain, quad, subtract_base)
                assert (_smoothed_lp_norm(g.ops, f, *args)
                        == _smoothed_lp_norm(g.ops, _plain(f), *args))


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
                reqs = [ModulusRequest(g, r, e, t, p, box, 5, quad) for g in (f, _plain(f))]
                assert modulus(reqs[0]) == modulus(reqs[1])
                r_e = e.project(r)
                assert (p_mean_modulus(f, r_e, t, p, box, quad, 3, 5)
                        == p_mean_modulus(_plain(f), r_e, t, p, box, quad, 3, 5))


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
