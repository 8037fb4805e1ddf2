"""Mixed finite-difference operators and the four moduli of smoothness.

The univariate operator of order m with step h is
``sum_{j=0}^m (-1)^(m-j) C(m, j) f(x + j h)``; mixed operators compose it
across the active axes.  By translation ``Delta_{-h} f(x) = (-1)^r
Delta_h f(x - r h)`` per axis, and the shifted box of ``-h`` is that of ``h``
moved by ``r h``, so the norm of a difference is even in each active ``h_i``:
the sup-type modulus searches non-negative step grids and the p-mean modulus
integrates ``[0, t_i]`` with doubled weights (tests check both against signed
loops).  Every shifted box is an affine image of one reference grid, so
:func:`_shift_norms` measures a whole step grid in a few array passes.

The four moduli share one call form, ``(f, r, t, p, domain, *, quad=None,
h_grid=DEFAULT_H_GRID)``, the p-mean ones with ``mean_nodes=DEFAULT_MEAN_NODES``
besides.  The resolutions are keyword-only, so two integer resolutions can
never be swapped by position.  ``quad=None`` is the default
:class:`QuadratureSpec` of the dimension.

Those passes take the steps in chunks of about ``_CHUNK_POINTS`` values of
``f`` (the ``T`` difference terms on the reference grid, per step), so that a
chunk's values, about 512 KiB, stay in L2 while the difference and the norm
read them, and each call of ``f`` covers many shifted boxes.  The budget sets
only how many steps share a chunk, never the bits: each step's difference is
``coef @`` its own ``(T, n_ref)`` block, its norm is its own max or dot
product, and the box nodes, offsets and scales are computed once per call,
element by element.  (The stencil evaluator's ``_CHUNK_BUDGET`` is unlike
this: its block edges are matrix shapes, and they do fix the bits.)
"""

from __future__ import annotations

import itertools
import logging
import math
from functools import lru_cache

import numpy as np

from .geometry import (
    GAUSS,
    MultiIndex,
    Parallelepiped,
    QuadratureSpec,
    StepVector,
    _reference_weights,
    as_multi_index,
    as_step_vector,
    axis_rule,
    grid_values,
    lp_norm,  # unused here; bench/tests/test_spantrace.py checks its binding is traced
    subsets,
    tensor_grid,
    tensor_product,
)

__all__ = [
    "mixed_difference",
    "modulus",
    "total_modulus",
    "p_mean_modulus",
    "total_p_mean_modulus",
    "whitney_constant_sum",
]

log = logging.getLogger(__name__)

DEFAULT_H_GRID = 33  # step values searched per active axis by the sup-type moduli
DEFAULT_MEAN_NODES = 16  # Gauss nodes per half-axis of the p-mean step integral
# values of f per chunk of _shift_norms (module docstring); on the moduli
# workload 2^15 was slower, and 2^17 and 2^18 no faster but held more memory
_CHUNK_POINTS = 1 << 16


@lru_cache(maxsize=None)
def _difference_table(orders: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Step multipliers (T, d) and signed binomial coefficients (T,) of the sum."""
    active = [i for i, ri in enumerate(orders) if ri > 0]
    combos = list(itertools.product(*[range(orders[i] + 1) for i in active]))
    mult = np.zeros((len(combos), len(orders)))
    coef = np.ones(len(combos))
    for row, combo in enumerate(combos):
        for i, j in zip(active, combo):
            mult[row, i] = j
            coef[row] *= (-1.0) ** (orders[i] - j) * math.comb(orders[i], j)
    mult.setflags(write=False)
    coef.setflags(write=False)
    return mult, coef


def mixed_difference(f, r_e, h, x) -> np.ndarray:
    """Mixed difference of order ``r_e`` with step ``h`` evaluated at ``x``.

    Axes with ``r_e[i] == 0`` are inert (their step is ignored).  ``x`` may be
    a single point or an ``(N, d)`` array; all evaluation points
    ``x + j h`` (componentwise ``0 <= j <= r_e``) must be evaluatable.
    """
    r_e = as_multi_index(r_e)
    h = as_step_vector(h, r_e.dim).array()
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.shape[1] != r_e.dim:
        pts = pts.reshape(-1, r_e.dim)
    mult, coef = _difference_table(r_e.entries)
    shifted = pts[None, :, :] + mult[:, None, :] * h[None, None, :]
    vals = np.asarray(f(shifted.reshape(-1, r_e.dim)), dtype=float)
    vals = vals.reshape(len(coef), pts.shape[0])
    return coef @ vals


def _shift_norms(f, r_e: MultiIndex, steps: np.ndarray, p: float,
                 domain: Parallelepiped, quad: QuadratureSpec) -> np.ndarray:
    """Per step (row of ``steps``): the sup norm (p = inf) or the integral of
    ``|diff|^p`` over the shifted box, 0 where that box is empty.  Bounds, grid
    and difference use the arithmetic of :func:`shifted_domain`,
    :func:`box_rule` and :func:`mixed_difference`, per axis; f runs once per
    chunk, on the tensor grids of the chunk's shifted boxes.  A NaN norm of a
    non-empty box raises :class:`FloatingPointError` naming its step."""
    if not (1.0 <= p <= math.inf):
        raise ValueError(f"p must lie in [1, inf], got {p}")
    mult, coef = _difference_table(r_e.entries)
    y = r_e.array() * steps
    lo = np.where(y < 0, domain.lower - y, domain.lower)
    hi = np.where(y >= 0, domain.upper - y, domain.upper)
    keep = np.flatnonzero(~np.any(lo > hi, axis=1))
    half, mid = 0.5 * (hi[keep] - lo[keep]), 0.5 * (lo[keep] + hi[keep])
    rule, nodes = quad.rule_for(p)
    ref_wts = _reference_weights(rule, nodes)
    n_ref = math.prod(nodes)
    # per kept step: box nodes (K, 1, n_i), difference offsets (K, T, 1), box scale
    nodes_at = [(axis_rule(rule, n)[0] * half[:, i, None] + mid[:, i, None])[:, None]
                for i, n in enumerate(nodes)]
    offsets = [mult[:, i, None] * steps[keep, i, None, None] for i in range(r_e.dim)]
    scale = np.prod(half, axis=1)[:, None]
    norms = np.empty(len(keep))
    per = max(1, _CHUNK_POINTS // (len(coef) * n_ref))
    for start in range(0, len(keep), per):
        at = slice(start, start + per)
        vals = grid_values(f, [x[at] + o[at] for x, o in zip(nodes_at, offsets)])
        diff = coef @ vals.reshape(-1, len(coef), n_ref)  # (chunk, n_ref)
        del vals  # free the chunk before the reduction
        np.abs(diff, out=diff)
        if p == math.inf:
            norms[at] = np.max(diff, axis=1)
        else:  # one dot product per step, the reduction of lp_power_integral
            diff **= p
            norms[at] = np.matmul((scale[at] * ref_wts)[:, None, :], diff[:, :, None])[:, 0, 0]
    bad = np.flatnonzero(np.isnan(norms))
    if bad.size:
        raise FloatingPointError(f"NaN norm of the order {r_e.entries} difference at step "
                                 f"{tuple(steps[keep[bad[0]]].tolist())}")
    out = np.zeros(len(steps))
    out[keep] = norms
    return out


def modulus(f, r_e, t, p, domain, *, quad: QuadratureSpec | None = None,
            h_grid: int = DEFAULT_H_GRID) -> float:
    """Sup-type mixed modulus of order ``r_e`` at step bound ``t``.

    The positive entries of ``r_e`` define the coordinate subset.  Discretized
    sup over the non-negative step grid of the L_p norm of the mixed
    difference over the shifted domain; empty shifted domains contribute
    nothing.  ``t`` is clamped componentwise to the box size (a larger search
    radius adds nothing; the clamp is logged).  ``h_grid`` is the number of
    equispaced step values searched per active axis, endpoints included.
    """
    dim = getattr(f, "dimension", domain.dim)
    r_e = as_multi_index(r_e, dim)
    t = as_step_vector(t, dim)
    active = [i for i in range(dim) if r_e[i] > 0]
    if not active:
        raise ValueError("modulus needs an order with a positive entry")
    if h_grid < 2:
        raise ValueError("h_grid must be >= 2")
    clamped = StepVector(tuple(min(ti, si) for ti, si in zip(t, domain.size())))
    if clamped != t:
        log.info("clamping modulus step bound %s to box size %s", t.entries, clamped.entries)
    t = clamped
    steps = np.zeros((h_grid ** len(active), dim))
    steps[:, active] = tensor_grid([np.linspace(0.0, t[i], h_grid) for i in active])
    # empty boxes give 0 and a NaN norm raises, so the max starts at 0
    best = np.max(_shift_norms(f, r_e, steps, p, domain, quad or QuadratureSpec.for_dim(dim)),
                  initial=0.0)
    return float(best if p == math.inf else best ** (1.0 / p))


def total_modulus(f, r, t, p, domain, *, quad: QuadratureSpec | None = None,
                  h_grid: int = DEFAULT_H_GRID) -> float:
    """Total mixed modulus: sum of the sup-type moduli over non-empty subsets."""
    r = as_multi_index(r, getattr(f, "dimension", domain.dim))
    if not r.is_positive():
        raise ValueError("total modulus needs r >= 1 on every axis")
    return sum(modulus(f, e.project(r), t, p, domain, quad=quad, h_grid=h_grid)
               for e in subsets(r.dim))


def p_mean_modulus(f, r_e, t, p, domain, *, quad: QuadratureSpec | None = None,
                   h_grid: int = DEFAULT_H_GRID,
                   mean_nodes: int = DEFAULT_MEAN_NODES) -> float:
    """p-mean modulus of order ``r_e``: step-integrated variant of the sup modulus.

    Computes ``((prod_{active} t_i^-1) * int_{|h_i|<=t_i} int |diff|^p dx dh)^(1/p)``
    over the signed step box of the active axes.  The integrand is even in each
    ``h_i`` (module docstring), so one ``mean_nodes``-point Gauss-Legendre panel
    on ``[0, t_i]``, ending at the generic kink h = 0, carries doubled weights.
    At p = inf the value is :func:`modulus` with the same ``h_grid``, bit for bit.

    The normalization divides by ``prod t_i``, not by the signed box measure
    ``prod 2 t_i``, so the folded form reads ``w_e^p = 2^|e| * (mean over
    [0, t]^e)``, and for p < inf ``w_e <= 2^(|e|/p) * omega_e``.  In general
    ``w_e <= omega_e`` does not hold (``f(x) = x``, r = 1, t = 1, p = 1 gives
    ``w = 1/3`` against ``omega = 1/4``).
    """
    dim = getattr(f, "dimension", domain.dim)
    r_e = as_multi_index(r_e, dim)
    t = as_step_vector(t, dim)
    active = [i for i in range(r_e.dim) if r_e[i] > 0]
    if not active:
        raise ValueError("p-mean modulus needs a non-empty active subset")
    if p == math.inf:
        return modulus(f, r_e, t, p, domain, quad=quad, h_grid=h_grid)
    quad = quad or QuadratureSpec.for_dim(dim)
    if any(t[i] == 0.0 for i in active):
        return 0.0  # limit convention: vanishing step box
    panels = [axis_rule(GAUSS, mean_nodes, 0.0, t[i]) for i in active]
    steps = np.zeros((mean_nodes ** len(active), r_e.dim))
    steps[:, active] = tensor_grid([x for x, _ in panels])
    w_h = tensor_product([2.0 * w for _, w in panels])
    acc = float(np.dot(w_h, _shift_norms(f, r_e, steps, p, domain, quad)))
    scale = float(np.prod([1.0 / t[i] for i in active]))
    return max(scale * acc, 0.0) ** (1.0 / p)


def total_p_mean_modulus(f, r, t, p, domain, *, quad: QuadratureSpec | None = None,
                         h_grid: int = DEFAULT_H_GRID,
                         mean_nodes: int = DEFAULT_MEAN_NODES) -> float:
    """Total p-mean modulus: sum of p-mean moduli over non-empty subsets."""
    r = as_multi_index(r, getattr(f, "dimension", domain.dim))
    if not r.is_positive():
        raise ValueError("total p-mean modulus needs r >= 1 on every axis")
    return sum(p_mean_modulus(f, e.project(r), t, p, domain, quad=quad, h_grid=h_grid,
                              mean_nodes=mean_nodes)
               for e in subsets(r.dim))


def whitney_constant_sum(r) -> float:
    """The exact lower-bound constant ``sum over all subsets e of prod_{i in e} 2^{r_i}``,
    which factors as ``prod_i (1 + 2^{r_i})``."""
    return math.prod(1.0 + 2.0 ** ri for ri in as_multi_index(r))
