"""Mixed finite-difference operators and the four moduli of smoothness.

The univariate operator of order m with step h is
``sum_{j=0}^m (-1)^(m-j) C(m, j) f(x + j h)``; mixed operators compose it
across the active axes.  By translation ``Delta_{-h} f(x) = (-1)^r
Delta_h f(x - r h)`` per axis, and the shifted box of ``-h`` is that of ``h``
moved by ``r h``, so the norm of a difference is even in each active ``h_i``:
the sup-type modulus searches positive step grids and the p-mean modulus
integrates ``[0, t_i]`` with doubled weights (tests check both against signed
loops).  Every shifted box is an affine image of one reference grid, so
:func:`_shift_norms` measures a whole step grid in a few array passes.

The four moduli share one call form, ``(f, r, t, p, domain, *,
quad=QuadratureSpec(), h_grid=DEFAULT_H_GRID)``, the p-mean ones with
``mean_nodes=DEFAULT_MEAN_NODES`` besides.  The resolutions are keyword-only,
so two integer resolutions can never be swapped by position.  Orders are
plain tuples read by :func:`whitney_lab.geometry.as_order`, and a total
modulus sums the term of ``project(r, e)`` over ``subsets(d)``.  A function
that declares a ``dimension`` must match the box's.

Those passes take the steps in chunks of about ``_CHUNK_POINTS`` values of
``f`` (the ``T`` difference terms on the reference grid, per step), so that a
chunk's values, about 512 KiB, stay in L2 while the difference and the norm
read them, and each call of ``f`` covers many shifted boxes.  The budget sets
only how many steps share a chunk, never the bits: each step's difference is
``coef @`` its own ``(T, n_ref)`` block, its norm is its own max or dot
product, and the box nodes, offsets and scales are computed once per call,
element by element.  (The stencil evaluator's ``_CHUNK_BUDGET`` is unlike
this: its block edges are matrix shapes, and they do fix the bits.)

For an entry with ``factors`` and d >= 2, :func:`modulus` measures on the
tensor grid only the steps that can set its sup.  (In 1-D that bound would
cost what the grid costs.)  The difference of a product is the product of the
factors' 1-D differences (the plain factor on an inactive axis), and the max
or the quadrature sum of a product over a tensor grid is the product of 1-D
ones.  So one pass per axis
and step value, on the input floats of :func:`_shift_norms`, gives the norm
``N_i`` of the 1-D difference (its max, or the integral of its p-th power),
the largest factor value ``M_i`` it reads and the interval length ``L_i``.
With ``U = prod N_i`` (to the power ``1/p`` for finite p), the grid norm of a
step lies within ``delta = A + rho (U + A) + floor`` of ``U``, where::

    A = (T + _EVAL_ULPS) eps 2^|r_e| prod M_i (prod L_i)^(1/p)

A step is measured iff ``U + delta >= max over steps of (U - delta)``: a step
outside that cannot hold the largest value.  A step's grid value does not
depend on the other steps of its chunk, so the modulus is the same float as
the full search's.  The terms, with ``u = eps / 2``
(Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 3-4):

- A grid value of f is the product of the factor values at its point within
  a relative ``_EVAL_ULPS eps``.  A product entry folds its own factor values
  (``d - 1`` roundings).  ``exp(a . x)`` rounds its argument sum, which moves
  the value by at most ``u |a . x|`` relative.  While every factor value is a
  normal float, ``|a_i x_i| < 709``, so for d <= 2 that is below 709 eps, and
  the exp calls add a few ulps each.  1024 covers both.
- The grid's difference is an inner product of ``T`` terms, and the 1-D
  differences have ``r_i + 1`` terms each.  Their rounding is at most
  ``(T u + sum (r_i + 1) u) sum |c_j| |f_j| <= T eps 2^|r_e| prod M_i``, since
  ``sum |c_j| = 2^|r_e|`` and every value read is at most ``prod M_i``.
- By Minkowski's inequality a pointwise error ``e`` moves the quadrature
  norm by at most ``e (prod L_i)^(1/p)``: the weights sum to ``prod L_i``.
- ``rho`` is the relative rounding of the sums of ``|.|^p``: ``n`` non-negative
  terms sum within ``n u``, and the weights, the powers and the product of
  the ``N_i`` add a few roundings per axis, ``rho = (n_ref + sum n_i + 6 d)
  eps``.  At p = inf only the product of the ``d`` maxima rounds: ``d eps``.
- ``floor = (n_ref + T) tiny`` (its ``1/p`` power for finite p) covers values
  that underflow.

A NaN or an overflow in the bound prunes nothing, so the grid path raises
naming the first NaN step, as for a plain callable.

The arrays of a 1-D pass do not depend on p, only their reduction to ``N_i``
does, so :func:`_axis_pass` memoizes them per ``(factor, r_i, step values,
rule, nodes, interval)``, every input of its value, as read-only arrays.  The
active pass of an axis then serves each subset of a total that holds the axis,
and a Gauss pass both p = 1 and p = 2.  ``_AXIS_PASS_CACHE`` holds the passes
of one ``(f, r, step)`` group of the harness at d <= 2: per axis an active and
an inactive pass, each on the Gauss and the Lobatto grid: ``4 d`` entries, each
at most about 17 KiB at the default resolutions.

The grid path's differences do not depend on p either: only the reduction of
``|Delta_h f(x)|`` over the shifted box does, to a weighted sum of its p-th
powers or to its max.  So :func:`_grid_differences` memoizes, per ``(f, r_e,
steps, rule, nodes, box)`` -- every input of its value, the steps as their
bytes and count, and ``rule, nodes`` as ``quad.rule_for(p, d)`` names them, so
that only ``geometry`` decides which p share a grid -- the kept steps, their
box scales and each step's ``|coef @ vals|`` row, as read-only arrays.  The
chunk budget is not part of the key, since it does not fix the bits.  A
finite p that measures the steps of an earlier one then evaluates no value of
f: it reduces the Gauss grid's rows in chunks of the grid path's own steps
(the p-th power, which p = 1 skips, then one dot product per step), so it
makes no array the size of the rows.  The sup grid's rule has no weights and
only a row's max is ever read, so there the memo holds only each step's max,
reduced chunk by chunk.  ``_DIFF_CACHE`` holds one ``(f, r, step)`` group of
the harness at d <= 2: per non-empty subset one sup-type and one p-mean step
set, ``2 (2^d - 1)`` = 6 entries.  (p = inf's sup-grid entries then evict the
oldest Gauss ones, which the next group does not read.)  At the default resolutions (32 Gauss nodes per axis,
``mean_nodes`` 16) the d = 2 p-mean entries of a group hold 2.25 MiB, and a
sup-type entry of a step set that is not pruned up to 8 MiB (``32^2`` steps of
``32^2`` floats); at the ``moduli`` benchmark's (24 nodes, ``mean_nodes`` 12)
the p-mean entries hold 0.74 MiB, and the pruned sup-type ones a few steps of
4.5 KiB.  A callable that cannot be hashed, such as a ``TensorPolynomial``
(its coefficients are an array), runs the same function uncached through its
``__wrapped__``.
"""

from __future__ import annotations

import itertools
import logging
import math
from functools import lru_cache, reduce

import numpy as np

from .geometry import (
    GAUSS,
    Parallelepiped,
    QuadratureSpec,
    _reference_weights,
    as_order,
    as_steps,
    axis_rule,
    function_dim,
    grid_values,
    lp_norm,  # unused here; bench/tests/test_spantrace.py checks its binding is traced
    project,
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
# relative gap, in units of eps, allowed between a value of an entry and the
# product of its factor values at the same point (module docstring)
_EVAL_ULPS = 1024
# 1-D passes of _contenders kept (module docstring): 4 d at d <= 2
_AXIS_PASS_CACHE = 4 * 2
# grid differences of _shift_norms kept (module docstring): 2 (2^d - 1) at d <= 2
_DIFF_CACHE = 2 * (2 ** 2 - 1)


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
    r_e = as_order(r_e)
    h = np.asarray(as_steps(h, len(r_e)))
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.shape[1] != len(r_e):
        pts = pts.reshape(-1, len(r_e))
    mult, coef = _difference_table(r_e)
    shifted = pts[None, :, :] + mult[:, None, :] * h[None, None, :]
    vals = np.asarray(f(shifted.reshape(-1, len(r_e))), dtype=float)
    vals = vals.reshape(len(coef), pts.shape[0])
    return coef @ vals


def _count(name: str, value, least: int) -> int:
    """A resolution count: an int, not a bool, of at least ``least``."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be a whole number of nodes or steps, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


def _chunk_steps(terms: int, n_ref: int) -> int:
    """Steps per chunk of the grid path: about ``_CHUNK_POINTS`` values of f."""
    return max(1, _CHUNK_POINTS // (terms * n_ref))


@lru_cache(maxsize=_DIFF_CACHE)
def _grid_differences(f, r_e: tuple[int, ...], step_bytes: bytes, count: int, rule: str,
                      nodes: tuple[int, ...], domain: Parallelepiped):
    """The part of :func:`_shift_norms` that does not depend on p, on the grid
    of ``rule`` and ``nodes`` (``quad.rule_for(p, d)``), for the ``count``
    steps in ``step_bytes``: the indices of the steps whose shifted box is
    non-empty, their box scales ``prod half`` ``(K, 1)``, and per kept step
    the ``|coef @ vals|`` row ``(K, n_ref)`` -- on the sup grid, whose rule
    has no weights, only its max ``(K,)``.  Read-only (module docstring)."""
    steps = np.frombuffer(step_bytes).reshape(count, len(r_e))
    mult, coef = _difference_table(r_e)
    y = np.asarray(r_e) * steps
    lo = np.where(y < 0, domain.lower - y, domain.lower)
    hi = np.where(y >= 0, domain.upper - y, domain.upper)
    keep = np.flatnonzero(~np.any(lo > hi, axis=1))
    half, mid = 0.5 * (hi[keep] - lo[keep]), 0.5 * (lo[keep] + hi[keep])
    n_ref = math.prod(nodes)
    # per kept step: box nodes (K, 1, n_i), difference offsets (K, T, 1), box scale
    nodes_at = [(axis_rule(rule, n)[0] * half[:, i, None] + mid[:, i, None])[:, None]
                for i, n in enumerate(nodes)]
    offsets = [mult[:, i, None] * steps[keep, i, None, None] for i in range(len(r_e))]
    scale = np.prod(half, axis=1)[:, None]
    weighted = _reference_weights(rule, nodes) is not None
    diffs = np.empty((len(keep), n_ref) if weighted else len(keep))
    per = _chunk_steps(len(coef), n_ref)
    for start in range(0, len(keep), per):
        at = slice(start, start + per)
        vals = grid_values(f, [x[at] + o[at] for x, o in zip(nodes_at, offsets)])
        # (chunk, n_ref): on a weighted grid each step's row, straight into the memo
        diff = np.matmul(coef, vals.reshape(-1, len(coef), n_ref),
                         out=diffs[at] if weighted else None)
        del vals  # free the chunk before the next one
        np.abs(diff, out=diff)
        if not weighted:  # only the max is ever read
            diffs[at] = np.max(diff, axis=1)
    for arr in (keep, scale, diffs):
        arr.setflags(write=False)
    return keep, scale, diffs


def _shift_norms(f, r_e: tuple[int, ...], steps: np.ndarray, p: float,
                 domain: Parallelepiped, quad: QuadratureSpec) -> np.ndarray:
    """Per step (row of ``steps``): the sup norm (p = inf) or the integral of
    ``|diff|^p`` over the shifted box, 0 where that box is empty.  Bounds, grid
    and difference use the arithmetic of :func:`shifted_domain`,
    :func:`box_rule` and :func:`mixed_difference`, per axis; f runs once per
    chunk, on the tensor grids of the chunk's shifted boxes.  The differences
    come from :func:`_grid_differences`, memoized when f is hashable, so every
    finite p after the first reads the Gauss grid's rows; only the reduction,
    in chunks of the same steps, runs per p.  A NaN norm of a non-empty box
    raises :class:`FloatingPointError` naming its step."""
    if not (1.0 <= p <= math.inf):
        raise ValueError(f"p must lie in [1, inf], got {p}")
    rule, nodes = quad.rule_for(p, len(r_e))
    steps = np.asarray(steps, dtype=float)
    try:
        hash(f)
        differences = _grid_differences
    except TypeError:  # e.g. a TensorPolynomial, whose coefficients are an array
        differences = _grid_differences.__wrapped__
    keep, scale, diffs = differences(f, r_e, steps.tobytes(), len(steps), rule, nodes, domain)
    ref_wts = _reference_weights(rule, nodes)
    if ref_wts is None:  # the sup grid's memo holds each step's max
        norms = diffs
    else:  # one dot product per step, the reduction of lp_power_integral
        norms = np.empty(len(keep))
        per = _chunk_steps(len(_difference_table(r_e)[1]), len(ref_wts))
        for start in range(0, len(keep), per):
            at = slice(start, start + per)
            rows = diffs[at] if p == 1.0 else diffs[at] ** p  # x ** 1.0 is x
            norms[at] = np.matmul((scale[at] * ref_wts)[:, None, :], rows[:, :, None])[:, 0, 0]
    bad = np.flatnonzero(np.isnan(norms))
    if bad.size:
        raise FloatingPointError(f"NaN norm of the order {r_e} difference at step "
                                 f"{tuple(steps[keep[bad[0]]].tolist())}")
    out = np.zeros(len(steps))
    out[keep] = norms
    return out


@lru_cache(maxsize=_AXIS_PASS_CACHE)
def _axis_pass(fac, ri: int, h: tuple[float, ...], rule: str, n: int, a: float, b: float):
    """The p-independent arrays of one axis's 1-D pass of :func:`_contenders`,
    over the step values ``h``: the mask of the non-empty intervals, and on
    those the half length, ``|coef @ fac(x)|`` ``(steps, n)``, the largest
    ``|fac|`` read and the length, with the rule's weights.  Read-only."""
    # _shift_norms's box, node and offset arithmetic on this axis
    h = np.asarray(h)
    y = ri * h
    lo, hi = np.where(y < 0, a - y, a), np.where(y >= 0, b - y, b)
    ok = lo <= hi  # an empty interval empties the box, whose norm is 0
    lo, hi, h = lo[ok], hi[ok], h[ok]
    half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
    ref, wts = axis_rule(rule, n)
    mult, coef = _difference_table((ri,))
    x = (ref * half[:, None] + mid[:, None])[:, None, :] + mult * h[:, None, None]
    vals = np.asarray(fac(x), dtype=float)  # (steps, ri + 1, n)
    out = ok, half, np.abs(coef @ vals), np.max(np.abs(vals), axis=(1, 2)), hi - lo, wts
    for arr in out:
        if arr is not None:  # the sup grid has no weights
            arr.setflags(write=False)
    return out


def _contenders(factors, r_e: tuple[int, ...], axis_steps: list[np.ndarray], p: float,
                domain: Parallelepiped, quad: QuadratureSpec) -> np.ndarray:
    """Mask over the steps ``tensor_grid(axis_steps)`` of those whose
    :func:`_shift_norms` value can be the largest, from 1-D passes over the
    ``factors`` of the entry (module docstring).  The passes are memoized
    (:func:`_axis_pass`); only their reduction to ``N_i`` depends on p.  A NaN
    or an overflow in the bound keeps every step."""
    rule, nodes = quad.rule_for(p, len(r_e))
    per_axis = []  # rows: the norm N_i, the largest factor value M_i, the length L_i
    for fac, h, ri, n, a, b in zip(factors, axis_steps, r_e, nodes,
                                   domain.lower, domain.upper):
        ok, half, diff, top, length, wts = _axis_pass(fac, ri, tuple(h.tolist()), rule, n, a, b)
        axis = np.zeros((3, len(ok)))
        axis[:, ok] = (np.max(diff, axis=1) if p == math.inf else half * (diff ** p @ wts),
                       top, length)
        per_axis.append(axis)
    norm, top, length = (reduce(np.multiply, np.ix_(*rows)).ravel() for rows in zip(*per_axis))
    eps, terms, n_ref = np.finfo(float).eps, len(_difference_table(r_e)[1]), math.prod(nodes)
    spread = (terms + _EVAL_ULPS) * eps * 2.0 ** sum(r_e) * top
    floor = (n_ref + terms) * np.finfo(float).tiny
    if p == math.inf:
        rho = len(r_e) * eps
    else:
        norm, spread, floor = norm ** (1.0 / p), spread * length ** (1.0 / p), floor ** (1.0 / p)
        rho = (n_ref + sum(nodes) + 6 * len(r_e)) * eps
    delta = spread + rho * (norm + spread) + floor
    if not (np.all(np.isfinite(norm)) and np.all(np.isfinite(delta))):
        return np.ones(norm.size, dtype=bool)
    return norm + delta >= np.max(norm - delta)


def modulus(f, r_e, t, p, domain, *, quad: QuadratureSpec = QuadratureSpec(),
            h_grid: int = DEFAULT_H_GRID) -> float:
    """Sup-type mixed modulus of order ``r_e`` at step bound ``t``.

    The positive entries of ``r_e`` define the coordinate subset.  Discretized
    sup over the non-negative step grid of the L_p norm of the mixed
    difference over the shifted domain; empty shifted domains contribute
    nothing.  ``t`` is clamped componentwise to the box size (a larger search
    radius adds nothing; the clamp is logged).  ``h_grid`` is the number of
    equispaced step values per active axis, endpoints included.  The zero
    step is never evaluated: a difference with ``h_i = 0`` on an active axis
    is 0, so the search runs over the other ``h_grid - 1`` values of each
    axis, and any active ``t_i == 0`` gives 0.0.  For an entry with ``factors``
    and d >= 2, a per-axis bound prunes the steps that cannot hold the sup
    before the grid measures the rest; the value is the same float (module
    docstring).
    """
    dim = function_dim(f, domain)
    r_e = as_order(r_e, dim)
    t = as_steps(t, dim)
    active = [i for i in range(dim) if r_e[i] > 0]
    if not active:
        raise ValueError("modulus needs an order with a positive entry")
    h_grid = _count("h_grid", h_grid, 2)
    clamped = tuple(min(ti, float(si)) for ti, si in zip(t, domain.size()))
    if clamped != t:
        log.info("clamping modulus step bound %s to box size %s", t, clamped)
    t = clamped
    if any(t[i] == 0.0 for i in active):
        return 0.0  # every difference in the search has a zero step
    axis_steps = [np.linspace(0.0, t[i], h_grid)[1:] if r_e[i] else np.zeros(1)
                  for i in range(dim)]
    steps = tensor_grid(axis_steps)
    factors = getattr(f, "factors", None)
    # in 1-D the bound would cost the grid's own work; _shift_norms rejects p < 1
    if factors is not None and dim > 1 and p >= 1.0:
        steps = steps[_contenders(factors, r_e, axis_steps, p, domain, quad)]
    # empty boxes give 0 and a NaN norm raises, so the max starts at 0
    best = np.max(_shift_norms(f, r_e, steps, p, domain, quad), initial=0.0)
    return float(best if p == math.inf else best ** (1.0 / p))


def total_modulus(f, r, t, p, domain, *, quad: QuadratureSpec = QuadratureSpec(),
                  h_grid: int = DEFAULT_H_GRID) -> float:
    """Total mixed modulus: sum of the sup-type moduli over non-empty subsets."""
    r = as_order(r, function_dim(f, domain))
    if min(r) < 1:
        raise ValueError("total modulus needs r >= 1 on every axis")
    return sum(modulus(f, project(r, e), t, p, domain, quad=quad, h_grid=h_grid)
               for e in subsets(len(r)))


def p_mean_modulus(f, r_e, t, p, domain, *, quad: QuadratureSpec = QuadratureSpec(),
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
    dim = function_dim(f, domain)
    r_e = as_order(r_e, dim)
    t = as_steps(t, dim)
    active = [i for i in range(dim) if r_e[i] > 0]
    if not active:
        raise ValueError("p-mean modulus needs a non-empty active subset")
    mean_nodes = _count("mean_nodes", mean_nodes, 1)
    if p == math.inf:
        return modulus(f, r_e, t, p, domain, quad=quad, h_grid=h_grid)
    if any(t[i] == 0.0 for i in active):
        return 0.0  # limit convention: vanishing step box
    panels = [axis_rule(GAUSS, mean_nodes, 0.0, t[i]) for i in active]
    steps = np.zeros((mean_nodes ** len(active), dim))
    steps[:, active] = tensor_grid([x for x, _ in panels])
    w_h = tensor_product([2.0 * w for _, w in panels])
    acc = float(np.dot(w_h, _shift_norms(f, r_e, steps, p, domain, quad)))
    scale = float(np.prod([1.0 / t[i] for i in active]))
    return max(scale * acc, 0.0) ** (1.0 / p)


def total_p_mean_modulus(f, r, t, p, domain, *, quad: QuadratureSpec = QuadratureSpec(),
                         h_grid: int = DEFAULT_H_GRID,
                         mean_nodes: int = DEFAULT_MEAN_NODES) -> float:
    """Total p-mean modulus: sum of p-mean moduli over non-empty subsets."""
    r = as_order(r, function_dim(f, domain))
    if min(r) < 1:
        raise ValueError("total p-mean modulus needs r >= 1 on every axis")
    return sum(p_mean_modulus(f, project(r, e), t, p, domain, quad=quad, h_grid=h_grid,
                              mean_nodes=mean_nodes)
               for e in subsets(len(r)))


def whitney_constant_sum(r) -> float:
    """The exact lower-bound constant ``sum over all subsets e of prod_{i in e} 2^{r_i}``,
    which factors as ``prod_i (1 + 2^{r_i})``."""
    return math.prod(1.0 + 2.0 ** ri for ri in as_order(r))
