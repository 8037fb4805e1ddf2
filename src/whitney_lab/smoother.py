"""Cardinal B-splines, B-spline averaging operators, and K-functional brackets.

The univariate averaging operator of order k at scale t adds to the function
an integral of its k-th differences against the cardinal B-spline:

    (A_t f)(x) = f(x) + (-1)^(k+1) * integral of diff_k(f, x; t h) M_k(h) dh,

with M_k supported on [0, k].  It reproduces polynomials of coordinate degree
below k, and its k-th derivative collapses to a finite combination of k-th
differences, which is how derivative norms of the smoothed function are
computed here without ever differentiating numerically.  The multivariate
operator composes the univariate one across axes; it is valid on the box
trimmed by a quarter of each axis length, on the side the differences step
towards.  Running the operator with negative steps trims the opposite side,
which realizes a valid smoother on each of the 2^d quarter-trimmed subboxes
used by the subdivision argument.

Everything reduces to separable offset/weight stencils applied to the base
function.  For a base with a factor view (``FunctionSpec.factors``), a term
whose stencils put a derivative on at most one axis is the outer product of
1-D stencil outputs, one per axis (:func:`_smoothed_values`): O(sum n_i l_i)
work, not O(prod n_i l_i).  These are the smoothing term ``||f - A_t f||``
of a bracket and its ``|e| = 1`` derivative terms (every derivative term in
d = 1).  A smoothing stencil's weights sum to at most 2^k in absolute value
whatever t is, and a derivative stencil's to about t^-r, so such a term
amplifies round-off on its one derivative axis only, and the factored form
moves it at round-off only.  Every other term -- derivatives on two or
more axes, or a base without factors -- takes the per-axis nodes and
weights of :func:`whitney_lab.geometry.tensor_quadrature`, evaluates the
base function once on those nodes expanded by the stencil offsets, and
contracts axis by axis.  The order of contraction does not tame the
cancellation of the derivative stencils: the round-off of the base values
is amplified by the product of the per-axis weight sums, about
``prod t_i^-r_i`` on the derivative axes, so at small t the mixed
derivative norms carry a relative error far above the unit round-off
(ROADMAP item 3b), and factoring them would move the output by up to 2% at
small t.

The same amplification makes the bits of a grid-contracted term depend on
how the contraction is handed to BLAS.  Each contraction is one
``tensordot``, that is one matrix-vector product of the values, flattened to
rows, with an axis's weights, and which kernel treats a row, and so the last
bit of its sum, depends on the matrix's shape and the row's position in it.
Two rules fix those matrices.  A block of whole axis-0 rows
(``_CHUNK_BUDGET`` values at most) is evaluated by
:func:`whitney_lab.geometry.grid_values` in the interleaved layout
``(n_0, l_0, n_1, l_1, ...)``, n_i the grid nodes and l_i the stencil
offsets of axis i, and each ``l_i`` is contracted where it stands.  And the
block rule is fixed: another budget moves the block edges, hence the
matrices, hence the last bits, and the derivative stencils amplify those
into the output.

:func:`k_functional_bracket` takes the call form of the moduli,
``(f, r, t, p, box, *, quad=QuadratureSpec(), h_grid=DEFAULT_H_GRID,
panel_nodes=DEFAULT_PANEL_NODES)``, with keyword-only resolutions; its helpers
take ``quad`` and ``panel_nodes`` directly.  Orders are plain tuples, and axis
subsets the sorted tuples of :func:`whitney_lab.geometry.subsets`: they key
``details["omega_terms"]``, ``details["deriv_terms"]`` and
:func:`subdivision_boxes`, and :func:`smoothed_derivative` takes one.

A bracket memoizes what does not depend on p, so that the p values of one
``(f, r, t, box)`` share it and each p runs only :func:`grid_norm`: per
``(f, r, box, quad, rule, nodes)`` the box candidates' values
(:func:`_box_values`, whose polynomials :func:`_box_polys` builds once per
``(f, r, box, quad)``), and per ``(f, r, signed t, box, quad, panel_nodes,
rule, nodes)`` the stencil outputs of one signed smoother
(:func:`_signed_values`).  The rule and node counts are those that
``quad.rule_for`` returns for p, so the p values that share a grid (today
every finite p on the Gauss grid, and p = inf alone on the Lobatto one) are
decided in :mod:`whitney_lab.geometry` only.  A key holds every input of its
value, the arrays are read-only, and the values keep their bits.  The sizes
hold one ``(f, r, step)`` group of the harness at d <= 2: the box and its
``2^d`` subboxes, and one smoother per sign pattern, each on two grids (at
most about 2 MiB at the default resolutions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .differences import DEFAULT_H_GRID, _count, _subset_terms, modulus, whitney_constant_sum
from .functions import FunctionSpec, _pts
from .geometry import (
    GAUSS,
    Parallelepiped,
    QuadratureSpec,
    _weighted_sum,
    as_order,
    as_steps,
    axis_rule,
    box_rule,
    function_dim,
    grid_norm,
    grid_values,
    project,
    subsets,
)
from .polyapprox import _project_l2, taylor_poly

__all__ = [
    "DomainValidityError",
    "BracketViolation",
    "bspline_eval",
    "SmoothedFunction",
    "smooth_univariate",
    "smooth_mixed",
    "smoothed_derivative",
    "KBracket",
    "k_functional_bracket",
    "subdivision_boxes",
]

DEFAULT_PANEL_NODES = 16  # Gauss nodes per knot interval of the B-spline average
_CHUNK_BUDGET = 1 << 22  # max elements evaluated per base-function call
# memo sizes (module docstring): one (function, order, step) group at d <= 2
_POLY_CACHE = 2 ** 2 + 1  # the box and its 2^d subboxes: 2^d + 1
_BOX_CACHE = 2 * _POLY_CACHE  # those boxes on two grids: 2 (2^d + 1)
_STENCIL_CACHE = 2 * 2 ** 2  # one smoother per sign pattern on two grids: 2 * 2^d


class DomainValidityError(ValueError):
    """Requested scale or evaluation point violates the operator's validity box."""


class BracketViolation(RuntimeError):
    """The computed lower bracket exceeded the upper bracket (hard invariant)."""


def bspline_eval(k: int, x) -> np.ndarray | float:
    """Cardinal B-spline of order k with knots 0, ..., k via Cox-de Boor.

    Supported on [0, k], non-negative, unit integral (the uniform integer-knot
    normalization).
    """
    if k < 1:
        raise ValueError("B-spline order must be >= 1")
    scalar = np.isscalar(x)
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    vals = [np.where((xv >= i) & (xv < i + 1), 1.0, 0.0) for i in range(k)]
    for m in range(2, k + 1):
        nxt = []
        for i in range(k - m + 1):
            left = (xv - i) / (m - 1) * vals[i]
            right = (i + m - xv) / (m - 1) * vals[i + 1]
            nxt.append(left + right)
        vals = nxt
    out = vals[0]
    return float(out[0]) if scalar else out


@lru_cache(maxsize=None)
def _bspline_quadrature(k: int, panel_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes on each knot interval of M_k and weights premultiplied by M_k."""
    panels = [axis_rule(GAUSS, panel_nodes, j, j + 1) for j in range(k)]
    h = np.concatenate([x for x, _ in panels])
    w = np.concatenate([w for _, w in panels]) * bspline_eval(k, h)
    h.setflags(write=False)
    w.setflags(write=False)
    return h, w


@dataclass(frozen=True)
class AxisOp:
    """Separable 1-D stencil: (L f)(x) = sum_n weights[n] * f(x + offsets[n]).

    ``derivative`` marks the stencils of :func:`_derivative_op`, whose weights
    sum to about t^-r in absolute value (module docstring)."""

    offsets: np.ndarray
    weights: np.ndarray
    derivative: bool = False


def _identity_op() -> AxisOp:
    return AxisOp(np.zeros(1), np.ones(1))


def _smoothing_op(k: int, t: float, panel_nodes: int) -> AxisOp:
    # checked outside the memo, whose key does not tell True from 1
    h, wM = _bspline_quadrature(k, _count("panel_nodes", panel_nodes, 1))
    offsets = [np.zeros(1)]
    weights = [np.array([1.0 - wM.sum()])]  # f(x) term plus the j = 0 difference term
    for j in range(1, k + 1):
        sign = -1.0 if j % 2 == 0 else 1.0
        offsets.append(j * t * h)
        weights.append(sign * math.comb(k, j) * wM)
    return AxisOp(np.concatenate(offsets), np.concatenate(weights))


def _derivative_op(k: int, t: float) -> AxisOp:
    if t == 0.0:
        raise DomainValidityError("derivative stencil needs a nonzero scale")
    offs, wts = [], []
    for j in range(1, k + 1):
        outer = (t ** (-k)) * ((-1.0) ** (j + 1)) * (j ** (-k)) * math.comb(k, j)
        for l in range(k + 1):
            offs.append(l * j * t)
            wts.append(outer * ((-1.0) ** (k - l)) * math.comb(k, l))
    return AxisOp(np.asarray(offs), np.asarray(wts), derivative=True)


def _trimmed_interval(a: float, b: float, t: float) -> tuple[float, float]:
    quarter = 0.25 * (b - a)
    return (a, b - quarter) if t >= 0 else (a + quarter, b)


def _in_smoother_range(a: float, b: float, k: int, t: float) -> bool:
    """The validity rule of the order-k operator on [a, b]: ``|t| <= (b - a) /
    (4 k^2)``, so that its stencil, which reaches k^2 |t| past the point, stays
    within the quarter that :func:`_trimmed_interval` trims off."""
    return abs(t) <= (b - a) / (4.0 * k * k) * (1.0 + 1e-12)


@dataclass(frozen=True)
class SmoothedFunction:
    """A separable stencil applied to a base function, valid on a trimmed box."""

    ops: tuple[AxisOp, ...]
    base: object = field(repr=False)
    domain: Parallelepiped

    @property
    def dimension(self) -> int:
        """The dimension of the validity box."""
        return self.domain.dim

    def __call__(self, x) -> np.ndarray:
        pts = _pts(x, self.dimension)
        if not self.domain.contains(pts, tol=1e-10):
            raise DomainValidityError("evaluation outside the operator validity box")
        return _apply_at_points(self.ops, self.base, pts)


def _apply_at_points(ops: tuple[AxisOp, ...], base, pts: np.ndarray) -> np.ndarray:
    # the offsets of each point span a tensor grid, contracted one axis at a time
    combos = int(np.prod([op.offsets.size for op in ops]))
    out = np.empty(pts.shape[0])
    block = max(1, _CHUNK_BUDGET // max(1, combos))
    for start in range(0, pts.shape[0], block):
        chunk = pts[start:start + block]
        arr = grid_values(base, [chunk[:, i, None] + op.offsets for i, op in enumerate(ops)])
        for op in reversed(ops):
            arr = arr @ op.weights
        out[start:start + block] = arr
    return out


def _apply_on_tensor_grid(ops: tuple[AxisOp, ...], base,
                          axis_points: list[np.ndarray]) -> np.ndarray:
    """Evaluate the stencil on a tensor grid, contracting one axis at a time.

    A block of whole axis-0 rows is evaluated in the interleaved layout
    ``(n_0, l_0, n_1, l_1, ...)`` and each ``l_i`` is contracted where it
    stands (see the module docstring).
    """
    expanded = [x[:, None] + op.offsets for x, op in zip(axis_points, ops)]
    rest = [e.reshape(-1) for e in expanded[1:]]
    block = max(1, _CHUNK_BUDGET // max(1, ops[0].offsets.size * math.prod(map(len, rest))))
    chunks = []
    for start in range(0, axis_points[0].size, block):
        rows = expanded[0][start:start + block]
        arr = grid_values(base, [rows.reshape(-1), *rest])
        arr = arr.reshape([m for e in (rows, *expanded[1:]) for m in e.shape])
        for i, op in enumerate(ops):
            arr = np.tensordot(arr, op.weights, axes=(i + 1, 0))
        chunks.append(arr)
    return np.concatenate(chunks, axis=0)


def _read_only(vals: np.ndarray | None) -> np.ndarray | None:
    if vals is not None:  # the sup grid has no weights
        vals.setflags(write=False)
    return vals


def _smoothed_values(ops, base, axes, subtract_base: bool = False) -> np.ndarray:
    """The stencil output (or base - output) on the grid of per-axis nodes
    ``axes``, flattened in :func:`tensor_grid` order and read-only.

    For a base with ``factors`` and stencils with a derivative on at most one
    axis, the output is the outer product of the per-axis stencil outputs
    ``factor_i(x_i + offsets_i) @ weights_i``: O(sum n_i l_i) work, not
    O(prod n_i l_i), and a move at round-off only.  A stencil with derivatives
    on two or more axes keeps the grid contraction, whose round-off the
    product of the derivative weight sums amplifies into the output (module
    docstring).
    """
    factors = getattr(base, "factors", None)
    if factors is not None and sum(op.derivative for op in ops) <= 1:
        vals = reduce(np.multiply.outer, [fac(x[:, None] + op.offsets) @ op.weights
                                          for fac, x, op in zip(factors, axes, ops)])
    else:
        vals = _apply_on_tensor_grid(ops, base, axes)
    if subtract_base:
        vals = grid_values(base, axes) - vals
    return _read_only(vals.reshape(-1))


def _smoothed_lp_norm(ops, base, p: float, grid, subtract_base: bool = False) -> float:
    """L_p norm of the stencil output (or of base - output) on ``grid``, the
    ``(axes, wts)`` of :func:`whitney_lab.geometry.tensor_quadrature` for p
    (:func:`_smoothed_values`)."""
    axes, wts = grid
    return grid_norm(_smoothed_values(ops, base, axes, subtract_base), wts, p)


def smooth_univariate(f, k: int, t: float, axis: int, box: Parallelepiped,
                      panel_nodes: int = DEFAULT_PANEL_NODES) -> SmoothedFunction:
    """Averaging operator of order k at scale t applied along one axis.

    Valid for ``|t| <= (b - a) / (4 k^2)`` on the chosen axis; the result is
    declared on the box with that axis trimmed by a quarter of its length on
    the stepping side (the trailing side for t >= 0, the leading side
    otherwise).
    """
    if k < 1:
        raise ValueError("order must be >= 1")
    if not 0 <= axis < box.dim:
        raise ValueError(f"axis {axis} out of range")
    r, steps = [0] * box.dim, [0.0] * box.dim
    r[axis], steps[axis] = k, t
    ops, domain = _signed_ops_and_domain(r, steps, box, panel_nodes)
    return SmoothedFunction(ops, f, domain)


def _signed_ops_and_domain(r: tuple[int, ...], t, box: Parallelepiped, panel_nodes: int):
    """The smoothing stencil of each axis at the signed steps t, and the
    validity box they share; an axis of order 0 keeps the identity and its
    interval."""
    t = as_steps(t, len(r))
    lo, hi = list(box.lower), list(box.upper)
    for i in [i for i in range(len(r)) if r[i]]:
        a, b = box.axis_interval(i)
        if not _in_smoother_range(a, b, r[i], t[i]):
            raise DomainValidityError(
                f"|t_{i}|={abs(t[i])} exceeds the validity bound on [{a}, {b}]")
        lo[i], hi[i] = _trimmed_interval(a, b, t[i])
    ops = tuple(_smoothing_op(ri, ti, panel_nodes) if ri else _identity_op()
                for ri, ti in zip(r, t))
    return ops, Parallelepiped(lo, hi)


def smooth_mixed(f, r, t, box: Parallelepiped,
                 panel_nodes: int = DEFAULT_PANEL_NODES) -> SmoothedFunction:
    """Coordinate-wise composition of the univariate averaging operators.

    Valid on the box with every axis trimmed by a quarter of its length on
    the respective stepping side.
    """
    r = as_order(r, box.dim)
    if min(r) < 1:
        raise ValueError(f"smoother orders must be >= 1, got {r}")
    ops, domain = _signed_ops_and_domain(r, t, box, panel_nodes)
    return SmoothedFunction(ops, f, domain)


def smoothed_derivative(f, r, t, e: tuple[int, ...], box: Parallelepiped,
                        panel_nodes: int = DEFAULT_PANEL_NODES) -> SmoothedFunction:
    """Mixed derivative of order r(e) of the smoothed function.

    On each axis in ``e`` the order-r_i derivative of the univariate operator
    is the exact finite combination
    ``t^(-k) * sum_j (-1)^(j+1) j^(-k) C(k, j) diff_k(., j t)`` of k-th
    differences (k = r_i); the remaining axes keep their smoothing factor.
    The combination carries the binomial coefficient; a finite-difference
    oracle in the tests confirms this form.
    """
    r, t = as_order(r, box.dim), as_steps(t, box.dim)
    if not e or not set(e) <= set(range(box.dim)):
        raise ValueError(f"smoothed_derivative needs a non-empty subset of the axes, got {e}")
    smooth = smooth_mixed(f, r, t, box, panel_nodes)
    ops = tuple(_derivative_op(r[i], t[i]) if i in e else op
                for i, op in enumerate(smooth.ops))
    return SmoothedFunction(ops, f, smooth.domain)


# ---------------------------------------------------------------------------
# K-functional brackets
# ---------------------------------------------------------------------------

@dataclass
class KBracket:
    """Two-sided bracket for the mixed K-functional at weights t^r.

    ``witness`` names the candidate achieving the upper bound.  The lower
    bound is the exact modulus-based constant times the total modulus, so
    ``lower <= upper`` is a hard invariant, enforced at construction up to
    round-off: ``1e-9`` relative to ``upper`` plus ``1e-12 * norm``, where
    ``norm`` is ``||f||_p`` (the ``zero`` candidate), so the allowance scales
    with f.
    """

    lower: float
    upper: float
    witness: str
    details: dict = field(default_factory=dict)
    norm: float = 0.0

    def __post_init__(self):
        if self.lower > self.upper * (1.0 + 1e-9) + 1e-12 * self.norm:
            raise BracketViolation(
                f"bracket inverted: lower={self.lower} > upper={self.upper}")


@lru_cache(maxsize=_POLY_CACHE)
def _box_polys(f: FunctionSpec, r: tuple[int, ...], box: Parallelepiped,
               quad: QuadratureSpec):
    """The polynomial candidates of the box, ``(name, poly)``: the L2
    projection, and the Taylor polynomial at the lower corner when f is
    Sobolev up to r.  Neither depends on p."""
    polys = [("projection", _project_l2(f, r, box, quad))]
    if f.has_derivative(r):
        polys.append(("taylor", taylor_poly(f, r, np.asarray(box.lower), box)))
    return tuple(polys)


@lru_cache(maxsize=_BOX_CACHE)
def _box_values(f: FunctionSpec, r: tuple[int, ...], box: Parallelepiped,
                quad: QuadratureSpec, rule: str, nodes: tuple[int, ...]):
    """The box candidates' arrays on the :func:`box_rule` grid of ``rule`` and
    ``nodes`` (``quad.rule_for(p, box.dim)``): the weights, the values of f,
    those of each ``f^(r(e))`` over :func:`subsets` (``None`` unless f is
    Sobolev up to r), and the ``(name, residual)`` pairs of :func:`_box_polys`,
    each evaluated as :func:`lp_norm` evaluates it."""
    axes, wts = box_rule(box, rule, nodes)
    derivs = None
    if f.has_derivative(r):
        derivs = tuple(_read_only(grid_values(f.derivative_fn(project(r, e)), axes).reshape(-1))
                       for e in subsets(len(r)))
    polys = tuple((name, _read_only(grid_values(
                       lambda q: np.asarray(f(q)) - poly(q), axes).reshape(-1)))
                  for name, poly in _box_polys(f, r, box, quad))
    return _read_only(wts), _read_only(grid_values(f, axes).reshape(-1)), derivs, polys


def _box_candidates(f: FunctionSpec, r: tuple[int, ...], t, p, box, quad: QuadratureSpec):
    """Candidates valid on the whole given box (no smoother): g = 0, g = f
    (weights ``t^r(e)`` on the memoized derivative values), the polynomials."""
    wts, vals, derivs, polys = _box_values(f, r, box, quad, *quad.rule_for(p, box.dim))
    cands = [("zero", grid_norm(vals, wts, p))]
    if derivs is not None:
        cands.append(("identity", _weighted_sum(0.0, r, t, (grid_norm(d, wts, p)
                                                           for d in derivs))[0]))
    cands.extend((name, grid_norm(res, wts, p)) for name, res in polys)
    return cands


@lru_cache(maxsize=_STENCIL_CACHE)
def _signed_values(f: FunctionSpec, r: tuple[int, ...], signed: tuple[float, ...],
                   box: Parallelepiped, quad: QuadratureSpec, panel_nodes: int,
                   rule: str, nodes: tuple[int, ...]):
    """The stencil outputs of the smoother at the signed steps on the
    :func:`box_rule` grid of ``rule`` and ``nodes`` over its validity box:
    the weights, the values of ``f - g``, and the values of each subset's
    derivative term, over :func:`subsets`.

    The validity box, its grid and each axis's smoothing and derivative
    stencils are built once.  The term of subset e takes the derivative
    stencil on e's axes and the smoothing stencil elsewhere: the stencils
    that :func:`smoothed_derivative` builds for e, so each term has the bits
    of that reference path.
    """
    smooth, domain = _signed_ops_and_domain(r, signed, box, panel_nodes)
    deriv = [_derivative_op(r[i], ti) for i, ti in enumerate(signed)]
    axes, wts = box_rule(domain, rule, nodes)
    terms = tuple(_smoothed_values(tuple(deriv[i] if i in e else op
                                         for i, op in enumerate(smooth)), f, axes)
                  for e in subsets(len(r)))
    return _read_only(wts), _smoothed_values(smooth, f, axes, subtract_base=True), terms


def _directional_upper(f: FunctionSpec, r: tuple[int, ...], t, sigma: tuple[int, ...],
                       p, box, quad: QuadratureSpec, panel_nodes: int):
    """Functional value of the signed smoother, measured on its validity box,
    from the memoized stencil outputs of :func:`_signed_values`."""
    signed = tuple(s * ti for s, ti in zip(sigma, t))
    wts, fg_vals, terms = _signed_values(f, r, signed, box, quad, panel_nodes,
                                         *quad.rule_for(p, len(r)))
    f_minus_g = grid_norm(fg_vals, wts, p)
    value, deriv_terms = _weighted_sum(f_minus_g, r, t, (grid_norm(v, wts, p) for v in terms))
    return value, f_minus_g, deriv_terms


def subdivision_boxes(box: Parallelepiped) -> dict[tuple[int, ...], Parallelepiped]:
    """The 2^d overlapping quarter-trimmed subboxes, keyed by axis subset.

    Axes in the subset keep their left end and lose the last quarter; the
    other axes lose the first quarter.
    """
    out = {}
    for e in subsets(box.dim, include_empty=True):
        ends = [_trimmed_interval(*box.axis_interval(i), 1 if i in e else -1)
                for i in range(box.dim)]
        out[e] = Parallelepiped([a for a, _ in ends], [b for _, b in ends])
    return out


def k_functional_bracket(f: FunctionSpec, r, t, p: float, box: Parallelepiped, *,
                         quad: QuadratureSpec = QuadratureSpec(), h_grid: int = DEFAULT_H_GRID,
                         panel_nodes: int = DEFAULT_PANEL_NODES) -> KBracket:
    """Computable bracket for the mixed K-functional at weights t^r.

    The functional of a candidate g is ``||f - g||_p`` plus the sum over
    non-empty subsets e of ``prod_{i in e} t_i^{r_i} * ||g^(r(e))||_p``.  The
    upper bound minimizes over the family: g = 0, g = f (when derivatives
    exist), polynomial candidates (projection and Taylor), and -- for t inside
    the smoother validity range -- the signed smoothers combined across the
    2^d quarter-trimmed subboxes.  The lower bound is the total modulus
    divided by the exact difference-operator constant.

    A candidate is left out where it does not exist: ``identity`` and
    ``taylor`` when f has no derivatives up to order r (not
    ``f.has_derivative(r)``), ``smoother_subdivision`` when some ``|t_i|``
    exceeds the smoother's validity bound ``(b_i - a_i) / (4 r_i^2)``.
    ``details["candidates"]`` lists exactly the candidates evaluated.

    ``quad`` measures every norm, ``h_grid`` is the step grid of the moduli
    (:func:`modulus`), and ``panel_nodes`` the Gauss nodes per knot interval
    of the smoother.
    """
    dim = function_dim(f, box)
    r = as_order(r, dim)
    t = as_steps(t, dim)
    if any(not ti > 0 for ti in t):  # NaN too
        raise ValueError("bracket needs t > 0 componentwise")
    # as _smoothing_op does; the memo of _signed_values does not tell True from 1
    panel_nodes = _count("panel_nodes", panel_nodes, 1)
    omega_terms = _subset_terms(modulus, f, r, t, p, box, quad=quad, h_grid=h_grid)
    omega_total = float(sum(omega_terms.values()))
    lower = omega_total / whitney_constant_sum(r)

    candidates = _box_candidates(f, r, t, p, box, quad)
    details: dict = {"omega_total": omega_total, "omega_terms": omega_terms}
    if all(_in_smoother_range(*box.axis_interval(i), r[i], t[i]) for i in range(dim)):
        boxes = subdivision_boxes(box)
        sub_uppers = {}
        for key, sub_box in boxes.items():
            sigma = tuple(1 if i in key else -1 for i in range(dim))
            value, f_minus_g, deriv_terms = _directional_upper(
                f, r, t, sigma, p, box, quad, panel_nodes)
            direct = min(v for _, v in _box_candidates(f, r, t, p, sub_box, quad))
            sub_uppers[key] = min(value, direct)
            if key == tuple(range(dim)):  # forward smoother: proof-chain diagnostics
                details["f_minus_g"] = f_minus_g
                details["deriv_terms"] = deriv_terms
        details["subdomain_uppers"] = sub_uppers
        candidates.append(("smoother_subdivision", float(sum(sub_uppers.values()))))
    details["candidates"] = dict(candidates)
    witness, upper = min(candidates, key=lambda kv: kv[1])
    return KBracket(lower=lower, upper=float(upper), witness=witness, details=details,
                    norm=details["candidates"]["zero"])
