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
function, so a norm over the box takes the per-axis nodes and weights of
:func:`whitney_lab.geometry.tensor_quadrature`, evaluates the base function
once on those nodes expanded by the stencil offsets, and contracts axis by
axis.  One term is factored instead: the smoothing term ``||f - A_t f||``
of a bracket, for a base with a factor view (``FunctionSpec.factors``), is
the outer product of 1-D stencil outputs, one per axis
(:func:`_smoothed_lp_norm`).  Its weights sum to at most 2^k in absolute
value whatever t is, so the factored form moves it at round-off only.  The
derivative terms stay on the grid: their weights sum to about t^-r per axis,
and the same change of round-off moved them by up to 2% at small t, so
factoring them changes the output.  The order of contraction does not tame
the cancellation of the derivative stencils: the round-off of the base
values is amplified by the product of the per-axis weight sums, about
``prod t_i^-r_i`` on the derivative axes, so at small t the mixed derivative
norms carry a relative error far above the unit round-off (ROADMAP item 2).

The same amplification makes the output bits depend on how the contraction
is handed to BLAS.  Each contraction is one ``tensordot``, that is one
matrix-vector product of the values, flattened to rows, with an axis's
weights.  Which kernel treats a row, and so the last bit of its sum, depends
on the matrix's shape, its storage order (row- or column-major) and the
row's position in it: gemv gives the last rows of a matrix their own kernel.
A block of grid rows (``_CHUNK_BUDGET`` values at most, whole rows of axis 0)
is evaluated by :func:`whitney_lab.geometry.broadcast_values` in the layout
``(n_0, n_1, l_1, ..., n_{d-1}, l_{d-1}, l_0)``, n_i the grid nodes and l_i
the stencil offsets of axis i, so that ``l_0``, contracted first, is the
last axis and BLAS gets a row-major view of the values rather than a
transposed copy.  A one-row block keeps ``l_0`` second, where numpy views
the values as a column-major matrix.  Either way every matrix BLAS sees is
the one of the interleaved layout ``(n_0, l_0, n_1, l_1, ...)`` with each
``l_i`` contracted where it stands (the reference of the tests), so the bits
are that contraction's.  The block rule is fixed for the same reason: another
budget moves the block edges, hence the matrices, hence the last bits, and
the derivative stencils amplify those into the output.

:func:`k_functional_bracket` takes the call form of the moduli,
``(f, r, t, p, box, *, quad=None, h_grid=DEFAULT_H_GRID,
panel_nodes=DEFAULT_PANEL_NODES)``, with keyword-only resolutions; its helpers
take ``quad`` and ``panel_nodes`` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .differences import DEFAULT_H_GRID, modulus, whitney_constant_sum
from .functions import FunctionSpec
from .geometry import (
    GAUSS,
    MultiIndex,
    Parallelepiped,
    QuadratureSpec,
    SubsetMask,
    as_multi_index,
    as_step_vector,
    axis_rule,
    broadcast_values,
    grid_norm,
    grid_values,
    lp_norm,
    subsets,
    tensor_quadrature,
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
_BOX_NORMS_CACHE = 256  # (f, r, p, box, quad) keys; the steps of a sweep share theirs


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
    """Separable 1-D stencil: (L f)(x) = sum_n weights[n] * f(x + offsets[n])."""

    offsets: np.ndarray
    weights: np.ndarray


def _identity_op() -> AxisOp:
    return AxisOp(np.zeros(1), np.ones(1))


def _smoothing_op(k: int, t: float, panel_nodes: int) -> AxisOp:
    h, wM = _bspline_quadrature(k, panel_nodes)
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
    return AxisOp(np.asarray(offs), np.asarray(wts))


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
    dimension: int

    def __call__(self, x) -> np.ndarray:
        pts = np.asarray(x, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1) if pts.size == self.dimension else pts.reshape(-1, 1)
        if not (np.all(pts >= np.asarray(self.domain.lower) - 1e-10)
                and np.all(pts <= np.asarray(self.domain.upper) + 1e-10)):
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

    A block of rows is evaluated in the layout ``(n_0, n_1, l_1, ...,
    n_{d-1}, l_{d-1}, l_0)`` and ``l_0`` is contracted first, so BLAS gets a
    view of the values; a one-row block keeps ``l_0`` second, which numpy
    views as a column-major matrix (see the module docstring).
    """
    d = len(axis_points)
    expanded = [axis_points[i][:, None] + ops[i].offsets[None, :] for i in range(d)]
    tail = int(np.prod([e.size for e in expanded[1:]]))
    l0 = ops[0].offsets.size
    block = max(1, _CHUNK_BUDGET // max(1, l0 * tail))
    chunks = []
    for start in range(0, axis_points[0].size, block):
        coords = []
        for i, e in enumerate([expanded[0][start:start + block], *expanded[1:]]):
            shape = [1] * (2 * d)  # (n_0, l_0, n_1, l_1, ...)
            shape[2 * i], shape[2 * i + 1] = e.shape
            coords.append(e.reshape(shape))
        l0_axis = 1
        if coords[0].shape[0] > 1:
            coords = [x.reshape(x.shape[:1] + x.shape[2:] + x.shape[1:2]) for x in coords]
            l0_axis = 2 * d - 1
        arr = np.tensordot(broadcast_values(base, coords), ops[0].weights, axes=(l0_axis, 0))
        for i in range(1, d):
            arr = np.tensordot(arr, ops[i].weights, axes=(i + 1, 0))
        chunks.append(arr)
    return np.concatenate(chunks, axis=0)


def _smoothed_lp_norm(ops, base, p: float, domain: Parallelepiped,
                      quad: QuadratureSpec, subtract_base: bool = False) -> float:
    """L_p norm of the stencil output (or of base - output) over the box.

    With ``subtract_base`` and a base that has ``factors`` (the smoothing term
    ``||f - A_t f||``), the output is the outer product of the per-axis stencil
    outputs ``factor_i(x_i + offsets_i) @ weights_i``: O(sum n_i l_i) work,
    not O(prod n_i l_i).  The smoothing weights sum to at most 2^k in absolute
    value, so this moves the norm at round-off only.  The derivative stencils
    keep the grid contraction, because their weights sum to about t^-r and
    amplify the change of round-off into the output (module docstring).
    """
    axes, wts = tensor_quadrature(domain, quad, p)
    factors = getattr(base, "factors", None)
    if subtract_base and factors is not None:
        vals = reduce(np.multiply.outer, [fac(x[:, None] + op.offsets) @ op.weights
                                          for fac, x, op in zip(factors, axes, ops)])
    else:
        vals = _apply_on_tensor_grid(ops, base, axes)
    if subtract_base:
        vals = grid_values(base, axes) - vals
    return grid_norm(vals.reshape(-1), wts, p)


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
    d = box.dim
    if not 0 <= axis < d:
        raise ValueError(f"axis {axis} out of range")
    a, b = box.axis_interval(axis)
    if not _in_smoother_range(a, b, k, t):
        raise DomainValidityError(f"|t|={abs(t)} exceeds the validity bound on [{a}, {b}]")
    ops = [_identity_op() for _ in range(d)]
    ops[axis] = _smoothing_op(k, t, panel_nodes)
    lo, hi = list(box.lower), list(box.upper)
    lo[axis], hi[axis] = _trimmed_interval(a, b, t)
    return SmoothedFunction(tuple(ops), f, Parallelepiped(lo, hi), d)


def _signed_ops_and_domain(r: MultiIndex, t, box: Parallelepiped, panel_nodes: int):
    """The smoothing stencil of each axis at the signed steps t, and the
    validity box they share."""
    t = as_step_vector(t, r.dim)
    ops = []
    lo, hi = list(box.lower), list(box.upper)
    for i in range(r.dim):
        a, b = box.axis_interval(i)
        if not _in_smoother_range(a, b, r[i], t[i]):
            raise DomainValidityError(
                f"|t_{i}|={abs(t[i])} exceeds the validity bound on [{a}, {b}]")
        ops.append(_smoothing_op(r[i], t[i], panel_nodes))
        lo[i], hi[i] = _trimmed_interval(a, b, t[i])
    return tuple(ops), Parallelepiped(lo, hi)


def smooth_mixed(f, r, t, box: Parallelepiped,
                 panel_nodes: int = DEFAULT_PANEL_NODES) -> SmoothedFunction:
    """Coordinate-wise composition of the univariate averaging operators.

    Valid on the box with every axis trimmed by a quarter of its length on
    the respective stepping side.
    """
    r = as_multi_index(r, box.dim)
    ops, domain = _signed_ops_and_domain(r, t, box, panel_nodes)
    return SmoothedFunction(ops, f, domain, r.dim)


def smoothed_derivative(f, r, t, e: SubsetMask, box: Parallelepiped,
                        panel_nodes: int = DEFAULT_PANEL_NODES) -> SmoothedFunction:
    """Mixed derivative of order r(e) of the smoothed function.

    On each axis in ``e`` the order-r_i derivative of the univariate operator
    is the exact finite combination
    ``t^(-k) * sum_j (-1)^(j+1) j^(-k) C(k, j) diff_k(., j t)`` of k-th
    differences (k = r_i); the remaining axes keep their smoothing factor.
    The combination carries the binomial coefficient; a finite-difference
    oracle in the tests confirms this form.
    """
    r = as_multi_index(r, box.dim)
    if not isinstance(e, SubsetMask):
        e = SubsetMask(box.dim, e)
    if e.is_empty:
        raise ValueError("smoothed_derivative needs a non-empty subset")
    t = as_step_vector(t, box.dim)
    smooth, domain = _signed_ops_and_domain(r, t, box, panel_nodes)
    ops = tuple(_derivative_op(r[i], t[i]) if i in e.axes else op
                for i, op in enumerate(smooth))
    return SmoothedFunction(ops, f, domain, r.dim)


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


@lru_cache(maxsize=_BOX_NORMS_CACHE)
def _box_norms(f: FunctionSpec, r: MultiIndex, p, box: Parallelepiped,
               quad: QuadratureSpec):
    """The t-independent norms of the box candidates: ``||f||``, the
    ``||f^(r(e))||`` over :func:`subsets` (``None`` unless f is Sobolev up to
    r), and the polynomial candidates' ``(name, ||f - poly||)`` pairs."""
    norm = lp_norm(f, box, p, quad)
    sobolev = f.is_sobolev and r.leq(f.r_max)
    derivs = None
    if sobolev:
        derivs = tuple(lp_norm(f.derivative_fn(e.project(r)), box, p, quad)
                       for e in subsets(r.dim))
    proj = _project_l2(f, r, box, quad)
    polys = [("projection", lp_norm(lambda q: np.asarray(f(q)) - proj(q), box, p, quad))]
    if sobolev:
        tp = taylor_poly(f, r, np.asarray(box.lower), box)
        polys.append(("taylor", lp_norm(lambda q: np.asarray(f(q)) - tp(q), box, p, quad)))
    return norm, derivs, tuple(polys)


def _box_candidates(f: FunctionSpec, r: MultiIndex, t, p, box, quad: QuadratureSpec):
    """Candidates valid on the whole given box (no smoother): g = 0, g = f
    (weights ``t^r(e)`` on the memoized derivative norms), the polynomials."""
    norm, derivs, polys = _box_norms(f, r, p, box, quad)
    cands = [("zero", norm)]
    if derivs is not None:
        t = as_step_vector(t, r.dim)
        total = 0.0
        for e, deriv in zip(subsets(r.dim), derivs):
            weight = float(np.prod([t[i] ** r[i] for i in e.sorted_axes()]))
            total += weight * deriv
        cands.append(("identity", total))
    cands.extend(polys)
    return cands


def _directional_upper(f: FunctionSpec, r: MultiIndex, t, sigma: tuple[int, ...],
                       p, box, quad: QuadratureSpec, panel_nodes: int):
    """Functional value of the signed smoother, measured on its validity box.

    The validity box and each axis's smoothing and derivative stencils are
    built once per sigma.  The term of subset e takes the derivative stencil
    on e's axes and the smoothing stencil elsewhere: the stencils that
    :func:`smoothed_derivative` builds for e, so each term has the bits of
    that reference path.
    """
    t = as_step_vector(t, r.dim)
    signed = [s * ti for s, ti in zip(sigma, t)]
    smooth, domain = _signed_ops_and_domain(r, signed, box, panel_nodes)
    deriv = [_derivative_op(r[i], ti) for i, ti in enumerate(signed)]
    value = _smoothed_lp_norm(smooth, f, p, domain, quad, subtract_base=True)
    f_minus_g = value
    deriv_terms = {}
    for e in subsets(r.dim):
        ops = tuple(deriv[i] if i in e.axes else op for i, op in enumerate(smooth))
        weight = float(np.prod([t[i] ** r[i] for i in e.sorted_axes()]))
        term = weight * _smoothed_lp_norm(ops, f, p, domain, quad)
        deriv_terms[e.sorted_axes()] = term
        value += term
    return value, f_minus_g, deriv_terms


def subdivision_boxes(box: Parallelepiped) -> dict[tuple[int, ...], Parallelepiped]:
    """The 2^d overlapping quarter-trimmed subboxes, keyed by axis subset.

    Axes in the subset keep their left end and lose the last quarter; the
    other axes lose the first quarter.
    """
    out = {}
    for e in subsets(box.dim, include_empty=True):
        ends = [_trimmed_interval(*box.axis_interval(i), 1 if i in e.axes else -1)
                for i in range(box.dim)]
        out[e.sorted_axes()] = Parallelepiped([a for a, _ in ends], [b for _, b in ends])
    return out


def k_functional_bracket(f: FunctionSpec, r, t, p: float, box: Parallelepiped, *,
                         quad: QuadratureSpec | None = None, h_grid: int = DEFAULT_H_GRID,
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
    ``taylor`` when f has no derivatives up to order r (``f.is_sobolev`` and
    ``r <= f.r_max``), ``smoother_subdivision`` when some ``|t_i|`` exceeds
    the smoother's validity bound ``(b_i - a_i) / (4 r_i^2)``.
    ``details["candidates"]`` lists exactly the candidates evaluated.

    ``quad`` (default: :meth:`QuadratureSpec.for_dim`) measures every norm,
    ``h_grid`` is the step grid of the moduli (:func:`modulus`), and
    ``panel_nodes`` the Gauss nodes per knot interval of the smoother.
    """
    r = as_multi_index(r, f.dimension)
    t = as_step_vector(t, f.dimension)
    if any(ti <= 0 for ti in t):
        raise ValueError("bracket needs t > 0 componentwise")
    quad = quad or QuadratureSpec.for_dim(r.dim)
    omega_terms = {e.sorted_axes(): modulus(f, e.project(r), t, p, box, quad=quad,
                                            h_grid=h_grid)
                   for e in subsets(r.dim)}
    omega_total = float(sum(omega_terms.values()))
    lower = omega_total / whitney_constant_sum(r)

    candidates = _box_candidates(f, r, t, p, box, quad)
    details: dict = {"omega_total": omega_total, "omega_terms": omega_terms}
    if all(_in_smoother_range(*box.axis_interval(i), r[i], t[i]) for i in range(r.dim)):
        boxes = subdivision_boxes(box)
        sub_uppers = {}
        for key, sub_box in boxes.items():
            sigma = tuple(1 if i in key else -1 for i in range(r.dim))
            value, f_minus_g, deriv_terms = _directional_upper(
                f, r, t, sigma, p, box, quad, panel_nodes)
            direct = min(v for _, v in _box_candidates(f, r, t, p, sub_box, quad))
            sub_uppers[key] = min(value, direct)
            if key == tuple(range(r.dim)):  # forward smoother: proof-chain diagnostics
                details["f_minus_g"] = f_minus_g
                details["deriv_terms"] = deriv_terms
        details["subdomain_uppers"] = sub_uppers
        candidates.append(("smoother_subdivision", float(sum(sub_uppers.values()))))
    details["candidates"] = dict(candidates)
    witness, upper = min(candidates, key=lambda kv: kv[1])
    return KBracket(lower=lower, upper=float(upper), witness=witness, details=details,
                    norm=details["candidates"]["zero"])
