"""Tensor polynomials, best L_p approximation, and mixed Taylor polynomials.

Polynomial classes are indexed by an order vector r: coordinate degree at
most ``r_i - 1`` in variable ``x_i``.  All fitting happens in the shifted
tensor Legendre basis, orthonormal on the reference box, never in raw
monomials, and :class:`TensorPolynomial` stores that basis only.  Taylor
polynomials are built in monomials around their anchor and converted to it
one axis at a time.

Best approximation is computed where a finite convex program exists:
orthogonal projection for p = 2, and discrete minimax / weighted L1 linear
programs on Chebyshev-Lobatto grids (solved by the in-repo revised simplex)
for p = inf and p = 1.  Reported errors are always re-measured on the
residual through :func:`whitney_lab.geometry.lp_norm`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functions import CapabilityError, FunctionSpec, _pts
from .geometry import (
    CLENSHAW_CURTIS,
    GAUSS,
    LOBATTO,
    GeometryError,
    Parallelepiped,
    QuadratureSpec,
    as_order,
    axis_rule,
    box_rule,
    function_dim,
    grid_values,
    lp_norm,
    project,
    subsets,
    tensor_grid,
    tensor_product,
    tensor_quadrature,
)
from .simplex import solve_minimax, solve_weighted_l1

__all__ = [
    "TensorPolynomial",
    "best_approx",
    "taylor_poly",
    "taylor_remainder_bound",
    "equioscillation_count",
    "derivative_inequality_ratios",
]


def _legendre_matrix(x: np.ndarray, count: int, a: float, b: float) -> np.ndarray:
    """Orthonormal shifted Legendre values, columns 0..count-1, on [a, b]."""
    if b <= a:
        raise GeometryError("Legendre basis needs an axis of positive length")
    u = (2.0 * x - a - b) / (b - a)
    V = np.empty((x.size, count))
    V[:, 0] = 1.0
    if count > 1:
        V[:, 1] = u
    for j in range(1, count - 1):
        V[:, j + 1] = ((2 * j + 1) * u * V[:, j] - j * V[:, j - 1]) / (j + 1)
    V *= np.sqrt((2.0 * np.arange(count) + 1.0) / (b - a))
    return V


def _mono_to_leg_matrix(count: int, a: float, b: float, center: float) -> np.ndarray:
    """Legendre coefficients on [a, b] of the monomials ``(x - center)^j``, j < count,
    by Gauss projection (exact: the products have degree below 2 count)."""
    xq, wq = axis_rule(GAUSS, count + 1, a, b)
    Vm = np.empty((xq.size, count))
    Vm[:, 0] = 1.0
    y = xq - center
    for j in range(1, count):
        Vm[:, j] = Vm[:, j - 1] * y
    return _legendre_matrix(xq, count, a, b).T @ (wq[:, None] * Vm)


@dataclass(frozen=True)
class TensorPolynomial:
    """Element of the class with coordinate degree < coefficients.shape[i] per axis.

    ``coefficients`` is a dense tensor in the orthonormal shifted Legendre
    basis of ``box``, one tensor axis per coordinate.
    """

    coefficients: np.ndarray
    box: Parallelepiped

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=float)
        if coef.ndim != self.box.dim or 0 in coef.shape:
            raise ValueError(f"coefficients shape {coef.shape} needs one non-empty axis "
                             f"per coordinate of the {self.box.dim}-dimensional box")
        object.__setattr__(self, "coefficients", coef)

    def __call__(self, x) -> np.ndarray:
        """Tensor-contracted basis evaluation at one point or an (N, d) array."""
        pts = _pts(x, self.box.dim)
        mats = [
            _legendre_matrix(pts[:, i], n, *self.box.axis_interval(i))
            for i, n in enumerate(self.coefficients.shape)
        ]
        T = np.einsum("a...,na->n...", self.coefficients, mats[0])
        for V in mats[1:]:
            T = np.einsum("na...,na->n...", T, V)
        return T


def _fit_lp(f, r: tuple[int, ...], p: float, box: Parallelepiped,
            grid: tuple[int, ...]) -> tuple[TensorPolynomial, float]:
    rule = LOBATTO if p == math.inf else CLENSHAW_CURTIS
    axes, wts = box_rule(box, rule, grid)
    design = tensor_product([_legendre_matrix(x, r[i], *box.axis_interval(i))
                             for i, x in enumerate(axes)])
    fvals = grid_values(f, axes).reshape(-1)
    if p == math.inf:
        coef, disc = solve_minimax(design, fvals)
    else:
        coef, disc = solve_weighted_l1(design, fvals, wts)
    poly = TensorPolynomial(coef.reshape(r), box)
    return poly, disc


def best_approx(f, r, p: float, box: Parallelepiped, *,
                grid: tuple[int, ...] | None = None,
                quad: QuadratureSpec = QuadratureSpec()) -> tuple[TensorPolynomial, float]:
    """Best approximation from the order-r tensor polynomial class in L_p.

    Supported p: 2 (orthogonal Legendre projection via quadrature inner
    products), inf (discrete minimax on a Chebyshev-Lobatto tensor grid), and
    1 (discrete weighted L1 with Clenshaw-Curtis weights) on ``grid``, one
    node count per axis (default ``max(4 r_i, 17)``).  The returned error is
    the residual re-measured by :func:`lp_norm` on the norm's own grid
    (``quad``); it may lie on either side of the discrete optimum (at p = 1 it
    has come out below it).  If the two differ by more than 2% of the larger,
    the fit is redone once on the doubled grid.
    """
    r = as_order(r, function_dim(f, box))
    if min(r) < 1:
        raise ValueError("best_approx needs r >= 1 on every axis")
    box.require_positive_size()
    if p == 2:
        poly = _project_l2(f, r, box, quad)
        return poly, lp_norm(lambda q: np.asarray(f(q)) - poly(q), box, 2, quad)
    if p not in (1.0, math.inf):
        raise ValueError("best approximation is computed only for p in {1, 2, inf}")
    if grid is None:
        grid = tuple(max(4 * ri, 17) for ri in r)
    try:  # bools and fractions refused
        grid = as_order(grid if np.ndim(grid) else (grid,))
    except GeometryError as exc:
        raise GeometryError(f"grid {grid} needs whole node counts, one per axis") from exc
    if len(grid) != box.dim:
        raise ValueError(f"grid {grid} needs one node count per axis of the "
                         f"{box.dim}-dimensional box")
    if any(g < 2 * ri for g, ri in zip(grid, r)):
        raise ValueError(f"grid {grid} too coarse for orders {r}")
    poly, disc = _fit_lp(f, r, p, box, grid)
    err = lp_norm(lambda pts: np.asarray(f(pts)) - poly(pts), box, p, quad)
    scale = lp_norm(f, box, p, quad)
    if max(err, disc) > 1e-9 * (1.0 + scale) and abs(err - disc) > 0.02 * max(err, disc):
        poly, disc = _fit_lp(f, r, p, box, tuple(2 * g for g in grid))
        err = lp_norm(lambda pts: np.asarray(f(pts)) - poly(pts), box, p, quad)
    return poly, err


def _project_l2(f, r: tuple[int, ...], box: Parallelepiped,
                quad: QuadratureSpec) -> TensorPolynomial:
    """The orthogonal Legendre projection of f onto the order-r class."""
    axes, wts = tensor_quadrature(box, quad)
    fvals = grid_values(f, axes).reshape(-1)
    pts = tensor_grid(axes)
    mats = [
        _legendre_matrix(pts[:, i], ri, *box.axis_interval(i)) for i, ri in enumerate(r)
    ]
    T = np.einsum("n,na->na", wts * fvals, mats[0])
    for V in mats[1:]:
        T = np.einsum("n...,nb->n...b", T, V)
    coef = T.reshape(len(fvals), -1).sum(axis=0).reshape(r)
    return TensorPolynomial(coef, box)


def taylor_poly(f: FunctionSpec, k, x0, box: Parallelepiped) -> TensorPolynomial:
    """Mixed Taylor polynomial of order k around the anchor x0.

    ``T_k(f, x0, x) = sum over 0 <= s < k of f^(s)(x0) * prod (x_i - x0_i)^s_i / s_i!``
    (strict componentwise bound, so the result lies in the order-k class).
    Built in the shifted monomial basis at the anchor, then converted to the
    Legendre basis of the box one axis at a time.
    """
    k = as_order(k, function_dim(f, box))
    if min(k) < 1:
        raise ValueError("taylor order must be >= 1 on every axis")
    if not f.is_sobolev:
        raise CapabilityError(f"{f.id} does not expose the derivatives Taylor needs")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if not box.contains(x0):
        raise ValueError(f"anchor {x0} lies outside the box")
    coef = np.zeros(k)
    for s in np.ndindex(*k):
        fact = float(np.prod([math.factorial(si) for si in s]))
        coef[s] = float(f.derivative(s, x0.reshape(1, -1))[0]) / fact
    for axis in range(len(k)):
        M = _mono_to_leg_matrix(k[axis], *box.axis_interval(axis), x0[axis])
        coef = np.moveaxis(np.tensordot(M, coef, axes=(1, axis)), 0, axis)
    return TensorPolynomial(coef, box)


def taylor_remainder_bound(f: FunctionSpec, r, p: float, box: Parallelepiped,
                           quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Sum over non-empty subsets e of ``prod_{i in e} size_i^{r_i} * ||f^(r(e))||_p``.

    This is the constant-free right-hand side of the Taylor error bound; the
    harness estimates the empirical constant by ratioing the measured
    ``||f - T_r f||_p`` against it.
    """
    r = as_order(r, function_dim(f, box))
    if not f.is_sobolev:
        raise CapabilityError(f"{f.id} does not expose the derivatives the bound needs")
    size = box.size()
    total = 0.0
    for e in subsets(f.dimension):
        weight = float(np.prod([size[i] ** r[i] for i in e]))
        total += weight * lp_norm(f.derivative_fn(project(r, e)), box, p, quad)
    return total


def equioscillation_count(residual, E: float, box: Parallelepiped,
                          samples: int = 2001, tol: float = 0.01) -> int:
    """Longest alternating chain of residual near-extrema within tol of E (d=1)."""
    if box.dim != 1:
        raise ValueError("equioscillation check is a d=1 diagnostic")
    x = np.linspace(box.lower[0], box.upper[0], samples).reshape(-1, 1)
    vals = np.asarray(residual(x), dtype=float)
    count = 0
    last_sign = 0
    for v in vals:
        if abs(v) >= (1.0 - tol) * E and E > 0:
            sign = 1 if v > 0 else -1
            if sign != last_sign:
                count += 1
                last_sign = sign
    return count


def derivative_inequality_ratios(f: FunctionSpec, r: int, k: int, t: float,
                                 p: float, box: Parallelepiped,
                                 quad: QuadratureSpec = QuadratureSpec()) -> tuple[float, float]:
    """Univariate derivative-inequality ratios at scale t.

    Returns ``(t^k ||f^(k)||_p / D, t^(k+1/p) ||f^(k)||_inf / D)`` with
    ``D = ||f||_p + t^r ||f^(r)||_p``; both are bounded uniformly in t by a
    constant depending only on r.
    """
    if function_dim(f, box) != 1:
        raise ValueError("derivative inequality ratios are univariate")
    if not 0 <= k < r:
        raise ValueError("need 0 <= k < r")
    inv_p = 0.0 if p == math.inf else 1.0 / p
    denom = lp_norm(f, box, p, quad) + t ** r * lp_norm(f.derivative_fn((r,)), box, p, quad)
    num_p = t ** k * lp_norm(f.derivative_fn((k,)), box, p, quad)
    num_sup = t ** (k + inv_p) * lp_norm(f.derivative_fn((k,)), box, math.inf, quad)
    return num_p / denom, num_sup / denom
