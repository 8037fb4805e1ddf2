"""Tensor polynomials, best L_p approximation, and mixed Taylor polynomials.

Polynomial classes are indexed by an order vector r: coordinate degree at
most ``r_i - 1`` in variable ``x_i``.  All fitting happens in the shifted
tensor Legendre basis, orthonormal on the reference box, never in raw
monomials; Taylor polynomials are built in a shifted monomial basis around
their anchor and converted afterwards.

Best approximation is computed where a finite convex program exists:
orthogonal projection for p = 2, and discrete minimax / weighted L1 linear
programs on Chebyshev-Lobatto grids (solved by the in-repo revised simplex)
for p = inf and p = 1.  Reported errors are always re-measured continuously
through :func:`whitney_lab.geometry.lp_norm` on the residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functions import CapabilityError, FunctionSpec
from .geometry import (
    CLENSHAW_CURTIS,
    GAUSS,
    LOBATTO,
    GeometryError,
    MultiIndex,
    Parallelepiped,
    QuadratureSpec,
    as_multi_index,
    axis_rule,
    box_rule,
    grid_values,
    lp_norm,
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

LEGENDRE = "legendre_shifted"
MONOMIAL = "monomial_shifted"


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


def _monomial_matrix(x: np.ndarray, count: int, center: float) -> np.ndarray:
    V = np.empty((x.size, count))
    V[:, 0] = 1.0
    y = x - center
    for j in range(1, count):
        V[:, j] = V[:, j - 1] * y
    return V


@dataclass(frozen=True)
class TensorPolynomial:
    """Element of the class with coordinate degree < degrees[i] per axis.

    ``coefficients`` is a dense tensor of shape ``degrees`` in either the
    shifted orthonormal Legendre basis of ``box`` or the shifted monomial
    basis around ``center``.  Evaluation is exact for the stored basis.
    """

    degrees: tuple[int, ...]
    coefficients: np.ndarray
    basis: str
    box: Parallelepiped
    center: tuple[float, ...] | None = None

    def __post_init__(self):
        degrees = tuple(int(d) for d in self.degrees)
        object.__setattr__(self, "degrees", degrees)
        coef = np.asarray(self.coefficients, dtype=float)
        if coef.shape != degrees:
            raise ValueError(f"coefficients shape {coef.shape} != degrees {degrees}")
        object.__setattr__(self, "coefficients", coef)
        if self.basis not in (LEGENDRE, MONOMIAL):
            raise ValueError(f"unknown basis {self.basis!r}")
        if self.basis == MONOMIAL and self.center is None:
            raise ValueError("monomial_shifted basis needs a center")
        if len(degrees) != self.box.dim:
            raise ValueError("degrees and reference box dimension mismatch")

    @property
    def dim(self) -> int:
        return len(self.degrees)

    def _points(self, x) -> np.ndarray:
        pts = np.asarray(x, dtype=float)
        if pts.ndim == 0:
            pts = pts.reshape(1, 1)
        elif pts.ndim == 1:
            pts = pts.reshape(1, -1) if pts.size == self.dim else pts.reshape(-1, 1)
        return pts

    def evaluate(self, x) -> np.ndarray:
        """Tensor-contracted basis evaluation at one point or an (N, d) array."""
        pts = self._points(x)
        if self.basis == MONOMIAL:
            return self._evaluate_monomial(pts)
        mats = [
            _legendre_matrix(pts[:, i], self.degrees[i], *self.box.axis_interval(i))
            for i in range(self.dim)
        ]
        T = np.einsum("a...,na->n...", self.coefficients, mats[0])
        for V in mats[1:]:
            T = np.einsum("na...,na->n...", T, V)
        return T

    def _evaluate_monomial(self, pts: np.ndarray) -> np.ndarray:
        # Horner fold, one axis at a time, innermost axis first
        n = pts.shape[0]
        T = np.broadcast_to(self.coefficients, (n,) + self.degrees)
        for axis in range(self.dim - 1, -1, -1):
            y = pts[:, axis] - self.center[axis]
            y = y.reshape((n,) + (1,) * (T.ndim - 2))
            res = T[..., -1]
            for m in range(T.shape[-1] - 2, -1, -1):
                res = res * y + T[..., m]
            T = res
        return T

    def __call__(self, x) -> np.ndarray:
        return self.evaluate(x)

    def _mono_to_leg_matrix(self, axis: int) -> np.ndarray:
        a, b = self.box.axis_interval(axis)
        count = self.degrees[axis]
        xq, wq = axis_rule(GAUSS, count + 1, a, b)
        Vl = _legendre_matrix(xq, count, a, b)
        Vm = _monomial_matrix(xq, count, self.center[axis])
        return Vl.T @ (wq[:, None] * Vm)

    def to_legendre(self) -> "TensorPolynomial":
        """Rebase into the shifted Legendre representation of its own box."""
        if self.basis == LEGENDRE:
            return self
        coef = self.coefficients
        for axis in range(self.dim):
            M = self._mono_to_leg_matrix(axis)
            coef = np.moveaxis(np.tensordot(M, coef, axes=(1, axis)), 0, axis)
        return TensorPolynomial(self.degrees, coef, LEGENDRE, self.box)

    def to_monomial(self, center) -> "TensorPolynomial":
        """Re-express in the shifted monomial basis around ``center``."""
        center = tuple(float(c) for c in np.atleast_1d(center))
        if self.basis == MONOMIAL and center == self.center:
            return self
        if self.basis == MONOMIAL:
            return self.to_legendre().to_monomial(center)
        helper = TensorPolynomial(self.degrees, self.coefficients, MONOMIAL,
                                  self.box, center)
        coef = self.coefficients
        for axis in range(self.dim):
            M = helper._mono_to_leg_matrix(axis)
            coef = np.moveaxis(np.tensordot(np.linalg.inv(M), coef, axes=(1, axis)),
                               0, axis)
        return TensorPolynomial(self.degrees, coef, MONOMIAL, self.box, center)


def _fit_lp(f, r: MultiIndex, p: float, box: Parallelepiped,
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
    poly = TensorPolynomial(r.entries, coef.reshape(r.entries), LEGENDRE, box)
    return poly, disc


def best_approx(f, r, p: float, box: Parallelepiped,
                grid: tuple[int, ...] | None = None,
                quad: QuadratureSpec | None = None) -> tuple[TensorPolynomial, float]:
    """Best approximation from the order-r tensor polynomial class in L_p.

    Supported p: 2 (orthogonal Legendre projection via quadrature inner
    products), inf (discrete minimax on a Chebyshev-Lobatto tensor grid), and
    1 (discrete weighted L1 with Clenshaw-Curtis weights).  The returned error
    is the continuously re-measured residual norm, which always dominates the
    discrete optimum; if the two disagree by more than 2% the grid is doubled
    once automatically.
    """
    r = as_multi_index(r)
    if not r.is_positive():
        raise ValueError("best_approx needs r >= 1 on every axis")
    box.require_positive_size()
    if quad is None:
        quad = QuadratureSpec.for_dim(r.dim)
    if p == 2:
        poly = _project_l2(f, r, box, quad)
        return poly, lp_norm(lambda q: np.asarray(f(q)) - poly(q), box, 2, quad)
    if p not in (1.0, math.inf):
        raise ValueError("best approximation is computed only for p in {1, 2, inf}")
    if grid is None:
        grid = tuple(max(4 * ri, 17) for ri in r.entries)
    grid = tuple(int(g) for g in np.atleast_1d(np.asarray(grid)))
    if len(grid) == 1 and r.dim > 1:
        grid = grid * r.dim
    if any(g < 2 * ri for g, ri in zip(grid, r.entries)):
        raise ValueError(f"grid {grid} too coarse for orders {r.entries}")
    poly, disc = _fit_lp(f, r, p, box, grid)
    err = lp_norm(lambda pts: np.asarray(f(pts)) - poly(pts), box, p, quad)
    scale = lp_norm(f, box, p, quad)
    if max(err, disc) > 1e-9 * (1.0 + scale) and abs(err - disc) > 0.02 * max(err, disc):
        poly, disc = _fit_lp(f, r, p, box, tuple(2 * g for g in grid))
        err = lp_norm(lambda pts: np.asarray(f(pts)) - poly(pts), box, p, quad)
    return poly, err


def _project_l2(f, r: MultiIndex, box: Parallelepiped,
                quad: QuadratureSpec) -> TensorPolynomial:
    """The orthogonal Legendre projection of f onto the order-r class."""
    axes, wts = tensor_quadrature(box, quad)
    fvals = grid_values(f, axes).reshape(-1)
    pts = tensor_grid(axes)
    mats = [
        _legendre_matrix(pts[:, i], r[i], *box.axis_interval(i)) for i in range(r.dim)
    ]
    T = np.einsum("n,na->na", wts * fvals, mats[0])
    for V in mats[1:]:
        T = np.einsum("n...,nb->n...b", T, V)
    coef = T.reshape(len(fvals), -1).sum(axis=0).reshape(r.entries)
    return TensorPolynomial(r.entries, coef, LEGENDRE, box)


def taylor_poly(f: FunctionSpec, k, x0, box: Parallelepiped) -> TensorPolynomial:
    """Mixed Taylor polynomial of order k around the anchor x0.

    ``T_k(f, x0, x) = sum over 0 <= s < k of f^(s)(x0) * prod (x_i - x0_i)^s_i / s_i!``
    (strict componentwise bound, so the result lies in the order-k class).
    Built in the shifted monomial basis at the anchor, then rebased to the
    Legendre representation on the box.
    """
    k = as_multi_index(k, f.dimension)
    if not k.is_positive():
        raise ValueError("taylor order must be >= 1 on every axis")
    if not f.is_sobolev:
        raise CapabilityError(f"{f.id} does not expose the derivatives Taylor needs")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if not box.contains(x0):
        raise ValueError(f"anchor {x0} lies outside the box")
    coef = np.zeros(k.entries)
    for s in np.ndindex(*k.entries):
        fact = float(np.prod([math.factorial(si) for si in s]))
        coef[s] = float(f.derivative(MultiIndex(s), x0.reshape(1, -1))[0]) / fact
    mono = TensorPolynomial(k.entries, coef, MONOMIAL, box, tuple(x0))
    return mono.to_legendre()


def taylor_remainder_bound(f: FunctionSpec, r, p: float, box: Parallelepiped,
                           quad: QuadratureSpec | None = None) -> float:
    """Sum over non-empty subsets e of ``prod_{i in e} size_i^{r_i} * ||f^(r(e))||_p``.

    This is the constant-free right-hand side of the Taylor error bound; the
    harness estimates the empirical constant by ratioing the measured
    ``||f - T_r f||_p`` against it.
    """
    r = as_multi_index(r, f.dimension)
    if not f.is_sobolev:
        raise CapabilityError(f"{f.id} does not expose the derivatives the bound needs")
    if quad is None:
        quad = QuadratureSpec.for_dim(f.dimension)
    size = box.size()
    total = 0.0
    for e in subsets(f.dimension):
        weight = float(np.prod([size[i] ** r[i] for i in e.sorted_axes()]))
        total += weight * lp_norm(f.derivative_fn(e.project(r)), box, p, quad)
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
                                 quad: QuadratureSpec | None = None) -> tuple[float, float]:
    """Univariate derivative-inequality ratios at scale t.

    Returns ``(t^k ||f^(k)||_p / D, t^(k+1/p) ||f^(k)||_inf / D)`` with
    ``D = ||f||_p + t^r ||f^(r)||_p``; both are bounded uniformly in t by a
    constant depending only on r.
    """
    if f.dimension != 1:
        raise ValueError("derivative inequality ratios are univariate")
    if not 0 <= k < r:
        raise ValueError("need 0 <= k < r")
    if quad is None:
        quad = QuadratureSpec.for_dim(1)
    inv_p = 0.0 if p == math.inf else 1.0 / p
    denom = lp_norm(f, box, p, quad) + t ** r * lp_norm(f.derivative_fn((r,)), box, p, quad)
    num_p = t ** k * lp_norm(f.derivative_fn((k,)), box, p, quad)
    num_sup = t ** (k + inv_p) * lp_norm(f.derivative_fn((k,)), box, math.inf, quad)
    return num_p / denom, num_sup / denom
