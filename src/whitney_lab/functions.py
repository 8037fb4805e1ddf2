"""Test-function corpus with analytic mixed partial derivatives.

Each entry is a :class:`FunctionSpec`: a closed-form function together with a
closed-form evaluator for every mixed derivative up to a declared order.
Derivatives are supplied analytically per entry, never by automatic or
numeric differentiation, because the K-functional and Taylor machinery need
trustworthy high-order mixed derivatives; numeric differentiation appears
only in test oracles.

Entries without a ``derivative_evaluator`` (the |x - c|^alpha factors)
participate in the moduli / best-approximation / K-functional experiments but
refuse any operation with a mixed-Sobolev precondition.

Every entry is a product of 1-D factors or ``exp(a . x)``, so its values on a
tensor grid follow from one 1-D evaluation per node and axis: its
``grid_evaluator``, which :func:`whitney_lab.geometry.grid_values` calls.  A
product's mixed derivatives are the products of its factors' 1-D derivatives.

Every entry also has a factor view, ``factors``: the per-axis 1-D callables
whose product is the entry, ``exp(a_i x_i)`` for ``exp(a . x)``.  A separable
operator applied to the entry is then the product of 1-D operators applied to
the factors, which is how the smoother computes ``A_t f`` in O(sum n_i l_i)
rather than on the expanded tensor grid.  The product of the factors equals
the entry's values up to round-off only (``exp`` of a sum is not the product
of the ``exp``), so the evaluators never use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

from .geometry import as_order

__all__ = [
    "CapabilityError",
    "FunctionSpec",
    "corpus",
    "get_function",
    "tensor_polynomial_spec",
]


class CapabilityError(ValueError):
    """Raised when an operation needs derivatives an entry does not expose."""


def _pts(x, dim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1) if arr.size == dim else arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"points must have shape (N, {dim}), got {arr.shape}")
    return arr


@dataclass(frozen=True)
class FunctionSpec:
    """A corpus function: vectorized evaluation plus analytic mixed derivatives.

    ``grid_evaluator`` maps ``d`` coordinate arrays, one per axis, that
    broadcast against each other to the values on their broadcast shape:
    the coordinate arrays of a grid, or the columns of an ``(N, d)`` point
    array.  ``derivative_evaluator(k, coords)`` is the mixed derivative of
    order ``k``; an entry without one exposes no derivatives.
    ``factors``, when not ``None``, holds one 1-D callable per axis whose
    product over the axes is the entry, up to round-off: within
    ``differences._EVAL_ULPS`` eps relative.  The pruned step search of
    :func:`~whitney_lab.differences.modulus` relies on that bound, and so
    does the factored p-mean of :func:`~whitney_lab.differences.p_mean_modulus`,
    which reads only the factors: the bound sets how far its value may lie
    from the grid path's.  Entries are immutable and freely shareable across
    threads.
    """

    id: str
    dimension: int
    r_max: tuple[int, ...]
    grid_evaluator: Callable = field(repr=False)
    derivative_evaluator: Callable | None = field(repr=False, default=None)
    poly_degrees: tuple[int, ...] | None = None
    factors: tuple[Callable[[np.ndarray], np.ndarray], ...] | None = field(
        repr=False, default=None)

    @property
    def is_sobolev(self) -> bool:
        return self.derivative_evaluator is not None

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self.grid_evaluator(_pts(x, self.dimension).T), dtype=float)

    def has_derivative(self, k) -> bool:
        """True when the analytic mixed derivative of order ``k`` exists: the
        entry has a derivative evaluator and ``k <= r_max`` componentwise."""
        k = as_order(k, self.dimension)
        return self.is_sobolev and all(ki <= ri for ki, ri in zip(k, self.r_max))

    def derivative(self, k, x) -> np.ndarray:
        """Mixed partial derivative of order ``k`` (``k = 0`` is the function)."""
        k = as_order(k, self.dimension)
        if not any(k):
            return self(x)
        if not self.has_derivative(k):
            raise CapabilityError(f"{self.id} exposes no analytic derivative of order {k} "
                                  f"(r_max {self.r_max})")
        return np.asarray(self.derivative_evaluator(k, _pts(x, self.dimension).T),
                          dtype=float)

    def derivative_fn(self, k) -> Callable[[np.ndarray], np.ndarray]:
        k = as_order(k, self.dimension)
        return lambda pts: self.derivative(k, pts)

    def in_poly_class(self, r) -> bool:
        """True when the entry is a tensor polynomial of coordinate degree < r_i."""
        if self.poly_degrees is None:
            return False
        r = as_order(r, self.dimension)
        return all(deg <= ri - 1 for deg, ri in zip(self.poly_degrees, r))


# ---------------------------------------------------------------------------
# corpus builders
# ---------------------------------------------------------------------------

def _fold(op, factors: list[Callable[[np.ndarray], np.ndarray]], coords) -> np.ndarray:
    """``factors[0](coords[0]) op factors[1](coords[1]) op ...``, left to right."""
    out = factors[0](coords[0])
    for fac, x in zip(factors[1:], coords[1:]):
        out = op(out, fac(x))
    return out


def _product_spec(spec_id: str, r_max: tuple[int, ...],
                  factors: list[Callable[[np.ndarray], np.ndarray]],
                  factor_derivative: Callable | None = None,
                  poly_degrees: tuple[int, ...] | None = None) -> FunctionSpec:
    """Entry ``prod_i factors[i](x_i)``; ``factor_derivative(i, k)``, when
    given, is the 1-D order-``k`` derivative of ``factors[i]``, and the entry's
    mixed derivative of order ``k`` is the product of those over the axes."""
    def grid_evaluator(coords):
        return _fold(np.multiply, factors, coords)

    def derivative_evaluator(k, coords):
        return _fold(np.multiply, [factor_derivative(i, ki) for i, ki in enumerate(k)],
                     coords)

    return FunctionSpec(spec_id, len(factors), r_max, grid_evaluator,
                        derivative_evaluator if factor_derivative else None,
                        poly_degrees, tuple(factors))


def tensor_polynomial_spec(spec_id: str, axis_coeffs: list[list[float]]) -> FunctionSpec:
    """Tensor-product polynomial ``prod_i p_i(x_i)`` from 1-D coefficient lists.

    Coefficients are in ascending power order per axis.  The entry records its
    coordinate degrees, which :meth:`FunctionSpec.in_poly_class` reads.
    """
    coeffs = [np.asarray(c, dtype=float) for c in axis_coeffs]
    dim = len(coeffs)
    degrees = tuple(len(c) - 1 for c in coeffs)

    def factor_derivative(i, k):
        dc = npoly.polyder(coeffs[i], k) if k > 0 else coeffs[i]
        if len(np.atleast_1d(dc)) == 0:
            dc = np.zeros(1)
        return lambda xi: npoly.polyval(xi, dc)

    return _product_spec(spec_id, (12,) * dim,
                         [lambda xi, c=c: npoly.polyval(xi, c) for c in coeffs],
                         factor_derivative, degrees)


def _exp_spec(spec_id: str, a: tuple[float, ...]) -> FunctionSpec:
    a_arr = np.asarray(a, dtype=float)
    dim = len(a)
    terms = [lambda xi, ai=ai: ai * xi for ai in a_arr]

    def grid_evaluator(coords):
        x = _fold(np.add, terms, coords)  # a fresh array: exponentiate in place
        return np.exp(x, out=x)

    def derivative_evaluator(k, coords):
        scale = float(np.prod(a_arr ** np.asarray(k, dtype=float)))
        return scale * grid_evaluator(coords)

    return FunctionSpec(spec_id, dim, (12,) * dim, grid_evaluator, derivative_evaluator, None,
                        tuple(lambda xi, ai=ai: np.exp(ai * xi) for ai in a_arr))


def _sin_product_spec(spec_id: str, omega: tuple[float, ...],
                      phase: tuple[float, ...]) -> FunctionSpec:
    def factor_derivative(i, k):
        w, ph = omega[i], phase[i]
        return lambda xi: (w ** k) * np.sin(w * xi + ph + k * np.pi / 2)

    return _product_spec(
        spec_id, (12,) * len(omega),
        [lambda xi, w=w, ph=ph: np.sin(w * xi + ph) for w, ph in zip(omega, phase)],
        factor_derivative)


def _reciprocal_quadratic_derivs(c: float, x: np.ndarray, order: int) -> np.ndarray:
    """n-th derivative of g(x) = 1/(1 + c x^2) via the exact recurrence.

    Differentiating (1 + c x^2) g = 1 n times (Leibniz) gives
    (1 + c x^2) g^(n) + 2 c n x g^(n-1) + c n (n-1) g^(n-2) = 0.
    """
    den = 1.0 + c * x * x
    g_prev2 = np.zeros_like(x)
    g_prev1 = 1.0 / den
    if order == 0:
        return g_prev1
    for n in range(1, order + 1):
        g_n = -(2.0 * c * n * x * g_prev1 + c * n * (n - 1) * g_prev2) / den
        g_prev2, g_prev1 = g_prev1, g_n
    return g_prev1


def _runge_spec(spec_id: str, dim: int, c: float = 25.0) -> FunctionSpec:
    return _product_spec(spec_id, (12,) * dim, [lambda xi: 1.0 / (1.0 + c * xi * xi)] * dim,
                         lambda i, k: lambda xi: _reciprocal_quadratic_derivs(c, xi, k))


def _abspow_spec(spec_id: str, centers: tuple[float, ...], alpha: float) -> FunctionSpec:
    return _product_spec(spec_id, (0,) * len(centers),
                         [lambda xi, ci=ci: np.abs(xi - ci) ** alpha for ci in centers])


def corpus() -> list[FunctionSpec]:
    """The built-in corpus, in a fixed deterministic order."""
    return [
        # tensor polynomials with configurable coordinate degrees
        tensor_polynomial_spec("poly_d1_deg0", [[1.0]]),
        tensor_polynomial_spec("poly_d1_deg1", [[0.0, 1.0]]),
        tensor_polynomial_spec("poly_d1_deg3", [[1.0, 0.25, -0.5, 1.0]]),
        tensor_polynomial_spec("poly_d2_deg11", [[0.0, 1.0], [0.0, 1.0]]),
        tensor_polynomial_spec("poly_d2_deg32", [[1.0, 1.0, 0.0, 1.0], [1.0, -1.0, 1.0]]),
        # exponentials exp(a . x)
        _exp_spec("exp_d1", (1.0,)),
        _exp_spec("exp_d2", (1.0, 1.0)),
        # products of sines
        _sin_product_spec("sin_d1", (1.5,), (0.3,)),
        _sin_product_spec("sinprod_d2", (1.5, 2.0), (0.3, 0.7)),
        # Runge-type products 1 / (1 + 25 x_i^2)
        _runge_spec("runge_d1", 1),
        _runge_spec("runge_d2", 2),
        # |x_i - c_i|^alpha tensor factors, no analytic derivatives exposed
        _abspow_spec("abspow_d1", (0.3,), 0.5),
        _abspow_spec("abspow_d2", (0.3, 0.6), 0.5),
    ]


_BY_ID = {f.id: f for f in corpus()}


def get_function(spec_id: str) -> FunctionSpec:
    """Look a corpus entry up by its string id."""
    try:
        return _BY_ID[spec_id]
    except KeyError:
        raise KeyError(f"unknown corpus function id: {spec_id!r}") from None
