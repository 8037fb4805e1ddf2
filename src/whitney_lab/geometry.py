"""Axis-aligned box geometry, orders and axis subsets, and tensor quadrature.

Orders and axis subsets are plain tuples.  An order ``r`` is a tuple of
non-negative Python ints (:func:`as_order`), an axis subset ``e`` a sorted
tuple of 0-based axes (:func:`subsets`), and :func:`project` masks ``r`` to
``e``.  Orders compare componentwise where the theory asks for ``r <= s``,
never with the tuple ``<=``, which is lexicographic.

Which tensor rule measures a function on a box is decided here only: tensor
Gauss-Legendre for finite p (spectrally accurate on the smooth corpus), a
Chebyshev-Lobatto grid for sup norms (it includes the boundary, where extrema
of the functions under study frequently sit), and that grid with
Clenshaw-Curtis weights for the discrete L1 fits.  A tensor rule has one
form: the :func:`axis_rule` nodes of each axis plus the tensor weights, first
axis slowest (:func:`box_rule`, :func:`tensor_quadrature`), its node counts
per axis from a :class:`QuadratureSpec`, which serves every dimension.  A
function is evaluated on such a grid only through :func:`grid_values`:
norms (:func:`lp_norm`), fits, stencils and the moduli kernel alike.  A corpus
entry's ``grid_evaluator`` then costs one 1-D evaluation per node and axis;
any other callable gets the flattened point list, and both give the
point-wise values bit for bit.

All values are immutable after construction and safe to share between
threads.  Reductions use a fixed summation order, so repeated runs with the
same configuration are bitwise reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "GeometryError",
    "Parallelepiped",
    "QuadratureSpec",
    "as_order",
    "subsets",
    "project",
    "function_dim",
    "as_steps",
    "shifted_domain",
    "lp_norm",
    "lp_power_integral",
    "axis_rule",
    "tensor_grid",
    "tensor_product",
    "grid_values",
    "box_rule",
    "tensor_quadrature",
    "grid_norm",
]


class GeometryError(ValueError):
    """Raised for invalid domains, indices, or quadrature requests."""


def _as_float_tuple(values: Iterable[float]) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def as_order(value, dim: int | None = None) -> tuple[int, ...]:
    """An order (smoothness, Taylor or difference order) as a non-empty tuple
    of non-negative Python ints, ``dim`` long when given.  Fractional and
    boolean entries are refused, never truncated."""
    entries = tuple(value)
    order = tuple(int(v) for v in entries)
    if any(isinstance(v, (bool, np.bool_)) or v != o for v, o in zip(entries, order)):
        raise GeometryError(f"order entries must be whole numbers, got {entries}")
    if not order or min(order) < 0:
        raise GeometryError(f"an order needs one or more entries, all >= 0, got {order}")
    if dim is not None and len(order) != dim:
        raise GeometryError(f"expected a {dim}-dimensional index, got {len(order)}")
    return order


def subsets(dim: int, include_empty: bool = False) -> list[tuple[int, ...]]:
    """All axis subsets of ``range(dim)`` as sorted tuples, in a fixed
    deterministic order (by size, then lexicographic)."""
    return [e for size in range(0 if include_empty else 1, dim + 1)
            for e in itertools.combinations(range(dim), size)]


def project(r: Sequence[int], e: Sequence[int]) -> tuple[int, ...]:
    """The order ``r`` masked to the axis subset ``e``: ``r_i`` on its axes, 0 elsewhere."""
    return tuple(ri if i in e else 0 for i, ri in enumerate(r))


def function_dim(f, box: Parallelepiped) -> int:
    """The box's dimension; a function that declares another ``dimension`` is an error."""
    dim = getattr(f, "dimension", box.dim)
    if dim != box.dim:
        raise GeometryError(f"{getattr(f, 'id', 'the function')} has dimension {dim}, "
                            f"the box has dimension {box.dim}")
    return dim


def as_steps(value, dim: int | None = None) -> tuple[float, ...]:
    """Steps (difference steps, K-functional weights, box sizes) as a non-empty
    tuple of Python floats, ``dim`` long when given."""
    steps = _as_float_tuple(np.atleast_1d(value))
    if len(steps) == 0:
        raise GeometryError("steps need at least one entry")
    if dim is not None and len(steps) != dim:
        raise GeometryError(f"expected a {dim}-dimensional step, got {len(steps)}")
    return steps


@dataclass(frozen=True)
class Parallelepiped:
    """Coordinate box ``[a_1,b_1] x ... x [a_d,b_d]``.

    Inverted boxes (some a_i > b_i) are rejected.  Zero-width axes are allowed
    so that shifted domains at extreme steps stay representable: they carry
    zero measure (finite-p integrals vanish) while sup norms still see the
    single remaining point.  Boxes used as primary experiment domains are
    validated for strictly positive size at configuration time.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __init__(self, lower: Iterable[float], upper: Iterable[float]):
        lo = _as_float_tuple(lower)
        hi = _as_float_tuple(upper)
        if len(lo) != len(hi):
            raise GeometryError("lower and upper must have the same length")
        if len(lo) == 0:
            raise GeometryError("dimension must be >= 1")
        if any(a > b for a, b in zip(lo, hi)):
            raise GeometryError(f"inverted box: lower={lo}, upper={hi}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def unit(cls, dim: int) -> "Parallelepiped":
        return cls((0.0,) * dim, (1.0,) * dim)

    @property
    def dim(self) -> int:
        return len(self.lower)

    def size(self) -> np.ndarray:
        """Side-length vector (componentwise >= 0)."""
        return np.asarray(self.upper) - np.asarray(self.lower)

    @property
    def is_degenerate(self) -> bool:
        return bool(np.any(self.size() == 0.0))

    def contains(self, point, tol: float = 0.0) -> bool:
        """Whether ``point``, or every row of an ``(N, d)`` array, lies in the box
        widened by ``tol``."""
        p = np.atleast_1d(np.asarray(point, dtype=float))
        return bool(
            np.all(p >= np.asarray(self.lower) - tol)
            and np.all(p <= np.asarray(self.upper) + tol)
        )

    def axis_interval(self, i: int) -> tuple[float, float]:
        return self.lower[i], self.upper[i]

    def require_positive_size(self) -> "Parallelepiped":
        if self.is_degenerate:
            raise GeometryError(f"box must satisfy a_i < b_i on every axis: {self}")
        return self


DEFAULT_QUAD_NODES = 32  # Gauss-Legendre nodes per axis of the finite-p norms
DEFAULT_SUP_NODES = 65  # Chebyshev-Lobatto nodes per axis of the sup norm


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts per axis of the tensor rules that measure every norm:
    ``nodes`` Gauss-Legendre nodes for finite p, ``sup_nodes``
    Chebyshev-Lobatto nodes (endpoints included) for p = infinity.  Every axis
    gets the same counts, so one spec serves boxes of every dimension."""

    nodes: int = DEFAULT_QUAD_NODES
    sup_nodes: int = DEFAULT_SUP_NODES

    def __post_init__(self):
        if not all(isinstance(n, (int, np.integer)) for n in (self.nodes, self.sup_nodes)):
            raise GeometryError(f"node counts must be integers: {self}")
        if self.nodes < 1 or self.sup_nodes < 2:
            raise GeometryError("need >= 1 Gauss node and >= 2 sup-grid nodes per axis")

    def rule_for(self, p: float, dim: int) -> tuple[str, tuple[int, ...]]:
        """The tensor rule and per-axis node counts of the L_p norm in ``dim`` dimensions."""
        if p == math.inf:
            return LOBATTO, (self.sup_nodes,) * dim
        return GAUSS, (self.nodes,) * dim


# 1-D rules on [-1, 1]: Gauss-Legendre nodes and weights, the Chebyshev-Lobatto
# sup grid (nodes only), and the same nodes with Clenshaw-Curtis weights
GAUSS = "gauss_legendre"
LOBATTO = "chebyshev_lobatto"
CLENSHAW_CURTIS = "clenshaw_curtis"


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=None)
def _chebyshev_lobatto(n: int) -> np.ndarray:
    # ascending points on [-1, 1], endpoints included, numerically symmetric
    theta = np.pi * np.arange(n) / (n - 1)
    x = -np.cos(theta)
    x = 0.5 * (x - x[::-1])
    x.setflags(write=False)
    return x


@lru_cache(maxsize=None)
def _cc_weights(n: int) -> np.ndarray:
    """Clenshaw-Curtis weights for the n-point Chebyshev-Lobatto grid on [-1, 1]."""
    x = _chebyshev_lobatto(n)
    k = np.arange(n)
    V = np.cos(np.outer(k, np.arccos(np.clip(x, -1.0, 1.0))))
    moments = np.where(k % 2 == 0, 2.0 / (1.0 - k.astype(float) ** 2 + (k == 1)), 0.0)
    moments[1] = 0.0
    w = np.linalg.solve(V, moments)
    w.setflags(write=False)
    return w


def axis_rule(rule: str, n: int, a: float = -1.0,
              b: float = 1.0) -> tuple[np.ndarray, np.ndarray | None]:
    """Ascending nodes of the n-point 1-D rule on [a, b] and its weights.

    The weights are ``None`` for the sup grid, which never computes the
    Clenshaw-Curtis weights.
    """
    if rule == GAUSS:
        x, w = _gauss_legendre(n)
    else:
        x = _chebyshev_lobatto(n)
        w = _cc_weights(n) if rule == CLENSHAW_CURTIS else None
    half = 0.5 * (b - a)
    return half * x + 0.5 * (a + b), None if w is None else half * w


def tensor_grid(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Flattened tensor grid ``(N, d)`` of 1-D node arrays, first axis slowest."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=-1)


def tensor_product(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product in :func:`tensor_grid` order: weights ``(N,)`` from
    1-D weights, or a design matrix from 1-D basis matrices."""
    return reduce(np.kron, factors)


def grid_values(f, axes) -> np.ndarray:
    """Values of ``f`` on the tensor grid of per-axis coordinates.

    Each ``axes[i]`` has shape ``(..., n_i)`` with a shared leading batch
    shape; the result has shape ``(..., n_0, ..., n_{d-1})``, first axis
    slowest.  A ``grid_evaluator`` gets the axes shaped to broadcast against
    each other, any other callable the point list (module docstring).
    """
    d = len(axes)
    coords = [np.asarray(x, dtype=float) for x in axes]
    coords = [x.reshape(x.shape[:-1] + (1,) * i + x.shape[-1:] + (1,) * (d - 1 - i))
              for i, x in enumerate(coords)]
    shape = np.broadcast_shapes(*(x.shape for x in coords))
    grid_evaluator = getattr(f, "grid_evaluator", None)
    if grid_evaluator is not None:
        return np.asarray(grid_evaluator(coords), dtype=float).reshape(shape)
    pts = np.stack(np.broadcast_arrays(*coords), axis=-1).reshape(-1, len(coords))
    return np.asarray(f(pts), dtype=float).reshape(shape)


@lru_cache(maxsize=None)
def _reference_weights(rule: str, nodes: tuple[int, ...]) -> np.ndarray | None:
    """Tensor weights ``(N,)`` of the rule on ``[-1, 1]^d`` (``None`` for the sup grid)."""
    if rule == LOBATTO:
        return None
    wts = tensor_product([axis_rule(rule, n)[1] for n in nodes])
    wts.setflags(write=False)
    return wts


def box_rule(domain: Parallelepiped, rule: str,
             nodes: Sequence[int]) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Per-axis nodes (the :func:`axis_rule` nodes of each axis) and tensor
    weights ``(N,)`` in :func:`tensor_grid` order (``None`` for the sup grid).

    The weights scale the reference weights on ``[-1, 1]^d``, which are
    computed once per rule and node counts.
    """
    if len(nodes) != domain.dim:
        raise GeometryError("quadrature and domain dimension mismatch")
    axes = [axis_rule(rule, n, *domain.axis_interval(i))[0] for i, n in enumerate(nodes)]
    ref_wts = _reference_weights(rule, tuple(nodes))
    return axes, None if ref_wts is None else float(np.prod(0.5 * domain.size())) * ref_wts


def tensor_quadrature(domain: Parallelepiped, quad: QuadratureSpec,
                      p: float = 1.0) -> tuple[list[np.ndarray], np.ndarray | None]:
    """The grid that measures L_p on the box: tensor Gauss-Legendre nodes and
    weights for finite p, the Chebyshev-Lobatto sup grid (no weights) for p = inf."""
    return box_rule(domain, *quad.rule_for(p, domain.dim))


def grid_norm(vals: np.ndarray, wts: np.ndarray | None, p: float) -> float:
    """L_p norm from values on a :func:`tensor_quadrature` grid."""
    if p == math.inf:
        return float(np.max(np.abs(vals)))
    return _power_sum(vals, wts, p) ** (1.0 / p)


def _power_sum(vals: np.ndarray, wts: np.ndarray, p: float) -> float:
    return float(np.dot(wts, np.abs(vals) ** p))


def shifted_domain(domain: Parallelepiped, step) -> Parallelepiped | None:
    """Points of the box that stay inside it after the shift ``x -> x + step``.

    Per axis the result is ``[a, b - y]`` for a step y >= 0 and ``[a - y, b]``
    for y < 0.  Returns ``None`` when some axis interval inverts (no point
    satisfies both constraints); a zero-width axis is kept as a valid
    degenerate interval.
    """
    y = np.asarray(as_steps(step, domain.dim))
    lo = np.asarray(domain.lower, dtype=float).copy()
    hi = np.asarray(domain.upper, dtype=float).copy()
    lo[y < 0] = lo[y < 0] - y[y < 0]
    hi[y >= 0] = hi[y >= 0] - y[y >= 0]
    if np.any(lo > hi):
        return None
    return Parallelepiped(lo, hi)


def lp_power_integral(f: Callable, domain: Parallelepiped | None, p: float,
                      quad: QuadratureSpec) -> float:
    """``integral over the box of |f|^p`` for finite p; 0 on an empty domain."""
    if domain is None:
        return 0.0
    if not (1.0 <= p < math.inf):
        raise GeometryError(f"finite p in [1, inf) required, got {p}")
    axes, wts = tensor_quadrature(domain, quad, p)
    return _power_sum(grid_values(f, axes).reshape(-1), wts, p)


def lp_norm(f: Callable, domain: Parallelepiped | None, p: float,
            quad: QuadratureSpec) -> float:
    """The L_p norm of ``f`` over the box, 1 <= p <= inf.

    ``f`` is evaluated on the tensor grid by :func:`grid_values`: it must
    accept an ``(N, d)`` array of points and return ``(N,)`` values, or have
    a ``grid_evaluator``.  For finite p the norm is a tensor Gauss-Legendre
    estimate of ``(integral |f|^p)^(1/p)``; for p = inf it is the max of
    ``|f|`` on the Chebyshev-Lobatto tensor grid.  An empty domain (``None``) contributes 0
    by convention, mirroring the role of empty shifted domains in the moduli.
    """
    if domain is None:
        return 0.0
    if p == math.inf:
        axes, _ = tensor_quadrature(domain, quad, p)
        return grid_norm(grid_values(f, axes).reshape(-1), None, p)
    return lp_power_integral(f, domain, p, quad) ** (1.0 / p)
