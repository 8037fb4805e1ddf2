"""Mixed finite-difference operators and the four moduli of smoothness.

The univariate operator of order m with step h is
``sum_{j=0}^m (-1)^(m-j) C(m, j) f(x + j h)``; mixed operators compose it
across the active axes.  The sup-type modulus searches a non-negative step
grid per active axis (a change of variables maps every sign pattern onto the
non-negative one without changing the norm; the reduction is verified
empirically in the tests, not assumed silently).  The p-mean modulus
integrates over the full signed step box.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .functions import FunctionSpec
from .geometry import (
    GAUSS,
    MultiIndex,
    Parallelepiped,
    QuadratureSpec,
    StepVector,
    SubsetMask,
    as_multi_index,
    as_step_vector,
    axis_rule,
    lp_norm,
    lp_power_integral,
    shifted_domain,
    subsets,
)

__all__ = [
    "ModulusRequest",
    "mixed_difference",
    "modulus",
    "total_modulus",
    "p_mean_modulus",
    "total_p_mean_modulus",
    "whitney_constant_sum",
]

log = logging.getLogger(__name__)

DEFAULT_H_GRID = 33
DEFAULT_MEAN_NODES = 16


def _difference_table(r_e: MultiIndex) -> tuple[np.ndarray, np.ndarray]:
    """Step multipliers (T, d) and signed binomial coefficients (T,) of the sum."""
    d = r_e.dim
    active = [i for i in range(d) if r_e[i] > 0]
    ranges = [range(r_e[i] + 1) for i in active]
    combos = list(itertools.product(*ranges)) if active else [()]
    mult = np.zeros((len(combos), d))
    coef = np.ones(len(combos))
    for row, combo in enumerate(combos):
        for i, j in zip(active, combo):
            mult[row, i] = j
            coef[row] *= (-1.0) ** (r_e[i] - j) * math.comb(r_e[i], j)
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
    mult, coef = _difference_table(r_e)
    shifted = pts[None, :, :] + mult[:, None, :] * h[None, None, :]
    vals = np.asarray(f(shifted.reshape(-1, r_e.dim)), dtype=float)
    vals = vals.reshape(len(coef), pts.shape[0])
    return coef @ vals


@dataclass
class ModulusRequest:
    """Inputs of one sup-type modulus evaluation.

    ``t`` is clamped componentwise to the box size (a larger search radius
    adds nothing; the clamp is logged).  ``h_grid`` is the number of
    equispaced step values searched per active axis, endpoints included.
    """

    f: FunctionSpec
    r: MultiIndex
    e: SubsetMask
    t: StepVector
    p: float
    domain: Parallelepiped
    h_grid: int = DEFAULT_H_GRID
    quad: QuadratureSpec | None = None

    def __post_init__(self):
        dim = getattr(self.f, "dimension", self.domain.dim)
        self.r = as_multi_index(self.r, dim)
        if not isinstance(self.e, SubsetMask):
            self.e = SubsetMask(dim, self.e)
        self.t = as_step_vector(self.t, dim)
        if self.h_grid < 2:
            raise ValueError("h_grid must be >= 2")
        size = self.domain.size()
        clamped = tuple(min(ti, si) for ti, si in zip(self.t, size))
        if any(ci < ti for ci, ti in zip(clamped, self.t)):
            log.info("clamping modulus step bound %s to box size %s", self.t.entries, clamped)
            self.t = StepVector(clamped)
        if self.quad is None:
            self.quad = QuadratureSpec.for_dim(dim)


def modulus(req: ModulusRequest) -> float:
    """Sup-type mixed modulus of order ``r(e)`` at step bound ``t``.

    Discretized sup over the non-negative step grid of the L_p norm of the
    mixed difference over the shifted domain; empty shifted domains
    contribute nothing.
    """
    if req.e.is_empty:
        raise ValueError("modulus needs a non-empty coordinate subset")
    r_e = req.e.project(req.r)
    active = [i for i in range(r_e.dim) if r_e[i] > 0]
    if not active:
        # order zero on every requested axis: difference degenerates to zero
        return 0.0
    grids = [np.linspace(0.0, req.t[i], req.h_grid) for i in active]
    r_arr = r_e.array().astype(float)
    best = 0.0
    h = np.zeros(r_e.dim)
    for combo in itertools.product(*grids):
        for i, hi in zip(active, combo):
            h[i] = hi
        dom = shifted_domain(req.domain, r_arr * h)
        if dom is None:
            continue
        val = lp_norm(lambda pts: mixed_difference(req.f, r_e, h, pts),
                      dom, req.p, req.quad)
        if val > best:
            best = val
    return best


def total_modulus(f, r, t, p, domain, h_grid: int = DEFAULT_H_GRID,
                  quad: QuadratureSpec | None = None) -> float:
    """Total mixed modulus: sum of the sup-type moduli over non-empty subsets."""
    r = as_multi_index(r, getattr(f, "dimension", domain.dim))
    if not r.is_positive():
        raise ValueError("total modulus needs r >= 1 on every axis")
    total = 0.0
    for e in subsets(r.dim):
        total += modulus(ModulusRequest(f, r, e, t, p, domain, h_grid, quad))
    return total


def p_mean_modulus(f, r_e, t, p, domain, quad: QuadratureSpec | None = None,
                   mean_nodes: int = DEFAULT_MEAN_NODES,
                   h_grid: int = DEFAULT_H_GRID) -> float:
    """p-mean modulus of order ``r_e``: step-integrated variant of the sup modulus.

    Computes ``((prod_{active} t_i^-1) * int_{|h_i|<=t_i} int |diff|^p dx dh)^(1/p)``
    with the step integral running over the full signed box restricted to the
    active axes.  Each active axis uses two Gauss-Legendre panels, split at
    h = 0 where the integrand generically kinks.  At p = inf the outer mean
    becomes a sup and the value coincides with :func:`modulus` (same ``h_grid``
    discretization, so the coincidence is exact in the reported numbers).

    The normalization divides by ``prod t_i``, not by the signed box measure
    ``prod 2 t_i``, so for p < inf the value is bounded by the sup modulus
    only up to a factor: ``w_e <= 2^(|e|/p) * omega_e``.  In general
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
        e = SubsetMask(dim, active)
        return modulus(ModulusRequest(f, r_e, e, t, p, domain, h_grid, quad))
    if quad is None:
        quad = QuadratureSpec.for_dim(dim)
    if any(t[i] == 0.0 for i in active):
        return 0.0  # limit convention: vanishing step box
    nodes, weights = [], []
    for i in active:
        left = axis_rule(GAUSS, mean_nodes, -t[i], 0.0)
        right = axis_rule(GAUSS, mean_nodes, 0.0, t[i])
        nodes.append(np.concatenate([left[0], right[0]]))
        weights.append(np.concatenate([left[1], right[1]]))
    r_arr = r_e.array().astype(float)
    acc = 0.0
    h = np.zeros(r_e.dim)
    for combo in itertools.product(*[range(len(n)) for n in nodes]):
        w_h = 1.0
        for axis_pos, (i, ci) in enumerate(zip(active, combo)):
            h[i] = nodes[axis_pos][ci]
            w_h *= weights[axis_pos][ci]
        dom = shifted_domain(domain, r_arr * h)
        if dom is None:
            continue
        inner = lp_power_integral(lambda pts: mixed_difference(f, r_e, h, pts),
                                  dom, p, quad)
        acc += w_h * inner
    scale = float(np.prod([1.0 / t[i] for i in active]))
    return max(scale * acc, 0.0) ** (1.0 / p)


def total_p_mean_modulus(f, r, t, p, domain, quad: QuadratureSpec | None = None,
                         mean_nodes: int = DEFAULT_MEAN_NODES,
                         h_grid: int = DEFAULT_H_GRID) -> float:
    """Total p-mean modulus: sum of p-mean moduli over non-empty subsets."""
    r = as_multi_index(r, getattr(f, "dimension", domain.dim))
    if not r.is_positive():
        raise ValueError("total p-mean modulus needs r >= 1 on every axis")
    total = 0.0
    for e in subsets(r.dim):
        total += p_mean_modulus(f, e.project(r), t, p, domain, quad, mean_nodes, h_grid)
    return total


def whitney_constant_sum(r) -> float:
    """The exact lower-bound constant ``sum over all subsets e of prod_{i in e} 2^{r_i}``."""
    r = as_multi_index(r)
    total = 0.0
    for e in subsets(r.dim, include_empty=True):
        total += float(np.prod([2.0 ** r[i] for i in e.sorted_axes()])) if not e.is_empty else 1.0
    return total
