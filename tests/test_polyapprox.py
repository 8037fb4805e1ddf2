import math

import numpy as np
import pytest

from whitney_lab.functions import CapabilityError, get_function
from whitney_lab.geometry import Parallelepiped, QuadratureSpec, _cc_weights, lp_norm
from whitney_lab.polyapprox import (
    TensorPolynomial,
    _legendre_matrix,
    best_approx,
    derivative_inequality_ratios,
    equioscillation_count,
    taylor_poly,
    taylor_remainder_bound,
)
from whitney_lab.smoother import smooth_univariate

INF = math.inf


class TestTensorPolynomial:
    def test_zero_coefficients_evaluate_to_zero(self, unit_box_2d):
        poly = TensorPolynomial(np.zeros((2, 2)), unit_box_2d)
        pts = np.array([[0.1, 0.2], [0.9, 0.4]])
        assert np.all(poly(pts) == 0.0)

    def test_shape_validation(self, unit_box_1d, unit_box_2d):
        # one coefficient axis per coordinate of the box
        with pytest.raises(ValueError):
            TensorPolynomial(np.zeros(3), unit_box_2d)
        with pytest.raises(ValueError):
            TensorPolynomial(np.zeros((3, 2)), unit_box_1d)
        # and at least one coefficient on each; evaluation would fail otherwise
        with pytest.raises(ValueError):
            TensorPolynomial(np.zeros((0, 2)), unit_box_2d)

    def test_membership_differencing_annihilates(self, unit_box_1d):
        from whitney_lab.differences import mixed_difference

        poly = TensorPolynomial(np.array([0.3, -1.0, 2.0]), unit_box_1d)
        vals = mixed_difference(poly, (3,), (0.2,), np.linspace(0, 0.4, 7).reshape(-1, 1))
        assert np.max(np.abs(vals)) < 1e-12


@pytest.mark.parametrize("kind,d", [("polynomial", 2), ("polynomial", 1), ("smoothed", 1)])
def test_extra_point_column_is_rejected(kind, d):
    # (N, d + 1) points were evaluated on their first d columns
    box = Parallelepiped([0.0] * d, [1.0] * d)
    if kind == "polynomial":
        fn = TensorPolynomial(np.ones((2,) * d), box)
    else:
        fn = smooth_univariate(get_function("exp_d1"), 2, 0.01, 0, box)
    with pytest.raises(ValueError, match=r"points must have shape \(N, %d\)" % d):
        fn(np.full((2, d + 1), 0.5))


def test_legendre_basis_orthonormal(unit_box_1d, quad_1d):
    from whitney_lab.geometry import tensor_quadrature

    (x,), wts = tensor_quadrature(unit_box_1d, quad_1d)
    V = _legendre_matrix(x, 5, 0.0, 1.0)
    gram = V.T @ (wts[:, None] * V)
    assert np.max(np.abs(gram - np.eye(5))) < 1e-12


def test_clenshaw_curtis_weights_positive_and_exact():
    for n in (9, 17, 33):
        w = _cc_weights(n)
        assert np.all(w > 0)
        assert w.sum() == pytest.approx(2.0, rel=1e-13)
        # exact for a mid-degree even power
        from whitney_lab.geometry import _chebyshev_lobatto

        x = _chebyshev_lobatto(n)
        assert float(w @ x ** 6) == pytest.approx(2.0 / 7.0, rel=1e-12)


class TestBestApprox:
    def test_reproduces_own_class_p2(self, unit_box_2d, quad_2d_fast):
        f = get_function("poly_d2_deg11")
        _, err = best_approx(f, (2, 2), 2.0, unit_box_2d, quad=quad_2d_fast)
        assert err <= 1e-10

    @pytest.mark.parametrize("p", [1.0, INF])
    def test_reproduces_own_class_p1_inf(self, unit_box_1d, quad_1d, p):
        f = get_function("poly_d1_deg3")
        _, err = best_approx(f, (4,), p, unit_box_1d, quad=quad_1d)
        assert err <= 1e-8

    def test_degenerate_l1_vertex_is_pinned(self, unit_box_2d):
        # On the 13 x 13 grid the discrete weighted-L1 optimum of sinprod_d2,
        # r = (2, 2), is not unique: the optimal coefficients form a segment
        # (coefficient 1 ranges over [-0.06108, -0.05854]) and the re-measured
        # continuous error depends on the end the solver lands on.  This
        # vertex gives the benchmark's reference value; the other end gives
        # 0.104473.  A solver change that moves this value must do so on purpose.
        f = get_function("sinprod_d2")
        _, err = best_approx(f, (2, 2), 1.0, unit_box_2d, grid=(13, 13),
                             quad=QuadratureSpec(20, 33))
        assert err == pytest.approx(0.10455518605723034, rel=1e-9)

    def test_linear_minimax_constant_half(self, unit_box_1d, quad_1d):
        f = get_function("poly_d1_deg1")
        poly, err = best_approx(f, (1,), INF, unit_box_1d, quad=quad_1d)
        assert err == pytest.approx(0.5, abs=1e-10)
        assert float(poly([[0.3]])[0]) == pytest.approx(0.5, abs=1e-9)

    def test_linear_l2_closed_form(self, unit_box_1d, quad_1d):
        f = get_function("poly_d1_deg1")
        poly, err = best_approx(f, (1,), 2.0, unit_box_1d, quad=quad_1d)
        assert err == pytest.approx((1.0 / 12.0) ** 0.5, rel=1e-12)
        assert float(poly([[0.8]])[0]) == pytest.approx(0.5, abs=1e-12)

    def test_chebyshev_equioscillation(self, quad_1d):
        box = Parallelepiped([-1.0], [1.0])
        f = lambda q: q[:, 0] ** 2
        poly, err = best_approx(f, (2,), INF, box, quad=quad_1d)
        assert err == pytest.approx(0.5, abs=1e-10)
        count = equioscillation_count(lambda q: f(q) - poly(q), err, box)
        assert count >= 3

    def test_error_bounded_by_norm(self, unit_box_1d, quad_1d):
        f = get_function("runge_d1")
        for p in (1.0, 2.0, INF):
            _, err = best_approx(f, (2,), p, unit_box_1d, quad=quad_1d)
            assert err <= lp_norm(f, unit_box_1d, p, quad_1d) + 1e-12

    def test_p2_residual_orthogonality(self, unit_box_2d, quad_2d):
        from whitney_lab.geometry import tensor_grid, tensor_quadrature
        from whitney_lab.polyapprox import _legendre_matrix as legmat

        f = get_function("exp_d2")
        poly, _ = best_approx(f, (2, 2), 2.0, unit_box_2d, quad=quad_2d)
        axes, wts = tensor_quadrature(unit_box_2d, quad_2d)
        pts = tensor_grid(axes)
        res = f(pts) - poly(pts)
        V1 = legmat(pts[:, 0], 2, 0.0, 1.0)
        V2 = legmat(pts[:, 1], 2, 0.0, 1.0)
        for a in range(2):
            for b in range(2):
                inner = float(np.sum(wts * res * V1[:, a] * V2[:, b]))
                assert abs(inner) <= 1e-9

    def test_affine_covariance(self, quad_1d):
        # mapping the box affinely onto [0,1] leaves the sup error unchanged
        # and scales the L_p error by the Jacobian factor
        f = get_function("runge_d1")
        big = Parallelepiped([0.0], [0.5])
        unit = Parallelepiped([0.0], [1.0])
        mapped = lambda q: f(0.5 * q)  # pulled back to the unit box
        for p, factor in [(INF, 1.0), (2.0, 0.5 ** 0.5), (1.0, 0.5)]:
            _, err_box = best_approx(f, (2,), p, big, quad=quad_1d)
            _, err_unit = best_approx(mapped, (2,), p, unit, quad=quad_1d)
            assert err_box == pytest.approx(factor * err_unit, rel=1e-8)

    def test_unsupported_p(self, unit_box_1d):
        with pytest.raises(ValueError):
            best_approx(get_function("exp_d1"), (1,), 1.5, unit_box_1d)

    def test_grid_too_coarse(self, unit_box_1d):
        with pytest.raises(ValueError):
            best_approx(get_function("exp_d1"), (3,), INF, unit_box_1d, grid=(5,))

    @pytest.mark.parametrize("r,grid,match", [
        ((2,), None, "2-dimensional index"),
        ((2, 2), (13, 13, 13), "per axis"),
        ((2, 2), (13,), "per axis"),
        ((2, 2), 13, "per axis"),
        # a fractional count ran on its floor, and True as 1 node
        ((2, 2), (17.9, 17), r"grid \(17\.9, 17\) needs whole node counts"),
        ((2, 2), (True, 13), r"grid \(True, 13\) needs whole node counts"),
    ], ids=["order_1d", "grid_3d", "grid_1d", "grid_int", "grid_fraction", "grid_bool"])
    def test_order_and_grid_must_match_the_box(self, unit_box_2d, r, grid, match):
        # each is named, not a quadrature mismatch and not broadcast to every axis
        with pytest.raises(ValueError, match=match):
            best_approx(get_function("exp_d2"), r, INF, unit_box_2d, grid=grid)

    def test_grid_and_quad_are_keyword_only(self, unit_box_2d, quad_2d):
        with pytest.raises(TypeError):
            best_approx(get_function("exp_d2"), (2, 2), INF, unit_box_2d, (13, 13), quad_2d)


class TestTaylor:
    @pytest.mark.parametrize("fid,r", [("poly_d2_deg11", (2, 2)), ("poly_d2_deg32", (4, 3))])
    @pytest.mark.parametrize("anchor", [(0.0, 0.0), (0.2, 0.7)])
    def test_reproduces_polynomials(self, unit_box_2d, quad_2d_fast, fid, r, anchor):
        # an interior anchor makes the monomial-to-Legendre conversion do work
        f = get_function(fid)
        tp = taylor_poly(f, r, anchor, unit_box_2d)
        err = lp_norm(lambda q: f(q) - tp(q), unit_box_2d, INF, quad_2d_fast)
        assert err < 1e-12

    def test_exponential_maclaurin(self, unit_box_1d):
        tp = taylor_poly(get_function("exp_d1"), (2,), (0.0,), unit_box_1d)
        xs = np.linspace(0, 1, 9).reshape(-1, 1)
        assert np.max(np.abs(tp(xs) - (1.0 + xs[:, 0]))) < 1e-12

    def test_anchor_outside_box_rejected(self, unit_box_1d):
        with pytest.raises(ValueError):
            taylor_poly(get_function("exp_d1"), (2,), (2.0,), unit_box_1d)

    def test_lp_only_rejected(self, unit_box_1d):
        with pytest.raises(CapabilityError):
            taylor_poly(get_function("abspow_d1"), (1,), (0.5,), unit_box_1d)

    def test_remainder_bound_polynomial_zero(self, unit_box_2d, quad_2d_fast):
        f = get_function("poly_d2_deg11")
        assert taylor_remainder_bound(f, (2, 2), INF, unit_box_2d, quad_2d_fast) < 1e-12

    def test_remainder_bound_exponential(self, unit_box_1d, quad_1d):
        got = taylor_remainder_bound(get_function("exp_d1"), (1,), INF,
                                     unit_box_1d, quad_1d)
        assert got == pytest.approx(math.e, rel=1e-12)

    def test_remainder_bound_bilinear_three_terms(self, unit_box_2d, quad_2d):
        got = taylor_remainder_bound(get_function("poly_d2_deg11"), (1, 1), INF,
                                     unit_box_2d, quad_2d)
        assert got == pytest.approx(3.0, rel=1e-12)


class TestDerivativeInequalityRatios:
    def test_constant_k0_ratio_bounded_by_one(self, unit_box_1d, quad_1d):
        f = get_function("poly_d1_deg0")
        lp, sup = derivative_inequality_ratios(f, 1, 0, 1.0, INF, unit_box_1d, quad_1d)
        assert lp <= 1.0 + 1e-12 and sup <= 1.0 + 1e-12

    @pytest.mark.parametrize("fid", ["sin_d1", "exp_d1", "poly_d1_deg3"])
    @pytest.mark.parametrize("p", [1.0, 2.0, INF])
    def test_ratios_bounded_over_halving_sweep(self, unit_box_1d, quad_1d, fid, p):
        f = get_function(fid)
        r = 2
        for k in range(r):
            for j in range(7):
                t = 1.0 / 2 ** j
                lp, sup = derivative_inequality_ratios(f, r, k, t, p, unit_box_1d,
                                                       quad_1d)
                assert np.isfinite(lp) and np.isfinite(sup)
                assert lp < 50 and sup < 50  # loose sanity bound, constants are O(1)
