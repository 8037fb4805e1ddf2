import math

import numpy as np
import pytest

from whitney_lab.geometry import (
    GeometryError,
    MultiIndex,
    Parallelepiped,
    QuadratureSpec,
    SubsetMask,
    lp_norm,
    shifted_domain,
    subsets,
    tensor_quadrature,
)

INF = math.inf


class TestDomainTypes:
    def test_box_rejects_inverted(self):
        with pytest.raises(GeometryError):
            Parallelepiped([0.0, 1.0], [1.0, 0.0])

    def test_box_rejects_empty_dim(self):
        with pytest.raises(GeometryError):
            Parallelepiped([], [])

    def test_size_is_positive_for_proper_box(self):
        box = Parallelepiped([0.0, -1.0], [2.0, 3.0])
        assert np.all(box.size() == [2.0, 4.0])
        assert not box.is_degenerate
        box.require_positive_size()

    def test_degenerate_axis_is_representable_but_flagged(self):
        box = Parallelepiped([0.0], [0.0])
        assert box.is_degenerate
        with pytest.raises(GeometryError):
            box.require_positive_size()

    def test_multi_index_partial_order(self):
        assert MultiIndex((1, 2)) <= MultiIndex((1, 3))
        assert not MultiIndex((2, 1)) <= MultiIndex((1, 3))
        # incomparable pairs are ordered in neither direction
        assert not MultiIndex((0, 2)) >= MultiIndex((1, 1))
        assert not MultiIndex((0, 2)) <= MultiIndex((1, 1))
        with pytest.raises(GeometryError):
            MultiIndex((-1,))

    def test_subset_projection(self):
        r = MultiIndex((3, 2, 4))
        e = SubsetMask(3, [0, 2])
        assert e.project(r).entries == (3, 0, 4)
        assert SubsetMask.empty(3).project(r).entries == (0, 0, 0)

    def test_subsets_enumeration_deterministic(self):
        masks = subsets(2, include_empty=True)
        assert [m.sorted_axes() for m in masks] == [(), (0,), (1,), (0, 1)]
        assert len(subsets(3)) == 7


class TestShiftedDomain:
    def test_zero_shift_is_identity(self, unit_box_1d):
        assert shifted_domain(unit_box_1d, [0.0]) == unit_box_1d

    def test_positive_shift(self, unit_box_1d):
        assert shifted_domain(unit_box_1d, [0.25]) == Parallelepiped([0.0], [0.75])

    def test_mixed_sign_shift_2d(self, unit_box_2d):
        got = shifted_domain(unit_box_2d, [0.5, -0.5])
        assert got == Parallelepiped([0.0, 0.5], [0.5, 1.0])

    def test_too_large_shift_is_empty(self, unit_box_1d):
        assert shifted_domain(unit_box_1d, [1.5]) is None

    def test_full_shift_leaves_degenerate_point(self, unit_box_1d):
        got = shifted_domain(unit_box_1d, [1.0])
        assert got is not None and got.is_degenerate
        assert got.lower == got.upper == (0.0,)

    @pytest.mark.parametrize("y", [[0.3], [-0.4], [0.9]])
    def test_shift_is_subset_of_box(self, unit_box_1d, y):
        got = shifted_domain(unit_box_1d, y)
        assert got.lower[0] >= 0.0 and got.upper[0] <= 1.0

    def test_reflection_symmetry_about_center(self):
        box = Parallelepiped([-1.0, -2.0], [1.0, 2.0])  # centered at the origin
        for y in ([0.3, 0.5], [0.7, -1.2], [-0.1, 0.9]):
            pos = shifted_domain(box, y)
            neg = shifted_domain(box, [-v for v in y])
            # reflecting through the center swaps and negates the bounds
            assert np.allclose(np.asarray(neg.lower), -np.asarray(pos.upper))
            assert np.allclose(np.asarray(neg.upper), -np.asarray(pos.lower))


class TestQuadrature:
    def test_spec_validation(self):
        with pytest.raises(GeometryError):
            QuadratureSpec(0)
        with pytest.raises(GeometryError):
            QuadratureSpec(4, 1)  # the sup grid needs both endpoints
        with pytest.raises(GeometryError):
            QuadratureSpec(2.5)  # a count, not a float that fails only when used

    @pytest.mark.parametrize("n", [2, 5, 16, 32])
    def test_gauss_exactness_to_degree_2n_minus_1(self, n):
        box = Parallelepiped([0.0], [2.0])
        quad = QuadratureSpec(nodes=n)
        deg = 2 * n - 1
        (x,), wts = tensor_quadrature(box, quad)
        got = float(wts @ x ** deg)
        assert got == pytest.approx(2.0 ** (deg + 1) / (deg + 1), rel=1e-12)

    def test_weights_positive_and_sum_to_volume(self, unit_box_2d, quad_2d):
        axes, wts = tensor_quadrature(unit_box_2d, quad_2d)
        assert np.all(wts > 0)
        assert wts.sum() == pytest.approx(1.0, rel=1e-13)
        assert [x.shape for x in axes] == [(32,), (32,)]
        assert wts.shape == (32 * 32,)


class TestLpNorm:
    def test_unit_constant_on_unit_square(self, unit_box_2d, quad_2d):
        assert lp_norm(lambda p: np.ones(len(p)), unit_box_2d, 2.0, quad_2d) == pytest.approx(1.0)

    def test_linear_l2(self, unit_box_1d, quad_1d):
        got = lp_norm(lambda p: p[:, 0], unit_box_1d, 2.0, quad_1d)
        assert got == pytest.approx(3.0 ** -0.5, abs=1e-13)

    def test_sup_norm_hits_endpoint(self, unit_box_1d, quad_1d):
        got = lp_norm(lambda p: p[:, 0] - 0.5, unit_box_1d, INF, quad_1d)
        assert got == pytest.approx(0.5, abs=0.0)

    def test_empty_domain_returns_zero(self, quad_1d):
        assert lp_norm(lambda p: p[:, 0], None, 2.0, quad_1d) == 0.0

    def test_degenerate_domain_zero_mass_but_sup_sees_point(self, quad_1d):
        point = Parallelepiped([0.25], [0.25])
        assert lp_norm(lambda p: np.ones(len(p)), point, 1.0, quad_1d) == 0.0
        assert lp_norm(lambda p: p[:, 0], point, INF, quad_1d) == pytest.approx(0.25)

    @pytest.mark.parametrize("c", [0.0, -2.5, 3.75, 1e6])
    def test_absolute_homogeneity(self, unit_box_1d, quad_1d, c):
        f = lambda p: np.sin(3 * p[:, 0]) + 0.5
        base = lp_norm(f, unit_box_1d, 2.0, quad_1d)
        scaled = lp_norm(lambda p: c * f(p), unit_box_1d, 2.0, quad_1d)
        assert scaled == pytest.approx(abs(c) * base, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5, INF])
    def test_monotone_in_domain(self, quad_1d, p):
        f = lambda q: np.exp(q[:, 0])
        big = Parallelepiped([0.0], [1.0])
        for a, b in [(0.1, 0.9), (0.0, 0.5), (0.3, 1.0)]:
            small = Parallelepiped([a], [b])
            assert lp_norm(f, small, p, quad_1d) <= lp_norm(f, big, p, quad_1d) + 1e-10
