import dataclasses
import math

import numpy as np
import pytest

from hypothesis import example, given
from hypothesis import strategies as st

from whitney_lab.differences import (
    modulus,
    p_mean_modulus,
    total_modulus,
    whitney_constant_sum,
)
from whitney_lab.functions import CapabilityError, FunctionSpec, get_function
from whitney_lab.geometry import (
    GeometryError,
    Parallelepiped,
    QuadratureSpec,
    as_order,
    lp_norm,
    project,
    shifted_domain,
    subsets,
    tensor_quadrature,
)
from whitney_lab.polyapprox import (
    best_approx,
    derivative_inequality_ratios,
    taylor_poly,
    taylor_remainder_bound,
)
from whitney_lab.smoother import k_functional_bracket

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

    def test_order_rejects_negative_entries(self):
        with pytest.raises(GeometryError):
            as_order((-1,))

    def test_subset_projection(self):
        r = (3, 2, 4)
        assert project(r, (0, 2)) == (3, 0, 4)
        assert project(r, ()) == (0, 0, 0)

    def test_subsets_enumeration_deterministic(self):
        assert subsets(2, include_empty=True) == [(), (0,), (1,), (0, 1)]
        assert len(subsets(3)) == 7


EXP_D1 = get_function("exp_d1")
UNIT_1D = Parallelepiped([0.0], [1.0])
UNIT_2D = Parallelepiped([0.0, 0.0], [1.0, 1.0])


class TestOrders:
    """Orders are tuples of non-negative Python ints, and axis subsets sorted
    tuples of axes; every entry point reads its order through ``as_order``."""

    @pytest.mark.parametrize("call", [
        lambda: best_approx(EXP_D1, (2.5,), math.inf, UNIT_1D),
        lambda: total_modulus(EXP_D1, (1.5,), 0.5, 1.0, UNIT_1D),
        lambda: taylor_poly(EXP_D1, (2.9,), (0.5,), UNIT_1D),
        lambda: EXP_D1.derivative((1.7,), [[0.5]]),
        lambda: whitney_constant_sum((1.5,)),
        lambda: modulus(get_function("exp_d2"), (True, 2), (0.5, 0.5), 1.0, UNIT_2D),
    ], ids=["best_approx", "total_modulus", "taylor_poly", "derivative",
            "whitney_constant_sum", "boolean"])
    def test_fractional_and_boolean_orders_are_refused(self, call):
        # int() would truncate them: (2.5,) to the order-2 problem, True to 1
        with pytest.raises(GeometryError, match="whole numbers"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: modulus(EXP_D1, (1,), 0.5, 1.0, UNIT_2D),
        lambda: p_mean_modulus(EXP_D1, (1,), 0.5, 1.0, UNIT_2D),
        lambda: total_modulus(EXP_D1, (1,), 0.5, 1.0, UNIT_2D),
        lambda: k_functional_bracket(EXP_D1, (1,), 0.1, 1.0, UNIT_2D),
        lambda: best_approx(EXP_D1, (1,), math.inf, UNIT_2D),
        lambda: taylor_poly(EXP_D1, (2,), (0.5,), UNIT_2D),
        lambda: taylor_remainder_bound(EXP_D1, (2,), 1.0, UNIT_2D),
        lambda: derivative_inequality_ratios(EXP_D1, 2, 1, 0.1, 1.0, UNIT_2D),
    ], ids=["modulus", "p_mean_modulus", "total_modulus", "k_functional_bracket",
            "best_approx", "taylor_poly", "taylor_remainder_bound",
            "derivative_inequality_ratios"])
    def test_function_and_box_dimensions_must_match(self, call):
        # unchecked, the moduli measure a 1-D problem on the square and return a
        # wrong value, and the other entry points fail inside numpy or on a
        # message that names neither dimension
        with pytest.raises(GeometryError, match="exp_d1 has dimension 1, the box has dimension 2"):
            call()

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=3),
           st.lists(st.integers(0, 5), min_size=3, max_size=3))
    @example([1, 3], [2, 1, 0])
    def test_orders_subsets_and_the_derivative_predicate(self, r, r_max):
        d = len(r)
        forms = [r, tuple(r), np.asarray(r, dtype=np.int64), np.asarray(r, dtype=np.int32)]
        for form in forms:
            order = as_order(form, d)
            assert order == tuple(r)
            assert all(type(v) is int for v in order)
        for e in subsets(d, include_empty=True):
            masked = project(tuple(r), e)
            assert all(masked[i] == (r[i] if i in e else 0) for i in range(d))
        # componentwise, not the lexicographic tuple order: (1, 3) <= (2, 1)
        # holds for tuples, yet (1, 3) is no derivative of an r_max = (2, 1) entry
        f = FunctionSpec("probe", d, tuple(r_max[:d]), lambda c: c[0], lambda k, c: c[0])
        comparable = all(a <= b for a, b in zip(r, r_max))
        assert f.has_derivative(tuple(r)) == comparable
        if not comparable:
            with pytest.raises(CapabilityError):
                f.derivative(r, [[0.5] * d])
        assert not dataclasses.replace(f, derivative_evaluator=None).has_derivative(tuple(r))
        # an order of the wrong length is refused, as derivative refuses it,
        # never compared on the common prefix
        with pytest.raises(GeometryError):
            f.has_derivative(tuple(r) + (0,))
        exp_d2 = get_function("exp_d2")
        for wrong in ((1,), (1, 2, 3)):
            with pytest.raises(GeometryError):
                exp_d2.has_derivative(wrong)
            with pytest.raises(GeometryError):
                exp_d2.derivative(wrong, [[0.5, 0.5]])


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
