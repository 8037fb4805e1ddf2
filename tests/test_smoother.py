import dataclasses
import itertools
import math

import numpy as np
import pytest

from whitney_lab import smoother
from whitney_lab.functions import get_function
from whitney_lab.geometry import (
    Parallelepiped,
    QuadratureSpec,
    lp_norm,
    subsets,
    tensor_quadrature,
)
from whitney_lab.harness import ExperimentConfig, Resolutions, _johnen_task
from whitney_lab.smoother import (
    BracketViolation,
    DomainValidityError,
    KBracket,
    _smoothed_lp_norm,
    bspline_eval,
    k_functional_bracket,
    smooth_mixed,
    smooth_univariate,
    smoothed_derivative,
    subdivision_boxes,
)

INF = math.inf


class TestBSpline:
    def test_order_one_is_the_box(self):
        assert bspline_eval(1, 0.5) == 1.0
        assert bspline_eval(1, -0.1) == 0.0
        assert bspline_eval(1, 1.5) == 0.0

    def test_hat_peak(self):
        assert bspline_eval(2, 1.0) == pytest.approx(1.0)
        assert bspline_eval(2, 0.5) == pytest.approx(0.5)

    def test_quadratic_center_value(self):
        assert bspline_eval(3, 1.5) == pytest.approx(0.75)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_support_positivity_and_unit_mass(self, k):
        x = np.linspace(-1.0, k + 1.0, 4001)
        vals = bspline_eval(k, x)
        assert np.all(vals >= 0)
        outside = (x < 0) | (x > k)
        assert np.all(vals[outside] == 0.0)
        # quadrature check of the unit integral, panel by panel
        from whitney_lab.geometry import _gauss_legendre

        xq, wq = _gauss_legendre(16)
        total = sum(
            float(wq @ bspline_eval(k, 0.5 * (xq + 1.0) + j)) * 0.5 for j in range(k)
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_symmetry(self, k):
        x = np.linspace(0.05, k - 0.05, 201)
        assert np.allclose(bspline_eval(k, x), bspline_eval(k, k - x), atol=1e-13)

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError):
            bspline_eval(0, 0.5)


class TestSmoothUnivariate:
    def test_reproduces_low_degree(self, unit_box_1d):
        f = get_function("poly_d1_deg1")
        g = smooth_univariate(f, 2, 0.05, 0, unit_box_1d)
        pts = np.linspace(0.0, 0.75, 11).reshape(-1, 1)
        assert np.max(np.abs(g(pts) - f(pts))) < 1e-13

    def test_zero_scale_is_identity(self, unit_box_1d):
        f = get_function("runge_d1")
        g = smooth_univariate(f, 3, 0.0, 0, unit_box_1d)
        pts = np.linspace(0.0, 0.75, 11).reshape(-1, 1)
        assert np.max(np.abs(g(pts) - f(pts))) < 1e-13

    def test_first_order_linear_shift(self, unit_box_1d):
        # order 1 on f = x adds exactly t/2 (one-line moment integral)
        f = get_function("poly_d1_deg1")
        t = 0.0625
        g = smooth_univariate(f, 1, t, 0, unit_box_1d)
        pts = np.linspace(0.0, 0.75, 9).reshape(-1, 1)
        assert np.max(np.abs(g(pts) - (pts[:, 0] + t / 2.0))) < 1e-10

    def test_scale_beyond_validity_rejected(self, unit_box_1d):
        with pytest.raises(DomainValidityError):
            smooth_univariate(get_function("exp_d1"), 2, 0.2, 0, unit_box_1d)

    def test_evaluation_outside_trimmed_box_rejected(self, unit_box_1d):
        g = smooth_univariate(get_function("exp_d1"), 2, 0.01, 0, unit_box_1d)
        with pytest.raises(DomainValidityError):
            g(np.array([[0.9]]))

    def test_negative_scale_trims_other_side(self, unit_box_1d):
        f = get_function("exp_d1")
        g = smooth_univariate(f, 2, -0.01, 0, unit_box_1d)
        assert g.domain == Parallelepiped([0.25], [1.0])
        g(np.array([[0.9]]))  # valid on the right portion now


class TestSmoothMixed:
    def test_reproduces_polynomial_class(self, unit_box_2d):
        f = get_function("poly_d2_deg32")  # degrees (3, 2)
        g = smooth_mixed(f, (4, 3), (0.01, 0.008), unit_box_2d)
        pts = np.stack([np.linspace(0, 0.7, 9), np.linspace(0, 0.7, 9)], axis=1)
        assert np.max(np.abs(g(pts) - f(pts))) < 1e-9

    def test_separable_first_order_product(self, unit_box_2d):
        f = get_function("poly_d2_deg11")
        t = (0.04, 0.06)
        g = smooth_mixed(f, (1, 1), t, unit_box_2d)
        pts = np.array([[0.2, 0.3], [0.5, 0.7], [0.0, 0.75]])
        expect = (pts[:, 0] + t[0] / 2) * (pts[:, 1] + t[1] / 2)
        assert np.max(np.abs(g(pts) - expect)) < 1e-12

    def test_zero_scales_identity(self, unit_box_2d):
        f = get_function("sinprod_d2")
        g = smooth_mixed(f, (2, 2), (0.0, 0.0), unit_box_2d)
        pts = np.array([[0.1, 0.2], [0.6, 0.7]])
        assert np.max(np.abs(g(pts) - f(pts))) < 1e-13

    def test_sup_norm_bound(self, unit_box_1d, quad_1d):
        # |A_t f| <= (1 + 2^k) ||f||_inf from the defining integral
        f = get_function("runge_d1")
        k = 2
        g = smooth_mixed(f, (k,), (0.03,), unit_box_1d)
        got = lp_norm(g, g.domain, INF, quad_1d)
        assert got <= (1 + 2 ** k) * lp_norm(f, unit_box_1d, INF, quad_1d) + 1e-10


def _fd_mixed(fn, pts, orders, h):
    """Tensor finite-difference oracle (4th order) for mixed derivatives."""
    stencils = {
        1: (np.array([1.0, -8.0, 8.0, -1.0]) / 12.0, np.array([-2, -1, 1, 2])),
        2: (np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0,
            np.array([-2, -1, 0, 1, 2])),
        3: (np.array([1.0, -8.0, 13.0, 0.0, -13.0, 8.0, -1.0]) / 8.0,
            np.array([-3, -2, -1, 0, 1, 2, 3])),
    }
    total = np.zeros(pts.shape[0])
    axes = [i for i, m in enumerate(orders) if m > 0]
    combos = [[(c, o) for c, o in zip(*stencils[orders[i]])] for i in axes]
    import itertools

    for picks in itertools.product(*combos):
        coeff = 1.0
        shifted = pts.copy()
        for axis, (c, o) in zip(axes, picks):
            coeff *= c / h ** orders[axis]
            shifted[:, axis] += o * h
        total += coeff * fn(shifted)
    return total


class TestSmoothedDerivative:
    def test_square_second_derivative_exact(self, unit_box_1d):
        f = lambda q: q[:, 0] ** 2
        gd = smoothed_derivative(f, (2,), (0.05,), (0,), unit_box_1d)
        pts = np.array([[0.2], [0.5], [0.7]])
        assert np.max(np.abs(gd(pts) - 2.0)) < 1e-11

    def test_polynomial_full_derivative_vanishes(self):
        # the stencil scale prod t_i^(-r_i) amplifies the annihilation
        # roundoff, so "zero" means zero at the conditioning level; a wider
        # box permits larger scales and keeps the amplification mild
        box = Parallelepiped([0.0, 0.0], [4.0, 4.0])
        f2 = get_function("poly_d2_deg32")
        t = (1.0 / 16.0, 1.0 / 9.0)
        gd2 = smoothed_derivative(f2, (4, 3), t, (0, 1), box)
        pts = np.array([[0.2, 0.3], [1.5, 2.5]])
        scale = float(np.max(np.abs(f2(np.array([[4.0, 4.0], [0.0, 4.0]])))))
        assert np.max(np.abs(gd2(pts))) < 1e-8 * scale

    @pytest.mark.parametrize("fid,r,e,h", [
        ("exp_d1", (2,), (0,), 0.01),
        ("sin_d1", (3,), (0,), 0.015),
        ("exp_d2", (2, 2), (0, 1), 0.01),
        ("runge_d2", (2, 2), (0, 1), 0.005),
        ("sinprod_d2", (3, 3), (0,), 0.015),
        ("sinprod_d2", (3, 3), (1,), 0.015),
    ])
    def test_matches_finite_difference_oracle(self, fid, r, e, h):
        f = get_function(fid)
        d = f.dimension
        box = Parallelepiped([0.0] * d, [1.0] * d)
        t = tuple(1.0 / (4 * ri * ri) for ri in r)
        g = smooth_mixed(f, r, t, box)
        gd = smoothed_derivative(f, r, t, e, box)
        pts = np.stack(
            [np.linspace(0.25, 0.6, 10)] * d, axis=1) if d > 1 else \
            np.linspace(0.25, 0.6, 10).reshape(-1, 1)
        orders = tuple(r[i] if i in e else 0 for i in range(d))
        fd = _fd_mixed(g, pts, orders, h)
        got = gd(pts)
        scale = np.max(np.abs(got))
        assert np.max(np.abs(fd - got)) / scale < 1e-5

    def test_mixed_full_order_matches_separable_fd_oracle(self):
        # a direct finite difference of the fully mixed (3,3) derivative sits
        # at the float64 conditioning floor of mixed difference quotients, so
        # the oracle differentiates the univariate smoothed factors instead
        # (the test function is a tensor product) and multiplies them; the
        # wider box keeps the tested stencil itself well conditioned
        box1 = Parallelepiped([0.0], [4.0])
        box2 = Parallelepiped([0.0, 0.0], [4.0, 4.0])
        f = get_function("sinprod_d2")
        s1 = lambda q: np.sin(1.5 * q[:, 0] + 0.3)
        s2 = lambda q: np.sin(2.0 * q[:, 0] + 0.7)
        t = 1.0 / 9.0
        gd = smoothed_derivative(f, (3, 3), (t, t), (0, 1), box2)
        g1 = smooth_mixed(s1, (3,), (t,), box1)
        g2 = smooth_mixed(s2, (3,), (t,), box1)
        pts = np.stack([np.linspace(0.5, 2.4, 10)] * 2, axis=1)
        fd1 = _fd_mixed(g1, pts[:, :1], (3,), 0.02)
        fd2 = _fd_mixed(g2, pts[:, 1:], (3,), 0.02)
        got = gd(pts)
        scale = np.max(np.abs(got))
        assert np.max(np.abs(fd1 * fd2 - got)) / scale < 1e-5

    def test_zero_scale_on_active_axis_rejected(self, unit_box_1d):
        with pytest.raises(DomainValidityError):
            smoothed_derivative(get_function("exp_d1"), (2,), (0.0,),
                                (0,), unit_box_1d)

    def test_empty_subset_rejected(self, unit_box_1d):
        with pytest.raises(ValueError):
            smoothed_derivative(get_function("exp_d1"), (2,), (0.01,),
                                (), unit_box_1d)

    @pytest.mark.parametrize("build", [
        lambda f, box: smooth_mixed(f, (2, 0), (0.01, 0.01), box),
        lambda f, box: smoothed_derivative(f, (0, 2), (0.01, 0.01), (1,), box),
    ], ids=["smooth_mixed", "smoothed_derivative"])
    def test_order_below_one_rejected(self, unit_box_2d, build):
        # an order entry of 0 used to divide by zero in the validity rule
        with pytest.raises(ValueError, match="smoother orders must be >= 1"):
            build(get_function("exp_d2"), unit_box_2d)


class TestSubdivision:
    def test_d1_quarter_point_geometry(self, unit_box_1d):
        boxes = subdivision_boxes(unit_box_1d)
        assert boxes[(0,)] == Parallelepiped([0.0], [0.75])
        assert boxes[()] == Parallelepiped([0.25], [1.0])

    def test_d2_four_boxes_cover(self, unit_box_2d):
        boxes = subdivision_boxes(unit_box_2d)
        assert len(boxes) == 4
        assert boxes[(0, 1)] == Parallelepiped([0.0, 0.0], [0.75, 0.75])
        assert boxes[()] == Parallelepiped([0.25, 0.25], [1.0, 1.0])

    @staticmethod
    def _ratio(fid, p, h_grid, box):
        # the harness's johnen row is the one definition of the subdivision ratio
        cfg = ExperimentConfig((fid,), ((2,),), (p,), box,
                               resolutions=Resolutions(h_grid=h_grid))
        pairs, _ = _johnen_task(cfg, get_function(fid), (2,), p, box, (0.01,))
        return dict(pairs)["ratio_subdivision"]

    def test_polynomial_not_applicable(self, unit_box_1d):
        # the upper bracket and the subbox sum both vanish on a polynomial
        assert math.isnan(self._ratio("poly_d1_deg1", INF, 9, unit_box_1d))

    def test_smooth_case_reports_finite_ratio(self, unit_box_1d, quad_1d):
        ratio = self._ratio("runge_d1", 2.0, 17, unit_box_1d)
        assert np.isfinite(ratio) and ratio > 0
        br = k_functional_bracket(get_function("runge_d1"), (2,), (0.01,), 2.0,
                                  unit_box_1d, quad=quad_1d, h_grid=17)
        assert set(br.details["subdomain_uppers"]) == {(), (0,)}


class TestKBracket:
    def test_zero_function_gives_zero_bracket(self, unit_box_1d, quad_1d):
        from whitney_lab.functions import tensor_polynomial_spec

        zero = tensor_polynomial_spec("zero", [[0.0]])
        br = k_functional_bracket(zero, (1,), (0.1,), INF, unit_box_1d,
                                  quad=quad_1d, h_grid=9)
        assert br.lower == 0.0 and br.upper == 0.0

    def test_upper_bounded_by_function_norm(self, unit_box_1d, quad_1d):
        f = get_function("abspow_d1")
        br = k_functional_bracket(f, (1,), (0.05,), 2.0, unit_box_1d,
                                  quad=quad_1d, h_grid=9)
        assert br.upper <= lp_norm(f, unit_box_1d, 2.0, quad_1d) + 1e-12

    def test_d1_linear_hand_bracket(self, unit_box_1d, quad_1d):
        # t = 1 > validity scale: candidate family reduces to direct members;
        # lower = omega / (1 + 2) = 1/3 and g = f gives the value 1
        f = get_function("poly_d1_deg1")
        br = k_functional_bracket(f, (1,), (1.0,), INF, unit_box_1d,
                                  quad=quad_1d, h_grid=33)
        assert br.lower == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert br.details["candidates"]["identity"] == pytest.approx(1.0, abs=1e-10)
        assert 1.0 / 3.0 - 1e-12 <= br.upper <= 1.0 + 1e-10

    def test_bracket_consistency_enforced(self):
        with pytest.raises(BracketViolation):
            KBracket(lower=1.0, upper=0.5, witness="bogus")

    def test_inversion_floor_scales_with_the_norm(self):
        # an inversion far below the old absolute 1e-12 is real when ||f|| is 1e-13
        with pytest.raises(BracketViolation):
            KBracket(lower=1e-14, upper=0.0, witness="zero", norm=1e-13)
        # round-off of a modulus at ||f|| = 5e5 exceeds 1e-12 but not 1e-12 ||f||
        KBracket(lower=4.7e-11, upper=0.0, witness="zero", norm=5e5)

    @pytest.mark.parametrize("scale", [1e6, 1e-15])
    @pytest.mark.parametrize("p", [1.0, 2.0, INF])
    def test_linear_function_at_any_scale(self, unit_box_1d, scale, p):
        # the modulus of s x is round-off and the upper bracket is 0; at s = 1e6
        # that round-off used to raise a false BracketViolation
        from whitney_lab.functions import tensor_polynomial_spec

        f = tensor_polynomial_spec("lin", [[0.0, scale]])
        br = k_functional_bracket(f, (2,), (0.01,), p, unit_box_1d)
        assert br.norm == br.details["candidates"]["zero"] > 0.0
        assert br.lower <= br.upper * (1 + 1e-9) + 1e-12 * br.norm

    def test_invalid_t_rejected(self, unit_box_1d, quad_1d):
        with pytest.raises(ValueError):
            k_functional_bracket(get_function("exp_d1"), (1,), (0.0,), 2.0,
                                 unit_box_1d, quad=quad_1d)

    def test_resolutions_are_keyword_only(self, unit_box_1d, quad_1d):
        with pytest.raises(TypeError):
            k_functional_bracket(get_function("exp_d1"), (1,), (0.01,), 2.0,
                                 unit_box_1d, quad_1d)

    @pytest.mark.parametrize("fid,p", [("exp_d1", INF), ("runge_d1", 2.0),
                                       ("abspow_d1", 1.0)])
    def test_lower_le_upper_across_scales(self, unit_box_1d, quad_1d, fid, p):
        f = get_function(fid)
        for s in np.logspace(-2, 0, 6):
            t = s / 16.0  # inside the validity range for r = 2
            br = k_functional_bracket(f, (2,), (t,), p, unit_box_1d, quad=quad_1d, h_grid=17,
                                      panel_nodes=12)
            assert br.lower <= br.upper * (1 + 1e-9) + 1e-12

    def test_smoother_candidate_wins_at_small_scale(self, unit_box_1d, quad_1d):
        f = get_function("abspow_d1")  # no identity/taylor candidates here
        br = k_functional_bracket(f, (1,), (0.002,), 2.0, unit_box_1d, quad=quad_1d, h_grid=17,
                                  panel_nodes=12)
        assert br.witness == "smoother_subdivision"
        assert "subdomain_uppers" in br.details


class TestDirectionalUpper:
    """The bracket's signed smoother builds its validity box and stencils once
    per sigma, and each of its terms has the bits of the public reference path
    (:func:`smooth_mixed` and :func:`smoothed_derivative`)."""

    CASES = {  # the last case measures ||f - A_t f|| on the grid, not from the factors
        "runge_d1": (get_function("runge_d1"), (2,), Parallelepiped([0.0], [1.0])),
        "sinprod_d2": (get_function("sinprod_d2"), (2, 3), Parallelepiped([0.0, 0.1], [1.0, 0.9])),
        "runge_d2_grid": (dataclasses.replace(get_function("runge_d2"), factors=None), (2, 2),
                          Parallelepiped([-0.1, 0.0], [0.9, 1.2])),
    }

    CFG = dict(quad=QuadratureSpec(8, 9), h_grid=5, panel_nodes=4)

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("p", [1.0, 2.0, INF])
    @pytest.mark.parametrize("at_bound", [False, True])
    def test_terms_match_the_reference_path(self, case, p, at_bound):
        f, r, box = self.CASES[case]
        quad, panel_nodes = self.CFG["quad"], self.CFG["panel_nodes"]
        bound = [(b - a) / (4.0 * k * k) for (a, b), k in
                 zip(map(box.axis_interval, range(box.dim)), r)]
        t = bound if at_bound else [0.3 * tb for tb in bound]
        for sigma in itertools.product((1, -1), repeat=box.dim):
            value, f_minus_g, deriv_terms = smoother._directional_upper(
                f, r, t, sigma, p, box, quad, panel_nodes)
            signed = [s * ti for s, ti in zip(sigma, t)]
            g = smooth_mixed(f, r, signed, box, panel_nodes)
            expect = _smoothed_lp_norm(g.ops, f, p, tensor_quadrature(g.domain, quad, p),
                                       subtract_base=True)
            assert repr(f_minus_g) == repr(expect)
            for e in subsets(box.dim):
                gd = smoothed_derivative(f, r, signed, e, box, panel_nodes)
                weight = float(np.prod([t[i] ** r[i] for i in e]))
                term = weight * _smoothed_lp_norm(gd.ops, f, p,
                                                  tensor_quadrature(gd.domain, quad, p))
                assert repr(deriv_terms[e]) == repr(term)
                expect += term
            assert repr(value) == repr(expect)

    @pytest.mark.parametrize("name", ["_signed_ops_and_domain", "box_rule"])
    def test_stencils_and_grid_are_built_once_per_sigma(self, monkeypatch, name):
        calls = []
        build = getattr(smoother, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(smoother, name, counted)
        f, r, box = self.CASES["sinprod_d2"]
        br = k_functional_bracket(f, r, (0.01, 0.01), 2.0, box, **self.CFG)
        assert "subdomain_uppers" in br.details
        # box_rule also builds the grid of each box candidate, once per box
        boxes = smoother._box_values.cache_info().misses if name == "box_rule" else 0
        assert len(calls) - boxes == 4  # one per sigma, not one per sigma and subset


class TestBoxNormCache:
    """The t-independent arrays of the box candidates are memoized per
    ``(f, r, box, quad, rule, nodes)``; a sweep on a warm memo gives the cold bits."""

    CFG = dict(quad=QuadratureSpec(8, 9), h_grid=5, panel_nodes=4)
    BOX = Parallelepiped([0.0, 0.1], [1.0, 0.9])

    def _sweep(self, f, steps, p, clear_memos):
        clear_memos()
        warm = [k_functional_bracket(f, (2, 2), t, p, self.BOX, **self.CFG) for t in steps]
        info = smoother._box_values.cache_info()
        for t, result in zip(steps, warm):
            clear_memos()
            cold = k_functional_bracket(f, (2, 2), t, p, self.BOX, **self.CFG)
            assert repr(result) == repr(cold)  # repr spells every float's bits
        return info.hits, info.misses

    @pytest.mark.parametrize("fid", ["sinprod_d2", "abspow_d2"])
    @pytest.mark.parametrize("p", [1.0, 2.0, INF])
    def test_warm_bracket_sweep_keeps_the_bits(self, fid, p, cold_memos):
        steps = [(0.06, 0.04), (0.03, 0.02), (0.015, 0.01)]  # smoother range: (1/16, 1/20)
        hits, misses = self._sweep(get_function(fid), steps, p, cold_memos)
        assert (hits, misses) == (10, 5)


class TestSharedAcrossP:
    """A p = 2 bracket right after the p = 1 bracket of the same
    ``(f, r, t, box)`` reads the Gauss-grid arrays the p = 1 bracket left in
    the memos: its box candidates and smoother terms evaluate no base value."""

    CFG = dict(quad=QuadratureSpec(8, 9), h_grid=5, panel_nodes=4)
    BOX = Parallelepiped([0.0, 0.1], [1.0, 0.9])

    def _counted(self, f, monkeypatch):
        """f with every evaluator counted, except inside the moduli."""
        calls, inside = [], []

        def counted(name, fn):
            def wrapper(*args):
                if not inside:
                    calls.append(name)
                return fn(*args)
            return wrapper

        def moduli(*args, **kwargs):
            inside.append(None)
            try:
                return modulus(*args, **kwargs)
            finally:
                inside.pop()

        modulus = smoother.modulus
        monkeypatch.setattr(smoother, "modulus", moduli)
        return dataclasses.replace(
            f, grid_evaluator=counted("values", f.grid_evaluator),
            derivative_evaluator=counted("derivatives", f.derivative_evaluator),
            factors=tuple(counted("factor", fac) for fac in f.factors)), calls

    @pytest.mark.parametrize("fid", ["sinprod_d2", "runge_d2"])
    def test_p2_bracket_evaluates_no_base_values(self, fid, monkeypatch):
        f, calls = self._counted(get_function(fid), monkeypatch)
        t = (0.03, 0.02)  # in the smoother range (1/16, 1/20)
        first = k_functional_bracket(f, (2, 2), t, 1.0, self.BOX, **self.CFG)
        assert "smoother_subdivision" in first.details["candidates"]
        assert {"values", "derivatives", "factor"} <= set(calls)
        calls.clear()
        k_functional_bracket(f, (2, 2), t, 2.0, self.BOX, **self.CFG)
        assert calls == []
        k_functional_bracket(f, (2, 2), t, INF, self.BOX, **self.CFG)
        assert "values" in calls  # the sup grid has arrays of its own

    def test_p_values_back_to_back_keep_the_bits(self, cold_memos):
        f, t = get_function("abspow_d2"), (0.03, 0.02)
        warm = [k_functional_bracket(f, (2, 2), t, p, self.BOX, **self.CFG)
                for p in (1.0, 2.0, INF)]
        for p, result in zip((1.0, 2.0, INF), warm):
            cold_memos()
            cold = k_functional_bracket(f, (2, 2), t, p, self.BOX, **self.CFG)
            assert repr(result) == repr(cold)

    def test_memoized_arrays_are_read_only(self):
        f, r, t = get_function("sinprod_d2"), (2, 2), (0.03, 0.02)
        quad = self.CFG["quad"]
        k_functional_bracket(f, r, t, 2.0, self.BOX, **self.CFG)
        grid = quad.rule_for(2.0, len(r))
        wts, vals, derivs, polys = smoother._box_values(f, r, self.BOX, quad, *grid)
        wts_s, fg, terms = smoother._signed_values(f, r, t, self.BOX, quad, 4, *grid)
        for arr in (wts, vals, *derivs, *(res for _, res in polys), wts_s, fg, *terms):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
        assert smoother._box_values.cache_info().misses == 5  # the box and its 4 subboxes
        assert smoother._signed_values.cache_info().misses == 4  # one per sigma

