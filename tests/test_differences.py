import itertools
import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from whitney_lab import differences
from whitney_lab.differences import (
    DEFAULT_MEAN_NODES,
    mixed_difference,
    modulus,
    p_mean_modulus,
    total_modulus,
    total_p_mean_modulus,
    whitney_constant_sum,
)
from whitney_lab.functions import FunctionSpec, get_function, tensor_polynomial_spec
from whitney_lab.geometry import (
    GAUSS,
    Parallelepiped,
    QuadratureSpec,
    axis_rule,
    lp_norm,
    project,
    shifted_domain,
    subsets,
)
from whitney_lab.polyapprox import TensorPolynomial

INF = math.inf
X2 = lambda p: p[:, 0] ** 2


def _closed_form_norm(fid, i, r, h, a, b):
    """``int_a^(b - r h) (Delta^r_h f_i)^2 dx`` for axis ``i`` of ``exp_d2``
    (``f_i = e^x``) or ``sinprod_d2``, 0 on an empty interval."""
    upper = b - r * h
    if upper < a:
        return 0.0
    if fid == "exp_d2":
        return np.expm1(h) ** (2 * r) * (np.exp(2 * upper) - np.exp(2 * a)) / 2
    # Delta^r_h sin(w x + ph) = (2 sin(w h / 2))^r sin(w x + ph + r (w h + pi) / 2)
    w, ph = (1.5, 2.0)[i], (0.3, 0.7)[i]
    psi = ph + r * (w * h + np.pi) / 2
    prim = lambda x: x / 2 - np.sin(2 * (w * x + psi)) / (4 * w)  # noqa: E731
    return (2 * np.sin(w * h / 2)) ** (2 * r) * (prim(upper) - prim(a))


class TestMixedDifference:
    def test_first_order_two_point(self):
        got = mixed_difference(X2, (1,), (0.5,), [[0.0]])
        assert float(got[0]) == pytest.approx(0.25)

    def test_second_difference_of_square(self):
        # three-term sum: f(2) - 2 f(1) + f(0) = 4 - 2 = 2
        got = mixed_difference(X2, (2,), (1.0,), [[0.0]])
        assert float(got[0]) == pytest.approx(2.0)

    def test_mixed_bilinear_gives_h1_h2(self):
        f = get_function("poly_d2_deg11")
        for h in [(0.2, 0.3), (0.5, 0.1)]:
            for x in ([0.0, 0.0], [0.1, 0.4]):
                got = mixed_difference(f, (1, 1), h, [x])
                assert float(got[0]) == pytest.approx(h[0] * h[1], rel=1e-12)

    def test_annihilates_polynomial_class(self):
        f = get_function("poly_d2_deg32")  # degrees (3, 2)
        pts = np.random.default_rng(0).uniform(0, 0.2, size=(8, 2))
        got = mixed_difference(f, (4, 3), (0.1, 0.15), pts)
        assert np.max(np.abs(got)) < 1e-12

    def test_inactive_axes_ignore_step(self):
        f = get_function("exp_d2")
        x = np.array([[0.2, 0.3]])
        a = mixed_difference(f, (2, 0), (0.1, 99.0), x)
        b = mixed_difference(f, (2, 0), (0.1, 0.0), x)
        assert float(a[0]) == float(b[0])


class TestModulus:
    def test_polynomial_annihilation(self, unit_box_1d, quad_1d):
        f = get_function("poly_d1_deg1")
        assert modulus(f, (2,), (1.0,), INF, unit_box_1d, quad=quad_1d, h_grid=17) < 1e-12

    def test_linear_sup_modulus_reaches_one(self, unit_box_1d, quad_1d):
        # at h = 1 the shifted domain is the single point {0} where the
        # difference still equals 1
        f = get_function("poly_d1_deg1")
        got = modulus(f, (1,), (1.0,), INF, unit_box_1d, quad=quad_1d, h_grid=33)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_linear_l1_modulus_quarter(self, unit_box_1d, quad_1d):
        # ||h||_{1,[0,1-h]} = h (1 - h), maximized at h = 1/2
        f = get_function("poly_d1_deg1")
        got = modulus(f, (1,), (1.0,), 1.0, unit_box_1d, quad=quad_1d, h_grid=33)
        assert got == pytest.approx(0.25, abs=1e-10)

    def test_empty_subset_rejected(self, unit_box_1d, unit_box_2d, quad_1d):
        # an order with no positive entry has no subset; it used to give 0.0 silently
        with pytest.raises(ValueError, match="positive entry"):
            modulus(get_function("poly_d1_deg1"), (0,), (1.0,), INF, unit_box_1d,
                    quad=quad_1d, h_grid=9)
        with pytest.raises(ValueError, match="positive entry"):
            modulus(get_function("exp_d2"), (0, 0), (1.0, 1.0), INF, unit_box_2d)

    def test_h_grid_below_two_rejected(self, unit_box_1d, quad_1d):
        with pytest.raises(ValueError, match="h_grid"):
            modulus(get_function("exp_d1"), (1,), (1.0,), INF, unit_box_1d,
                    quad=quad_1d, h_grid=1)

    def test_step_bound_clamped_to_box(self, unit_box_1d, quad_1d, caplog):
        f = get_function("poly_d1_deg1")
        with caplog.at_level(logging.INFO, logger="whitney_lab.differences"):
            got = modulus(f, (1,), (7.0,), INF, unit_box_1d, quad=quad_1d, h_grid=9)
        assert "clamping modulus step bound (7.0,) to box size (1.0,)" in caplog.text
        assert got == modulus(f, (1,), (1.0,), INF, unit_box_1d, quad=quad_1d, h_grid=9)

    @pytest.mark.parametrize("e", [(0,), (1,), (0, 1)])
    @pytest.mark.parametrize("p", [1.0, INF])
    def test_zero_step_is_never_evaluated(self, unit_box_2d, quad_2d_fast, e, p):
        # a difference with h_i = 0 on an active axis is 0: at steps small enough
        # that no shifted box is empty, f sees the (h_grid - 1)^|e| positive
        # steps, each on its T difference terms times the reference grid
        f, points = get_function("exp_d2"), []

        def counted(pts):
            points.append(len(pts))
            return f(pts)

        r_e, h_grid = project((2, 1), e), 9
        got = modulus(counted, r_e, (0.1, 0.1), p, unit_box_2d, quad=quad_2d_fast,
                      h_grid=h_grid)
        terms = math.prod(ri + 1 for ri in r_e)
        n_ref = math.prod(quad_2d_fast.rule_for(p, 2)[1])
        assert sum(points) == (h_grid - 1) ** len(e) * terms * n_ref
        assert got > 0.0
        # an active step bound of 0 leaves nothing to search, and f is not called
        points.clear()
        zero = tuple(0.0 if i == e[0] else 0.1 for i in range(2))
        assert modulus(counted, r_e, zero, p, unit_box_2d, quad=quad_2d_fast,
                       h_grid=h_grid) == 0.0
        assert points == []

    @pytest.mark.parametrize("p", [1.0, INF])
    def test_factors_prune_the_step_search(self, unit_box_2d, quad_2d_fast, p):
        # exp_d2 at r = (3, 3) grows with each step, so its factors leave the
        # grid one or two of the 256 steps; without them the grid measures
        # every step whose shifted box is non-empty
        f, points = get_function("exp_d2"), []

        def counting(coords):
            points.append(math.prod(np.broadcast_shapes(*(np.shape(x) for x in coords))))
            return f.grid_evaluator(coords)

        r, t, h_grid = (3, 3), (0.5, 0.5), 17
        per_step = 16 * math.prod(quad_2d_fast.rule_for(p, 2)[1])
        non_empty = sum(3.0 * h <= 1.0 for h in np.linspace(0.0, 0.5, h_grid)[1:]) ** 2
        pruned = modulus(replace(f, grid_evaluator=counting), r, t, p, unit_box_2d,
                         quad=quad_2d_fast, h_grid=h_grid)
        assert 0 < sum(points) <= 2 * per_step
        points.clear()
        full = modulus(replace(f, grid_evaluator=counting, factors=None), r, t, p, unit_box_2d,
                       quad=quad_2d_fast, h_grid=h_grid)
        assert non_empty == 100 and sum(points) == non_empty * per_step
        assert repr(pruned) == repr(full)

    def test_resolutions_are_keyword_only(self, unit_box_1d, quad_1d):
        # the old positional order put h_grid before quad for total_modulus and
        # after it for total_p_mean_modulus
        f = get_function("exp_d1")
        with pytest.raises(TypeError):
            total_modulus(f, (1,), (0.5,), INF, unit_box_1d, 33, quad_1d)
        with pytest.raises(TypeError):
            total_p_mean_modulus(f, (1,), (0.5,), 2.0, unit_box_1d, quad_1d, 16, 33)
        with pytest.raises(TypeError):
            modulus(f, (1,), (0.5,), INF, unit_box_1d, quad_1d)
        with pytest.raises(TypeError):
            p_mean_modulus(f, (1,), (0.5,), 2.0, unit_box_1d, quad_1d)

    def test_signed_step_search_matches_nonnegative_grid(self, quad_2d_fast):
        # brute force over every sign pattern; the change of variables makes
        # the non-negative restriction lossless
        box = Parallelepiped([0.0, 0.0], [1.0, 1.0])
        t = (0.4, 0.3)
        for fid, e, r, p in [
            ("exp_d2", [0], (2, 1), 1.0),
            ("sinprod_d2", [0, 1], (1, 2), INF),
            ("abspow_d2", [1], (2, 2), 1.0),
        ]:
            f = get_function(fid)
            r_e = project(r, e)
            got = modulus(f, r_e, t, p, box, quad=quad_2d_fast, h_grid=5)
            active = [i for i in range(2) if r_e[i] > 0]
            best = 0.0
            grids = [np.linspace(0, t[i], 5) for i in active]
            for signs in itertools.product([1, -1], repeat=len(active)):
                for combo in itertools.product(*grids):
                    h = np.zeros(2)
                    for i, s, hi in zip(active, signs, combo):
                        h[i] = s * hi
                    dom = shifted_domain(box, np.asarray(r_e) * h)
                    if dom is None:
                        continue
                    val = lp_norm(lambda q: mixed_difference(f, r_e, h, q),
                                  dom, p, quad_2d_fast)
                    best = max(best, val)
            assert got == pytest.approx(best, rel=1e-10, abs=1e-12)


class TestTotalModulus:
    def test_polynomial_gives_zero(self, unit_box_2d, quad_2d_fast):
        f = get_function("poly_d2_deg11")
        got = total_modulus(f, (2, 2), (1.0, 1.0), INF, unit_box_2d, quad=quad_2d_fast,
                            h_grid=9)
        assert got < 1e-12

    def test_d1_total_is_single_term(self, unit_box_1d, quad_1d):
        f = get_function("exp_d1")
        total = total_modulus(f, (2,), (0.5,), 2.0, unit_box_1d, quad=quad_1d, h_grid=17)
        single = modulus(f, (2,), (0.5,), 2.0, unit_box_1d, quad=quad_1d, h_grid=17)
        assert total == single

    def test_bilinear_total_is_three(self, unit_box_2d, quad_2d):
        f = get_function("poly_d2_deg11")
        got = total_modulus(f, (1, 1), (1.0, 1.0), INF, unit_box_2d, quad=quad_2d, h_grid=17)
        assert got == pytest.approx(3.0, abs=1e-10)

    def test_monotone_in_t(self, unit_box_1d, quad_1d):
        # the step-grid discretization of the sup can dip by a grid-resolution
        # amount when the maximizer is interior, so allow a small relative slack
        f = get_function("runge_d1")
        values = [total_modulus(f, (2,), (t,), 2.0, unit_box_1d, quad=quad_1d, h_grid=17)
                  for t in (0.1, 0.2, 0.4, 0.8, 1.0)]
        assert all(a <= b * 1.02 + 1e-12 for a, b in zip(values, values[1:]))
        # at sup-norm the exp maximizer sits at the endpoint step, which every
        # grid contains, so there the discretized sup is exactly monotone
        exact = [total_modulus(get_function("exp_d1"), (1,), (t,), INF,
                               unit_box_1d, quad=quad_1d, h_grid=17)
                 for t in (0.1, 0.2, 0.4, 0.8, 1.0)]
        assert all(a <= b + 1e-12 for a, b in zip(exact, exact[1:]))

    def test_bounded_by_difference_sum(self, unit_box_1d, quad_1d):
        f = get_function("sin_d1")
        r = (3,)
        got = modulus(f, r, (1.0,), INF, unit_box_1d, quad=quad_1d, h_grid=17)
        bound = 2.0 ** 3 * lp_norm(f, unit_box_1d, INF, quad_1d)
        assert got <= bound + 1e-10

    def test_subadditive_and_homogeneous(self, unit_box_1d, quad_1d):
        f = get_function("exp_d1")
        g = get_function("sin_d1")

        def omega(spec):
            return modulus(spec, (2,), (0.7,), INF, unit_box_1d, quad=quad_1d, h_grid=17)

        both = omega(lambda q: f(q) + g(q))
        assert both <= omega(f) + omega(g) + 1e-10
        c = -3.7
        scaled = omega(lambda q: c * f(q))
        assert scaled == pytest.approx(abs(c) * omega(f), rel=1e-10)

    def test_adding_polynomial_leaves_modulus_unchanged(self, unit_box_1d, quad_1d):
        f = get_function("runge_d1")
        phi = tensor_polynomial_spec("shift", [[5.0, -2.0, 3.0]])  # degree 2 < r = 3
        base = modulus(f, (3,), (0.6,), 2.0, unit_box_1d, quad=quad_1d, h_grid=17)
        shifted = modulus(lambda q: f(q) + phi(q), (3,), (0.6,), 2.0, unit_box_1d,
                          quad=quad_1d, h_grid=17)
        assert shifted == pytest.approx(base, rel=1e-8)


class TestSharedAxisPasses:
    """The 1-D passes of the pruned step search are memoized: one active pass
    per axis serves every subset of a total, and one Gauss pass both p = 1
    and p = 2; only the reduction to each step's norm runs per call.  The
    grid path keeps nothing, so each p gives the bits of a call on cold memos."""

    QUAD = QuadratureSpec(8, 9)

    @staticmethod
    def _counted_factors(f):
        calls = []  # (axis, points per step of the 1-D difference)
        factors = tuple(lambda x, i=i, fac=fac: calls.append((i, x.shape[1])) or fac(x)
                        for i, fac in enumerate(f.factors))
        return replace(f, factors=factors), calls

    @staticmethod
    def _counted(fid):
        f, points = get_function(fid), []

        def counting(coords):
            points.append(math.prod(np.broadcast_shapes(*(np.shape(x) for x in coords))))
            return f.grid_evaluator(coords)

        return replace(f, grid_evaluator=counting), points

    def test_total_modulus_runs_each_active_pass_once(self, unit_box_2d, quad_2d_fast):
        f, calls = self._counted_factors(get_function("exp_d2"))
        total_modulus(f, (2, 3), (0.3, 0.2), 1.0, unit_box_2d, quad=quad_2d_fast, h_grid=9)
        active = [axis for axis, width in calls if width > 1]
        assert sorted(active) == [0, 1]  # not once per subset: (i,) and (0, 1)

    def test_p2_reuses_the_gauss_passes_of_p1(self, unit_box_2d, quad_2d_fast):
        f, calls = self._counted_factors(get_function("sinprod_d2"))
        args = (f, (2, 2), (0.3, 0.2))
        kw = dict(quad=quad_2d_fast, h_grid=9)
        total_modulus(*args, 1.0, unit_box_2d, **kw)
        assert calls
        calls.clear()
        assert total_modulus(*args, 2.0, unit_box_2d, **kw) > 0.0
        assert calls == []
        total_modulus(*args, INF, unit_box_2d, **kw)
        assert calls  # the sup grid has passes of its own

    def test_memoized_pass_is_read_only(self, unit_box_2d, quad_2d_fast):
        f = get_function("exp_d2")
        total_modulus(f, (2, 2), (0.3, 0.2), 2.0, unit_box_2d, quad=quad_2d_fast, h_grid=9)
        assert differences._axis_pass.cache_info().currsize > 0
        ok, half, diff, top, length, wts = differences._axis_pass(
            f.factors[0], 2, (0.15, 0.3), "gauss_legendre", 16, 0.0, 1.0)
        for arr in (ok, half, diff, top, length, wts):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0

    def test_p2_p_mean_evaluates_no_values(self):
        # at d = 2 the p-mean evaluates no grid value, and p = 2 reads the 1-D
        # passes of p = 1: per axis its panel pass and its step-0 pass
        r = (2, 1)
        f, points = self._counted("sinprod_d2")
        f, calls = self._counted_factors(f)
        box, t = Parallelepiped([0.0, 0.0], [1.0, 1.0]), (0.3, 0.2)
        kw = dict(quad=self.QUAD, mean_nodes=4)
        for p in (1.0, 2.0):
            points.clear()
            calls.clear()
            for e in subsets(2):
                assert p_mean_modulus(f, project(r, e), t, p, box, **kw) > 0.0
            assert points == []
            if p == 1.0:
                assert sorted(calls) == [(0, 1), (0, r[0] + 1), (1, 1), (1, r[1] + 1)]
            else:
                assert calls == []

    @pytest.mark.parametrize("fid", ["sinprod_d2", "abspow_d2"])
    def test_finite_p_after_p1_keep_the_bits(self, fid, cold_memos):
        f, r, t = get_function(fid), (2, 3), (0.25, 0.3)
        box = Parallelepiped([-0.2, -0.2], [0.7, 0.7])
        kw = dict(quad=self.QUAD, h_grid=5)

        def values(p):
            return [repr(fn(f, project(r, e), t, p, box, **kw))
                    for e in subsets(2) for fn in (modulus, p_mean_modulus)]

        ps = (1.0, 2.0, 1.5, 3.5)
        warm = [values(p) for p in ps]
        for p, got in zip(ps, warm):
            cold_memos()
            assert got == values(p)

    def test_hit_reduces_to_the_reference_norm(self, unit_box_1d):
        # p = 2 and 3.5 after p = 1 measure |diff|^p: the largest lp_norm of
        # the difference over each shifted box
        f, r, t, h_grid = get_function("runge_d1"), (2,), (0.4,), 5
        modulus(f, r, t, 1.0, unit_box_1d, quad=self.QUAD, h_grid=h_grid)
        for p in (2.0, 3.5):
            got = modulus(f, r, t, p, unit_box_1d, quad=self.QUAD, h_grid=h_grid)
            best = max(lp_norm(lambda q, h=h: mixed_difference(f, r, (h,), q),
                               shifted_domain(unit_box_1d, (2 * h,)), p, self.QUAD)
                       for h in np.linspace(0.0, 0.4, h_grid)[1:])
            assert got == pytest.approx(best, rel=1e-12)

    def test_one_group_fits_the_memo(self, unit_box_2d):
        # the harness runs p = 1, 2, inf of one (f, r, t) back to back, each p
        # a sup-type and a p-mean term per subset; at d = 2 the p-mean reads
        # 1-D passes only, and p = 2 reads those of p = 1
        f, r, t = get_function("sinprod_d2"), (2, 2), (0.3, 0.2)
        kw = dict(quad=self.QUAD, h_grid=9)
        passes = differences._axis_pass
        for p in (1.0, 2.0, INF):
            for e in subsets(2):
                modulus(f, project(r, e), t, p, unit_box_2d, **kw)
                before = passes.cache_info()
                p_mean_modulus(f, project(r, e), t, p, unit_box_2d, mean_nodes=4, **kw)
                if p == 2.0:
                    assert passes.cache_info().misses == before.misses
        # every pass of the group is still held: per axis the Lobatto active and
        # inactive passes, and the Gauss inactive, sup-type and panel passes
        info = passes.cache_info()
        assert info.misses == info.currsize == differences._AXIS_PASS_CACHE

    def test_unhashable_callable_runs_uncached(self, unit_box_2d):
        # a TensorPolynomial holds an array, so it cannot key a memo
        poly = TensorPolynomial(np.array([[1.0, 0.5, 0.1], [0.3, 0.0, 0.2]]), unit_box_2d)
        with pytest.raises(TypeError):
            hash(poly)
        wrapped = lambda q: poly(q)  # noqa: E731 -- the same point list, hashable
        for fn in (total_modulus, total_p_mean_modulus):
            for p in (1.0, 2.0, INF):
                got = fn(poly, (1, 1), (0.4, 0.3), p, unit_box_2d, quad=self.QUAD, h_grid=5)
                assert got > 0.0
                assert repr(got) == repr(fn(wrapped, (1, 1), (0.4, 0.3), p, unit_box_2d,
                                            quad=self.QUAD, h_grid=5))


@pytest.mark.parametrize("fn", [modulus, p_mean_modulus])
@pytest.mark.parametrize("p", [0.5, math.nan, -1.0])
def test_invalid_p_raises_at_a_zero_step_bound(unit_box_2d, fn, p):
    # a zero step bound returns before any norm is measured, so p is checked first
    with pytest.raises(ValueError, match=r"p must lie in \[1, inf\]"):
        fn(get_function("exp_d2"), (1, 1), (0.0, 0.0), p, unit_box_2d)


_BAD_COUNTS = [("h_grid", 9.0), ("h_grid", True), ("h_grid", "9")]


@pytest.mark.parametrize("fn,name,value",
                         [(modulus, *case) for case in _BAD_COUNTS]
                         + [(p_mean_modulus, *case) for case in _BAD_COUNTS]
                         + [(p_mean_modulus, "mean_nodes", v) for v in (12.0, True, 0)])
def test_resolution_counts_must_be_ints(unit_box_1d, quad_1d, fn, name, value):
    # a bool ran a 1-node rule, a float raised numpy's or range()'s TypeError
    f = get_function("exp_d1")
    p = INF if name == "h_grid" else 2.0  # p_mean_modulus reads h_grid at p = inf
    with pytest.raises(ValueError, match=name):
        fn(f, (1,), (0.5,), p, unit_box_1d, quad=quad_1d, **{name: value})
    # a numpy integer is a count
    assert (fn(f, (1,), (0.5,), p, unit_box_1d, quad=quad_1d, **{name: np.int64(9)})
            == fn(f, (1,), (0.5,), p, unit_box_1d, quad=quad_1d, **{name: 9}))


class TestPMeanModulus:
    def test_polynomial_gives_zero(self, unit_box_1d, quad_1d):
        f = get_function("poly_d1_deg1")
        assert p_mean_modulus(f, (2,), (1.0,), 1.0, unit_box_1d, quad=quad_1d) < 1e-12

    def test_linear_l1_closed_form(self, unit_box_1d, quad_1d):
        # (1/t) int_{-1}^{1} int_{Q_h} |h| dx dh = 2 int_0^1 h (1-h) dh = 1/3
        f = get_function("poly_d1_deg1")
        got = p_mean_modulus(f, (1,), (1.0,), 1.0, unit_box_1d, quad=quad_1d)
        assert got == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_p_inf_coincides_with_sup_modulus(self, unit_box_1d, quad_1d):
        f = get_function("runge_d1")
        sup = modulus(f, (2,), (0.5,), INF, unit_box_1d, quad=quad_1d, h_grid=33)
        mean = p_mean_modulus(f, (2,), (0.5,), INF, unit_box_1d, quad=quad_1d, h_grid=33)
        assert mean == sup

    def test_zero_scale_limit_convention(self, unit_box_1d, quad_1d):
        f = get_function("exp_d1")
        assert p_mean_modulus(f, (1,), (0.0,), 2.0, unit_box_1d, quad=quad_1d) == 0.0

    def test_total_p_mean_linear_single_term(self, unit_box_1d, quad_1d):
        f = get_function("poly_d1_deg1")
        got = total_p_mean_modulus(f, (1,), (1.0,), 1.0, unit_box_1d, quad=quad_1d)
        assert got == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_total_p_mean_at_inf_equals_total(self, unit_box_2d, quad_2d_fast):
        f = get_function("sinprod_d2")
        t = (0.5, 0.5)
        a = total_p_mean_modulus(f, (1, 1), t, INF, unit_box_2d, quad=quad_2d_fast,
                                 h_grid=9)
        b = total_modulus(f, (1, 1), t, INF, unit_box_2d, quad=quad_2d_fast, h_grid=9)
        assert a == b

    @pytest.mark.parametrize("fid", ["exp_d2", "sinprod_d2"])
    @pytest.mark.parametrize("r_e", [(2, 2), (3, 3), (1, 2)])
    @pytest.mark.parametrize("t", [0.5, 0.05, 0.005])
    def test_p2_matches_the_closed_form_on_the_step_panel(self, unit_box_2d, fid, r_e, t):
        # W_e^2 = prod_i (2 / t) sum_k w_k N_i(h_k) on the lab's own step panel,
        # with N_i(h) the exact integral of (Delta^r_i_h f_i)^2 over the
        # shifted interval.  A 1-D difference rounds by about (r_i + 2) u
        # 2^r_i max|f_i| against a size of h^r_i |f_i| (e^x) or, in the mean,
        # (omega_i h)^r_i (the sines, omega_i >= 1.5).  Weighted by
        # N_i ~ h^(2 r_i) over the panel, that moves W by about
        # (r_i + 2)(2 r_i + 1) e^(r_i t) / (2 (r_i + 1)) eps (2 / t)^r_i,
        # below 20 eps (2 / t)^r_i here; 64 leaves room for the sines' mean.
        # The grid path's rounding grows like (2 / t)^|r_e| instead.
        x, w = axis_rule(GAUSS, DEFAULT_MEAN_NODES, 0.0, t)
        exact = 1.0
        for i, ri in enumerate(r_e):
            norms = [_closed_form_norm(fid, i, ri, h, 0.0, 1.0) for h in x]
            exact *= 2.0 / t * float(np.dot(w, norms))
        got = p_mean_modulus(get_function(fid), r_e, (t, t), 2.0, unit_box_2d)
        tol = 64 * np.finfo(float).eps * sum((2.0 / t) ** ri for ri in r_e)
        assert got == pytest.approx(math.sqrt(exact), rel=tol, abs=0.0)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_mean_bounded_by_scaled_sup_per_term(self, unit_box_1d, quad_1d, p):
        # the signed step box has measure 2t per active axis while the
        # normalization divides by t, so the sharp termwise bound carries a
        # factor 2^(|e|/p)
        f = get_function("exp_d1")
        mean = p_mean_modulus(f, (1,), (0.8,), p, unit_box_1d, quad=quad_1d)
        sup = modulus(f, (1,), (0.8,), p, unit_box_1d, quad=quad_1d, h_grid=33)
        assert mean <= 2.0 ** (1.0 / p) * sup + 1e-10


class TestNaNNorms:
    # x on [0, 0.9], NaN beyond
    NAN_TAIL = staticmethod(lambda q: np.where(q[:, 0] > 0.9, np.nan, q[:, 0]))

    @pytest.mark.parametrize("p", [1.0, 2.0, INF])
    def test_modulus_raises_naming_the_step(self, unit_box_1d, quad_1d, p):
        # the first step evaluated is t / (h_grid - 1): the zero step is skipped
        with pytest.raises(FloatingPointError, match=r"NaN norm .* at step \(0\.015625,\)"):
            modulus(self.NAN_TAIL, (1,), (0.5,), p, unit_box_1d, quad=quad_1d, h_grid=33)

    @pytest.mark.parametrize("p", [1.0, 2.0, INF])
    def test_p_mean_modulus_raises(self, unit_box_1d, quad_1d, p):
        with pytest.raises(FloatingPointError, match="NaN norm"):
            p_mean_modulus(self.NAN_TAIL, (1,), (0.5,), p, unit_box_1d, quad=quad_1d)

    @pytest.mark.parametrize("fn,p", [(modulus, 1.0), (modulus, INF),
                                      (p_mean_modulus, 1.0), (p_mean_modulus, 2.0)],
                             ids=["1.0", "inf", "p_mean-1.0", "p_mean-2.0"])
    def test_factored_entry_raises_naming_the_plain_step(self, unit_box_2d, quad_2d_fast,
                                                         fn, p):
        # a NaN factor value leaves every step to the grid, which names the
        # first NaN step, as it does without the factors
        tail = lambda x: np.where(x > 0.9, np.nan, np.exp(x))  # noqa: E731
        f = FunctionSpec("nan_tail_d2", 2, (0, 0), lambda c: tail(c[0]) * np.exp(c[1]),
                         factors=(tail, np.exp))
        messages = []
        for g in (f, replace(f, factors=None)):
            with pytest.raises(FloatingPointError, match="NaN norm") as err:
                fn(g, (2, 1), (0.5, 0.5), p, unit_box_2d, quad=quad_2d_fast, h_grid=9)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_nan_outside_every_shifted_box_is_not_seen(self, quad_1d):
        # with h <= 0.1 every node x and x + h of a shifted box lies in [0, 0.9]
        box = Parallelepiped([0.0], [0.9])
        got = modulus(self.NAN_TAIL, (1,), (0.1,), INF, box, quad=quad_1d, h_grid=33)
        assert got == pytest.approx(0.1, rel=1e-12)


# one step per chunk, the default budget, and every step of a grid in one chunk
_BUDGETS = [1, differences._CHUNK_POINTS, 1 << 40]


def _moduli_reprs(f, d, quad, h_grid, mean_nodes):
    box = Parallelepiped([-0.2] * d, [0.7] * d)
    out = []
    for r in [(1,) * d, (2, 3)[:d], (3, 3)[:d]]:
        for t in [(0.05, 0.1)[:d], (0.25, 0.3)[:d], (0.5, 0.8)[:d]]:  # up to empty boxes
            for e in subsets(d):
                for p in (1.0, 2.0, INF):
                    r_e = project(r, e)
                    out.append(repr(modulus(f, r_e, t, p, box, quad=quad, h_grid=h_grid)))
                    out.append(repr(p_mean_modulus(f, r_e, t, p, box, quad=quad, h_grid=h_grid,
                                                   mean_nodes=mean_nodes)))
    return out


@pytest.mark.parametrize("fid,plain", [("exp_d1", False), ("abspow_d1", False),
                                       ("sinprod_d2", False), ("runge_d2", False),
                                       ("abspow_d2", True)])
@pytest.mark.parametrize("nodes", [(5, 7, 5, 3), (24, 33, 9, 6)],
                         ids=["small-grids", "bench-grids"])
def test_chunk_budget_keeps_every_bit(monkeypatch, fid, plain, nodes, cold_memos):
    # each step's difference and reduction are its own, whatever the chunk holds
    f = get_function(fid)
    g = (lambda q: f(q)) if plain else f  # a plain callable gets the point list
    quad_nodes, sup_nodes, h_grid, mean_nodes = nodes
    quad = QuadratureSpec(quad_nodes, sup_nodes)
    results = []
    for budget in _BUDGETS:
        monkeypatch.setattr(differences, "_CHUNK_POINTS", budget)
        cold_memos()  # the budget is not part of the memos' keys
        results.append(_moduli_reprs(g, f.dimension, quad, h_grid, mean_nodes))
    assert results[0] == results[1] == results[2]
    assert any(v != "0.0" for v in results[0])


def test_whitney_constant_sum_values():
    assert whitney_constant_sum((1,)) == 3.0          # 1 + 2
    assert whitney_constant_sum((2,)) == 5.0          # 1 + 4
    assert whitney_constant_sum((1, 1)) == 9.0        # 1 + 2 + 2 + 4
    assert whitney_constant_sum((2, 3)) == 45.0       # (1+4)(1+8)
