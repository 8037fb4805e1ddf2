"""Acceptance suite: one test (or test pair) per acceptance criterion.

Each criterion prints a single [PASS]/[FAIL] line (run pytest with -s to see
them live).  Sweep resolutions are chosen so the whole suite runs at desk
scale; every tolerance asserted here is fixed, not calibrated after the fact.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from whitney_lab.differences import (
    modulus,
    p_mean_modulus,
    total_modulus,
    total_p_mean_modulus,
)
from whitney_lab.functions import corpus, get_function
from whitney_lab.geometry import Parallelepiped, QuadratureSpec, SubsetMask, subsets
from whitney_lab.harness import ExperimentConfig, run_johnen, run_lemma21, run_taylor, run_whitney
from whitney_lab.polyapprox import best_approx, equioscillation_count
from whitney_lab.smoother import k_functional_bracket, smooth_mixed, smooth_univariate, smoothed_derivative

INF = math.inf


def _report(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {criterion}: {detail}", flush=True)
    return ok


def _ids(dim, sobolev_only=False):
    return [f.id for f in corpus()
            if f.dimension == dim and (f.is_sobolev or not sobolev_only)]


def _diag_orders(dim, up_to=3):
    return [[k] * dim for k in range(1, up_to + 1)]


def _full_order_grid(dim, up_to=3):
    if dim == 1:
        return [[k] for k in range(1, up_to + 1)]
    return [[i, j] for i in range(1, up_to + 1) for j in range(1, up_to + 1)]


# ---------------------------------------------------------------------------
# criterion 1: exact lower bound of the two-sided approximation inequality
# ---------------------------------------------------------------------------

def test_criterion_1_exact_lower_bound():
    start = time.perf_counter()
    violations = []
    for d in (1, 2):
        res = {"h_grid": 17 if d == 1 else 9,
               "quad_nodes": 24 if d == 1 else 20,
               "sup_nodes": 33,
               "minimax_grid": 17 if d == 1 else 13}
        cfg = ExperimentConfig.from_dict({
            "function_ids": _ids(d),
            "orders": _full_order_grid(d, 3),
            "p_values": [1, 2, "inf"],
            "box": {"lower": [0.0] * d, "upper": [1.0] * d},
            "shrink_levels": 4,
            "include_p_mean": False,
            "resolutions": res,
        })
        result = run_whitney(cfg)
        assert not result.hard_failure
        omega = {}
        for row in result.rows:
            key = (row.function_id, row.r, row.p, row.box)
            if row.quantity == "Omega":
                omega[key] = row.value
            elif row.quantity == "margin":
                if not row.value <= 1e-6 * (1.0 + omega[key]):
                    violations.append((key, row.value))
    elapsed = time.perf_counter() - start
    ok = not violations
    assert _report(1, ok, f"margin <= 1e-6(1+Omega) on every row "
                          f"({elapsed:.0f}s single-threaded)"), violations


# ---------------------------------------------------------------------------
# criterion 2: annihilation of the polynomial class
# ---------------------------------------------------------------------------

def test_criterion_2_annihilation():
    cases = [  # (function id, smallest containing class)
        ("poly_d1_deg0", (1,)),
        ("poly_d1_deg1", (2,)),
        ("poly_d1_deg3", (4,)),
        ("poly_d2_deg11", (2, 2)),
        ("poly_d2_deg32", (4, 3)),
    ]
    worst_e, worst_m = 0.0, 0.0
    for fid, r in cases:
        f = get_function(fid)
        assert f.in_poly_class(r)
        d = f.dimension
        box = Parallelepiped.unit(d)
        quad = QuadratureSpec.for_dim(d, 24, 33)
        delta = tuple(box.size())
        for p in (1.0, 2.0, INF):
            _, err = best_approx(f, r, p, box, quad=quad)
            tol = 1e-10 if p == 2.0 else 1e-8
            assert err <= tol, (fid, r, p, err)
            worst_e = max(worst_e, err)
        for p in (1.0, 2.0, INF):
            om = total_modulus(f, r, delta, p, box, quad=quad, h_grid=9)
            w = total_p_mean_modulus(f, r, delta, p, box, quad=quad, h_grid=9, mean_nodes=8)
            assert om <= 1e-10 and w <= 1e-10, (fid, r, p, om, w)
            worst_m = max(worst_m, om, w)
    assert _report(2, True, f"E_r, Omega, W all vanish on the polynomial "
                            f"corpus (worst E {worst_e:.1e}, worst modulus {worst_m:.1e})")


# ---------------------------------------------------------------------------
# criterion 3: analytic oracle cases, each to 1e-4 absolute
# ---------------------------------------------------------------------------

def test_criterion_3_analytic_oracles():
    box1 = Parallelepiped.unit(1)
    quad1 = QuadratureSpec.for_dim(1)
    fx = get_function("poly_d1_deg1")

    _, e_inf = best_approx(fx, (1,), INF, box1, quad=quad1)
    assert e_inf == pytest.approx(0.5, abs=1e-4)

    om = modulus(fx, (1,), (1.0,), INF, box1, quad=quad1, h_grid=33)
    assert om == pytest.approx(1.0, abs=1e-4)

    _, e_l2 = best_approx(fx, (1,), 2.0, box1, quad=quad1)
    assert e_l2 == pytest.approx((1.0 / 12.0) ** 0.5, abs=1e-4)

    w1 = p_mean_modulus(fx, (1,), (1.0,), 1.0, box1, quad=quad1)
    assert w1 == pytest.approx(1.0 / 3.0, abs=1e-4)

    cheb_box = Parallelepiped([-1.0], [1.0])
    sq = lambda q: q[:, 0] ** 2
    poly, e_cheb = best_approx(sq, (2,), INF, cheb_box, quad=quad1)
    assert e_cheb == pytest.approx(0.5, abs=1e-4)
    assert equioscillation_count(lambda q: sq(q) - poly(q), e_cheb, cheb_box) >= 3

    f11 = get_function("poly_d2_deg11")
    om2 = total_modulus(f11, (1, 1), (1.0, 1.0), INF, Parallelepiped.unit(2),
                        quad=QuadratureSpec.for_dim(2, 24, 33), h_grid=17)
    assert om2 == pytest.approx(3.0, abs=1e-4)

    assert _report(3, True, "six analytic oracle values reproduced to 1e-4")


# ---------------------------------------------------------------------------
# criterion 4: smoother correctness
# ---------------------------------------------------------------------------

def test_criterion_4_smoother_correctness():
    # polynomial reproduction, pointwise on the trimmed box
    for fid, r in [("poly_d1_deg0", (1,)), ("poly_d1_deg1", (2,)),
                   ("poly_d1_deg3", (4,)), ("poly_d2_deg11", (2, 2)),
                   ("poly_d2_deg32", (4, 3))]:
        f = get_function(fid)
        d = f.dimension
        box = Parallelepiped.unit(d)
        t = tuple(0.5 / (4 * ri * ri) for ri in r)
        g = smooth_mixed(f, r, t, box)
        axes = [np.linspace(0.0, 0.75, 9)] * d
        pts = np.stack([a.reshape(-1) for a in np.meshgrid(*axes, indexing="ij")],
                       axis=-1)
        assert np.max(np.abs(g(pts) - f(pts))) <= 1e-9, fid

    # derivative identity against finite-difference oracles for r <= (3, 3)
    from test_smoother import _fd_mixed

    checks = [
        ("exp_d1", (1,), (0,), 0.01), ("exp_d1", (2,), (0,), 0.01),
        ("sin_d1", (3,), (0,), 0.015),
        ("exp_d2", (1, 1), (0, 1), 0.01), ("exp_d2", (2, 2), (0, 1), 0.01),
        ("sinprod_d2", (3, 3), (0,), 0.015), ("sinprod_d2", (3, 3), (1,), 0.015),
    ]
    for fid, r, e, h in checks:
        f = get_function(fid)
        d = f.dimension
        box = Parallelepiped.unit(d)
        t = tuple(1.0 / (4 * ri * ri) for ri in r)
        g = smooth_mixed(f, r, t, box)
        gd = smoothed_derivative(f, r, t, SubsetMask(d, e), box)
        pts = (np.stack([np.linspace(0.25, 0.6, 10)] * d, axis=1) if d > 1
               else np.linspace(0.25, 0.6, 10).reshape(-1, 1))
        orders = tuple(r[i] if i in e else 0 for i in range(d))
        fd = _fd_mixed(g, pts, orders, h)
        got = gd(pts)
        rel = np.max(np.abs(fd - got)) / np.max(np.abs(got))
        assert rel < 1e-5, (fid, r, e, rel)

    # the fully mixed (3,3) case: separable finite-difference oracle on a
    # wide box, where the tested stencil itself is well conditioned
    box1 = Parallelepiped([0.0], [4.0])
    box2 = Parallelepiped([0.0, 0.0], [4.0, 4.0])
    s1 = lambda q: np.sin(1.5 * q[:, 0] + 0.3)
    s2 = lambda q: np.sin(2.0 * q[:, 0] + 0.7)
    f = get_function("sinprod_d2")
    t = 1.0 / 9.0
    gd = smoothed_derivative(f, (3, 3), (t, t), SubsetMask.full(2), box2)
    pts = np.stack([np.linspace(0.5, 2.4, 10)] * 2, axis=1)
    fd = (_fd_mixed(smooth_mixed(s1, (3,), (t,), box1), pts[:, :1], (3,), 0.02)
          * _fd_mixed(smooth_mixed(s2, (3,), (t,), box1), pts[:, 1:], (3,), 0.02))
    got = gd(pts)
    assert np.max(np.abs(fd - got)) / np.max(np.abs(got)) < 1e-5

    # first-order closed form: averaging x at scale t adds exactly t/2
    fx = get_function("poly_d1_deg1")
    for t in (0.01, 0.0625):
        g = smooth_univariate(fx, 1, t, 0, Parallelepiped.unit(1))
        xs = np.linspace(0.0, 0.75, 11).reshape(-1, 1)
        assert np.max(np.abs(g(xs) - (xs[:, 0] + t / 2.0))) <= 1e-10

    assert _report(4, True, "reproduction <= 1e-9, derivative identity vs FD "
                            "<= 1e-5 rel, first-order shift exact to 1e-10")


# ---------------------------------------------------------------------------
# criterion 5: K-functional bracket consistency and ratio stability
# ---------------------------------------------------------------------------

def _bracket_sweep(fids, d, orders, cfg, t_factors):
    box = Parallelepiped.unit(d)
    spreads = {}
    for fid in fids:
        f = get_function(fid)
        for r in orders:
            tbar = np.asarray([1.0 / (4.0 * ri * ri) for ri in r])
            for p in (1.0, 2.0, INF):
                ratios = []
                for s in t_factors:
                    t = tuple(s * tbar)
                    br = k_functional_bracket(f, r, t, p, box, **cfg)
                    assert br.lower <= br.upper * (1 + 1e-9) + 1e-12
                    om = br.details["omega_total"]
                    if om > 1e-12:
                        ratios.append(br.upper / om)
                if ratios:
                    spreads[(fid, tuple(r), p)] = max(ratios) / min(ratios)
    return spreads


def test_criterion_5_kfunctional_bracket():
    start = time.perf_counter()
    t_factors = np.logspace(-1, 0, 12)
    spreads = {}

    cfg_d1 = dict(quad=QuadratureSpec.for_dim(1, 32, 129), h_grid=17, panel_nodes=12)
    spreads.update(_bracket_sweep(_ids(1), 1, [(1,), (2,)], cfg_d1, t_factors))

    smooth_ids = [fid for fid in _ids(2) if fid != "abspow_d2"]
    cfg_d2 = dict(quad=QuadratureSpec.for_dim(2, 24, 33), h_grid=9, panel_nodes=10)
    spreads.update(_bracket_sweep(smooth_ids, 2, [(1, 1), (2, 2)], cfg_d2,
                                  t_factors))

    # the kink entries need scale-resolving grids: their difference profiles
    # concentrate on O(t)-wide sets that coarse tensor grids alias
    cfg_kink = dict(quad=QuadratureSpec.for_dim(2, 40, 129), h_grid=9, panel_nodes=8)
    spreads.update(_bracket_sweep(["abspow_d2"], 2, [(1, 1), (2, 2)], cfg_kink,
                                  t_factors))

    worst = max(spreads.values())
    bad = {k: v for k, v in spreads.items() if v > 10.0}
    elapsed = time.perf_counter() - start
    ok = not bad
    assert _report(5, ok, f"lower <= upper everywhere; ratio spread max/min "
                          f"<= 10 per sweep (worst {worst:.2f}, {elapsed:.0f}s)"), bad


# ---------------------------------------------------------------------------
# criterion 6: Taylor-error to bound-sum ratio stability
# ---------------------------------------------------------------------------

def test_criterion_6_taylor_ratio_stability():
    # the eponymous single case first
    box1 = Parallelepiped.unit(1)
    cfg = ExperimentConfig.from_dict({
        "function_ids": ["exp_d1"], "orders": [[2]], "p_values": ["inf"],
        "box": {"lower": [0.0], "upper": [1.0]}, "shrink_levels": 0,
        "resolutions": {"quad_nodes": 24, "sup_nodes": 33},
    })
    rows = run_taylor(cfg).rows
    ratio0 = next(r.value for r in rows if r.quantity == "ratio")
    assert ratio0 == pytest.approx((math.e - 2.0) / math.e, abs=1e-3)

    # stability window: the ratio converges as the box shrinks, so the
    # six-halving window starts past the pre-asymptotic octaves
    window = slice(5, 12)  # halving levels 5..11
    bad = []
    for d in (1, 2):
        cfg = ExperimentConfig.from_dict({
            "function_ids": _ids(d, sobolev_only=True),
            "orders": _diag_orders(d, 3),
            "p_values": [1, 2, "inf"],
            "box": {"lower": [0.0] * d, "upper": [1.0] * d},
            "shrink_levels": 11,
            "resolutions": {"quad_nodes": 24, "sup_nodes": 33},
        })
        groups = {}
        for row in run_taylor(cfg).rows:
            if row.quantity == "ratio":
                key = (row.function_id, row.r, row.p)
                groups.setdefault(key, []).append((row.box.size()[0], row.value))
        for key, vals in groups.items():
            vals.sort(key=lambda v: -v[0])
            seq = [v for _, v in vals][window]
            if any(v != v for v in seq):
                continue  # 0/0 polynomial rows are not applicable
            med = float(np.median(seq))
            if med <= 0:
                continue
            if min(seq) < 0.8 * med or max(seq) > 1.2 * med:
                bad.append((key, min(seq) / med, max(seq) / med))
    ok = not bad
    assert _report(6, ok, "exp ratio (e-2)/e at level 0 to 1e-3; all ratios "
                          "within +-20% of their window median"), bad


# ---------------------------------------------------------------------------
# criterion 7: integrated versus sup-type total moduli
# ---------------------------------------------------------------------------

def _sweep_7(p_values):
    """The criterion-7 sweep: d = 1, 2, the full corpus, r = (k,)*d, t = box size."""
    for d in (1, 2):
        box = Parallelepiped.unit(d)
        quad = QuadratureSpec.for_dim(d, 24 if d == 1 else 20, 33)
        h_grid = 17 if d == 1 else 9
        for fid in _ids(d):
            f = get_function(fid)
            for k in (1, 2):
                r = (k,) * d
                t = tuple(box.size())
                for p in p_values:
                    yield (fid, r, p), f, t, box, quad, h_grid


def _w_omega_pairs(p_values):
    pairs = []
    for (fid, r, p), f, t, box, quad, h_grid in _sweep_7(p_values):
        om = total_modulus(f, r, t, p, box, quad=quad, h_grid=h_grid)
        w = total_p_mean_modulus(f, r, t, p, box, quad=quad, h_grid=h_grid, mean_nodes=8)
        pairs.append(((fid, r, p), w, om))
    return pairs


def test_criterion_7a_integrated_le_sup_as_stated():
    """The integrated modulus is dominated by the sup modulus, termwise:
    w_e <= 2^(|e|/p) * omega_e + 1e-8 for every non-empty e, and hence
    W_r <= 2^(d/p) * Omega_r + 1e-8 for the totals, at p = 1 and 2.

    The factor comes from the normalization that the analytic oracle
    w_1(x, 1) = 1/3 pins down: the step integral over the signed box
    |h_i| <= t_i, of measure prod 2 t_i, is divided by prod t_i only.  Every
    step contributes at most omega_e^p, so w_e^p <= 2^|e| * omega_e^p.  The
    factor is needed and is not slack: f(x) = x gives W = 1/3 > 1/4 = Omega
    at r = (1,), p = 1, so the unscaled statement W_r <= Omega_r is false;
    the test asserts that counterexample too.
    """
    terms, totals, unscaled = [], [], None
    for key, f, t, box, quad, h_grid in _sweep_7([1.0, 2.0]):
        _, r, p = key
        w, om = 0.0, 0.0
        for e in subsets(len(r)):
            w_e = p_mean_modulus(f, e.project(r), t, p, box, quad=quad, h_grid=h_grid,
                                 mean_nodes=8)
            om_e = modulus(f, e.project(r), t, p, box, quad=quad, h_grid=h_grid)
            terms.append((key + (e.sorted_axes(),), w_e,
                          2.0 ** (len(e.axes) / p) * om_e))
            w, om = w + w_e, om + om_e
        totals.append((key, w, 2.0 ** (len(r) / p) * om))
        if key == ("poly_d1_deg1", (1,), 1.0):
            unscaled = (w, om)
    bad = [c for c in terms + totals if not c[1] <= c[2] + 1e-8]
    ratio, worst = max((w_e / bound, key) for key, w_e, bound in terms if bound > 0)
    ok = not bad
    _report("7a", ok, f"w_e <= 2^(|e|/p) omega_e + 1e-8 on {len(terms)} terms, "
                      f"W <= 2^(d/p) Omega + 1e-8 on {len(totals)} totals "
                      f"({len(bad)} violate; worst w_e / (2^(|e|/p) omega_e) "
                      f"= {ratio:.3f} at {worst})")
    assert ok, (f"2^(|e|/p)-scaled domination fails (first three: {bad[:3]}); "
                f"worst term ratio {ratio:.3f} at {worst}")
    # the unscaled W <= Omega is false: f(x) = x gives W = 1/3 > 1/4 = Omega
    assert unscaled is not None
    assert unscaled[0] == pytest.approx(1.0 / 3.0, abs=1e-12), unscaled
    assert unscaled[1] == pytest.approx(0.25, abs=1e-12), unscaled


def test_criterion_7b_sup_limit_coincidence():
    pairs = _w_omega_pairs([INF])
    for key, w, om in pairs:
        assert abs(w - om) <= 1e-6 * (1.0 + om), (key, w, om)
    assert _report("7b", True, "|W - Omega| <= 1e-6 (1 + Omega) at p = inf")


# ---------------------------------------------------------------------------
# criterion 8: derivative-inequality and subdivision constants stay bounded
# ---------------------------------------------------------------------------

def test_criterion_8_empirical_constants_bounded():
    cfg = ExperimentConfig.from_dict({
        "function_ids": _ids(1, sobolev_only=True),
        "orders": [[1], [2], [3]],
        "p_values": [1, 2, "inf"],
        "box": {"lower": [0.0], "upper": [1.0]},
        "resolutions": {"quad_nodes": 32, "sup_nodes": 65},
    })
    groups = {}
    for row in run_lemma21(cfg).rows:
        key = (row.function_id, row.r, row.p, row.quantity)
        groups.setdefault(key, []).append((row.t[0], row.value))
    assert groups
    bad = []
    for key, vals in groups.items():
        vals.sort(key=lambda v: -v[0])
        seq = np.asarray([v for _, v in vals])
        if not np.all(np.isfinite(seq)):
            bad.append((key, "nonfinite"))
            continue
        med = float(np.median(seq))
        # sequences capped by the a-priori bound 1 are bounded outright; the
        # trend proxy is for detecting growth without a ceiling
        if np.max(seq) <= 1.0 + 1e-9:
            continue
        if seq[-1] > 2.0 * med + 1e-12:
            bad.append((key, seq[-1] / med))
    assert not bad, bad

    jcfg = ExperimentConfig.from_dict({
        "function_ids": ["exp_d1", "runge_d1", "abspow_d1"],
        "orders": [[1], [2]],
        "p_values": [1, 2, "inf"],
        "box": {"lower": [0.0], "upper": [1.0]},
        "t_sweep": 8, "t_min_factor": 0.1,
        "resolutions": {"h_grid": 17, "quad_nodes": 32, "sup_nodes": 65,
                        "panel_nodes": 12},
    })
    sub = {}
    for row in run_johnen(jcfg).rows:
        if row.quantity == "ratio_subdivision" and row.value == row.value:
            sub.setdefault((row.function_id, row.r, row.p), []).append(
                (row.t[0], row.value))
    assert sub
    for key, vals in sub.items():
        vals.sort(key=lambda v: -v[0])
        seq = [v for _, v in vals]
        assert all(np.isfinite(seq)), key
        assert seq[-1] <= 2.0 * float(np.median(seq)) + 1e-12, (key, seq)
    assert _report(8, True, "derivative-inequality and subdivision constants "
                            "bounded with no growth trend")


# ---------------------------------------------------------------------------
# criterion 9: byte-identical output for identical configuration
# ---------------------------------------------------------------------------

def test_criterion_9_deterministic_output(tmp_path):
    raw = {
        "function_ids": ["exp_d1", "runge_d1", "abspow_d1"],
        "orders": [[1], [2]],
        "p_values": [1, 2, "inf"],
        "box": {"lower": [0.0], "upper": [1.0]},
        "shrink_levels": 2,
        "t_sweep": 3,
        "resolutions": {"h_grid": 9, "quad_nodes": 16, "sup_nodes": 17,
                        "panel_nodes": 8},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    # the subprocess imports the package from this checkout's src
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for experiment in ("whitney", "modulus"):
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{experiment}_{tag}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "whitney_lab.cli", experiment,
                 "--config", str(cfg_path), "--out", str(out)],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], f"{experiment} output not reproducible"
        assert outputs[0].startswith(
            b"experiment,function_id,d,r,p,box,t,quantity,value,runtime_ms\n")
    assert _report(9, True, "two consecutive CLI runs emit byte-identical CSV")
