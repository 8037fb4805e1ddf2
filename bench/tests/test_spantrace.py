import sys

import pytest

import spantrace
from spantrace import Tracer

import whitney_lab
from whitney_lab import harness


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    leaf = tracer.wrap(leaf, "leaf", span=True)

    def middle():
        clock.now += 1.0
        leaf()
        leaf()
        clock.now += 0.5

    middle = tracer.wrap(middle, "middle", span=False)

    def outer():
        clock.now += 3.0
        middle()
        clock.now += 1.0

    outer = tracer.wrap(outer, "outer", span=True)
    outer()

    assert tracer.busy == {"outer": 9.5, "middle": 5.5, "leaf": 4.0}
    assert tracer.self_time == {"outer": 4.0, "middle": 1.5, "leaf": 4.0}
    assert tracer.calls == {"outer": 1, "middle": 1, "leaf": 2}
    # spans: outer, then the two leaves whose parent is outer (middle has no span)
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("outer", 0.0, 9.5, -1), ("leaf", 4.0, 6.0, 0), ("leaf", 6.0, 8.0, 0)]
    assert not tracer.stack


def test_group_nested_in_itself_is_counted_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.now += 1.0

    inner = tracer.wrap(inner, "g")

    def outer():
        clock.now += 1.0
        inner()

    outer = tracer.wrap(outer, "g")
    outer()
    assert tracer.calls["g"] == 1
    assert tracer.busy["g"] == 2.0
    assert tracer.self_time["g"] == 2.0


def test_exception_closes_the_frame():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    seen = []

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    boom = tracer.wrap(boom, "boom", span=True,
                       observe=lambda t, a, k, r, e: seen.append(type(e)))
    with pytest.raises(ValueError):
        boom()
    assert seen == [ValueError]
    assert tracer.busy["boom"] == 1.0 and not tracer.stack


def _bindings(obj):
    """Every (holder, key) in the package that still refers to ``obj``."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "whitney_lab" or name.startswith("whitney_lab.")):
            continue
        for key, value in vars(module).items():
            if value is obj:
                found.append((name, key))
            elif isinstance(value, dict):
                found += [(f"{name}.{key}", k) for k, v in value.items() if v is obj]
            elif isinstance(value, type):
                found += [(f"{name}.{key}", k) for k, v in vars(value).items() if v is obj]
    return found


def test_every_module_binding_is_patched_and_restored():
    originals = [spantrace._resolve(sys.modules[m], q) for m, q, *_ in spantrace.TARGETS]
    before = {id(o): _bindings(o) for o in originals}
    # the imports this test relies on really do bind several copies
    assert len(before[id(whitney_lab.geometry.lp_norm)]) >= 5
    assert ("whitney_lab.harness.EXPERIMENTS", "whitney") in before[id(harness.run_whitney)]

    tracer = Tracer()
    tracer.install(spantrace.TARGETS)
    try:
        for original in originals:
            assert _bindings(original) == [], original.__qualname__
        assert harness.EXPERIMENTS["whitney"] is harness.run_whitney
        assert whitney_lab.polyapprox.lp_norm is whitney_lab.differences.lp_norm
        assert whitney_lab.polyapprox.lp_norm is not originals[
            [q for _, q, *_ in spantrace.TARGETS].index("lp_norm")]
    finally:
        tracer.uninstall()
    for original in originals:
        assert _bindings(original) == before[id(original)]


def test_traced_sweep_reports_every_layer_metric():
    cfg = harness.ExperimentConfig.from_dict({
        "function_ids": ["exp_d2"], "orders": [[1, 1]], "p_values": ["inf"],
        "box": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}, "include_p_mean": False,
        "resolutions": {"h_grid": 3, "quad_nodes": 4, "sup_nodes": 5, "minimax_grid": 5},
    })
    tracer = Tracer()
    tracer.install(spantrace.TARGETS)
    try:
        result = harness.EXPERIMENTS["whitney"](cfg)
    finally:
        tracer.uninstall()
    layers = spantrace.layer_metrics(tracer, 2.0)
    assert set(layers) | {"trace.overhead_frac"} == set(spantrace.LAYER_UNITS)
    assert layers["harness.tasks"] == 1
    assert layers["harness.rows"] == len(result.rows)
    assert layers["polyapprox.best_approx.calls"] == 1
    assert layers["simplex.calls"] >= 1
    assert layers["polyapprox.fits_per_call"] == layers["simplex.calls"]
    assert layers["differences.modulus.calls"] == 3  # one per non-empty axis subset
    assert layers["smoother.bracket.calls"] == 0
    assert 0.0 < layers["simplex.busy_frac"] <= layers["simplex.minimax.busy_frac"]
    assert layers["simplex.minimax.busy_frac"] == tracer.busy["simplex.minimax"] / 2.0
    assert layers["trace.sweep_s"] == 2.0
    assert layers["functions.points"] > 0
