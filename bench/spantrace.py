"""Per-layer tracing of whitney_lab from outside the package.

The tracer wraps public functions of the package modules and replaces every
binding of each original: ``from .geometry import lp_norm`` gives every
importing module its own name for the function, and ``harness.EXPERIMENTS``
holds the runners in a dict, so patching only the defining module would miss
most calls.  Nothing under ``src/`` changes.

Each wrapped call pushes a frame on a stack.  On exit the frame's duration is
added to its group's busy time (outermost activation of the group only, so a
group that calls itself is not counted twice), and its self time (duration
minus the time its wrapped children took) to the group's self time.  Coarse
functions also record a span (name, start, end, parent span); the functions
called tens of thousands of times per sweep only update the counters.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

PACKAGE = "whitney_lab"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level


class _Frame:
    __slots__ = ("group", "start", "child", "span", "owns_span")

    def __init__(self, group: str, start: float, span: int, owns_span: bool):
        self.group = group
        self.start = start
        self.child = 0.0
        self.span = span  # own span, or the nearest enclosing one
        self.owns_span = owns_span


class Tracer:
    """Counters, busy and self time per group, and spans for the coarse calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[_Frame] = []
        self.active: Counter = Counter()
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.spans: list[Span] = []
        self._patches: list[tuple] = []

    # -- frames -----------------------------------------------------------

    def enter(self, group: str, span: bool) -> _Frame:
        parent_span = self.stack[-1].span if self.stack else -1
        start = self.clock()
        index = parent_span
        if span:
            index = len(self.spans)
            self.spans.append(Span(group, start, math.nan, parent_span))
        frame = _Frame(group, start, index, span)
        self.stack.append(frame)
        self.active[group] += 1
        return frame

    def exit(self, frame: _Frame) -> None:
        end = self.clock()
        self.stack.pop()
        duration = end - frame.start
        group = frame.group
        self.self_time[group] += duration - frame.child
        if self.active[group] == 1:
            self.calls[group] += 1
            self.busy[group] += duration
        self.active[group] -= 1
        if self.stack:
            self.stack[-1].child += duration
        if frame.owns_span:
            self.spans[frame.span].end = end

    def outermost(self, group: str) -> bool:
        """True inside the outermost open activation of ``group``."""
        return self.active[group] == 1

    def wrap(self, fn, group: str, span: bool = False, observe=None):
        """``fn`` timed under ``group``; ``observe(tracer, args, kwargs, result, exc)``
        runs inside the frame, before it closes."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(group, span)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                if observe is not None:
                    observe(tracer, args, kwargs, result, exc)
                tracer.exit(frame)

        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self, targets) -> None:
        """Wrap each ``(module, qualname, group, span, observe)`` target everywhere."""
        for module_name, qualname, group, span, observe in targets:
            original = _resolve(sys.modules[module_name], qualname)
            self.replace_everywhere(original, self.wrap(original, group, span, observe))

    def replace_everywhere(self, original, replacement) -> None:
        """Rebind every reference to ``original`` held by a package module:
        module globals, module-level dicts and class attributes."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, original, replacement)
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._patch(value, dkey, original, replacement)
                elif isinstance(value, type) and value.__module__ == name:
                    for attr, avalue in list(vars(value).items()):
                        if avalue is original:
                            self._patch(value, attr, original, replacement)

    def _patch(self, holder, key, original, replacement) -> None:
        self._patches.append((holder, key, original))
        if isinstance(holder, dict):
            holder[key] = replacement
        else:
            setattr(holder, key, replacement)

    def uninstall(self) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)


def _resolve(module, qualname: str):
    obj = module
    for part in qualname.split("."):
        obj = vars(obj)[part]
    return obj


# ---------------------------------------------------------------------------
# what the benchmark traces
# ---------------------------------------------------------------------------

def _count_rows(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.counters["harness.rows"] += len(result[0])


def _count_lp_calls(tracer, args, kwargs, result, exc):
    p = args[2] if len(args) > 2 else kwargs["p"]
    if p in (1.0, math.inf):
        tracer.counters["polyapprox.lp_calls"] += 1


def _count_tableau(tracer, args, kwargs, result, exc):
    A = args[0] if args else kwargs["A"]
    cells = A.shape[0] * (A.shape[1] + 1)  # constraint rows x (columns + rhs)
    tracer.counters["simplex.tableau_cells"] += cells
    tracer.counters["simplex.tableau_cells_max"] = max(
        tracer.counters["simplex.tableau_cells_max"], cells)
    if exc is not None:
        tracer.counters["simplex.errors"] += 1


def _count_empty(tracer, args, kwargs, result, exc):
    if exc is None and result is None:
        tracer.counters["geometry.shifted_domain.empty"] += 1


def _count_points(tracer, args, kwargs, result, exc):
    if result is not None and tracer.outermost("functions"):
        tracer.counters["functions.points"] += result.size


def _count_witness(tracer, args, kwargs, result, exc):
    if result is not None and result.witness == "smoother_subdivision":
        tracer.counters["smoother.smoother_wins"] += 1


TARGETS = [
    # (module, qualname, group, span, observe)
    ("whitney_lab.harness", "run_whitney", "harness.run", True, None),
    ("whitney_lab.harness", "run_johnen", "harness.run", True, None),
    ("whitney_lab.harness", "run_modulus", "harness.run", True, None),
    ("whitney_lab.harness", "_run_task", "harness.task", True, _count_rows),
    ("whitney_lab.harness", "emit", "harness.emit", True, None),
    ("whitney_lab.polyapprox", "best_approx", "polyapprox.best_approx", True, _count_lp_calls),
    ("whitney_lab.polyapprox", "taylor_poly", "polyapprox.taylor_poly", True, None),
    ("whitney_lab.simplex", "simplex_solve", "simplex.solve", True, _count_tableau),
    ("whitney_lab.simplex", "solve_minimax", "simplex.minimax", True, None),
    ("whitney_lab.simplex", "solve_weighted_l1", "simplex.l1", True, None),
    ("whitney_lab.differences", "modulus", "differences.modulus", True, None),
    ("whitney_lab.differences", "p_mean_modulus", "differences.p_mean", True, None),
    ("whitney_lab.differences", "total_modulus", "differences.total_modulus", True, None),
    ("whitney_lab.differences", "total_p_mean_modulus", "differences.total_p_mean", True, None),
    ("whitney_lab.differences", "mixed_difference", "differences.mixed_difference", False, None),
    ("whitney_lab.geometry", "lp_norm", "geometry.lp_norm", False, None),
    ("whitney_lab.geometry", "lp_power_integral", "geometry.lp_norm", False, None),
    ("whitney_lab.geometry", "shifted_domain", "geometry.shifted_domain", False, _count_empty),
    ("whitney_lab.functions", "FunctionSpec.__call__", "functions", False, _count_points),
    ("whitney_lab.functions", "FunctionSpec.derivative", "functions", False, _count_points),
    ("whitney_lab.smoother", "k_functional_bracket", "smoother.bracket", True, _count_witness),
]

# name -> unit of every per-layer metric, in report order.  Busy and self
# times are shares of the traced sweep's wall time (trace.sweep_s): a layer
# that a workload never calls then reads 0 as a share, not as a time.
LAYER_UNITS = {
    "simplex.calls": "count",
    "simplex.busy_frac": "fraction",
    "simplex.minimax.busy_frac": "fraction",
    "simplex.l1.busy_frac": "fraction",
    "simplex.tableau_mcells": "Mcells",
    "simplex.tableau_mb_max": "MiB",
    "simplex.errors": "count",
    "polyapprox.best_approx.calls": "count",
    "polyapprox.best_approx.self_frac": "fraction",
    "polyapprox.fits_per_call": "fits/call",
    "polyapprox.taylor_poly.busy_frac": "fraction",
    "differences.modulus.calls": "count",
    "differences.modulus.busy_frac": "fraction",
    "differences.p_mean.calls": "count",
    "differences.p_mean.busy_frac": "fraction",
    "differences.shifts": "count",
    "differences.empty_shift_frac": "fraction",
    "differences.self_frac": "fraction",
    "geometry.lp_norm.calls": "count",
    "geometry.lp_norm.self_frac": "fraction",
    "geometry.shifted_domain.calls": "count",
    "functions.calls": "count",
    "functions.points": "count",
    "functions.points_per_call": "points/call",
    "functions.busy_frac": "fraction",
    "smoother.bracket.calls": "count",
    "smoother.bracket.self_frac": "fraction",
    "smoother.smoother_win_frac": "fraction",
    "harness.tasks": "count",
    "harness.rows": "count",
    "harness.task_p50_ms": "ms",
    "harness.task_max_ms": "ms",
    "harness.emit_s": "s",
    "trace.sweep_s": "s",
    "trace.overhead_frac": "fraction",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, sweep_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced sweep of ``sweep_s`` seconds
    (all but ``trace.overhead_frac``)."""
    calls, counters = tracer.calls, tracer.counters
    busy = {k: v / sweep_s for k, v in tracer.busy.items()}
    selft = {k: v / sweep_s for k, v in tracer.self_time.items()}
    task_ms = [1000.0 * (s.end - s.start) for s in tracer.spans if s.name == "harness.task"]
    fits = calls["simplex.minimax"] + calls["simplex.l1"]
    return {
        "simplex.calls": calls["simplex.solve"],
        "simplex.busy_frac": busy.get("simplex.solve", 0.0),
        "simplex.minimax.busy_frac": busy.get("simplex.minimax", 0.0),
        "simplex.l1.busy_frac": busy.get("simplex.l1", 0.0),
        # computed from A.shape on entry, not measured memory
        "simplex.tableau_mcells": counters["simplex.tableau_cells"] / 1e6,
        "simplex.tableau_mb_max": counters["simplex.tableau_cells_max"] * 8 / 2**20,
        "simplex.errors": counters["simplex.errors"],
        "polyapprox.best_approx.calls": calls["polyapprox.best_approx"],
        "polyapprox.best_approx.self_frac": selft.get("polyapprox.best_approx", 0.0),
        "polyapprox.fits_per_call": _ratio(fits, counters["polyapprox.lp_calls"]),
        "polyapprox.taylor_poly.busy_frac": busy.get("polyapprox.taylor_poly", 0.0),
        "differences.modulus.calls": calls["differences.modulus"],
        "differences.modulus.busy_frac": busy.get("differences.modulus", 0.0),
        "differences.p_mean.calls": calls["differences.p_mean"],
        "differences.p_mean.busy_frac": busy.get("differences.p_mean", 0.0),
        "differences.shifts": calls["differences.mixed_difference"],
        "differences.empty_shift_frac": _ratio(counters["geometry.shifted_domain.empty"],
                                               calls["geometry.shifted_domain"]),
        "differences.self_frac": sum(v for k, v in selft.items() if k.startswith("differences.")),
        "geometry.lp_norm.calls": calls["geometry.lp_norm"],
        "geometry.lp_norm.self_frac": selft.get("geometry.lp_norm", 0.0),
        "geometry.shifted_domain.calls": calls["geometry.shifted_domain"],
        "functions.calls": calls["functions"],
        "functions.points": counters["functions.points"],
        "functions.points_per_call": _ratio(counters["functions.points"], calls["functions"]),
        "functions.busy_frac": busy.get("functions", 0.0),
        "smoother.bracket.calls": calls["smoother.bracket"],
        "smoother.bracket.self_frac": selft.get("smoother.bracket", 0.0),
        "smoother.smoother_win_frac": _ratio(counters["smoother.smoother_wins"],
                                             calls["smoother.bracket"]),
        "harness.tasks": calls["harness.task"],
        "harness.rows": counters["harness.rows"],
        "harness.task_p50_ms": statistics.median(task_ms) if task_ms else 0.0,
        "harness.task_max_ms": max(task_ms, default=0.0),
        "harness.emit_s": tracer.busy["harness.emit"],
        "trace.sweep_s": sweep_s,
    }
