"""Experiment orchestration: configuration, sweep runners, and report emission.

A single JSON document configures every experiment.  Runners enumerate their
work in configuration order as tasks, one per ``(function, r, p, step)``, and
emit :class:`ResultRow` values in that same order, so two runs with the same
configuration produce byte-identical output files.  They execute the tasks in
another order: the ``p`` values of one ``(function, r, step)`` back to back,
in configuration order, so that each finite ``p`` reuses the memoized arrays
that do not depend on ``p``, then place each result at its configuration
index.  Those memos each hold one such group: the smoother's polynomials, box
values and stencil outputs, and the moduli's per-axis passes and grid
differences, so a finite ``p`` after the first evaluates no value of f in the
moduli wherever it measures the steps of the first.  With ``jobs > 1`` the
process pool takes the tasks one at a time in that order, so the p values of
a group may run in different workers.  Every task still
runs alone through :func:`_run_task`, so its rows, its ``error`` row and its
flags are its own, and the bytes are those of each task run alone on empty
memos.  A task computes ``(quantity, value)`` pairs; one function,
:func:`_run_task`, turns them into rows, times the task and stamps the shared
fields.  A failing combination never aborts a sweep; it appears as a row with
quantity ``error``.  The only hard, theorem-derived assertions are the exact
lower-bound margin (whitney) and bracket consistency (johnen, kfunc);
violations are reported through :attr:`RunResult.hard_failure` and become exit
code 1.  A task of those experiments that fails otherwise leaves its check
unevaluated: it counts in :attr:`RunResult.unverified`, which becomes exit
code 3.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .differences import (
    DEFAULT_H_GRID,
    DEFAULT_MEAN_NODES,
    modulus,
    p_mean_modulus,
    total_modulus,
    total_p_mean_modulus,
    whitney_constant_sum,
)
from .functions import FunctionSpec, get_function
from .geometry import (
    DEFAULT_QUAD_NODES,
    DEFAULT_SUP_NODES,
    GeometryError,
    Parallelepiped,
    QuadratureSpec,
    lp_norm,
    project,
    subsets,
)
from .polyapprox import (
    best_approx,
    derivative_inequality_ratios,
    taylor_poly,
    taylor_remainder_bound,
)
from .smoother import DEFAULT_PANEL_NODES, BracketViolation, k_functional_bracket
from .simplex import SimplexError

__all__ = [
    "ConfigError",
    "Resolutions",
    "ExperimentConfig",
    "ResultRow",
    "RunResult",
    "run_whitney",
    "run_johnen",
    "run_taylor",
    "run_lemma21",
    "run_modulus",
    "run_bestapprox",
    "run_kfunc",
    "emit",
    "csv_bytes",
    "json_bytes",
    "EXPERIMENTS",
]

MARGIN_TOL = 1e-6  # margin <= MARGIN_TOL * (1 + Omega) is the hard lower-bound check


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class Resolutions:
    """Discretization knobs; the defaults are those of the modules that use them."""

    h_grid: int = DEFAULT_H_GRID
    quad_nodes: int = DEFAULT_QUAD_NODES
    sup_nodes: int = DEFAULT_SUP_NODES
    minimax_grid: int = 0  # 0 = automatic (max(4 r_i, 17) per axis)
    panel_nodes: int = DEFAULT_PANEL_NODES
    mean_nodes: int = DEFAULT_MEAN_NODES

    @property
    def quad(self) -> QuadratureSpec:
        return QuadratureSpec(self.quad_nodes, self.sup_nodes)

    def fit_grid(self, r: tuple[int, ...]) -> tuple[int, ...] | None:
        if self.minimax_grid <= 0:
            return None
        return tuple(max(self.minimax_grid, 2 * ri) for ri in r)


@dataclass(frozen=True)
class ExperimentConfig:
    function_ids: tuple[str, ...]
    orders: tuple[tuple[int, ...], ...]
    p_values: tuple[float, ...]
    box: Parallelepiped
    shrink_levels: int = 0
    t_sweep: int = 12
    t: tuple[float, ...] | None = None
    resolutions: Resolutions = field(default_factory=Resolutions)
    output_path: str | None = None
    output_format: str = "csv"
    jobs: int = 1
    include_p_mean: bool = True
    record_runtime: bool = False
    t_min_factor: float = 0.01

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        try:
            box_raw = raw["box"]
            bounds = [box_raw[k] for k in ("lower", "upper")]
            if not all(isinstance(b, list) for b in bounds):
                raise ConfigError(f"box.lower and box.upper must be lists, got {bounds}")
            box = Parallelepiped(*[[_number(f"box.{k}", v) for v in b]
                                   for k, b in zip(("lower", "upper"), bounds)])
        except (KeyError, TypeError, ValueError, GeometryError) as exc:
            raise ConfigError(f"invalid or missing box: {exc}") from exc
        if not all(math.isfinite(v) for v in box.lower + box.upper):
            raise ConfigError(f"box bounds must be finite: {box_raw}")
        try:
            box.require_positive_size()
        except GeometryError as exc:
            raise ConfigError(str(exc)) from exc
        _known_keys("config", raw, _CONFIG_KEYS)
        dim = box.dim
        ids = tuple(_list(raw, "function_ids"))
        if not ids:
            raise ConfigError("function_ids must be a non-empty list")
        for fid in ids:
            try:
                f = get_function(fid)
            except KeyError as exc:
                raise ConfigError(str(exc)) from exc
            if f.dimension != dim:
                raise ConfigError(
                    f"{fid} has dimension {f.dimension}, box has dimension {dim}")
        dims = _list(raw, "dimensions", None)
        if dims is not None and list(dims) != [dim]:
            raise ConfigError(f"dimensions {dims} inconsistent with box dimension {dim}")
        orders = []
        for r in _list(raw, "orders"):
            r = tuple(_number("orders", v, int)
                      for v in (r if isinstance(r, (list, tuple)) else [r]))
            if len(r) != dim or any(v < 1 for v in r):
                raise ConfigError(f"order {r} must have {dim} entries >= 1")
            orders.append(r)
        if not orders:
            raise ConfigError("orders must be a non-empty list")
        p_values = tuple(_parse_p(p) for p in _list(raw, "p_values"))
        if not p_values:
            raise ConfigError("p_values must be a non-empty list")
        res_raw = raw.get("resolutions", {})
        _known_keys("resolution", res_raw, Resolutions.__dataclass_fields__)
        resolutions = Resolutions(**{k: _number(f"resolutions.{k}", v, int)
                                     for k, v in res_raw.items()})
        # h_grid's floor is the one modulus enforces
        for key, least in (("h_grid", 2), ("minimax_grid", 0), ("panel_nodes", 1),
                           ("mean_nodes", 1)):
            if getattr(resolutions, key) < least:
                raise ConfigError(f"resolutions.{key} must be >= {least}, "
                                  f"got {getattr(resolutions, key)}")
        try:  # QuadratureSpec owns the bounds of quad_nodes and sup_nodes
            QuadratureSpec(resolutions.quad_nodes, resolutions.sup_nodes)
        except GeometryError as exc:
            raise ConfigError(f"resolutions {res_raw}: {exc}") from exc
        out = raw.get("output", {})
        _known_keys("output", out, ("path", "format"))
        fmt = out.get("format", cls.output_format)
        if fmt not in ("csv", "json"):
            raise ConfigError(f"output format must be csv or json, got {fmt!r}")
        path = out.get("path")
        if not isinstance(path, (str, type(None))):  # open() reads an int as a descriptor
            raise ConfigError(f"output.path must be a string, got {path!r}")
        t = raw.get("t")
        if t is not None:
            t = tuple(_number("t", v) for v in (t if isinstance(t, (list, tuple)) else [t]))
            if len(t) != dim or not all(0 < v < math.inf for v in t):
                raise ConfigError(f"t {t} must have {dim} positive finite entries")
        def given(key):  # the config's value, else the field's default
            return raw.get(key, getattr(cls, key))

        shrink_levels = _number("shrink_levels", given("shrink_levels"), int)
        if shrink_levels < 0:
            raise ConfigError(f"shrink_levels must be >= 0, got {shrink_levels}")
        t_sweep = _number("t_sweep", given("t_sweep"), int)
        if t_sweep < 1:
            raise ConfigError(f"t_sweep must be >= 1, got {t_sweep}")
        jobs = _number("jobs", given("jobs"), int)
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        t_min_factor = _number("t_min_factor", given("t_min_factor"))
        if not 0 < t_min_factor < math.inf:
            raise ConfigError(f"t_min_factor must be positive and finite, got {t_min_factor}")
        return cls(
            function_ids=ids,
            orders=tuple(orders),
            p_values=p_values,
            box=box,
            shrink_levels=shrink_levels,
            t_sweep=t_sweep,
            t=t,
            resolutions=resolutions,
            output_path=path,
            output_format=fmt,
            jobs=jobs,
            include_p_mean=_flag("include_p_mean", given("include_p_mean")),
            record_runtime=_flag("record_runtime", given("record_runtime")),
            t_min_factor=t_min_factor,
        )

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)


# the top-level keys of a config document; any other key is a config error
_CONFIG_KEYS = ("function_ids", "orders", "p_values", "box", "dimensions", "shrink_levels",
                "t_sweep", "t", "t_min_factor", "resolutions", "output", "jobs",
                "include_p_mean", "record_runtime")


def _known_keys(where: str, raw, known) -> None:
    """A config error naming the keys of the ``where`` object not in ``known``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object, got {raw!r}")
    unknown = set(raw) - set(known)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def _flag(key: str, value) -> bool:
    """A JSON ``true``/``false`` (a string such as ``"false"`` is an error)."""
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _list(raw: dict, key: str, default=()):
    """The list under ``key`` (``default`` when absent), or a config error naming
    ``key``: a scalar or a string is not read as a list of its characters."""
    value = raw.get(key, default)
    if value is not default and not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a list, got {value!r}")
    return value


def _number(key: str, value, kind: type = float):
    """``value`` as a ``kind`` (float or int), or a config error naming ``key``:
    a non-number (JSON ``true``/``false`` too, though ``bool`` is an ``int``, and
    a numeric string such as ``"2"``), NaN, or a fraction where an int is due
    (never truncated)."""
    try:
        number = kind(value)
        exact = number == float(value) and not isinstance(value, (bool, str))
    except (TypeError, ValueError, OverflowError):
        exact = False
    if not exact:
        raise ConfigError(f"{key} must be {'a whole number' if kind is int else 'a number'}, "
                          f"got {value!r}")
    return number


def _parse_p(p) -> float:
    if isinstance(p, str):
        if p.lower() in ("inf", "infinity"):
            return math.inf
        raise ConfigError(f"p value {p!r} not understood (use numbers or 'inf')")
    p = _number("p_values", p)
    if not (1.0 <= p <= math.inf):
        raise ConfigError(f"p must lie in [1, inf], got {p}")
    return p


# ---------------------------------------------------------------------------
# result rows and serialization
# ---------------------------------------------------------------------------

def _fmt_float(v: float) -> str:
    return repr(float(v))  # "nan", "inf" and "-inf" for the non-finite values


def _fmt_p(p: float) -> str:
    if float(p).is_integer():
        return str(int(p))
    return repr(float(p))


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    function_id: str
    d: int
    r: tuple[int, ...]
    p: float
    box: Parallelepiped
    t: tuple[float, ...] | None
    quantity: str
    value: float
    runtime_ms: int = 0

    def fields(self) -> dict:
        return {
            "experiment": self.experiment,
            "function_id": self.function_id,
            "d": self.d,
            "r": "x".join(str(int(v)) for v in self.r),
            "p": _fmt_p(self.p),
            "box": "x".join(
                f"{_fmt_float(lo)}..{_fmt_float(hi)}"
                for lo, hi in zip(self.box.lower, self.box.upper)
            ),
            "t": "" if self.t is None else "x".join(_fmt_float(v) for v in self.t),
            "quantity": self.quantity,
            "value": None if self.value != self.value else float(self.value),
            "runtime_ms": int(self.runtime_ms),
        }


CSV_HEADER = "experiment,function_id,d,r,p,box,t,quantity,value,runtime_ms"


def csv_bytes(rows: list[ResultRow]) -> bytes:
    lines = [CSV_HEADER]
    for row in rows:
        f = row.fields()
        f["value"] = "nan" if f["value"] is None else _fmt_float(f["value"])
        lines.append(",".join(str(v) for v in f.values()))
    return ("\n".join(lines) + "\n").encode()


def json_bytes(rows: list[ResultRow]) -> bytes:
    return (json.dumps([r.fields() for r in rows], indent=2) + "\n").encode()


def emit(rows: list[ResultRow], path: str, fmt: str = "csv") -> None:
    """Write rows to ``path`` as CSV or JSON (deterministic bytes)."""
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown output format {fmt!r}")
    payload = csv_bytes(rows) if fmt == "csv" else json_bytes(rows)
    try:
        with open(path, "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        raise RuntimeError(f"cannot write output file {path}: {exc}") from exc


@dataclass
class RunResult:
    rows: list[ResultRow]
    hard_failure: bool = False
    unverified: int = 0  # hard-checked tasks that failed before their check ran
    tasks: int = 0


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def _na_ratio(num: float, den: float, scale: float = 0.0) -> float:
    if den <= 1e-12 * (1.0 + scale):
        return math.nan
    return num / den


def _task_frames(experiment: str, cfg: ExperimentConfig, r: tuple[int, ...]
                 ) -> list[tuple[Parallelepiped, tuple[float, ...] | None]]:
    """The box and the step ``t`` of each step of an experiment's sweep at
    order ``r``, which all rows of the step's task carry, its ``error`` row
    too: the shrunk boxes and their sizes (whitney, taylor), the log-sweep
    steps (johnen), the halving steps (lemma21), no step (bestapprox), or
    ``cfg.t``, else the box size (modulus) or the smoother's bound (kfunc)."""
    box, size = cfg.box, cfg.box.size()
    if experiment in ("whitney", "taylor"):  # anchored at the lower corner
        boxes = [Parallelepiped(box.lower, np.asarray(box.lower) + size / (2.0 ** level))
                 for level in range(cfg.shrink_levels + 1)]
        return [(b, tuple(b.size())) for b in boxes]
    tbar = tuple(size[i] / (4.0 * r[i] * r[i]) for i in range(len(r)))
    if experiment == "johnen":
        factors = np.logspace(math.log10(cfg.t_min_factor), 0.0, cfg.t_sweep)
        return [(box, tuple(float(v) for v in factor * np.asarray(tbar)))
                for factor in factors]
    if experiment == "lemma21":
        return [(box, (float(size[0]) / (2.0 ** k),)) for k in range(7)]
    if experiment == "bestapprox":
        return [(box, None)]
    if cfg.t is not None:
        return [(box, cfg.t)]
    return [(box, tuple(size) if experiment == "modulus" else tbar)]


# A task function computes one task's ``(quantity, value)`` pairs, in row
# order, and whether a hard check failed; ``_run_task`` builds the rows.  A
# pair may carry a third entry, the order its row reports in place of ``r``.

def _whitney_task(cfg: ExperimentConfig, f: FunctionSpec, r: tuple[int, ...], p: float,
                  box: Parallelepiped, t: tuple[float, ...]) -> tuple[list[tuple], bool]:
    res = cfg.resolutions
    quad = res.quad
    _, err = best_approx(f, r, p, box, grid=res.fit_grid(r), quad=quad)
    omega = total_modulus(f, r, t, p, box, quad=quad, h_grid=res.h_grid)
    margin = omega - whitney_constant_sum(r) * err
    pairs = [("E_r", err), ("Omega", omega)]
    if cfg.include_p_mean:
        w_total = omega if p == math.inf else total_p_mean_modulus(
            f, r, t, p, box, quad=quad, h_grid=res.h_grid, mean_nodes=res.mean_nodes)
        pairs += [("W", w_total), ("ratio_E_over_W", _na_ratio(err, w_total))]
    pairs += [("margin", margin), ("ratio_E_over_Omega", _na_ratio(err, omega))]
    return pairs, margin > MARGIN_TOL * (1.0 + omega)


def _johnen_task(cfg: ExperimentConfig, f: FunctionSpec, r: tuple[int, ...], p: float,
                 box: Parallelepiped, t: tuple[float, ...]) -> tuple[list[tuple], bool]:
    res = cfg.resolutions
    bracket = k_functional_bracket(f, r, t, p, box, quad=res.quad,
                                   h_grid=res.h_grid, panel_nodes=res.panel_nodes)
    details = bracket.details
    omega = details["omega_total"]
    pairs = [
        ("K_lower", bracket.lower),
        ("K_upper", bracket.upper),
        ("Omega", omega),
        ("ratio_upper_over_Omega", _na_ratio(bracket.upper, omega)),
        ("ratio_lower_check", _na_ratio(bracket.lower * whitney_constant_sum(r), omega)),
    ]
    if "f_minus_g" in details:
        terms, omega_terms = details["deriv_terms"], details["omega_terms"]
        ratios = [terms[key] / omega_terms[key] for key in terms
                  if omega_terms.get(key, 0.0) > 1e-12]
        pairs += [("ratio_fg_over_Omega", _na_ratio(details["f_minus_g"], omega)),
                  ("ratio_gderiv_over_omega", max(ratios) if ratios else math.nan)]
    if "subdomain_uppers" in details:
        combined = float(sum(details["subdomain_uppers"].values()))
        pairs.append(("ratio_subdivision", _na_ratio(bracket.upper, combined)))
    return pairs, False


def _taylor_task(cfg: ExperimentConfig, f: FunctionSpec, r: tuple[int, ...], p: float,
                 box: Parallelepiped, t: tuple[float, ...]) -> tuple[list[tuple], bool]:
    quad = cfg.resolutions.quad
    tp = taylor_poly(f, r, box.lower, box)
    err = lp_norm(lambda q: np.asarray(f(q)) - tp(q), box, p, quad)
    bound = taylor_remainder_bound(f, r, p, box, quad)
    return [("taylor_err", err), ("taylor_bound", bound),
            ("ratio", _na_ratio(err, bound))], False


def _lemma21_task(cfg: ExperimentConfig, f: FunctionSpec, r: tuple[int, ...], p: float,
                  box: Parallelepiped, t: tuple[float]) -> tuple[list[tuple], bool]:
    quad = cfg.resolutions.quad
    pairs = []
    for k in range(r[0]):
        ratio_lp, ratio_sup = derivative_inequality_ratios(f, r[0], k, t[0], p, box, quad)
        pairs += [(f"ratio_lemma21_Lp_k{k}", ratio_lp),
                  (f"ratio_lemma21_sup_k{k}", ratio_sup)]
    return pairs, False


def _modulus_task(cfg: ExperimentConfig, f: FunctionSpec, r: tuple[int, ...], p: float,
                  box: Parallelepiped, t: tuple[float, ...]) -> tuple[list[tuple], bool]:
    res = cfg.resolutions
    quad = res.quad
    pairs = []
    for e in subsets(f.dimension):
        r_e = project(r, e)
        omega = modulus(f, r_e, t, p, box, quad=quad, h_grid=res.h_grid)
        # at p = inf the p-mean modulus is this sup-type modulus, bit for bit
        w = omega if p == math.inf else p_mean_modulus(
            f, r_e, t, p, box, quad=quad, h_grid=res.h_grid, mean_nodes=res.mean_nodes)
        pairs += [("omega", omega, r_e), ("w", w, r_e)]
    return pairs + [(total, sum(v for q, v, _ in pairs if q == term))
                    for total, term in (("Omega", "omega"), ("W", "w"))], False


def _bestapprox_task(cfg: ExperimentConfig, f: FunctionSpec, r: tuple[int, ...], p: float,
                     box: Parallelepiped, t: None) -> tuple[list[tuple], bool]:
    res = cfg.resolutions
    _, err = best_approx(f, r, p, box, grid=res.fit_grid(r), quad=res.quad)
    return [("E_r", err)], False


def _kfunc_task(cfg: ExperimentConfig, f: FunctionSpec, r: tuple[int, ...], p: float,
                box: Parallelepiped, t: tuple[float, ...]) -> tuple[list[tuple], bool]:
    res = cfg.resolutions
    bracket = k_functional_bracket(f, r, t, p, box, quad=res.quad,
                                   h_grid=res.h_grid, panel_nodes=res.panel_nodes)
    return [("K_lower", bracket.lower), ("K_upper", bracket.upper)], False


_TASK_FUNCS = {
    "whitney": _whitney_task,
    "johnen": _johnen_task,
    "taylor": _taylor_task,
    "lemma21": _lemma21_task,
    "modulus": _modulus_task,
    "bestapprox": _bestapprox_task,
    "kfunc": _kfunc_task,
}


# the experiments with a hard check; a task of theirs that fails is unverified
_HARD_CHECKED = ("whitney", "johnen", "kfunc")


def _run_task(task) -> tuple[list[ResultRow], bool, bool]:
    """Run one task and build its rows, each with the task's wall time if
    ``record_runtime`` is set; the only place rows are made.  Also returns
    whether a hard check failed and whether a hard check could not run."""
    experiment, cfg, fid, r, p, box, t = task
    f = get_function(fid)
    start = time.perf_counter()
    unverified = False
    try:
        pairs, hard = _TASK_FUNCS[experiment](cfg, f, r, p, box, t)
    except (SimplexError, BracketViolation, ValueError, ArithmeticError) as exc:
        pairs, hard = [("error", math.nan)], isinstance(exc, BracketViolation)
        unverified = not hard and experiment in _HARD_CHECKED
    ms = int(1000 * (time.perf_counter() - start)) if cfg.record_runtime else 0
    return [ResultRow(experiment, fid, f.dimension, order[0] if order else r, p, box, t,
                      quantity, value, ms)
            for quantity, value, *order in pairs], hard, unverified


def _enumerate_tasks(experiment: str, cfg: ExperimentConfig) -> list[tuple]:
    """The tasks of a sweep in configuration order.  ``lemma21`` keeps the 1-D
    entries and ``taylor`` and ``lemma21`` the entries with derivatives; a
    sweep that keeps none is a config error, not an empty output."""
    fids = cfg.function_ids
    if experiment == "lemma21":
        fids = [fid for fid in fids if get_function(fid).dimension == 1]
        if not fids:
            raise ConfigError(f"lemma21 is univariate, and none of {list(cfg.function_ids)} "
                              "is a 1-D entry")
    if experiment in ("taylor", "lemma21"):
        fids = [fid for fid in fids if get_function(fid).is_sobolev]
        if not fids:
            raise ConfigError(f"{experiment} needs derivatives, and none of "
                              f"{list(cfg.function_ids)} has them")
    tasks = []
    for fid in fids:
        for r in cfg.orders:
            frames = _task_frames(experiment, cfg, r)
            for p in cfg.p_values:
                if experiment in ("whitney", "bestapprox") and p not in (1.0, 2.0, math.inf):
                    raise ConfigError(
                        f"{experiment} computes best approximation; p must be 1, 2, or inf")
                tasks += [(experiment, cfg, fid, r, p, box, t) for box, t in frames]
    return tasks


def _execute(experiment: str, cfg: ExperimentConfig) -> RunResult:
    tasks = _enumerate_tasks(experiment, cfg)
    # run the p values of each (function, order, step) back to back, so that
    # they share the memoized arrays that do not depend on p (module docstring)
    groups: dict[tuple, list[int]] = {}
    for i, (_, _, fid, r, _, box, t) in enumerate(tasks):
        groups.setdefault((fid, r, box, t), []).append(i)
    order = [i for group in groups.values() for i in group]
    if cfg.jobs > 1 and len(tasks) > 1:
        # imported here: its multiprocessing import adds ~30 ms to every start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            done = list(pool.map(_run_task, [tasks[i] for i in order]))
    else:
        done = [_run_task(tasks[i]) for i in order]
    results = [None] * len(tasks)
    for i, result in zip(order, done):
        results[i] = result
    return RunResult([row for rows, _, _ in results for row in rows],
                     any(hard for _, hard, _ in results),
                     sum(unverified for _, _, unverified in results), len(results))


def run_whitney(cfg: ExperimentConfig) -> RunResult:
    """Two-sided check of best approximation against the total moduli per shrink level."""
    return _execute("whitney", cfg)


def run_johnen(cfg: ExperimentConfig) -> RunResult:
    """K-functional bracket sweep against the total modulus over a log t-grid."""
    return _execute("johnen", cfg)


def run_taylor(cfg: ExperimentConfig) -> RunResult:
    """Taylor error against the constant-free remainder bound per shrink level."""
    return _execute("taylor", cfg)


def run_lemma21(cfg: ExperimentConfig) -> RunResult:
    """Univariate derivative-inequality ratios over a halving t-sweep."""
    return _execute("lemma21", cfg)


def run_modulus(cfg: ExperimentConfig) -> RunResult:
    """Single moduli evaluation (all subset terms plus totals) at one step bound."""
    return _execute("modulus", cfg)


def run_bestapprox(cfg: ExperimentConfig) -> RunResult:
    """Single best-approximation evaluation per (function, order, p)."""
    return _execute("bestapprox", cfg)


def run_kfunc(cfg: ExperimentConfig) -> RunResult:
    """Single K-functional bracket per (function, order, p)."""
    return _execute("kfunc", cfg)


EXPERIMENTS = {
    "whitney": run_whitney,
    "johnen": run_johnen,
    "taylor": run_taylor,
    "lemma21": run_lemma21,
    "modulus": run_modulus,
    "bestapprox": run_bestapprox,
    "kfunc": run_kfunc,
}
