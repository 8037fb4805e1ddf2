"""Output check of one sweep: row structure, theorem-derived bounds, reference values.

A task is one ``(function_id, r, p, step)`` unit of the harness.  The rows of
a sweep are split back into tasks in emission order; a task fails when it is
missing, emits an ``error`` row, lacks an expected quantity, violates a
bound, or differs from the reference rows it is compared with.
"""

from __future__ import annotations

import csv
import io
import math

# values compared with a reference CSV may differ by this much (relative),
# or by ABS_TOL near zero
REL_TOL = 1e-6
ABS_TOL = 1e-12
MARGIN_TOL = 1e-6  # whitney: margin <= MARGIN_TOL * (1 + Omega)
BRACKET_TOL = 1e-9  # johnen: K_lower <= K_upper * (1 + BRACKET_TOL) + 1e-12

JOHNEN_REQUIRED = ["K_lower", "K_upper", "Omega", "ratio_upper_over_Omega",
                   "ratio_lower_check"]
JOHNEN_OPTIONAL = ["ratio_fg_over_Omega", "ratio_gderiv_over_omega", "ratio_subdivision"]
KEY_FIELDS = ("experiment", "function_id", "d", "r", "p", "box", "t")


def parse_csv(data: bytes) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    for row in rows:
        row["value"] = float(row["value"])
    return rows


def split_tasks(experiment: str, rows: list[dict]) -> list[list[dict]]:
    """Rows grouped into tasks; an ``error`` row is always a task of its own."""
    tasks: list[list[dict]] = []
    current: list[dict] = []
    for row in rows:
        if row["quantity"] == "error":
            if current:
                tasks.append(current)
            tasks.append([row])
            current = []
            continue
        if (experiment != "modulus" and current
                and _key(row) != _key(current[0])):
            tasks.append(current)
            current = []
        current.append(row)
        if experiment == "modulus" and row["quantity"] == "W":
            tasks.append(current)
            current = []
    if current:
        tasks.append(current)
    return tasks


def _key(row: dict) -> tuple:
    return tuple(row[f] for f in KEY_FIELDS)


def _values(task: list[dict]) -> dict[str, float]:
    return {row["quantity"]: row["value"] for row in task}


def _nonneg(values: dict[str, float], names) -> bool:
    return all(math.isfinite(values[n]) and values[n] >= 0.0 for n in names)


def task_problem(experiment: str, raw: dict, task: list[dict]) -> str | None:
    """Why one task's rows are wrong, or None."""
    quantities = [row["quantity"] for row in task]
    if "error" in quantities:
        return "error row"
    v = _values(task)
    if experiment == "whitney":
        expected = ["E_r", "Omega"]
        if raw.get("include_p_mean", True):
            expected += ["W", "ratio_E_over_W"]
        expected += ["margin", "ratio_E_over_Omega"]
        if quantities != expected:
            return f"quantities {quantities}"
        if not _nonneg(v, ["E_r", "Omega"]) or not math.isfinite(v["margin"]):
            return "non-finite or negative value"
        if v["margin"] > MARGIN_TOL * (1.0 + v["Omega"]):
            return f"lower-bound margin {v['margin']!r} > {MARGIN_TOL} * (1 + Omega)"
    elif experiment == "johnen":
        head, tail = quantities[:len(JOHNEN_REQUIRED)], quantities[len(JOHNEN_REQUIRED):]
        if head != JOHNEN_REQUIRED or tail != [q for q in JOHNEN_OPTIONAL if q in tail]:
            return f"quantities {quantities}"
        if not _nonneg(v, ["K_lower", "K_upper", "Omega"]):
            return "non-finite or negative value"
        if v["K_lower"] > v["K_upper"] * (1.0 + BRACKET_TOL) + 1e-12:
            return f"bracket inverted: K_lower {v['K_lower']!r} > K_upper {v['K_upper']!r}"
    elif experiment == "modulus":
        dim = len(raw["box"]["lower"])
        subsets = 2 ** dim - 1
        if quantities != ["omega", "w"] * subsets + ["Omega", "W"]:
            return f"quantities {quantities}"
        omegas = [row["value"] for row in task if row["quantity"] == "omega"]
        ws = [row["value"] for row in task if row["quantity"] == "w"]
        if not all(math.isfinite(x) and x >= 0.0 for x in omegas + ws):
            return "non-finite or negative value"
        if not (math.isclose(v["Omega"], sum(omegas), rel_tol=1e-12, abs_tol=ABS_TOL)
                and math.isclose(v["W"], sum(ws), rel_tol=1e-12, abs_tol=ABS_TOL)):
            return "total is not the sum of its subset terms"
    else:
        raise ValueError(f"no output check for experiment {experiment!r}")
    return None


def _same_value(a: float, b: float, rel_tol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=ABS_TOL if rel_tol else 0.0)


def differs(task: list[dict], ref: list[dict], rel_tol: float) -> str | None:
    """How ``task`` differs from the reference task ``ref``, or None."""
    if len(task) != len(ref):
        return f"{len(task)} rows, reference has {len(ref)}"
    for row, want in zip(task, ref):
        for name in KEY_FIELDS + ("quantity",):
            if row[name] != want[name]:
                return f"{name} {row[name]!r}, reference {want[name]!r}"
        if not _same_value(row["value"], want["value"], rel_tol):
            return f"{row['quantity']} {row['value']!r}, reference {want['value']!r}"
    return None


def check_sweep(experiment: str, raw: dict, expected_tasks: int, data: bytes,
                reference: bytes | None = None, rel_tol: float = REL_TOL
                ) -> tuple[int, list[str]]:
    """Failed task count and one problem line per failure for one sweep's CSV."""
    try:
        tasks = split_tasks(experiment, parse_csv(data))
    except (KeyError, ValueError, UnicodeDecodeError) as exc:
        return expected_tasks, [f"unreadable CSV: {exc}"]
    ref_tasks = split_tasks(experiment, parse_csv(reference)) if reference is not None else None
    problems = []
    bad = 0
    for i, task in enumerate(tasks):
        where = f"task {i} ({task[0]['function_id']} r={task[0]['r']} p={task[0]['p']})"
        why = task_problem(experiment, raw, task)
        if why is None and ref_tasks is not None:
            why = differs(task, ref_tasks[i], rel_tol) if i < len(ref_tasks) else "extra task"
        if why is not None:
            bad += 1
            problems.append(f"{where}: {why}")
    missing = abs(len(tasks) - expected_tasks)
    if missing:
        problems.append(f"{len(tasks)} tasks in the output, {expected_tasks} enumerated")
    return min(bad + missing, expected_tasks), problems
