"""Benchmark workloads: seed -> experiment config, and the task enumeration.

Every workload is a d = 2 sweep over the same four corpus functions, run with
``jobs = 1`` through the public runners.  Seed 0 is the canonical config (unit
box, functions in the order below).  Any other seed moves the box corner and
each side length by at most ``BOX_JITTER * BOX_STEP`` (about 0.002) and
permutes the function ids; the program only ever sees the generated config.

The range is this small on purpose: the dense simplex's pivot count depends
on the data.  With moves of up to 1/32, whitney-lp sweeps took 2.6 to 7.0 s
across eight seeds; with moves of up to 1/512 the pivot count of the largest
LPs stays within about 4% of the unit box's.
"""

from __future__ import annotations

import copy
import random

FUNCTION_IDS = ("exp_d2", "sinprod_d2", "runge_d2", "abspow_d2")
DEFAULT_SEED = 0
BOX_STEP = 1.0 / 1024.0
BOX_JITTER = 2  # corner and side move by at most BOX_JITTER * BOX_STEP per axis

# name -> (experiment, config without box and function_ids)
WORKLOADS = {
    # LP path: minimax / weighted-L1 fits through the dense simplex
    "whitney-lp": ("whitney", {
        "orders": [[1, 1], [2, 2], [3, 3]],
        "p_values": [1, "inf"],
        "include_p_mean": False,
        "shrink_levels": 0,
        "resolutions": {"h_grid": 9, "quad_nodes": 20, "sup_nodes": 33,
                        "minimax_grid": 13},
    }),
    # sup-type and p-mean moduli at large steps; no LP, no smoother
    "moduli": ("modulus", {
        "orders": [[1, 2], [3, 3]],
        "p_values": [1, 2, "inf"],
        "t": [0.5, 0.5],
        "resolutions": {"h_grid": 17, "quad_nodes": 24, "sup_nodes": 33,
                        "mean_nodes": 12},
    }),
    # K-functional brackets: B-spline stencil evaluator plus small-step moduli
    "johnen-bracket": ("johnen", {
        "orders": [[1, 1], [2, 2]],
        "p_values": [1, 2, "inf"],
        "t_sweep": 2,
        "resolutions": {"h_grid": 9, "quad_nodes": 24, "sup_nodes": 33,
                        "panel_nodes": 10},
    }),
}


def make_config(name: str, seed: int = DEFAULT_SEED) -> tuple[str, dict]:
    """The experiment name and the raw JSON config of workload ``name`` at ``seed``."""
    experiment, base = WORKLOADS[name]
    raw = copy.deepcopy(base)
    ids = list(FUNCTION_IDS)
    lower, upper = [0.0, 0.0], [1.0, 1.0]
    if seed != DEFAULT_SEED:
        rng = random.Random(f"{name}/{seed}")
        for i in range(2):
            lower[i] = rng.randint(-BOX_JITTER, BOX_JITTER) * BOX_STEP
            side = 1.0 + rng.randint(-BOX_JITTER, BOX_JITTER) * BOX_STEP
            upper[i] = lower[i] + side
        rng.shuffle(ids)
    raw["function_ids"] = ids
    raw["box"] = {"lower": lower, "upper": upper}
    raw["jobs"] = 1
    return experiment, raw


def task_count(experiment: str, raw: dict) -> int:
    """Number of ``(function_id, r, p, step)`` tasks the harness enumerates."""
    if experiment == "whitney":
        steps = int(raw.get("shrink_levels", 0)) + 1
    elif experiment == "johnen":
        steps = int(raw.get("t_sweep", 12))
    else:
        steps = 1
    return len(raw["function_ids"]) * len(raw["orders"]) * len(raw["p_values"]) * steps
