from pathlib import Path

import pytest

import outcheck
from workloads import WORKLOADS, make_config, task_count

REFERENCE = Path(__file__).resolve().parents[1] / "reference"


def _load(name):
    experiment, raw = make_config(name)
    return experiment, raw, task_count(experiment, raw), (REFERENCE / f"{name}.csv").read_bytes()


def _edit(data: bytes, match, change) -> bytes:
    """Apply ``change`` to the first CSV line (as field list) for which ``match`` holds."""
    lines = data.decode().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if match(fields):
            lines[i] = ",".join(change(fields))
            return ("\n".join(lines) + "\n").encode()
    raise AssertionError("no line matched")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_passes_its_own_check(name):
    experiment, raw, tasks, data = _load(name)
    assert outcheck.check_sweep(experiment, raw, tasks, data, data) == (0, [])
    assert outcheck.check_sweep(experiment, raw, tasks, data, data, rel_tol=0.0) == (0, [])


def test_flipped_margin_sign_is_rejected():
    experiment, raw, tasks, data = _load("whitney-lp")
    doctored = _edit(data, lambda f: f[7] == "margin" and float(f[8]) < -1e-3,
                     lambda f: f[:8] + [repr(-float(f[8]))] + f[9:])
    failed, problems = outcheck.check_sweep(experiment, raw, tasks, doctored)
    assert failed == 1 and "margin" in problems[0]


def test_inverted_bracket_is_rejected():
    experiment, raw, tasks, data = _load("johnen-bracket")
    doctored = _edit(data, lambda f: f[7] == "K_lower" and float(f[8]) > 0,
                     lambda f: f[:8] + [repr(1e6)] + f[9:])
    failed, problems = outcheck.check_sweep(experiment, raw, tasks, doctored)
    assert failed == 1 and "bracket inverted" in problems[0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_error_row_is_rejected(name):
    experiment, raw, tasks, data = _load(name)
    doctored = _edit(data, lambda f: True, lambda f: f[:7] + ["error", "nan"] + f[9:])
    failed, problems = outcheck.check_sweep(experiment, raw, tasks, doctored, data)
    assert failed >= 1 and any("error row" in p for p in problems)


def _scaled(data, quantity, factor):
    return _edit(data, lambda f: f[7] == quantity and float(f[8]) > 1e-3,
                 lambda f: f[:8] + [repr(float(f[8]) * factor)] + f[9:])


@pytest.mark.parametrize("name,quantity", [("whitney-lp", "E_r"),
                                           ("johnen-bracket", "K_upper")])
def test_changed_value_is_rejected_beyond_the_tolerance_only(name, quantity):
    experiment, raw, tasks, data = _load(name)
    failed, problems = outcheck.check_sweep(
        experiment, raw, tasks, _scaled(data, quantity, 1 + 1e-4), data)
    assert failed == 1 and "reference" in problems[0]
    nudged = _scaled(data, quantity, 1 + 1e-9)
    assert outcheck.check_sweep(experiment, raw, tasks, nudged, data) == (0, [])
    assert outcheck.check_sweep(experiment, raw, tasks, nudged, data, rel_tol=0.0)[0] == 1


def test_changed_modulus_term_breaks_its_total():
    experiment, raw, tasks, data = _load("moduli")
    failed, problems = outcheck.check_sweep(
        experiment, raw, tasks, _scaled(data, "omega", 1 + 1e-9))
    assert failed == 1 and "sum" in problems[0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_missing_task_is_counted(name):
    experiment, raw, tasks, data = _load(name)
    first_task = outcheck.split_tasks(experiment, outcheck.parse_csv(data))[0]
    lines = data.decode().splitlines()
    doctored = ("\n".join([lines[0]] + lines[1 + len(first_task):]) + "\n").encode()
    failed, problems = outcheck.check_sweep(experiment, raw, tasks, doctored)
    assert failed == 1
    assert problems == [f"{tasks - 1} tasks in the output, {tasks} enumerated"]


def test_unreadable_output_fails_every_task():
    experiment, raw, tasks, _ = _load("moduli")
    assert outcheck.check_sweep(experiment, raw, tasks, b"garbage\n1,2\n")[0] == tasks
