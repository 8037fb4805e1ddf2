import json
import math
import os
import re
import subprocess
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitney_lab import cli, harness
from whitney_lab.harness import (
    CSV_HEADER,
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    ResultRow,
    csv_bytes,
    emit,
    json_bytes,
    run_bestapprox,
    run_johnen,
    run_kfunc,
    run_lemma21,
    run_modulus,
    run_taylor,
    run_whitney,
)
from whitney_lab.geometry import Parallelepiped
from whitney_lab.smoother import BracketViolation

INF = math.inf
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def cli_env() -> dict:
    """The environment of a CLI subprocess: this checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


BASE_CONFIG = {
    "function_ids": ["exp_d1", "poly_d1_deg1"],
    "orders": [[1], [2]],
    "p_values": [2, "inf"],
    "box": {"lower": [0.0], "upper": [1.0]},
    "shrink_levels": 1,
    "t_sweep": 3,
    "resolutions": {"h_grid": 9, "quad_nodes": 16, "sup_nodes": 17, "panel_nodes": 8},
}


def _cfg(**overrides):
    raw = dict(BASE_CONFIG)
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


class TestConfig:
    def test_round_trip_of_inf(self):
        cfg = _cfg(p_values=[1, "inf"])
        assert cfg.p_values == (1.0, INF)

    def test_missing_box_rejected(self):
        raw = dict(BASE_CONFIG)
        del raw["box"]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    def test_unknown_function_rejected(self):
        with pytest.raises(ConfigError):
            _cfg(function_ids=["nope"])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            _cfg(function_ids=["exp_d2"])

    def test_degenerate_box_rejected(self):
        with pytest.raises(ConfigError):
            _cfg(box={"lower": [0.0], "upper": [0.0]})

    def test_order_length_validated(self):
        with pytest.raises(ConfigError):
            _cfg(orders=[[1, 1]])

    def test_p_out_of_range(self):
        with pytest.raises(ConfigError):
            _cfg(p_values=[0.5])

    def test_unknown_resolution_key(self):
        with pytest.raises(ConfigError):
            _cfg(resolutions={"bogus": 3})

    @pytest.mark.parametrize("overrides,key", [
        ({"shrink_levels": "two"}, "shrink_levels"),
        ({"t_sweep": 2.5}, "t_sweep"),
        ({"resolutions": {"h_grid": "x"}}, "resolutions.h_grid"),
        ({"orders": [["a"]]}, "orders"),
        ({"orders": [[2.7]]}, "orders"),
        ({"p_values": [[2]]}, "p_values"),
        ({"t": ["a"]}, "t"),
        ({"t_min_factor": None}, "t_min_factor"),
        ({"jobs": "two"}, "jobs"),
        ({"box": {"lower": ["a"], "upper": [1.0]}}, "box"),
        # bool is an int: JSON true/false used to pass as 1/0
        ({"orders": [[True]]}, "orders"),
        ({"p_values": [True]}, "p_values"),
        ({"jobs": True}, "jobs"),
        ({"t_sweep": True}, "t_sweep"),
        ({"shrink_levels": False}, "shrink_levels"),
        ({"t": [True]}, "t"),
        ({"t_min_factor": True}, "t_min_factor"),
        ({"resolutions": {"h_grid": True}}, "resolutions.h_grid"),
        ({"box": {"lower": [False], "upper": [True]}}, "box"),
        # a numeric string used to be read as its number, a box bound per character
        ({"orders": [["2"]]}, "orders"),
        ({"jobs": "2"}, "jobs"),
        ({"t_sweep": "3"}, "t_sweep"),
        ({"t": ["0.5"]}, "t"),
        ({"resolutions": {"h_grid": "9"}}, "resolutions.h_grid"),
        ({"box": {"lower": "0", "upper": "1"}}, "box"),
        ({"box": {"lower": ["0"], "upper": ["1"]}}, "box"),
        # open() read an int path as a file descriptor; a negative grid ran as automatic
        ({"output": {"path": 7}}, "output.path"),
        ({"output": {"path": True}}, "output.path"),
        ({"resolutions": {"minimax_grid": -4}}, "resolutions.minimax_grid"),
        # these borrowed QuadratureSpec's Gauss/sup-grid message, or had no prefix
        ({"resolutions": {"mean_nodes": 0}}, "resolutions.mean_nodes"),
        ({"resolutions": {"panel_nodes": 0}}, "resolutions.panel_nodes"),
        ({"resolutions": {"h_grid": 1}}, "resolutions.h_grid"),
        # ran serially and exited 0
        ({"jobs": 0}, "jobs"),
    ])
    def test_malformed_value_names_its_key(self, overrides, key):
        # int() / float() failures and silent truncation are config errors
        with pytest.raises(ConfigError, match=f"^{key} |^invalid or missing {key}"):
            _cfg(**overrides)

    @pytest.mark.parametrize("key,value", [
        ("orders", 2), ("dimensions", 1), ("function_ids", "exp_d1"), ("p_values", "inf"),
    ])
    def test_list_key_given_a_scalar_names_its_key(self, key, value):
        # a scalar raised TypeError (exit 1); a string was read per character
        with pytest.raises(ConfigError, match=f"^{key} must be a list, got {value!r}$"):
            _cfg(**{key: value})

    def test_whole_float_order_is_accepted(self):
        assert _cfg(orders=[[2.0]]).orders == ((2,),)

    @pytest.mark.parametrize("overrides,message", [
        ({"shrink_level": 3}, "unknown config keys: ['shrink_level']"),
        ({"subdivision": True, "jobz": 2}, "unknown config keys: ['jobz', 'subdivision']"),
        ({"output": {"path": "x.csv", "fmt": "json"}}, "unknown output keys: ['fmt']"),
        ({"output": "x.csv"}, "output must be a JSON object"),
        ({"resolutions": [9]}, "resolution must be a JSON object"),
    ])
    def test_unknown_key_is_named(self, overrides, message):
        # a misspelt key used to run with its default and exit 0
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            _cfg(**overrides)

    @pytest.mark.parametrize("key", ["include_p_mean", "record_runtime"])
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_non_boolean_flag_names_its_key(self, key, value):
        # bool("false") is True: the string used to switch the option on
        with pytest.raises(ConfigError, match=f"^{key} must be true or false"):
            _cfg(**{key: value})


class TestEmit:
    def _row(self, value=1.5):
        return ResultRow("whitney", "exp_d1", 1, (2,), INF,
                         Parallelepiped([0.0], [1.0]), (0.5,), "E_r", value)

    def test_header_only_for_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit([], str(path), "csv")
        assert path.read_bytes() == (
            b"experiment,function_id,d,r,p,box,t,quantity,value,runtime_ms\n")

    def test_single_row_two_lines(self):
        assert CSV_HEADER.split(",") == list(self._row().fields())  # csv_bytes' column order
        text = csv_bytes([self._row()]).decode()
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert lines[1] == "whitney,exp_d1,1,2,inf,0.0..1.0,0.5,E_r,1.5,0"

    def test_nan_value_serialization(self):
        row = self._row(value=math.nan)
        assert csv_bytes([row]).decode().strip().split("\n")[1].split(",")[8] == "nan"
        assert json.loads(json_bytes([row]))[0]["value"] is None

    def test_json_round_trips_to_same_csv(self):
        rows = [self._row(0.25), self._row(math.nan)]
        parsed = json.loads(json_bytes(rows))
        rebuilt = []
        for rec in parsed:
            value = math.nan if rec["value"] is None else rec["value"]
            lo, hi = zip(*[tuple(map(float, part.split("..")))
                           for part in rec["box"].split("x")])
            rebuilt.append(ResultRow(
                rec["experiment"], rec["function_id"], rec["d"],
                tuple(int(v) for v in rec["r"].split("x")),
                INF if rec["p"] == "inf" else float(rec["p"]),
                Parallelepiped(lo, hi),
                tuple(float(v) for v in rec["t"].split("x")) if rec["t"] else None,
                rec["quantity"], value, rec["runtime_ms"]))
        assert csv_bytes(rebuilt) == csv_bytes(rows)

    def test_deterministic_bytes(self):
        cfg = _cfg()
        a = csv_bytes(run_whitney(cfg).rows)
        b = csv_bytes(run_whitney(cfg).rows)
        assert a == b

    def test_io_error_has_path_context(self, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "out.csv"
        with pytest.raises(RuntimeError, match="out.csv"):
            emit([], str(target), "csv")


@st.composite
def _shared_field_rows(draw):
    """Rows that draw each field from experiment to t from a small pool of
    objects, so that they share some fields and differ in others: boxes and t
    whose entries may be 0.0 or -0.0 (equal values that print differently), t
    of None or with NaN, and values that may be NaN."""
    entry = st.sampled_from([0.0, -0.0, 0.25, math.nan])
    corners = [draw(st.sampled_from([0.0, -0.0])) for _ in range(2)]
    pools = dict(
        experiment=["modulus", "whitney"],
        function_id=["exp_d2", "abspow_d2"],
        r=[(1, 0), (3, 3)],
        p=[draw(st.sampled_from([1.0, 2, 3.5, INF])), draw(st.sampled_from([1.0, 2.0, INF]))],
        box=[Parallelepiped([lo, -1.5], [lo + 1.0, 2.0]) for lo in corners],
        t=[None] + [(draw(entry), 0.5) for _ in range(2)],
    )
    value = st.one_of(st.floats(allow_nan=True), st.just(math.nan), st.just(-0.0))
    rows = []
    for _ in range(draw(st.integers(0, 24))):
        picked = {key: draw(st.sampled_from(pool)) for key, pool in pools.items()}
        rows.append(ResultRow(d=2, quantity=draw(st.sampled_from(["omega", "w", "error"])),
                              value=draw(value), runtime_ms=draw(st.integers(0, 5)), **picked))
    return rows


@settings(max_examples=50, deadline=None)
@given(_shared_field_rows())
def test_csv_bytes_match_per_row_formatting(rows):
    # csv_bytes formats the fields a row shares with another once; its bytes
    # are those of formatting every row on its own
    lines = [CSV_HEADER]
    for row in rows:
        fields = row.fields()
        fields["value"] = "nan" if fields["value"] is None else repr(fields["value"])
        lines.append(",".join(str(v) for v in fields.values()))
    assert csv_bytes(rows) == ("\n".join(lines) + "\n").encode()


class TestRunners:
    def test_whitney_linear_hand_values(self):
        cfg = _cfg(function_ids=["poly_d1_deg1"], orders=[[1]], p_values=["inf"],
                   shrink_levels=0, resolutions={"h_grid": 33, "quad_nodes": 16,
                                                 "sup_nodes": 33})
        rows = run_whitney(cfg).rows
        by_q = {r.quantity: r.value for r in rows}
        assert by_q["E_r"] == pytest.approx(0.5, abs=1e-9)
        assert by_q["Omega"] == pytest.approx(1.0, abs=1e-9)
        # margin Omega - 3 E = -0.5 satisfies the exact lower bound
        assert by_q["margin"] == pytest.approx(-0.5, abs=1e-8)

    def test_whitney_polynomial_ratio_not_applicable(self):
        cfg = _cfg(function_ids=["poly_d1_deg1"], orders=[[2]], p_values=[2],
                   shrink_levels=0)
        rows = run_whitney(cfg).rows
        ratios = [r for r in rows if r.quantity == "ratio_E_over_Omega"]
        assert len(ratios) == 1 and math.isnan(ratios[0].value)

    def test_whitney_rejects_general_p(self):
        with pytest.raises(ConfigError):
            run_whitney(_cfg(p_values=[1.5]))

    def test_whitney_shrink_ratio_stability_exp2d(self):
        # self-measured property: E / Omega stays within a factor 2 of its
        # own median over the halving sweep
        import numpy as np

        cfg = ExperimentConfig.from_dict({
            "function_ids": ["exp_d2"], "orders": [[2, 2]], "p_values": [2],
            "box": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
            "shrink_levels": 6, "include_p_mean": False,
            "resolutions": {"h_grid": 9, "quad_nodes": 16, "sup_nodes": 17},
        })
        ratios = [r.value for r in run_whitney(cfg).rows
                  if r.quantity == "ratio_E_over_Omega"]
        assert len(ratios) == 7 and all(np.isfinite(ratios))
        med = float(np.median(ratios))
        assert all(med / 2 <= v <= 2 * med for v in ratios)

    def test_johnen_rows_and_invariants(self):
        cfg = _cfg(t_sweep=3)
        result = run_johnen(cfg)
        assert not result.hard_failure
        lowers = {((r.function_id), r.r, r.p, r.t): r.value
                  for r in result.rows if r.quantity == "K_lower"}
        uppers = {((r.function_id), r.r, r.p, r.t): r.value
                  for r in result.rows if r.quantity == "K_upper"}
        assert lowers and set(lowers) == set(uppers)
        for key, lo in lowers.items():
            assert lo <= uppers[key] * (1 + 1e-9) + 1e-12
        checks = [r.value for r in result.rows if r.quantity == "ratio_lower_check"
                  and not math.isnan(r.value)]
        assert checks and all(abs(v - 1.0) < 1e-9 for v in checks)

    @pytest.mark.parametrize("runner,overrides,message", [
        (run_lemma21, {"function_ids": ["exp_d2", "sinprod_d2"], "orders": [[2, 2]],
                       "box": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}},
         "lemma21 is univariate, and none of ['exp_d2', 'sinprod_d2'] is a 1-D entry"),
        (run_lemma21, {"function_ids": ["abspow_d1"]},
         "lemma21 needs derivatives, and none of ['abspow_d1'] has them"),
        (run_taylor, {"function_ids": ["abspow_d1"]},
         "taylor needs derivatives, and none of ['abspow_d1'] has them"),
    ], ids=["lemma21-d2", "lemma21-no-derivatives", "taylor-no-derivatives"])
    def test_sweep_selecting_no_entry_is_a_config_error(self, runner, overrides, message):
        # each used to return no rows, which the CLI wrote as a header-only CSV
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            runner(_cfg(**overrides))

    def test_lemma21_filters_dimension_and_tag(self):
        cfg = _cfg(function_ids=["exp_d1", "abspow_d1"], orders=[[2]], p_values=[2])
        rows = run_lemma21(cfg).rows
        assert rows and all(r.function_id == "exp_d1" for r in rows)
        ks = {r.quantity for r in rows}
        assert ks == {"ratio_lemma21_Lp_k0", "ratio_lemma21_sup_k0",
                      "ratio_lemma21_Lp_k1", "ratio_lemma21_sup_k1"}

    def test_taylor_exponential_level0_ratio(self):
        cfg = _cfg(function_ids=["exp_d1"], orders=[[2]], p_values=["inf"],
                   shrink_levels=0, resolutions={"quad_nodes": 16, "sup_nodes": 33})
        rows = run_taylor(cfg).rows
        by_q = {r.quantity: r.value for r in rows}
        assert by_q["taylor_err"] == pytest.approx(math.e - 2.0, abs=1e-10)
        assert by_q["taylor_bound"] == pytest.approx(math.e, rel=1e-12)
        assert by_q["ratio"] == pytest.approx((math.e - 2.0) / math.e, abs=1e-10)

    def test_modulus_subcommand_masks_r_column(self):
        cfg = _cfg(function_ids=["exp_d1"], orders=[[2]], p_values=[2], t=[0.5])
        rows = run_modulus(cfg).rows
        quantities = [(r.quantity, r.r) for r in rows]
        assert ("omega", (2,)) in quantities
        assert ("Omega", (2,)) in quantities
        assert ("w", (2,)) in quantities and ("W", (2,)) in quantities

    def test_bestapprox_and_kfunc_single_eval(self):
        cfg = _cfg(function_ids=["poly_d1_deg1"], orders=[[1]], p_values=[2])
        rows = run_bestapprox(cfg).rows
        assert len(rows) == 1 and rows[0].quantity == "E_r"
        assert rows[0].value == pytest.approx((1 / 12) ** 0.5, rel=1e-10)
        krows = run_kfunc(cfg).rows
        assert {r.quantity for r in krows} == {"K_lower", "K_upper"}

    def test_parallel_jobs_preserve_output(self):
        cfg = _cfg()
        seq = csv_bytes(run_whitney(cfg).rows)
        import dataclasses

        par = csv_bytes(run_whitney(dataclasses.replace(cfg, jobs=2)).rows)
        assert seq == par

    def test_failing_row_degrades_gracefully(self, monkeypatch):
        # a solver failure inside one combination yields an error row and the
        # sweep carries on
        from whitney_lab import harness
        from whitney_lab.simplex import SimplexError

        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise SimplexError("synthetic failure")
            return original(*args, **kwargs)

        original = harness.best_approx
        monkeypatch.setattr(harness, "best_approx", flaky)
        cfg = _cfg(function_ids=["exp_d1"], orders=[[1], [2]], p_values=[2],
                   shrink_levels=0)
        result = run_whitney(cfg)
        assert not result.hard_failure  # solver trouble is soft, not a margin breach
        errors = [r for r in result.rows if r.quantity == "error"]
        assert len(errors) == 1 and math.isnan(errors[0].value)
        assert any(r.quantity == "E_r" for r in result.rows)

    def test_failing_row_at_shrink_level_carries_its_box(self, monkeypatch):
        # an error row at shrink level 1 names the halved box and its size, so
        # it cannot be mistaken for a failure at level 0
        from whitney_lab import harness
        from whitney_lab.simplex import SimplexError

        def flaky(f, r, p, box, *args, **kwargs):
            if box.size()[0] < 1.0:
                raise SimplexError("synthetic failure")
            return original(f, r, p, box, *args, **kwargs)

        original = harness.best_approx
        monkeypatch.setattr(harness, "best_approx", flaky)
        cfg = _cfg(function_ids=["exp_d1"], orders=[[1]], p_values=[2],
                   shrink_levels=1)
        result = run_whitney(cfg)
        assert not result.hard_failure
        errors = [r for r in result.rows if r.quantity == "error"]
        assert len(errors) == 1 and math.isnan(errors[0].value)
        assert errors[0].box == Parallelepiped([0.0], [0.5])
        assert errors[0].t == (0.5,)
        level0 = [r for r in result.rows if r.quantity == "E_r"]
        assert len(level0) == 1 and level0[0].box == cfg.box and level0[0].t == (1.0,)


    @pytest.mark.parametrize("runner,target,expected_t", [
        # the first step of the log t-sweep: t_min_factor * size / (4 r^2)
        (run_johnen, "k_functional_bracket", (0.01 / 16.0,)),
        (run_kfunc, "k_functional_bracket", (1.0 / 16.0,)),  # the smoother's bound
        (run_modulus, "modulus", (1.0,)),  # t unset: the box size
    ])
    def test_failing_row_carries_the_step_it_ran(self, monkeypatch, runner, target,
                                                 expected_t):
        # an error row of a t-sweep names the step its task ran at, the one
        # the task's other rows carry, not the unset cfg.t
        from whitney_lab import harness

        def failing(*args, **kwargs):
            raise ValueError("synthetic failure")

        cfg = _cfg(function_ids=["exp_d1"], orders=[[2]], p_values=[2], t_sweep=2)
        assert cfg.t is None
        ok_rows = runner(cfg).rows
        monkeypatch.setattr(harness, target, failing)
        result = runner(cfg)
        errors = [r for r in result.rows if r.quantity == "error"]
        assert len(errors) == len({r.t for r in ok_rows}) and not result.hard_failure
        assert [r.t for r in errors] == sorted({r.t for r in ok_rows})
        assert errors[0].t == pytest.approx(expected_t, rel=1e-15)
        assert all(r.box == cfg.box for r in errors)

    def test_nan_valued_function_gives_error_rows_not_zero_moduli(self, monkeypatch):
        # a NaN norm raises FloatingPointError, an ArithmeticError: every
        # modulus task becomes one error row, never an Omega of 0
        import numpy as np

        from whitney_lab.functions import FunctionSpec

        nan_tail = FunctionSpec("nan_tail_d1", 1, (3,),
                                lambda c: np.where(c[0] > 0.9, np.nan, c[0]))
        cfg = _cfg(function_ids=["exp_d1"], orders=[[1]], p_values=[1, 2, "inf"],
                   shrink_levels=0, t=[0.5])
        monkeypatch.setattr(harness, "get_function", lambda fid: nan_tail)
        result = run_modulus(cfg)
        assert [r.quantity for r in result.rows] == ["error"] * 3
        assert not result.hard_failure


class TestGroupedOrder:
    """The runner runs the p values of each (function, order, frame) back to
    back, so that they share the memos, and writes the rows in config order:
    the bytes of every task run alone, on empty memos, in config order."""

    RES = {"h_grid": 5, "quad_nodes": 8, "sup_nodes": 9, "panel_nodes": 4,
           "mean_nodes": 4, "minimax_grid": 9}
    D1 = {"function_ids": ["exp_d1", "abspow_d1"], "orders": [[1], [2]],
          "box": {"lower": [0.0], "upper": [1.0]}}
    D2 = {"function_ids": ["sinprod_d2", "abspow_d2"], "orders": [[1, 2]],
          "box": {"lower": [0.0, 0.1], "upper": [1.0, 0.9]}}

    def _config(self, dims):
        return ExperimentConfig.from_dict({
            **dims, "p_values": [1, 2, "inf"], "shrink_levels": 1, "t_sweep": 2,
            "resolutions": self.RES})

    @pytest.mark.parametrize("dims", ["D1", "D2"])
    @pytest.mark.parametrize("experiment", ["johnen", "kfunc", "modulus", "whitney"])
    def test_rows_are_the_bytes_of_each_task_alone(self, experiment, dims, cold_memos):
        import dataclasses

        cfg = self._config(getattr(self, dims))
        tasks, alone = harness._enumerate_tasks(experiment, cfg), []
        for task in tasks:
            cold_memos()
            alone += harness._run_task(task)[0]
        cold_memos()
        grouped = EXPERIMENTS[experiment](cfg)
        assert grouped.tasks == len(tasks) and not grouped.hard_failure
        assert csv_bytes(grouped.rows) == csv_bytes(alone)
        parallel = EXPERIMENTS[experiment](dataclasses.replace(cfg, jobs=2))
        assert csv_bytes(parallel.rows) == csv_bytes(alone)

    @pytest.mark.parametrize("experiment", ["johnen", "whitney"])
    def test_each_frame_runs_its_p_values_back_to_back(self, experiment, monkeypatch):
        ran = []
        run_task = harness._run_task

        def recorded(task):
            ran.append(task)
            return run_task(task)

        monkeypatch.setattr(harness, "_run_task", recorded)
        cfg = self._config(self.D1)
        rows = EXPERIMENTS[experiment](cfg).rows
        # 2 functions x 2 orders x 2 frames, each with its 3 p values in config order
        assert len(ran) == 24
        for start in range(0, len(ran), 3):
            group = ran[start:start + 3]
            assert [task[4] for task in group] == [1.0, 2.0, INF]
            assert len({(task[2], task[3], task[5], task[6]) for task in group}) == 1
        # the rows keep config order: p before the frame
        assert [row.p for row in rows if row.quantity == "Omega"][:4] == [1.0, 1.0, 2.0, 2.0]


class TestCli:
    def _write_config(self, tmp_path, **overrides):
        raw = dict(BASE_CONFIG)
        raw.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return path

    @pytest.fixture(autouse=True)
    def _in_process(self, monkeypatch, capsys):
        self._monkeypatch, self._capsys = monkeypatch, capsys

    def _run(self, *args, env_extra=None):
        """``cli.main`` in this process: its exit code and what it wrote to stderr."""
        for key, value in (env_extra or {}).items():
            self._monkeypatch.setenv(key, value)
        code = cli.main(list(args))
        return types.SimpleNamespace(returncode=code, stderr=self._capsys.readouterr().err)

    def test_whitney_runs_and_is_deterministic(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        ra = self._run("whitney", "--config", str(cfg), "--out", str(out_a))
        rb = self._run("whitney", "--config", str(cfg), "--out", str(out_b))
        assert ra.returncode == 0 and rb.returncode == 0, ra.stderr
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_jobs_flag_keeps_johnen_bytes(self, tmp_path):
        cfg = self._write_config(
            tmp_path, function_ids=["exp_d2", "abspow_d2"], orders=[[1, 1]],
            p_values=[1, "inf"], box={"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
            t_sweep=2, resolutions={"h_grid": 5, "quad_nodes": 8, "sup_nodes": 9,
                                    "panel_nodes": 4})
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.csv"
            res = self._run("johnen", "--config", str(cfg), "--out", str(out),
                            "--jobs", jobs)
            assert res.returncode == 0, res.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] and outs[0].count(b"\njohnen,abspow_d2,") == 2 * 2 * 8

    def test_harness_import_leaves_multiprocessing_out(self):
        # only --jobs > 1 needs the process pool; a serial run does not pay its import
        code = "import sys, whitney_lab.harness; print('multiprocessing' in sys.modules)"
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=cli_env())
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"

    def test_whitney_sweep_runs_without_scipy(self, tmp_path):
        # numpy is the only runtime dependency: the fits (minimax and weighted
        # L1) run their own simplex, with scipy made unimportable
        cfg = self._write_config(tmp_path, function_ids=["exp_d1"], orders=[[2]],
                                 p_values=[1], shrink_levels=0)
        out = tmp_path / "noscipy.csv"
        code = ("import sys; sys.modules['scipy'] = None\n"
                "from whitney_lab import cli\n"
                f"sys.exit(cli.main(['whitney', '--config', {str(cfg)!r}, '--out', {str(out)!r}]))")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=cli_env())
        assert res.returncode == 0, res.stderr
        lines = out.read_text().splitlines()
        assert len(lines) > 1 and not any(",error," in line for line in lines)
        assert any(",E_r," in line for line in lines)

    def test_json_format_flag(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "rows.json"
        res = self._run("bestapprox", "--config", str(cfg), "--out", str(out),
                        "--format", "json")
        assert res.returncode == 0, res.stderr
        records = json.loads(out.read_text())
        assert records and records[0]["experiment"] == "bestapprox"

    def test_config_error_exit_code_2(self, tmp_path):
        # through ``python -m whitney_lab.cli``: the process exits with main's code
        path = tmp_path / "bad.json"
        path.write_text('{"function_ids": ["exp_d1"]}')
        res = subprocess.run([sys.executable, "-m", "whitney_lab.cli", "whitney",
                              "--config", str(path), "--out", str(tmp_path / "x.csv")],
                             capture_output=True, text=True, env=cli_env())
        assert res.returncode == 2
        assert "config error" in res.stderr

    @pytest.mark.parametrize("overrides", [
        {"box": {"lower": [0.0], "upper": [float("nan")]}},
        {"box": {"lower": [0.0], "upper": [float("inf")]}},
        {"box": {"lower": [float("-inf")], "upper": [1.0]}},
        {"shrink_levels": -1},
        {"t_sweep": 0},
        {"resolutions": {"h_grid": 1}},
        {"resolutions": {"quad_nodes": 0}},
        {"resolutions": {"sup_nodes": 1}},
        {"resolutions": {"mean_nodes": 0}},
        {"resolutions": {"panel_nodes": 0}},
        {"t": [float("nan")]},
        {"t": [float("inf")]},
        {"t_min_factor": float("nan")},
        {"t_min_factor": float("inf")},
        {"t_min_factor": 0.0},
        {"t_min_factor": -1.0},
        {"shrink_levels": "two"},
        {"resolutions": {"h_grid": "x"}},
        {"orders": [["a"]]},
        {"orders": [[2.7]]},
        {"box": {"lower": ["a"], "upper": [1.0]}},
        {"shrink_level": 3},
        {"subdivision": True},
        {"output": {"fmt": "json"}},
        {"record_runtime": "false"},
        {"include_p_mean": 1},
        {"orders": [[True]]},
        {"p_values": [True]},
        {"jobs": True},
        {"t_sweep": True},
        {"shrink_levels": False},
        {"t": [True]},
        {"box": {"lower": [False], "upper": [True]}},
        {"orders": [["2"]]},
        {"jobs": "2"},
        {"t_sweep": "3"},
        {"t": ["0.5"]},
        {"resolutions": {"h_grid": "9"}},
        {"box": {"lower": "0", "upper": "1"}},
        {"box": {"lower": ["0"], "upper": ["1"]}},
        {"orders": 2},
        {"dimensions": 1},
        {"output": {"path": 7}},
        {"output": {"path": True}},
        {"resolutions": {"minimax_grid": -4}},
    ], ids=["box-nan", "box-inf", "box-neg-inf", "shrink-levels-negative", "t-sweep-zero",
            "h-grid-1", "quad-nodes-0", "sup-nodes-1", "mean-nodes-0", "panel-nodes-0",
            "t-nan", "t-inf", "t-min-factor-nan", "t-min-factor-inf", "t-min-factor-0",
            "t-min-factor-negative", "shrink-levels-str", "h-grid-str", "order-str",
            "order-fraction", "box-str", "unknown-key", "deleted-subdivision-key",
            "unknown-output-key", "record-runtime-str", "include-p-mean-int", "order-bool",
            "p-bool", "jobs-bool", "t-sweep-bool", "shrink-levels-bool", "t-bool",
            "box-bool", "order-numeric-str", "jobs-numeric-str", "t-sweep-numeric-str",
            "t-numeric-str", "h-grid-numeric-str", "box-bound-str", "box-entry-numeric-str",
            "orders-scalar", "dimensions-scalar", "output-path-int", "output-path-bool",
            "minimax-grid-negative"])
    def test_bad_config_value_exit_code_2(self, tmp_path, overrides):
        # each of these used to run (NaN/inf box, a truncated order), give an
        # empty sweep, or exit 1 with a traceback (a malformed number)
        cfg = self._write_config(tmp_path, **overrides)
        res = self._run("whitney", "--config", str(cfg), "--out",
                        str(tmp_path / "x.csv"))
        assert res.returncode == 2
        assert "config error" in res.stderr

    @pytest.mark.parametrize("experiment,overrides", [
        ("lemma21", {"function_ids": ["exp_d2"], "orders": [[2, 2]],
                     "box": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}}),
        ("taylor", {"function_ids": ["abspow_d1"]}),
    ], ids=["lemma21-d2", "taylor-no-derivatives"])
    def test_sweep_selecting_no_entry_exit_code_2(self, tmp_path, experiment, overrides):
        # both wrote a header-only CSV and exited 0
        cfg = self._write_config(tmp_path, **overrides)
        out = tmp_path / "x.csv"
        res = self._run(experiment, "--config", str(cfg), "--out", str(out))
        assert res.returncode == 2
        assert res.stderr.startswith(f"config error: {experiment} ")
        assert not out.exists()

    def test_threads_env_fallback(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "env.csv"
        res = self._run("whitney", "--config", str(cfg), "--out", str(out),
                        env_extra={"WHITNEY_LAB_THREADS": "2"})
        assert res.returncode == 0, res.stderr
        assert out.exists()

    def test_bad_threads_env_exit_code_2(self, tmp_path):
        cfg = self._write_config(tmp_path)
        res = self._run("whitney", "--config", str(cfg), "--out", str(tmp_path / "x.csv"),
                        env_extra={"WHITNEY_LAB_THREADS": "two"})
        assert res.returncode == 2
        assert "config error: WHITNEY_LAB_THREADS" in res.stderr

    @pytest.mark.parametrize("flag,env,source", [
        (["--jobs", "0"], {}, "--jobs"),
        ([], {"WHITNEY_LAB_THREADS": "0"}, "WHITNEY_LAB_THREADS"),
    ], ids=["flag", "env"])
    def test_jobs_below_one_exit_code_2(self, tmp_path, flag, env, source):
        # each ran serially and exited 0
        cfg = self._write_config(tmp_path)
        res = self._run("whitney", "--config", str(cfg), "--out", str(tmp_path / "x.csv"),
                        *flag, env_extra=env)
        assert res.returncode == 2
        assert f"config error: {source} must be >= 1, got 0" in res.stderr

    def test_missing_output_path_is_config_error(self, tmp_path):
        cfg = self._write_config(tmp_path)
        res = self._run("whitney", "--config", str(cfg))
        assert res.returncode == 2

    def test_unwritable_output_path_exit_code_2(self, tmp_path):
        # emit's RuntimeError used to end in a traceback and exit 1
        cfg = self._write_config(tmp_path, orders=[[1]], p_values=[2])
        out = tmp_path / "missing" / "x.csv"
        res = self._run("bestapprox", "--config", str(cfg), "--out", str(out))
        assert res.returncode == 2
        assert res.stderr.startswith(f"error: cannot write output file {out}: ")
        assert res.stderr.count("\n") == 1  # one line, no traceback


class TestHardFailures:
    """A hard failure gives ``hard_failure`` and CLI exit code 1."""

    def _cli(self, tmp_path, experiment, **overrides):
        raw = dict(BASE_CONFIG)
        raw.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return cli.main([experiment, "--config", str(path), "--out",
                         str(tmp_path / "out.csv"), "--jobs", "1"])

    @pytest.mark.parametrize("experiment", ["johnen", "kfunc"])
    def test_bracket_violation_is_one_hard_error_row_per_task(self, monkeypatch, tmp_path,
                                                               experiment):
        def violated(*args, **kwargs):
            raise BracketViolation("synthetic violation")

        monkeypatch.setattr(harness, "k_functional_bracket", violated)
        overrides = dict(function_ids=["exp_d1"], orders=[[1], [2]], p_values=[2], t_sweep=2)
        cfg = _cfg(**overrides)
        result = EXPERIMENTS[experiment](cfg)
        assert result.hard_failure
        n_tasks = len(harness._enumerate_tasks(experiment, cfg))
        assert n_tasks > 1 and [r.quantity for r in result.rows] == ["error"] * n_tasks
        assert self._cli(tmp_path, experiment, **overrides) == 1

    def test_whitney_margin_breach_is_hard(self, monkeypatch, tmp_path):
        # with a zero constant the margin is Omega > 0, which breaks the lower bound
        monkeypatch.setattr(harness, "whitney_constant_sum", lambda r: 0.0)
        overrides = dict(function_ids=["exp_d1"], orders=[[2]], p_values=[2], shrink_levels=0)
        result = run_whitney(_cfg(**overrides))
        assert result.hard_failure
        assert [r.value > 0 for r in result.rows if r.quantity == "margin"] == [True]
        assert self._cli(tmp_path, "whitney", **overrides) == 1


class TestUnverifiedTasks:
    """A hard-checked task that fails before its check runs is counted as
    unverified and gives CLI exit code 3; a hard failure still gives 1."""

    OVERRIDES = dict(function_ids=["exp_d1"], orders=[[1], [2]], p_values=[2],
                     shrink_levels=0, t_sweep=2)

    def _cli(self, tmp_path, capsys, experiment):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(BASE_CONFIG, **self.OVERRIDES)))
        code = cli.main([experiment, "--config", str(path), "--out",
                         str(tmp_path / "out.csv"), "--jobs", "1"])
        return code, capsys.readouterr().err

    def test_failed_fit_leaves_whitney_unverified(self, monkeypatch, tmp_path, capsys):
        from whitney_lab.simplex import SimplexError

        original, calls = harness.best_approx, []

        def fail_first(*args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                raise SimplexError("synthetic failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "best_approx", fail_first)
        result = run_whitney(_cfg(**self.OVERRIDES))
        assert (result.unverified, result.tasks, result.hard_failure) == (1, 2, False)
        calls.clear()
        code, err = self._cli(tmp_path, capsys, "whitney")
        assert code == 3 and "1 of 2 tasks unverified" in err

    @pytest.mark.parametrize("experiment", ["johnen", "kfunc"])
    def test_failed_bracket_leaves_its_task_unverified(self, monkeypatch, tmp_path, capsys,
                                                       experiment):
        def failing(*args, **kwargs):
            raise ValueError("synthetic failure")

        monkeypatch.setattr(harness, "k_functional_bracket", failing)
        cfg = _cfg(**self.OVERRIDES)
        n_tasks = len(harness._enumerate_tasks(experiment, cfg))
        result = EXPERIMENTS[experiment](cfg)
        assert (result.unverified, result.tasks, result.hard_failure) == (n_tasks, n_tasks, False)
        code, err = self._cli(tmp_path, capsys, experiment)
        assert code == 3 and f"{n_tasks} of {n_tasks} tasks unverified" in err

    def test_hard_failure_takes_precedence(self, monkeypatch, tmp_path, capsys):
        calls = []

        def violated_then_failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                raise BracketViolation("synthetic violation")
            raise ValueError("synthetic failure")

        monkeypatch.setattr(harness, "k_functional_bracket", violated_then_failing)
        code, err = self._cli(tmp_path, capsys, "johnen")
        assert code == 1 and "unverified" not in err
        calls.clear()
        result = run_johnen(_cfg(**self.OVERRIDES))
        assert result.hard_failure and result.unverified == result.tasks - 1

    def test_unchecked_experiment_has_no_unverified_task(self, monkeypatch, tmp_path, capsys):
        def failing(*args, **kwargs):
            raise ValueError("synthetic failure")

        monkeypatch.setattr(harness, "modulus", failing)
        result = run_modulus(_cfg(**self.OVERRIDES))
        assert result.unverified == 0 and result.tasks == 2
        assert self._cli(tmp_path, capsys, "modulus")[0] == 0


class _QuarterSecondClock:
    """Stands in for the ``time`` module: each read advances 0.25 s."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        self.now += 0.25
        return self.now


@pytest.mark.parametrize("experiment,target", [
    ("whitney", "best_approx"),
    ("johnen", "k_functional_bracket"),
    ("taylor", "taylor_poly"),
    ("lemma21", "derivative_inequality_ratios"),
    ("modulus", "modulus"),
    ("bestapprox", "best_approx"),
    ("kfunc", "k_functional_bracket"),
])
def test_record_runtime_stamps_every_row_with_its_task_time(monkeypatch, experiment, target):
    # the first call of ``target`` fails, so the first task is one error row
    original = getattr(harness, target)
    calls = []

    def fail_first(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise ValueError("synthetic failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, target, fail_first)
    monkeypatch.setattr(harness, "time", _QuarterSecondClock())
    cfg = _cfg(function_ids=["exp_d1"], orders=[[2]], p_values=[2, "inf"], shrink_levels=1,
               t_sweep=2, record_runtime=True)
    rows = EXPERIMENTS[experiment](cfg).rows
    assert [r.quantity for r in rows].count("error") == 1
    by_task = {}
    for row in rows:  # one function and one order: (p, box, t) names the task
        by_task.setdefault((row.p, row.box, row.t), set()).add(row.runtime_ms)
    assert len(by_task) > 1
    for key, runtimes in by_task.items():
        assert len(runtimes) == 1 and min(runtimes) > 0, (key, runtimes)
