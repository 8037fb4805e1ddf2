"""whitney-lab benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload whitney-lp|moduli|johnen-bracket
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each sweep runs in a fresh worker process
(cold caches, as a CLI user sees them) with one BLAS/OpenMP thread.  Rounds
repeat until the next one would end after ``--seconds``; every sweep's output
is checked (``outcheck``) and medians are reported.

``--trace 0``: a round is a set-up probe plus an untraced sweep; reports
``setup_s``, ``sweep_s`` and ``peak_rss_mb``.  ``--trace 1``: a round is an
untraced plus a traced sweep; reports the per-layer metrics of the traced
sweeps and ``trace.overhead_frac``.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 1 when
an output check fails, 2 when the checkout holds no whitney_lab sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import outcheck
import spantrace
from workloads import DEFAULT_SEED, WORKLOADS, make_config, task_count

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_DIR = ROOT / ".bench_out"
HARD_LIMIT_S = 170.0  # no worker may run past this point of the run
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "sweep_s": "s", "peak_rss_mb": "MiB"}


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))


class Bench:
    """Runs and checks the sweeps of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 reference: bytes | None):
        self.seconds = seconds
        self.trace = trace
        self.experiment, self.raw = make_config(workload, seed)
        self.tasks = task_count(self.experiment, self.raw)
        self.started = time.monotonic()
        self.dir = WORK_DIR / f"{workload}-seed{seed}-{os.getpid()}"
        self.csv_path = self.dir / "rows.csv"
        self.config_path = self.dir / "config.json"
        self.spans_path = WORK_DIR / f"spans-{workload}-seed{seed}.json"
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH_DIR)]),
                        **{var: "1" for var in THREAD_VARS})
        self.reference = reference
        self.first_csv: bytes | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def worker(self, mode: str) -> tuple[dict | None, int]:
        """One worker process: its JSON report (None if it crashed) and exit code."""
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--config", str(self.config_path),
               "--experiment", self.experiment, "--mode", mode]
        if mode == "trace":
            cmd += ["--spans", str(self.spans_path)]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, HARD_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            self.problems.append(f"{mode} worker timed out")
            return None, -1
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            self.problems.append(f"{mode} worker exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-2000:]}")
            return None, proc.returncode
        report["setup_s"] = report["parsed_at"] - spawned
        return report, proc.returncode

    def sweep(self, mode: str) -> dict | None:
        """One sweep, checked; its report, or None when it produced nothing usable."""
        self.attempted += self.tasks
        self.csv_path.unlink(missing_ok=True)
        report, code = self.worker(mode)
        if report is None or not self.csv_path.exists():
            self.failed += self.tasks
            self.problems.append(f"{mode} sweep wrote no output")
            return None
        data = self.csv_path.read_bytes()
        failed, problems = outcheck.check_sweep(
            self.experiment, self.raw, self.tasks, data, self.reference)
        if self.first_csv is None:
            self.first_csv = data
        elif data != self.first_csv:
            # every sweep of one commit must write the same bytes (same sha256)
            more, diff = outcheck.check_sweep(
                self.experiment, self.raw, self.tasks, data, self.first_csv, rel_tol=0.0)
            failed = max(failed, more, 1)
            problems += [f"not byte-identical to the first sweep: {p}" for p in diff]
        if code != 0 or report["hard_failure"]:
            failed = self.tasks
            problems.append(f"exit code {code}, hard_failure {report['hard_failure']}")
        self.failed += failed
        self.problems += [f"{mode} sweep: {p}" for p in problems]
        return report

    def prepare(self) -> None:
        """Write the generated config, with the sweeps' output path, for the workers."""
        self.dir.mkdir(parents=True, exist_ok=True)
        raw = dict(self.raw, output={"path": str(self.csv_path), "format": "csv"})
        self.config_path.write_text(json.dumps(raw, indent=1))

    def rounds(self) -> tuple[dict, dict[str, list[dict]]]:
        """The environment and every successful worker report, by mode."""
        self.prepare()
        probe, _ = self.worker("setup")  # untimed: also writes the bytecode caches
        env = probe["env"] if probe else {}
        modes = ("sweep", "trace") if self.trace else ("setup", "sweep")
        reports: dict[str, list[dict]] = {mode: [] for mode in modes}
        measure_start = self.elapsed()
        longest = 0.0
        while True:
            began = self.elapsed()
            for mode in modes:
                report = self.worker(mode)[0] if mode == "setup" else self.sweep(mode)
                if report is not None:
                    reports[mode].append(report)
            longest = max(longest, self.elapsed() - began)
            if self.elapsed() + longest > measure_start + self.seconds:
                return env, reports


def end_to_end(reports: dict[str, list[dict]]) -> dict[str, float]:
    workers = reports["setup"] + reports["sweep"]
    sweeps = reports["sweep"]
    if not sweeps:
        return {}
    return {
        "setup_s": statistics.median(r["setup_s"] for r in workers),
        "sweep_s": statistics.median(r["sweep_s"] for r in sweeps),
        "peak_rss_mb": statistics.median(r["rss_mib"] for r in sweeps),
    }


def per_layer(reports: dict[str, list[dict]]) -> dict[str, float]:
    traced, plain = reports["trace"], reports["sweep"]
    if not traced or not plain:
        return {}
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in spantrace.LAYER_UNITS if name != "trace.overhead_frac"}
    plain_s = statistics.median(r["sweep_s"] for r in plain)
    out["trace.overhead_frac"] = (out["trace.sweep_s"] - plain_s) / plain_s
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "whitney_lab" / "harness.py").is_file():
        print(f"no whitney_lab sources under {SRC}", file=sys.stderr)
        return 2

    # values at the default seed must match the stored reference run
    reference = ((REFERENCE_DIR / f"{args.workload}.csv").read_bytes()
                 if args.seed == DEFAULT_SEED else None)
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), reference)
    try:
        env, reports = bench.rounds()
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)
    if args.trace:
        values, units = per_layer(reports), spantrace.LAYER_UNITS
    else:
        values, units = end_to_end(reports), END_TO_END_UNITS
    if len(values) != len(units):
        bench.problems.append("no successful sweep to measure")
        bench.failed = max(bench.failed, 1)

    env.update(nproc=os.cpu_count(), src_lines=src_lines(),
               **{var: bench.env[var] for var in THREAD_VARS})
    print(f"workload {args.workload} seed {args.seed} experiment {bench.experiment} "
          f"box {bench.raw['box']} functions {bench.raw['function_ids']}")
    print("env " + json.dumps(env, sort_keys=True))
    for mode, runs in reports.items():
        times = " ".join(f"{r['sweep_s' if mode != 'setup' else 'setup_s']:.3f}" for r in runs)
        print(f"{len(runs)} {mode} workers, seconds each: {times}")
    if bench.first_csv is not None:
        print(f"csv sha256 {hashlib.sha256(bench.first_csv).hexdigest()}")
    for name, value in values.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    frac = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"  {'failed_frac':32s} {frac:14.6g} ({bench.failed}/{bench.attempted} tasks)")
    for problem in bench.problems[:40]:
        print(f"check failed: {problem}", file=sys.stderr)

    correct = bench.failed == 0
    result = {
        "correct": correct,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
