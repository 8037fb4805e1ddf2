"""Command-line entry point.

Usage::

    whitney-lab <whitney|johnen|taylor|lemma21|modulus|bestapprox|kfunc>
        --config <path> [--out <path>] [--format csv|json] [--jobs N]

Exit codes: 0 on success, 1 on a hard assertion failure (lower-bound margin
or bracket violation), 2 on configuration errors (an experiment that selects
no corpus entry among them) and on an unwritable output path, 3 when a task of
a hard-checked experiment (whitney, johnen, kfunc) failed before its check
ran.  A hard failure takes precedence over 3.
``WHITNEY_LAB_THREADS`` is the fallback for ``--jobs``, the config's ``jobs``
the fallback for both; a value below 1 is a configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .harness import EXPERIMENTS, ConfigError, ExperimentConfig, emit


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whitney-lab",
        description="Verification sweeps for anisotropic polynomial approximation.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, runner in EXPERIMENTS.items():
        p = sub.add_parser(name, help=(runner.__doc__ or "").strip().splitlines()[0])
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", help="output path (overrides the config)")
        p.add_argument("--format", choices=("csv", "json"),
                       help="output format (overrides the config)")
        p.add_argument("--jobs", type=int,
                       help="parallel task workers (default: WHITNEY_LAB_THREADS or 1)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_json_file(args.config)
        jobs, source = args.jobs, "--jobs"
        if jobs is None:
            source = "WHITNEY_LAB_THREADS"  # the config's jobs, when unset, is already >= 1
            threads = os.environ.get(source, cfg.jobs)
            try:
                jobs = int(threads)
            except ValueError:
                raise ConfigError(f"{source} must be a whole number, got {threads!r}") from None
        if jobs < 1:
            raise ConfigError(f"{source} must be >= 1, got {jobs}")
        updates = {"jobs": jobs}
        if args.out:
            updates["output_path"] = args.out
        if args.format:
            updates["output_format"] = args.format
        cfg = replace(cfg, **updates)
        if cfg.output_path is None:
            raise ConfigError("no output path: set output.path in the config or pass --out")
        result = EXPERIMENTS[args.experiment](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        emit(result.rows, cfg.output_path, cfg.output_format)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.experiment}: wrote {len(result.rows)} rows to {cfg.output_path}")
    if result.hard_failure:
        print("hard assertion failure detected (see error/margin rows)", file=sys.stderr)
        return 1
    if result.unverified:
        print(f"{result.unverified} of {result.tasks} tasks unverified (see error rows)",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
