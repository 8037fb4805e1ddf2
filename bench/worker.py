"""One benchmark process: set up, optionally run one sweep, report as JSON.

    python3 bench/worker.py --config CFG --experiment NAME --mode setup|sweep|trace
        [--spans PATH]

``setup`` stops once the config is parsed (interpreter, numpy and whitney_lab
imports, ``ExperimentConfig`` validation) and also reports the environment.
``sweep`` then runs ``whitney_lab.harness.EXPERIMENTS[NAME]`` and ``emit``, as
the CLI does.  ``trace`` does the same with the per-layer tracer installed.
The last stdout line is a JSON object; ``parsed_at`` is ``time.monotonic()``
when the config was parsed, so the parent can time set-up from its spawn.
The exit code is 1 when the run reports a hard failure, like the CLI.
"""

import argparse
import json
import resource
import sys
import time

import numpy

from whitney_lab import harness


def _environment() -> dict:
    import ctypes
    import glob
    import os
    import platform

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--experiment", required=True, choices=sorted(harness.EXPERIMENTS))
    parser.add_argument("--mode", required=True, choices=("setup", "sweep", "trace"))
    parser.add_argument("--spans", help="write the traced run's spans here as JSON")
    args = parser.parse_args(argv)
    cfg = harness.ExperimentConfig.from_json_file(args.config)
    out = {"parsed_at": time.monotonic()}
    if args.mode == "setup":
        out["env"] = _environment()
        print(json.dumps(out))
        return 0
    tracer = None
    if args.mode == "trace":
        import spantrace

        tracer = spantrace.Tracer()
        tracer.install(spantrace.TARGETS)
    start = time.perf_counter()
    result = harness.EXPERIMENTS[args.experiment](cfg)
    harness.emit(result.rows, cfg.output_path, cfg.output_format)
    out["sweep_s"] = time.perf_counter() - start
    out["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["hard_failure"] = result.hard_failure
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = spantrace.layer_metrics(tracer, out["sweep_s"])
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump([vars(s) for s in tracer.spans], fh)
    print(json.dumps(out))
    return 1 if result.hard_failure else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
