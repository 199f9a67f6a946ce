"""One benchmark repetition, run by ``run.py`` in a fresh interpreter.

    python3 benchmarks/rep.py --src SRC --invocations JSON [--trace-file PATH --run-id ID]

Times the import of ``hnmaxwell.cli`` plus config resolution (``setup_s``)
and then each ``hnmaxwell.cli.main`` call of the repetition (``wall_s``).
With ``--trace-file`` the calls run under the span recorder, which writes
its spans there afterwards.  The last line of standard output is one JSON
object with the measurements.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

_BLAS_SYMBOLS = {
    "threads": ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads", "openblas_get_num_threads64_"),
    "config": ("openblas_get_config", "scipy_openblas_get_config64_",
               "scipy_openblas_get_config", "openblas_get_config64_"),
}


def _openblas_libraries() -> list[dict]:
    """Version string and thread count of each OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        entry = {"library": Path(path).name}
        for key, restype in (("config", ctypes.c_char_p), ("threads", ctypes.c_int)):
            for symbol in _BLAS_SYMBOLS[key]:
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = restype
                    value = fn()
                    entry[key] = value.decode() if isinstance(value, bytes) else value
                    break
        found.append(entry)
    return found


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_libraries(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", required=True, type=Path)
    p.add_argument("--invocations", required=True, help="JSON list of hnmx argument lists")
    p.add_argument("--trace-file", type=Path)
    p.add_argument("--run-id", default="")
    args = p.parse_args()
    argvs = json.loads(args.invocations)

    start = perf_counter()
    import hnmaxwell.cli as cli

    for argv in argvs:
        cli.build_config(argv)
    setup_s = perf_counter() - start

    if not Path(cli.__file__).resolve().is_relative_to(args.src.resolve()):
        print(f"rep: imported {cli.__file__}, not the sources under {args.src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}

    tracer = None
    if args.trace_file:
        import spans

        tracer = spans.Tracer(args.run_id)
        result["unwrapped"] = spans.install(tracer)

    wall_s = 0.0
    for argv in argvs:
        start = perf_counter()
        status = cli.main(argv)
        wall_s += perf_counter() - start
        if status != 0:
            print(f"rep: hnmx {' '.join(argv)} exited with status {status}", file=sys.stderr)
            return 1
    result["wall_s"] = wall_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = environment()

    if tracer is not None:
        tracer.dump(args.trace_file)
        result["layers"] = spans.layer_metrics(tracer.spans, tracer.counters)
        out_dirs = {Path(argv[argv.index("--out") + 1]) for argv in argvs}
        result["layers"]["cli.csv_bytes"] = sum(
            f.stat().st_size for d in out_dirs for f in d.rglob("*.csv")
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
