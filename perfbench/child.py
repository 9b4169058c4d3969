"""Run one fvmnet command in this process with timers or spans installed.

    python3 perfbench/child.py RESULT.json SPAWN_T {timers,trace} -- FVMNET_ARGS...

SPAWN_T is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is shared by all processes), so set-up time counts
interpreter start-up and imports. The result file holds the exit code, the
first-compute instant, peak RSS, the BLAS threads in effect and what the
recorder collected. The process exits with the command's exit code.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

import tracer

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def main() -> int:
    result_path, spawn_t, mode = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    if sys.argv[4] != "--":
        raise SystemExit("usage: child.py RESULT SPAWN_T MODE -- ARGS...")
    argv = sys.argv[5:]

    recorder = tracer.Tracer() if mode == "trace" else tracer.Timers()
    recorder.install()
    from fvmnet import cli

    error = None
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the parent counts the run as failed and shows this
        code, error = 1, traceback.format_exc()
    end_t = time.monotonic()

    payload = {
        "code": code,
        "error": error,
        "spawn_t": spawn_t,
        "first_compute_t": recorder.first.at,
        "end_t": end_t,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads": blas_threads(),
        "recorder": recorder.result(),
    }
    with open(result_path, "w") as fh:
        json.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
