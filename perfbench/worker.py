"""Run one job list through ``cubicmaps.cli.main`` in this fresh interpreter.

Reads ``{"jobs": [argv, ...], "trace": bool}`` as JSON on stdin and writes
one JSON object to stdout: per-job exit code, captured stdout/stderr and wall
time, the ``speed`` kernel samples, the peak RSS of this process, the run
environment, and, when traced, the spans and counts.  ``run.py`` starts it
with ``src`` on ``PYTHONPATH``; checking the outputs is left to the caller.

Untraced, the kernel is timed ``BRACKET`` times before the first job and
after every job, outside the jobs' timed intervals: ``kernel[i]`` and
``kernel[i + 1]`` are the samples on either side of job ``i``, and
``kernel_at[i]`` is when ``kernel[i]`` was taken.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

import speed

BRACKET = 2  # kernel samples between two jobs


def main() -> int:
    request = json.load(sys.stdin)
    real_stdout = sys.stdout

    import mpmath
    from cubicmaps import cli, wick

    tracer = None
    if request["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    speed.sample()  # warm-up, not kept
    sample = tracer is None
    kernel, kernel_at = [], []
    if sample:
        kernel_at.append(time.perf_counter())
        kernel.append([speed.sample() for _ in range(BRACKET)])
    results = []
    for index, argv in enumerate(request["jobs"]):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.job = index
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception:  # a crash outside main's own handlers fails this job, not the run
            code = -1
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                        "seconds": seconds, "start": start})
        if sample:
            kernel_at.append(time.perf_counter())
            kernel.append([speed.sample() for _ in range(BRACKET)])

    payload = {
        "jobs": results,
        "kernel": kernel,
        "kernel_at": kernel_at,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "wick_engines": list(wick.available_engines()),
            "mpmath_backend": mpmath.libmp.BACKEND,
            "python": platform.python_version(),
        },
    }
    if tracer is not None:
        payload["spans"] = tracer.spans
        payload["counts"] = dict(tracer.counts)
    json.dump(payload, real_stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
