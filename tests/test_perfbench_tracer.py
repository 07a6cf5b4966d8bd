"""The benchmark's span tracer still installs on the package and leaves its output alone.

``perfbench/tracing.py`` wraps functions of ``cubicmaps`` by name, so a
renamed or removed traced function breaks every traced benchmark run.  This
test installs the tracer in a fresh interpreter, runs one job of every
command the benchmark drives, and compares each job's output with that of
an untraced interpreter.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

JOBS = [
    ["expand", "--genus", "1", "--max-j", "12", "--format", "csv"],
    ["expand", "--genus", "2", "--max-j", "6", "--format", "json"],
    ["hierarchy", "--max-k", "3", "--horizon", "8"],
    ["critical", "--max-genus", "6"],
    ["oracle", "--vertices", "2", "--workers", "1"],
    ["equilibrium", "--u", "1/20"],
    ["validate", "--N", "2", "--u", "1/16", "--precision", "30"],
]

# run the jobs through cli.main; under the tracer (argv[1] "1") each job also lists its span names
_SCRIPT = """
import contextlib, io, json, sys
from cubicmaps import cli
if sys.argv[1] == "1":
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
out = []
for argv in json.loads(sys.argv[2]):
    buf = io.StringIO()
    first = len(tracer.spans) if sys.argv[1] == "1" else 0
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    out.append([code, buf.getvalue()])
    if sys.argv[1] == "1":
        out[-1].append([span[0] for span in tracer.spans[first:]])
json.dump(out, sys.stdout)
"""

_ELAPSED = re.compile(r'("elapsed_ms": )\d+')  # the census wall clock, the one nondeterministic field


def _run(traced: bool):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, "1" if traced else "0", json.dumps(JOBS)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_traced_jobs_match_untraced():
    plain = _run(traced=False)
    traced = _run(traced=True)
    for argv, (code, out), (code_t, out_t, _) in zip(JOBS, plain, traced):
        assert code == 0 == code_t, argv
        assert _ELAPSED.sub(r"\g<1>0", out) == _ELAPSED.sub(r"\g<1>0", out_t), argv
    job_spans = {" ".join(argv): names for argv, (*_, names) in zip(JOBS, traced)}
    # at genus 2 order 1 of the free energy is in closed form and order 2 goes
    # through solve_order_k
    assert job_spans["expand --genus 2 --max-j 6 --format json"].count("hierarchy.solve_order") == 1
    # every expand job builds its series through the one traced hierarchy build
    for argv in JOBS:
        if argv[0] == "expand":
            assert "hierarchy.build" in job_spans[" ".join(argv)], argv
    spans = set().union(*job_spans.values())
    # each command's own layer was traced, not bypassed by a stale binding
    for name in ("hierarchy.g0_series", "critical.recursion", "toda.genus_table", "wick.census",
                 "equilibrium.phi_check", "finite_n.recurrence"):
        assert name in spans
