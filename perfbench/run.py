"""Benchmark of cubicmaps jobs as users run them: CLI argument lists, checked outputs.

    python3 perfbench/run.py --workload exact-long --seed 3 --seconds 25 --trace 0

Runs from the root of a source tree (``src/cubicmaps`` must exist; nothing
is installed or built).  The seeded job list of the workload (see
``workloads.py``) goes to ``PASSES[workload]`` fresh worker interpreters in
turn, each of which times every ``cubicmaps.cli.main(argv)`` call and, between
jobs, the fixed ``speed`` kernel.  Each job time is scaled to the machine
speed at which the kernel takes ``speed.NOMINAL_S``, by the kernel samples
taken near the job, which divides out the drift of a shared host, and a
job's time is its mean over the passes.  Every output is then checked here, outside the timed interval,
by ``checks.py`` and against ``golden/``, and every pass must print the same
as the first.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
list untraced and then traced, requires identical outputs from both, and
reports the per-layer metrics from the traced spans plus the tracing
overhead; the spans are written to ``perfbench/out/``.  The last line of
stdout is the JSON result; the line before it records the run environment
and any failed checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import golden
import speed
from checks import Checker
from tracing import layer_metrics
from workloads import PASSES, WORKLOADS, make_jobs, tail_percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUDGET_S = 170  # the whole run must end within 180 s
SETUP_IMPORTS = 7

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import cubicmaps.cli; t = time.perf_counter() - t; "
    "import statistics, speed; speed.sample(); "
    "print(t, statistics.fmean(speed.sample() for _ in range(5)))"
)


def _child_env() -> dict:
    path = [str(SRC), str(BENCH)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def measure_setup(times: int = SETUP_IMPORTS) -> float:
    """Median time of importing cubicmaps.cli in a fresh interpreter, each import
    scaled by the speed kernel timed in the same interpreter right after it."""
    samples = []
    for _ in range(times):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        seconds, kernel_s = map(float, done.stdout.split())
        samples.append(seconds * speed.NOMINAL_S / kernel_s)
    return statistics.median(samples)


def speed_scale(run: dict):
    """The pass's mean factor from raw seconds to seconds at nominal machine speed (None if traced)."""
    samples = [k for bracket in run["kernel"] for k in bracket]
    return speed.NOMINAL_S / statistics.fmean(samples) if samples else None


def scaled_seconds(run: dict, i: int) -> float:
    """Job i's time at nominal machine speed, by the kernel samples taken near it.

    Near is on either side of the job or within its own duration of it: a
    short job runs in the state its neighbouring samples catch, a long one
    in the average state of a stretch about three times its length.
    """
    job = run["jobs"][i]
    lo, hi = job["start"] - job["seconds"], job["start"] + 2 * job["seconds"]
    near = [b for b, at in enumerate(run["kernel_at"]) if lo <= at <= hi or b in (i, i + 1)]
    return job["seconds"] * speed.NOMINAL_S / statistics.fmean(k for b in near for k in run["kernel"][b])


def run_worker(jobs, trace: bool, timeout: float) -> dict:
    """One worker interpreter over the whole job list; raises if it does not finish cleanly."""
    request = json.dumps({"jobs": jobs, "trace": trace})
    done = subprocess.run([sys.executable, str(BENCH / "worker.py")], input=request, cwd=ROOT,
                          env=_child_env(), capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout)


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except FileNotFoundError:
        return None
    return done.stdout.strip() or None


def output_hash(job: dict) -> str:
    text = golden.without_elapsed(job["stdout"])
    return hashlib.sha256(f"{job['code']}\n{text}".encode()).hexdigest()


def check_runs(jobs, runs, checker: Checker, records: dict) -> list[list[str]]:
    """Problems per job and run: exit code, stderr, the independent checks, the golden
    record, and any difference from the first run.  Each distinct output is checked once."""
    verdicts: dict = {}
    first = [output_hash(job) for job in runs[0]["jobs"]]
    out = []
    for n, result in enumerate(runs):
        for argv, job, want in zip(jobs, result["jobs"], first):
            if job["code"] != 0 or job["stderr"]:
                out.append([f"exit code {job['code']}: {job['stderr'][-300:]}"])
                continue
            got = output_hash(job)
            key = (golden.job_key(argv), got)
            if key not in verdicts:
                problems = checker.check(argv, job["stdout"])
                record = records.get(key[0])
                if record is not None:
                    problems += golden.compare(record, golden.fingerprint(job["stdout"]))
                verdicts[key] = problems
            problems = list(verdicts[key])
            if n and got != want:
                problems.append(f"run {n} printed other output than run 0")
            out.append(problems)
    return out


def _tail(times) -> float:
    ordered = sorted(times)
    q = tail_percentile(len(ordered))
    return ordered[math.ceil(q * len(ordered) / 100) - 1]


def _write_trace(workload: str, seed: int, jobs, traced: dict) -> None:
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    doc = {"jobs": jobs, "span_fields": ["name", "start", "end", "parent", "job"],
           "spans": traced["spans"], "counts": traced["counts"]}
    (out_dir / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(doc))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=golden.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=golden.DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        jobs = make_jobs(args.workload, args.seed, args.seconds)
    except ValueError as exc:
        parser.error(str(exc))

    if not (SRC / "cubicmaps" / "cli.py").is_file():
        print(f"no cubicmaps source tree at {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    checker, records = Checker(), golden.load(args.workload)

    try:
        if args.trace:
            plain = run_worker(jobs, trace=False, timeout=0.45 * (deadline - time.monotonic()))
            traced = run_worker(jobs, trace=True, timeout=deadline - time.monotonic())
            runs = [plain, traced]
        else:
            setup_s = measure_setup()
            runs = [run_worker(jobs, trace=False, timeout=deadline - time.monotonic())
                    for _ in range(PASSES[args.workload])]
    except (RuntimeError, subprocess.TimeoutExpired, subprocess.CalledProcessError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    problems = check_runs(jobs, runs, checker, records)
    failed = sum(1 for p in problems if p)
    attempted = len(problems)

    if args.trace:
        metrics = layer_metrics(traced["spans"], traced["counts"])
        overhead = (math.fsum(job["seconds"] for job in traced["jobs"])
                    - math.fsum(job["seconds"] for job in plain["jobs"]))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        _write_trace(args.workload, args.seed, jobs, traced)
    else:
        times = [statistics.fmean(scaled_seconds(run, i) for run in runs) for i in range(len(jobs))]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": math.fsum(times), "unit": "s"},
            "job_p50_s": {"value": statistics.median(times), "unit": "s"},
            "job_tail_s": {"value": _tail(times), "unit": "s"},
            "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "1"},
            "peak_rss_mb": {"value": max(run["peak_rss_mb"] for run in runs), "unit": "MB"},
        }

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": len(jobs),
        "runs": len(runs),
        "speed_scale": [speed_scale(run) for run in runs],
        "raw_s": [math.fsum(job["seconds"] for job in run["jobs"]) for run in runs],
        "tail_percentile": tail_percentile(len(jobs)),
        "golden_checked": sum(1 for a in jobs if golden.job_key(a) in records) * len(runs),
        "env": dict(runs[0]["env"], git_commit=git_commit()),
        "failures": [{"job": i % len(jobs), "argv": golden.job_key(jobs[i % len(jobs)]), "problems": p}
                     for i, p in enumerate(problems) if p][:10],
    }
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
