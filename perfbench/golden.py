"""Golden outputs: the default-seed job outputs recorded at a known-good commit.

A job whose argv has a golden record must reproduce it: everything exact
byte for byte (the census wall clock ``elapsed_ms`` aside), and every
``approx`` value to its tagged ``dps`` minus ``MARGIN_DIGITS``, relative to
max(1, |value|).  ``cross_check_digits`` counts digits of rounding noise, so
it is held to the floor in ``checks.py`` instead.

Record again (only when an output is meant to change) with

    python3 perfbench/golden.py [workload ...]
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path

from mpmath import mpf, workdps

MARGIN_DIGITS = 5
DEFAULT_SEED = 0
DEFAULT_SECONDS = 25
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_APPROX_TEXT = re.compile(r'("(?:value|re|im)": )"[^"]*"')
_ELAPSED = re.compile(r'("elapsed_ms": )\d+')
_NOISE = {"/cross_check_digits"}


def job_key(argv) -> str:
    return " ".join(argv)


def without_elapsed(stdout: str) -> str:
    """The output with the census wall clock zeroed, the one field allowed to vary."""
    return _ELAPSED.sub(r"\g<1>0", stdout)


def fingerprint(stdout: str) -> dict:
    """Hash of the output with approx digits and elapsed_ms blanked, plus the approx leaves by path."""
    skeleton = without_elapsed(_APPROX_TEXT.sub(r'\g<1>""', stdout))
    approx: dict = {}
    if stdout.startswith("{"):
        _collect(json.loads(stdout), "", approx)
    return {"sha256": hashlib.sha256(skeleton.encode()).hexdigest(), "approx": approx}


def _collect(node, path, out) -> None:
    if isinstance(node, dict):
        if node.get("kind") == "approx":
            if path not in _NOISE:
                out[path] = {k: v for k, v in node.items() if k != "kind"}
            return
        for key, value in node.items():
            _collect(value, f"{path}/{key}", out)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _collect(value, f"{path}/{i}", out)


def compare(record: dict, got: dict) -> list[str]:
    if got["sha256"] != record["sha256"]:
        return ["output differs from the golden record outside its approx digits"]
    problems = []
    for path, want in record["approx"].items():
        have = got["approx"].get(path)
        if have is None:
            problems.append(f"{path}: approx value missing")
            continue
        dps = want["dps"]
        with workdps(dps + 10):
            for part in ("value", "re", "im"):
                if part not in want:
                    continue
                a, b = mpf(want[part]), mpf(have[part])
                if abs(a - b) > mpf(10) ** (MARGIN_DIGITS - dps) * max(1, abs(a), abs(b)):
                    problems.append(f"{path}: {have[part]} != golden {want[part]} to {dps - MARGIN_DIGITS} digits")
    return problems[:5]


def load(workload: str) -> dict:
    path = GOLDEN_DIR / f"{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text())["jobs"]


def record(workload: str) -> None:
    """Run the default-seed job list once, check it, and store its fingerprints."""
    import run
    from checks import Checker
    from workloads import make_jobs

    jobs = make_jobs(workload, DEFAULT_SEED, DEFAULT_SECONDS)
    result = run.run_worker(jobs, trace=False, timeout=900)
    checker = Checker()
    records = {}
    for argv, job in zip(jobs, result["jobs"]):
        problems = checker.check(argv, job["stdout"]) if job["code"] == 0 else [f"exit code {job['code']}"]
        if problems:
            raise SystemExit(f"refusing to record {job_key(argv)}: {problems}")
        records[job_key(argv)] = fingerprint(job["stdout"])
    GOLDEN_DIR.mkdir(exist_ok=True)
    doc = {
        "workload": workload,
        "seed": DEFAULT_SEED,
        "seconds": DEFAULT_SECONDS,
        "commit": run.git_commit(),
        "margin_digits": MARGIN_DIGITS,
        "jobs": records,
    }
    (GOLDEN_DIR / f"{workload}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    from workloads import WORKLOADS

    for name in sys.argv[1:] or WORKLOADS:
        record(name)
        print(f"recorded {name}")
