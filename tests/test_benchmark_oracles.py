"""The benchmark's independent checks, run against the package in tier-1.

``perfbench/checks.py`` counts maps by the Goulden-Jackson triangulation
recurrence, which shares no code with the string equations or the Toda
flow, and ``perfbench/golden/`` holds the fingerprints of every workload's
outputs: exact bytes, and approximate values to their tagged digits.  Both
are loaded from their files, as the benchmark itself loads them, so the
package never imports the benchmark.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from cubicmaps import cli
from cubicmaps.toda import genus_table

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRIANGULATIONS = _perfbench_module("checks").Triangulations()


def test_counts_match_triangulation_recurrence_through_genus_12():
    table = genus_table(12, 120)
    for g in range(13):
        for j in range(1, 121):
            assert TRIANGULATIONS.count(g, j) == table.counts[g, j], (g, j)


@pytest.mark.parametrize("g_max", range(1, 9))
def test_every_genus_as_last_order_matches_triangulation_recurrence(g_max):
    # genus_table solves its top genus by the g-only last order, so each
    # g_max sends a different genus through it; the genus-12 table sends one
    table = genus_table(g_max, 60)
    for g in range(g_max + 1):
        for j in range(1, 61):
            assert TRIANGULATIONS.count(g, j) == table.counts[g, j], (g, j)


golden = _perfbench_module("golden")
workloads = _perfbench_module("workloads")
EXACT = ("exact-long", "exact-deep")
NUMERIC = tuple(w for w in workloads.WORKLOADS if w not in EXACT)  # finite-n, census


def _records(workloads):
    return {key: record for workload in workloads for key, record in golden.load(workload).items()}


RECORDS = _records(EXACT)
NUMERIC_RECORDS = _records(NUMERIC)


def _replay(key, record):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(key.split())
    assert code == 0
    assert golden.compare(record, golden.fingerprint(out.getvalue())) == []


def test_exact_golden_records_exist():
    # an empty record set would leave the replay below with no cases
    assert all(golden.load(workload) for workload in EXACT)


@pytest.mark.parametrize("key", sorted(RECORDS))
def test_exact_golden_outputs_replay(key):
    _replay(key, RECORDS[key])


def test_numeric_golden_records_exist():
    assert NUMERIC and all(golden.load(workload) for workload in NUMERIC)


@pytest.mark.parametrize("key", sorted(NUMERIC_RECORDS))
def test_numeric_golden_outputs_replay(key):
    # equilibrium, validate and census jobs: exact fields byte for byte (the
    # census wall clock aside), approx values to their tagged dps less the
    # golden margin
    _replay(key, NUMERIC_RECORDS[key])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_parser_reads_every_benchmark_argv(workload):
    # the flag grammar covers all the benchmark sends: every job of seeds 0-9
    # at its nominal 25 s parses, with no usage error and no help page
    for seed in range(10):
        for argv in workloads.make_jobs(workload, seed, 25):
            assert cli._parse_args(argv).command == argv[0], argv
