"""One test per acceptance criterion, each printing its pass/fail line.

The checks live in cubicmaps.acceptance so that the `reproduce` subcommand
and this suite run the identical code; a green run here is exit 0 there.
Budgets are part of each criterion and enforced inside run_criterion; each
criterion runs once per session (the criterion_run fixture in conftest.py).
"""

import pytest

from cubicmaps.acceptance import CRITERIA, KEYS, format_line, run_criterion


def test_criteria_registry():
    assert len(CRITERIA) == 12
    assert len(set(KEYS)) == 12
    with pytest.raises(ValueError):
        run_criterion("no-such-check")


@pytest.mark.parametrize("key", KEYS)
def test_criterion(key, acceptance_log, criterion_run):
    r = criterion_run(key).result
    line = format_line(r)
    acceptance_log(line)
    print(line)
    assert r.passed, f"{r.key} ({r.title}): {r.detail}"


def test_endpoint_agreement_capped_at_working_precision(criterion_run):
    # the endpoints agree with their closed forms to the last bit of the 60
    # digits they are compared at; the detail reports those digits, not rounding
    assert "closed-form endpoints to 60.0 digits" in criterion_run("endpoints").result.detail
