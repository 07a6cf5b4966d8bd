import pytest

from cubicmaps import acceptance

_ACCEPTANCE_LINES = []

# finite-N entry points whose results the criteria compute at test scale too
_SHARED = ("build_report", "check_asymptotic_expansion", "toda_residual")


class CriterionRun:
    """One run of an acceptance criterion, with the finite-N calls it made."""

    def __init__(self, key):
        self.calls = []
        with pytest.MonkeyPatch.context() as patch:
            for name in _SHARED:
                patch.setattr(acceptance, name, self._recorded(getattr(acceptance, name)))
            self.result = acceptance.run_criterion(key)

    def _recorded(self, fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.calls.append(((fn, args, kwargs), out))
            return out

        return call

    def call(self, fn, *args, **kwargs):
        """What fn(*args, **kwargs) returned inside the criterion, else a fresh call."""
        for made, out in self.calls:
            if made == (fn, args, kwargs):
                return out
        return fn(*args, **kwargs)


@pytest.fixture(scope="session")
def criterion_run():
    """Run each acceptance criterion at most once per session.

    A test that needs the same computation as a criterion reads it from the
    run instead of repeating it; the criterion's budget still times the
    computation itself.
    """
    runs = {}

    def run(key):
        if key not in runs:
            runs[key] = CriterionRun(key)
        return runs[key]

    return run


@pytest.fixture(scope="session")
def acceptance_log():
    return _ACCEPTANCE_LINES.append


def pytest_terminal_summary(terminalreporter):
    # one line per executed criterion, visible even when -q swallows prints
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
