import pytest

from kgsig.lattice import SpectralBasis

_CRITERIA: list[str] = []


@pytest.fixture
def criterion():
    """Record one pass/fail line per acceptance criterion, then assert it.

    The line is printed immediately (visible with -s and on failure) and
    repeated in the terminal summary so a plain `pytest -v` run still shows
    one line per criterion.
    """

    def record(label: str, ok: bool, detail: str) -> None:
        line = f"{label}: {'PASS' if ok else 'FAIL'} ({detail})"
        _CRITERIA.append(line)
        print(line)
        assert ok, line

    return record


@pytest.fixture
def transforms(monkeypatch):
    """List of the (method name, operand) of every `SpectralBasis.analyze`
    and `synthesize` call made while the test runs."""
    calls: list[tuple[str, object]] = []
    for name in ("analyze", "synthesize"):
        original = getattr(SpectralBasis, name)

        def counted(self, u, name=name, original=original):
            calls.append((name, u))
            return original(self, u)

        monkeypatch.setattr(SpectralBasis, name, counted)
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus):
    if _CRITERIA:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_CRITERIA):
            terminalreporter.write_line(line)
