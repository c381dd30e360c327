import re

import pytest

from kopt_lab.tour import Tour

_CRITERION = re.compile(r"test_criterion_(\d+)")
_results = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    m = _CRITERION.search(item.name)
    if m and rep.when == "call":
        _results[int(m.group(1))] = rep.passed


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_results):
        verdict = "PASS" if _results[num] else "FAIL"
        terminalreporter.write_line(f"criterion {num}: {verdict}")


@pytest.fixture()
def no_tuple_build(monkeypatch):
    """Fails the test where an array-born `Tour` builds its tuple: `order` read on a tour that has only its ring."""

    def refuse(self, name):
        if name == "order":
            pytest.fail("the tuple of an array-born tour was built")
        raise AttributeError(name)

    monkeypatch.setattr(Tour, "__getattr__", refuse)
