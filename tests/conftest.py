"""Shared test plumbing.

The acceptance tests score their checks in test_acceptance's RESULTS;
printing its scoreboard happens here, after capture is released, so the
lines show up no matter which capture mode the run uses.
"""

import sys


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = list(mod.scoreboard()) if mod else []
    if not lines:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria", sep="-")
    for line in lines:
        terminalreporter.write_line(line)
