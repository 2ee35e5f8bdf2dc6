"""Repeat the acceptance criteria's one-line results in the terminal summary.

Output capture hides what a passing test prints, so the ``[criterion N]``
lines are collected from the captured stdout of each test call and
printed once the run ends.
"""


def pytest_terminal_summary(terminalreporter):
    lines = sorted(
        line
        for outcome in ("passed", "failed")
        for rep in terminalreporter.stats.get(outcome, [])
        if rep.when == "call"
        for line in rep.capstdout.splitlines()
        if line.startswith("[criterion ")
    )
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
