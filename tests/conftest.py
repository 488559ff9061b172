"""Shared pytest wiring: print one verdict line per acceptance check, and
`finishes_within`, the time limit of the tests that guard against slow inputs."""

from __future__ import annotations

import signal
from contextlib import contextmanager


@contextmanager
def finishes_within(seconds: float):
    """Stop the block with TimeoutError once it runs past `seconds`: a signal
    reaches the main thread even inside a regex match or a JSON parse."""

    def expire(signum, frame):
        del signum, frame
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    del exitstatus, config
    verdicts: dict[str, str] = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            if outcome == "passed" and getattr(report, "when", "call") != "call":
                continue
            name = nodeid.split("::")[-1]
            verdict = "PASS" if outcome == "passed" else "FAIL"
            # A failed setup/teardown must not be masked by a passed call.
            if verdicts.get(name) != "FAIL":
                verdicts[name] = verdict
    if verdicts:
        terminalreporter.section("acceptance checks")
        for name in sorted(verdicts):
            terminalreporter.write_line(f"{name}: {verdicts[name]}")
