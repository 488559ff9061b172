"""Shared pytest wiring: the Hypothesis profile every run loads; print one
verdict line per acceptance check; `finishes_within`, the time limit of the
tests that guard against slow inputs; and `started_threads`, every thread a
test starts."""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager

import pytest
from hypothesis import settings

# Every property draws the same examples on every run and in every tree, with
# no example database carried over, so two runs (and the two trees that
# `tools/mutants.py` compares) kill the same mutants.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


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


@pytest.fixture
def started_threads(monkeypatch) -> list[threading.Thread]:
    """Every thread started while the test runs, in start order."""
    started: list[threading.Thread] = []

    class RecordingThread(threading.Thread):
        def start(self) -> None:
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", RecordingThread)
    return started


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
