"""Schedule exploration of `runner.run_batch`, after CHESS (Musuvathi et al.,
OSDI 2008) and PCT (Burckhardt et al., ASPLOS 2010).

A controller backend holds every call until the controller releases it. The
controller waits until each worker is either held in a call or has ended,
then releases one held call, which the schedule picks. The calls held at
that point follow from the picks made before, so a list of picks replays a
schedule. Tiny batches run in every order their calls can complete in;
larger ones run seeded random-priority (PCT) schedules; one family of
schedules interrupts the caller with `_thread.interrupt_main()`.

On every schedule:
- the workers started are the sum, over endpoints, of each distinct cap;
- each job's log holds each record once, in sample order: it is byte for
  byte the log a serial run writes (which is what cap 1 gives);
- at every pause, a job's log exists exactly when all its debates have ended;
- a `run_sample` that raises reaches the caller, and no debate starts after it;
- no worker is alive once `run_batch` has returned or raised;
- the schedule ends within WALL_S seconds.
A failure names the scenario, the seed (for PCT) and the order of released
calls; `replay(order)` runs that schedule again.
"""

from __future__ import annotations

import _thread
import json
import random
import re
import signal
import threading
import time
from collections import Counter, deque
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import pytest

from agora import decisions, runner
from agora.config import JobSpec
from agora.gateway import ChatResponse
from conftest import finishes_within
from recording import Agreeing

DEBATE = re.compile(r"sample ([a-z]\d)")  # the input of job j's sample n reads "sample jn"
WALL_S = 10.0
Thread = threading.Thread  # the real class, for the controller's own thread

# A pick: (step, the held calls' labels, sorted) -> the index of the call to release.
Choose = Callable[[int, list[str]], int]


class Job(NamedTuple):
    name: str  # one letter
    samples: int
    endpoint: str = "one"
    cap: int = 1
    use_baseline: bool = False  # one call a debate, where a debate makes two
    protocol: str = "majority_consensus"


def replay(order: list[str]) -> Choose:
    """The schedule that releases the calls in `order`, as a failure prints it."""
    return lambda step, labels: labels.index(order[step])


def pct(seed: int, steps: int, depth: int = 3) -> Choose:
    """PCT: each debate gets a random priority when its first call is held, the
    held call of the highest priority goes next, and at `depth - 1` random
    steps the debate just released drops below every other."""
    rng = random.Random(seed)
    changes = set(rng.sample(range(steps), depth - 1))
    priority: dict[str, float] = {}

    def choose(step: int, labels: list[str]) -> int:
        for label in labels:
            priority.setdefault(label[:2], 1 + rng.random())
        pick = max(range(len(labels)), key=lambda i: priority[labels[i][:2]])
        if step in changes:
            priority[labels[pick][:2]] = -step - 1
        return pick

    return choose


class Controller:
    """Backend of every debate (each fork is this one), whose calls are held
    until released, and the record of one schedule."""

    def __init__(self, jobs: list[Job], logs: dict[str, Path], choose: Choose) -> None:
        self.jobs, self.logs, self.choose = jobs, logs, choose
        self.expected = sum(dict(((job.endpoint, job.cap), job.cap) for job in jobs).values())
        self.cond = threading.Condition()
        self.workers: list[threading.Thread] = []
        self.held: dict[str, tuple[threading.Thread, threading.Event]] = {}
        self.calls: Counter = Counter()
        self.events: list[tuple[str, str]] = []  # ("start" | "end" | "raise", debate), or ("stop", "")
        self.order: list[str] = []
        self.held_at: list[list[str]] = []  # the held calls' labels at each release
        self.faults: list[str] = []
        self.free = False  # release every call at once: set when the schedule is over or stuck
        self.caller_done = False

    def fork(self) -> "Controller":
        return self

    @staticmethod
    def clock() -> float:
        return 0.0

    def complete(self, req) -> ChatResponse:
        debate = DEBATE.search("\n".join(m.content for m in req.messages)).group(1)
        go = threading.Event()
        with self.cond:
            self.calls[debate] += 1
            if self.free:
                go.set()
            else:
                self.held[f"{debate}.{self.calls[debate]}"] = (threading.current_thread(), go)
                self.cond.notify_all()
        go.wait(timeout=2 * WALL_S)
        return ChatResponse(Agreeing.REPLY)

    def _paused(self, interrupted: bool) -> bool:
        """Every worker has started and each is held in a call or has ended.
        After an interrupt, the caller must also have cleared the queues."""
        if len(self.workers) < self.expected:
            return False
        holding = {thread for thread, _ in self.held.values()}
        if any(worker.is_alive() and worker not in holding for worker in self.workers):
            return False
        return not interrupted or ("stop", "") in self.events

    def _check_logs(self) -> None:
        ended = Counter(debate[0] for event, debate in self.events if event == "end")
        for job in self.jobs:
            if self.logs[job.name].exists() != (ended[job.name] == job.samples):
                self.faults.append(f"after {self.order}: job {job.name} has {ended[job.name]} of {job.samples} debates ended, log exists: {self.logs[job.name].exists()}")

    def _release_all(self) -> None:
        self.free = True
        for _, go in self.held.values():
            go.set()
        self.held.clear()

    def drive(self, interrupt_at: Optional[int]) -> None:
        """Release one held call per pause, as the schedule picks, until every worker has ended."""
        deadline = time.monotonic() + WALL_S
        interrupted = False
        with self.cond:
            while not self.caller_done:
                while not self._paused(interrupted):
                    if self.caller_done:  # the caller releases what is held
                        return
                    if time.monotonic() > deadline:
                        self.faults.append(f"stuck after {self.order} (held: {sorted(self.held)})")
                        self._release_all()
                        return
                    self.cond.wait(0.0005)
                self._check_logs()
                if not self.held:
                    return
                if len(self.order) == interrupt_at and not interrupted:
                    _thread.interrupt_main()
                    interrupted = True
                    continue
                labels = sorted(self.held)
                self.held_at.append(labels)
                label = labels[self.choose(len(self.order), labels)]
                self.order.append(label)
                self.held.pop(label)[1].set()


class Outcome(NamedTuple):
    raised: Optional[BaseException]
    alive: list[threading.Thread]  # workers alive when run_batch was done
    controller: Controller


class Explorer:
    """Runs one batch of `jobs` per schedule, each on the same paths, and knows
    the logs a serial run writes."""

    def __init__(self, tmp_path: Path, monkeypatch, jobs: list[Job]) -> None:
        self.jobs = jobs
        self.logs = {job.name: tmp_path / "out" / f"{job.name}.json" for job in jobs}
        self.specs = []
        for job in jobs:
            dataset = tmp_path / f"{job.name}.json"
            records = [
                {"id": f"{n:04d}", "instruction": "Answer the question.", "inputs": [f"sample {job.name}{n}"], "references": ["42"]}
                for n in range(1, job.samples + 1)
            ]
            dataset.write_text(json.dumps(records), encoding="utf-8")
            params = {
                "input_json_file_path": str(dataset),
                "output_json_file_path": str(self.logs[job.name]),
                "num_agents": 2,
                "endpoint_url": f"http://{job.endpoint}.invalid",
                "concurrent_api_requests": job.cap,
                "use_baseline": job.use_baseline,
                "decision_protocol": job.protocol,
            }
            self.specs.append(JobSpec(name=job.name, params=params, repeat_index=1))
        self.serial = {
            prepared.name: "".join(
                runner.serialize_record(runner.run_sample(prepared.params, sample, Agreeing())) + "\n" for sample in prepared.samples
            ).encode("utf-8")
            for prepared in runner.prepare_jobs(self.specs, http_backend=False)
        }
        self.controller: Optional[Controller] = None
        self.raising: Optional[str] = None  # the debate whose run_sample raises once it has ended
        explorer = self
        original = runner.run_sample

        def run_sample(params, sample, backend):
            events = explorer.controller.events
            debate = sample.input_lines[0].split()[-1]
            events.append(("start", debate))
            record = original(params, sample, backend)
            if debate == explorer.raising:
                events.append(("raise", debate))
                raise broken(debate)
            events.append(("end", debate))
            return record

        class Worker(Thread):
            def start(self) -> None:
                super().start()
                explorer.controller.workers.append(self)

        class Queue(deque):
            def clear(self) -> None:  # the batch hands out no more samples
                explorer.controller.events.append(("stop", ""))
                super().clear()

        monkeypatch.setattr(runner, "run_sample", run_sample)
        monkeypatch.setattr(threading, "Thread", Worker)
        monkeypatch.setattr(runner, "deque", Queue)

    def run(self, choose: Choose, raising: Optional[str] = None, interrupt_at: Optional[int] = None) -> Outcome:
        """One schedule, with run_batch called on this (the main) thread."""
        for log in self.logs.values():
            log.unlink(missing_ok=True)
        self.raising = raising
        self.controller = controller = Controller(self.jobs, self.logs, choose)
        driver = Thread(target=controller.drive, args=(interrupt_at,), daemon=True)
        driver.start()
        raised = None
        try:
            with finishes_within(WALL_S + 5):
                runner.run_batch(self.specs, scripted=controller)
        except BaseException as exc:  # KeyboardInterrupt included: the interrupt schedules expect it
            raised = exc
        with controller.cond:
            controller.caller_done = True
            alive = [thread for thread in threading.enumerate() if thread in controller.workers]
            controller._release_all()
        driver.join(timeout=WALL_S)
        for worker in alive:
            worker.join(timeout=WALL_S)
        return Outcome(raised, alive, controller)

    def check(self, outcome: Outcome, schedule: str, expect: Optional[BaseException] = None) -> None:
        """Every check of the module docstring, naming `schedule` on failure;
        `expect` is what run_batch should raise."""
        controller = outcome.controller
        ended = Counter(debate[0] for event, debate in controller.events if event == "end")
        faults = list(controller.faults)
        if len(controller.workers) != controller.expected:
            faults.append(f"{len(controller.workers)} workers started, where the caps sum to {controller.expected}")
        if repr(outcome.raised) != repr(expect):
            faults.append(f"run_batch raised {outcome.raised!r}, expected {expect!r}")
        if outcome.alive:
            faults.append(f"workers alive after run_batch: {[worker.name for worker in outcome.alive]}")
        for job in self.jobs:
            log = self.logs[job.name]
            if ended[job.name] == job.samples and (not log.exists() or log.read_bytes() != self.serial[job.name]):
                faults.append(f"job {job.name}'s log is not the serial run's")
            if ended[job.name] < job.samples and log.exists():
                faults.append(f"job {job.name} wrote a log with {ended[job.name]} of {job.samples} debates ended")
        starts = [debate for event, debate in controller.events if event == "start"]
        if len(starts) != len(set(starts)):
            faults.append(f"a debate started twice: {starts}")
        stops = [i for i, (event, _) in enumerate(controller.events) if event in ("raise", "stop")]
        if stops and "start" in (event for event, _ in controller.events[stops[0]:]):
            faults.append(f"a debate started after the batch was stopped: {controller.events}")
        assert faults == [], f"{schedule}; order {controller.order} (replay({controller.order}) reruns it): {faults}"


def broken(debate: str) -> RuntimeError:
    return RuntimeError(f"broken {debate}")


def every_order(explorer: Explorer, raising: Optional[str] = None) -> list[Controller]:
    """Run each order in which the held calls can be released, depth first; the schedules run."""
    runs: list[Controller] = []
    prefix: list[int] = []
    while True:
        picks: list[int] = []
        widths: list[int] = []

        def choose(step: int, labels: list[str]) -> int:
            picks.append(prefix[step] if step < len(prefix) else 0)
            widths.append(len(labels))
            return picks[-1]

        outcome = explorer.run(choose, raising=raising)
        explorer.check(outcome, f"every order, raising {raising}", expect=raising and broken(raising))
        runs.append(outcome.controller)
        deeper = [step for step in range(len(picks)) if picks[step] + 1 < widths[step]]
        if not deeper:
            return runs
        prefix = picks[: deeper[-1]] + [picks[deeper[-1]] + 1]


TWO_BY_TWO = {
    "cap 1": [Job("a", 2), Job("b", 2)],
    "cap 2": [Job("a", 2, cap=2), Job("b", 2, cap=2)],
    "two endpoints": [Job("a", 2), Job("b", 2, endpoint="two")],
}


# Each scenario: the schedules it has, its one release order where it has one,
# and whether some schedule holds calls of both jobs at once. One worker takes
# the jobs in order and each job's samples in order; two endpoints at cap 1
# interleave two sequences of four calls (8 choose 4). With two slots the jobs
# overlap, which a pool that drained each job before the next never does.
@pytest.mark.parametrize("scenario, schedules, only_order, overlap", [
    ("cap 1", 1, ["a1.1", "a1.2", "a2.1", "a2.2", "b1.1", "b1.2", "b2.1", "b2.2"], False),
    ("cap 2", 96, None, True),
    ("two endpoints", 70, None, True),
])
def test_every_completion_order_of_two_jobs_of_two_samples(tmp_path, monkeypatch, scenario, schedules, only_order, overlap):
    runs = every_order(Explorer(tmp_path, monkeypatch, TWO_BY_TWO[scenario]))
    orders = [run.order for run in runs]
    assert len(orders) == len({tuple(order) for order in orders}) == schedules
    assert all(len(order) == 8 for order in orders)  # two calls a debate
    assert only_order is None or orders == [only_order]
    assert any({"a", "b"} <= {label[0] for label in held} for run in runs for held in run.held_at) == overlap


def test_every_completion_order_with_the_queue_reordered(tmp_path, monkeypatch):
    # Job a is a baseline, so job b's debates can make more calls and are
    # queued first: both workers start on them.
    runs = every_order(Explorer(tmp_path, monkeypatch, [Job("a", 2, cap=2, use_baseline=True), Job("b", 2, cap=2)]))
    orders = [run.order for run in runs]
    assert len(orders) == len({tuple(order) for order in orders}) == 30
    assert all(len(order) == 6 and order[0][0] == order[1][0] == "b" for order in orders)


def test_one_worker_takes_the_longest_debates_first_and_ties_in_job_order(tmp_path, monkeypatch):
    jobs = [Job("a", 2, use_baseline=True), Job("b", 2), Job("c", 2, protocol="simple_voting"), Job("d", 1)]
    explorer = Explorer(tmp_path, monkeypatch, jobs)
    # At most 1, 14, 28 and 14 calls a debate; one slot, so one schedule.
    assert [decisions.call_bounds(job.params)[1] for job in runner.prepare_jobs(explorer.specs, http_backend=False)] == [1, 14, 28, 14]
    (run,) = every_order(explorer)
    assert list(dict.fromkeys(label.split(".")[0] for label in run.order)) == ["c1", "c2", "b1", "b2", "d1", "a1", "a2"]


@pytest.mark.parametrize("raising", ["a1", "b2"])
def test_a_raising_run_sample_reaches_the_caller_in_every_order(tmp_path, monkeypatch, raising):
    every_order(Explorer(tmp_path, monkeypatch, TWO_BY_TWO["cap 2"]), raising=raising)


# Jobs a and b share an endpoint at two caps, so each cap has its own workers: 2 + 3 + 1.
THREE_BY_THREE = [Job("a", 3, cap=2), Job("b", 3, cap=3), Job("c", 3, endpoint="two")]


@pytest.mark.parametrize("seed", range(16))
def test_random_priority_schedules_of_three_jobs_of_three_samples(tmp_path, monkeypatch, seed):
    explorer = Explorer(tmp_path, monkeypatch, THREE_BY_THREE)
    raising = random.Random(seed).choice([None, "a3", "b1", "c2"])
    outcome = explorer.run(pct(seed, steps=18), raising=raising)
    explorer.check(outcome, f"PCT seed {seed}, raising {raising}", expect=raising and broken(raising))


def test_replay_reruns_a_schedule(tmp_path, monkeypatch):
    explorer = Explorer(tmp_path, monkeypatch, THREE_BY_THREE)
    order = explorer.run(pct(3, steps=18)).controller.order
    assert explorer.run(replay(order)).controller.order == order


@pytest.mark.parametrize("step", [0, 1, 2, 3])
def test_an_interrupt_keeps_finished_jobs_and_starts_nothing(tmp_path, monkeypatch, step):
    # Job a has one debate and job b two, each on its own endpoint. At steps 0
    # and 1 a's debate ends after the interrupt; at steps 2 and 3 it has ended,
    # and b's worker would start b2 when b1 ends if the caller missed the
    # interrupt until that worker ended.
    # `interrupt_main` raises KeyboardInterrupt only while Python handles SIGINT,
    # and a shell starts a background command with SIGINT ignored.
    explorer = Explorer(tmp_path, monkeypatch, [Job("a", 1), Job("b", 2, endpoint="two")])
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        outcome = explorer.run(replay(["a1.1", "a1.2", "b1.1", "b1.2", "b2.1", "b2.2"]), interrupt_at=step)
    finally:
        signal.signal(signal.SIGINT, previous)
    explorer.check(outcome, f"interrupt at step {step}", expect=KeyboardInterrupt())
    starts = [debate for event, debate in outcome.controller.events if event == "start"]
    # Job a keeps its log; b2 never starts.
    assert explorer.logs["a"].read_bytes() == explorer.serial["a"]
    assert sorted(starts) == ["a1", "b1"]
    assert not explorer.logs["b"].exists()
