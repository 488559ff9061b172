"""Debate execution and batch orchestration against scripted backends."""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

import pytest

from agora import runner
from agora.config import JobSpec, resolve_job_params
from agora.domain import TaskInstance
from agora.gateway import ChatResponse, HttpGateway, script_from_dict
from agora.runner import (
    BatchSummary,
    JobReport,
    _shared_gateway,
    record_failed,
    run_batch,
    run_baseline,
    run_debate,
    run_sample,
    serialize_record,
)

DRAFT_HOOK = "Nobody proposed a solution yet."
IMPROVE_HOOK = "Improve the current solution."
EXTRACTION_HOOK = "your previous response"
SIMPLE_VOTE_HOOK = "Answer only with the number."
BASELINE_HOOK = "Solve the provided task."


def make_sample(i: int = 1, question: str = "What is 2+2?") -> TaskInstance:
    return TaskInstance(
        id=f"{i:04d}",
        instruction_key="Answer the question.",
        input_lines=(question,),
        references=("4",),
    )


def unanimity_script():
    return script_from_dict(
        {
            "rules": [
                {"match": [{"contains": DRAFT_HOOK}], "response": "The answer is 42."},
                {
                    "match": [{"contains": IMPROVE_HOOK}],
                    "response": "Right. [AGREE]",
                    "repeatable": True,
                },
            ]
        }
    )


def voting_script(votes: str = "2"):
    return script_from_dict(
        {
            "rules": [
                {"match": [{"contains": DRAFT_HOOK}], "response": "Draft answer."},
                {
                    "match": [{"contains": IMPROVE_HOOK}],
                    "response": "Mine is better. [DISAGREE]",
                    "repeatable": True,
                },
                {
                    "match": [{"contains": EXTRACTION_HOOK}],
                    "response": "Candidate text",
                    "repeatable": True,
                },
                {
                    "match": [{"contains": SIMPLE_VOTE_HOOK}],
                    "response": votes,
                    "repeatable": True,
                },
            ]
        }
    )


def debate_params(**overrides):
    base = {"num_agents": 2}
    base.update(overrides)
    return resolve_job_params(base)


# -- single debates --


def test_run_debate_unanimous_first_turn():
    record = run_debate(debate_params(), make_sample(), unanimity_script())
    outcome = record["outcome"]
    assert outcome["protocol"] == "majority_consensus"
    assert outcome["success"] is True
    assert outcome["finalText"] == "The answer is 42."
    assert outcome["decidedAtTurn"] == 1
    assert record["globalClockMs"] == 0
    assert [m["phase"] for m in record["messages"]] == ["draft", "improve"]
    assert record["messages"][1]["agreement"] == "agree"
    assert [p["name"] for p in record["personas"]] == ["Participant 1", "Participant 2"]
    assert record["task"]["id"] == "0001"
    assert "api_key" not in record["config"]


def test_run_debate_voting_and_call_accounting():
    gateway = voting_script()
    params = debate_params(decision_protocol="simple_voting", voting_after_turns=1)
    record = run_debate(params, make_sample(), gateway)
    outcome = record["outcome"]
    assert outcome["success"] is True
    assert outcome["finalText"] == "Candidate text"
    (round_log,) = outcome["voteDetail"]
    assert round_log["winners"] == [2]
    assert len(round_log["ballots"]) == 2
    # Every scripted call landed somewhere in the log: a debate or
    # extraction message, or a recorded ballot.
    assert gateway.call_count == len(record["messages"]) + len(round_log["ballots"])


def test_run_debate_crash_becomes_failure_record():
    # The script only covers the first draft, so agent 2's improve call
    # finds no rule and the debate dies; the record survives.
    script = script_from_dict(
        {"rules": [{"match": [{"contains": DRAFT_HOOK}], "response": "x"}]}
    )
    record = run_debate(debate_params(), make_sample(), script)
    outcome = record["outcome"]
    assert outcome["success"] is False
    assert outcome["error"].startswith("NoRuleMatched")
    assert record["config"]["num_agents"] == 2


def test_run_debate_failure_during_persona_generation():
    script = script_from_dict(
        {"rules": [{"match": [{"contains": DRAFT_HOOK}], "response": "x"}]}
    )
    params = debate_params(persona_generator="expert")
    record = run_debate(params, make_sample(), script)
    assert record["outcome"]["error"].startswith("NoRuleMatched")
    assert record["messages"] == []
    assert record["personas"] == []


# -- baseline --


def baseline_script():
    return script_from_dict(
        {
            "rules": [
                {
                    "match": [{"contains": BASELINE_HOOK, "role": "system"}],
                    "response": "FINAL SOLUTION: B",
                    "repeatable": True,
                }
            ]
        }
    )


def test_run_baseline_with_chain_of_thought():
    gateway = baseline_script()
    record = run_baseline(debate_params(use_baseline=True), make_sample(), gateway)
    outcome = record["outcome"]
    assert outcome["protocol"] == "baseline"
    assert outcome["success"] is True
    assert outcome["finalText"] == "FINAL SOLUTION: B"
    assert outcome["decidedAtTurn"] == 1
    (message,) = record["messages"]
    assert message["phase"] == "draft"
    assert [p["name"] for p in record["personas"]] == ["Participant 1"]
    (request,) = gateway.requests
    assert [m.role for m in request.messages] == ["system", "user"]
    assert request.messages[1].content == "Let's think step-by-step."


def test_run_baseline_without_chain_of_thought():
    gateway = baseline_script()
    params = debate_params(use_baseline=True, use_chain_of_thought=False)
    run_baseline(params, make_sample(), gateway)
    (request,) = gateway.requests
    assert [m.role for m in request.messages] == ["system"]


def test_run_sample_dispatches_on_use_baseline():
    record = run_sample(debate_params(use_baseline=True), make_sample(), baseline_script())
    assert record["outcome"]["protocol"] == "baseline"
    record = run_sample(debate_params(), make_sample(), unanimity_script())
    assert record["outcome"]["protocol"] == "majority_consensus"


# -- serialization helpers --


def test_serialize_record_is_compact_and_unicode():
    line = serialize_record({"text": "héllo", "n": 1})
    assert line == '{"text":"héllo","n":1}'


def test_record_failed():
    assert record_failed({"outcome": {"error": "boom"}})
    assert not record_failed({"outcome": {"success": True}})
    assert not record_failed({})


# -- job execution --


def write_dataset(tmp_path, n: int = 2, stem: str = "samples", questions=None) -> str:
    path = tmp_path / f"{stem}.json"
    questions = questions or [f"question {i}" for i in range(1, n + 1)]
    records = [
        {
            "id": f"{i:04d}",
            "instruction": "Answer the question.",
            "inputs": [question],
            "references": ["yes"],
        }
        for i, question in enumerate(questions, 1)
    ]
    path.write_text(json.dumps(records), encoding="utf-8")
    return str(path)


def job_spec(tmp_path, dataset: str, name: str = "job", **params) -> JobSpec:
    merged = {
        "input_json_file_path": dataset,
        "output_json_file_path": str(tmp_path / "out" / f"{name}.json"),
        "num_agents": 2,
    }
    merged.update(params)
    return JobSpec(name=name, params=merged, repeat_index=1)


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def execute_job(spec: JobSpec, scripted) -> JobReport:
    """A one-job batch, which is how a single job runs."""
    return run_batch([spec], scripted=scripted).reports[0]


def test_execute_job_writes_records_in_sample_order(tmp_path):
    spec = job_spec(tmp_path, write_dataset(tmp_path, 4))
    report = execute_job(spec, scripted=unanimity_script())
    assert report.error is None
    assert report.records == 4
    assert report.failures == 0
    records = read_jsonl(report.output_path)
    assert [r["task"]["id"] for r in records] == ["0001", "0002", "0003", "0004"]


def test_execute_job_subsets_samples(tmp_path):
    spec = job_spec(tmp_path, write_dataset(tmp_path, 6), num_samples=2, seed=3)
    report = execute_job(spec, scripted=unanimity_script())
    assert report.records == 2
    assert len(read_jsonl(report.output_path)) == 2


def test_execute_job_isolates_per_sample_failures(tmp_path):
    # Only sample 0001's input has a draft rule; 0002 crashes mid-debate.
    script = script_from_dict(
        {
            "rules": [
                {
                    "match": [{"contains": DRAFT_HOOK}, {"contains": "question 1"}],
                    "response": "Draft.",
                },
                {
                    "match": [{"contains": IMPROVE_HOOK}],
                    "response": "OK. [AGREE]",
                    "repeatable": True,
                },
            ]
        }
    )
    spec = job_spec(tmp_path, write_dataset(tmp_path, 2))
    report = execute_job(spec, scripted=script)
    assert report.error is None
    assert report.records == 2
    assert report.failures == 1
    first, second = read_jsonl(report.output_path)
    assert first["outcome"]["success"] is True
    assert second["outcome"]["error"].startswith("NoRuleMatched")


def test_execute_job_reports_bad_input_file(tmp_path):
    spec = job_spec(tmp_path, str(tmp_path / "absent.json"))
    report = execute_job(spec, scripted=unanimity_script())
    assert report.error is not None
    assert "absent.json" in report.error
    assert report.records == 0


def test_execute_job_reports_bad_config(tmp_path):
    spec = job_spec(tmp_path, write_dataset(tmp_path), max_turns=0)
    report = execute_job(spec, scripted=unanimity_script())
    assert report.error is not None
    assert "max_turns" in report.error


def test_execute_job_creates_output_directory(tmp_path):
    out = tmp_path / "deep" / "nested" / "x.json"
    spec = JobSpec(
        name="x",
        params={
            "input_json_file_path": write_dataset(tmp_path),
            "output_json_file_path": str(out),
            "num_agents": 2,
        },
        repeat_index=1,
    )
    report = execute_job(spec, scripted=unanimity_script())
    assert report.error is None
    assert out.exists()


# -- batch --


def test_run_batch_requires_jobs():
    with pytest.raises(ValueError):
        run_batch([])


def test_run_batch_summary(tmp_path):
    dataset = write_dataset(tmp_path, 2)
    jobs = [
        JobSpec(
            name=name,
            params={
                "input_json_file_path": dataset,
                "output_json_file_path": str(tmp_path / f"{name}.json"),
                "num_agents": 2,
            },
            repeat_index=1,
        )
        for name in ("first", "second")
    ]
    summary = run_batch(jobs, scripted=unanimity_script())
    assert [r.name for r in summary.reports] == ["first", "second"]
    assert summary.total_records == 4
    assert summary.total_failures == 0
    assert summary.aborted_jobs == 0
    assert summary.ok


def test_batch_summary_flags():
    summary = BatchSummary(
        reports=[
            JobReport("a", 1, "a.json", records=2, failures=1),
            JobReport("b", 1, "b.json", error="boom"),
        ]
    )
    assert summary.total_failures == 1
    assert summary.aborted_jobs == 1
    assert not summary.ok


def test_shared_gateway_is_cached_per_endpoint():
    cache: dict = {}
    a = _shared_gateway(debate_params(endpoint_url="http://one"), cache)
    b = _shared_gateway(debate_params(endpoint_url="http://one"), cache)
    c = _shared_gateway(debate_params(endpoint_url="http://two"), cache)
    assert a is b
    assert a is not c


# -- the batch-wide debate queue --


class AgreeingBackend:
    """Answers every call with an agreeing draft; every fork is this instance.

    `on_call` sees each request's prompt text before the reply, so a test
    can block or delay calls from any debate thread.
    """

    def __init__(self, on_call=None) -> None:
        self.on_call = on_call

    def fork(self) -> "AgreeingBackend":
        return self

    def complete(self, req) -> ChatResponse:
        if self.on_call is not None:
            self.on_call("\n".join(m.content for m in req.messages))
        return ChatResponse(text="The answer is 42. [AGREE]")


def test_run_batch_overlaps_jobs(tmp_path):
    # Job 1's only debate cannot finish until job 2's first debate has
    # started, which a pool that drains each job before the next would
    # never allow; the wait times out instead of hanging the suite.
    job2_started = threading.Event()

    def on_call(text: str) -> None:
        if "job two" in text:
            job2_started.set()
        elif not job2_started.wait(timeout=5):
            raise TimeoutError("job 2 never started while job 1 was running")

    jobs = [
        job_spec(tmp_path, write_dataset(tmp_path, stem="one", questions=["job one"]), name="one"),
        job_spec(
            tmp_path,
            write_dataset(tmp_path, stem="two", questions=["job two", "job two again"]),
            name="two",
        ),
    ]
    summary = run_batch(jobs, scripted=AgreeingBackend(on_call))
    assert summary.ok
    assert summary.total_records == 3


class CountingTransport:
    """Fake endpoint that tracks how many requests are in flight at once."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.in_flight = 0
        self.max_in_flight = 0
        self.calls = 0

    def __call__(self, url, headers, body, timeout):
        with self._lock:
            self.in_flight += 1
            self.calls += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        time.sleep(0.002)
        with self._lock:
            self.in_flight -= 1
        return 200, {"choices": [{"message": {"content": "Fine. [AGREE]"}}]}


def test_run_batch_never_exceeds_the_cap(tmp_path, monkeypatch):
    transport = CountingTransport()
    monkeypatch.setattr(runner, "HttpGateway", functools.partial(HttpGateway, transport=transport))
    debates = {"now": 0, "peak": 0}
    lock = threading.Lock()
    original = runner.run_sample

    def counted_run_sample(params, sample, backend):
        with lock:
            debates["now"] += 1
            debates["peak"] = max(debates["peak"], debates["now"])
        try:
            return original(params, sample, backend)
        finally:
            with lock:
                debates["now"] -= 1

    monkeypatch.setattr(runner, "run_sample", counted_run_sample)
    dataset = write_dataset(tmp_path, 4)
    common = {"endpoint_url": "http://counting.invalid", "model_name": "m", "concurrent_api_requests": 3}
    jobs = [job_spec(tmp_path, dataset, name=f"job{i}", **common) for i in range(3)]
    summary = run_batch(jobs)
    assert summary.ok
    assert summary.total_records == 12
    assert transport.calls == 12 * 2
    assert transport.max_in_flight <= 3
    assert debates["peak"] <= 3
    # Sanity: debates really did overlap.
    assert transport.max_in_flight >= 2


def test_run_batch_keeps_sample_order_per_job(tmp_path):
    # Earlier samples answer more slowly, so debates finish out of order.
    def on_call(text: str) -> None:
        for number in range(1, 5):
            if f"question {number}" in text:
                time.sleep(0.004 * (5 - number))

    dataset = write_dataset(tmp_path, 4)
    jobs = [job_spec(tmp_path, dataset, name=name) for name in ("a", "b", "c")]
    # Eight workers (the default cap) and frequent thread switches, so a
    # lost or misplaced record would show.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        summary = run_batch(jobs, scripted=AgreeingBackend(on_call))
    finally:
        sys.setswitchinterval(interval)
    assert summary.ok
    for report in summary.reports:
        assert report.records == 4
        records = read_jsonl(report.output_path)
        assert [r["task"]["id"] for r in records] == ["0001", "0002", "0003", "0004"]


def test_run_batch_isolates_an_aborted_job(tmp_path):
    dataset = write_dataset(tmp_path, 2)
    jobs = [
        job_spec(tmp_path, dataset, name="before"),
        job_spec(tmp_path, str(tmp_path / "absent.json"), name="broken"),
        job_spec(tmp_path, dataset, name="after"),
    ]
    summary = run_batch(jobs, scripted=unanimity_script())
    before, broken, after = summary.reports
    assert "absent.json" in broken.error
    assert broken.records == 0
    for report in (before, after):
        assert report.error is None
        assert report.records == 2
        assert len(read_jsonl(report.output_path)) == 2
    assert summary.aborted_jobs == 1


def test_run_batch_calls_patchable_hooks_once_per_sample(tmp_path, monkeypatch):
    # Debate timings are taken by patching these module globals; a refactor
    # that stops calling them through `runner` would silently blind them.
    seen: list[str] = []
    serialized: list[str] = []
    run_sample_original = runner.run_sample
    serialize_original = runner.serialize_record

    def run_sample_spy(params, sample, backend):
        seen.append(f"{params.output_json_file_path}:{sample.id}")
        return run_sample_original(params, sample, backend)

    def serialize_spy(record):
        serialized.append(record["task"]["id"])
        return serialize_original(record)

    monkeypatch.setattr(runner, "run_sample", run_sample_spy)
    monkeypatch.setattr(runner, "serialize_record", serialize_spy)
    dataset = write_dataset(tmp_path, 3)
    jobs = [job_spec(tmp_path, dataset, name=name) for name in ("a", "b")]
    summary = run_batch(jobs, scripted=unanimity_script())
    assert summary.total_records == 6
    assert len(seen) == len(set(seen)) == 6
    assert sorted(serialized) == ["0001", "0001", "0002", "0002", "0003", "0003"]
