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
    record = run_sample(debate_params(), make_sample(), unanimity_script())
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
    record = run_sample(params, make_sample(), gateway)
    outcome = record["outcome"]
    assert outcome["success"] is True
    assert outcome["finalText"] == "Candidate text"
    (round_log,) = outcome["voteDetail"]
    assert round_log["winners"] == [2]
    assert len(round_log["ballots"]) == 2
    # Every scripted call landed somewhere in the log: a debate or
    # extraction message, or a recorded ballot.
    assert len(gateway.requests) == len(record["messages"]) + len(round_log["ballots"])


def test_run_debate_crash_becomes_failure_record():
    # The script only covers the first draft, so agent 2's improve call
    # finds no rule and the debate dies; the record survives.
    script = script_from_dict(
        {"rules": [{"match": [{"contains": DRAFT_HOOK}], "response": "x"}]}
    )
    record = run_sample(debate_params(), make_sample(), script)
    outcome = record["outcome"]
    assert outcome["success"] is False
    assert outcome["error"].startswith("NoRuleMatched")
    assert record["config"]["num_agents"] == 2


def test_run_debate_failure_during_persona_generation():
    script = script_from_dict(
        {"rules": [{"match": [{"contains": DRAFT_HOOK}], "response": "x"}]}
    )
    params = debate_params(persona_generator="expert")
    record = run_sample(params, make_sample(), script)
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
    record = run_sample(debate_params(use_baseline=True), make_sample(), gateway)
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
    run_sample(params, make_sample(), gateway)
    (request,) = gateway.requests
    assert [m.role for m in request.messages] == ["system"]


def test_run_sample_dispatches_on_use_baseline():
    record = run_sample(debate_params(use_baseline=True), make_sample(), baseline_script())
    assert record["outcome"]["protocol"] == "baseline"
    record = run_sample(debate_params(), make_sample(), unanimity_script())
    assert record["outcome"]["protocol"] == "majority_consensus"


def debate_rules(improve_repeatable: bool = True) -> list[dict]:
    """Draft, disagreeing improves and extractions; no ballot or judge rule."""
    return [
        {"match": [{"contains": DRAFT_HOOK}], "response": "Draft answer."},
        {
            "match": [{"contains": IMPROVE_HOOK}],
            "response": "Mine is better. [DISAGREE]",
            "repeatable": improve_repeatable,
        },
        {"match": [{"contains": EXTRACTION_HOOK}], "response": "Candidate", "repeatable": True},
    ]


# Each place a run can end early: the job, the script, and the outcome the
# record logs (protocol, decidedAtTurn, the reason key, the persona names).
EARLY_ENDS = {
    "baseline crash": (
        {"use_baseline": True, "decision_protocol": "judge"},
        debate_rules(),
        ("baseline", 0, "error", ["Participant 1"]),
    ),
    "expert persona crash": (
        {"persona_generator": "expert"},
        debate_rules(),
        ("majority_consensus", 0, "error", []),
    ),
    "crash in turn 2": (
        {},
        debate_rules(improve_repeatable=False),
        ("majority_consensus", 1, "error", ["Participant 1", "Participant 2"]),
    ),
    "crash at a ballot": (
        {"decision_protocol": "simple_voting", "voting_after_turns": 2},
        debate_rules(),
        ("simple_voting", 2, "error", ["Participant 1", "Participant 2"]),
    ),
    "judge fallback": (
        {"decision_protocol": "judge", "voting_after_turns": 1},
        debate_rules(),
        ("judge", 1, "fallbackReason", ["Participant 1", "Participant 2"]),
    ),
}


@pytest.mark.parametrize("case", sorted(EARLY_ENDS))
def test_run_sample_logs_protocol_turn_and_personas_where_a_run_ends(case):
    overrides, rules, (protocol, turn, reason, personas) = EARLY_ENDS[case]
    script = script_from_dict({"rules": rules})
    record = run_sample(debate_params(**overrides), make_sample(), script)
    outcome = record["outcome"]
    assert outcome["protocol"] == protocol
    assert outcome["decidedAtTurn"] == turn
    assert outcome["success"] is False
    assert {"error", "fallbackReason"} & set(outcome) == {reason}
    assert "no rule matched" in outcome[reason]
    assert [p["name"] for p in record["personas"]] == personas


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


def test_run_batch_aborts_only_the_job_that_cannot_run(tmp_path):
    # report needs a central agent plus two peers; every sample would fail.
    dataset = write_dataset(tmp_path, 3)
    bad = job_spec(tmp_path, dataset, name="bad", discussion_paradigm="report")
    good = job_spec(tmp_path, dataset, name="good")
    bad_report, good_report = run_batch([bad, good], scripted=unanimity_script()).reports
    assert "num_agents=2" in bad_report.error
    assert (bad_report.records, bad_report.failures) == (0, 0)
    assert not (tmp_path / "out" / "bad.json").exists()
    assert good_report.error is None
    assert good_report.records == 3


def test_run_batch_aborts_an_http_job_whose_endpoint_url_is_not_http(tmp_path):
    dataset = write_dataset(tmp_path, 2)
    jobs = [
        job_spec(tmp_path, dataset, name="bare", endpoint_url="localhost:8000/v1"),
        job_spec(tmp_path, dataset, name="empty", endpoint_url=""),
    ]
    started = time.monotonic()
    reports = run_batch(jobs).reports
    # No debate ran, so no call was retried after a backoff sleep.
    assert time.monotonic() - started < 1.0
    for report in reports:
        assert "endpoint_url" in report.error
        assert (report.records, report.failures) == (0, 0)
    assert not (tmp_path / "out").exists()


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


def test_run_batch_reports_a_log_it_cannot_write_and_goes_on(tmp_path):
    dataset = write_dataset(tmp_path, 2)
    (tmp_path / "blocker").write_text("", encoding="utf-8")
    blocked = str(tmp_path / "blocker" / "job.json")
    jobs = [
        job_spec(tmp_path, dataset, name="blocked", output_json_file_path=blocked),
        job_spec(tmp_path, dataset, name="after"),
    ]
    summary = run_batch(jobs, scripted=unanimity_script())
    broken, after = summary.reports
    assert broken.error.startswith(f"cannot write {blocked}: [Errno ")
    assert (broken.records, broken.failures) == (0, 0)
    assert after.error is None and len(read_jsonl(after.output_path)) == 2
    assert summary.aborted_jobs == 1 and not summary.ok


def test_run_batch_reports_a_log_it_cannot_encode_and_goes_on(tmp_path):
    # JSON can carry a lone surrogate ("\ud800"), which UTF-8 cannot encode.
    odd = write_dataset(tmp_path, stem="odd", questions=["what is \ud800?"])
    jobs = [
        job_spec(tmp_path, odd, name="odd"),
        job_spec(tmp_path, write_dataset(tmp_path), name="after"),
    ]
    broken, after = run_batch(jobs, scripted=unanimity_script()).reports
    assert broken.error.startswith(f"cannot write {broken.output_path}: 'utf-8' codec")
    assert after.error is None and len(read_jsonl(after.output_path)) == 2


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

    def clock(self) -> float:
        return 0.0

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


# -- the per-debate backend --

# Kind of call -> a phrase only its prompt holds; a turn (draft or
# improvement) is whatever matches none of the others.
CALL_HOOKS = [
    ("persona", "identifying the participants"),
    ("judge", "Please provide a decision"),
    ("ballot", SIMPLE_VOTE_HOOK),
    ("extraction", EXTRACTION_HOOK),
    ("baseline", BASELINE_HOOK),
    ("turn", ""),
]


class KindRecordingBackend:
    """Answers every kind of call and records each call's kind and model name."""

    def __init__(self) -> None:
        self.calls: list[tuple[str, str]] = []

    @staticmethod
    def clock() -> float:
        return 0.0

    def complete(self, req) -> ChatResponse:
        prompt = "\n".join(m.content for m in req.messages)
        kind = next(kind for kind, hook in CALL_HOOKS if hook in prompt)
        self.calls.append((kind, req.model_name))
        if kind == "persona":
            persona = {"role": f"Expert {len(self.calls)}", "description": "d"}
            return ChatResponse(text=json.dumps(persona))
        replies = {"ballot": "1", "turn": "Mine. [DISAGREE]"}
        return ChatResponse(text=replies.get(kind, "An answer."))


@pytest.mark.parametrize(
    "overrides, kinds",
    [
        (
            {"persona_generator": "expert", "decision_protocol": "judge", "voting_after_turns": 1},
            {"persona", "turn", "extraction", "judge"},
        ),
        (
            {"decision_protocol": "simple_voting", "voting_after_turns": 1},
            {"turn", "extraction", "ballot"},
        ),
        ({"use_baseline": True}, {"baseline"}),
    ],
)
def test_every_call_names_the_jobs_model(overrides, kinds):
    backend = KindRecordingBackend()
    params = debate_params(model_name="job-model", **overrides)
    record = run_sample(params, make_sample(), backend)
    assert record["outcome"]["success"] is True
    assert {kind for kind, _ in backend.calls} == kinds
    assert {model for _, model in backend.calls} == {"job-model"}


class SteppingClockBackend(AgreeingBackend):
    """An agreeing backend whose clock advances a quarter second on every read."""

    def __init__(self) -> None:
        super().__init__()
        self.reads = 0

    def clock(self) -> float:
        self.reads += 1
        return self.reads * 0.25


def test_global_clock_comes_from_the_backend_clock():
    record = run_sample(debate_params(), make_sample(), SteppingClockBackend())
    assert record["outcome"]["success"] is True
    assert record["globalClockMs"] == 250
