"""Debate execution and batch orchestration against scripted backends."""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from pathlib import Path

import pytest

from agora import datasets, decisions, runner
from agora.config import JobSpec, resolve_job_params
from agora.domain import CallKind, Phase, TaskInstance
from agora.gateway import AuthRejected, ChatResponse, HttpGateway, script_from_dict
from agora.runner import (
    JobReport,
    prepare_jobs,
    record_failed,
    run_batch,
    run_sample,
    serialize_record,
)
from recording import Recording

DRAFT_HOOK = "Nobody proposed a solution yet."
IMPROVE_HOOK = "Improve the current solution."
EXTRACTION_HOOK = "your previous response"
SIMPLE_VOTE_HOOK = "Answer only with the number."
BASELINE_HOOK = "Solve the provided task."
JUDGE_HOOK = "Please provide a decision"


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
    gateway = Recording(voting_script())
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


# Each protocol that extracts a final answer: its decision call's hook, its reply, the outcome's text.
DECISION_CALLS = {"simple_voting": (SIMPLE_VOTE_HOOK, "2", "Candidate"), "judge": (JUDGE_HOOK, "Judged.", "Judged.")}


@pytest.mark.parametrize("protocol", DECISION_CALLS)
def test_an_empty_improve_reply_is_extracted_and_decided_like_any_other(protocol):
    # Any endpoint can reply with nothing; the agent is still asked for its
    # final answer from that reply, as a consensus debate reads it.
    hook, decision, final_text = DECISION_CALLS[protocol]
    script = script_from_dict(
        {
            "rules": [
                {"match": [{"contains": DRAFT_HOOK}], "response": "Draft answer."},
                {"match": [{"contains": IMPROVE_HOOK}], "response": "", "repeatable": True},
                {"match": [{"contains": EXTRACTION_HOOK}], "response": "Candidate", "repeatable": True},
                {"match": [{"contains": hook}], "response": decision, "repeatable": True},
            ]
        }
    )
    params = debate_params(decision_protocol=protocol, voting_after_turns=1)
    record = run_sample(params, make_sample(), script)
    outcome = record["outcome"]
    assert "error" not in outcome
    assert outcome["success"] is True
    assert outcome["finalText"] == final_text
    assert [(m["phase"], m["text"]) for m in record["messages"][:2]] == [("draft", "Draft answer."), ("improve", "")]


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


# A reply that holds one JSON object nested far deeper than the parser recurses.
DEEP_JSON_REPLY = '{"a":' * 100_000 + "1" + "}" * 100_000
PERSONA_HOOK = "Now generate a participant"
CUMULATIVE_VOTE_HOOK = "distributing"


def test_a_persona_reply_nested_too_deep_is_retried_as_a_malformed_one():
    personas = [
        '{"role": "Mathematician", "description": "Counts."}',
        '{"role": "Physicist", "description": "Measures."}',
    ]
    script = script_from_dict(
        {
            "rules": [
                {"match": [{"contains": PERSONA_HOOK}], "response": reply}
                for reply in [DEEP_JSON_REPLY, *personas]
            ]
            + [
                {"match": [{"contains": DRAFT_HOOK}], "response": "The answer is 42."},
                {"match": [{"contains": IMPROVE_HOOK}], "response": "Right. [AGREE]", "repeatable": True},
            ]
        }
    )
    record = run_sample(debate_params(persona_generator="expert"), make_sample(), script)
    assert record["outcome"]["success"] is True
    assert [p["name"] for p in record["personas"]] == ["Mathematician", "Physicist"]


def test_a_cumulative_ballot_nested_too_deep_is_an_invalid_ballot_and_re_prompted():
    script = script_from_dict(
        {
            "rules": debate_rules()
            + [
                {"match": [{"contains": CUMULATIVE_VOTE_HOOK}], "response": DEEP_JSON_REPLY},
                {"match": [{"contains": CUMULATIVE_VOTE_HOOK}], "response": '{"2": 10}', "repeatable": True},
            ]
        }
    )
    params = debate_params(decision_protocol="cumulative_voting", voting_after_turns=1)
    record = run_sample(params, make_sample(), script)
    outcome = record["outcome"]
    assert outcome["success"] is True
    (round_log,) = outcome["voteDetail"]
    assert [ballot["valid"] for ballot in round_log["ballots"]] == [False, True, True]
    assert round_log["winners"] == [2]


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
    gateway = Recording(baseline_script())
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
    gateway = Recording(baseline_script())
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
    return run_batch([spec], scripted=scripted)[0]


def batch_ok(reports: list[JobReport]) -> bool:
    """No job aborted and no record failed: the batch `agora run` exits 0 on."""
    return all(report.error is None and report.failures == 0 for report in reports)


def total_records(reports: list[JobReport]) -> int:
    return sum(report.records for report in reports)


def test_execute_job_writes_records_in_sample_order(tmp_path):
    spec = job_spec(tmp_path, write_dataset(tmp_path, 4))
    report = execute_job(spec, scripted=unanimity_script())
    assert report.error is None
    assert report.records == 4
    assert report.failures == 0
    records = read_jsonl(report.params.output_json_file_path)
    assert [r["task"]["id"] for r in records] == ["0001", "0002", "0003", "0004"]
    assert (report.in_flight, report.samples) == ([], [])  # a written job holds no records or samples


def test_execute_job_subsets_samples(tmp_path):
    spec = job_spec(tmp_path, write_dataset(tmp_path, 6), num_samples=2, seed=3)
    report = execute_job(spec, scripted=unanimity_script())
    assert report.records == 2
    assert len(read_jsonl(report.params.output_json_file_path)) == 2


def test_execute_job_runs_every_sample_when_num_samples_is_null(tmp_path):
    spec = job_spec(tmp_path, write_dataset(tmp_path, 3), num_samples=None)
    report = execute_job(spec, scripted=unanimity_script())
    assert report.params.num_samples is None
    assert report.records == 3


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
    first, second = read_jsonl(report.params.output_json_file_path)
    assert first["outcome"]["success"] is True
    assert second["outcome"]["error"].startswith("NoRuleMatched")


def test_no_file_but_a_leftover_repeat_is_at_fault_and_the_log_folder_is_listed_once(tmp_path, monkeypatch):
    # Only a file `evaluate` would read as a repeat of this job that the batch
    # does not write is at fault (`tests/test_cli.py` refuses those): not one of
    # the batch's own logs, another job's, nor a file of another suffix. The
    # folder is listed once for the whole batch, not once per repeat.
    out = tmp_path / "out"
    out.mkdir()
    for name in ("job-r1.json", "other-r3.json", "job-r3.txt", "job-rx.json", "job-r3", "job3.json"):
        (out / name).write_text("", encoding="utf-8")
    dataset = write_dataset(tmp_path)
    specs = [
        job_spec(tmp_path, dataset, output_json_file_path=str(out / f"job-r{k}.json"))._replace(repeat_index=k)
        for k in (1, 2)
    ]
    listed: list[Path] = []
    iterdir = Path.iterdir
    monkeypatch.setattr(Path, "iterdir", lambda folder: listed.append(folder) or iterdir(folder))
    assert len(prepare_jobs(specs, http_backend=False)) == 2
    assert listed == [out]


def test_run_batch_loads_each_dataset_file_once(tmp_path, monkeypatch):
    loads: list[str] = []
    original = datasets.load_input_file

    def counted(path):
        loads.append(path)
        return original(path)

    monkeypatch.setattr(datasets, "load_input_file", counted)
    dataset = write_dataset(tmp_path, 3)
    jobs = [job_spec(tmp_path, dataset, name=f"job{n}", num_samples=n) for n in (1, 2, 3)]
    reports = run_batch(jobs, scripted=unanimity_script())
    assert [report.records for report in reports] == [1, 2, 3]
    assert loads == [dataset]


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
    blocker = tmp_path / "blocker"
    blocked = str(blocker / "job.json")
    jobs = [
        job_spec(tmp_path, dataset, name="blocked", output_json_file_path=blocked),
        job_spec(tmp_path, dataset, name="after"),
    ]
    # The file that blocks the log's directory appears only once the debates
    # run, after the batch checked the log path.
    reports = run_batch(jobs, scripted=AgreeingBackend(lambda text: blocker.touch()))
    broken, after = reports
    assert broken.error.startswith(f"cannot write {blocked}: [Errno ")
    assert (broken.records, broken.failures) == (0, 0)
    assert after.error is None and len(read_jsonl(after.params.output_json_file_path)) == 2
    assert not batch_ok(reports)


def test_run_batch_reports_a_log_it_cannot_encode_and_goes_on(tmp_path):
    # JSON can carry a lone surrogate ("\ud800"), which UTF-8 cannot encode.
    odd = write_dataset(tmp_path, stem="odd", questions=["what is \ud800?"])
    jobs = [
        job_spec(tmp_path, odd, name="odd"),
        job_spec(tmp_path, write_dataset(tmp_path), name="after"),
    ]
    broken, after = run_batch(jobs, scripted=unanimity_script())
    assert broken.error.startswith(f"cannot write {broken.params.output_json_file_path}: 'utf-8' codec")
    assert after.error is None and len(read_jsonl(after.params.output_json_file_path)) == 2


@pytest.mark.parametrize("previous", [None, "old\n"])
def test_a_log_that_cannot_be_encoded_leaves_the_previous_log_or_none(tmp_path, previous):
    odd = write_dataset(tmp_path, stem="odd", questions=["fine", "what is \ud800?"])
    spec = job_spec(tmp_path, odd, name="odd")
    log = Path(spec.params["output_json_file_path"])
    if previous is not None:
        log.parent.mkdir(parents=True)
        log.write_text(previous, encoding="utf-8")
    (report,) = run_batch([spec], scripted=unanimity_script())
    assert report.error.startswith(f"cannot write {log}: ")
    assert list(log.parent.iterdir()) == ([] if previous is None else [log])
    if previous is not None:
        assert log.read_text(encoding="utf-8") == previous


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
    reports = run_batch(jobs, scripted=unanimity_script())
    assert [r.name for r in reports] == ["first", "second"]
    assert [(r.records, r.failures, r.error) for r in reports] == [(2, 0, None), (2, 0, None)]


# -- the per-endpoint debate queues --


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
    reports = run_batch(jobs, scripted=AgreeingBackend(on_call))
    assert batch_ok(reports)
    assert total_records(reports) == 3


class CountingTransport:
    """Fake endpoint that tracks how many requests are in flight at once."""

    def __init__(self, seconds: float = 0.002) -> None:
        self._lock = threading.Lock()
        self.seconds = seconds
        self.in_flight = 0
        self.max_in_flight = 0
        self.calls = 0

    def __call__(self, url, headers, body, timeout):
        with self._lock:
            self.in_flight += 1
            self.calls += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        time.sleep(self.seconds)
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
    reports = run_batch(jobs)
    assert batch_ok(reports)
    assert total_records(reports) == 12
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
        reports = run_batch(jobs, scripted=AgreeingBackend(on_call))
    finally:
        sys.setswitchinterval(interval)
    assert batch_ok(reports)
    for report in reports:
        assert report.records == 4
        records = read_jsonl(report.params.output_json_file_path)
        assert [r["task"]["id"] for r in records] == ["0001", "0002", "0003", "0004"]


def test_run_batch_isolates_an_aborted_job(tmp_path):
    # A job aborts only when its log fails as it is written: here a sample
    # holds a lone surrogate, which its log cannot encode.
    dataset = write_dataset(tmp_path, 2)
    jobs = [
        job_spec(tmp_path, dataset, name="before"),
        job_spec(tmp_path, write_dataset(tmp_path, stem="odd", questions=["\ud800?"]), name="broken"),
        job_spec(tmp_path, dataset, name="after"),
    ]
    before, broken, after = run_batch(jobs, scripted=unanimity_script())
    assert broken.error.startswith(f"cannot write {broken.params.output_json_file_path}: 'utf-8' codec")
    assert broken.records == 0
    for report in (before, after):
        assert report.error is None
        assert report.records == 2
        assert len(read_jsonl(report.params.output_json_file_path)) == 2


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
    assert total_records(run_batch(jobs, scripted=unanimity_script())) == 6
    assert len(seen) == len(set(seen)) == 6
    assert sorted(serialized) == ["0001", "0001", "0002", "0002", "0003", "0003"]


def test_a_run_sample_that_raises_reaches_the_caller(tmp_path, monkeypatch):
    calls: list[str] = []

    def broken(params, sample, backend):
        calls.append(sample.id)
        raise RuntimeError(f"broken {sample.id}")

    monkeypatch.setattr(runner, "run_sample", broken)
    jobs = [job_spec(tmp_path, write_dataset(tmp_path, 4), concurrent_api_requests=1)]
    raised: list[BaseException] = []

    def call() -> None:
        try:
            run_batch(jobs, scripted=unanimity_script())
        except RuntimeError as exc:
            raised.append(exc)

    # A lost exception would leave the caller waiting on a record that never
    # comes; the join times out instead of hanging the suite.
    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=10)
    assert not caller.is_alive()
    assert [str(exc) for exc in raised] == ["broken 0001"]
    # The one worker stopped at the failure: no other sample was taken.
    assert calls == ["0001"]


def test_run_batch_starts_one_worker_per_slot(tmp_path, started_threads):
    dataset = write_dataset(tmp_path, 6)
    jobs = [
        job_spec(tmp_path, dataset, name="two", concurrent_api_requests=2),
        job_spec(tmp_path, dataset, name="three", concurrent_api_requests=3),
        job_spec(tmp_path, dataset, name="three-again", concurrent_api_requests=3),
    ]
    reports = run_batch(jobs, scripted=unanimity_script())
    assert batch_ok(reports) and total_records(reports) == 18
    # Two distinct caps, 2 + 3: the jobs that share a cap share its slots.
    assert len(started_threads) == 5


def test_run_batch_hands_out_samples_in_job_order(tmp_path, monkeypatch):
    seen: list[str] = []
    original = runner.run_sample

    def recording(params, sample, backend):
        seen.append(f"{Path(params.output_json_file_path).stem}:{sample.id}")
        return original(params, sample, backend)

    monkeypatch.setattr(runner, "run_sample", recording)
    dataset = write_dataset(tmp_path, 3)
    jobs = [job_spec(tmp_path, dataset, name=name, concurrent_api_requests=1) for name in "ab"]
    assert batch_ok(run_batch(jobs, scripted=unanimity_script()))
    # One slot, so one worker: the order it takes the samples in is visible.
    assert seen == ["a:0001", "a:0002", "a:0003", "b:0001", "b:0002", "b:0003"]


def test_run_batch_hands_out_the_longest_debates_first(tmp_path, monkeypatch):
    seen: list[str] = []
    original = runner.run_sample

    def recording(params, sample, backend):
        seen.append(f"{Path(params.output_json_file_path).stem}:{sample.id}")
        return original(params, sample, backend)

    monkeypatch.setattr(runner, "run_sample", recording)
    dataset = write_dataset(tmp_path, 2)
    jobs = [
        job_spec(tmp_path, dataset, name=name, concurrent_api_requests=1, **params)
        for name, params in [("baseline", {"use_baseline": True}), ("consensus", {}), ("voting", {"decision_protocol": "simple_voting"})]
    ]
    reports = run_batch(jobs, scripted=AgreeingBackend())
    assert batch_ok(reports)
    assert [(report.name, report.records) for report in reports] == [("baseline", 2), ("consensus", 2), ("voting", 2)]
    # At most 1, 14 and 28 calls a debate; one slot, so one worker takes the
    # samples longest job first, and each job's in sample order.
    assert [decisions.call_bounds(report.params)[1] for report in reports] == [1, 14, 28]
    assert seen == ["voting:0001", "voting:0002", "consensus:0001", "consensus:0002", "baseline:0001", "baseline:0002"]


def test_every_gateway_is_built_before_the_first_worker_starts(tmp_path, monkeypatch, started_threads):
    built: list[tuple[str, bool, int]] = []

    def gateway(url, *args, **kwargs):
        built.append((url, threading.current_thread() is threading.main_thread(), len(started_threads)))
        return HttpGateway(url, *args, transport=CountingTransport(), **kwargs)

    monkeypatch.setattr(runner, "HttpGateway", gateway)
    dataset = write_dataset(tmp_path, 2)
    jobs = [
        job_spec(tmp_path, dataset, name=name, endpoint_url=url, model_name="m")
        for name, url in [("a", "http://one.invalid"), ("b", "http://two.invalid"), ("c", "http://one.invalid")]
    ]
    assert batch_ok(run_batch(jobs))
    # One gateway, so one set of slots, per endpoint, each built on the
    # calling thread while no worker was running.
    assert built == [("http://one.invalid", True, 0), ("http://two.invalid", True, 0)]


def test_two_endpoints_are_busy_at_once_each_at_its_cap(tmp_path, monkeypatch):
    # Each endpoint has a job of six debates, cap 2 and 20 ms calls. The
    # second endpoint's first call must come while the first endpoint's job
    # still has debates to start; each endpoint keeps exactly its cap in
    # flight, so no call waits for a slot (and no latency holds such a wait).
    events: list[tuple[str, str]] = []  # ("start", job) and ("call", endpoint), in order
    transports = {url: CountingTransport(seconds=0.02) for url in ("http://one.invalid", "http://two.invalid")}
    slot_waits: list[str] = []

    def transport_of(url):
        def transport(*args):
            events.append(("call", url))
            return transports[url](*args)

        return transport

    class WaitCountingSlots(threading.BoundedSemaphore):
        def __enter__(self):
            if not self.acquire(blocking=False):
                slot_waits.append(threading.current_thread().name)
                self.acquire()
            return True

    original = runner.run_sample

    def recording(params, sample, backend):
        events.append(("start", Path(params.output_json_file_path).stem))
        return original(params, sample, backend)

    monkeypatch.setattr(threading, "BoundedSemaphore", WaitCountingSlots)
    monkeypatch.setattr(runner, "HttpGateway", lambda url, *args: HttpGateway(url, *args, transport=transport_of(url)))
    monkeypatch.setattr(runner, "run_sample", recording)
    dataset = write_dataset(tmp_path, 6)
    common = {"model_name": "m", "concurrent_api_requests": 2}
    jobs = [
        job_spec(tmp_path, dataset, name=name, endpoint_url=f"http://{name}.invalid", **common) for name in ("one", "two")
    ]
    assert total_records(run_batch(jobs)) == 12
    last_start = {name: max(i for i, event in enumerate(events) if event == ("start", name)) for name in ("one", "two")}
    first_call = {name: events.index(("call", f"http://{name}.invalid")) for name in ("one", "two")}
    assert first_call["two"] < last_start["one"] and first_call["one"] < last_start["two"]
    assert [transport.max_in_flight for transport in transports.values()] == [2, 2]
    assert slot_waits == []


# -- the per-debate backend --

# The discussion's own kinds of call: each reply is a turn's message.
TURN_KINDS = {Phase.DRAFT, Phase.IMPROVE, Phase.FEEDBACK, Phase.CENTRAL_SYNTHESIS}


class KindRecordingBackend:
    """Answers every kind of call, read from its label, and records each call's kind and model name."""

    def __init__(self) -> None:
        self.calls: list[tuple[str, str]] = []

    @staticmethod
    def clock() -> float:
        return 0.0

    def complete(self, req) -> ChatResponse:
        self.calls.append((req.kind, req.model_name))
        if req.kind == CallKind.PERSONA:
            persona = {"role": f"Expert {len(self.calls)}", "description": "d"}
            return ChatResponse(text=json.dumps(persona))
        if req.kind == CallKind.BALLOT:
            return ChatResponse(text="1")
        return ChatResponse(text="Mine. [DISAGREE]" if req.kind in TURN_KINDS else "An answer.")


@pytest.mark.parametrize(
    "overrides, kinds",
    [
        (
            {"persona_generator": "expert", "decision_protocol": "judge", "voting_after_turns": 1},
            {"persona", "draft", "improve", "extraction", "judge"},
        ),
        (
            {"decision_protocol": "simple_voting", "voting_after_turns": 1},
            {"draft", "improve", "extraction", "ballot"},
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


class RejectingBackend(KindRecordingBackend):
    """Rejects the credentials of one kind of call and answers every other."""

    def __init__(self, kind: str) -> None:
        super().__init__()
        self.kind = kind

    def complete(self, req) -> ChatResponse:
        reply = super().complete(req)
        if self.calls[-1][0] == self.kind:
            raise AuthRejected("endpoint rejected credentials (HTTP 401)")
        return reply


# Each kind of call, and a job that makes it.
JOB_OF_KIND = {
    Phase.DRAFT: {},
    Phase.IMPROVE: {},
    Phase.FEEDBACK: {"discussion_paradigm": "debate", "num_agents": 3},
    Phase.CENTRAL_SYNTHESIS: {"discussion_paradigm": "report", "num_agents": 3},
    Phase.EXTRACTION: {"decision_protocol": "judge", "voting_after_turns": 1},
    Phase.JUDGE: {"decision_protocol": "judge", "voting_after_turns": 1},
    CallKind.PERSONA: {"persona_generator": "expert"},
    CallKind.BALLOT: {"decision_protocol": "simple_voting", "voting_after_turns": 1},
    CallKind.BASELINE: {"use_baseline": True},
}


def test_every_kind_of_call_has_a_job_that_makes_it():
    assert set(JOB_OF_KIND) == {*Phase, *CallKind}


@pytest.mark.parametrize("kind", JOB_OF_KIND, ids=lambda kind: kind.value)
def test_rejected_credentials_fail_the_debate_on_every_kind_of_call(kind):
    # Other gateway failures of the judge call fall back to the first candidate.
    backend = RejectingBackend(kind)
    outcome = run_sample(debate_params(**JOB_OF_KIND[kind]), make_sample(), backend)["outcome"]
    assert backend.calls[-1][0] == kind  # the debate ended at the rejected call
    assert outcome["success"] is False
    assert outcome["error"] == "AuthRejected: endpoint rejected credentials (HTTP 401)"
    assert "fallbackReason" not in outcome


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
