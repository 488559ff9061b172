"""Debate execution (`run_sample`) and batch orchestration (`run_batch`) against scripted backends.

- A record logs every call a debate makes, as a message or a ballot. An
  empty improve reply is decided like any other; a persona reply or a
  cumulative ballot nested too deep for the parser is malformed and asked for
  again. A baseline is one call, a system prompt and, with chain of thought,
  `Let's think step-by-step.`, logged as a turn-1 draft of `Participant 1`.
- `EARLY_ENDS`: wherever a run ends, its record logs the protocol, the last
  turn completed, the messages and personas so far, and no API key; it fails
  exactly when it names an `error`, or a `fallbackReason` for a failed judge
  call, whose answer is the first candidate. A record is compact JSON that
  keeps non-ASCII text, and failed when its outcome holds an error.
- `BATCHES`: a batch needs a job, loads each dataset once, and writes each
  job's records in sample order (all, or a seeded `num_samples`), making the
  log's folder; a written job's report keeps only its counts.
- `LOG_FAULTS`: a log that cannot be written aborts its job alone and leaves
  an earlier log's bytes, or no file. Only a file `evaluate` would read as a
  leftover repeat of a job is at fault, and the log folder is listed once.
- Each endpoint gets one gateway, built before any worker starts, and never
  more calls or debates in flight than its cap; two endpoints run at once,
  each at its cap. Records keep sample order though debates end out of order,
  and `run_sample` and `serialize_record` run through `runner` once a sample.
- Every call names the job's model; rejected credentials on any kind of call
  fail the debate, with no fallback. A record's clock is the backend's.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from pathlib import Path

import pytest

from agora import datasets, runner
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
from recording import DRAFT_HOOK, EXTRACTION_HOOK, IMPROVE_HOOK, SIMPLE_VOTE_HOOK, Agreeing, CountingTransport, Recording

BASELINE_HOOK = "Solve the provided task."
JUDGE_HOOK = "Please provide a decision"


def make_sample(i: int = 1, question: str = "What is 2+2?") -> TaskInstance:
    return TaskInstance(
        id=f"{i:04d}",
        instruction_key="Answer the question.",
        input_lines=(question,),
        references=("4",),
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


UNANIMITY_RULES = [
    {"match": [{"contains": DRAFT_HOOK}], "response": "The answer is 42."},
    {"match": [{"contains": IMPROVE_HOOK}], "response": "Right. [AGREE]", "repeatable": True},
]
PANEL = ["Participant 1", "Participant 2"]
NO_RULE = "NoRuleMatched: no rule matched"

# Each place a run can end: the job, the script, and what the record logs: the
# protocol, decidedAtTurn, each message's phase (and agreement), the persona
# names, finalText, and the outcome's reason key with the start of its value
# ({} on success).
EARLY_ENDS = {
    "unanimous first turn": (
        {}, UNANIMITY_RULES,
        ("majority_consensus", 1, ["draft", "improve:agree"], PANEL, "The answer is 42.", {}),
    ),
    "baseline crash": (
        {"use_baseline": True, "decision_protocol": "judge"}, debate_rules(),
        ("baseline", 0, [], ["Participant 1"], "", {"error": NO_RULE}),
    ),
    "expert persona crash": (
        {"persona_generator": "expert"}, debate_rules(),
        ("majority_consensus", 0, [], [], "", {"error": NO_RULE}),
    ),
    "crash in turn 1": (
        {}, debate_rules()[:1],
        ("majority_consensus", 0, ["draft"], PANEL, "", {"error": NO_RULE}),
    ),
    "crash in turn 2": (
        {}, debate_rules(improve_repeatable=False),
        ("majority_consensus", 1, ["draft", "improve:disagree"], PANEL, "", {"error": NO_RULE}),
    ),
    "crash at a ballot": (
        {"decision_protocol": "simple_voting", "voting_after_turns": 2}, debate_rules(),
        ("simple_voting", 2, ["draft"] + ["improve:disagree"] * 3 + ["extraction"] * 2, PANEL, "", {"error": NO_RULE}),
    ),
    "judge fallback": (
        {"decision_protocol": "judge", "voting_after_turns": 1}, debate_rules(),
        (
            "judge", 1, ["draft", "improve:disagree", "extraction", "extraction"], PANEL, "Candidate",
            {"fallbackReason": "judge call failed: no rule matched"},
        ),
    ),
}


@pytest.mark.parametrize("case", EARLY_ENDS)
def test_run_sample_logs_protocol_turn_and_personas_where_a_run_ends(case):
    overrides, rules, (protocol, turn, phases, personas, final_text, reason) = EARLY_ENDS[case]
    record = run_sample(debate_params(**overrides), make_sample(), script_from_dict({"rules": rules}))
    outcome = record["outcome"]
    assert (outcome["protocol"], outcome["decidedAtTurn"]) == (protocol, turn)
    assert [":".join(filter(None, (m["phase"], m.get("agreement")))) for m in record["messages"]] == phases
    assert [p["name"] for p in record["personas"]] == personas
    assert (outcome["finalText"], outcome["success"]) == (final_text, not reason)
    assert {"error", "fallbackReason"} & set(outcome) == set(reason)
    assert all(outcome[key].startswith(start) for key, start in reason.items())
    assert (record["task"]["id"], record["config"]["num_agents"], record["globalClockMs"]) == ("0001", 2, 0)
    assert "api_key" not in record["config"]


# -- serialization helpers --


def test_serialize_record_is_compact_and_unicode():
    line = serialize_record({"text": "héllo", "n": 1})
    assert line == '{"text":"héllo","n":1}'


def test_record_failed():
    assert record_failed({"outcome": {"error": "boom"}})
    assert not record_failed({"outcome": {"success": True}})
    assert not record_failed({})


# -- batches --


def write_dataset(tmp_path, questions: int | list[str] = 2, stem: str = "samples") -> str:
    """A dataset of these questions, or of "question 1" to "question n" for a number n."""
    path = tmp_path / f"{stem}.json"
    if isinstance(questions, int):
        questions = [f"question {i}" for i in range(1, questions + 1)]
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
    """A job of `dataset` whose log, unless given, is out/<name>.json; a relative log path is under `tmp_path`."""
    merged = {"input_json_file_path": dataset, "output_json_file_path": f"out/{name}.json", "num_agents": 2}
    merged.update(params)
    merged["output_json_file_path"] = str(tmp_path / merged["output_json_file_path"])
    return JobSpec(name=name, params=merged, repeat_index=1)


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def batch_ok(reports: list[JobReport]) -> bool:
    """No job aborted and no record failed: the batch `agora run` exits 0 on."""
    return all(report.error is None and report.failures == 0 for report in reports)


def total_records(reports: list[JobReport]) -> int:
    return sum(report.records for report in reports)


def test_run_batch_requires_jobs():
    with pytest.raises(ValueError):
        run_batch([])


# The draft rule answers a prompt holding "question <n>"; any other sample fails.
ANSWERED_SCRIPT = {
    "rules": [
        {"match": [{"contains": DRAFT_HOOK}, {"contains": "question "}], "response": "Draft.", "repeatable": True},
        {"match": [{"contains": IMPROVE_HOOK}], "response": "OK. [AGREE]", "repeatable": True},
    ]
}

# Each batch over one dataset: its questions, each job's name and overrides,
# and the task ids each job's log holds in order, "!" marking a sample whose
# debate failed.
BATCHES = {
    "sample order": (4, {"job": {}}, ["0001 0002 0003 0004"]),
    "subset": (6, {"job": {"num_samples": 2, "seed": 3}}, ["0002 0005"]),
    "num_samples null": (3, {"job": {"num_samples": None}}, ["0001 0002 0003"]),
    "per-sample failure": (["question 1", "unanswered"], {"job": {}}, ["0001 0002!"]),
    "made output folder": (1, {"job": {"output_json_file_path": "deep/nested/x.json"}}, ["0001"]),
    "two jobs": (2, {"first": {}, "second": {}}, ["0001 0002", "0001 0002"]),
    "one load for three jobs": (
        3, {f"job{n}": {"num_samples": n} for n in (1, 2, 3)}, ["0002", "0002 0003", "0001 0002 0003"]
    ),
}


@pytest.mark.parametrize("case", BATCHES)
def test_run_batch_writes_each_jobs_records_in_sample_order(tmp_path, monkeypatch, case):
    questions, jobs, logs = BATCHES[case]
    loads: list[str] = []
    load = datasets.load_input_file
    monkeypatch.setattr(datasets, "load_input_file", lambda path: loads.append(path) or load(path))
    dataset = write_dataset(tmp_path, questions)
    specs = [job_spec(tmp_path, dataset, name, **overrides) for name, overrides in jobs.items()]
    reports = run_batch(specs, scripted=script_from_dict(ANSWERED_SCRIPT))
    assert loads == [dataset]
    for report, (name, overrides), log in zip(reports, jobs.items(), logs, strict=True):
        assert (report.name, report.params.num_samples, report.error) == (name, overrides.get("num_samples"), None)
        records = read_jsonl(report.params.output_json_file_path)
        assert " ".join(r["task"]["id"] + ("!" if record_failed(r) else "") for r in records) == log
        assert all(r["outcome"]["success"] or r["outcome"]["error"].startswith(NO_RULE) for r in records)
        assert (report.records, report.failures) == (len(records), log.count("!"))
        assert (report.in_flight, report.samples) == ([], [])  # a written job holds no records or samples


# Each way a job's log can fail as it is written, after the batch checked its
# path: the job's questions, the folder of its log, the log an earlier batch
# left there (or None), and how the error goes on after "cannot write <log>: ".
# A file that blocks the folder "blocker" appears once the debates run; UTF-8
# cannot encode a lone surrogate ("\ud800"), which JSON can carry.
LOG_FAULTS = {
    "blocked folder": (2, "blocker", None, "[Errno "),
    "lone surrogate": (["fine", "what is \ud800?"], "odd", None, "'utf-8' codec"),
    "lone surrogate over a previous log": (["fine", "what is \ud800?"], "odd", "old\n", "'utf-8' codec"),
}


@pytest.mark.parametrize("case", LOG_FAULTS)
def test_a_log_that_cannot_be_written_aborts_its_job_alone(tmp_path, case):
    questions, folder, previous, error = LOG_FAULTS[case]
    log = tmp_path / folder / "broken.json"
    if previous is not None:
        log.parent.mkdir()
        log.write_text(previous, encoding="utf-8")
    dataset = write_dataset(tmp_path)
    jobs = [
        job_spec(tmp_path, dataset, name="before"),
        job_spec(tmp_path, write_dataset(tmp_path, questions, stem="broken"), "broken", output_json_file_path=log),
        job_spec(tmp_path, dataset, name="after"),
    ]
    before, broken, after = run_batch(jobs, scripted=Agreeing(lambda text: (tmp_path / "blocker").touch()))
    assert broken.error.startswith(f"cannot write {log}: {error}")
    assert (broken.records, broken.failures) == (0, 0)
    for report in (before, after):
        assert report.error is None and report.records == len(read_jsonl(report.params.output_json_file_path)) == 2
    # The earlier log keeps its bytes, or no file is left.
    left = sorted(log.parent.iterdir()) if log.parent.is_dir() else []
    assert {file: file.read_text(encoding="utf-8") for file in left} == ({log: previous} if previous else {})


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


# -- the per-endpoint debate queues --


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
    assert len(transport.bodies) == 12 * 2
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
        reports = run_batch(jobs, scripted=Agreeing(on_call))
    finally:
        sys.setswitchinterval(interval)
    assert batch_ok(reports)
    for report in reports:
        assert report.records == 4
        records = read_jsonl(report.params.output_json_file_path)
        assert [r["task"]["id"] for r in records] == ["0001", "0002", "0003", "0004"]


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
    assert total_records(run_batch(jobs, scripted=Agreeing())) == 6
    assert len(seen) == len(set(seen)) == 6
    assert sorted(serialized) == ["0001", "0001", "0002", "0002", "0003", "0003"]


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


class SteppingClockBackend(Agreeing):
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
