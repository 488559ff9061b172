"""The whole configuration space against the paper's rules, at cap 1 and at cap 8.

Every `config.CHOICES` combination runs at 3 agents; report and debate also
run at 4 agents (a pair and a lone peer) and at 5 (two pairs) under every
protocol; and the CoT and plain baselines run once each. That is 322 jobs of
2 samples, 644 debates, against the benchmark's scripted stub in-process
(`perfbench/stub.py`, imported read-only), through `runner.run_batch`.

The rules are written here, not read from the engine: a debate's speakers
and phases per turn, its contiguous `seq`, its success flag, where a
consensus debate ends (agreement recomputed from the logged messages), where
a voting or judge debate ends, what each discussion prompt shows of the
discussion so far (the model of acceptance criterion 3), and which kind of
call and which agent each request is labelled with (the stub's reading of
its prompt, and the log entry its reply became). Each debate's count of
calls is checked against the engine's bounds (`runner.call_bounds`), with
the bounds met where its turns and rounds were the fewest or the most
allowed. The same batch at
cap 1 and at cap 8 must write the same records, and one digest pins them; a
table of smaller digests names the first job, sample and field that differ.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

import pytest

from agora import runner
from agora.config import CHOICES, JobSpec
from agora.decisions import consensus_reached
from agora.domain import CallKind, JobParams, Phase, Share
from agora.gateway import HttpGateway, wire_body

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "perfbench") not in sys.path:
    sys.path.insert(0, str(ROOT / "perfbench"))

import stub  # noqa: E402

SEED = 7
MAX_TURNS = 4
VOTING_AFTER_TURNS = 2
# Two exchanges per pair and one for a lone peer: the paper's default.
DEBATE_EXCHANGES = 2
SAMPLES = 2
DISCUSSION_HOOK = "You take part in a discussion to solve a task."
MEMORY_HOOK = "\nDiscussion so far: "
MARKER_RE = re.compile(r"\[item (c\d+-n\d+)\]")

# sha256 over every record of the space, in job and sample order, with
# concurrent_api_requests dropped from its config.
DIGEST = "5f75d387deadd24a45d05225baa2c40fb3209b2af95180eae5e123ed8b76d37b"
# The same records, digested per job and, for each record, per top-level
# field. After a change meant to alter the records, rewrite it, and get the
# DIGEST to pin, with `PYTHONPATH=src python tests/test_config_space.py`; the
# tests only read it.
TABLE = ROOT / "tests" / "golden" / "config_space.json"

# The paper's consensus bars on the share of the panel agreeing with the draft.
CONSENSUS = {
    "majority_consensus": lambda share: share > Fraction(1, 2),
    "supermajority_consensus": lambda share: share > Fraction(66, 100),
    "unanimity_consensus": lambda share: share == 1,
}


def test_the_integer_consensus_rules_are_the_fraction_rules():
    # Every agreeing count on every panel of 1 to 100 agents.
    for panel in range(1, 101):
        for agreeing in range(panel + 1):
            for protocol, rule in CONSENSUS.items():
                expected = rule(Fraction(agreeing, panel))
                assert consensus_reached(Share(agreeing, panel), protocol) == expected, (protocol, agreeing, panel)


def space() -> list[dict]:
    """Each job's parameters, in a fixed order."""
    jobs = [
        {"response_generator": generator, "persona_generator": persona,
         "discussion_paradigm": paradigm, "decision_protocol": protocol, "num_agents": 3}
        for generator, persona, paradigm, protocol in itertools.product(
            *(sorted(CHOICES[key]) for key in ("response_generator", "persona_generator",
                                               "discussion_paradigm", "decision_protocol"))
        )
    ]
    jobs += [
        {"discussion_paradigm": paradigm, "decision_protocol": protocol, "num_agents": n}
        for paradigm in ("report", "debate")
        for n in (4, 5)
        for protocol in sorted(CHOICES["decision_protocol"])
    ]
    jobs += [{"use_baseline": True}, {"use_baseline": True, "use_chain_of_thought": False}]
    return jobs


def sample(job: int, index: int) -> dict:
    """A multiple-choice sample whose task text carries the debate's own marker,
    so no two debates send the same request (the stub counts attempts per request)."""
    return {
        "id": f"{index:04d}",
        "instruction": f"Answer the following multiple-choice question. [item c{job}-n{index}]\n"
        "Make absolutely sure to provide your solution in the end: 'FINAL SOLUTION: <Letter>'.",
        "inputs": [f"Which colour is case {job}.{index}?", "A) red", "B) green", "C) blue",
                   "D) amber"],
        "answerLetter": "ABCD"[(job + index) % 4],
    }


def run_space(cap: int, monkeypatch) -> tuple[list[list[dict]], dict, dict]:
    """Every job's records, the stub's counters, and each debate's calls: (request
    messages, reply, (kind, agent) labels) as the gateway receives and answers them.
    Paths are relative to the working directory, so the records do not depend on it."""
    backend = stub.Stub(stub.Responder(SEED, stub.load_templates(ROOT / "src/agora/templates")))
    calls: dict[str, list[tuple[list[dict], str, tuple[str, int]]]] = defaultdict(list)

    def transport(url, headers, body, timeout):
        status, payload, _ = backend.complete(body)
        return status, payload

    class RecordingGateway(HttpGateway):
        def complete(self, req):
            reply = super().complete(req)
            marker = MARKER_RE.search("".join(m.content for m in req.messages)).group(1)
            calls[marker].append((wire_body(req)["messages"], reply.text, (req.kind, req.agent)))
            return reply

    monkeypatch.setattr(
        runner, "HttpGateway",
        lambda url, key, max_in_flight: RecordingGateway(
            url, key, max_in_flight=max_in_flight, transport=transport, clock=lambda: 0.0
        ),
    )
    specs = []
    for job, params in enumerate(space()):
        dataset = Path(f"c{job}.json")
        dataset.write_text(json.dumps([sample(job, n) for n in range(1, SAMPLES + 1)]))
        params = {
            "endpoint_url": "http://stub.test/v1", "model_name": "stub-model",
            "input_json_file_path": str(dataset),
            "output_json_file_path": f"logs/c{job}.jsonl",
            "concurrent_api_requests": cap, "max_turns": MAX_TURNS,
            "voting_after_turns": VOTING_AFTER_TURNS, "debate_exchanges": DEBATE_EXCHANGES,
            **params,
        }
        specs.append(JobSpec(f"c{job}", params, 1))
    reports = runner.run_batch(specs)
    assert [report.error for report in reports] == [None] * len(specs)
    logs = [
        [json.loads(line) for line in Path(spec.params["output_json_file_path"]).read_text("utf-8").splitlines()]
        for spec in specs
    ]
    return logs, backend.stats(), calls


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The space at cap 1 and at cap 8, and the seconds each took."""
    result = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.chdir(tmp_path_factory.mktemp("space"))
        for cap in (1, 8):
            started = time.monotonic()
            result[cap] = run_space(cap, monkeypatch), time.monotonic() - started
    return result


@pytest.fixture(scope="module")
def debates(runs):
    """(marker, record, that debate's calls) for every debate at cap 1."""
    (logs, _, calls), _ = runs[1]
    return [
        (f"c{job}-n{index}", record, calls[f"c{job}-n{index}"])
        for job, records in enumerate(logs)
        for index, record in enumerate(records, 1)
    ]


def discussion(record: dict) -> list[dict]:
    return [m for m in record["messages"] if m["phase"] not in ("extraction", "judge")]


def peer_pairs(n: int) -> list[list[int]]:
    """Agent 1 is the central agent; the peers pair off in order, an odd one alone."""
    peers = list(range(2, n + 1))
    return [peers[i : i + 2] for i in range(0, len(peers), 2)]


def turn_plan(paradigm: str, n: int) -> list[tuple[int, str]]:
    """(speaker, phase) for each message of a turn, as the paper lays out the paradigm."""
    if paradigm in ("memory", "relay"):
        return [(agent, "improve") for agent in range(1, n + 1)]
    if paradigm == "report":
        return [(agent, "improve") for agent in range(2, n + 1)] + [(1, "central_synthesis")]
    plan = []
    for pair in peer_pairs(n):
        exchanges = DEBATE_EXCHANGES if len(pair) == 2 else math.ceil(DEBATE_EXCHANGES / 2)
        plan += [(pair[e % len(pair)], "feedback") for e in range(exchanges)]
    return plan + [(1, "central_synthesis")]


def visible(paradigm: str, prior: list[dict], message: dict, n: int) -> list[dict]:
    """What a speaker may see of the discussion before its message (criterion 3's model)."""
    if paradigm == "memory" or (paradigm in ("report", "debate") and message["agentId"] == 1):
        return prior
    if paradigm == "relay":
        return prior[-1:]
    if paradigm == "report":
        return [m for m in prior
                if m["agentId"] == message["agentId"] or m["phase"] == "central_synthesis"]
    pair = next(pair for pair in peer_pairs(n) if message["agentId"] in pair)
    return [m for m in prior
            if (m["agentId"] in pair and m["turn"] == message["turn"])
            or m["phase"] == "central_synthesis"]


def shares_by_turn(record: dict) -> list[Fraction]:
    """The agreeing share of the panel after each turn: a draft, a synthesis or a
    disagreeing improve installs a new draft its author alone agrees with."""
    n = len(record["personas"])
    agreeing: dict[int, bool] = {}
    shares = []
    for turn in range(1, record["outcome"]["decidedAtTurn"] + 1):
        for m in (m for m in discussion(record) if m["turn"] == turn):
            new_draft = m["phase"] in ("draft", "central_synthesis") or (
                m["phase"] == "improve" and m.get("agreement") != "agree"
            )
            if new_draft:
                agreeing = {m["agentId"]: True}
            elif "agreement" in m:
                agreeing[m["agentId"]] = m["agreement"] == "agree"
        shares.append(Fraction(sum(agreeing.values()), n))
    return shares


def test_every_debate_runs_without_error(runs, debates):
    (_, counters, calls), _ = runs[1]
    assert len(debates) == 644
    assert counters["unclassified"] == 0
    assert counters["calls"] == sum(len(pairs) for pairs in calls.values())
    assert [marker for marker, record, _ in debates if "error" in record["outcome"]] == []


def test_seq_is_contiguous_from_1(debates):
    for marker, record, _ in debates:
        seqs = [m["seq"] for m in record["messages"]]
        assert seqs == list(range(1, len(seqs) + 1)), marker


def test_each_turn_has_the_speakers_and_phases_of_its_paradigm(debates):
    for marker, record, _ in debates:
        config, turns = record["config"], record["outcome"]["decidedAtTurn"]
        got = [(m["turn"], m["agentId"], m["phase"]) for m in discussion(record)]
        if config["use_baseline"]:
            assert (got, turns) == ([(1, 1, "draft")], 1), marker
            continue
        plan = turn_plan(config["discussion_paradigm"], config["num_agents"])
        expected = [(turn, agent, phase) for turn in range(1, turns + 1) for agent, phase in plan]
        expected[0] = (1, expected[0][1], "draft")
        assert got == expected, marker


def test_success_means_no_fallback_and_no_error(debates):
    for marker, record, _ in debates:
        outcome = record["outcome"]
        clean = "fallbackReason" not in outcome and "error" not in outcome
        assert outcome["success"] is clean, marker


def test_a_consensus_debate_ends_at_its_first_agreeing_turn_or_at_the_cap(debates):
    ended = defaultdict(int)
    for marker, record, _ in debates:
        protocol, outcome = record["config"]["decision_protocol"], record["outcome"]
        if protocol not in CONSENSUS or record["config"]["use_baseline"]:
            continue
        reached = [CONSENSUS[protocol](share) for share in shares_by_turn(record)]
        if any(reached):
            assert reached.index(True) + 1 == outcome["decidedAtTurn"], marker
            assert "fallbackReason" not in outcome, marker
        else:
            assert outcome["decidedAtTurn"] == MAX_TURNS, marker
            assert outcome["fallbackReason"] == "turn cap reached without consensus", marker
        ended[any(reached)] += 1
    assert ended[True] and ended[False]  # the space reaches both ends


def test_a_voting_or_judge_debate_decides_at_its_voting_turn_or_after_one_tie_turn(debates):
    for marker, record, _ in debates:
        protocol, outcome = record["config"]["decision_protocol"], record["outcome"]
        if protocol in CONSENSUS or record["config"]["use_baseline"]:
            continue
        rounds = outcome.get("voteDetail", [None])
        assert outcome["decidedAtTurn"] == VOTING_AFTER_TURNS + len(rounds) - 1, marker
        tie_broken = outcome.get("tieBroken") in ("extra_round", "deterministic_index")
        assert len(rounds) == 1 or tie_broken, marker


# The most calls one persona takes (three malformed and three duplicate
# replies are each retried twice) and one voter's ballot (three re-prompts).
PERSONA_TRIES = 5
BALLOT_TRIES = 4


def test_each_debate_makes_between_the_fewest_and_the_most_calls_of_its_job(debates):
    # With each persona and ballot retry it made taken out (`bare`), or every
    # one it could have made put in (`full`), a debate meets its job's bound
    # exactly when it took the fewest, or the most, turns and vote rounds its
    # protocol allows. Its own count meets each bound somewhere beyond the baselines.
    met = Counter()
    for marker, record, calls in debates:
        config, outcome = record["config"], record["outcome"]
        fewest, most = runner.call_bounds(JobParams(**config))
        kinds = Counter(kind for _, _, (kind, _) in calls)
        rounds, turns, k = len(outcome.get("voteDetail", [])), outcome["decidedAtTurn"], config["num_agents"]
        personas = k if kinds[CallKind.PERSONA] else 0
        bare = len(calls) - (kinds[CallKind.PERSONA] - personas) - (kinds[CallKind.BALLOT] - k * rounds)
        full = bare + personas * (PERSONA_TRIES - 1) + k * rounds * (BALLOT_TRIES - 1)
        protocol = config["decision_protocol"]
        if config["use_baseline"] or protocol == "judge":
            shortest = longest = True
        elif protocol in CONSENSUS:
            shortest, longest = turns == 1, turns == MAX_TURNS
        else:
            shortest, longest = rounds == 1, rounds == 2 or turns == MAX_TURNS
        assert fewest <= bare <= len(calls) <= full <= most, (marker, fewest, bare, len(calls), full, most)
        assert (bare == fewest, full == most) == (shortest, longest), (marker, fewest, bare, full, most)
        if not config["use_baseline"]:
            met.update(end for end, bound in (("fewest", fewest), ("most", most)) if len(calls) == bound)
    assert met["fewest"] and met["most"], met


def test_each_discussion_prompt_shows_what_its_paradigm_allows(debates):
    checked = 0
    for marker, record, pairs in debates:
        if record["config"]["use_baseline"]:
            continue
        names = {p["agentId"]: p["name"] for p in record["personas"]}
        prompts = [(request, reply) for request, reply, _ in pairs
                   if request[0]["content"].startswith(DISCUSSION_HOOK)]
        messages = discussion(record)
        assert [reply for _, reply in prompts] == [m["text"] for m in messages], marker
        paradigm, n = record["config"]["discussion_paradigm"], len(record["personas"])
        for index, ((request, _), message) in enumerate(zip(prompts, messages)):
            system = request[0]["content"]
            if message["phase"] == "draft":
                assert MEMORY_HOOK not in system, marker
                continue
            shown = system.partition(MEMORY_HOOK)[2]
            allowed = visible(paradigm, messages[:index], message, n)
            assert shown == "\n".join(f"{names[m['agentId']]}: {m['text']}" for m in allowed), (
                marker, message["seq"])
            checked += 1
    assert checked > 4000


def engine_kind(stub_kind: str) -> str:
    """The engine's label for a kind of call that the stub tells apart by its prompt."""
    if stub_kind.startswith(("ballot_", "persona_")):
        return stub_kind.partition("_")[0]
    return {"revise": "central_synthesis", "cot": "baseline", "plain": "baseline"}.get(stub_kind, stub_kind)


def test_each_call_is_labelled_with_the_kind_and_agent_it_serves(debates):
    # Each reply is logged under its call's labels: a message under its kind
    # as the phase (a baseline's answer is its draft) and its agent as the
    # speaker, a ballot under its voter, and a persona's accepted reply under
    # its agent.
    responder = stub.Responder(SEED, stub.load_templates(ROOT / "src/agora/templates"))
    seen = set()
    for marker, record, calls in debates:
        for request, _, (kind, _) in calls:
            assert engine_kind(responder.classify(request)[0]) == kind, (marker, kind)
            seen.add(kind)
        messages = [(Phase.DRAFT if kind == CallKind.BASELINE else kind, agent, reply)
                    for _, reply, (kind, agent) in calls if kind not in (CallKind.PERSONA, CallKind.BALLOT)]
        assert messages == [(m["phase"], m["agentId"], m["text"]) for m in record["messages"]], marker
        ballots = [(agent, reply) for _, reply, (kind, agent) in calls if kind == CallKind.BALLOT]
        voted = [b for vote_round in record["outcome"].get("voteDetail", []) for b in vote_round["ballots"]]
        assert ballots == [(b["voter"], b["rawText"]) for b in voted], marker
        personas = {agent: reply for _, reply, (kind, agent) in calls if kind == CallKind.PERSONA}
        assert personas == {p["agentId"]: p["rawText"] for p in record["personas"] if "rawText" in p}, marker
    assert seen == {*Phase, *CallKind}  # the space makes every kind of call


def _without_cap(logs: list[list[dict]]) -> list[dict]:
    records = [dict(record, config=dict(record["config"])) for job in logs for record in job]
    for record in records:
        del record["config"]["concurrent_api_requests"]
    return records


def test_cap_1_and_cap_8_write_the_same_records_within_budget(runs):
    (serial, _, _), serial_s = runs[1]
    (concurrent, counters, _), concurrent_s = runs[8]
    assert _without_cap(serial) == _without_cap(concurrent)
    assert counters["calls"] == runs[1][0][1]["calls"]
    # About 2-3 s each on a 2-vCPU VM; the bound leaves room for a loaded host.
    assert serial_s + concurrent_s < 30.0, (serial_s, concurrent_s)


def _line(value) -> str:
    return json.dumps(value, ensure_ascii=False, separators=(",", ":"))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def space_digest(logs: list[list[dict]]) -> str:
    return _sha("\n".join(map(_line, _without_cap(logs))))


def digest_table(logs: list[list[dict]]) -> dict[str, dict]:
    """Per job, a digest of its records and, per record, a short digest of each top-level field."""
    table = {}
    for job, records in enumerate(logs):
        records = _without_cap([records])
        table[f"c{job}"] = {
            "digest": _sha("\n".join(map(_line, records)))[:16],
            "samples": [{field: _sha(_line(value))[:8] for field, value in record.items()} for record in records],
        }
    return table


def first_difference(pinned: dict[str, dict], table: dict[str, dict]) -> str | None:
    """Where `table` first departs from `pinned`: a job, sample and field, or None."""
    for job in [*table, *(job for job in pinned if job not in table)]:
        now, then = table.get(job), pinned.get(job)
        if now is None or then is None:
            return f"job {job} is {'missing' if now is None else 'new'}"
        if now["digest"] == then["digest"]:
            continue
        for sample, (record, was) in enumerate(zip(now["samples"], then["samples"]), 1):
            for field in [*record, *(field for field in was if field not in record)]:
                if record.get(field) != was.get(field):
                    return f"job {job}, sample {sample}, field {field!r}: {was.get(field)} pinned, {record.get(field)} now"
        return f"job {job} has {len(now['samples'])} records, {len(then['samples'])} pinned"
    return None


def test_the_records_of_the_space_are_pinned(runs):
    (logs, _, _), _ = runs[1]
    difference = first_difference(json.loads(TABLE.read_text(encoding="utf-8")), digest_table(logs))
    assert difference is None, difference
    assert space_digest(logs) == DIGEST


def test_the_table_names_the_first_job_sample_and_field_that_differ():
    table = {"c0": {"digest": "a", "samples": [{"config": "1", "task": "2"}]},
             "c1": {"digest": "b", "samples": [{"config": "3", "task": "4"}, {"config": "5", "task": "6"}]}}
    changed = json.loads(json.dumps(table))
    assert first_difference(table, changed) is None
    changed["c1"] = {"digest": "c", "samples": [{"config": "3", "task": "4"}, {"config": "5", "task": "7"}]}
    assert first_difference(table, changed) == "job c1, sample 2, field 'task': 6 pinned, 7 now"
    changed["c1"]["samples"].pop()
    assert first_difference(table, changed) == "job c1 has 1 records, 2 pinned"
    del changed["c1"]
    assert first_difference(table, changed) == "job c1 is missing"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir, pytest.MonkeyPatch.context() as patch:
        patch.chdir(workdir)
        space_logs = run_space(1, patch)[0]
    rows = [f"{json.dumps(job)}: {_line(entry)}" for job, entry in digest_table(space_logs).items()]
    TABLE.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
    print(f"wrote {TABLE}; DIGEST = {space_digest(space_logs)!r}")
