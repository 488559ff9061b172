"""The benchmark's own tests: stub rules, determinism, counts and statistics.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import sys
import urllib.request
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import engine  # noqa: E402
import run  # noqa: E402
import stub  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TEMPLATES = ROOT / "src" / "agora" / "templates"


def responder(seed: int = 5) -> stub.Responder:
    return stub.Responder(seed, stub.load_templates(TEMPLATES))


def quick_run(workload: str, seed: int, workdir: Path) -> tuple[dict, dict]:
    """One pass of a one-second-sized workload against a stub that does not sleep."""
    process = run.StubProcess(seed, TEMPLATES, sleep=False)
    cwd = os.getcwd()
    try:
        workdir.mkdir(parents=True)
        manifest = workloads.generate(workload, seed, 1, workdir, process.url + "/v1")
        os.chdir(workdir)
        return manifest, engine.one_pass(manifest, [], process.url, 1)
    finally:
        os.chdir(cwd)
        process.stop()


def test_every_template_has_a_stub_rule():
    names = {path.stem for path in TEMPLATES.glob("*.txt")}
    assert names <= set(stub.TEMPLATE_KINDS)
    responder()  # raises on a template without a rule


def test_every_request_kind_is_exercised(tmp_path):
    from agora import agents

    from agora.gateway import HttpGateway

    kinds: set[str] = set()
    for workload in workloads.WORKLOADS:
        _, result = quick_run(workload, 1, tmp_path / workload)
        assert result["validation"][1] == 0, result["validation"][2]
        assert result["stub"]["unclassified"] == 0
        kinds |= set(result["stub"]["kinds"])
    # No workload uses IPIP personas; drive that rule through the engine directly.
    process = run.StubProcess(1, TEMPLATES, sleep=False)
    try:
        gateway = HttpGateway(process.url + "/v1")
        personas = []
        for _ in range(5):
            persona, _ = agents.generate_ipip_persona("Task [item t-1]", personas, gateway)
            personas.append(persona)
        kinds |= set(engine._stub_call(process.url, "/stats")["kinds"])
    finally:
        process.stop()
    assert kinds == set(stub._BUILDERS)


def test_stub_is_deterministic_and_counts_repeat(tmp_path):
    # Same seed: identical transcripts and counts. Another seed: other text,
    # same shape, so the exact counts agree and the transcripts do not.
    _, first = quick_run("protocol-sweep", 3, tmp_path / "a")
    _, second = quick_run("protocol-sweep", 3, tmp_path / "b")
    assert first["transcript_digest"] == second["transcript_digest"]
    assert first["evaluation_digest"] == second["evaluation_digest"]
    a, b = first["stub"], second["stub"]
    for key in ("calls", "prompt_chars", "completion_chars", "kinds"):
        assert a[key] == b[key]
    assert a["service_s"] == pytest.approx(b["service_s"], rel=1e-9)
    _, other = quick_run("protocol-sweep", 4, tmp_path / "c")
    assert other["transcript_digest"] != first["transcript_digest"]
    assert other["stub"]["calls"] == a["calls"]


def test_unclassified_request_is_a_failure():
    s = stub.Stub(responder())
    status, payload, service = s.complete({"messages": [{"role": "user", "content": "hello"}]})
    assert status == 422 and service == 0.0
    assert s.stats()["unclassified"] == 1 and s.stats()["calls"] == 0


def test_malformed_answers_only_on_first_attempt():
    from agora import prompts
    from agora.domain import Persona

    r = responder()
    malformed = 0
    for position in range(200):
        user = prompts.render_vote_user("simple_voting", f"Task [item t{position}-s5]", "Q?", ["a", "b", "c"])
        messages = [
            {"role": "system", "content": prompts.render_role_system(Persona("Participant 1"))},
            {"role": "user", "content": user},
        ]
        kind, first = r.respond(messages, 0)
        assert kind == "ballot_simple"
        malformed += not first.strip().isdigit()
        assert r.respond(messages, 1)[1].strip().isdigit()
    assert 0 < malformed < 200


def test_tail_percentile_definition():
    values = [float(v) for v in range(1, 101)]
    value, percentile = run.tail_point(values)
    assert value == 90.0 and percentile == 90.0
    assert sum(1 for v in values if v > value) == 10
    assert run.tail_point([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail_point([float(v) for v in range(11)]) == (0.0, 100.0 * 1 / 11)


def test_self_time_and_call_stages():
    parent = tracer.Span(1, 0, "p", 0, 0.0, 10.0, True, None)
    children = [
        tracer.Span(2, 1, "c", 0, 1.0, 3.0, True, None),
        tracer.Span(3, 1, "c", 0, 2.0, 4.0, True, None),
        tracer.Span(4, 1, "c", 0, 8.0, 12.0, True, None),
    ]
    assert tracer.self_time(parent, children) == pytest.approx(10.0 - 3.0 - 2.0)
    assert tracer.call_stages([(0, 1), (1, 2), (1.5, 3), (5, 6)]) == 3


def test_stub_process_serves_and_counts(tmp_path):
    import requests

    process = run.StubProcess(9, TEMPLATES)
    try:
        from agora import prompts

        body = {
            "model": "m",
            "messages": [{"role": "user", "content": prompts.render_judge_user("Task [item t-3]", "Q", ["x", "y"])}],
        }
        with requests.Session() as session:
            replies = [session.post(process.url + "/v1/chat/completions", json=body, timeout=10) for _ in range(2)]
        assert all(reply.status_code == 200 for reply in replies)
        assert float(replies[0].headers["X-Service-Seconds"]) > 0
        stats = json.loads(urllib.request.urlopen(process.url + "/stats", timeout=10).read())
        assert stats["calls"] == 2 and stats["connections"] == 1 and stats["kinds"] == {"judge": 2}
        urllib.request.urlopen(process.url + "/reset", data=b"{}", timeout=10).read()
        stats = json.loads(urllib.request.urlopen(process.url + "/stats", timeout=10).read())
        assert stats["calls"] == 0
    finally:
        process.stop()


def test_digest_ignores_clock_fields(tmp_path):
    manifest = {"jobs": [{"eval_name": "j-r1.jsonl"}]}
    (tmp_path / "eval_logs").mkdir()
    record = {"config": {"endpoint_url": "a", "max_turns": 3}, "messages": [{"text": "t", "clockMs": 5}], "globalClockMs": 9}
    path = tmp_path / "eval_logs" / "j-r1.jsonl"
    path.write_text(json.dumps(record) + "\n")
    first = checks.transcript_digest(manifest, tmp_path)
    record.update(globalClockMs=1, config={"endpoint_url": "b", "max_turns": 3})
    record["messages"][0]["clockMs"] = 7
    path.write_text(json.dumps(record) + "\n")
    assert checks.transcript_digest(manifest, tmp_path) == first
    record["messages"][0]["text"] = "u"
    path.write_text(json.dumps(record) + "\n")
    assert checks.transcript_digest(manifest, tmp_path) != first
