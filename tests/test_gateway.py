"""Wire client behavior, retry policy, and the scripted backend."""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests

from agora.gateway import (
    AuthRejected,
    ChatRequest,
    EndpointUnreachable,
    HttpGateway,
    MalformedResponse,
    MatchClause,
    NoRuleMatched,
    ScriptRule,
    ScriptedGateway,
    chat_request,
    load_script,
    script_from_dict,
    wire_body,
)


def ok_payload(text: str = "hello", usage: dict | None = None) -> dict:
    payload = {"choices": [{"message": {"content": text}}]}
    if usage is not None:
        payload["usage"] = usage
    return payload


def make_gateway(transport, **kw) -> HttpGateway:
    kw.setdefault("sleeper", lambda s: None)
    return HttpGateway("http://fake", "secret", transport=transport, **kw)


def req() -> ChatRequest:
    return chat_request([("user", "hi")], model_name="m")


def test_chat_request_defaults():
    request = req()
    assert request.temperature == 1.0
    assert request.top_p == 1.0
    assert request.presence_penalty == 0.0
    assert request.frequency_penalty == 0.0
    assert request.max_tokens == 1024


def test_chat_request_rejects_empty_messages():
    with pytest.raises(ValueError):
        ChatRequest(messages=())


def test_wire_body_key_set():
    body = wire_body(req())
    assert set(body) == {
        "model",
        "messages",
        "temperature",
        "top_p",
        "presence_penalty",
        "frequency_penalty",
        "max_tokens",
    }
    assert body["model"] == "m"
    assert body["messages"] == [{"role": "user", "content": "hi"}]


def test_complete_success_and_usage():
    seen = {}

    def transport(url, headers, body, timeout):
        seen["url"] = url
        seen["headers"] = headers
        seen["body"] = body
        return 200, ok_payload("out", {"prompt_tokens": 7, "completion_tokens": 3})

    gw = make_gateway(transport)
    resp = gw.complete(req())
    assert resp.text == "out"
    assert resp.prompt_tokens == 7
    assert resp.completion_tokens == 3
    assert seen["url"] == "http://fake/chat/completions"
    assert seen["headers"] == {"Authorization": "Bearer secret"}
    assert gw.call_count == 1


def test_endpoint_trailing_slash_is_normalized():
    seen = {}

    def transport(url, headers, body, timeout):
        seen["url"] = url
        return 200, ok_payload()

    HttpGateway("http://fake/", transport=transport).complete(req())
    assert seen["url"] == "http://fake/chat/completions"


def test_retries_on_5xx_then_succeeds():
    statuses = iter([500, 502, 200])
    sleeps: list[float] = []

    def transport(url, headers, body, timeout):
        status = next(statuses)
        return status, ok_payload() if status == 200 else None

    gw = make_gateway(transport, sleeper=sleeps.append)
    assert gw.complete(req()).text == "hello"
    assert len(sleeps) == 2
    # Exponential base doubles per attempt, jitter stays within 20 percent.
    assert 0.8 <= sleeps[0] <= 1.2
    assert 1.6 <= sleeps[1] <= 2.4


def test_retries_on_429_and_timeouts():
    calls = {"n": 0}

    def transport(url, headers, body, timeout):
        calls["n"] += 1
        if calls["n"] == 1:
            raise requests.Timeout("too slow")
        if calls["n"] == 2:
            return 429, None
        return 200, ok_payload()

    gw = make_gateway(transport)
    assert gw.complete(req()).text == "hello"
    assert calls["n"] == 3


def test_retries_exhausted():
    def transport(url, headers, body, timeout):
        return 503, None

    gw = make_gateway(transport, max_retries=2)
    with pytest.raises(EndpointUnreachable):
        gw.complete(req())


def test_backoff_cap():
    sleeps: list[float] = []

    def transport(url, headers, body, timeout):
        return 500, None

    gw = make_gateway(transport, max_retries=8, sleeper=sleeps.append)
    with pytest.raises(EndpointUnreachable):
        gw.complete(req())
    assert max(sleeps) <= 30.0


@pytest.mark.parametrize("status", [401, 403])
def test_auth_rejection_is_not_retried(status):
    calls = {"n": 0}

    def transport(url, headers, body, timeout):
        calls["n"] += 1
        return status, None

    with pytest.raises(AuthRejected):
        make_gateway(transport).complete(req())
    assert calls["n"] == 1


def test_unexpected_status_fails_fast():
    calls = {"n": 0}

    def transport(url, headers, body, timeout):
        calls["n"] += 1
        return 404, None

    with pytest.raises(EndpointUnreachable):
        make_gateway(transport).complete(req())
    assert calls["n"] == 1


@pytest.mark.parametrize(
    "payload",
    [None, {}, {"choices": []}, {"choices": [{"message": {}}]}, {"choices": [{"message": {"content": 5}}]}],
)
def test_malformed_payloads(payload):
    def transport(url, headers, body, timeout):
        return 200, payload

    with pytest.raises(MalformedResponse):
        make_gateway(transport).complete(req())


def test_max_in_flight_bound_under_threads():
    active = {"now": 0, "peak": 0}
    lock = threading.Lock()

    def transport(url, headers, body, timeout):
        with lock:
            active["now"] += 1
            active["peak"] = max(active["peak"], active["now"])
        time.sleep(0.002)
        with lock:
            active["now"] -= 1
        return 200, ok_payload()

    gw = make_gateway(transport, max_in_flight=3)
    threads = [threading.Thread(target=lambda: gw.complete(req())) for _ in range(24)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert gw.call_count == 24
    assert active["peak"] <= 3


def test_invalid_max_in_flight():
    with pytest.raises(ValueError):
        HttpGateway("http://fake", max_in_flight=0)


class ChatHandler(BaseHTTPRequestHandler):
    """Loopback chat endpoint; the server counts the connections it accepts."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = 5  # idle keep-alive connections end their handler thread

    def setup(self) -> None:
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self) -> None:
        self.rfile.read(int(self.headers["Content-Length"]))
        reply = json.dumps(ok_payload("ok")).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        if self.server.close_each:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args) -> None:
        pass


@pytest.fixture
def loopback_server():
    servers = []

    def start(close_each: bool) -> ThreadingHTTPServer:
        server = ThreadingHTTPServer(("127.0.0.1", 0), ChatHandler)
        server.daemon_threads = True
        server.lock = threading.Lock()
        server.connections = 0
        server.close_each = close_each
        threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def fifty_calls(server, max_in_flight: int) -> list[str]:
    host, port = server.server_address
    gw = HttpGateway(f"http://{host}:{port}/v1", max_in_flight=max_in_flight)
    with ThreadPoolExecutor(max_workers=8) as pool:
        return list(pool.map(lambda _: gw.complete(req()).text, range(50)))


def test_default_transport_reuses_connections_up_to_the_cap(loopback_server):
    server = loopback_server(close_each=False)
    assert fifty_calls(server, max_in_flight=4) == ["ok"] * 50
    assert 1 <= server.connections <= 4


def test_default_transport_survives_connection_close(loopback_server):
    server = loopback_server(close_each=True)
    assert fifty_calls(server, max_in_flight=4) == ["ok"] * 50
    assert server.connections == 50


def vote_req(content: str, role: str = "user") -> ChatRequest:
    return chat_request([(role, content)])


def test_scripted_rules_fire_in_order_and_consume():
    gw = ScriptedGateway(
        [
            ScriptRule("first", match=(MatchClause("hello"),)),
            ScriptRule("second", match=(MatchClause("hello"),)),
        ]
    )
    assert gw.complete(vote_req("hello there")).text == "first"
    assert gw.complete(vote_req("hello there")).text == "second"
    with pytest.raises(NoRuleMatched):
        gw.complete(vote_req("hello there"))


def test_scripted_repeatable_rule():
    gw = ScriptedGateway([ScriptRule("always", repeatable=True)])
    for _ in range(5):
        assert gw.complete(vote_req("anything")).text == "always"
    assert gw.call_count == 5
    assert len(gw.requests) == 5


def test_scripted_role_restricted_match():
    clause = MatchClause("hello", role="system")
    gw = ScriptedGateway([ScriptRule("sys", match=(clause,)), ScriptRule("fallback", repeatable=True)])
    assert gw.complete(vote_req("hello", role="user")).text == "fallback"
    assert gw.complete(vote_req("hello", role="system")).text == "sys"


def test_scripted_multi_clause_needs_all():
    rule = ScriptRule("both", match=(MatchClause("aa"), MatchClause("bb")))
    gw = ScriptedGateway([rule, ScriptRule("other", repeatable=True)])
    assert gw.complete(vote_req("aa only")).text == "other"
    assert gw.complete(vote_req("aa and bb")).text == "both"


def test_scripted_fork_isolates_consumption():
    base = ScriptedGateway([ScriptRule("once")])
    a = base.fork()
    b = base.fork()
    assert a.complete(vote_req("x")).text == "once"
    assert b.complete(vote_req("x")).text == "once"
    with pytest.raises(NoRuleMatched):
        a.complete(vote_req("x"))


def test_scripted_zero_latency():
    gw = ScriptedGateway([ScriptRule("fast", repeatable=True)])
    assert gw.complete(vote_req("x")).latency_ms == 0


def test_empty_script_rejected():
    with pytest.raises(ValueError):
        ScriptedGateway([])


def test_script_from_dict_and_file(tmp_path):
    data = {
        "rules": [
            {"response": "a", "match": [{"contains": "x", "role": "user"}]},
            {"response": "b", "repeatable": True},
        ]
    }
    gw = script_from_dict(data)
    assert gw.complete(vote_req("has x")).text == "a"
    path = tmp_path / "script.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    loaded = load_script(str(path))
    assert loaded.complete(vote_req("no match")).text == "b"
