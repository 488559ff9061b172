"""Chat-completion gateway: wire client, bounded concurrency, scripted test backend."""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Protocol

import requests
from requests.adapters import HTTPAdapter


class GatewayError(Exception):
    pass


class EndpointUnreachable(GatewayError):
    pass


class MalformedResponse(GatewayError):
    pass


class AuthRejected(GatewayError):
    pass


class NoRuleMatched(GatewayError):
    pass


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str


@dataclass(frozen=True)
class ChatRequest:
    messages: tuple[ChatMessage, ...]
    model_name: str = ""
    temperature: float = 1.0
    top_p: float = 1.0
    presence_penalty: float = 0.0
    frequency_penalty: float = 0.0
    max_tokens: int = 1024

    def __post_init__(self) -> None:
        if not self.messages:
            raise ValueError("a chat request needs at least one message")


@dataclass(frozen=True)
class ChatResponse:
    text: str
    prompt_tokens: int = 0
    completion_tokens: int = 0
    latency_ms: int = 0


def chat_request(messages: list[tuple[str, str]], model_name: str = "", **sampling: Any) -> ChatRequest:
    return ChatRequest(
        messages=tuple(ChatMessage(role, content) for role, content in messages),
        model_name=model_name,
        **sampling,
    )


def wire_body(req: ChatRequest) -> dict[str, Any]:
    """Serialized request body; the key set is the wire contract."""
    return {
        "model": req.model_name,
        "messages": [{"role": m.role, "content": m.content} for m in req.messages],
        "temperature": req.temperature,
        "top_p": req.top_p,
        "presence_penalty": req.presence_penalty,
        "frequency_penalty": req.frequency_penalty,
        "max_tokens": req.max_tokens,
    }


class Backend(Protocol):
    def complete(self, req: ChatRequest) -> ChatResponse: ...


# Transport returns (status_code, parsed JSON payload or None); connection
# problems and timeouts surface as requests exceptions.
Transport = Callable[[str, dict[str, str], dict[str, Any], float], "tuple[int, Any]"]


def _session_transport(pool_size: int) -> Transport:
    """Keep-alive transport: one session whose pool reuses up to `pool_size` connections."""
    session = requests.Session()
    adapter = HTTPAdapter(pool_connections=1, pool_maxsize=pool_size)
    session.mount("http://", adapter)
    session.mount("https://", adapter)

    def transport(
        url: str, headers: dict[str, str], body: dict[str, Any], timeout: float
    ) -> tuple[int, Any]:
        resp = session.post(url, headers=headers, json=body, timeout=timeout)
        try:
            payload = resp.json()
        except ValueError:
            payload = None
        return resp.status_code, payload

    return transport


class HttpGateway:
    """Shared chokepoint for one endpoint; safe for concurrent use.

    The in-flight semaphore is the process-wide cap: one gateway instance
    serves an entire batch run. The default transport keeps at most
    `max_in_flight` connections alive and reuses them across calls.
    """

    def __init__(
        self,
        endpoint_url: str,
        api_key: str = "",
        max_in_flight: int = 8,
        max_retries: int = 3,
        timeout_s: float = 120.0,
        transport: Optional[Transport] = None,
        sleeper: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self.endpoint_url = endpoint_url.rstrip("/")
        self.api_key = api_key
        self.max_retries = max_retries
        self.timeout_s = timeout_s
        self._transport = transport or _session_transport(max_in_flight)
        self._sleeper = sleeper
        self._rng = rng or random.Random()
        self._clock = clock
        self._slots = threading.BoundedSemaphore(max_in_flight)
        self._lock = threading.Lock()
        self.call_count = 0

    def _backoff_s(self, attempt: int) -> float:
        jitter = self._rng.uniform(0.8, 1.2)
        return min(1.0 * (2**attempt) * jitter, 30.0)

    def complete(self, req: ChatRequest) -> ChatResponse:
        url = f"{self.endpoint_url}/chat/completions"
        headers = {"Authorization": f"Bearer {self.api_key}"}
        body = wire_body(req)
        attempt = 0
        while True:
            started = self._clock()
            try:
                with self._slots:
                    status, payload = self._transport(url, headers, body, self.timeout_s)
            except requests.RequestException as exc:
                status, payload, failure = None, None, str(exc)
            else:
                failure = None
            latency_ms = int((self._clock() - started) * 1000)

            if status is not None and status == 200:
                with self._lock:
                    self.call_count += 1
                return self._parse(payload, latency_ms)
            if status in (401, 403):
                raise AuthRejected(f"endpoint rejected credentials (HTTP {status})")
            transient = status is None or status == 429 or 500 <= status < 600
            if not transient:
                raise EndpointUnreachable(f"non-retryable HTTP status {status}")
            if attempt >= self.max_retries:
                reason = failure or f"HTTP {status}"
                raise EndpointUnreachable(
                    f"retries exhausted after {attempt + 1} attempts: {reason}"
                )
            self._sleeper(self._backoff_s(attempt))
            attempt += 1

    @staticmethod
    def _parse(payload: Any, latency_ms: int) -> ChatResponse:
        try:
            text = payload["choices"][0]["message"]["content"]
        except (TypeError, KeyError, IndexError):
            raise MalformedResponse(f"missing choice text in response: {payload!r}")
        if not isinstance(text, str):
            raise MalformedResponse(f"choice text is not a string: {text!r}")
        usage = payload.get("usage") or {}
        return ChatResponse(
            text=text,
            prompt_tokens=int(usage.get("prompt_tokens", 0)),
            completion_tokens=int(usage.get("completion_tokens", 0)),
            latency_ms=latency_ms,
        )


@dataclass(frozen=True)
class MatchClause:
    contains: str
    role: Optional[str] = None

    def fires(self, req: ChatRequest) -> bool:
        return any(
            (self.role is None or m.role == self.role) and self.contains in m.content
            for m in req.messages
        )


@dataclass(frozen=True)
class ScriptRule:
    response: str
    match: tuple[MatchClause, ...] = ()  # empty matches every request
    repeatable: bool = False

    def fires(self, req: ChatRequest) -> bool:
        return all(clause.fires(req) for clause in self.match)


class ScriptedGateway:
    """Deterministic stand-in endpoint: ordered rules, consumable by default.

    Responses are a pure function of the request sequence; the clock is
    pinned to zero so logs built on top are byte-stable.
    """

    def __init__(self, rules: list[ScriptRule]) -> None:
        if not rules:
            raise ValueError("a script needs at least one rule")
        self._rules = list(rules)
        self._consumed = [False] * len(rules)
        self._lock = threading.Lock()
        self.call_count = 0
        self.requests: list[ChatRequest] = []

    def fork(self) -> "ScriptedGateway":
        """Fresh copy with all rules unconsumed, for per-debate isolation."""
        return ScriptedGateway(self._rules)

    def complete(self, req: ChatRequest) -> ChatResponse:
        with self._lock:
            self.call_count += 1
            self.requests.append(req)
            for idx, rule in enumerate(self._rules):
                if self._consumed[idx] and not rule.repeatable:
                    continue
                if rule.fires(req):
                    self._consumed[idx] = True
                    return ChatResponse(text=rule.response)
        tail = req.messages[-1].content[:160]
        raise NoRuleMatched(
            f"no rule matched request ending with {tail!r} ({len(self._rules)} rules)"
        )


def script_from_dict(data: dict[str, Any]) -> ScriptedGateway:
    rules = []
    for entry in data.get("rules", []):
        clauses = tuple(
            MatchClause(contains=c["contains"], role=c.get("role"))
            for c in entry.get("match", [])
        )
        rules.append(
            ScriptRule(
                response=entry["response"],
                match=clauses,
                repeatable=bool(entry.get("repeatable", False)),
            )
        )
    return ScriptedGateway(rules)


def load_script(path: str) -> ScriptedGateway:
    with open(path, encoding="utf-8") as handle:
        return script_from_dict(json.load(handle))
