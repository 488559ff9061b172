"""Chat-completion gateway: wire client, bounded concurrency, scripted test backend."""

from __future__ import annotations

import http.client
import json
import random
import selectors
import ssl
import threading
import time
import urllib.request
import weakref
from base64 import b64encode
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional, Protocol
from urllib.parse import SplitResult, unquote, urlsplit


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

    def __post_init__(self) -> None:
        if not self.messages:
            raise ValueError("a chat request needs at least one message")


@dataclass(frozen=True)
class ChatResponse:
    text: str
    prompt_tokens: int = 0
    completion_tokens: int = 0
    latency_ms: int = 0


def chat_request(messages: list[tuple[str, str]]) -> ChatRequest:
    """A request that names no model; a `DebateBackend` fills in the job's."""
    return ChatRequest(tuple(ChatMessage(role, content) for role, content in messages))


def wire_body(req: ChatRequest) -> dict[str, Any]:
    """Serialized request body; the key set is the wire contract.

    Every call samples with the same settings, so they are constants here.
    """
    return {
        "model": req.model_name,
        "messages": [{"role": m.role, "content": m.content} for m in req.messages],
        "temperature": 1.0,
        "top_p": 1.0,
        "presence_penalty": 0.0,
        "frequency_penalty": 0.0,
        "max_tokens": 1024,
    }


class Backend(Protocol):
    def complete(self, req: ChatRequest) -> ChatResponse: ...

    def clock(self) -> float: ...  # seconds; times the backend's calls and whole debates


@dataclass(frozen=True)
class DebateBackend:
    """One debate's backend: forwards each request with the job's model filled in."""

    backend: Backend
    model_name: str

    def complete(self, req: ChatRequest) -> ChatResponse:
        return self.backend.complete(ChatRequest(req.messages, self.model_name))

    def clock(self) -> float:
        return self.backend.clock()


# Transport returns (status_code, parsed JSON payload or None); connection
# problems and timeouts surface as OSError or http.client.HTTPException.
Transport = Callable[[str, dict[str, str], dict[str, Any], float], "tuple[int, Any]"]


class _Pooled(NamedTuple):
    conn: http.client.HTTPConnection
    absolute: bool  # plain HTTP through a proxy: the request line names the whole URL
    headers: dict[str, str]  # credentials for that proxy


def _close_idle(idle: list[_Pooled]) -> None:
    for pooled in idle:
        pooled.conn.close()


class _ConnectionPool:
    """Keep-alive transport for one endpoint: idle connections, each serving one call at a time.

    A connection opens only when none is idle, so the gateway's semaphore,
    which bounds the calls in flight, also bounds the connections. New
    connections go through the proxy that HTTP_PROXY/HTTPS_PROXY name
    unless NO_PROXY exempts the host, and HTTPS verifies certificates
    against the default trust store.
    """

    def __init__(self) -> None:
        self._idle: list[_Pooled] = []
        self._lock = threading.Lock()
        self._tls: Optional[ssl.SSLContext] = None
        weakref.finalize(self, _close_idle, self._idle)

    def __call__(
        self, url: str, headers: dict[str, str], body: dict[str, Any], timeout: float
    ) -> tuple[int, Any]:
        parts = urlsplit(url)
        pooled = self._reuse(timeout) or self._connect(parts, timeout)
        target = url if pooled.absolute else parts._replace(scheme="", netloc="").geturl()
        headers = {**headers, **pooled.headers, "Content-Type": "application/json"}
        try:
            pooled.conn.request("POST", target, json.dumps(body).encode("utf-8"), headers)
            resp = pooled.conn.getresponse()
            raw = resp.read()
        except BaseException:
            pooled.conn.close()
            raise
        if resp.will_close:
            pooled.conn.close()
        else:
            with self._lock:
                self._idle.append(pooled)
        try:
            payload = json.loads(raw)
        except ValueError:
            payload = None
        return resp.status, payload

    def _reuse(self, timeout: float) -> Optional[_Pooled]:
        """An idle connection that the server has not closed, or None."""
        while True:
            with self._lock:
                if not self._idle:
                    return None
                pooled = self._idle.pop()
            # An idle socket that is readable is at EOF (or holds bytes no
            # request asked for): the server has dropped it.
            with selectors.DefaultSelector() as idle_check:
                idle_check.register(pooled.conn.sock, selectors.EVENT_READ)
                dropped = bool(idle_check.select(0))
            if not dropped:
                pooled.conn.sock.settimeout(timeout)
                return pooled
            pooled.conn.close()

    def _connect(self, parts: SplitResult, timeout: float) -> _Pooled:
        """A new connection to the URL's origin, through the environment's proxy if any."""
        proxy = urllib.request.getproxies().get(parts.scheme)
        if proxy and urllib.request.proxy_bypass(parts.netloc):
            proxy = None
        host, port, auth = parts.hostname, parts.port, {}
        if proxy:
            via = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            host, port = via.hostname, via.port or 80
            if via.username:
                user_pass = f"{unquote(via.username)}:{unquote(via.password or '')}"
                auth["Proxy-Authorization"] = "Basic " + b64encode(user_pass.encode("latin-1")).decode()
        if parts.scheme == "http":
            return _Pooled(http.client.HTTPConnection(host, port, timeout=timeout), bool(proxy), auth)
        if self._tls is None:
            self._tls = ssl.create_default_context()
        conn = http.client.HTTPSConnection(host, port, timeout=timeout, context=self._tls)
        if proxy:
            conn.set_tunnel(parts.hostname, parts.port, headers=auth)
        return _Pooled(conn, False, {})


def is_endpoint_url(url: str) -> bool:
    """Whether `url` is an http(s)://host URL, with a port number if it names a port."""
    try:
        parts = urlsplit(url)
        return parts.scheme in ("http", "https") and bool(parts.hostname) and parts.port != 0
    except ValueError:  # a malformed IPv6 host, or a port that is not a number below 65536
        return False


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
        if not is_endpoint_url(endpoint_url):
            raise ValueError(f"not an http(s)://host URL: {endpoint_url!r}")
        self.endpoint_url = endpoint_url.rstrip("/")
        self.api_key = api_key
        self.max_retries = max_retries
        self.timeout_s = timeout_s
        self._transport = transport or _ConnectionPool()
        self._sleeper = sleeper
        self._rng = rng or random.Random()
        self.clock = clock
        self._slots = threading.BoundedSemaphore(max_in_flight)

    def _backoff_s(self, attempt: int) -> float:
        jitter = self._rng.uniform(0.8, 1.2)
        return min(1.0 * (2**attempt) * jitter, 30.0)

    def complete(self, req: ChatRequest) -> ChatResponse:
        url = f"{self.endpoint_url}/chat/completions"
        headers = {"Authorization": f"Bearer {self.api_key}"}
        body = wire_body(req)
        attempt = 0
        while True:
            started = self.clock()
            try:
                with self._slots:
                    status, payload = self._transport(url, headers, body, self.timeout_s)
            except (OSError, http.client.HTTPException) as exc:
                status, payload, failure = None, None, str(exc)
            else:
                failure = None
            latency_ms = int((self.clock() - started) * 1000)

            if status == 200:
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
        # Token counts are informational: a count that is not a non-negative
        # int, or a usage that is not an object, reads as zero.
        usage = payload.get("usage")
        usage = usage if isinstance(usage, dict) else {}
        counts = (usage.get("prompt_tokens"), usage.get("completion_tokens"))
        prompt_tokens, completion_tokens = (n if type(n) is int and n >= 0 else 0 for n in counts)
        return ChatResponse(text, prompt_tokens, completion_tokens, latency_ms)


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

    Responses are a pure function of the request sequence; the clock
    reads zero so logs built on top are byte-stable.
    """

    def __init__(self, rules: list[ScriptRule]) -> None:
        if not rules:
            raise ValueError("a script needs at least one rule")
        self._rules = list(rules)
        self._consumed = [False] * len(rules)
        self._lock = threading.Lock()
        self.requests: list[ChatRequest] = []

    def fork(self) -> "ScriptedGateway":
        """Fresh copy with all rules unconsumed, for per-debate isolation."""
        return ScriptedGateway(self._rules)

    @staticmethod
    def clock() -> float:
        return 0.0

    def complete(self, req: ChatRequest) -> ChatResponse:
        with self._lock:
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


def script_from_dict(data: Any) -> ScriptedGateway:
    """Rules from a script object; a malformed rule raises ValueError naming its index."""
    entries = data.get("rules", []) if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise ValueError('a script is an object with a "rules" list')
    rules = []
    for index, entry in enumerate(entries):
        try:
            if not isinstance(entry["response"], str):
                raise TypeError("the response is not a string")
            clauses = tuple(
                MatchClause(contains=c["contains"], role=c.get("role"))
                for c in entry.get("match", [])
            )
            for c in clauses:
                if not isinstance(c.contains, str) or not isinstance(c.role, (str, type(None))):
                    raise TypeError("a match clause's contains or role is not a string")
            repeatable = entry.get("repeatable", False)
            if not isinstance(repeatable, bool):
                raise TypeError("repeatable is not a boolean")
            rules.append(ScriptRule(entry["response"], clauses, repeatable))
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(
                f"rules[{index}] is malformed ({type(exc).__name__}: {exc}): a rule is an object "
                'with a "response" string, "match" clauses that each have a "contains" string '
                'and an optional "repeatable" boolean'
            ) from None
    return ScriptedGateway(rules)


def load_script(path: str) -> ScriptedGateway:
    with open(path, encoding="utf-8") as handle:
        return script_from_dict(json.load(handle))
