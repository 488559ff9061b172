"""Chat-completion gateway: wire client, bounded concurrency, scripted test backend."""

from __future__ import annotations

import http.client
import io
import json
import random
import selectors
import socket
import ssl
import threading
import time
import urllib.request
import weakref
from base64 import b64encode
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


class ChatMessage(NamedTuple):
    role: str
    content: str


class ChatRequest(NamedTuple):
    messages: tuple[ChatMessage, ...]
    model_name: str = ""
    # What the call serves, for the backend alone; neither goes on the wire.
    kind: str = ""  # a message's domain.Phase, or a domain.CallKind
    agent: Optional[int] = None  # the speaker or voter; 0 is the judge


class ChatResponse(NamedTuple):
    text: str
    prompt_tokens: int = 0
    completion_tokens: int = 0
    latency_ms: int = 0


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


class DebateBackend(NamedTuple):
    """One debate's backend: forwards each request with the job's model filled in."""

    backend: Backend
    model_name: str

    def complete(self, req: ChatRequest) -> ChatResponse:
        return self.backend.complete(req._replace(model_name=self.model_name))

    def clock(self) -> float:
        return self.backend.clock()


def call(backend: Backend, kind: str, agent: int, messages: list[tuple[str, str]]) -> ChatResponse:
    """Send one debate call, labelled with its kind and agent, as a request that
    names no model: a `DebateBackend` fills in the job's."""
    if not messages:
        raise ValueError("a chat request needs at least one message")
    return backend.complete(ChatRequest(tuple(ChatMessage(role, content) for role, content in messages), "", kind, agent))


# Transport returns (status_code, parsed JSON payload or None); connection
# problems and timeouts surface as OSError or http.client.HTTPException.
Transport = Callable[[str, dict[str, str], dict[str, Any], float], "tuple[int, Any]"]


class _Pooled(NamedTuple):
    conn: http.client.HTTPConnection
    absolute: bool  # plain HTTP through a proxy: the request line names the whole URL
    headers: dict[str, str]  # credentials for that proxy


def _close_idle(idle: list[_Pooled], idle_check: selectors.BaseSelector) -> None:
    for pooled in idle:
        pooled.conn.close()
    idle_check.close()


# The most bytes a response body may hold: far above any 1024-token completion.
MAX_RESPONSE_BYTES = 8 * 1024 * 1024


def _time_left(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("the attempt ran out of time")
    return left


class _AttemptReads(io.RawIOBase):
    """A socket as one attempt's response reads it: each read is given only what is left of the attempt."""

    def __init__(self, sock: socket.socket, deadline: float) -> None:
        self._sock, self._deadline = sock, deadline

    def makefile(self, mode: str) -> io.BufferedReader:  # HTTPResponse opens its socket once, to read it
        self._raw = self._sock.makefile(mode, buffering=0)
        return io.BufferedReader(self)

    def readable(self) -> bool:
        return self._raw.readable()

    def readinto(self, buffer) -> int:
        self._sock.settimeout(_time_left(self._deadline))
        return self._raw.readinto(buffer)

    def close(self) -> None:
        self._raw.close()
        super().close()


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
        self._idle_check = selectors.DefaultSelector()  # holds one socket at a time, under the lock
        self._lock = threading.Lock()
        weakref.finalize(self, _close_idle, self._idle, self._idle_check)

    def __call__(
        self, url: str, headers: dict[str, str], body: dict[str, Any], timeout: float
    ) -> tuple[int, Any]:
        deadline = time.monotonic() + timeout  # for the whole attempt, from connecting to the body's last byte
        parts = urlsplit(url)
        while True:
            with self._lock:
                pooled = self._idle.pop() if self._idle else None
            pooled = pooled or self._connect(parts, timeout)
            kept = False  # the connection's one exit: back to the idle list if kept, else closed
            try:
                if pooled.conn.sock is None:
                    pooled.conn.connect()  # which turns off Nagle's algorithm (TCP_NODELAY)
                elif self._dropped(pooled.conn.sock):
                    continue  # replaced by the next connection, without a retry
                pooled.conn.response_class = lambda sock, *args, **kw: http.client.HTTPResponse(_AttemptReads(sock, deadline), *args, **kw)
                target = url if pooled.absolute else parts._replace(scheme="", netloc="").geturl()
                pooled.conn.sock.settimeout(_time_left(deadline))
                pooled.conn.request("POST", target, json.dumps(body).encode("utf-8"), {**headers, **pooled.headers, "Content-Type": "application/json"})
                resp = pooled.conn.getresponse()
                raw = resp.read(MAX_RESPONSE_BYTES + 1)
                if len(raw) > MAX_RESPONSE_BYTES:  # the rest is left unread; only a 200's body is needed
                    if resp.status == 200:  # not retried: the server would send it again
                        raise MalformedResponse(f"response body is over the {MAX_RESPONSE_BYTES}-byte cap")
                    return resp.status, None
                if resp.length:  # the body ended short of its Content-Length, as read() with no limit raises
                    raise http.client.IncompleteRead(raw, resp.length)
                kept = not resp.will_close
                break
            finally:
                if kept:
                    with self._lock:
                        self._idle.append(pooled)
                else:
                    pooled.conn.close()
        try:
            payload = json.loads(raw)
        except ValueError:
            payload = None
        return resp.status, payload

    def _dropped(self, sock: socket.socket) -> bool:
        """Whether an idle socket is readable, so at EOF (or holding bytes no
        request asked for): the server has dropped it."""
        with self._lock:
            self._idle_check.register(sock, selectors.EVENT_READ)
            try:
                return bool(self._idle_check.select(0))
            finally:
                self._idle_check.unregister(sock)

    @staticmethod
    def _connect(parts: SplitResult, timeout: float) -> _Pooled:
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
        conn = http.client.HTTPSConnection(host, port, timeout=timeout, context=ssl.create_default_context())
        if proxy:
            conn.set_tunnel(parts.hostname, parts.port, headers=auth)
        return _Pooled(conn, False, {})


def is_endpoint_url(url: str) -> bool:
    """Whether `url` is an http(s)://host URL, with a port number if it names a port, and with
    no user or password (never sent, yet logged; a key goes in `api_key`), query or fragment
    (either would land inside the request path)."""
    try:
        parts = urlsplit(url)
        plain = "@" not in parts.netloc and "?" not in url and "#" not in url
        return plain and parts.scheme in ("http", "https") and bool(parts.hostname) and parts.port != 0
    except ValueError:  # a malformed IPv6 host, or a port that is not a number below 65536
        return False


def shown_url(url: str) -> str:
    """`url` quoted for an error message, unless it may hold a password."""
    return "a URL that holds '@'" if "@" in url else repr(url)


# The retry policy: a transient failure (no response, 429 or 5xx) is retried
# this many times, and each attempt may take this long.
MAX_RETRIES = 3
TIMEOUT_S = 120.0


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
        transport: Optional[Transport] = None,
        sleeper: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if not is_endpoint_url(endpoint_url):
            raise ValueError(f"not an http(s)://host URL with no user, password, query or fragment: {shown_url(endpoint_url)}")
        self.endpoint_url = endpoint_url.rstrip("/")
        self.api_key = api_key
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
        # An empty bearer token is malformed (RFC 6750 section 2.1): without a key, no header.
        headers = {"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}
        body = wire_body(req)
        attempt = 0
        while True:
            try:
                with self._slots:  # a call's latency starts once it holds a slot
                    started = self.clock()
                    status, payload = self._transport(url, headers, body, TIMEOUT_S)
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
            if attempt >= MAX_RETRIES:
                reason = failure or f"HTTP {status}"
                raise EndpointUnreachable(f"retries exhausted after {attempt + 1} attempts: {reason}")
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


class MatchClause(NamedTuple):
    contains: str
    role: Optional[str] = None

    def fires(self, req: ChatRequest) -> bool:
        return any(
            (self.role is None or m.role == self.role) and self.contains in m.content
            for m in req.messages
        )


class ScriptRule(NamedTuple):
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

    def fork(self) -> "ScriptedGateway":
        """Fresh copy with all rules unconsumed, for per-debate isolation."""
        return ScriptedGateway(self._rules)

    @staticmethod
    def clock() -> float:
        return 0.0

    def complete(self, req: ChatRequest) -> ChatResponse:
        with self._lock:
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
    """Rules from a script object; a malformed rule, or one with a key it does not
    know, raises ValueError naming its index."""
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
            unknown = [key for key in entry if key not in ("response", "match", "repeatable")]
            unknown += [key for c in entry.get("match", []) for key in c if key not in ("contains", "role")]
            if unknown:
                raise ValueError(f"unknown key {unknown[0]!r}")
            rules.append(ScriptRule(entry["response"], clauses, repeatable))
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ValueError(
                f"rules[{index}] is malformed ({type(exc).__name__}: {exc}): a rule is an object "
                'with a "response" string, "match" clauses that each have a "contains" string '
                'and an optional "role" string, and an optional "repeatable" boolean'
            ) from None
    return ScriptedGateway(rules)
