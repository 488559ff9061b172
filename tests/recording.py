"""The tests' one recording backend, which keeps every request it forwards,
their one always-agreeing backend, their one fake HTTP endpoint, their one
builder of a debate state, and the template text that a script rule matches
to tell the calls apart."""

from __future__ import annotations

import threading
import time

from agora.domain import AgentProfile, DebateState, JobParams, Persona, TaskInstance
from agora.gateway import Backend, ChatRequest, ChatResponse

# Text that only one kind of prompt holds: a first draft, an improvement, an
# answer extraction and a simple vote.
DRAFT_HOOK = "Nobody proposed a solution yet."
IMPROVE_HOOK = "Improve the current solution."
EXTRACTION_HOOK = "your previous response"
SIMPLE_VOTE_HOOK = "Answer only with the number."

# Every replayed reply takes this long, so a test can see latency reach the log.
REPLAY_LATENCY_MS = 7


class Recording:
    """Forwards each request to `backend` and keeps it, in order."""

    def __init__(self, backend: Backend) -> None:
        self.backend = backend
        self.requests: list[ChatRequest] = []

    def complete(self, req: ChatRequest) -> ChatResponse:
        self.requests.append(req)
        return self.backend.complete(req)

    def clock(self) -> float:
        return self.backend.clock()


class _Replay:
    """Answers each request with the next canned text."""

    def __init__(self, texts: list[str]) -> None:
        self.texts = list(texts)

    def complete(self, req: ChatRequest) -> ChatResponse:
        del req
        return ChatResponse(text=self.texts.pop(0), latency_ms=REPLAY_LATENCY_MS)

    @staticmethod
    def clock() -> float:
        return 0.0


class Agreeing:
    """Answers every call with an agreeing draft; every fork is this instance.

    `on_call` sees each request's prompt text before the reply, so a test
    can block or delay calls from any debate thread.
    """

    REPLY = "The answer is 42. [AGREE]"

    def __init__(self, on_call=None) -> None:
        self.on_call = on_call

    def fork(self) -> "Agreeing":
        return self

    def clock(self) -> float:
        return 0.0

    def complete(self, req: ChatRequest) -> ChatResponse:
        if self.on_call is not None:
            self.on_call("\n".join(m.content for m in req.messages))
        return ChatResponse(text=self.REPLY)


class CountingTransport:
    """A fake endpoint, passed to HttpGateway as its transport: it keeps each
    request body, tracks how many requests are in flight at once, and answers
    each with REPLY after `seconds`."""

    REPLY = "Fine. [AGREE]"

    def __init__(self, seconds: float = 0.002) -> None:
        self._lock = threading.Lock()
        self.seconds = seconds
        self.in_flight = 0
        self.max_in_flight = 0
        self.bodies: list[dict] = []

    def __call__(self, url, headers, body, timeout):
        with self._lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
            self.bodies.append(body)
        time.sleep(self.seconds)
        with self._lock:
            self.in_flight -= 1
        return 200, {"choices": [{"message": {"content": self.REPLY}}]}


def replay(texts: list[str]) -> Recording:
    """The canned texts in order, each request recorded."""
    return Recording(_Replay(texts))


def make_state(n: int = 3, **params) -> DebateState:
    """A debate on task "x" before its first turn, among agents 1..n named "Participant <i>"."""
    panel = [AgentProfile(i, Persona(name=f"Participant {i}")) for i in range(1, n + 1)]
    return DebateState(JobParams(**params), TaskInstance(id="s1", instruction_key="", input_lines=("x",)), "solve", panel)
