"""The tests' one recording backend, which keeps every request it forwards, and
their one builder of a debate state."""

from __future__ import annotations

from agora.domain import AgentProfile, DebateState, JobParams, Persona, TaskInstance
from agora.gateway import Backend, ChatRequest, ChatResponse

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


def replay(texts: list[str]) -> Recording:
    """The canned texts in order, each request recorded."""
    return Recording(_Replay(texts))


def make_state(n: int = 3, **params) -> DebateState:
    """A debate on task "x" before its first turn, among agents 1..n named "Participant <i>"."""
    panel = [AgentProfile(i, Persona(name=f"Participant {i}")) for i in range(1, n + 1)]
    return DebateState(JobParams(**params), TaskInstance(id="s1", instruction_key="", input_lines=("x",)), "solve", panel)
