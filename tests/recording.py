"""The tests' one recording backend: it keeps every request it forwards."""

from __future__ import annotations

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
