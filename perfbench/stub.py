"""Seeded, OpenAI-compatible chat-completions stub for the offline benchmark.

The stub does not compute an answer; it classifies each request by the
prompt template that produced it, builds a seeded response of the right
shape, and sleeps for a modelled service time before replying. Both the
response text and the service time are pure functions of the workload seed,
the request's messages and how many times that exact request was seen
before (so a re-prompt of a malformed ballot gets a fresh answer). Call
counts and prompt volume therefore repeat exactly under any scheduling,
provided no two debates send an identical request (every generated task
carries a per-debate marker).

Run as a child process:

    python3 perfbench/stub.py --seed 7 --templates src/agora/templates [--no-sleep]

It binds 127.0.0.1 on a free port and prints ``PORT <n>`` once ready.
``POST /v1/chat/completions`` serves completions; ``GET /stats`` returns
the counters and ``POST /reset`` clears them and the attempt memory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Optional

# Service-time model: base + prefill per prompt char + decode per completion
# char, times a seeded log-normal jitter. The constants are a loaded hosted
# LLM (2.5 s to first token, ~16k prompt tokens/s prefill, ~40 completion
# tokens/s decode, ~4 chars per token) compressed 100x in time, which keeps
# the median call about ten times the engine's per-call HTTP overhead.
TIME_COMPRESSION = 100.0
SERVICE_BASE_S = 2.5 / TIME_COMPRESSION
PREFILL_S_PER_CHAR = (1 / 16000 / 4) / TIME_COMPRESSION
DECODE_S_PER_CHAR = (1 / 40 / 4) / TIME_COMPRESSION
JITTER_SIGMA = 0.2

AGREE_P = 0.7
# Malformed answers happen on a request's first attempt only, so every
# re-prompt or persona retry succeeds and no debate fails.
MALFORMED_BALLOT_P = 0.12
MALFORMED_PERSONA_P = 0.15

# Template name -> request kind. Every file in agora/templates must appear
# here; the benchmark's tests enforce it.
TEMPLATE_KINDS = {
    "discussion_system": "turn",
    "first_draft": "draft",
    "simple_improve": "improve",
    "critical_improve": "improve",
    "reasoning_improve": "improve",
    "simple_feedback": "feedback",
    "critical_feedback": "feedback",
    "reasoning_feedback": "feedback",
    "simple_revise": "revise",
    "critical_revise": "revise",
    "reasoning_revise": "revise",
    "role_system": "role",
    "extraction": "extraction",
    "vote_simple": "ballot_simple",
    "vote_approval": "ballot_approval",
    "vote_ranked": "ballot_ranked",
    "vote_cumulative": "ballot_cumulative",
    "judge": "judge",
    "expert_system": "persona_expert",
    "expert_user": "persona_expert",
    "ipip_system": "persona_ipip",
    "ipip_user": "persona_ipip",
    "cot_system": "cot",
    "cot_user": "cot",
    "mc_footer": "task",
}

_WORDS = (
    "the model answer evidence claim option reason premise result table value "
    "first second third because therefore however given assume check compare "
    "source article report summary event city team season policy market price "
    "growth study data sample measure effect cause risk trial group change rate "
    "year month week people court case law vote party leader plan budget tax "
    "energy water climate storm flood school health doctor patient drug cell "
    "gene protein atom field force mass speed light wave heat cost profit loss "
    "number count sum ratio share point line angle shape area volume time "
    "agree follows holds means implies shows suggests supports explains rules "
    "out only also still likely clearly mostly partly rarely never always often"
).split()

_ROLES = (
    "Economist", "Historian", "Physicist", "Chemist", "Biologist", "Statistician",
    "Lawyer", "Engineer", "Linguist", "Philosopher", "Journalist", "Physician",
    "Geographer", "Mathematician", "Sociologist", "Psychologist", "Ecologist",
    "Astronomer", "Teacher", "Editor", "Auditor", "Architect", "Pharmacist",
    "Political Scientist",
)

_MARKER_RE = re.compile(r"\[item ([A-Za-z0-9_.-]+)\]")
_SPEAKER_RE = re.compile(r"Your role: ([^\n(]*)")
_MC_RE = re.compile(r"FINAL SOLUTION: <Letter>")
_LETTER_RE = re.compile(r"FINAL SOLUTION:\s*\(([A-D])\)", re.IGNORECASE)
_SOLUTION_RE = re.compile(r"^Solution (\d+): ", re.MULTILINE)
_PLACEHOLDER_RE = re.compile(r"\$(?:(\w+)|\{(\w+)\})")


class Unclassified(Exception):
    """A request no stub rule recognises; answered with HTTP 422."""


def template_regex(text: str) -> re.Pattern:
    """Full-match pattern for a string.Template body; slots become groups."""
    parts: list[str] = []
    seen: set[str] = set()
    pos = 0
    for match in _PLACEHOLDER_RE.finditer(text):
        parts.append(re.escape(text[pos : match.start()]))
        name = match.group(1) or match.group(2)
        parts.append(f"(?P={name})" if name in seen else f"(?P<{name}>.*?)")
        seen.add(name)
        pos = match.end()
    parts.append(re.escape(text[pos:]))
    return re.compile("".join(parts), re.DOTALL)


def load_templates(templates_dir: str | Path) -> dict[str, str]:
    """Template bodies as the engine reads them (one trailing newline dropped)."""
    bodies = {}
    for path in sorted(Path(templates_dir).glob("*.txt")):
        text = path.read_text(encoding="utf-8")
        bodies[path.stem] = text[:-1] if text.endswith("\n") else text
    return bodies


class Responder:
    """Pure request -> (kind, response text) function for one workload seed."""

    def __init__(self, seed: int, templates: dict[str, str]) -> None:
        unknown = sorted(set(templates) - set(TEMPLATE_KINDS))
        if unknown:
            raise ValueError(f"templates without a stub rule: {', '.join(unknown)}")
        self.seed = seed
        self.templates = templates
        lines = templates["discussion_system"].split("\n")
        no_context = [line for line in lines if not line.startswith("Context:")]
        self._discussion = [
            template_regex("\n".join(variant))
            for variant in (lines, no_context)
        ]
        self._draft = [
            template_regex("\n".join(variant[:-2] + [templates["first_draft"]]))
            for variant in (lines, no_context)
        ]
        self._turn_users = {
            templates[name]: kind
            for name, kind in TEMPLATE_KINDS.items()
            if kind in ("improve", "feedback", "revise")
        }
        self._role = template_regex(templates["role_system"])
        self._role_users = [
            (TEMPLATE_KINDS[name], template_regex(templates[name]))
            for name in ("extraction", "vote_simple", "vote_approval", "vote_ranked", "vote_cumulative")
        ]
        self._judge = template_regex(templates["judge"])
        self._cot = template_regex(templates["cot_system"])
        self._expert_user = template_regex(templates["expert_user"])
        self._ipip_system = template_regex(templates["ipip_system"])
        self._ipip_user = template_regex(templates["ipip_user"])

    def word_rng(self, messages: list[dict[str, str]], attempt: int) -> random.Random:
        """Draws that pick the text: keyed by the seed and the whole request."""
        digest = hashlib.sha256(
            json.dumps([self.seed, attempt, messages], ensure_ascii=False).encode("utf-8")
        ).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def classify(self, messages: list[dict[str, str]]) -> tuple[str, Optional[re.Match]]:
        roles = [m.get("role") for m in messages]
        contents = [m.get("content", "") for m in messages]
        first = contents[0]
        if roles[0] == "system":
            if roles == ["system"]:
                for pattern in self._draft:
                    match = pattern.fullmatch(first)
                    if match:
                        return "draft", match
            if roles == ["system", "user"]:
                kind = self._turn_users.get(contents[1])
                if kind is not None:
                    for pattern in self._discussion:
                        match = pattern.fullmatch(first)
                        if match:
                            return kind, match
                if self._role.fullmatch(first):
                    for kind, pattern in self._role_users:
                        match = pattern.fullmatch(contents[1])
                        if match:
                            return kind, match
            cot = self._cot.fullmatch(first)
            if cot and (roles == ["system"] or contents[1:] == [self.templates["cot_user"]]):
                return "cot" if len(roles) == 2 else "plain", cot
            if roles[-1] == "user" and all(r == "assistant" for r in roles[1:-1]):
                if first == self.templates["expert_system"]:
                    match = self._expert_user.fullmatch(contents[-1])
                    if match:
                        return "persona_expert", match
                if self._ipip_system.fullmatch(first):
                    match = self._ipip_user.fullmatch(contents[-1])
                    if match:
                        return "persona_ipip", match
        elif roles == ["user"]:
            match = self._judge.fullmatch(first)
            if match:
                return "judge", match
        raise Unclassified(f"no stub rule for request roles={roles}")

    def respond(self, messages: list[dict[str, str]], attempt: int) -> tuple[str, str]:
        kind, match = self.classify(messages)
        draw = Draw(self.shape_rng(kind, messages, attempt), self.word_rng(messages, attempt), _position(messages))
        mc = bool(_MC_RE.search(messages[0]["content"] + messages[-1]["content"]))
        return kind, _BUILDERS[kind](draw, match, messages, attempt, mc)

    def shape_rng(self, kind: str, messages: list[dict[str, str]], attempt: int) -> random.Random:
        """Draws that fix the amount of work: decisions, lengths, ballots.

        Keyed by the debate's position in the workload (its marker without
        the seed), the request kind, the speaker and the request's line count,
        never by the seed or the words. Every seed of a workload therefore
        runs debates of the same shape with different text, so seeds differ
        in content rather than in the amount of work.
        """
        text = "\n".join(m["content"] for m in messages)
        speaker = _SPEAKER_RE.findall(text)
        key = [_position(messages), kind, speaker, text.count("\n"), len(messages), attempt]
        digest = hashlib.sha256(json.dumps(key).encode("utf-8")).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))


def _position(messages: list[dict[str, str]]) -> str:
    """The debate's marker without its seed part ("" when unmarked)."""
    for message in messages:
        match = _MARKER_RE.search(message["content"])
        if match:
            return match.group(1).rsplit("-s", 1)[0]
    return ""


class Draw:
    """Shape draws (how much, which decision) and word draws (which text)."""

    def __init__(self, shape: random.Random, words: random.Random, position: str) -> None:
        self.shape = shape
        self.words = words
        self.position = position

    def sentence(self, lo: int, hi: int) -> str:
        count = self.shape.randint(lo, hi)
        return " ".join(self.words.choice(_WORDS) for _ in range(count)).capitalize() + "."

    def letter(self) -> str:
        # A shape draw: whether two extractions agree decides whether a
        # tie-break ballot repeats an earlier request, and so the call count.
        return "ABCD"[self.shape.randrange(4)]

    def solution(self, mc: bool, lo: int, hi: int) -> str:
        text = self.sentence(lo, hi)
        return f"{text}\nFINAL SOLUTION: ({self.letter()})" if mc else text

    def malformed(self, attempt: int, p: float) -> bool:
        return attempt == 0 and self.shape.random() < p


def _draft(d: Draw, match, messages, attempt, mc):
    return d.solution(mc, 40, 110)


def _improve(d: Draw, match, messages, attempt, mc):
    if d.shape.random() < AGREE_P:
        return f"[AGREE] {d.sentence(8, 24)}"
    return f"[DISAGREE] {d.sentence(10, 30)}\n{d.solution(mc, 30, 90)}"


def _feedback(d: Draw, match, messages, attempt, mc):
    marker = "[AGREE]" if d.shape.random() < AGREE_P else "[DISAGREE]"
    return f"{marker} {d.sentence(15, 50)}"


def _revise(d: Draw, match, messages, attempt, mc):
    return d.solution(mc, 40, 100)


def _extraction(d: Draw, match, messages, attempt, mc):
    previous = match.group("previous")
    letters = _LETTER_RE.findall(previous)
    if mc:
        return f"FINAL SOLUTION: ({(letters[-1] if letters else d.letter()).upper()})"
    words = re.sub(r"\[(?:AGREE|DISAGREE)\]", "", previous).split()
    return " ".join(words[: d.shape.randint(12, 30)]) or d.sentence(12, 30)


def _candidate_count(match: re.Match) -> int:
    numbers = [int(n) for n in _SOLUTION_RE.findall(match.group("solutions"))]
    k = 0
    while k < len(numbers) and numbers[k] == k + 1:
        k += 1
    if k < 1:
        raise Unclassified("ballot request lists no solutions")
    return k


def _ballot_simple(d: Draw, match, messages, attempt, mc):
    k = _candidate_count(match)
    if d.malformed(attempt, MALFORMED_BALLOT_P):
        return "I would pick the second one."
    return str(d.shape.randint(1, k))


def _ballot_approval(d: Draw, match, messages, attempt, mc):
    k = _candidate_count(match)
    if d.malformed(attempt, MALFORMED_BALLOT_P):
        return "all of them look fine"
    chosen = sorted(d.shape.sample(range(1, k + 1), d.shape.randint(1, k)))
    return ", ".join(str(i) for i in chosen)


def _ballot_ranked(d: Draw, match, messages, attempt, mc):
    k = _candidate_count(match)
    if d.malformed(attempt, MALFORMED_BALLOT_P):
        return "2 2 1"
    return " ".join(str(i) for i in d.shape.sample(range(1, k + 1), min(k, 5)))


def _ballot_cumulative(d: Draw, match, messages, attempt, mc):
    k = _candidate_count(match)
    points = int(match.group("points"))
    if d.malformed(attempt, MALFORMED_BALLOT_P):
        return json.dumps({"1": points, "2": points})
    allocation = {str(i): 0 for i in range(1, k + 1)}
    for _ in range(points):
        allocation[str(d.shape.randint(1, k))] += 1
    return json.dumps(allocation)


def _judge(d: Draw, match, messages, attempt, mc):
    return d.solution(mc, 30, 80)


def _cot(d: Draw, match, messages, attempt, mc):
    text = d.sentence(50, 120)
    return f"{text}\nFinal Solution: ({d.letter()})" if mc else f"{text}\nFinal Solution: {d.sentence(12, 30)}"


def _plain(d: Draw, match, messages, attempt, mc):
    return f"FINAL SOLUTION: ({d.letter()})" if mc else d.sentence(12, 30)


def _persona_index(messages: list[dict[str, str]]) -> int:
    return sum(1 for m in messages if m["role"] == "assistant")


def _role_for(d: Draw, index: int) -> str:
    # One offset per debate plus the agent's index: roles never collide.
    offset = int(hashlib.sha256(d.position.encode("utf-8")).hexdigest()[:8], 16)
    return _ROLES[(offset + index) % len(_ROLES)]


def _persona_expert(d: Draw, match, messages, attempt, mc):
    if d.malformed(attempt, MALFORMED_PERSONA_P):
        return "Participant: a domain expert who checks the facts."
    index = _persona_index(messages)
    return json.dumps({"role": _role_for(d, index), "description": d.sentence(10, 24)})


def _persona_ipip(d: Draw, match, messages, attempt, mc):
    if d.malformed(attempt, MALFORMED_PERSONA_P):
        return '{"role": "Analyst"}'
    index = _persona_index(messages)
    options = re.findall(r"^(\w+): one of \[(.*?)\]$", messages[0]["content"], re.MULTILINE)
    # Trait vectors differ per panel position, so duplicates never occur.
    traits = {}
    for position, (name, values) in enumerate(options):
        choices = [v.strip() for v in values.split(",")]
        traits[name] = choices[(index + position) % len(choices)]
    return json.dumps({"role": _role_for(d, index), "traits": traits})


_BUILDERS = {
    "draft": _draft,
    "improve": _improve,
    "feedback": _feedback,
    "revise": _revise,
    "extraction": _extraction,
    "ballot_simple": _ballot_simple,
    "ballot_approval": _ballot_approval,
    "ballot_ranked": _ballot_ranked,
    "ballot_cumulative": _ballot_cumulative,
    "judge": _judge,
    "cot": _cot,
    "plain": _plain,
    "persona_expert": _persona_expert,
    "persona_ipip": _persona_ipip,
}


def service_time_s(rng: random.Random, prompt_chars: int, completion_chars: int) -> float:
    base = SERVICE_BASE_S + PREFILL_S_PER_CHAR * prompt_chars + DECODE_S_PER_CHAR * completion_chars
    return base * math.exp(rng.gauss(0.0, JITTER_SIGMA))


class Stub:
    """Counters plus attempt memory around a Responder; thread-safe."""

    def __init__(self, responder: Responder) -> None:
        self.responder = responder
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self._attempts: dict[bytes, int] = {}
            self.counters: dict[str, Any] = {
                "calls": 0,
                "prompt_chars": 0,
                "completion_chars": 0,
                "service_s": 0.0,
                "connections": 0,
                "unclassified": 0,
                "kinds": {},
            }

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return json.loads(json.dumps(self.counters))

    def count_connection(self) -> None:
        with self._lock:
            self.counters["connections"] += 1

    def complete(self, body: dict[str, Any]) -> tuple[int, dict[str, Any], float]:
        """(HTTP status, payload, service seconds) for one completion request."""
        messages = [
            {"role": str(m.get("role", "")), "content": str(m.get("content", ""))}
            for m in body.get("messages") or []
        ]
        if not messages:
            with self._lock:
                self.counters["unclassified"] += 1
            return 422, {"error": {"message": "no messages"}}, 0.0
        key = hashlib.sha256(json.dumps(messages, ensure_ascii=False).encode("utf-8")).digest()
        with self._lock:
            attempt = self._attempts.get(key, 0)
            self._attempts[key] = attempt + 1
        try:
            kind, text = self.responder.respond(messages, attempt)
        except Unclassified as exc:
            with self._lock:
                self.counters["unclassified"] += 1
            return 422, {"error": {"message": str(exc)}}, 0.0
        prompt_chars = sum(len(m["content"]) for m in messages)
        # The jitter is a shape draw too, offset from the response's own draws.
        service = service_time_s(
            self.responder.shape_rng(kind, messages, attempt + 1_000_000), prompt_chars, len(text)
        )
        with self._lock:
            c = self.counters
            c["calls"] += 1
            c["prompt_chars"] += prompt_chars
            c["completion_chars"] += len(text)
            c["service_s"] += service
            c["kinds"][kind] = c["kinds"].get(kind, 0) + 1
        payload = {
            "id": f"bench-{key.hex()[:16]}-{attempt}",
            "object": "chat.completion",
            "model": body.get("model", ""),
            "choices": [
                {"index": 0, "message": {"role": "assistant", "content": text}, "finish_reason": "stop"}
            ],
            "usage": {
                "prompt_tokens": prompt_chars // 4,
                "completion_tokens": len(text) // 4,
                "total_tokens": prompt_chars // 4 + len(text) // 4,
            },
        }
        return 200, payload, service


def make_handler(stub: Stub, sleep: bool = True) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Headers and body go out in separate writes; without TCP_NODELAY a
        # keep-alive client would wait out the delayed-ACK timer on each reply.
        disable_nagle_algorithm = True

        counted = False

        def log_message(self, format: str, *args: Any) -> None:
            pass

        def _send(self, status: int, payload: dict[str, Any], service_s: float = 0.0) -> None:
            data = json.dumps(payload, ensure_ascii=False).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.send_header("X-Service-Seconds", repr(service_s))
            self.end_headers()
            self.wfile.write(data)

        def _body(self) -> Any:
            length = int(self.headers.get("Content-Length") or 0)
            return json.loads(self.rfile.read(length) or b"{}")

        def do_GET(self) -> None:
            if self.path == "/stats":
                self._send(200, stub.stats())
            else:
                self._send(404, {"error": {"message": f"no route {self.path}"}})

        def do_POST(self) -> None:
            if self.path == "/reset":
                self._body()
                stub.reset()
                self._send(200, {"ok": True})
                return
            if not self.path.endswith("/chat/completions"):
                self._send(404, {"error": {"message": f"no route {self.path}"}})
                return
            if not self.counted:
                # One handler instance serves one TCP connection.
                self.counted = True
                stub.count_connection()
            try:
                body = self._body()
            except json.JSONDecodeError:
                self._send(400, {"error": {"message": "body is not JSON"}})
                return
            status, payload, service = stub.complete(body)
            if sleep and service > 0:
                time.sleep(service)
            self._send(status, payload, service)

    return Handler


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--templates", required=True)
    parser.add_argument(
        "--no-sleep", action="store_true", help="reply at once (reference runs: same answers, no waiting)"
    )
    args = parser.parse_args(argv)
    stub = Stub(Responder(args.seed, load_templates(args.templates)))
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(stub, sleep=not args.no_sleep))
    server.daemon_threads = True
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
