"""Shared domain types and the debate transcript state machine."""

from __future__ import annotations

import re
from enum import Enum
from typing import Any, NamedTuple, Optional


class Phase(str, Enum):
    DRAFT = "draft"
    IMPROVE = "improve"
    FEEDBACK = "feedback"
    CENTRAL_SYNTHESIS = "central_synthesis"
    EXTRACTION = "extraction"
    JUDGE = "judge"


class CallKind(str, Enum):
    """A debate call's kind when it is not the `Phase` of the message its reply is
    logged as: persona and ballot replies add no message, and a baseline's
    answer is a draft that no discussion prompt asked for."""

    PERSONA = "persona"
    BALLOT = "ballot"
    BASELINE = "baseline"


# Phases that drive the discussion itself; ballots and extractions are
# bookkeeping and must never surface in rendered agent memory.
DEBATE_PHASES = frozenset(
    {Phase.DRAFT, Phase.IMPROVE, Phase.FEEDBACK, Phase.CENTRAL_SYNTHESIS}
)


class Agreement(str, Enum):
    AGREE = "agree"
    DISAGREE = "disagree"


_AGREEMENT_RE = re.compile(r"\[(agree|disagree)\]", re.IGNORECASE)


def parse_agreement(text: str) -> Optional[Agreement]:
    """Last bracketed marker wins; None means the response was unmarked."""
    last = None
    for match in _AGREEMENT_RE.finditer(text):
        last = match.group(1).lower()
    if last is None:
        return None
    return Agreement.AGREE if last == "agree" else Agreement.DISAGREE


class TieBreak(str, Enum):
    EXTRA_ROUND = "extra_round"
    DETERMINISTIC_INDEX = "deterministic_index"


class Share(NamedTuple):
    """An exact share of a panel, unreduced, read like a Fraction."""

    numerator: int
    denominator: int


class TaskInstance(NamedTuple):
    """One dataset sample in the unified format."""

    id: str
    instruction_key: str
    input_lines: tuple[str, ...]
    context_lines: tuple[str, ...] = ()
    references: tuple[str, ...] = ()
    answer_letter: Optional[str] = None

    def input_text(self) -> str:
        return "\n".join(self.input_lines)

    def context_text(self) -> Optional[str]:
        return "\n".join(self.context_lines) if self.context_lines else None

    def to_unified(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "id": self.id,
            "instruction": self.instruction_key,
            "inputs": list(self.input_lines),
            "context": list(self.context_lines),
            "references": list(self.references),
        }
        if self.answer_letter is not None:
            record["answerLetter"] = self.answer_letter
        return record


class Persona(NamedTuple):
    name: str
    description: str = ""
    traits: Optional[dict[str, str]] = None


class ParadigmKind(str, Enum):
    MEMORY = "memory"
    RELAY = "relay"
    REPORT = "report"
    DEBATE = "debate"


class JobParams(NamedTuple):
    """One job's parameters, defaults filled in; the field names are the config keys."""

    endpoint_url: str = ""
    api_key: str = ""
    model_name: str = ""
    input_json_file_path: str = ""
    output_json_file_path: str = ""
    task_instruction_prompt_template: str = ""
    concurrent_api_requests: int = 8
    num_samples: Optional[int] = None
    max_turns: int = 7
    response_generator: str = "simple"
    decision_protocol: str = "majority_consensus"
    use_baseline: bool = False
    use_chain_of_thought: bool = True
    persona_generator: str = "none"
    discussion_paradigm: str = "memory"
    num_agents: int = 3
    seed: int = 0
    cumulative_points: int = 10
    voting_after_turns: int = 3
    debate_exchanges: int = 2

    def to_log(self) -> dict[str, Any]:
        # api_key never lands in logs.
        entry = {
            key: getattr(self, key)
            for key in sorted(self._fields)
            if key != "api_key"
        }
        if entry["num_samples"] is None:
            del entry["num_samples"]
        return entry


class AgentProfile(NamedTuple):
    agent_id: int
    persona: Persona
    raw_text: Optional[str] = None  # the generator's response the persona was parsed from

    def to_log(self) -> dict[str, Any]:
        entry: dict[str, Any] = {
            "agentId": self.agent_id,
            "name": self.persona.name,
            "description": self.persona.description,
        }
        if self.persona.traits is not None:
            entry["traits"] = dict(self.persona.traits)
        if self.raw_text is not None:
            entry["rawText"] = self.raw_text
        return entry


class Message(NamedTuple):
    seq: int
    turn: int
    agent_id: int
    phase: Phase
    text: str
    wall_clock_ms: int = 0

    @property
    def agreement(self) -> Optional[Agreement]:
        """The text's last marker; only improve and feedback messages carry one."""
        if self.phase in (Phase.IMPROVE, Phase.FEEDBACK):
            return parse_agreement(self.text)
        return None

    def to_log(self) -> dict[str, Any]:
        entry: dict[str, Any] = {
            "seq": self.seq,
            "turn": self.turn,
            "agentId": self.agent_id,
            "phase": self.phase.value,
            "text": self.text,
        }
        if (agreement := self.agreement) is not None:
            entry["agreement"] = agreement.value
        entry["clockMs"] = self.wall_clock_ms
        return entry


class DecisionOutcome(NamedTuple):
    """How a run ended; the log record adds the protocol and the turn."""

    final_text: str
    vote_detail: Optional[list[dict[str, Any]]] = None
    tie_broken: Optional[TieBreak] = None
    fallback_reason: Optional[str] = None
    error: Optional[str] = None

    @property
    def success(self) -> bool:
        return self.fallback_reason is None and self.error is None


def _installs_draft(msg: Message) -> bool:
    # Draft and central synthesis always carry a new solution. An improve
    # message replaces the draft unless it explicitly agreed with it.
    if msg.phase in (Phase.DRAFT, Phase.CENTRAL_SYNTHESIS):
        return True
    if msg.phase is Phase.IMPROVE:
        return msg.agreement is not Agreement.AGREE
    return False


class DebateState:
    """One debate's job, sample, task text and transcript; `turn` counts completed turns."""

    __slots__ = ("params", "task", "task_text", "panel", "transcript", "current_draft", "agreeing", "turn")

    def __init__(
        self, params: JobParams, task: TaskInstance, task_text: str, panel: list[AgentProfile]
    ) -> None:
        self.params, self.task, self.panel = params, task, panel
        self.task_text = task_text  # the resolved instruction the prompts carry
        self.transcript: list[Message] = []
        self.current_draft: Optional[str] = None  # the text of the solution under discussion
        self.agreeing: set[int] = set()  # the agents who agree with the current draft
        self.turn = 0

    def add(self, turn: int, agent_id: int, phase: Phase, text: str, clock_ms: int) -> None:
        """Append the next message, numbered after the last; its text carries its agreement."""
        msg = Message(len(self.transcript) + 1, turn, agent_id, phase, text, clock_ms)
        self.transcript.append(msg)
        if _installs_draft(msg):
            self.current_draft = msg.text
            self.agreeing = {msg.agent_id}
        elif (agreement := msg.agreement) is Agreement.AGREE:
            self.agreeing.add(msg.agent_id)
        elif agreement is Agreement.DISAGREE:
            self.agreeing.discard(msg.agent_id)

    def agreement_fraction(self) -> Share:
        return Share(len(self.agreeing), len(self.panel))

    def debate_messages(self) -> list[Message]:
        return [m for m in self.transcript if m.phase in DEBATE_PHASES]


def build_log_record(
    state: DebateState, outcome: DecisionOutcome, global_clock_ms: int
) -> dict[str, Any]:
    """Assemble the serialized debate log; key names are the log contract.

    The outcome's protocol is the job's (or "baseline"), and it was decided
    at the turns completed when the run ended.
    """
    params = state.params
    decision: dict[str, Any] = {
        "protocol": "baseline" if params.use_baseline else params.decision_protocol,
        "finalText": outcome.final_text,
        "success": outcome.success,
        "decidedAtTurn": state.turn,
    }
    if outcome.vote_detail is not None:
        decision["voteDetail"] = outcome.vote_detail
    if outcome.tie_broken is not None:
        decision["tieBroken"] = outcome.tie_broken.value
    if outcome.fallback_reason is not None:
        decision["fallbackReason"] = outcome.fallback_reason
    if outcome.error is not None:
        decision["error"] = outcome.error
    return {
        "config": params.to_log(),
        "task": state.task.to_unified(),
        "personas": [profile.to_log() for profile in state.panel],
        "messages": [m.to_log() for m in state.transcript],
        "outcome": decision,
        "globalClockMs": global_clock_ms,
    }
