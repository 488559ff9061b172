"""Shared domain types and the debate transcript state machine."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from fractions import Fraction
from typing import Any, Optional


class Phase(str, Enum):
    DRAFT = "draft"
    IMPROVE = "improve"
    FEEDBACK = "feedback"
    CENTRAL_SYNTHESIS = "central_synthesis"
    VOTE = "vote"
    EXTRACTION = "extraction"
    JUDGE = "judge"


# Phases that drive the discussion itself; ballots and extractions are
# bookkeeping and must never surface in rendered agent memory.
DEBATE_PHASES = frozenset(
    {Phase.DRAFT, Phase.IMPROVE, Phase.FEEDBACK, Phase.CENTRAL_SYNTHESIS}
)


class Agreement(str, Enum):
    AGREE = "agree"
    DISAGREE = "disagree"


class TieBreak(str, Enum):
    EXTRA_ROUND = "extra_round"
    DETERMINISTIC_INDEX = "deterministic_index"


class DomainError(Exception):
    """Base class for transcript state machine violations."""


class SequenceViolation(DomainError):
    pass


class DebateEnded(DomainError):
    pass


@dataclass(frozen=True)
class TaskInstance:
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


@dataclass(frozen=True)
class Persona:
    name: str
    description: str = ""
    traits: Optional[dict[str, str]] = None

    def to_log(self, agent_id: int, raw_text: Optional[str] = None) -> dict[str, Any]:
        entry: dict[str, Any] = {
            "agentId": agent_id,
            "name": self.name,
            "description": self.description,
        }
        if self.traits is not None:
            entry["traits"] = dict(self.traits)
        if raw_text is not None:
            entry["rawText"] = raw_text
        return entry


class ResponseGeneratorKind(str, Enum):
    SIMPLE = "simple"
    CRITICAL = "critical"
    REASONING = "reasoning"


class ParadigmKind(str, Enum):
    MEMORY = "memory"
    RELAY = "relay"
    REPORT = "report"
    DEBATE = "debate"


@dataclass(frozen=True)
class JobParams:
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
            for key in sorted(f.name for f in fields(self))
            if key != "api_key"
        }
        if entry["num_samples"] is None:
            del entry["num_samples"]
        return entry


@dataclass(frozen=True)
class AgentProfile:
    agent_id: int
    persona: Persona


@dataclass(frozen=True)
class Message:
    seq: int
    turn: int
    agent_id: int
    phase: Phase
    text: str
    agreement: Optional[Agreement] = None
    wall_clock_ms: int = 0

    def __post_init__(self) -> None:
        if self.agreement is not None and self.phase not in (
            Phase.IMPROVE,
            Phase.FEEDBACK,
        ):
            raise ValueError(
                f"agreement only allowed on improve/feedback messages, got {self.phase.value}"
            )

    def to_log(self) -> dict[str, Any]:
        entry: dict[str, Any] = {
            "seq": self.seq,
            "turn": self.turn,
            "agentId": self.agent_id,
            "phase": self.phase.value,
            "text": self.text,
        }
        if self.agreement is not None:
            entry["agreement"] = self.agreement.value
        entry["clockMs"] = self.wall_clock_ms
        return entry


@dataclass(frozen=True)
class SolutionDraft:
    text: str
    author_id: int
    turn: int


@dataclass
class DecisionOutcome:
    protocol: str
    final_text: str
    success: bool
    decided_at_turn: int
    vote_detail: Optional[list[dict[str, Any]]] = None
    tie_broken: Optional[TieBreak] = None
    fallback_reason: Optional[str] = None
    error: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.success and self.fallback_reason is None and self.error is None:
            raise ValueError("an unsuccessful outcome must record a fallback reason")

    def to_log(self) -> dict[str, Any]:
        entry: dict[str, Any] = {
            "protocol": self.protocol,
            "finalText": self.final_text,
            "success": self.success,
            "decidedAtTurn": self.decided_at_turn,
        }
        if self.vote_detail is not None:
            entry["voteDetail"] = self.vote_detail
        if self.tie_broken is not None:
            entry["tieBroken"] = self.tie_broken.value
        if self.fallback_reason is not None:
            entry["fallbackReason"] = self.fallback_reason
        if self.error is not None:
            entry["error"] = self.error
        return entry


def _installs_draft(msg: Message) -> bool:
    # Draft and central synthesis always carry a new solution. An improve
    # message replaces the draft unless it explicitly agreed with it.
    if msg.phase in (Phase.DRAFT, Phase.CENTRAL_SYNTHESIS):
        return True
    if msg.phase is Phase.IMPROVE:
        return msg.agreement is not Agreement.AGREE
    return False


@dataclass
class DebateState:
    """Single-owner mutable transcript; `turn` counts completed turns."""

    task: TaskInstance
    panel: list[AgentProfile]
    transcript: list[Message] = field(default_factory=list)
    current_draft: Optional[SolutionDraft] = None
    agree_flags: dict[int, Agreement] = field(default_factory=dict)
    turn: int = 0
    ended: bool = False

    def append(self, msg: Message) -> "DebateState":
        if self.ended:
            raise DebateEnded("cannot append to an ended debate")
        expected = len(self.transcript) + 1
        if msg.seq != expected:
            raise SequenceViolation(f"expected seq {expected}, got {msg.seq}")
        if self.transcript and msg.turn < self.transcript[-1].turn:
            raise SequenceViolation(
                f"turn went backwards: {self.transcript[-1].turn} -> {msg.turn}"
            )
        self.transcript.append(msg)
        if _installs_draft(msg):
            self.current_draft = SolutionDraft(
                text=msg.text, author_id=msg.agent_id, turn=msg.turn
            )
            self.agree_flags = {msg.agent_id: Agreement.AGREE}
        elif msg.agreement is not None:
            self.agree_flags[msg.agent_id] = msg.agreement
        return self

    def add(
        self,
        turn: int,
        agent_id: int,
        phase: Phase,
        text: str,
        clock_ms: int,
        agreement: Optional[Agreement] = None,
    ) -> None:
        """Append the next message; its seq follows the transcript."""
        self.append(
            Message(self.next_seq(), turn, agent_id, phase, text, agreement, clock_ms)
        )

    def agreement_fraction(self) -> Fraction:
        if not self.panel:
            raise ValueError("panel must be non-empty")
        agreeing = sum(
            1 for flag in self.agree_flags.values() if flag is Agreement.AGREE
        )
        return Fraction(agreeing, len(self.panel))

    def debate_messages(self) -> list[Message]:
        return [m for m in self.transcript if m.phase in DEBATE_PHASES]

    def next_seq(self) -> int:
        return len(self.transcript) + 1


def build_log_record(
    config: dict[str, Any],
    state: DebateState,
    personas: list[dict[str, Any]],
    outcome: DecisionOutcome,
    global_clock_ms: int,
) -> dict[str, Any]:
    """Assemble the serialized debate log; key names are the log contract."""
    return {
        "config": config,
        "task": state.task.to_unified(),
        "personas": personas,
        "messages": [m.to_log() for m in state.transcript],
        "outcome": outcome.to_log(),
        "globalClockMs": global_clock_ms,
    }
