"""Transcript state machine and log record shape."""

from __future__ import annotations

from fractions import Fraction

import pytest

from agora.domain import (
    Agreement,
    AgentProfile,
    DebateEnded,
    DebateState,
    DecisionOutcome,
    Message,
    Persona,
    Phase,
    SequenceViolation,
    TaskInstance,
    TieBreak,
    build_log_record,
)


def make_task(**overrides) -> TaskInstance:
    fields = dict(
        id="0001",
        instruction_key="",
        input_lines=("What is 2+2?",),
    )
    fields.update(overrides)
    return TaskInstance(**fields)


def make_panel(n: int) -> list[AgentProfile]:
    return [
        AgentProfile(i, Persona(f"Participant {i}"))
        for i in range(1, n + 1)
    ]


def make_state(n: int = 3) -> DebateState:
    return DebateState(task=make_task(), panel=make_panel(n))


def msg(seq: int, turn: int, agent: int, phase: Phase, text: str = "x", **kw) -> Message:
    return Message(seq=seq, turn=turn, agent_id=agent, phase=phase, text=text, **kw)


def test_task_instance_text_joins():
    task = make_task(input_lines=("a", "b"), context_lines=("c1", "c2"))
    assert task.input_text() == "a\nb"
    assert task.context_text() == "c1\nc2"


def test_task_instance_context_absent_is_none():
    assert make_task().context_text() is None


def test_to_unified_includes_letter_only_when_set():
    assert "answerLetter" not in make_task().to_unified()
    unified = make_task(answer_letter="B").to_unified()
    assert unified["answerLetter"] == "B"
    assert unified["id"] == "0001"
    assert unified["inputs"] == ["What is 2+2?"]


def test_message_agreement_only_on_improve_or_feedback():
    msg(1, 1, 1, Phase.IMPROVE, agreement=Agreement.AGREE)
    msg(1, 1, 1, Phase.FEEDBACK, agreement=Agreement.DISAGREE)
    with pytest.raises(ValueError):
        msg(1, 1, 1, Phase.DRAFT, agreement=Agreement.AGREE)
    with pytest.raises(ValueError):
        msg(1, 1, 1, Phase.VOTE, agreement=Agreement.DISAGREE)


def test_message_log_shape():
    entry = msg(2, 1, 3, Phase.IMPROVE, "ok", agreement=Agreement.AGREE).to_log()
    assert list(entry) == ["seq", "turn", "agentId", "phase", "text", "agreement", "clockMs"]
    assert entry["agreement"] == "agree"
    plain = msg(1, 1, 1, Phase.DRAFT).to_log()
    assert "agreement" not in plain
    assert list(plain) == ["seq", "turn", "agentId", "phase", "text", "clockMs"]


def test_outcome_requires_reason_when_unsuccessful():
    with pytest.raises(ValueError):
        DecisionOutcome("majority_consensus", "x", False, 3)
    DecisionOutcome("majority_consensus", "x", False, 3, fallback_reason="cap")
    DecisionOutcome("majority_consensus", "x", False, 3, error="boom")


def test_outcome_log_optional_keys():
    full = DecisionOutcome(
        "simple_voting",
        "answer",
        True,
        4,
        vote_detail=[{"turn": 3}],
        tie_broken=TieBreak.EXTRA_ROUND,
    ).to_log()
    assert full["tieBroken"] == "extra_round"
    assert full["voteDetail"] == [{"turn": 3}]
    lean = DecisionOutcome("judge", "answer", True, 3).to_log()
    assert set(lean) == {"protocol", "finalText", "success", "decidedAtTurn"}


def test_append_enforces_sequence():
    state = make_state()
    state.append(msg(1, 1, 1, Phase.DRAFT))
    with pytest.raises(SequenceViolation):
        state.append(msg(3, 1, 2, Phase.IMPROVE))


def test_append_rejects_backwards_turn():
    state = make_state()
    state.append(msg(1, 2, 1, Phase.DRAFT))
    with pytest.raises(SequenceViolation):
        state.append(msg(2, 1, 2, Phase.IMPROVE))


def test_append_after_end_raises():
    state = make_state()
    state.ended = True
    with pytest.raises(DebateEnded):
        state.append(msg(1, 1, 1, Phase.DRAFT))


def test_draft_installs_and_resets_agreement():
    state = make_state()
    state.append(msg(1, 1, 1, Phase.DRAFT, "v1"))
    assert state.current_draft.text == "v1"
    assert state.agree_flags == {1: Agreement.AGREE}


def test_improve_with_agree_keeps_draft():
    state = make_state()
    state.append(msg(1, 1, 1, Phase.DRAFT, "v1"))
    state.append(msg(2, 1, 2, Phase.IMPROVE, "fine [AGREE]", agreement=Agreement.AGREE))
    assert state.current_draft.text == "v1"
    assert state.agree_flags == {1: Agreement.AGREE, 2: Agreement.AGREE}


def test_improve_with_disagree_replaces_draft():
    state = make_state()
    state.append(msg(1, 1, 1, Phase.DRAFT, "v1"))
    state.append(msg(2, 1, 2, Phase.IMPROVE, "v2", agreement=Agreement.DISAGREE))
    assert state.current_draft.text == "v2"
    assert state.current_draft.author_id == 2
    # The replacement starts a fresh agreement slate around its author.
    assert state.agree_flags == {2: Agreement.AGREE}


def test_unmarked_improve_replaces_draft():
    state = make_state()
    state.append(msg(1, 1, 1, Phase.DRAFT, "v1"))
    state.append(msg(2, 1, 2, Phase.IMPROVE, "v2"))
    assert state.current_draft.text == "v2"


def test_feedback_never_installs():
    state = make_state()
    state.append(msg(1, 1, 1, Phase.DRAFT, "v1"))
    state.append(msg(2, 1, 2, Phase.FEEDBACK, "v2", agreement=Agreement.DISAGREE))
    assert state.current_draft.text == "v1"
    assert state.agree_flags[2] is Agreement.DISAGREE


def test_central_synthesis_installs():
    state = make_state()
    state.append(msg(1, 1, 1, Phase.DRAFT, "v1"))
    state.append(msg(2, 1, 1, Phase.CENTRAL_SYNTHESIS, "v2"))
    assert state.current_draft.text == "v2"


def test_agreement_fraction_is_exact():
    state = make_state(3)
    state.append(msg(1, 1, 1, Phase.DRAFT, "v1"))
    state.append(msg(2, 1, 2, Phase.IMPROVE, "ok", agreement=Agreement.AGREE))
    assert state.agreement_fraction() == Fraction(2, 3)
    state.append(msg(3, 1, 3, Phase.IMPROVE, "no", agreement=Agreement.DISAGREE))
    # A disagreeing improve replaces the draft; the slate resets to its author.
    assert state.current_draft.text == "no"
    assert state.agreement_fraction() == Fraction(1, 3)


def test_agreement_fraction_needs_panel():
    state = DebateState(task=make_task(), panel=[])
    with pytest.raises(ValueError):
        state.agreement_fraction()


def test_debate_messages_filters_bookkeeping_phases():
    state = make_state()
    state.append(msg(1, 1, 1, Phase.DRAFT))
    state.append(msg(2, 1, 2, Phase.IMPROVE))
    state.append(msg(3, 1, 1, Phase.EXTRACTION))
    state.append(msg(4, 1, 0, Phase.JUDGE))
    assert [m.phase for m in state.debate_messages()] == [Phase.DRAFT, Phase.IMPROVE]
    assert state.next_seq() == 5


def test_build_log_record_contract_keys():
    state = make_state()
    state.append(msg(1, 1, 1, Phase.DRAFT, "v1"))
    outcome = DecisionOutcome("majority_consensus", "v1", True, 1)
    record = build_log_record({"seed": 0}, state, [{"agentId": 1}], outcome, 12)
    assert list(record) == ["config", "task", "personas", "messages", "outcome", "globalClockMs"]
    assert record["globalClockMs"] == 12
    assert record["messages"][0]["text"] == "v1"
