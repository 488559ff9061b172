"""Transcript state machine and log record shape."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, strategies as st

from agora.domain import (
    Agreement,
    DecisionOutcome,
    JobParams,
    Message,
    Phase,
    SequenceViolation,
    Share,
    TaskInstance,
    TieBreak,
    build_log_record,
    parse_agreement,
)
from recording import make_state


def make_task(**overrides) -> TaskInstance:
    fields = dict(
        id="0001",
        instruction_key="",
        input_lines=("What is 2+2?",),
    )
    fields.update(overrides)
    return TaskInstance(**fields)


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


# -- agreement markers --


def test_parse_agreement_basic():
    assert parse_agreement("I concur. [AGREE]") is Agreement.AGREE
    assert parse_agreement("No. [DISAGREE]") is Agreement.DISAGREE


def test_parse_agreement_case_insensitive():
    assert parse_agreement("[agree]") is Agreement.AGREE
    assert parse_agreement("[Disagree]") is Agreement.DISAGREE


def test_parse_agreement_last_marker_wins():
    text = "[AGREE] on points one and two, but overall [DISAGREE]"
    assert parse_agreement(text) is Agreement.DISAGREE


def test_parse_agreement_unmarked_is_none():
    assert parse_agreement("I agree with you") is None
    assert parse_agreement("") is None


def test_parse_agreement_ignores_other_brackets():
    assert parse_agreement("[MAYBE] [opinion] [AGREEMENT]") is None


def test_message_agreement_only_on_improve_or_feedback():
    assert Message(1, 1, 1, Phase.IMPROVE, "ok [AGREE]").agreement is Agreement.AGREE
    assert Message(1, 1, 1, Phase.FEEDBACK, "no [DISAGREE]").agreement is Agreement.DISAGREE
    assert Message(1, 1, 1, Phase.DRAFT, "ok [AGREE]").agreement is None
    assert Message(1, 1, 1, Phase.EXTRACTION, "no [DISAGREE]").agreement is None


def test_message_log_shape():
    entry = Message(2, 1, 3, Phase.IMPROVE, "ok [AGREE]").to_log()
    assert list(entry) == ["seq", "turn", "agentId", "phase", "text", "agreement", "clockMs"]
    assert entry["agreement"] == "agree"
    plain = Message(1, 1, 1, Phase.DRAFT, "x").to_log()
    assert "agreement" not in plain
    assert list(plain) == ["seq", "turn", "agentId", "phase", "text", "clockMs"]


def _marked_agreement(phase: Phase, text: str) -> Agreement | None:
    """The rule the turn loop applied before messages read their own text: an
    improve or feedback reply's last [agree]/[disagree] marker, any case."""
    if phase not in (Phase.IMPROVE, Phase.FEEDBACK):
        return None
    markers = re.findall(r"\[(agree|disagree)\]", text, re.IGNORECASE)
    if not markers:
        return None
    return Agreement.AGREE if markers[-1].lower() == "agree" else Agreement.DISAGREE


_PIECES = st.one_of(
    st.sampled_from(
        ["[AGREE]", "[disagree]", "[Agree]", "[DisAgree]", "[agree", "agree]", "[ AGREE]",
         "[AGREEMENT]", "[[DISAGREE]]", "\n"]
    ),
    st.text(max_size=12),
)


@given(st.lists(_PIECES, max_size=8).map("".join), st.sampled_from(list(Phase)))
def test_message_agreement_and_log_follow_the_last_marker_of_improve_and_feedback(text, phase):
    expected = _marked_agreement(phase, text)
    state = make_state()
    state.add(1, 2, phase, text, 3)
    msg = state.transcript[0]
    assert msg.agreement is expected
    entry = msg.to_log()
    keys = ["seq", "turn", "agentId", "phase", "text", "clockMs"]
    if expected is not None:
        keys.insert(5, "agreement")
    assert list(entry) == keys
    assert entry.get("agreement") == (expected.value if expected else None)
    assert (entry["seq"], entry["phase"], entry["text"]) == (1, phase.value, text)


def test_outcome_requires_reason_when_unsuccessful():
    # Success is derived: an outcome fails exactly when it names a reason.
    assert DecisionOutcome("x").success
    assert not DecisionOutcome("x", fallback_reason="cap").success
    assert not DecisionOutcome("x", error="boom").success


def test_outcome_log_optional_keys():
    state = make_state(decision_protocol="simple_voting")
    state.turn = 4
    outcome = DecisionOutcome(
        "answer", vote_detail=[{"turn": 3}], tie_broken=TieBreak.EXTRA_ROUND
    )
    full = build_log_record(state, outcome, 0)
    assert full["outcome"]["tieBroken"] == "extra_round"
    assert full["outcome"]["voteDetail"] == [{"turn": 3}]
    state.params = JobParams()
    lean = build_log_record(state, DecisionOutcome("answer"), 0)
    assert list(lean["outcome"]) == ["protocol", "finalText", "success", "decidedAtTurn"]
    failed = DecisionOutcome("", fallback_reason="cap", error="boom")
    assert list(build_log_record(state, failed, 0)["outcome"]) == [
        "protocol",
        "finalText",
        "success",
        "decidedAtTurn",
        "fallbackReason",
        "error",
    ]


def test_log_record_derives_protocol_and_turn_from_job_and_state():
    state = make_state(decision_protocol="judge")
    state.turn = 2
    judged = build_log_record(state, DecisionOutcome("a"), 0)
    assert judged["outcome"]["protocol"] == "judge"
    assert judged["outcome"]["decidedAtTurn"] == 2
    state.params = JobParams(decision_protocol="judge", use_baseline=True)
    record = build_log_record(state, DecisionOutcome("a"), 0)
    assert record["outcome"]["protocol"] == "baseline"


def test_append_enforces_sequence():
    # The state numbers each message itself, one after the last.
    state = make_state()
    state.add(1, 1, Phase.DRAFT, "x", 0)
    state.add(1, 2, Phase.IMPROVE, "x", 0)
    state.add(2, 3, Phase.IMPROVE, "x", 0)
    assert [m.seq for m in state.transcript] == [1, 2, 3]


def test_append_rejects_backwards_turn():
    state = make_state()
    state.add(2, 1, Phase.DRAFT, "x", 0)
    with pytest.raises(SequenceViolation):
        state.add(1, 2, Phase.IMPROVE, "x", 0)
    assert len(state.transcript) == 1


def test_draft_installs_and_resets_agreement():
    state = make_state()
    state.add(1, 1, Phase.DRAFT, "v1", 0)
    assert state.current_draft == "v1"
    assert state.agree_flags == {1: Agreement.AGREE}


def test_improve_with_agree_keeps_draft():
    state = make_state()
    state.add(1, 1, Phase.DRAFT, "v1", 0)
    state.add(1, 2, Phase.IMPROVE, "fine [AGREE]", 0)
    assert state.current_draft == "v1"
    assert state.agree_flags == {1: Agreement.AGREE, 2: Agreement.AGREE}


def test_improve_with_disagree_replaces_draft():
    state = make_state()
    state.add(1, 1, Phase.DRAFT, "v1", 0)
    state.add(1, 2, Phase.IMPROVE, "v2 [DISAGREE]", 0)
    assert state.current_draft == "v2 [DISAGREE]"
    # The replacement starts a fresh agreement slate around its author.
    assert state.agree_flags == {2: Agreement.AGREE}


def test_unmarked_improve_replaces_draft():
    state = make_state()
    state.add(1, 1, Phase.DRAFT, "v1", 0)
    state.add(1, 2, Phase.IMPROVE, "v2", 0)
    assert state.current_draft == "v2"


def test_feedback_never_installs():
    state = make_state()
    state.add(1, 1, Phase.DRAFT, "v1", 0)
    state.add(1, 2, Phase.FEEDBACK, "v2 [DISAGREE]", 0)
    assert state.current_draft == "v1"
    assert state.agree_flags[2] is Agreement.DISAGREE


def test_central_synthesis_installs():
    state = make_state()
    state.add(1, 1, Phase.DRAFT, "v1", 0)
    state.add(1, 1, Phase.CENTRAL_SYNTHESIS, "v2 [AGREE]", 0)
    assert state.current_draft == "v2 [AGREE]"
    assert state.transcript[-1].agreement is None


def test_agreement_fraction_is_exact():
    state = make_state(3)
    state.add(1, 1, Phase.DRAFT, "v1", 0)
    state.add(1, 2, Phase.IMPROVE, "ok [AGREE]", 0)
    assert state.agreement_fraction() == Share(2, 3)
    state.add(1, 3, Phase.IMPROVE, "no [DISAGREE]", 0)
    # A disagreeing improve replaces the draft; the slate resets to its author.
    assert state.current_draft == "no [DISAGREE]"
    assert state.agreement_fraction() == Share(1, 3)


def test_debate_messages_filters_bookkeeping_phases():
    state = make_state()
    state.add(1, 1, Phase.DRAFT, "x", 0)
    state.add(1, 2, Phase.IMPROVE, "x", 0)
    state.add(1, 1, Phase.EXTRACTION, "x", 0)
    state.add(1, 0, Phase.JUDGE, "x", 0)
    assert [m.phase for m in state.debate_messages()] == [Phase.DRAFT, Phase.IMPROVE]
    assert [m.seq for m in state.transcript] == [1, 2, 3, 4]


def test_build_log_record_contract_keys():
    state = make_state(seed=5, api_key="k")
    state.add(1, 1, Phase.DRAFT, "v1", 0)
    record = build_log_record(state, DecisionOutcome("v1"), 12)
    assert list(record) == ["config", "task", "personas", "messages", "outcome", "globalClockMs"]
    assert record["config"]["seed"] == 5 and "api_key" not in record["config"]
    assert [p["agentId"] for p in record["personas"]] == [1, 2, 3]
    assert record["globalClockMs"] == 12
    assert record["messages"][0]["text"] == "v1"
