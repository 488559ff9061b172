"""The transcript state machine and the log record's shape.

- A task joins its input lines, and its context lines, with newlines; with no
  context lines it has no context text. Its unified record holds
  `answerLetter` only when it has one.
- `AGREEMENTS`: a reply's agreement is its last bracketed `[agree]` or
  `[disagree]`, in any case; a reply with neither has none. Only an improve or
  a feedback message carries its text's agreement.
- `ADDS`: the state numbers each message one after the last. A draft, a
  central synthesis, and an improve that does not agree install their text
  as the draft and reset the agreement slate to their author alone. Any other
  improve or feedback adds its author to the slate if it agrees, and removes
  them if it disagrees. The agreeing share is the slate's size out of the
  panel. Extraction and judge messages are bookkeeping: they install nothing,
  leave the slate alone, and are not debate messages.
- A message's log entry and the log record hold their keys in the order
  pinned here. An outcome fails exactly when it names a reason, and its log
  entry adds each optional key the outcome has.
"""

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
    Share,
    TaskInstance,
    TieBreak,
    build_log_record,
    parse_agreement,
)
from recording import make_state


def make_task(**overrides) -> TaskInstance:
    return TaskInstance(**{"id": "0001", "instruction_key": "", "input_lines": ("What is 2+2?",), **overrides})


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

A, D = Agreement.AGREE, Agreement.DISAGREE

# Each reply text and the agreement `parse_agreement` reads from it.
AGREEMENTS = {
    "agree": ("I concur. [AGREE]", A),
    "disagree": ("No. [DISAGREE]", D),
    "lower case": ("[agree]", A),
    "mixed case": ("[Disagree]", D),
    "last marker wins": ("[AGREE] on points one and two, but overall [DISAGREE]", D),
    "unmarked": ("I agree with you", None),
    "empty": ("", None),
    "other brackets": ("[MAYBE] [opinion] [AGREEMENT]", None),
}


@pytest.mark.parametrize("text, expected", AGREEMENTS.values(), ids=list(AGREEMENTS))
def test_parse_agreement(text, expected):
    assert parse_agreement(text) is expected


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


V1 = (1, 1, "draft", "v1")

# The messages added to a 3-agent debate, each as (turn, agent, phase, text),
# then the draft, the agreement slate (the agents who agree with the draft),
# each message's agreement, and the seqs of the debate messages.
ADDS = {
    "a draft installs itself": ([(1, 1, "draft", "v1 [AGREE]")], ("v1 [AGREE]", {1}, [None], [1])),
    "an agreeing improve keeps the draft": ([V1, (1, 2, "improve", "fine [AGREE]")], ("v1", {1, 2}, [None, A], [1, 2])),
    "a disagreeing improve replaces the draft": (
        [V1, (1, 2, "improve", "v2 [DISAGREE]")], ("v2 [DISAGREE]", {2}, [None, D], [1, 2])
    ),
    "an unmarked improve replaces the draft": ([V1, (1, 2, "improve", "v2")], ("v2", {2}, [None, None], [1, 2])),
    "a disagreeing improve resets the slate": (
        [V1, (1, 2, "improve", "ok [AGREE]"), (1, 3, "improve", "no [DISAGREE]")],
        ("no [DISAGREE]", {3}, [None, A, D], [1, 2, 3]),
    ),
    "feedback never installs": ([V1, (1, 2, "feedback", "v2 [DISAGREE]")], ("v1", {1}, [None, D], [1, 2])),
    "an agreeing feedback": ([V1, (1, 3, "feedback", "ok [AGREE]")], ("v1", {1, 3}, [None, A], [1, 2])),
    "a peer who agreed in feedback and then disagrees leaves the slate": (
        [V1, (1, 2, "feedback", "ok [AGREE]"), (2, 2, "feedback", "no [DISAGREE]")],
        ("v1", {1}, [None, A, D], [1, 2, 3]),
    ),
    "a central synthesis installs": (
        [V1, (1, 1, "central_synthesis", "v2 [AGREE]")], ("v2 [AGREE]", {1}, [None, None], [1, 2])
    ),
    # Marked, the extractions would add agent 1 to the slate and take agent 2 off it.
    "bookkeeping": (
        [V1, (1, 2, "improve", "x"), (1, 1, "extraction", "ok [AGREE]"), (1, 2, "extraction", "no [DISAGREE]"),
         (1, 0, "judge", "no [DISAGREE]")],
        ("x", {2}, [None] * 5, [1, 2]),
    ),
    "turns": ([(1, 1, "draft", "x"), (1, 2, "improve", "x"), (2, 3, "improve", "x")], ("x", {3}, [None] * 3, [1, 2, 3])),
}


@pytest.mark.parametrize("case", ADDS)
def test_each_message_moves_the_draft_and_the_slate(case):
    added, (draft, slate, agreements, debate) = ADDS[case]
    state = make_state(3)
    for turn, agent, phase, text in added:
        state.add(turn, agent, Phase(phase), text, 0)
    assert [(m.seq, m.turn) for m in state.transcript] == [(seq, turn) for seq, (turn, *_) in enumerate(added, start=1)]
    assert (state.current_draft, state.agreeing, state.agreement_fraction()) == (draft, slate, Share(len(slate), 3))
    assert [m.agreement for m in state.transcript] == agreements
    assert [m.seq for m in state.debate_messages()] == debate


def test_build_log_record_contract_keys():
    state = make_state(seed=5, api_key="k")
    state.add(1, 1, Phase.DRAFT, "v1", 0)
    record = build_log_record(state, DecisionOutcome("v1"), 12)
    assert list(record) == ["config", "task", "personas", "messages", "outcome", "globalClockMs"]
    assert record["config"]["seed"] == 5 and "api_key" not in record["config"]
    assert [p["agentId"] for p in record["personas"]] == [1, 2, 3]
    assert record["globalClockMs"] == 12
    assert record["messages"][0]["text"] == "v1"
