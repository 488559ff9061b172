"""Speaker schedules, visibility filters, and turn execution per paradigm."""

from __future__ import annotations

import pytest

from agora.domain import (
    Agreement,
    DebateEnded,
    DebateState,
    JobParams,
    Message,
    Phase,
)
from agora.paradigms import (
    CENTRAL_AGENT_ID,
    ParadigmKind,
    TurnStep,
    pair_of,
    peer_pairs,
    render_step_prompt,
    run_turn,
    schedule,
    visible_messages,
)
from recording import REPLAY_LATENCY_MS, make_state, replay


def add(state: DebateState, agent_id: int, phase: Phase, text: str, turn: int) -> Message:
    state.add(turn, agent_id, phase, text, 0)
    return state.transcript[-1]


# -- pairing --


def test_peer_pairs_even_peers():
    assert peer_pairs(5) == [(2, 3), (4, 5)]


def test_peer_pairs_odd_peer_stands_alone():
    assert peer_pairs(4) == [(2, 3), (4,)]
    assert peer_pairs(6) == [(2, 3), (4, 5), (6,)]


def test_peer_pairs_minimum_panel():
    assert peer_pairs(3) == [(2, 3)]


def test_pair_of_lookup():
    assert pair_of(5, 4) == (4, 5)
    assert pair_of(4, 4) == (4,)


# -- schedules --


def test_memory_schedule_everyone_improves_with_full_view():
    steps = schedule(ParadigmKind.MEMORY, 3, 2)
    assert steps == [
        TurnStep(1, Phase.IMPROVE),
        TurnStep(2, Phase.IMPROVE),
        TurnStep(3, Phase.IMPROVE),
    ]


def test_relay_schedule_sees_only_last_message():
    steps = schedule(ParadigmKind.RELAY, 2, 2)
    assert steps == [TurnStep(1, Phase.IMPROVE), TurnStep(2, Phase.IMPROVE)]


def test_report_schedule_peers_then_central():
    steps = schedule(ParadigmKind.REPORT, 4, 2)
    assert [s.speaker for s in steps] == [2, 3, 4, 1]
    assert steps[-1] == TurnStep(1, Phase.CENTRAL_SYNTHESIS)
    assert all(s.phase is Phase.IMPROVE for s in steps[:-1])


def test_debate_schedule_alternates_within_pair():
    steps = schedule(ParadigmKind.DEBATE, 3, debate_exchanges=2)
    assert [s.speaker for s in steps] == [2, 3, 1]
    steps = schedule(ParadigmKind.DEBATE, 3, debate_exchanges=3)
    assert [s.speaker for s in steps] == [2, 3, 2, 1]


def test_debate_schedule_two_pairs():
    steps = schedule(ParadigmKind.DEBATE, 5, debate_exchanges=3)
    assert [s.speaker for s in steps] == [2, 3, 2, 4, 5, 4, 1]
    assert all(s.phase is Phase.FEEDBACK for s in steps[:-1])


def test_debate_schedule_lone_peer_gets_half_the_exchanges():
    steps = schedule(ParadigmKind.DEBATE, 4, debate_exchanges=2)
    assert [s.speaker for s in steps] == [2, 3, 4, 1]
    steps = schedule(ParadigmKind.DEBATE, 4, debate_exchanges=3)
    assert [s.speaker for s in steps] == [2, 3, 2, 4, 4, 1]


def test_schedule_is_turn_invariant():
    for kind in ParadigmKind:
        state = make_state(5, discussion_paradigm=kind.value)
        backend = replay([f"m{i} [DISAGREE]" for i in range(40)])
        for _ in range(3):
            run_turn(state, backend)
        per_turn = [[m.agent_id for m in state.transcript if m.turn == t] for t in (1, 2, 3)]
        expected = [step.speaker for step in schedule(kind, 5, 2)]
        assert per_turn == [expected] * 3


# -- visibility --


def test_visibility_all_returns_debate_messages_only():
    state = make_state(3, discussion_paradigm="memory")
    add(state, 1, Phase.DRAFT, "draft", turn=1)
    add(state, 2, Phase.IMPROVE, "improve [DISAGREE]", turn=1)
    add(state, 1, Phase.EXTRACTION, "1", turn=1)
    step = TurnStep(3, Phase.IMPROVE)
    visible = visible_messages(state, step)
    assert [m.phase for m in visible] == [Phase.DRAFT, Phase.IMPROVE]


def test_visibility_last_message_only():
    state = make_state(2, discussion_paradigm="relay")
    add(state, 1, Phase.DRAFT, "first", turn=1)
    add(state, 2, Phase.IMPROVE, "second", turn=1)
    step = TurnStep(1, Phase.IMPROVE)
    visible = visible_messages(state, step)
    assert [m.text for m in visible] == ["second"]


def test_visibility_last_message_only_empty_state():
    state = make_state(2, discussion_paradigm="relay")
    step = TurnStep(1, Phase.IMPROVE)
    assert visible_messages(state, step) == []


def test_visibility_own_and_central_hides_peer_traffic():
    state = make_state(3, discussion_paradigm="report")
    add(state, 2, Phase.DRAFT, "peer2 draft", turn=1)
    add(state, 3, Phase.IMPROVE, "peer3 improve", turn=1)
    add(state, 1, Phase.CENTRAL_SYNTHESIS, "central view", turn=1)
    step = TurnStep(2, Phase.IMPROVE)
    visible = visible_messages(state, step)
    assert [m.text for m in visible] == ["peer2 draft", "central view"]


def test_visibility_pair_only_filters_by_pair_and_turn():
    state = make_state(5, discussion_paradigm="debate")
    # Turn 1 completed: both pairs spoke, central synthesized.
    add(state, 2, Phase.DRAFT, "t1 p2", turn=1)
    add(state, 3, Phase.FEEDBACK, "t1 p3", turn=1)
    add(state, 4, Phase.FEEDBACK, "t1 p4", turn=1)
    add(state, 5, Phase.FEEDBACK, "t1 p5", turn=1)
    add(state, 1, Phase.CENTRAL_SYNTHESIS, "t1 central", turn=1)
    state.turn = 1
    # Turn 2 in progress: agent 2 already spoke.
    add(state, 2, Phase.FEEDBACK, "t2 p2", turn=2)
    step = TurnStep(3, Phase.FEEDBACK)
    visible = visible_messages(state, step)
    # Own pair's current-turn message plus every central synthesis; nothing
    # from the other pair, nothing from the pair's previous turn.
    assert [m.text for m in visible] == ["t1 central", "t2 p2"]


def test_visibility_pair_only_other_pair_is_invisible():
    state = make_state(5, discussion_paradigm="debate")
    add(state, 2, Phase.DRAFT, "t1 p2", turn=1)
    step = TurnStep(4, Phase.FEEDBACK)
    assert visible_messages(state, step) == []


# -- prompt rendering --


def test_first_step_prompt_is_system_only():
    state = make_state(2)
    step = TurnStep(1, Phase.IMPROVE)
    messages = render_step_prompt(state, step)
    assert len(messages) == 1
    role, text = messages[0]
    assert role == "system"
    assert "Nobody proposed a solution yet." in text


def test_step_prompt_with_draft_adds_user_turn():
    state = make_state(2)
    add(state, 1, Phase.DRAFT, "drafted answer", turn=1)
    step = TurnStep(2, Phase.IMPROVE)
    messages = render_step_prompt(state, step)
    assert [role for role, _ in messages] == ["system", "user"]
    assert "drafted answer" in messages[0][1]
    assert "Participant 1" in messages[0][1]


def test_step_prompt_honors_generator_choice():
    state = make_state(2, response_generator="simple")
    add(state, 1, Phase.DRAFT, "d", turn=1)
    step = TurnStep(2, Phase.IMPROVE)
    simple = render_step_prompt(state, step)
    state.params = JobParams(response_generator="critical")
    critical = render_step_prompt(state, step)
    assert simple[1][1] != critical[1][1]


# -- turn execution --


def test_run_turn_memory_first_turn():
    state = make_state(3)
    backend = replay(
        [
            "first draft",
            "better [DISAGREE]",
            "fine [AGREE]",
        ]
    )
    run_turn(state, backend)
    assert state.turn == 1
    assert [m.phase for m in state.transcript] == [
        Phase.DRAFT,
        Phase.IMPROVE,
        Phase.IMPROVE,
    ]
    assert [m.agreement for m in state.transcript] == [
        None,
        Agreement.DISAGREE,
        Agreement.AGREE,
    ]
    assert [m.seq for m in state.transcript] == [1, 2, 3]
    assert all(m.wall_clock_ms == REPLAY_LATENCY_MS for m in state.transcript)
    # Disagreeing improve replaced the draft; the agree vote targeted it.
    assert state.current_draft == "better [DISAGREE]"
    assert state.agree_flags == {2: Agreement.AGREE, 3: Agreement.AGREE}


def test_run_turn_draft_phase_never_parses_agreement():
    state = make_state(2)
    backend = replay(["I [AGREE] with myself", "second [AGREE]"])
    run_turn(state, backend)
    assert state.transcript[0].phase is Phase.DRAFT
    assert state.transcript[0].agreement is None
    assert state.transcript[1].agreement is Agreement.AGREE


def test_run_turn_debate_records_synthesis_as_draft_holder():
    state = make_state(3, discussion_paradigm="debate", debate_exchanges=2)
    backend = replay(
        [
            "p2 opening",
            "p3 pushback [DISAGREE]",
            "central summary",
        ]
    )
    run_turn(state, backend)
    phases = [m.phase for m in state.transcript]
    assert phases == [Phase.DRAFT, Phase.FEEDBACK, Phase.CENTRAL_SYNTHESIS]
    assert state.current_draft == "central summary"
    assert state.agree_flags == {CENTRAL_AGENT_ID: Agreement.AGREE}


def test_run_turn_rejects_ended_debate():
    state = make_state(2)
    state.ended = True
    with pytest.raises(DebateEnded):
        run_turn(state, replay([]))


def test_run_turn_report_peers_never_see_each_other():
    state = make_state(3, discussion_paradigm="report")
    backend = replay(["p2 draft", "p3 says [DISAGREE]", "central merge"])
    run_turn(state, backend)
    # The shared solution slate is always visible; the discussion memory is
    # what visibility scopes, so agent 3's memory must not quote agent 2.
    p3_memory = backend.requests[1].messages[0].content.split("Discussion so far:")[1]
    assert "p2 draft" not in p3_memory
    central_memory = backend.requests[2].messages[0].content.split("Discussion so far:")[1]
    assert "p2 draft" in central_memory and "p3 says" in central_memory


def test_run_turn_second_turn_numbering():
    state = make_state(2)
    backend = replay(["a", "b [AGREE]", "c [DISAGREE]", "d [AGREE]"])
    run_turn(state, backend)
    run_turn(state, backend)
    assert state.turn == 2
    assert [m.turn for m in state.transcript] == [1, 1, 2, 2]
    assert [m.seq for m in state.transcript] == [1, 2, 3, 4]
