"""Speaker schedules, visibility filters, and turn execution per paradigm."""

from __future__ import annotations

import pytest

from agora.domain import (
    AgentProfile,
    Agreement,
    DebateEnded,
    DebateState,
    JobParams,
    Message,
    Persona,
    Phase,
    TaskInstance,
)
from agora.gateway import ChatRequest, ChatResponse
from agora.paradigms import (
    CENTRAL_AGENT_ID,
    DebateContext,
    PanelTooSmall,
    ParadigmKind,
    TurnStep,
    pair_of,
    peer_pairs,
    render_step_prompt,
    run_turn,
    schedule,
    visible_messages,
)


def make_state(n: int = 3) -> DebateState:
    panel = [
        AgentProfile(i, Persona(name=f"Participant {i}"))
        for i in range(1, n + 1)
    ]
    task = TaskInstance(id="s1", instruction_key="", input_lines=("x",))
    return DebateState(task=task, panel=panel)


def ctx(**params) -> DebateContext:
    return DebateContext(JobParams(**params), task_text="solve", input_text="x")


def add(state: DebateState, agent_id: int, phase: Phase, text: str, turn: int, **kw) -> Message:
    msg = Message(
        seq=state.next_seq(), turn=turn, agent_id=agent_id, phase=phase, text=text, **kw
    )
    state.append(msg)
    return msg


class SeqBackend:
    def __init__(self, texts: list[str]) -> None:
        self.texts = list(texts)
        self.requests: list[ChatRequest] = []

    def complete(self, req: ChatRequest) -> ChatResponse:
        self.requests.append(req)
        return ChatResponse(text=self.texts.pop(0), latency_ms=7)


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


def test_pair_of_rejects_central_agent():
    with pytest.raises(ValueError):
        pair_of(5, CENTRAL_AGENT_ID)


# -- schedules --


def test_memory_schedule_everyone_improves_with_full_view():
    steps = schedule(ParadigmKind.MEMORY, 3)
    assert steps == [
        TurnStep(1, Phase.IMPROVE),
        TurnStep(2, Phase.IMPROVE),
        TurnStep(3, Phase.IMPROVE),
    ]


def test_relay_schedule_sees_only_last_message():
    steps = schedule(ParadigmKind.RELAY, 2)
    assert steps == [TurnStep(1, Phase.IMPROVE), TurnStep(2, Phase.IMPROVE)]


def test_memory_and_relay_need_two_agents():
    with pytest.raises(PanelTooSmall):
        schedule(ParadigmKind.MEMORY, 1)
    with pytest.raises(PanelTooSmall):
        schedule(ParadigmKind.RELAY, 1)


def test_report_schedule_peers_then_central():
    steps = schedule(ParadigmKind.REPORT, 4)
    assert [s.speaker for s in steps] == [2, 3, 4, 1]
    assert steps[-1] == TurnStep(1, Phase.CENTRAL_SYNTHESIS)
    assert all(s.phase is Phase.IMPROVE for s in steps[:-1])


def test_report_and_debate_need_three_agents():
    with pytest.raises(PanelTooSmall):
        schedule(ParadigmKind.REPORT, 2)
    with pytest.raises(PanelTooSmall):
        schedule(ParadigmKind.DEBATE, 2)


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
        state = make_state(5)
        backend = SeqBackend([f"m{i} [DISAGREE]" for i in range(40)])
        for _ in range(3):
            run_turn(state, backend, ctx(discussion_paradigm=kind.value))
        per_turn = [[m.agent_id for m in state.transcript if m.turn == t] for t in (1, 2, 3)]
        expected = [step.speaker for step in schedule(kind, 5)]
        assert per_turn == [expected] * 3


# -- visibility --


def test_visibility_all_returns_debate_messages_only():
    state = make_state(3)
    add(state, 1, Phase.DRAFT, "draft", turn=1)
    add(state, 2, Phase.IMPROVE, "improve [DISAGREE]", turn=1, agreement=Agreement.DISAGREE)
    add(state, 1, Phase.VOTE, "1", turn=1)
    step = TurnStep(3, Phase.IMPROVE)
    visible = visible_messages(ParadigmKind.MEMORY, state, step)
    assert [m.phase for m in visible] == [Phase.DRAFT, Phase.IMPROVE]


def test_visibility_last_message_only():
    state = make_state(2)
    add(state, 1, Phase.DRAFT, "first", turn=1)
    add(state, 2, Phase.IMPROVE, "second", turn=1)
    step = TurnStep(1, Phase.IMPROVE)
    visible = visible_messages(ParadigmKind.RELAY, state, step)
    assert [m.text for m in visible] == ["second"]


def test_visibility_last_message_only_empty_state():
    state = make_state(2)
    step = TurnStep(1, Phase.IMPROVE)
    assert visible_messages(ParadigmKind.RELAY, state, step) == []


def test_visibility_own_and_central_hides_peer_traffic():
    state = make_state(3)
    add(state, 2, Phase.DRAFT, "peer2 draft", turn=1)
    add(state, 3, Phase.IMPROVE, "peer3 improve", turn=1)
    add(state, 1, Phase.CENTRAL_SYNTHESIS, "central view", turn=1)
    step = TurnStep(2, Phase.IMPROVE)
    visible = visible_messages(ParadigmKind.REPORT, state, step)
    assert [m.text for m in visible] == ["peer2 draft", "central view"]


def test_visibility_pair_only_filters_by_pair_and_turn():
    state = make_state(5)
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
    visible = visible_messages(ParadigmKind.DEBATE, state, step)
    # Own pair's current-turn message plus every central synthesis; nothing
    # from the other pair, nothing from the pair's previous turn.
    assert [m.text for m in visible] == ["t1 central", "t2 p2"]


def test_visibility_pair_only_other_pair_is_invisible():
    state = make_state(5)
    add(state, 2, Phase.DRAFT, "t1 p2", turn=1)
    step = TurnStep(4, Phase.FEEDBACK)
    assert visible_messages(ParadigmKind.DEBATE, state, step) == []


# -- prompt rendering --


def test_first_step_prompt_is_system_only():
    state = make_state(2)
    step = TurnStep(1, Phase.IMPROVE)
    messages = render_step_prompt(state, step, ctx())
    assert len(messages) == 1
    role, text = messages[0]
    assert role == "system"
    assert "Nobody proposed a solution yet." in text


def test_step_prompt_with_draft_adds_user_turn():
    state = make_state(2)
    add(state, 1, Phase.DRAFT, "drafted answer", turn=1)
    step = TurnStep(2, Phase.IMPROVE)
    messages = render_step_prompt(state, step, ctx())
    assert [role for role, _ in messages] == ["system", "user"]
    assert "drafted answer" in messages[0][1]
    assert "Participant 1" in messages[0][1]


def test_step_prompt_honors_generator_choice():
    state = make_state(2)
    add(state, 1, Phase.DRAFT, "d", turn=1)
    step = TurnStep(2, Phase.IMPROVE)
    simple = render_step_prompt(state, step, ctx(response_generator="simple"))
    critical = render_step_prompt(state, step, ctx(response_generator="critical"))
    assert simple[1][1] != critical[1][1]


# -- turn execution --


def test_run_turn_memory_first_turn():
    state = make_state(3)
    backend = SeqBackend(
        [
            "first draft",
            "better [DISAGREE]",
            "fine [AGREE]",
        ]
    )
    run_turn(state, backend, ctx())
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
    assert all(m.wall_clock_ms == 7 for m in state.transcript)
    # Disagreeing improve replaced the draft; the agree vote targeted it.
    assert state.current_draft == "better [DISAGREE]"
    assert state.agree_flags == {2: Agreement.AGREE, 3: Agreement.AGREE}


def test_run_turn_draft_phase_never_parses_agreement():
    state = make_state(2)
    backend = SeqBackend(["I [AGREE] with myself", "second [AGREE]"])
    run_turn(state, backend, ctx())
    assert state.transcript[0].phase is Phase.DRAFT
    assert state.transcript[0].agreement is None
    assert state.transcript[1].agreement is Agreement.AGREE


def test_run_turn_debate_records_synthesis_as_draft_holder():
    state = make_state(3)
    backend = SeqBackend(
        [
            "p2 opening",
            "p3 pushback [DISAGREE]",
            "central summary",
        ]
    )
    run_turn(state, backend, ctx(discussion_paradigm="debate", debate_exchanges=2))
    phases = [m.phase for m in state.transcript]
    assert phases == [Phase.DRAFT, Phase.FEEDBACK, Phase.CENTRAL_SYNTHESIS]
    assert state.current_draft == "central summary"
    assert state.agree_flags == {CENTRAL_AGENT_ID: Agreement.AGREE}


def test_run_turn_rejects_ended_debate():
    state = make_state(2)
    state.ended = True
    with pytest.raises(DebateEnded):
        run_turn(state, SeqBackend([]), ctx())


def test_run_turn_rejects_exceeding_turn_cap():
    state = make_state(2)
    state.turn = 7
    with pytest.raises(ValueError):
        run_turn(state, SeqBackend([]), ctx(max_turns=7))


def test_run_turn_report_peers_never_see_each_other():
    state = make_state(3)
    backend = SeqBackend(["p2 draft", "p3 says [DISAGREE]", "central merge"])
    run_turn(state, backend, ctx(discussion_paradigm="report"))
    # The shared solution slate is always visible; the discussion memory is
    # what visibility scopes, so agent 3's memory must not quote agent 2.
    p3_memory = backend.requests[1].messages[0].content.split("Discussion so far:")[1]
    assert "p2 draft" not in p3_memory
    central_memory = backend.requests[2].messages[0].content.split("Discussion so far:")[1]
    assert "p2 draft" in central_memory and "p3 says" in central_memory


def test_run_turn_second_turn_numbering():
    state = make_state(2)
    backend = SeqBackend(["a", "b [AGREE]", "c [DISAGREE]", "d [AGREE]"])
    run_turn(state, backend, ctx())
    run_turn(state, backend, ctx())
    assert state.turn == 2
    assert [m.turn for m in state.transcript] == [1, 1, 2, 2]
    assert [m.seq for m in state.transcript] == [1, 2, 3, 4]
