"""Speaker schedules, visibility filters, step prompts and turn execution per paradigm.

- `PAIRS`: agent 1 is the central agent. The peers 2..n pair up in order,
  (2, 3), (4, 5), ..., and an odd last peer stands alone.
- `SCHEDULES`: in memory and relay each agent 1..n improves in turn. In
  report each peer improves; in debate each pair exchanges
  `debate_exchanges` feedback messages, alternating and opened by its first
  peer, and a lone peer gives half as many, rounded up. Both end with the
  central agent's synthesis. Every turn of a debate has the same schedule.
- `VISIBLE`: a speaker sees debate messages only. A memory speaker and every
  central synthesis see them all, a relay speaker the last one, a report peer
  its own and the syntheses, and a debate peer its pair's messages of the
  current turn and the syntheses.
- A step's prompt is the system prompt alone until a draft stands; then the
  system prompt holds the draft and the visible memory, and the response
  generator's turn prompt follows it.
- `run_turn` speaks the schedule once, as a draft while no draft stands,
  numbers each message, and counts the turn.
"""

from __future__ import annotations

import pytest

from agora.domain import Agreement, JobParams, Phase
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


# -- pairing --

# The panel size and its peer pairs, each peer's pair as `pair_of` gives it.
PAIRS = {
    "two pairs": (5, [(2, 3), (4, 5)]),
    "a lone peer": (4, [(2, 3), (4,)]),
    "two pairs and a lone peer": (6, [(2, 3), (4, 5), (6,)]),
    "the smallest panel": (3, [(2, 3)]),
}


@pytest.mark.parametrize("n, pairs", PAIRS.values(), ids=list(PAIRS))
def test_peer_pairs_and_pair_of(n, pairs):
    assert peer_pairs(n) == pairs
    assert [pair_of(n, agent) for pair in pairs for agent in pair] == [pair for pair in pairs for _ in pair]


# -- schedules --

I, F, C = Phase.IMPROVE, Phase.FEEDBACK, Phase.CENTRAL_SYNTHESIS

# The paradigm, the panel size and `debate_exchanges`, and one turn's steps.
SCHEDULES = {
    "memory": (ParadigmKind.MEMORY, 3, 2, [(1, I), (2, I), (3, I)]),
    "relay": (ParadigmKind.RELAY, 2, 2, [(1, I), (2, I)]),
    "report": (ParadigmKind.REPORT, 4, 2, [(2, I), (3, I), (4, I), (1, C)]),
    "debate 3 agents 2 exchanges": (ParadigmKind.DEBATE, 3, 2, [(2, F), (3, F), (1, C)]),
    "debate 3 agents 3 exchanges": (ParadigmKind.DEBATE, 3, 3, [(2, F), (3, F), (2, F), (1, C)]),
    "debate two pairs": (ParadigmKind.DEBATE, 5, 3, [(2, F), (3, F), (2, F), (4, F), (5, F), (4, F), (1, C)]),
    "debate lone peer 2 exchanges": (ParadigmKind.DEBATE, 4, 2, [(2, F), (3, F), (4, F), (1, C)]),
    "debate lone peer 3 exchanges": (ParadigmKind.DEBATE, 4, 3, [(2, F), (3, F), (2, F), (4, F), (4, F), (1, C)]),
}


@pytest.mark.parametrize("kind, n, exchanges, steps", SCHEDULES.values(), ids=list(SCHEDULES))
def test_schedule(kind, n, exchanges, steps):
    assert schedule(kind, n, exchanges) == steps


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

D, X = Phase.DRAFT, Phase.EXTRACTION
DEBATE_TURN_1 = [(1, 2, D, "t1 p2"), (1, 3, F, "t1 p3"), (1, 4, F, "t1 p4"), (1, 5, F, "t1 p5"), (1, 1, C, "t1 central")]

# The paradigm, the panel size, the messages added as (turn, agent, phase,
# text), the turns completed, the step, and the texts it sees.
VISIBLE = {
    "memory sees the debate messages": (
        "memory", 3, [(1, 1, D, "draft"), (1, 2, I, "improve [DISAGREE]"), (1, 1, X, "1")], 0, (3, I), ["draft", "improve [DISAGREE]"]
    ),
    "relay sees the last message": ("relay", 2, [(1, 1, D, "first"), (1, 2, I, "second")], 0, (1, I), ["second"]),
    "relay before any message": ("relay", 2, [], 0, (1, I), []),
    "a report peer sees its own and the syntheses": (
        "report", 3, [(1, 2, D, "peer2 draft"), (1, 3, I, "peer3 improve"), (1, 1, C, "central view")], 0, (2, I),
        ["peer2 draft", "central view"],
    ),
    "a debate peer sees its pair's current turn and the syntheses": (
        "debate", 5, DEBATE_TURN_1 + [(2, 2, F, "t2 p2")], 1, (3, F), ["t1 central", "t2 p2"]
    ),
    "a debate peer never sees the other pair": ("debate", 5, [(1, 2, D, "t1 p2")], 0, (4, F), []),
    "a debate synthesis sees the whole discussion": (
        "debate", 5, DEBATE_TURN_1[:4], 0, (1, C), ["t1 p2", "t1 p3", "t1 p4", "t1 p5"]
    ),
}


@pytest.mark.parametrize("case", VISIBLE)
def test_visible_messages(case):
    paradigm, n, added, turns, step, texts = VISIBLE[case]
    state = make_state(n, discussion_paradigm=paradigm)
    for turn, agent, phase, text in added:
        state.add(turn, agent, phase, text, 0)
    state.turn = turns
    assert [m.text for m in visible_messages(state, TurnStep(*step))] == texts


# -- prompt rendering --


def test_first_step_prompt_is_system_only():
    ((role, text),) = render_step_prompt(make_state(2), TurnStep(1, Phase.IMPROVE))
    assert role == "system"
    assert "Nobody proposed a solution yet." in text


def test_step_prompt_with_draft_adds_user_turn():
    state = make_state(2)
    state.add(1, 1, Phase.DRAFT, "drafted answer", 0)
    step = TurnStep(2, Phase.IMPROVE)
    messages = render_step_prompt(state, step)
    assert [role for role, _ in messages] == ["system", "user"]
    assert "drafted answer" in messages[0][1]
    assert "Participant 1" in messages[0][1]


def test_step_prompt_honors_generator_choice():
    state = make_state(2, response_generator="simple")
    state.add(1, 1, Phase.DRAFT, "d", 0)
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
    assert state.agreeing == {2, 3}


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
    assert state.agreeing == {CENTRAL_AGENT_ID}


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
