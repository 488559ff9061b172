"""Discussion paradigms: speaker schedules, visibility rules, turn execution."""

from __future__ import annotations

import math
from typing import NamedTuple

from . import prompts
from .domain import (
    DebateState,
    Message,
    ParadigmKind,
    Phase,
)
from .gateway import Backend, call


class TurnStep(NamedTuple):
    speaker: int
    phase: Phase


# Central agent in report/debate; documented so researchers can remap.
CENTRAL_AGENT_ID = 1


def peer_pairs(n_agents: int) -> list[tuple[int, ...]]:
    """Fixed pairs (2,3), (4,5), ... for the whole debate; odd peer stands alone."""
    peers = list(range(CENTRAL_AGENT_ID + 1, n_agents + 1))
    pairs: list[tuple[int, ...]] = [
        (peers[i], peers[i + 1]) for i in range(0, len(peers) - 1, 2)
    ]
    if len(peers) % 2 == 1:
        pairs.append((peers[-1],))
    return pairs


def pair_of(n_agents: int, agent_id: int) -> tuple[int, ...]:
    return next(pair for pair in peer_pairs(n_agents) if agent_id in pair)


def schedule(kind: ParadigmKind, n_agents: int, debate_exchanges: int) -> list[TurnStep]:
    """Speaker order for one turn; identical for every turn of a debate, so pairs stay fixed.
    The panel is large enough: `config._check_runnable` refuses a smaller one."""
    if kind in (ParadigmKind.MEMORY, ParadigmKind.RELAY):
        return [TurnStep(speaker, Phase.IMPROVE) for speaker in range(1, n_agents + 1)]
    if kind is ParadigmKind.REPORT:
        steps = [TurnStep(speaker, Phase.IMPROVE) for speaker in range(2, n_agents + 1)]
    else:
        steps = []
        for pair in peer_pairs(n_agents):
            if len(pair) == 2:
                steps.extend(
                    TurnStep(pair[e % 2], Phase.FEEDBACK)
                    for e in range(debate_exchanges)
                )
            else:
                # Lone peer addresses the central agent with half the exchanges.
                steps.extend(
                    TurnStep(pair[0], Phase.FEEDBACK)
                    for _ in range(math.ceil(debate_exchanges / 2))
                )
    steps.append(TurnStep(CENTRAL_AGENT_ID, Phase.CENTRAL_SYNTHESIS))
    return steps


def visible_messages(state: DebateState, step: TurnStep) -> list[Message]:
    """Messages the speaker may see; only debate phases ever qualify.

    Memory speakers and every central synthesis see the whole discussion,
    a relay speaker the last message, a report peer its own messages and
    the syntheses, a debate peer its pair's current turn and the syntheses.
    """
    kind = ParadigmKind(state.params.discussion_paradigm)
    base = state.debate_messages()
    if kind is ParadigmKind.MEMORY or step.phase is Phase.CENTRAL_SYNTHESIS:
        return base
    if kind is ParadigmKind.RELAY:
        return base[-1:]
    if kind is ParadigmKind.REPORT:
        return [
            m
            for m in base
            if m.agent_id == step.speaker or m.phase is Phase.CENTRAL_SYNTHESIS
        ]
    pair = pair_of(len(state.panel), step.speaker)
    current_turn = state.turn + 1
    return [
        m
        for m in base
        if (m.agent_id in pair and m.turn == current_turn)
        or m.phase is Phase.CENTRAL_SYNTHESIS
    ]


def render_step_prompt(state: DebateState, step: TurnStep) -> list[tuple[str, str]]:
    """Message list for one step's completion call; agent i's profile is `state.panel[i - 1]`."""
    profile = state.panel[step.speaker - 1]
    visible = visible_messages(state, step)
    memory_text = prompts.render_memory(
        [(state.panel[m.agent_id - 1].persona.name, m.text) for m in visible]
    )
    draft = state.current_draft
    system = prompts.render_discussion_system(
        profile.persona,
        state.task_text,
        state.task.input_text(),
        state.task.context_text(),
        draft,
        memory_text,
    )
    if draft is None:
        # First proposal: the system prompt carries the whole instruction.
        return [("system", system)]
    user = prompts.render_turn_user_prompt(state.params.response_generator, step.phase)
    return [("system", system), ("user", user)]


def run_turn(state: DebateState, backend: Backend) -> None:
    """One turn of the schedule; `decisions.decide` runs it only below the turn cap."""
    turn_no = state.turn + 1
    kind = ParadigmKind(state.params.discussion_paradigm)
    for step in schedule(kind, len(state.panel), state.params.debate_exchanges):
        phase = step.phase if state.current_draft is not None else Phase.DRAFT
        resp = call(backend, phase, step.speaker, render_step_prompt(state, step))
        state.add(turn_no, step.speaker, phase, resp.text, resp.latency_ms)
    state.turn = turn_no
