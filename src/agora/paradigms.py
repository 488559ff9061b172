"""Discussion paradigms: speaker schedules, visibility rules, turn execution."""

from __future__ import annotations

import math
from typing import NamedTuple

from . import prompts
from .domain import (
    AgentProfile,
    DebateEnded,
    DebateState,
    Message,
    ParadigmKind,
    Phase,
)
from .gateway import Backend, call


class PanelTooSmall(Exception):
    pass


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
    for pair in peer_pairs(n_agents):
        if agent_id in pair:
            return pair
    raise ValueError(f"agent {agent_id} is not a paired peer")


def schedule(kind: ParadigmKind, n_agents: int, debate_exchanges: int) -> list[TurnStep]:
    """Speaker order for one turn; identical for every turn of a debate, so pairs stay fixed."""
    if kind in (ParadigmKind.MEMORY, ParadigmKind.RELAY):
        if n_agents < 2:
            raise PanelTooSmall(f"{kind.value} needs at least 2 agents")
        return [TurnStep(speaker, Phase.IMPROVE) for speaker in range(1, n_agents + 1)]
    if n_agents < 3:
        raise PanelTooSmall(f"{kind.value} needs a central agent plus at least 2 peers")
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


def _profile(state: DebateState, agent_id: int) -> AgentProfile:
    for profile in state.panel:
        if profile.agent_id == agent_id:
            return profile
    raise ValueError(f"no panel agent {agent_id}")


def render_step_prompt(state: DebateState, step: TurnStep) -> list[tuple[str, str]]:
    """Message list for one step's completion call."""
    profile = _profile(state, step.speaker)
    visible = visible_messages(state, step)
    memory_text = prompts.render_memory(
        [(_profile(state, m.agent_id).persona.name, m.text) for m in visible]
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


def run_turn(state: DebateState, backend: Backend) -> DebateState:
    if state.ended:
        raise DebateEnded("debate already ended")
    if state.turn >= state.params.max_turns:
        raise ValueError("turn cap reached; the decision protocol must settle it")
    turn_no = state.turn + 1
    kind = ParadigmKind(state.params.discussion_paradigm)
    for step in schedule(kind, len(state.panel), state.params.debate_exchanges):
        phase = step.phase if state.current_draft is not None else Phase.DRAFT
        resp = call(backend, phase, step.speaker, render_step_prompt(state, step))
        state.add(turn_no, step.speaker, phase, resp.text, resp.latency_ms)
    state.turn = turn_no
    return state
