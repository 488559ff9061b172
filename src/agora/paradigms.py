"""Discussion paradigms: speaker schedules, visibility rules, turn execution."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import prompts
from .agents import parse_agreement
from .domain import (
    AgentProfile,
    DebateEnded,
    DebateState,
    JobParams,
    Message,
    ParadigmKind,
    Phase,
    ResponseGeneratorKind,
)
from .gateway import Backend, chat_request


class PanelTooSmall(Exception):
    pass


@dataclass(frozen=True)
class TurnStep:
    speaker: int
    phase: Phase


@dataclass(frozen=True)
class DebateContext:
    """One debate's job parameters plus the sample texts its prompts carry."""

    params: JobParams
    task_text: str
    input_text: str
    context_text: Optional[str] = None


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


def schedule(kind: ParadigmKind, n_agents: int, debate_exchanges: int = 2) -> list[TurnStep]:
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


def visible_messages(
    kind: ParadigmKind, state: DebateState, step: TurnStep
) -> list[Message]:
    """Messages the speaker may see; only debate phases ever qualify.

    Memory speakers and every central synthesis see the whole discussion,
    a relay speaker the last message, a report peer its own messages and
    the syntheses, a debate peer its pair's current turn and the syntheses.
    """
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


_STEP_PROMPTS = {
    Phase.IMPROVE: prompts.TurnPrompt.IMPROVE,
    Phase.FEEDBACK: prompts.TurnPrompt.FEEDBACK,
    Phase.CENTRAL_SYNTHESIS: prompts.TurnPrompt.REVISE,
}


def render_step_prompt(
    state: DebateState, step: TurnStep, ctx: DebateContext
) -> list[tuple[str, str]]:
    """Message list for one step's completion call."""
    profile = _profile(state, step.speaker)
    visible = visible_messages(ParadigmKind(ctx.params.discussion_paradigm), state, step)
    memory_text = prompts.render_memory(
        [(_profile(state, m.agent_id).persona.name, m.text) for m in visible]
    )
    draft = state.current_draft
    system = prompts.render_discussion_system(
        profile.persona,
        ctx.task_text,
        ctx.input_text,
        ctx.context_text,
        draft,
        memory_text,
    )
    if draft is None:
        # First proposal: the system prompt carries the whole instruction.
        return [("system", system)]
    user = prompts.render_turn_user_prompt(
        ResponseGeneratorKind(ctx.params.response_generator), _STEP_PROMPTS[step.phase]
    )
    return [("system", system), ("user", user)]


def run_turn(state: DebateState, backend: Backend, ctx: DebateContext) -> DebateState:
    if state.ended:
        raise DebateEnded("debate already ended")
    if state.turn >= ctx.params.max_turns:
        raise ValueError("turn cap reached; the decision protocol must settle it")
    turn_no = state.turn + 1
    kind = ParadigmKind(ctx.params.discussion_paradigm)
    for step in schedule(kind, len(state.panel), ctx.params.debate_exchanges):
        had_draft = state.current_draft is not None
        messages = render_step_prompt(state, step, ctx)
        resp = backend.complete(chat_request(messages))
        phase = step.phase if had_draft else Phase.DRAFT
        agreement = (
            parse_agreement(resp.text)
            if phase in (Phase.IMPROVE, Phase.FEEDBACK)
            else None
        )
        state.add(turn_no, step.speaker, phase, resp.text, resp.latency_ms, agreement)
    state.turn = turn_no
    return state
