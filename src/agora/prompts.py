"""Prompt catalog: template loading and slot rendering.

Template bodies live in agora/templates/*.txt and are treated as frozen text;
renderers only fill named slots and assemble repeated blocks.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources
from string import Template
from typing import Optional

from .domain import Persona, Phase


@lru_cache(maxsize=None)
def template_text(name: str) -> str:
    """Raw template body; the file's single trailing newline is not part of it."""
    text = resources.files("agora.templates").joinpath(f"{name}.txt").read_text("utf-8")
    return text[:-1] if text.endswith("\n") else text


def format_role(persona: Persona) -> str:
    # No dangling "()" for personas without a description (the neutral panel).
    if persona.description:
        return f"{persona.name} ({persona.description})"
    return persona.name


def render_memory(entries: list[tuple[str, str]]) -> str:
    """Visible discussion history as one 'Speaker: text' line block per message."""
    return "\n".join(f"{name}: {text}" for name, text in entries)


def render_solutions_block(candidates: list[str]) -> str:
    return "\n".join(
        f"Solution {i}: {text}" for i, text in enumerate(candidates, start=1)
    )


def render_discussion_system(
    persona: Persona,
    task_text: str,
    input_text: str,
    context_text: Optional[str] = None,
    draft_text: Optional[str] = None,
    memory_text: str = "",
) -> str:
    lines = template_text("discussion_system").split("\n")
    if context_text is None:
        lines = [line for line in lines if not line.startswith("Context:")]
    if draft_text is None:
        # Opening message of a debate: the draft and memory lines give way to
        # the request for a first proposal.
        lines = lines[:-2] + [template_text("first_draft")]
    return Template("\n".join(lines)).substitute(
        role=format_role(persona),
        task=task_text,
        input=input_text,
        context=context_text if context_text is not None else "",
        solution=draft_text,
        memory=memory_text,
    )


# The values of `response_generator`; each step's turn prompt is <generator>_<suffix>.txt.
RESPONSE_GENERATORS = ("simple", "critical", "reasoning")
_TURN_PROMPTS = {Phase.IMPROVE: "improve", Phase.FEEDBACK: "feedback", Phase.CENTRAL_SYNTHESIS: "revise"}


def render_turn_user_prompt(generator: str, phase: Phase) -> str:
    return template_text(f"{generator}_{_TURN_PROMPTS[phase]}")


def render_vote_user(
    protocol: str,
    task_text: str,
    question_text: str,
    candidates: list[str],
    points: int = 10,
) -> str:
    # simple_voting -> vote_simple.txt, and so on for each voting protocol.
    return Template(template_text("vote_" + protocol.removesuffix("_voting"))).substitute(
        task=task_text,
        question=question_text,
        solutions=render_solutions_block(candidates),
        points=points,
    )


def render_judge_user(task_text: str, question_text: str, candidates: list[str]) -> str:
    return Template(template_text("judge")).substitute(
        task=task_text,
        question=question_text,
        solutions=render_solutions_block(candidates),
    )


def render_extraction_user(task_text: str, input_text: str, previous: str) -> str:
    return Template(template_text("extraction")).substitute(
        task=task_text, input=input_text, previous=previous
    )


def render_role_system(persona: Persona) -> str:
    return Template(template_text("role_system")).substitute(role=format_role(persona))


def render_cot_system(task_text: str, input_text: str) -> str:
    return Template(template_text("cot_system")).substitute(
        task=task_text, input=input_text
    )


def cot_user_text() -> str:
    return template_text("cot_user")


def render_expert_system() -> str:
    return template_text("expert_system")


def render_expert_user(task_text: str) -> str:
    return Template(template_text("expert_user")).substitute(task=task_text)


def render_characteristics(trait_options: dict[str, list[str]]) -> str:
    return "\n".join(
        f"{trait}: one of [{', '.join(options)}]"
        for trait, options in trait_options.items()
    )


def render_ipip_system(trait_options: dict[str, list[str]]) -> str:
    return Template(template_text("ipip_system")).substitute(
        characteristics=render_characteristics(trait_options)
    )


def render_ipip_user(task_text: str) -> str:
    return Template(template_text("ipip_user")).substitute(task=task_text)


def multiple_choice_footer() -> str:
    return template_text("mc_footer")
