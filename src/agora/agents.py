"""Agent panels: persona generation and per-agent parse helpers."""

from __future__ import annotations

import json
from typing import Any, Callable, Optional

from . import prompts
from .domain import AgentProfile, CallKind, Persona, Phase
from .gateway import Backend, call


class PersonaParseFailure(Exception):
    pass


class PersonaUniquenessFailure(Exception):
    pass


class TraitOutOfRange(Exception):
    pass


TRAIT_NAMES = (
    "Extraversion",
    "Agreeableness",
    "Conscientiousness",
    "Neuroticism",
    "Openness",
)

# The option scale every IPIP trait is chosen from.
TRAIT_OPTIONS: dict[str, list[str]] = {
    name: ["very low", "low", "average", "high", "very high"] for name in TRAIT_NAMES
}

# Three tries each before giving up on malformed or colliding personas.
MAX_PARSE_ATTEMPTS = 3
MAX_DUPLICATE_ATTEMPTS = 3


def neutral_panel(n: int) -> list[Persona]:
    return [Persona(name=f"Participant {i}") for i in range(1, n + 1)]


def extract_json_object(text: str) -> dict:
    """First {...} span in the text parsed as an object; fences tolerated.
    A span that is no JSON object, or nests deeper than the parser recurses,
    raises ValueError."""
    start = text.find("{")
    end = text.rfind("}")
    try:
        obj = json.loads(text[start : end + 1])  # with no {...} span, "" or "}": json refuses both
    except RecursionError:
        raise ValueError("JSON object nested too deep") from None
    return obj


def _generate_persona(
    messages: list[tuple[str, str]],
    backend: Backend,
    parse: Callable[[dict], Persona],
    identity: Callable[[Persona], Any],
    existing: list[Persona],
    duplicate_noun: str,
) -> tuple[Persona, str]:
    """Complete, parse and retry until a persona whose identity is new comes back.

    `parse` raises ValueError or KeyError on a malformed object; those
    responses and the duplicates are retried a bounded number of times.
    """
    taken = {identity(p) for p in existing}
    parse_failures = 0
    duplicates = 0
    while True:
        resp = call(backend, CallKind.PERSONA, len(existing) + 1, messages)
        try:
            persona = parse(extract_json_object(resp.text))
        except (ValueError, KeyError):
            parse_failures += 1
            if parse_failures >= MAX_PARSE_ATTEMPTS:
                raise PersonaParseFailure(
                    f"{parse_failures} malformed persona responses, last: {resp.text[:120]!r}"
                )
            continue
        if identity(persona) in taken:
            duplicates += 1
            if duplicates >= MAX_DUPLICATE_ATTEMPTS:
                raise PersonaUniquenessFailure(
                    f"{duplicates} duplicate {duplicate_noun} for role {persona.name!r}"
                )
            continue
        return persona, resp.text


def _role(obj: dict) -> str:
    role = obj["role"]
    if not isinstance(role, str) or not role.strip():
        raise ValueError("empty role")
    return role.strip()


def generate_expert_persona(
    task_text: str, existing: list[Persona], backend: Backend
) -> tuple[Persona, str]:
    """One persona complementing `existing`; returns it with the raw response."""
    messages = [("system", prompts.render_expert_system())]
    # Prior acceptances ride along as assistant turns so the model sees what
    # it already produced and diversifies.
    for persona in existing:
        messages.append(
            ("assistant", json.dumps({"role": persona.name, "description": persona.description}))
        )
    messages.append(("user", prompts.render_expert_user(task_text)))

    def parse(obj: dict) -> Persona:
        role, description = _role(obj), obj["description"]
        if not isinstance(description, str):
            raise ValueError("description is not a string")
        return Persona(name=role, description=description.strip())

    def name(persona: Persona) -> str:
        return persona.name.strip().lower()

    return _generate_persona(messages, backend, parse, name, existing, "personas")


def generate_ipip_persona(
    task_text: str, existing: list[Persona], backend: Backend
) -> tuple[Persona, str]:
    """One persona whose trait vector differs from every one in `existing`."""
    messages = [("system", prompts.render_ipip_system(TRAIT_OPTIONS))]
    for persona in existing:
        messages.append(
            ("assistant", json.dumps({"role": persona.name, "traits": persona.traits or {}}))
        )
    messages.append(("user", prompts.render_ipip_user(task_text)))

    def parse(obj: dict) -> Persona:
        role, traits = _role(obj), obj["traits"]
        if not isinstance(traits, dict):
            raise ValueError("traits is not an object")
        missing = [name for name in TRAIT_OPTIONS if name not in traits]
        if missing:
            raise ValueError(f"missing traits {missing}")
        # Off-scale values raise at once; only malformed objects are retried.
        for name, options in TRAIT_OPTIONS.items():
            if traits[name] not in options:
                raise TraitOutOfRange(f"{name}={traits[name]!r} not in {options}")
        chosen = {name: traits[name] for name in TRAIT_OPTIONS}
        description = "; ".join(f"{name}: {value}" for name, value in chosen.items())
        return Persona(name=role, description=description, traits=chosen)

    def vector(persona: Persona) -> tuple:
        return tuple((persona.traits or {}).get(name) for name in TRAIT_OPTIONS)

    return _generate_persona(messages, backend, parse, vector, existing, "trait vectors")


# Persona generator name -> function. The lambdas look the functions up when
# called, so a wrapped module attribute is the one used; "none" is the
# neutral panel.
PERSONA_GENERATORS: dict[str, Optional[Callable[..., tuple[Persona, str]]]] = {
    "none": None,
    "expert": lambda *args: generate_expert_persona(*args),
    "ipip": lambda *args: generate_ipip_persona(*args),
}


def build_panel(
    n: int, persona_generator: str, task_text: str, backend: Backend
) -> list[AgentProfile]:
    """Panel of n agents, each with the raw generator response its persona came from."""
    generate = PERSONA_GENERATORS[persona_generator]
    profiles: list[AgentProfile] = []
    for i, persona in enumerate(neutral_panel(n), start=1):
        raw = None
        if generate is not None:
            persona, raw = generate(task_text, [p.persona for p in profiles], backend)
        profiles.append(AgentProfile(i, persona, raw))
    return profiles


def extract_final_answer_response(
    profile: AgentProfile,
    task_text: str,
    input_text: str,
    previous_response: str,
    backend: Backend,
):
    """Full gateway response for an agent's extraction call (text plus latency)."""
    messages = [
        ("system", prompts.render_role_system(profile.persona)),
        ("user", prompts.render_extraction_user(task_text, input_text, previous_response)),
    ]
    return call(backend, Phase.EXTRACTION, profile.agent_id, messages)

