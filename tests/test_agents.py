"""Persona generation and answer extraction."""

from __future__ import annotations

import json

import pytest

from agora.agents import (
    TRAIT_NAMES,
    TRAIT_OPTIONS,
    PersonaParseFailure,
    PersonaUniquenessFailure,
    TraitOutOfRange,
    build_panel,
    extract_final_answer_response,
    extract_json_object,
    generate_expert_persona,
    generate_ipip_persona,
    neutral_panel,
)
from agora.domain import AgentProfile, Persona
from agora.gateway import ChatResponse
from agora.prompts import render_extraction_user
from recording import replay


def expert_json(role: str, description: str = "desc") -> str:
    return json.dumps({"role": role, "description": description})


def ipip_json(role: str, *levels: str) -> str:
    traits = dict(zip(TRAIT_NAMES, levels))
    return json.dumps({"role": role, "traits": traits})


# -- neutral panel --


def test_neutral_panel_names():
    panel = neutral_panel(3)
    assert [p.name for p in panel] == ["Participant 1", "Participant 2", "Participant 3"]
    assert all(p.description == "" for p in panel)


# -- JSON span extraction --


def test_extract_json_object_plain():
    assert extract_json_object('{"a": 1}') == {"a": 1}


def test_extract_json_object_tolerates_fences_and_prose():
    text = 'Sure! Here it is:\n```json\n{"role": "Chemist", "description": "x"}\n```\nDone.'
    assert extract_json_object(text) == {"role": "Chemist", "description": "x"}


def test_extract_json_object_spans_first_to_last_brace():
    text = '{"outer": {"inner": 2}}'
    assert extract_json_object(text) == {"outer": {"inner": 2}}


def test_extract_json_object_requires_braces():
    with pytest.raises(ValueError):
        extract_json_object("no json here")


def test_extract_json_object_rejects_non_object():
    with pytest.raises(ValueError):
        extract_json_object("[1, 2, 3]")


# -- expert personas --


def test_expert_persona_happy_path():
    backend = replay([expert_json("  Economist ", " Knows markets. ")])
    persona, raw = generate_expert_persona("task", [], backend)
    assert persona.name == "Economist"
    assert persona.description == "Knows markets."
    # raw is the untouched response text, not the cleaned persona
    assert json.loads(raw)["role"] == "  Economist "


def test_expert_persona_prompt_layout():
    existing = [Persona(name="Chemist", description="Labs.")]
    backend = replay([expert_json("Biologist")])
    generate_expert_persona("classify cells", existing, backend)
    (req,) = backend.requests
    assert (req.kind, req.agent) == ("persona", 2)  # the panel's second agent
    roles = [m.role for m in req.messages]
    assert roles == ["system", "assistant", "user"]
    echoed = json.loads(req.messages[1].content)
    assert echoed == {"role": "Chemist", "description": "Labs."}
    assert "classify cells" in req.messages[2].content


def test_expert_persona_retries_malformed_then_succeeds():
    backend = replay(["not json", '{"role": " ", "description": "d"}', expert_json("Judge")])
    persona, _ = generate_expert_persona("t", [], backend)
    assert persona.name == "Judge"
    assert [(r.kind, r.agent) for r in backend.requests] == [("persona", 1)] * 3


def test_expert_persona_description_that_is_not_a_string_is_retried():
    backend = replay([json.dumps({"role": "Counter", "description": 5}), expert_json("Judge")])
    persona, _ = generate_expert_persona("t", [], backend)
    assert persona.name == "Judge"
    assert len(backend.requests) == 2


def test_expert_persona_three_parse_failures_raise():
    backend = replay(["x", "y", "z"])
    with pytest.raises(PersonaParseFailure):
        generate_expert_persona("t", [], backend)


def test_expert_persona_duplicate_names_raise_after_three():
    existing = [Persona(name="Chemist")]
    backend = replay([expert_json("chemist"), expert_json("CHEMIST"), expert_json("Chemist ")])
    with pytest.raises(PersonaUniquenessFailure):
        generate_expert_persona("t", existing, backend)


def test_expert_persona_duplicate_then_fresh_name():
    existing = [Persona(name="Chemist")]
    backend = replay([expert_json("Chemist"), expert_json("Physicist")])
    persona, _ = generate_expert_persona("t", existing, backend)
    assert persona.name == "Physicist"


# -- IPIP personas --


def test_ipip_persona_happy_path():
    backend = replay([ipip_json("Optimist", "high", "very high", "average", "low", "high")])
    persona, raw = generate_ipip_persona("t", [], backend)
    assert persona.name == "Optimist"
    assert persona.traits == {
        "Extraversion": "high",
        "Agreeableness": "very high",
        "Conscientiousness": "average",
        "Neuroticism": "low",
        "Openness": "high",
    }
    assert persona.description == (
        "Extraversion: high; Agreeableness: very high; Conscientiousness: average; "
        "Neuroticism: low; Openness: high"
    )
    assert json.loads(raw)["role"] == "Optimist"


def test_ipip_persona_missing_trait_counts_as_parse_failure():
    bad = json.dumps({"role": "X", "traits": {"Extraversion": "high"}})
    good = ipip_json("Y", "low", "low", "low", "low", "low")
    backend = replay([bad, good])
    persona, _ = generate_ipip_persona("t", [], backend)
    assert persona.name == "Y"


def test_ipip_persona_traits_that_are_not_an_object_are_retried():
    bad = json.dumps({"role": "X", "traits": list(TRAIT_OPTIONS)})
    backend = replay([bad, ipip_json("Y", "low", "low", "low", "low", "low")])
    persona, _ = generate_ipip_persona("t", [], backend)
    assert persona.name == "Y"
    assert len(backend.requests) == 2


def test_ipip_persona_trait_out_of_range_is_immediate():
    backend = replay([ipip_json("X", "extreme", "low", "low", "low", "low")])
    with pytest.raises(TraitOutOfRange):
        generate_ipip_persona("t", [], backend)
    assert len(backend.requests) == 1


def test_ipip_persona_duplicate_vector_raises_after_three():
    existing = [
        Persona(
            name="A",
            traits={name: "average" for name in TRAIT_NAMES},
        )
    ]
    same = ipip_json("B", "average", "average", "average", "average", "average")
    backend = replay([same, same, same])
    with pytest.raises(PersonaUniquenessFailure):
        generate_ipip_persona("t", existing, backend)


def test_ipip_persona_same_role_different_vector_is_fine():
    existing = [Persona(name="A", traits={name: "average" for name in TRAIT_NAMES})]
    backend = replay([ipip_json("A", "high", "average", "average", "average", "average")])
    persona, _ = generate_ipip_persona("t", existing, backend)
    assert persona.name == "A"


def test_default_trait_options_cover_all_names():
    assert set(TRAIT_OPTIONS) == set(TRAIT_NAMES)
    assert all(len(v) == 5 for v in TRAIT_OPTIONS.values())


# -- panel assembly --


def test_build_panel_none_generator_needs_no_backend():
    profiles = build_panel(3, "none", "t", backend=None)
    assert [p.agent_id for p in profiles] == [1, 2, 3]
    assert [p.persona.name for p in profiles] == [
        "Participant 1",
        "Participant 2",
        "Participant 3",
    ]
    assert profiles[0].to_log() == {"agentId": 1, "name": "Participant 1", "description": ""}
    assert "rawText" not in profiles[0].to_log()


def test_build_panel_expert_passes_prior_personas():
    backend = replay([expert_json("Chemist"), expert_json("Physicist")])
    profiles = build_panel(2, "expert", "t", backend)
    assert [p.persona.name for p in profiles] == ["Chemist", "Physicist"]
    # Second call saw the first persona as an assistant turn.
    second = backend.requests[1]
    assert [m.role for m in second.messages] == ["system", "assistant", "user"]
    assert profiles[1].to_log()["rawText"] == expert_json("Physicist")


def test_build_panel_ipip():
    backend = replay(
        [
            ipip_json("A", "low", "low", "low", "low", "low"),
            ipip_json("B", "high", "high", "high", "high", "high"),
        ]
    )
    profiles = build_panel(2, "ipip", "t", backend)
    assert [p.persona.name for p in profiles] == ["A", "B"]
    assert profiles[0].to_log()["traits"]["Openness"] == "low"


# -- answer extraction --


def test_extract_final_answer_prompt_and_text():
    backend = replay(["Final solution: B"])
    profile = AgentProfile(2, Persona(name="Mathematician", description="Numbers."))
    text = extract_final_answer_response(
        profile, "task", "input", "I think B because...", backend
    ).text
    assert text == "Final solution: B"
    (req,) = backend.requests
    assert (req.kind, req.agent) == ("extraction", 2)
    assert req.messages[0].role == "system"
    assert "Mathematician" in req.messages[0].content
    assert "I think B because..." in req.messages[1].content


def test_extract_final_answer_response_carries_latency():
    class Slow:
        def complete(self, req):
            return ChatResponse(text="ok", latency_ms=42)

    resp = extract_final_answer_response(AgentProfile(1, Persona(name="P")), "t", "i", "prev", Slow())
    assert resp.latency_ms == 42


def test_extract_final_answer_from_an_empty_previous_reply():
    # Any endpoint can reply with nothing; the agent is still asked for its answer.
    backend = replay(["x"])
    resp = extract_final_answer_response(AgentProfile(1, Persona(name="P")), "t", "i", "", backend)
    assert resp.text == "x"
    (req,) = backend.requests
    assert req.messages[1].content == render_extraction_user("t", "i", "")
