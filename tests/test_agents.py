"""Persona generation, panel assembly and answer extraction.

- The neutral panel names agent i `Participant i`, with no description.
- `JSON_SPANS`: a reply's JSON object is the span from its first `{` to its
  last `}`, so fences and prose around it are ignored; a reply with no such
  span, or whose span is no object, raises ValueError.
- `PERSONA_REPLIES`: a generator asks for a persona, each request labelled
  `persona` with the new agent's id, until a reply parses to a persona that
  is new. An expert persona is a role that is not blank and a string
  description, both stripped, and it is new when no earlier role is the same
  up to case and surrounding space. An IPIP persona is a role that is not
  blank and all five traits, its description listing them in order, and it
  is new when its trait vector is, whatever its role. A malformed reply (a
  missing trait among them) is retried, and the third raises
  `PersonaParseFailure`; a duplicate is retried, and the third raises
  `PersonaUniquenessFailure`; a trait off its scale raises `TraitOutOfRange`
  at once. The generator returns the persona and the accepted reply as sent.
- Earlier personas ride along as assistant turns, in panel order, between the
  system prompt and the user prompt.
- `build_panel` numbers its agents 1..n, each with the reply its persona came
  from; the `none` generator gives the neutral panel and asks for nothing.
- An extraction asks the agent, in its role, for the final answer in its
  previous reply, labelled `extraction` with its id, and returns the reply
  with its latency.
"""

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
from agora.prompts import render_extraction_user, render_ipip_system, render_ipip_user
from recording import REPLAY_LATENCY_MS, replay


def expert_json(role: str, description: str = "desc") -> str:
    return json.dumps({"role": role, "description": description})


def ipip_json(role: str, *levels: str) -> str:
    traits = dict(zip(TRAIT_NAMES, levels))
    return json.dumps({"role": role, "traits": traits})


# -- neutral panel --


def test_neutral_panel_names():
    assert neutral_panel(3) == [Persona("Participant 1"), Persona("Participant 2"), Persona("Participant 3")]


# -- JSON span extraction --

# Each reply and the object `extract_json_object` reads from it, or ValueError.
JSON_SPANS = {
    "plain": ('{"a": 1}', {"a": 1}),
    "fences and prose": (
        'Sure! Here it is:\n```json\n{"role": "Chemist", "description": "x"}\n```\nDone.', {"role": "Chemist", "description": "x"}
    ),
    "first to last brace": ('{"outer": {"inner": 2}}', {"outer": {"inner": 2}}),
    "no braces": ("no json here", ValueError),
    "not an object": ("[1, 2, 3]", ValueError),
}


@pytest.mark.parametrize("text, expected", JSON_SPANS.values(), ids=list(JSON_SPANS))
def test_extract_json_object(text, expected):
    if expected is ValueError:
        with pytest.raises(ValueError):
            extract_json_object(text)
    else:
        assert extract_json_object(text) == expected


# -- persona generation --

LOW = ipip_json("Y", "low", "low", "low", "low", "low")
ALL_LOW = Persona(
    "Y",
    "Extraversion: low; Agreeableness: low; Conscientiousness: low; Neuroticism: low; Openness: low",
    {"Extraversion": "low", "Agreeableness": "low", "Conscientiousness": "low", "Neuroticism": "low", "Openness": "low"},
)
OPTIMIST = Persona(
    "Optimist",
    "Extraversion: high; Agreeableness: very high; Conscientiousness: average; Neuroticism: low; Openness: high",
    {"Extraversion": "high", "Agreeableness": "very high", "Conscientiousness": "average", "Neuroticism": "low", "Openness": "high"},
)
CHEMIST = [Persona(name="Chemist")]
AVERAGE = [Persona(name="Y", traits={name: "average" for name in TRAIT_NAMES})]

EXPERT, IPIP = generate_expert_persona, generate_ipip_persona

# The generator, the panel's earlier personas, the replies, and the persona
# (or the error raised) and the number of requests made.
PERSONA_REPLIES = {
    "expert": (EXPERT, [], [expert_json("  Economist ", " Knows markets. ")], Persona("Economist", "Knows markets."), 1),
    "expert retries malformed then succeeds": (
        EXPERT, [], ["not json", '{"role": " ", "description": "d"}', expert_json("Judge")], Persona("Judge", "desc"), 3
    ),
    "expert description that is not a string is retried": (
        EXPERT, [], [json.dumps({"role": "Counter", "description": 5}), expert_json("Judge")], Persona("Judge", "desc"), 2
    ),
    "expert three parse failures": (EXPERT, [], ["x", "y", "z"], PersonaParseFailure, 3),
    "expert three duplicate names": (
        EXPERT, CHEMIST, [expert_json("chemist"), expert_json("CHEMIST"), expert_json("Chemist ")], PersonaUniquenessFailure, 3
    ),
    "expert duplicate then fresh name": (
        EXPERT, CHEMIST, [expert_json("Chemist"), expert_json("Physicist")], Persona("Physicist", "desc"), 2
    ),
    "ipip": (IPIP, [], [ipip_json("Optimist", "high", "very high", "average", "low", "high")], OPTIMIST, 1),
    # Its one trait is off the scale: a reply missing a trait is retried before any value is checked.
    "ipip missing trait counts as parse failure": (
        IPIP, [], [json.dumps({"role": "X", "traits": {"Extraversion": "extreme"}}), LOW], ALL_LOW, 2
    ),
    "ipip traits that are not an object are retried": (
        IPIP, [], [json.dumps({"role": "X", "traits": list(TRAIT_OPTIONS)}), LOW], ALL_LOW, 2
    ),
    "ipip trait out of range is immediate": (
        IPIP, [], [ipip_json("X", "extreme", "low", "low", "low", "low"), LOW], TraitOutOfRange, 1
    ),
    "ipip three duplicate vectors": (
        IPIP, AVERAGE, [ipip_json("B", "average", "average", "average", "average", "average")] * 3, PersonaUniquenessFailure, 3
    ),
    "ipip same role other vector": (IPIP, AVERAGE, [LOW], ALL_LOW, 1),
}


@pytest.mark.parametrize("case", PERSONA_REPLIES)
def test_persona_replies(case):
    generate, existing, replies, expected, requests = PERSONA_REPLIES[case]
    backend = replay(replies)
    if isinstance(expected, Persona):
        # The raw text is the accepted reply, untouched.
        assert generate("t", existing, backend) == (expected, replies[requests - 1])
    else:
        with pytest.raises(expected):
            generate("t", existing, backend)
    assert [(r.kind, r.agent) for r in backend.requests] == [("persona", len(existing) + 1)] * requests


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


def test_ipip_persona_prompt_layout():
    # Earlier personas ride along as assistant turns, in panel order, then the user turn.
    existing = [Persona(name="A", traits={name: "low" for name in TRAIT_NAMES}), Persona(name="B")]
    backend = replay([ipip_json("C", "high", "high", "high", "high", "high")])
    generate_ipip_persona("classify cells", existing, backend)
    (req,) = backend.requests
    assert (req.kind, req.agent) == ("persona", 3)
    assert [(m.role, m.content) for m in req.messages] == [
        ("system", render_ipip_system(TRAIT_OPTIONS)),
        ("assistant", json.dumps({"role": "A", "traits": {name: "low" for name in TRAIT_NAMES}})),
        ("assistant", json.dumps({"role": "B", "traits": {}})),
        ("user", render_ipip_user("classify cells")),
    ]


def test_default_trait_options_cover_all_names():
    assert set(TRAIT_OPTIONS) == set(TRAIT_NAMES)
    assert all(len(v) == 5 for v in TRAIT_OPTIONS.values())


# -- panel assembly --


def test_build_panel_none_generator_needs_no_backend():
    profiles = build_panel(3, "none", "t", backend=None)
    assert [p.to_log() for p in profiles] == [{"agentId": i, "name": f"Participant {i}", "description": ""} for i in (1, 2, 3)]


def test_build_panel_expert_passes_prior_personas():
    backend = replay([expert_json("Chemist"), expert_json("Physicist")])
    profiles = build_panel(2, "expert", "t", backend)
    assert [p.persona.name for p in profiles] == ["Chemist", "Physicist"]
    # Second call saw the first persona as an assistant turn.
    second = backend.requests[1]
    assert [m.role for m in second.messages] == ["system", "assistant", "user"]
    assert profiles[1].to_log()["rawText"] == expert_json("Physicist")


def test_build_panel_ipip():
    backend = replay([ipip_json("A", "low", "low", "low", "low", "low"), ipip_json("B", "high", "high", "high", "high", "high")])
    profiles = build_panel(2, "ipip", "t", backend)
    assert [p.persona.name for p in profiles] == ["A", "B"]
    assert profiles[0].to_log()["traits"]["Openness"] == "low"


# -- answer extraction --


def test_extract_final_answer_prompt_and_text():
    backend = replay(["Final solution: B"])
    profile = AgentProfile(2, Persona(name="Mathematician", description="Numbers."))
    text = extract_final_answer_response(profile, "task", "input", "I think B because...", backend).text
    assert text == "Final solution: B"
    (req,) = backend.requests
    assert (req.kind, req.agent) == ("extraction", 2)
    assert req.messages[0].role == "system"
    assert "Mathematician" in req.messages[0].content
    assert "I think B because..." in req.messages[1].content


def test_extract_final_answer_response_carries_latency():
    resp = extract_final_answer_response(AgentProfile(1, Persona(name="P")), "t", "i", "prev", replay(["ok"]))
    assert resp.latency_ms == REPLAY_LATENCY_MS


def test_extract_final_answer_from_an_empty_previous_reply():
    # Any endpoint can reply with nothing; the agent is still asked for its answer.
    backend = replay(["x"])
    resp = extract_final_answer_response(AgentProfile(1, Persona(name="P")), "t", "i", "", backend)
    assert resp.text == "x"
    (req,) = backend.requests
    assert req.messages[1].content == render_extraction_user("t", "i", "")
