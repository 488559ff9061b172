"""Prompt catalog rendering: slots, assembly rules, frozen wording."""

from __future__ import annotations

import pytest

from agora.domain import Persona, Phase, ResponseGeneratorKind
from agora.prompts import (
    cot_user_text,
    format_role,
    multiple_choice_footer,
    render_characteristics,
    render_cot_system,
    render_discussion_system,
    render_extraction_user,
    render_expert_system,
    render_expert_user,
    render_ipip_system,
    render_ipip_user,
    render_judge_user,
    render_memory,
    render_role_system,
    render_solutions_block,
    render_turn_user_prompt,
    render_vote_user,
    template_text,
)

GENERATORS = [kind.value for kind in ResponseGeneratorKind]
# The discussion steps that send a turn prompt.
PHASES = [Phase.IMPROVE, Phase.FEEDBACK, Phase.CENTRAL_SYNTHESIS]


def test_template_text_drops_single_trailing_newline():
    assert template_text("cot_user") == "Let's think step-by-step."


def test_format_role_with_and_without_description():
    assert format_role(Persona("Economist", "knows markets")) == "Economist (knows markets)"
    assert format_role(Persona("Participant 1")) == "Participant 1"


def test_memory_block_lines():
    entries = [("Ann", "first"), ("Bob", "second")]
    assert render_memory(entries) == "Ann: first\nBob: second"
    assert render_memory([]) == ""


def test_solutions_block_is_one_based():
    assert render_solutions_block(["a", "b"]) == "Solution 1: a\nSolution 2: b"


def test_discussion_system_first_draft_form():
    text = render_discussion_system(Persona("Participant 1"), "Add numbers", "2+2")
    assert text == (
        "You take part in a discussion to solve a task.\n"
        "\n"
        "Your role: Participant 1\n"
        "Task: Add numbers\n"
        "Input: 2+2\n"
        "Nobody proposed a solution yet. Please provide the first one."
    )


def test_discussion_system_with_draft_and_memory():
    text = render_discussion_system(
        Persona("Participant 2"),
        "Add numbers",
        "2+2",
        context_text=None,
        draft_text="4",
        memory_text="Participant 1: 4",
    )
    assert text.endswith(
        "Current Solution: 4\nDiscussion so far: Participant 1: 4"
    )
    assert "Context:" not in text


def test_discussion_system_context_line_only_when_present():
    text = render_discussion_system(
        Persona("P"), "t", "i", context_text="some context", draft_text="d"
    )
    assert "Context: some context\n" in text


def test_all_turn_prompts_render():
    for generator in GENERATORS:
        for phase in PHASES:
            text = render_turn_user_prompt(generator, phase)
            assert text.strip()


@pytest.mark.parametrize("generator", GENERATORS)
def test_improve_and_feedback_offer_agreement_markers(generator):
    for phase in (Phase.IMPROVE, Phase.FEEDBACK):
        text = render_turn_user_prompt(generator, phase)
        assert "[AGREE]" in text
        assert "[DISAGREE]" in text


@pytest.mark.parametrize("generator", GENERATORS)
def test_revise_prompts_have_no_markers(generator):
    text = render_turn_user_prompt(generator, Phase.CENTRAL_SYNTHESIS)
    assert "[AGREE]" not in text


def test_simple_improve_wording():
    assert render_turn_user_prompt("simple", Phase.IMPROVE) == (
        "Improve the current solution.\n"
        "If you agree with the current solution, answer with [AGREE].\n"
        "Else, answer with [DISAGREE], explain why, and provide an improved solution.\n"
        "Let's think step-by-step."
    )


def test_vote_simple_rendering():
    text = render_vote_user("simple_voting", "Pick one", "2+2?", ["4", "5"])
    assert "Task: Pick one" in text
    assert "Question: 2+2?" in text
    assert "Solution 1: 4\nSolution 2: 5" in text
    assert text.endswith("Answer only with the number.")


def test_vote_cumulative_substitutes_points_everywhere():
    text = render_vote_user("cumulative_voting", "t", "q", ["a"], points=25)
    assert text.count("25 points") == 2
    assert "sum up to 25." in text
    assert "$points" not in text


def test_vote_ranked_keeps_cap_wording():
    text = render_vote_user("ranked_voting", "t", "q", ["a", "b", "c"])
    assert "Provide up to 5 rankings." in text
    assert "'0 2 1'" in text


def test_vote_approval_asks_for_numbers():
    text = render_vote_user("approval_voting", "t", "q", ["a", "b"])
    assert "separated by commas" in text


def test_judge_prompt():
    text = render_judge_user("t", "q", ["one", "two"])
    assert text.startswith("Task: t\nQuestion: q\n")
    assert "Only answer with the solution:" in text
    assert text.endswith("Solution 1: one\nSolution 2: two")


def test_extraction_prompt_slots():
    text = render_extraction_user("t", "i", "my previous words")
    assert "Your previous response: my previous words" in text
    assert "Do not modify the text." in text


def test_role_system():
    assert render_role_system(Persona("Judge")) == "Your role: Judge"


def test_cot_prompts():
    assert render_cot_system("t", "i") == (
        "Solve the provided task. Do not ask back questions. "
        "Clearly indicate your final solution after the text 'Final Solution:'.\n"
        "\n"
        "Task: t\n"
        "Input: i"
    )
    assert cot_user_text() == "Let's think step-by-step."


def test_expert_prompts():
    system = render_expert_system()
    assert system.count('{"role":') == 3
    assert "Generate one participant at a time" in system
    user = render_expert_user("solve it")
    assert "Task: solve it." in user


def test_characteristics_lines():
    text = render_characteristics({"Openness": ["low", "high"]})
    assert text == "Openness: one of [low, high]"


def test_ipip_prompts():
    system = render_ipip_system({"Openness": ["low", "high"]})
    assert "Openness: one of [low, high]" in system
    assert "$characteristics" not in system
    user = render_ipip_user("solve it")
    assert "unique" in user


def test_multiple_choice_footer():
    assert multiple_choice_footer() == (
        "Make absolutely sure to provide your solution in the end: "
        "'FINAL SOLUTION: <Letter>'."
    )
