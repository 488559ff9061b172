"""Prompt catalog rendering: slots, assembly rules, frozen wording.

`RENDERINGS` holds each renderer call with its exact text, or with the pieces
the text must hold and must not hold. The rules they pin:

- A template's text drops the file's one trailing newline, and a renderer
  only fills its named slots: no `$slot` is left over.
- A role reads `name (description)`, or the name alone when the description
  is empty. Memory is one `name: text` line per message; solutions are one
  `Solution i: text` line each, counted from 1.
- The discussion system prompt asks for a first proposal while no draft
  stands; then it ends with the current solution and the discussion so far.
  Its `Context:` line is there only when the task has a context.
- Each response generator's improve and feedback prompts offer `[AGREE]` and
  `[DISAGREE]`; its revise prompt, which a central synthesis gets, offers
  neither.
- A cumulative ballot names its points budget in all three places.
"""

from __future__ import annotations

import pytest

from agora.domain import Persona, Phase
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

I, F, C = Phase.IMPROVE, Phase.FEEDBACK, Phase.CENTRAL_SYNTHESIS
MARKERS = (("[AGREE]", "[DISAGREE]"), ())  # (pieces held, pieces not held)
REVISED = (("revised",), ("[AGREE]", "[DISAGREE]"))
DISCUSSION = "You take part in a discussion to solve a task.\n\nYour role: "

# The renderer, its arguments, and its exact text or (pieces held, pieces not held).
RENDERINGS = {
    "template text": (template_text, ("cot_user",), "Let's think step-by-step."),
    "role with a description": (format_role, (Persona("Economist", "knows markets"),), "Economist (knows markets)"),
    "role without a description": (format_role, (Persona("Participant 1"),), "Participant 1"),
    "memory": (render_memory, ([("Ann", "first"), ("Bob", "second")],), "Ann: first\nBob: second"),
    "empty memory": (render_memory, ([],), ""),
    "solutions": (render_solutions_block, (["a", "b"],), "Solution 1: a\nSolution 2: b"),
    "discussion first draft": (
        render_discussion_system, (Persona("Participant 1"), "Add numbers", "2+2"),
        DISCUSSION + "Participant 1\nTask: Add numbers\nInput: 2+2\nNobody proposed a solution yet. Please provide the first one.",
    ),
    "discussion with draft and memory": (
        render_discussion_system, (Persona("Participant 2"), "Add numbers", "2+2", None, "4", "Participant 1: 4"),
        DISCUSSION + "Participant 2\nTask: Add numbers\nInput: 2+2\nCurrent Solution: 4\nDiscussion so far: Participant 1: 4",
    ),
    "discussion with context": (
        render_discussion_system, (Persona("P"), "t", "i", "some context", "d"),
        DISCUSSION + "P\nTask: t\nInput: i\nContext: some context\nCurrent Solution: d\nDiscussion so far: ",
    ),
    "simple improve": (
        render_turn_user_prompt, ("simple", I),
        "Improve the current solution.\nIf you agree with the current solution, answer with [AGREE].\n"
        "Else, answer with [DISAGREE], explain why, and provide an improved solution.\nLet's think step-by-step.",
    ),
    "simple feedback": (render_turn_user_prompt, ("simple", F), MARKERS),
    "simple revise": (render_turn_user_prompt, ("simple", C), REVISED),
    "critical improve": (render_turn_user_prompt, ("critical", I), MARKERS),
    "critical feedback": (render_turn_user_prompt, ("critical", F), MARKERS),
    "critical revise": (render_turn_user_prompt, ("critical", C), REVISED),
    "reasoning improve": (render_turn_user_prompt, ("reasoning", I), MARKERS),
    "reasoning feedback": (render_turn_user_prompt, ("reasoning", F), MARKERS),
    "reasoning revise": (render_turn_user_prompt, ("reasoning", C), REVISED),
    "simple vote": (
        render_vote_user, ("simple_voting", "Pick one", "2+2?", ["4", "5"]),
        "You are tasked with voting for the best solution from the list provided below based on the given task.\n"
        "Task: Pick one\nQuestion: 2+2?\nHere are the possible solutions:\nSolution 1: 4\nSolution 2: 5\n"
        "Based on the above solutions, please provide the number of the solution you are voting for. Answer only with the number.",
    ),
    "cumulative vote": (
        render_vote_user, ("cumulative_voting", "t", "q", ["a"], 25),
        (("distributing 25 points among", "distribute 25 points among", "sum up to 25."), ("$points",)),
    ),
    "ranked vote": (render_vote_user, ("ranked_voting", "t", "q", ["a", "b", "c"]), (("Provide up to 5 rankings.", "'0 2 1'"), ())),
    "approval vote": (render_vote_user, ("approval_voting", "t", "q", ["a", "b"]), (("separated by commas",), ())),
    "judge": (
        render_judge_user, ("t", "q", ["one", "two"]),
        "Task: t\nQuestion: q\nPlease provide a decision on the following solutions and combine them in a single answer "
        "to solve the task. Only answer with the solution:\nSolution 1: one\nSolution 2: two",
    ),
    "extraction": (
        render_extraction_user, ("t", "i", "my previous words"),
        (("Your previous response: my previous words", "Do not modify the text."), ()),
    ),
    "role system": (render_role_system, (Persona("Judge"),), "Your role: Judge"),
    "cot system": (
        render_cot_system, ("t", "i"),
        "Solve the provided task. Do not ask back questions. "
        "Clearly indicate your final solution after the text 'Final Solution:'.\n\nTask: t\nInput: i",
    ),
    "cot user": (cot_user_text, (), "Let's think step-by-step."),
    "expert system": (
        render_expert_system, (),
        (('Example 1: {"role":', 'Example 2: {"role":', 'Example 3: {"role":', "Generate one participant at a time"), ("Example 4",)),
    ),
    "expert user": (render_expert_user, ("solve it",), (("Task: solve it.",), ())),
    "characteristics": (render_characteristics, ({"Openness": ["low", "high"]},), "Openness: one of [low, high]"),
    "ipip system": (render_ipip_system, ({"Openness": ["low", "high"]},), (("Openness: one of [low, high]",), ("$characteristics",))),
    "ipip user": (render_ipip_user, ("solve it",), (("unique",), ())),
    "multiple choice footer": (
        multiple_choice_footer, (), "Make absolutely sure to provide your solution in the end: 'FINAL SOLUTION: <Letter>'."
    ),
}


@pytest.mark.parametrize("case", RENDERINGS)
def test_rendering(case):
    render, args, expected = RENDERINGS[case]
    text = render(*args)
    if isinstance(expected, str):
        assert text == expected
    else:
        held, not_held = expected
        assert ([piece for piece in held if piece not in text], [piece for piece in not_held if piece in text]) == ([], [])
