"""Every parser of model text, fed arbitrary replies: each returns, or raises
only its own parse failure, and none takes long on a pathological reply.

The parsers: the agreement marker, the ballot of each voting protocol, the
JSON object extractor, both persona generators through `build_panel`, and the
answer letter. The pinned replies are what a model can send back when it
degenerates: a 100k whitespace run after a FINAL SOLUTION marker, JSON nested
100k deep, far past the parser's recursion limit, a number longer than
`int()` converts, a NUL, a lone surrogate, and Unicode line separators; each
must be done within a second.
"""

from __future__ import annotations

import functools
import json
import time

import pytest
from hypothesis import given, strategies as st

from agora.agents import (
    PersonaParseFailure,
    PersonaUniquenessFailure,
    TraitOutOfRange,
    build_panel,
    extract_json_object,
)
from agora.decisions import VOTING_PROTOCOLS, VoteParseFailure, parse_ballot
from agora.domain import parse_agreement
from agora.evaluation import extract_answer_letter
from conftest import finishes_within
from recording import replay

# The most calls a panel of two makes on one repeated reply: three malformed
# replies end the first agent's, and the second's ends at its third malformed
# or third duplicate reply.
_PANEL_CALLS = 8


def _panel(generator: str, text: str):
    """A two-agent panel from `generator`, every persona call answered with `text`."""
    return build_panel(2, generator, "Solve the task.", replay([text] * _PANEL_CALLS))


# Each parser of model text, as (parse the reply, the failures it may raise).
PARSERS = {
    "parse_agreement": (parse_agreement, ()),
    **{
        f"parse_ballot[{protocol}]": (
            functools.partial(lambda protocol, text: parse_ballot(protocol, text, 3, 10), protocol),
            (VoteParseFailure,),
        )
        for protocol in sorted(VOTING_PROTOCOLS)
    },
    "extract_json_object": (extract_json_object, (ValueError,)),
    "build_panel[expert]": (
        functools.partial(_panel, "expert"),
        (PersonaParseFailure, PersonaUniquenessFailure),
    ),
    "build_panel[ipip]": (
        functools.partial(_panel, "ipip"),
        (PersonaParseFailure, PersonaUniquenessFailure, TraitOutOfRange),
    ),
    "extract_answer_letter": (extract_answer_letter, ()),
}

PINNED_REPLIES = {
    "whitespace-run": "FINAL SOLUTION:" + " " * 100_000 + "!",
    "newline-run": "FINAL SOLUTION:" + "\n" * 100_000,
    "deep-json": '{"a":' * 100_000 + "1" + "}" * 100_000,
    "long-number": "1" * 5_000,
    "nul": 'FINAL SOLUTION: A\0[AGREE]\0{"1": 10, "role": "Nul\0", "description": "\0"}',
    "lone-surrogate": '\ud800 FINAL SOLUTION: \ud800B [DISAGREE] {"role": "\ud800", "description": "x"}',
    "line-separators": '{"role": "A\u2028B", "description": "x\u2029"}\u2028FINAL SOLUTION:\u2028C\x85[AGREE]',
}


def parse_reply(parser: str, text: str) -> None:
    """`parser` on `text`; an exception other than the parser's own failures propagates."""
    parse, failures = PARSERS[parser]
    try:
        parse(text)
    except failures:
        pass


@pytest.mark.parametrize("case", sorted(PINNED_REPLIES))
@pytest.mark.parametrize("parser", sorted(PARSERS))
def test_a_pinned_reply_is_parsed_or_refused_within_a_second(parser, case):
    started = time.perf_counter()
    with finishes_within(1.0):
        parse_reply(parser, PINNED_REPLIES[case])
    assert time.perf_counter() - started < 1.0


# JSON values, objects among them, so the persona and cumulative-ballot
# parsers get past their first check.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=12), inner, max_size=4),
    max_leaves=8,
)
# Pieces of the replies each parser looks for, and of what breaks them.
_PIECES = [
    "FINAL SOLUTION:", "final solution", " (", "[AGREE]", "[disagree]", "{", "}", '"role": ', '"traits"',
    "1", "0", "-3", "2, 3", " ", "\n", "\u2028", "\0", "\ud800", "Openness", "very high",
]
replies = st.one_of(
    st.text(),
    json_values.map(json.dumps),
    st.builds(
        lambda head, value, tail: head + json.dumps(value) + tail,
        st.text(max_size=8),
        json_values,
        st.text(max_size=8),
    ),
    st.lists(st.sampled_from(_PIECES), max_size=12).map("".join),
)


@pytest.mark.parametrize("parser", sorted(PARSERS))
@given(text=replies)
def test_a_reply_is_parsed_or_refused_with_the_parsers_own_failure(parser, text):
    parse_reply(parser, text)
