"""Ballot parsing, tallies, vote rounds, the judge, and `decide`. The consensus
bars are checked against `paper_rules.py` by test_config_space.py and
acceptance criterion 2.

- Three consensus protocols, four voting ones and the judge make eight.
  Voting is due from turn `voting_after_turns` on.
- `BALLOTS`: a simple ballot is its first integer. Indices are 1-based; a 0
  makes a ballot 0-based, but only the 0 itself in an approval ballot. A
  ranking is cut to min(k, 5) before duplicates are checked; a cumulative
  ballot, fenced or not, may underspend. Any other raises VoteParseFailure.
- `TALLIES`: invalid ballots are skipped. A vote gives 1 point, an approval
  1 each, a ranking k - 1 - p at position p, and a cumulative ballot its
  points; the winners have the most, and no valid ballot gives no tally.
  Scores are whole and equal `paper_rules.py`'s sums in any voter order, and
  one more vote makes a winner the only one. Ballots and rounds log as pinned.
- Candidates are extracted per agent in panel order, duplicates kept, each
  an extraction message quoting the agent's last debate message. A voter is
  asked again after an invalid ballot, four ballots in all, then abstains. A
  cumulative prompt names the configured budget, which bounds the ballot.
- The judge's reply is logged as agent 0's judge message; a failed judge
  call falls back to the first candidate and logs none.
- `ENDINGS`: `decide` asks for exactly the replies it needs. Consensus ends
  at the first turn that meets its bar, with the standing draft, never votes,
  and fails at `max_turns`. Voting and the judge debate to the voting turn,
  then decide; a cap before it fails with the draft. A tie gets one more
  turn and round (`extra_round`); a lasting tie, or one at the cap, goes to
  the lowest index (`deterministic_index`); a round of invalid ballots fails
  with the draft.
- `AGREEING_PANELS`: an agreeing 3-agent panel reaches consensus at turn 1
  with 3 messages in every paradigm; the report and debate rows are strict
  expected failures until ROADMAP item 25 lands.
"""

from __future__ import annotations

import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from agora.decisions import (
    ALL_PROTOCOLS,
    CONSENSUS_PROTOCOLS,
    VOTING_PROTOCOLS,
    Ballot,
    VoteParseFailure,
    VoteRound,
    collect_candidates,
    decide,
    judge_decide,
    parse_ballot,
    run_vote_round,
    tally,
    voting_due,
)
from agora.domain import DebateState, Phase, TieBreak
from agora.gateway import EndpointUnreachable
from paper_rules import points, scores, winners
from recording import REPLAY_LATENCY_MS, Agreeing, make_state, replay


def add(state: DebateState, agent_id: int, phase: Phase, text: str, turn: int) -> None:
    state.add(turn, agent_id, phase, text, 0)


def valid_ballot(voter: int, parsed) -> Ballot:
    return Ballot(voter=voter, raw_text=str(parsed), parsed=parsed, valid=True)


# -- protocol registry --


def test_protocol_registry_is_complete():
    assert len(CONSENSUS_PROTOCOLS) == 3
    assert len(VOTING_PROTOCOLS) == 4
    assert "judge" in ALL_PROTOCOLS
    assert len(ALL_PROTOCOLS) == 8


def test_voting_due_boundary():
    assert not voting_due(2, 3)
    assert voting_due(3, 3)
    assert voting_due(4, 3)
    assert voting_due(1, 1)


# Each ballot reply: the protocol, the text, the number of solutions k, the
# cumulative budget, and the parsed ballot or the VoteParseFailure message.
# The first integer is a simple vote. Indices are 1-based; a 0 reads the whole
# ballot as 0-based, but in an approval ballot only the 0 itself shifts. A
# ranking is cut, silently, to min(k, 5) before its duplicates are checked; a
# cumulative ballot may be fenced and may underspend.
BALLOTS = [
    ("simple_voting", "Solution 2", 3, 10, 2),
    ("simple_voting", "I pick 2 over 3", 3, 10, 2),
    ("simple_voting", "0", 3, 10, 1),
    ("simple_voting", "3", 3, 10, 3),
    ("simple_voting", "4", 3, 10, "index 4 out of range for 3 solutions"),
    ("simple_voting", "-1", 3, 10, "index -1 out of range for 3 solutions"),
    ("simple_voting", "the first one", 3, 10, "no integer in ballot"),
    ("approval_voting", "1, 3", 3, 10, {1, 3}),
    ("approval_voting", "1 2", 3, 10, {1, 2}),
    ("approval_voting", "1,2 3", 3, 10, {1, 2, 3}),
    ("approval_voting", "0 2", 3, 10, {1, 2}),
    ("approval_voting", "2, 2", 3, 10, {2}),
    ("approval_voting", "", 3, 10, "empty approval ballot"),
    ("approval_voting", "first", 3, 10, "non-integer token 'first'"),
    ("approval_voting", "1, 9", 3, 10, "index 9 out of range for 3 solutions"),
    ("ranked_voting", "2 1 3", 3, 10, [2, 1, 3]),
    ("ranked_voting", "2", 3, 10, [2]),
    ("ranked_voting", "0 2 1", 3, 10, [1, 3, 2]),
    ("ranked_voting", "1 2 3 4 5 6", 6, 10, [1, 2, 3, 4, 5]),
    ("ranked_voting", "1 2 3", 2, 10, [1, 2]),
    ("ranked_voting", "1 2 3 4 5 1", 6, 10, [1, 2, 3, 4, 5]),
    ("ranked_voting", "1 1", 3, 10, "duplicate rank in [1, 1]"),
    ("ranked_voting", "7 1", 3, 10, "rank 7 out of range for 3 solutions"),
    ("ranked_voting", "first second", 3, 10, "non-integer token in ranking 'first second'"),
    ("ranked_voting", "", 3, 10, "empty ranking"),
    ("cumulative_voting", '{"1": 6, "3": 4}', 3, 10, {1: 6, 3: 4}),
    ("cumulative_voting", 'Here:\n```json\n{"2": 10}\n```', 3, 10, {2: 10}),
    ("cumulative_voting", '{"2": 3}', 3, 10, {2: 3}),
    ("cumulative_voting", '{"1": 10}', 3, 10, {1: 10}),
    ("cumulative_voting", '{"1": 3}', 3, 3, {1: 3}),
    ("cumulative_voting", '{"0": 5, "2": 5}', 3, 10, {1: 5, 3: 5}),
    ("cumulative_voting", '{"1": 6, "2": 5}', 3, 10, "allocated 11 points, budget is 10"),
    ("cumulative_voting", '{"1": 4}', 3, 3, "allocated 4 points, budget is 3"),
    ("cumulative_voting", '{"1": -2}', 3, 10, "negative points for solution 1"),
    ("cumulative_voting", '{"1": "six"}', 3, 10, "points for '1' are not an integer"),
    ("cumulative_voting", '{"1": true}', 3, 10, "points for '1' are not an integer"),
    ("cumulative_voting", '{"one": 3}', 3, 10, "non-integer solution key 'one'"),
    ("cumulative_voting", "{}", 3, 10, "empty point allocation"),
    ("cumulative_voting", "no json", 3, 10, "no JSON object in ballot 'no json'"),
    ("cumulative_voting", '{"5": 1}', 3, 10, "index 5 out of range for 3 solutions"),
]


@pytest.mark.parametrize("protocol, text, k, budget, expected", BALLOTS)
def test_parse_ballot(protocol, text, k, budget, expected):
    if isinstance(expected, str):
        with pytest.raises(VoteParseFailure, match=re.escape(expected)):
            parse_ballot(protocol, text, k, budget)
    else:
        assert parse_ballot(protocol, text, k, budget) == expected


# -- ballot logging --


def test_ballot_log_valid_and_invalid():
    valid = valid_ballot(2, 1)
    assert valid.to_log() == {"voter": 2, "rawText": "1", "parsed": 1, "valid": True}
    invalid = Ballot(voter=3, raw_text="??", valid=False, reason="no integer in ballot")
    assert invalid.to_log() == {
        "voter": 3,
        "rawText": "??",
        "valid": False,
        "reason": "no integer in ballot",
    }


def test_ballot_log_serializes_collections():
    assert valid_ballot(1, {3, 1}).to_log()["parsed"] == [1, 3]
    assert valid_ballot(1, {2: 4, 1: 6}).to_log()["parsed"] == {"1": 6, "2": 4}


# -- tallies --

# Hand-worked tallies: the protocol, each ballot's parsed value (None for an
# invalid one, which is skipped), k, and the scores and winners, or None when
# no ballot is valid.
TALLIES = [
    ("simple_voting", [1, 2, 2], 3, ({1: 1, 2: 2, 3: 0}, {2})),
    ("approval_voting", [{1, 2}, {2, 3}], 3, ({1: 1, 2: 2, 3: 1}, {2})),
    ("ranked_voting", [[2, 1, 3], [2, 3, 1]], 3, ({1: 1, 2: 4, 3: 1}, {2})),
    ("ranked_voting", [[2]], 3, ({1: 0, 2: 2, 3: 0}, {2})),
    ("cumulative_voting", [{1: 6, 3: 4}, {3: 5}], 3, ({1: 6, 2: 0, 3: 9}, {3})),
    ("simple_voting", [1, 2], 2, ({1: 1, 2: 1}, {1, 2})),
    ("simple_voting", [1, None], 2, ({1: 1, 2: 0}, {1})),
    ("simple_voting", [None], 2, None),
]


@pytest.mark.parametrize("protocol, parsed, k, expected", TALLIES)
def test_tally(protocol, parsed, k, expected):
    ballots = [
        Ballot(voter, "??", valid=False, reason="x") if p is None else valid_ballot(voter, p)
        for voter, p in enumerate(parsed, start=1)
    ]
    result = tally(protocol, ballots, k)
    assert (None if result is None else (result.per_solution_score, result.winners)) == expected


def test_vote_round_log_shape():
    ballots = [valid_ballot(1, 2), valid_ballot(2, 2)]
    rnd = VoteRound(turn=3, candidates=["a", "b"], ballots=ballots, tally=tally("simple_voting", ballots, 2))
    entry = rnd.to_log()
    assert entry["turn"] == 3
    assert entry["candidates"] == ["a", "b"]
    assert entry["scores"] == {"1": 0, "2": 2}
    assert all(isinstance(v, int) for v in entry["scores"].values())
    assert entry["winners"] == [2]


# -- tally properties --


@given(st.integers(2, 4), st.data())
def test_tally_is_anonymous(k, data):
    votes = data.draw(st.lists(st.integers(1, k), min_size=1, max_size=6))
    ballots = [valid_ballot(i, v) for i, v in enumerate(votes, start=1)]
    perm = data.draw(st.permutations(ballots))
    relabeled = [Ballot(i, b.raw_text, b.parsed, b.valid) for i, b in enumerate(perm, start=1)]
    a = tally("simple_voting", ballots, k)
    b = tally("simple_voting", relabeled, k)
    assert a.per_solution_score == b.per_solution_score
    assert a.winners == b.winners


@given(st.integers(2, 4), st.data())
def test_simple_tally_matches_counter_oracle(k, data):
    votes = data.draw(st.lists(st.integers(1, k), min_size=1, max_size=8))
    ballots = [valid_ballot(i, v) for i, v in enumerate(votes, start=1)]
    result = tally("simple_voting", ballots, k)
    expected = scores([points("simple_voting", vote, k) for vote in votes], k)
    assert {i: int(s) for i, s in result.per_solution_score.items()} == expected
    assert result.winners == winners(expected)


@st.composite
def voting_cases(draw):
    """A voting protocol, a candidate count k and valid parsed ballots for them."""
    protocol = draw(st.sampled_from(sorted(VOTING_PROTOCOLS)))
    k = draw(st.integers(2, 6))
    solution = st.integers(1, k)
    ballot = {
        "simple_voting": solution,
        "approval_voting": st.sets(solution, min_size=1),
        "ranked_voting": st.permutations(range(1, k + 1)).flatmap(
            lambda order: st.integers(1, min(k, 5)).map(lambda length: order[:length])
        ),
        # Each drawn solution is one point of the budget of 10.
        "cumulative_voting": st.lists(solution, min_size=1, max_size=10).map(
            lambda drawn: dict(Counter(drawn))
        ),
    }[protocol]
    return protocol, k, draw(st.lists(ballot, min_size=1, max_size=7))


@given(voting_cases())
def test_tally_scores_are_whole_points_equal_to_an_independent_sum(case):
    protocol, k, parsed = case
    ballots = [valid_ballot(i, p) for i, p in enumerate(parsed, start=1)]
    result = tally(protocol, ballots, k)
    expected = scores([points(protocol, p, k) for p in parsed], k)
    assert result.per_solution_score == expected
    assert all(type(score) is int for score in result.per_solution_score.values())
    logged = VoteRound(3, ["c"] * k, ballots, result).to_log()["scores"]
    assert logged == {str(i): expected[i] for i in expected}
    assert all(type(score) is int for score in logged.values())


@given(st.integers(2, 4), st.data())
def test_simple_voting_is_monotone(k, data):
    votes = data.draw(st.lists(st.integers(1, k), min_size=1, max_size=6))
    ballots = [valid_ballot(i, v) for i, v in enumerate(votes, start=1)]
    before = tally("simple_voting", ballots, k)
    winner = min(before.winners)
    boosted = ballots + [valid_ballot(len(ballots) + 1, winner)]
    after = tally("simple_voting", boosted, k)
    assert after.winners == {winner}


# -- candidate collection --


def test_collect_candidates_panel_order_and_extraction_log():
    state = make_state(2)
    add(state, 1, Phase.DRAFT, "one's answer", turn=1)
    add(state, 2, Phase.IMPROVE, "two's answer", turn=1)
    state.turn = 3
    backend = replay(["extracted A", "extracted B"])
    candidates = collect_candidates(state, backend)
    assert candidates == ["extracted A", "extracted B"]
    extractions = [m for m in state.transcript if m.phase is Phase.EXTRACTION]
    assert [m.agent_id for m in extractions] == [1, 2]
    assert all(m.turn == 3 and m.wall_clock_ms == REPLAY_LATENCY_MS for m in extractions)
    # The extraction prompt quotes each agent's own last debate message.
    assert "one's answer" in backend.requests[0].messages[1].content
    assert "two's answer" in backend.requests[1].messages[1].content


def test_collect_candidates_keeps_duplicates():
    state = make_state(2)
    add(state, 1, Phase.DRAFT, "same", turn=1)
    add(state, 2, Phase.IMPROVE, "same", turn=1)
    state.turn = 1
    backend = replay(["dup", "dup"])
    assert collect_candidates(state, backend) == ["dup", "dup"]


# -- vote rounds --


def vote_state(n: int = 2, turn: int = 3, **params) -> DebateState:
    state = make_state(n, **params)
    add(state, 1, Phase.DRAFT, "alpha", turn=1)
    for agent in range(2, n + 1):
        add(state, agent, Phase.IMPROVE, f"beta from {agent}", turn=1)
    state.turn = turn
    return state


def test_run_vote_round_happy_path():
    state = vote_state(decision_protocol="simple_voting")
    backend = replay(["cand A", "cand B", "1", "1"])
    rnd = run_vote_round(state, backend)
    assert rnd.turn == 3
    assert rnd.candidates == ["cand A", "cand B"]
    assert [b.valid for b in rnd.ballots] == [True, True]
    assert rnd.tally.winners == {1}


def test_run_vote_round_reprompts_and_records_failures():
    state = vote_state(decision_protocol="simple_voting")
    backend = replay(["cand A", "cand B", "no number here", "2", "1"])
    rnd = run_vote_round(state, backend)
    assert [(b.voter, b.valid) for b in rnd.ballots] == [(1, False), (1, True), (2, True)]
    assert rnd.ballots[0].reason == "no integer in ballot"
    assert rnd.tally.winners == {1, 2}


def test_run_vote_round_abstention_after_four_failures():
    state = vote_state(decision_protocol="simple_voting")
    backend = replay(["cand A", "cand B", "x", "x", "x", "x", "2"])
    rnd = run_vote_round(state, backend)
    agent1 = [b for b in rnd.ballots if b.voter == 1]
    assert len(agent1) == 4 and not any(b.valid for b in agent1)
    assert rnd.tally.winners == {2}


def test_run_vote_round_everyone_abstains():
    state = vote_state(decision_protocol="simple_voting")
    backend = replay(["cand A", "cand B"] + ["x"] * 8)
    rnd = run_vote_round(state, backend)
    assert rnd.tally is None
    assert len(rnd.ballots) == 8


def test_run_vote_round_cumulative_uses_configured_points():
    state = vote_state(decision_protocol="cumulative_voting", cumulative_points=4)
    backend = replay(["cand A", "cand B", '{"1": 4}', '{"2": 4}'])
    rnd = run_vote_round(state, backend)
    ballot_prompt = backend.requests[2].messages[1].content
    assert "4 points" in ballot_prompt
    assert rnd.tally.winners == {1, 2}


def test_run_vote_round_budget_respects_configuration():
    state = vote_state(decision_protocol="cumulative_voting", cumulative_points=4)
    backend = replay(["cand A", "cand B", '{"1": 9}', '{"1": 9}', '{"1": 3}', '{"2": 1}'])
    rnd = run_vote_round(state, backend)
    # Two over-budget ballots from agent 1 before a valid one.
    reasons = [b.reason for b in rnd.ballots if not b.valid]
    assert all("budget" in r for r in reasons) and len(reasons) == 2
    assert rnd.tally.per_solution_score == {1: 3, 2: 1}


# -- judge --


def test_judge_decide_success_appends_message():
    state = vote_state(decision_protocol="judge")
    backend = replay(["the winning text"])
    outcome = judge_decide(state, backend, ["a", "b"])
    assert outcome.success
    assert outcome.final_text == "the winning text"
    assert state.turn == 3
    judge_msgs = [m for m in state.transcript if m.phase is Phase.JUDGE]
    assert len(judge_msgs) == 1 and judge_msgs[0].agent_id == 0


def test_judge_decide_gateway_failure_falls_back():
    class Down:
        def complete(self, req):
            raise EndpointUnreachable("boom")

    state = vote_state(decision_protocol="judge")
    outcome = judge_decide(state, Down(), ["first", "second"])
    assert not outcome.success
    assert outcome.final_text == "first"
    assert "judge call failed" in outcome.fallback_reason
    assert not [m for m in state.transcript if m.phase is Phase.JUDGE]


# -- decide() --

AGREE, NO = "ok [AGREE]", "no [DISAGREE]"
VOTE = {"decision_protocol": "simple_voting"}  # voting after turn 3, within 7
TURN = ["alpha", "beta from 2"]  # the transcript vote_state builds
CANDIDATES = ["cand A", "cand B"]
TIE = CANDIDATES + ["1", "2"]
TIE_BREAK = ["say [DISAGREE]", "say [AGREE]", "cand A2", "cand B2"]  # the extra turn, then the extractions

# Each way decide ends, started `before` turns in: the panel size, the job's
# params, and every reply it asks for, in order (memory paradigm: agent 1
# drafts and each later agent answers; then the extractions, and the ballots
# or the judge) -> success, final text, the turns completed, tie_broken, each
# vote round's turn and winners, and the fallback reason.
ENDINGS = {
    "consensus reached": (3, {}, 0, ["the draft", AGREE, AGREE], (True, "the draft", 1, None, [], None)),
    # The second disagreeing improve replaced the slate, so it is the answer.
    "consensus keeps debating": (3, {}, 0, ["the draft", NO, NO] + [AGREE] * 3, (True, NO, 2, None, [], None)),
    "consensus turn cap": (
        3, {"max_turns": 7}, 6, ["the draft", NO, NO], (False, NO, 7, None, [], "turn cap reached without consensus")
    ),
    # A consensus debate holds no vote, even past the voting turn.
    "consensus past the voting turn": (3, {}, 2, ["the draft", NO, NO] + [AGREE] * 3, (True, NO, 4, None, [], None)),
    "unanimity holdout": (
        3, {"decision_protocol": "unanimity_consensus"}, 0, ["the draft", AGREE, NO] + [AGREE] * 3, (True, NO, 2, None, [], None)
    ),
    "voting not due yet": (
        2, VOTE, 1, TURN + ["alpha 3", "beta 3"] + CANDIDATES + ["1", "1"], (True, "cand A", 3, None, [(3, [1])], None)
    ),
    "cap before the voting turn": (
        2, {**VOTE, "voting_after_turns": 9, "max_turns": 2}, 1, TURN,
        (False, "beta from 2", 2, None, [], "turn cap reached before the voting turn"),
    ),
    "unique winner": (2, VOTE, 2, TURN + CANDIDATES + ["2", "2"], (True, "cand B", 3, None, [(3, [2])], None)),
    # The standing draft is the fallback.
    "all ballots invalid": (
        2, VOTE, 2, TURN + CANDIDATES + ["x"] * 8, (False, "beta from 2", 3, None, [(3, None)], "all ballots invalid after re-prompts")
    ),
    "tie broken by an extra round": (
        2, VOTE, 2, TURN + TIE + TIE_BREAK + ["2", "2"], (True, "cand B2", 4, TieBreak.EXTRA_ROUND, [(3, [1, 2]), (4, [2])], None)
    ),
    "persistent tie": (
        2, VOTE, 2, TURN + TIE + TIE_BREAK + ["1", "2"],
        (True, "cand A2", 4, TieBreak.DETERMINISTIC_INDEX, [(3, [1, 2]), (4, [1, 2])], None),
    ),
    "tie at the cap": (
        2, {**VOTE, "max_turns": 7}, 6, TURN + TIE, (True, "cand A", 7, TieBreak.DETERMINISTIC_INDEX, [(7, [1, 2])], None)
    ),
    "tie-break round all invalid": (
        2, VOTE, 2, TURN + TIE + TIE_BREAK + ["x"] * 8,
        (False, "say [DISAGREE]", 4, None, [(3, [1, 2]), (4, None)], "all ballots invalid in the tie-break round"),
    ),
    "judge": (
        2, {"decision_protocol": "judge"}, 2, TURN + CANDIDATES + ["judged answer"], (True, "judged answer", 3, None, [], None)
    ),
}


@pytest.mark.parametrize("case", ENDINGS)
def test_decide_ends_each_way_on_the_replies_it_asks_for(case):
    agents, params, before, replies, expected = ENDINGS[case]
    state = make_state(agents, **params)
    state.turn = before
    backend = replay(replies)
    outcome = decide(state, backend)
    assert len(backend.requests) == len(replies)  # every reply was asked for
    rounds = [(entry["turn"], entry.get("winners")) for entry in outcome.vote_detail or []]
    assert (outcome.success, outcome.final_text, state.turn, outcome.tie_broken, rounds, outcome.fallback_reason) == expected


# ROADMAP item 25: in report and debate each turn ends with the central
# agent's synthesis, which installs a new draft that its author alone agrees
# with, so the share after every turn is 1/3 and no consensus is reached.
ITEM_25 = pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="ROADMAP item 25: the synthesis that ends each turn resets the agreement slate"
)

# Each paradigm and consensus protocol in which a 3-agent panel that agrees
# with every message, capped at 4 turns, succeeds at turn 1 with 3 messages.
AGREEING_PANELS = [
    pytest.param(paradigm, protocol, id=f"{paradigm}-{protocol}", marks=[ITEM_25] if paradigm in ("report", "debate") else [])
    for paradigm in ("memory", "relay", "report", "debate")
    for protocol in ("majority_consensus", "supermajority_consensus", "unanimity_consensus")
]


@pytest.mark.parametrize("paradigm, protocol", AGREEING_PANELS)
def test_an_agreeing_panel_reaches_consensus_at_turn_one(paradigm, protocol):
    state = make_state(3, discussion_paradigm=paradigm, decision_protocol=protocol, max_turns=4)
    outcome = decide(state, Agreeing())
    assert (outcome.success, state.turn, len(state.transcript)) == (True, 1, 3)
