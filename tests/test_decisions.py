"""Ballot parsing, tallies, and the decide() flows. The consensus bars are checked
against `paper_rules.py` by test_config_space.py and acceptance criterion 2."""

from __future__ import annotations

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
    parse_approval,
    parse_ballot,
    parse_cumulative,
    parse_ranked,
    parse_simple_vote,
    run_vote_round,
    tally,
    voting_due,
)
from agora.domain import (
    Agreement,
    DebateState,
    DecisionOutcome,
    Phase,
    TieBreak,
)
from agora.gateway import EndpointUnreachable
from paper_rules import points, scores, winners
from recording import REPLAY_LATENCY_MS, make_state, replay


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


# -- simple vote parsing --


def test_simple_vote_first_integer_wins():
    assert parse_simple_vote("Solution 2", 3) == 2
    assert parse_simple_vote("I pick 2 over 3", 3) == 2


def test_simple_vote_zero_based_fallback():
    assert parse_simple_vote("0", 3) == 1
    # 3 fits the 1-based reading, which takes precedence.
    assert parse_simple_vote("3", 3) == 3


def test_simple_vote_out_of_range():
    with pytest.raises(VoteParseFailure):
        parse_simple_vote("4", 3)
    with pytest.raises(VoteParseFailure):
        parse_simple_vote("-1", 3)


def test_simple_vote_no_integer():
    with pytest.raises(VoteParseFailure):
        parse_simple_vote("the first one", 3)


# -- approval parsing --


def test_approval_commas_and_whitespace():
    assert parse_approval("1, 3", 3) == {1, 3}
    assert parse_approval("1 2", 3) == {1, 2}
    assert parse_approval("1,2 3", 3) == {1, 2, 3}


def test_approval_normalizes_per_element():
    # 0 is out of 1-based range so it alone shifts; 2 stays 2.
    assert parse_approval("0 2", 3) == {1, 2}


def test_approval_deduplicates():
    assert parse_approval("2, 2", 3) == {2}


def test_approval_rejects_junk():
    with pytest.raises(VoteParseFailure):
        parse_approval("", 3)
    with pytest.raises(VoteParseFailure):
        parse_approval("first", 3)
    with pytest.raises(VoteParseFailure):
        parse_approval("1, 9", 3)


# -- ranked parsing --


def test_ranked_plain():
    assert parse_ranked("2 1 3", 3) == [2, 1, 3]
    assert parse_ranked("2", 3) == [2]


def test_ranked_zero_shifts_whole_ballot():
    assert parse_ranked("0 2 1", 3) == [1, 3, 2]


def test_ranked_truncates_to_five_with_warning():
    # The cut is silent (the README says so): nothing is logged.
    assert parse_ranked("1 2 3 4 5 6", 6) == [1, 2, 3, 4, 5]


def test_ranked_truncates_to_k_when_smaller():
    assert parse_ranked("1 2 3", 2) == [1, 2]


def test_ranked_truncation_runs_before_duplicate_check():
    # The duplicate sits past the cut, so the ballot survives.
    assert parse_ranked("1 2 3 4 5 1", 6) == [1, 2, 3, 4, 5]


def test_ranked_duplicates_rejected():
    with pytest.raises(VoteParseFailure, match="duplicate rank"):
        parse_ranked("1 1", 3)


def test_ranked_out_of_range_and_junk():
    with pytest.raises(VoteParseFailure):
        parse_ranked("7 1", 3)
    with pytest.raises(VoteParseFailure):
        parse_ranked("first second", 3)
    with pytest.raises(VoteParseFailure):
        parse_ranked("", 3)


# -- cumulative parsing --


def test_cumulative_plain_and_fenced():
    assert parse_cumulative('{"1": 6, "3": 4}', 3, 10) == {1: 6, 3: 4}
    fenced = 'Here:\n```json\n{"2": 10}\n```'
    assert parse_cumulative(fenced, 3, 10) == {2: 10}


def test_cumulative_underspend_is_fine():
    assert parse_cumulative('{"2": 3}', 3, 10) == {2: 3}


def test_cumulative_budget_enforced():
    assert parse_cumulative('{"1": 10}', 3, 10) == {1: 10}
    with pytest.raises(VoteParseFailure, match="budget is"):
        parse_cumulative('{"1": 6, "2": 5}', 3, 10)
    assert parse_cumulative('{"1": 3}', 3, budget=3) == {1: 3}
    with pytest.raises(VoteParseFailure, match="budget is"):
        parse_cumulative('{"1": 4}', 3, budget=3)


def test_cumulative_zero_key_shifts_whole_ballot():
    assert parse_cumulative('{"0": 5, "2": 5}', 3, 10) == {1: 5, 3: 5}


def test_cumulative_rejects_junk():
    for text in ['{"1": -2}', '{"1": "six"}', '{"1": true}', '{"one": 3}', "{}", "no json"]:
        with pytest.raises(VoteParseFailure):
            parse_cumulative(text, 3, 10)


def test_cumulative_out_of_range():
    with pytest.raises(VoteParseFailure):
        parse_cumulative('{"5": 1}', 3, 10)


def test_parse_ballot_dispatch():
    assert parse_ballot("simple_voting", "2", 3, 10) == 2
    assert parse_ballot("approval_voting", "1 2", 3, 10) == {1, 2}
    assert parse_ballot("ranked_voting", "2 1", 3, 10) == [2, 1]
    assert parse_ballot("cumulative_voting", '{"1": 1}', 3, 10) == {1: 1}


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


def test_tally_simple_counts():
    ballots = [valid_ballot(i, v) for i, v in enumerate([1, 2, 2], start=1)]
    result = tally("simple_voting", ballots, 3)
    assert result.per_solution_score == {1: 1, 2: 2, 3: 0}
    assert result.winners == {2}


def test_tally_approval_overlap():
    ballots = [valid_ballot(1, {1, 2}), valid_ballot(2, {2, 3})]
    result = tally("approval_voting", ballots, 3)
    assert result.per_solution_score == {1: 1, 2: 2, 3: 1}
    assert result.winners == {2}


def test_tally_borda_hand_case():
    ballots = [valid_ballot(1, [2, 1, 3]), valid_ballot(2, [2, 3, 1])]
    result = tally("ranked_voting", ballots, 3)
    assert result.per_solution_score == {1: 1, 2: 4, 3: 1}
    assert result.winners == {2}


def test_tally_borda_partial_ballot():
    result = tally("ranked_voting", [valid_ballot(1, [2])], 3)
    assert result.per_solution_score == {1: 0, 2: 2, 3: 0}


def test_tally_cumulative_points():
    ballots = [valid_ballot(1, {1: 6, 3: 4}), valid_ballot(2, {3: 5})]
    result = tally("cumulative_voting", ballots, 3)
    assert result.per_solution_score == {1: 6, 2: 0, 3: 9}
    assert result.winners == {3}


def test_tally_reports_ties():
    ballots = [valid_ballot(1, 1), valid_ballot(2, 2)]
    assert tally("simple_voting", ballots, 2).winners == {1, 2}


def test_tally_skips_invalid_ballots():
    ballots = [valid_ballot(1, 1), Ballot(2, "??", valid=False, reason="x")]
    assert tally("simple_voting", ballots, 2).winners == {1}


def test_tally_all_invalid_is_none():
    assert tally("simple_voting", [Ballot(1, "??", valid=False, reason="x")], 2) is None


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


# -- decide(): consensus --
#
# decide runs the debate's turns itself, so each case starts a turn before
# the one it checks and scripts that turn's replies (memory paradigm: agent 1
# drafts, each later agent answers in panel order).


def decide_with(state: DebateState, replies: list[str]) -> DecisionOutcome:
    """decide's outcome on these replies, every one of which it must ask for."""
    backend = replay(replies)
    outcome = decide(state, backend)
    assert len(backend.requests) == len(replies)
    return outcome


def consensus_turn(
    agreements: list[Agreement | None], before: int = 0, **params
) -> tuple[DebateState, list[str]]:
    """A debate `before` turns in, and its next turn's replies: a draft, then each later agent's marker."""
    state = make_state(len(agreements), **params)
    state.turn = before
    replies = ["the draft"] + [
        "ok [AGREE]" if agreement is Agreement.AGREE else "no [DISAGREE]"
        for agreement in agreements[1:]
    ]
    return state, replies


def test_decide_consensus_reached():
    state, replies = consensus_turn(
        [None, Agreement.AGREE, Agreement.AGREE], decision_protocol="majority_consensus"
    )
    outcome = decide_with(state, replies)
    assert outcome.success
    assert outcome.final_text == "the draft"
    assert state.turn == 1


def test_decide_consensus_keeps_debating():
    state, replies = consensus_turn(
        [None, Agreement.DISAGREE, Agreement.DISAGREE], decision_protocol="majority_consensus"
    )
    # No majority after turn 1, so turn 2 runs; there everyone agrees.
    outcome = decide_with(state, replies + ["ok [AGREE]"] * 3)
    assert outcome.success
    assert outcome.final_text == "no [DISAGREE]"
    assert state.turn == 2


def test_decide_consensus_turn_cap_fallback():
    state, replies = consensus_turn(
        [None, Agreement.DISAGREE, Agreement.DISAGREE],
        before=6,
        decision_protocol="majority_consensus",
        max_turns=7,
    )
    outcome = decide_with(state, replies)
    assert not outcome.success
    assert outcome.fallback_reason == "turn cap reached without consensus"
    # The second disagreeing improve replaced the slate, so it is the fallback.
    assert outcome.final_text == "no [DISAGREE]"
    assert state.turn == 7


def test_decide_unanimity_blocks_on_single_holdout():
    state, replies = consensus_turn(
        [None, Agreement.AGREE, Agreement.DISAGREE], decision_protocol="unanimity_consensus"
    )
    # The holdout keeps turn 1 from settling it; turn 2 is unanimous.
    outcome = decide_with(state, replies + ["ok [AGREE]"] * 3)
    assert outcome.success
    assert state.turn == 2


# -- decide(): voting --


def voting_turn(n: int = 2, before: int = 2, **params) -> tuple[DebateState, list[str]]:
    """A debate `before` turns in, and its next turn's replies: what vote_state's transcript holds."""
    state = make_state(n, **params)
    state.turn = before
    return state, ["alpha"] + [f"beta from {agent}" for agent in range(2, n + 1)]


def test_decide_voting_not_due_yet():
    state, replies = voting_turn(before=1, decision_protocol="simple_voting")
    # Turn 2 comes before the voting turn, so the vote waits for turn 3.
    outcome = decide_with(state, replies + ["alpha 3", "beta 3", "cand A", "cand B", "1", "1"])
    assert outcome.vote_detail[0]["turn"] == 3
    assert state.turn == 3


def test_decide_voting_cap_before_voting_turn():
    state, replies = voting_turn(
        before=1, decision_protocol="simple_voting", voting_after_turns=9, max_turns=2
    )
    outcome = decide_with(state, replies)
    assert not outcome.success
    assert outcome.fallback_reason == "turn cap reached before the voting turn"
    assert state.turn == 2


def test_decide_voting_unique_winner():
    state, replies = voting_turn(decision_protocol="simple_voting")
    outcome = decide_with(state, replies + ["cand A", "cand B", "2", "2"])
    assert outcome.success
    assert outcome.final_text == "cand B"
    assert state.turn == 3
    assert outcome.tie_broken is None
    assert len(outcome.vote_detail) == 1
    assert outcome.vote_detail[0]["winners"] == [2]


def test_decide_voting_all_invalid_falls_back():
    state, replies = voting_turn(decision_protocol="simple_voting")
    outcome = decide_with(state, replies + ["cand A", "cand B"] + ["x"] * 8)
    assert not outcome.success
    assert outcome.fallback_reason == "all ballots invalid after re-prompts"
    assert outcome.final_text == "beta from 2"  # the standing draft
    assert len(outcome.vote_detail) == 1


def test_decide_voting_tie_resolved_by_extra_round():
    state, replies = voting_turn(decision_protocol="simple_voting")
    outcome = decide_with(
        state,
        replies
        + [
            "cand A", "cand B", "1", "2",  # round 1: tie
            "new say 1 [DISAGREE]", "new say 2 [AGREE]",  # extra debate turn
            "cand A2", "cand B2", "2", "2",  # round 2: agent 2's candidate wins
        ],
    )
    assert outcome.success
    assert outcome.tie_broken is TieBreak.EXTRA_ROUND
    assert outcome.final_text == "cand B2"
    assert len(outcome.vote_detail) == 2
    assert state.turn == 4


def test_decide_voting_persistent_tie_uses_lowest_index():
    state, replies = voting_turn(decision_protocol="simple_voting")
    outcome = decide_with(
        state,
        replies
        + [
            "cand A", "cand B", "1", "2",
            "say [DISAGREE]", "say [AGREE]",
            "cand A2", "cand B2", "1", "2",
        ],
    )
    assert outcome.success
    assert outcome.tie_broken is TieBreak.DETERMINISTIC_INDEX
    assert outcome.final_text == "cand A2"


def test_decide_voting_tie_at_cap_skips_extra_round():
    state, replies = voting_turn(before=6, decision_protocol="simple_voting", max_turns=7)
    outcome = decide_with(state, replies + ["cand A", "cand B", "1", "2"])
    assert outcome.success
    assert outcome.tie_broken is TieBreak.DETERMINISTIC_INDEX
    assert outcome.final_text == "cand A"
    assert state.turn == 7
    assert len(outcome.vote_detail) == 1


def test_decide_voting_tie_break_round_all_invalid():
    state, replies = voting_turn(decision_protocol="simple_voting")
    outcome = decide_with(
        state,
        replies
        + [
            "cand A", "cand B", "1", "2",
            "say [DISAGREE]", "say [AGREE]",
            "cand A2", "cand B2",
        ]
        + ["x"] * 8,
    )
    assert not outcome.success
    assert outcome.fallback_reason == "all ballots invalid in the tie-break round"
    assert len(outcome.vote_detail) == 2


def test_decide_judge_protocol():
    state, replies = voting_turn(decision_protocol="judge")
    outcome = decide_with(state, replies + ["cand A", "cand B", "judged answer"])
    assert outcome.success
    assert outcome.final_text == "judged answer"
