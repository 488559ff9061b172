"""Decision protocols: consensus thresholds, voting schemes, and the judge."""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, NamedTuple, Optional

from . import paradigms, prompts
from .agents import extract_final_answer_response, extract_json_object
from .domain import (
    DebateState,
    DecisionOutcome,
    Phase,
    TieBreak,
)
from .gateway import Backend, GatewayError, chat_request
from .paradigms import DebateContext

logger = logging.getLogger(__name__)

class VoteParseFailure(Exception):
    pass


class BudgetExceeded(VoteParseFailure):
    pass


class DuplicateRank(VoteParseFailure):
    pass


class AllBallotsInvalid(Exception):
    pass


# The consensus vocabulary: each protocol's test of the agreeing share,
# in exact rationals so boundary cases never depend on float rounding;
# the supermajority bar is the literal 66 percent.
_CONSENSUS_RULES: dict[str, Callable[[Fraction], bool]] = {
    "majority_consensus": lambda share: share > Fraction(1, 2),
    "supermajority_consensus": lambda share: share > Fraction(33, 50),
    "unanimity_consensus": lambda share: share == 1,
}
CONSENSUS_PROTOCOLS = frozenset(_CONSENSUS_RULES)


def consensus_reached(fraction: Fraction, protocol: str) -> bool:
    return _CONSENSUS_RULES[protocol](fraction)


def voting_due(turn: int, voting_after_turns: int = 3) -> bool:
    # >= rather than ==: a tie's extra round pushes past the boundary and
    # voting must still be due on the turn after it.
    return turn >= voting_after_turns


_INT_RE = re.compile(r"-?\d+")


def parse_simple_vote(text: str, k: int) -> int:
    if k < 1:
        raise ValueError("k must be >= 1")
    match = _INT_RE.search(text)
    if match is None:
        raise VoteParseFailure("no integer in ballot")
    return _normalize_index(int(match.group()), k)


def _normalize_index(value: int, k: int) -> int:
    # 1-based reading first; fall back to 0-based when that is out of range.
    if 1 <= value <= k:
        return value
    if 0 <= value <= k - 1:
        return value + 1
    raise VoteParseFailure(f"index {value} out of range for {k} solutions")


def parse_approval(text: str, k: int) -> set[int]:
    if k < 1:
        raise ValueError("k must be >= 1")
    tokens = [t for t in re.split(r"[,\s]+", text.strip()) if t]
    if not tokens:
        raise VoteParseFailure("empty approval ballot")
    approved: set[int] = set()
    for token in tokens:
        try:
            value = int(token)
        except ValueError:
            raise VoteParseFailure(f"non-integer token {token!r}")
        approved.add(_normalize_index(value, k))
    return approved


def parse_ranked(text: str, k: int) -> list[int]:
    if k < 2:
        raise ValueError("k must be >= 2")
    tokens = text.split()
    if not tokens:
        raise VoteParseFailure("empty ranking")
    try:
        values = [int(t) for t in tokens]
    except ValueError:
        raise VoteParseFailure(f"non-integer token in ranking {text!r}")
    # A 0 anywhere marks the whole ballot as 0-based.
    if any(v == 0 for v in values):
        values = [v + 1 for v in values]
    limit = min(k, 5)
    if len(values) > limit:
        logger.warning("ranking longer than %d entries truncated: %r", limit, text)
        values = values[:limit]
    if len(values) != len(set(values)):
        raise DuplicateRank(f"duplicate rank in {values}")
    for value in values:
        if not 1 <= value <= k:
            raise VoteParseFailure(f"rank {value} out of range for {k} solutions")
    return values


def parse_cumulative(text: str, k: int, budget: int = 10) -> dict[int, int]:
    if budget < 1:
        raise ValueError("budget must be >= 1")
    try:
        obj = extract_json_object(text)
    except (ValueError, json.JSONDecodeError):
        raise VoteParseFailure(f"no JSON object in ballot {text[:80]!r}")
    allocations: dict[int, int] = {}
    for key, value in obj.items():
        try:
            index = int(key)
        except (TypeError, ValueError):
            raise VoteParseFailure(f"non-integer solution key {key!r}")
        if not isinstance(value, int) or isinstance(value, bool):
            raise VoteParseFailure(f"points for {key!r} are not an integer")
        if value < 0:
            raise VoteParseFailure(f"negative points for solution {key}")
        allocations[index] = value
    if not allocations:
        raise VoteParseFailure("empty point allocation")
    if any(index == 0 for index in allocations):
        allocations = {index + 1: pts for index, pts in allocations.items()}
    for index in allocations:
        if not 1 <= index <= k:
            raise VoteParseFailure(f"index {index} out of range for {k} solutions")
    total = sum(allocations.values())
    if total > budget:
        raise BudgetExceeded(f"allocated {total} points, budget is {budget}")
    return allocations


class _VotingRule(NamedTuple):
    parse: Callable[[str, int, int], Any]  # (ballot text, k, point budget) -> parsed ballot
    points: Callable[[Any, int], Iterable[tuple[int, int]]]  # (parsed, k) -> (solution, points)


# The voting vocabulary: each protocol's ballot parser and scorer.
_VOTING_RULES = {
    "simple_voting": _VotingRule(
        lambda text, k, budget: parse_simple_vote(text, k),
        lambda choice, k: [(choice, 1)],
    ),
    "approval_voting": _VotingRule(
        lambda text, k, budget: parse_approval(text, k),
        lambda approved, k: ((index, 1) for index in approved),
    ),
    "ranked_voting": _VotingRule(
        lambda text, k, budget: parse_ranked(text, k),
        # Borda: position p of k scores k - 1 - p; unranked stays 0.
        lambda ranking, k: ((index, k - 1 - position) for position, index in enumerate(ranking)),
    ),
    "cumulative_voting": _VotingRule(parse_cumulative, lambda allocation, k: allocation.items()),
}
VOTING_PROTOCOLS = frozenset(_VOTING_RULES)
ALL_PROTOCOLS = CONSENSUS_PROTOCOLS | VOTING_PROTOCOLS | {"judge"}


def _voting_rule(protocol: str) -> _VotingRule:
    try:
        return _VOTING_RULES[protocol]
    except KeyError:
        raise ValueError(f"{protocol!r} is not a voting protocol") from None


def parse_ballot(protocol: str, text: str, k: int, budget: int = 10) -> Any:
    return _voting_rule(protocol).parse(text, k, budget)


@dataclass
class Ballot:
    voter: int
    raw_text: str
    parsed: Any = None
    valid: bool = False
    reason: Optional[str] = None

    def to_log(self) -> dict[str, Any]:
        entry: dict[str, Any] = {"voter": self.voter, "rawText": self.raw_text}
        if self.valid:
            entry["parsed"] = _serialize_parsed(self.parsed)
        entry["valid"] = self.valid
        if self.reason is not None:
            entry["reason"] = self.reason
        return entry


def _serialize_parsed(parsed: Any) -> Any:
    if isinstance(parsed, set):
        return sorted(parsed)
    if isinstance(parsed, dict):
        return {str(k): v for k, v in sorted(parsed.items())}
    return parsed


@dataclass
class Tally:
    per_solution_score: dict[int, int]  # every rule awards whole points
    winners: set[int]


def tally(protocol: str, ballots: list[Ballot], k: int) -> Tally:
    valid = [b for b in ballots if b.valid]
    if not valid:
        raise AllBallotsInvalid("no valid ballots to tally")
    rule = _voting_rule(protocol)
    scores = dict.fromkeys(range(1, k + 1), 0)
    for ballot in valid:
        for index, points in rule.points(ballot.parsed, k):
            scores[index] += points
    best = max(scores.values())
    winners = {i for i, score in scores.items() if score == best}
    return Tally(per_solution_score=scores, winners=winners)


@dataclass
class VoteRound:
    turn: int
    candidates: list[str]
    ballots: list[Ballot]
    tally: Optional[Tally]

    def to_log(self) -> dict[str, Any]:
        entry: dict[str, Any] = {
            "turn": self.turn,
            "candidates": list(self.candidates),
            "ballots": [b.to_log() for b in self.ballots],
        }
        if self.tally is not None:
            entry["scores"] = {
                str(i): score for i, score in sorted(self.tally.per_solution_score.items())
            }
            entry["winners"] = sorted(self.tally.winners)
        return entry


def collect_candidates(
    state: DebateState, backend: Backend, ctx: DebateContext
) -> list[str]:
    """One extracted final answer per agent, in panel order, duplicates kept."""
    if len(state.panel) < 2:
        raise ValueError("candidate collection needs a panel of at least 2")
    candidates: list[str] = []
    for profile in state.panel:
        previous = _previous_response(state, profile.agent_id)
        resp = extract_final_answer_response(
            profile.persona, ctx.task_text, ctx.input_text, previous, backend
        )
        candidates.append(resp.text)
        state.add(state.turn, profile.agent_id, Phase.EXTRACTION, resp.text, resp.latency_ms)
    return candidates


def _previous_response(state: DebateState, agent_id: int) -> str:
    for msg in reversed(state.debate_messages()):
        if msg.agent_id == agent_id:
            return msg.text
    if state.current_draft is not None:
        return state.current_draft
    raise ValueError(f"agent {agent_id} has no previous response to extract from")


# One initial call plus up to three re-prompts per agent before abstention.
_MAX_BALLOT_ATTEMPTS = 4


def run_vote_round(state: DebateState, backend: Backend, ctx: DebateContext) -> VoteRound:
    candidates = collect_candidates(state, backend, ctx)
    k = len(candidates)
    protocol, points = ctx.params.decision_protocol, ctx.params.cumulative_points
    ballots: list[Ballot] = []
    for profile in state.panel:
        req = chat_request(
            [
                ("system", prompts.render_role_system(profile.persona)),
                (
                    "user",
                    prompts.render_vote_user(
                        protocol, ctx.task_text, ctx.input_text, candidates, points=points
                    ),
                ),
            ]
        )
        for _ in range(_MAX_BALLOT_ATTEMPTS):
            resp = backend.complete(req)
            try:
                parsed = parse_ballot(protocol, resp.text, k, points)
            except VoteParseFailure as exc:
                ballots.append(
                    Ballot(profile.agent_id, resp.text, valid=False, reason=str(exc))
                )
                continue
            ballots.append(Ballot(profile.agent_id, resp.text, parsed=parsed, valid=True))
            break
    # A voter's ballots end at its first valid one; a round with none has no tally.
    result = tally(protocol, ballots, k) if any(b.valid for b in ballots) else None
    return VoteRound(turn=state.turn, candidates=candidates, ballots=ballots, tally=result)


def judge_decide(
    state: DebateState, backend: Backend, ctx: DebateContext, candidates: list[str]
) -> DecisionOutcome:
    if not candidates:
        raise ValueError("the judge needs at least one candidate")
    req = chat_request(
        [("user", prompts.render_judge_user(ctx.task_text, ctx.input_text, candidates))]
    )
    try:
        resp = backend.complete(req)
    except GatewayError as exc:
        return DecisionOutcome(
            protocol="judge",
            final_text=candidates[0],
            success=False,
            decided_at_turn=state.turn,
            fallback_reason=f"judge call failed: {exc}",
        )
    # The judge sits outside the panel; agent_id 0 marks that in the log.
    state.add(state.turn, 0, Phase.JUDGE, resp.text, resp.latency_ms)
    return DecisionOutcome(
        protocol="judge",
        final_text=resp.text,
        success=True,
        decided_at_turn=state.turn,
    )


def decide(
    state: DebateState, backend: Backend, ctx: DebateContext
) -> Optional[DecisionOutcome]:
    """Protocol check after a completed turn; None means keep debating."""
    params = ctx.params
    protocol = params.decision_protocol

    def outcome(
        final_text: Optional[str] = None, rounds: Optional[list[VoteRound]] = None, **extra: Any
    ) -> DecisionOutcome:
        # The standing draft unless a text is given; successful unless a fallback reason is.
        return DecisionOutcome(
            protocol,
            (state.current_draft or "") if final_text is None else final_text,
            "fallback_reason" not in extra,
            state.turn,
            vote_detail=None if rounds is None else [r.to_log() for r in rounds],
            **extra,
        )

    if protocol in CONSENSUS_PROTOCOLS:
        if consensus_reached(state.agreement_fraction(), protocol):
            return outcome()
        if state.turn >= params.max_turns:
            return outcome(fallback_reason="turn cap reached without consensus")
        return None

    if not voting_due(state.turn, params.voting_after_turns):
        if state.turn >= params.max_turns:
            return outcome(fallback_reason="turn cap reached before the voting turn")
        return None

    if protocol == "judge":
        candidates = collect_candidates(state, backend, ctx)
        return judge_decide(state, backend, ctx, candidates)

    # One vote round, plus one extra turn and round to break a tie while
    # turns remain; a tie that persists goes to the lowest tied index.
    rounds: list[VoteRound] = []
    while True:
        rounds.append(run_vote_round(state, backend, ctx))
        tie_round = len(rounds) == 2
        result = rounds[-1].tally
        if result is None:
            return outcome(
                rounds=rounds,
                fallback_reason="all ballots invalid in the tie-break round"
                if tie_round
                else "all ballots invalid after re-prompts",
            )
        winners = sorted(result.winners)
        final_text = rounds[-1].candidates[winners[0] - 1]
        if len(winners) == 1:
            return outcome(final_text, rounds, tie_broken=TieBreak.EXTRA_ROUND if tie_round else None)
        if tie_round or state.turn >= params.max_turns:
            return outcome(final_text, rounds, tie_broken=TieBreak.DETERMINISTIC_INDEX)
        paradigms.run_turn(state, backend, ctx)
