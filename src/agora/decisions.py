"""Decision protocols: consensus thresholds, voting schemes, and the judge."""

from __future__ import annotations

import re
from typing import Any, Callable, Iterable, NamedTuple, Optional

from . import paradigms, prompts
from .agents import MAX_DUPLICATE_ATTEMPTS, MAX_PARSE_ATTEMPTS, PERSONA_GENERATORS, extract_final_answer_response, extract_json_object
from .domain import CallKind, DebateState, DecisionOutcome, JobParams, ParadigmKind, Phase, Share, TieBreak
from .gateway import AuthRejected, Backend, GatewayError, call


class VoteParseFailure(Exception):
    pass


# The consensus vocabulary: each protocol's test of n agreeing agents out
# of d, cross-multiplied in integers so boundary cases never depend on
# float rounding; the supermajority bar is the literal 66 percent.
_CONSENSUS_RULES: dict[str, Callable[[int, int], bool]] = {
    "majority_consensus": lambda n, d: 2 * n > d,
    "supermajority_consensus": lambda n, d: 50 * n > 33 * d,
    "unanimity_consensus": lambda n, d: n == d,
}
CONSENSUS_PROTOCOLS = frozenset(_CONSENSUS_RULES)


def consensus_reached(share: Share, protocol: str) -> bool:
    """`share` is a Share, or a Fraction: its denominator is positive."""
    return _CONSENSUS_RULES[protocol](share.numerator, share.denominator)


def voting_due(turn: int, voting_after_turns: int) -> bool:
    # >= rather than ==: after a tie, decide's loop runs one more turn, and
    # the revote runs because voting is still due on that later turn.
    return turn >= voting_after_turns


_INT_RE = re.compile(r"-?\d+")


def parse_simple_vote(text: str, k: int) -> int:
    match = _INT_RE.search(text)
    if match is None:
        raise VoteParseFailure("no integer in ballot")
    try:
        value = int(match.group())
    except ValueError:  # more digits than int() converts
        raise VoteParseFailure(f"integer of {len(match.group())} characters in ballot") from None
    return _normalize_index(value, k)


def _normalize_index(value: int, k: int) -> int:
    # 1-based reading first; fall back to 0-based when that is out of range.
    if 1 <= value <= k:
        return value
    if 0 <= value <= k - 1:
        return value + 1
    raise VoteParseFailure(f"index {value} out of range for {k} solutions")


def parse_approval(text: str, k: int) -> set[int]:
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
    values = values[: min(k, 5)]  # a longer ranking is cut silently
    if len(values) != len(set(values)):
        raise VoteParseFailure(f"duplicate rank in {values}")
    for value in values:
        if not 1 <= value <= k:
            raise VoteParseFailure(f"rank {value} out of range for {k} solutions")
    return values


def parse_cumulative(text: str, k: int, budget: int) -> dict[int, int]:
    try:
        obj = extract_json_object(text)
    except ValueError:
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
        raise VoteParseFailure(f"allocated {total} points, budget is {budget}")
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


def parse_ballot(protocol: str, text: str, k: int, budget: int) -> Any:
    return _VOTING_RULES[protocol].parse(text, k, budget)


class Ballot(NamedTuple):
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


class Tally(NamedTuple):
    per_solution_score: dict[int, int]  # every rule awards whole points
    winners: set[int]


def tally(protocol: str, ballots: list[Ballot], k: int) -> Optional[Tally]:
    """Scores and winners of the valid ballots; None when no ballot is valid."""
    valid = [b for b in ballots if b.valid]
    if not valid:
        return None
    rule = _VOTING_RULES[protocol]
    scores = dict.fromkeys(range(1, k + 1), 0)
    for ballot in valid:
        for index, points in rule.points(ballot.parsed, k):
            scores[index] += points
    best = max(scores.values())
    winners = {i for i, score in scores.items() if score == best}
    return Tally(per_solution_score=scores, winners=winners)


class VoteRound(NamedTuple):
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


def collect_candidates(state: DebateState, backend: Backend) -> list[str]:
    """One extracted final answer per agent, in panel order, duplicates kept."""
    candidates: list[str] = []
    for profile in state.panel:
        previous = _previous_response(state, profile.agent_id)
        resp = extract_final_answer_response(
            profile, state.task_text, state.task.input_text(), previous, backend
        )
        candidates.append(resp.text)
        state.add(state.turn, profile.agent_id, Phase.EXTRACTION, resp.text, resp.latency_ms)
    return candidates


def _previous_response(state: DebateState, agent_id: int) -> str:
    return next(m.text for m in reversed(state.debate_messages()) if m.agent_id == agent_id)


# One initial call plus up to three re-prompts per agent before abstention.
MAX_BALLOT_ATTEMPTS = 4


def run_vote_round(state: DebateState, backend: Backend) -> VoteRound:
    candidates = collect_candidates(state, backend)
    k = len(candidates)
    protocol, points = state.params.decision_protocol, state.params.cumulative_points
    user = prompts.render_vote_user(
        protocol, state.task_text, state.task.input_text(), candidates, points=points
    )
    ballots: list[Ballot] = []
    for profile in state.panel:
        messages = [("system", prompts.render_role_system(profile.persona)), ("user", user)]
        for _ in range(MAX_BALLOT_ATTEMPTS):
            resp = call(backend, CallKind.BALLOT, profile.agent_id, messages)
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
    return VoteRound(state.turn, candidates, ballots, tally(protocol, ballots, k))


def judge_decide(state: DebateState, backend: Backend, candidates: list[str]) -> DecisionOutcome:
    user = prompts.render_judge_user(state.task_text, state.task.input_text(), candidates)
    # The judge sits outside the panel; agent 0 marks that in the call and the log.
    try:
        resp = call(backend, Phase.JUDGE, 0, [("user", user)])
    except AuthRejected:
        raise  # as on any other call, rejected credentials fail the debate
    except GatewayError as exc:
        return DecisionOutcome(candidates[0], fallback_reason=f"judge call failed: {exc}")
    state.add(state.turn, 0, Phase.JUDGE, resp.text, resp.latency_ms)
    return DecisionOutcome(resp.text)


def decide(state: DebateState, backend: Backend) -> DecisionOutcome:
    """Run the debate from its panel to its outcome: a turn, then the protocol's check, until one settles it.

    Consensus ends on an agreeing share or at the turn cap. Voting and the
    judge end at the turn cap if it comes before the voting turn; on the
    voting turn the judge decides, or a vote round does. A first-round tie
    with turns left goes on to one more turn and a revote; a tie that
    persists, or comes at the cap, goes to the lowest tied index.
    """
    params = state.params
    protocol = params.decision_protocol
    rounds: list[VoteRound] = []

    def outcome(final_text: Optional[str] = None, **extra: Any) -> DecisionOutcome:
        # The standing draft unless a text is given.
        return DecisionOutcome(
            (state.current_draft or "") if final_text is None else final_text,
            vote_detail=[r.to_log() for r in rounds] if rounds else None,
            **extra,
        )

    while True:
        paradigms.run_turn(state, backend)
        if protocol in CONSENSUS_PROTOCOLS:
            if consensus_reached(state.agreement_fraction(), protocol):
                return outcome()
            if state.turn >= params.max_turns:
                return outcome(fallback_reason="turn cap reached without consensus")
            continue
        if not voting_due(state.turn, params.voting_after_turns):
            if state.turn >= params.max_turns:
                return outcome(fallback_reason="turn cap reached before the voting turn")
            continue
        if protocol == "judge":
            return judge_decide(state, backend, collect_candidates(state, backend))
        rounds.append(run_vote_round(state, backend))
        tie_round = len(rounds) == 2
        result = rounds[-1].tally
        if result is None:
            return outcome(
                fallback_reason="all ballots invalid in the tie-break round"
                if tie_round
                else "all ballots invalid after re-prompts",
            )
        winners = sorted(result.winners)
        final_text = rounds[-1].candidates[winners[0] - 1]
        if len(winners) == 1:
            return outcome(final_text, tie_broken=TieBreak.EXTRA_ROUND if tie_round else None)
        if tie_round or state.turn >= params.max_turns:
            return outcome(final_text, tie_broken=TieBreak.DETERMINISTIC_INDEX)


def call_bounds(params: JobParams) -> tuple[int, int]:
    """The fewest and the most calls one debate of a prepared job makes when it ends without an error.

    A debate's calls run one after another, so the count is also its critical
    path. Each turn makes one call per step of the paradigm's schedule. Each
    persona takes one call, or as many as its generator retries malformed and
    duplicate replies. A consensus debate ends after 1 to `max_turns` turns.
    The judge and a vote round come on the voting turn (which preparation
    keeps within `max_turns`): the judge makes k extractions and its own call,
    a vote round k extractions and 1 to MAX_BALLOT_ATTEMPTS ballots per voter,
    and a tie adds one turn and round while turns remain.
    """
    if params.use_baseline:
        return 1, 1
    k = params.num_agents
    turn = len(paradigms.schedule(ParadigmKind(params.discussion_paradigm), k, params.debate_exchanges))
    personas = 0 if PERSONA_GENERATORS[params.persona_generator] is None else k
    persona_most = personas * (MAX_PARSE_ATTEMPTS + MAX_DUPLICATE_ATTEMPTS - 1)
    if params.decision_protocol in CONSENSUS_PROTOCOLS:
        return personas + turn, persona_most + params.max_turns * turn
    turns = params.voting_after_turns * turn
    if params.decision_protocol == "judge":
        return personas + turns + k + 1, persona_most + turns + k + 1
    vote_round = k + MAX_BALLOT_ATTEMPTS * k
    tie = turn + vote_round if params.voting_after_turns < params.max_turns else 0
    return personas + turns + 2 * k, persona_most + turns + vote_round + tie
