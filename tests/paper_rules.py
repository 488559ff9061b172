"""The paper's debate rules, written once for the tests from the paper, not from the engine.

The whole-space test (`test_config_space.py`), acceptance criteria 1, 2 and 3
and the tally tests of `test_decisions.py` check the engine against these
rules. Nothing here is imported from `agora`, so a fault the engine has cannot
cancel out. Agent 1 is the central agent of report and debate. A message of
the discussion is a plain tuple whose phase is the word a debate log writes
(`"draft"`, `"improve"`, `"feedback"`, `"central_synthesis"`).
"""

from __future__ import annotations

import math
from fractions import Fraction

# The consensus bars on the share of the panel agreeing with the draft.
CONSENSUS = {
    "majority_consensus": lambda share: share > Fraction(1, 2),
    "supermajority_consensus": lambda share: share > Fraction(66, 100),
    "unanimity_consensus": lambda share: share == 1,
}


def peer_pairs(n: int) -> list[tuple[int, ...]]:
    """The peers 2..n pair off in order for the whole debate, an odd one alone."""
    peers = list(range(2, n + 1))
    return [tuple(peers[i : i + 2]) for i in range(0, len(peers), 2)]


def turn_plan(paradigm: str, n: int, exchanges: int) -> list[tuple[int, str]]:
    """(speaker, phase) for each message of a turn; a debate's first message is its draft instead.
    A pair takes `exchanges` turns about, and a lone peer half as many, rounded up."""
    if paradigm in ("memory", "relay"):
        return [(agent, "improve") for agent in range(1, n + 1)]
    if paradigm == "report":
        return [(agent, "improve") for agent in range(2, n + 1)] + [(1, "central_synthesis")]
    plan = []
    for pair in peer_pairs(n):
        turns = exchanges if len(pair) == 2 else math.ceil(exchanges / 2)
        plan += [(pair[e % len(pair)], "feedback") for e in range(turns)]
    return plan + [(1, "central_synthesis")]


def visible(paradigm: str, prior: list[tuple[int, int, str]], speaker: int, turn: int, n: int) -> list[int]:
    """The positions in `prior`, the (turn, agent, phase) of each message before one
    that `speaker` writes in `turn`, of the messages that speaker may see."""
    positions = range(len(prior))
    if paradigm == "memory" or (paradigm != "relay" and speaker == 1):
        return list(positions)
    if paradigm == "relay":
        return list(positions)[-1:]
    if paradigm == "report":
        return [i for i in positions if prior[i][1] == speaker or prior[i][2] == "central_synthesis"]
    pair = next(pair for pair in peer_pairs(n) if speaker in pair)
    return [i for i in positions if (prior[i][1] in pair and prior[i][0] == turn) or prior[i][2] == "central_synthesis"]


def shares_by_turn(discussion: list[tuple[int, int, str, str | None]], n: int) -> list[Fraction]:
    """The agreeing share of the panel after each turn of a discussion, given the (turn,
    agent, phase, agreement marker or None) of each message: a draft, a synthesis or an
    improve that does not agree installs a new draft that its author alone agrees with."""
    agreeing: dict[int, bool] = {}
    after: dict[int, Fraction] = {}
    for turn, agent, phase, agreement in discussion:
        if phase in ("draft", "central_synthesis") or (phase == "improve" and agreement != "agree"):
            agreeing = {agent: True}
        elif agreement is not None:
            agreeing[agent] = agreement == "agree"
        after[turn] = Fraction(sum(agreeing.values()), n)
    return list(after.values())


def points(protocol: str, parsed, k: int) -> dict[int, int]:
    """The points a valid ballot gives the candidates 1..k: a plurality vote one to its
    choice, an approval ballot one to each it approves, a Borda ranking k - 1 - p to the
    candidate at position p, and a cumulative ballot the points it allots."""
    if protocol == "simple_voting":
        return {parsed: 1}
    if protocol == "approval_voting":
        return dict.fromkeys(parsed, 1)
    if protocol == "ranked_voting":
        return {candidate: k - 1 - position for position, candidate in enumerate(parsed)}
    return dict(parsed)


def scores(ballots: list[dict[int, int]], k: int) -> dict[int, int]:
    """Each candidate 1..k with the sum of the `points` of each ballot."""
    totals = dict.fromkeys(range(1, k + 1), 0)
    for ballot in ballots:
        for candidate, given in ballot.items():
            totals[candidate] += given
    return totals


def winners(totals: dict[int, int]) -> set[int]:
    """The candidates with the most points."""
    best = max(totals.values())
    return {candidate for candidate, given in totals.items() if given == best}
