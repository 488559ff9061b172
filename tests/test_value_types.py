"""The value types: each immutable one is a NamedTuple that compares by value
and refuses attribute writes, and no two instances of a mutable one (or two
EvalResults read from files that leave out the same fields) share a dict or
a list."""

from __future__ import annotations

import importlib

import pytest

from agora.config import BatchConfig, JobSpec
from agora.datasets import FieldMapping
from agora.decisions import Ballot, Tally, VoteRound
from agora.domain import (
    AgentProfile,
    DebateState,
    DecisionOutcome,
    JobParams,
    Message,
    Persona,
    Phase,
    Share,
    TaskInstance,
)
from agora.evaluation import EvalResult, RepeatStats
from agora.gateway import (
    ChatMessage,
    ChatRequest,
    ChatResponse,
    DebateBackend,
    MatchClause,
    ScriptedGateway,
    ScriptRule,
)
from agora.paradigms import TurnStep
from agora.runner import JobReport

MODULES = ("config", "datasets", "decisions", "domain", "evaluation", "gateway", "paradigms", "runner")

_BACKEND = ScriptedGateway([ScriptRule("ok")])

# One way to build an example of each immutable type; each call builds a new one.
IMMUTABLE = {
    TaskInstance: lambda: TaskInstance("1", "qa", ("What is 2+2?",), references=("4",)),
    Persona: lambda: Persona("critic", "checks each step", {"rigour": "high"}),
    JobParams: lambda: JobParams(model_name="m", num_agents=4),
    AgentProfile: lambda: AgentProfile(1, Persona("critic"), "raw"),
    Message: lambda: Message(1, 1, 2, Phase.IMPROVE, "Fine. [AGREE]", 5),
    DecisionOutcome: lambda: DecisionOutcome("A", vote_detail=[{"turn": 3}]),
    Share: lambda: Share(2, 3),
    ChatMessage: lambda: ChatMessage("user", "hi"),
    ChatRequest: lambda: ChatRequest((ChatMessage("user", "hi"),), "m"),
    ChatResponse: lambda: ChatResponse("hello", 3, 1, 20),
    DebateBackend: lambda: DebateBackend(_BACKEND, "m"),
    MatchClause: lambda: MatchClause("draft", "user"),
    ScriptRule: lambda: ScriptRule("ok", (MatchClause("draft"),), True),
    TurnStep: lambda: TurnStep(2, Phase.FEEDBACK),
    FieldMapping: lambda: FieldMapping(("q",), ("a",), id_field="id"),
    BatchConfig: lambda: BatchConfig(2, {"seed": 1}, ({"num_agents": 3},)),
    JobSpec: lambda: JobSpec("demo", {"seed": 1}, 1),
    Ballot: lambda: Ballot(2, "I vote 1", parsed=1, valid=True),
    Tally: lambda: Tally({1: 2, 2: 0}, {1}),
    VoteRound: lambda: VoteRound(3, ["A", "B"], [Ballot(1, "1", 1, True)], Tally({1: 1, 2: 0}, {1})),
    RepeatStats: lambda: RepeatStats(0.5, 0.1, None),
    EvalResult: lambda: EvalResult(
        "demo", 2, {"accuracy": 0.5}, {"accuracy": 0.0}, {}, {"accuracy": [0.5]}, 1.0, [1, 3], [0.5]
    ),
}


def test_every_public_tuple_type_has_an_example():
    defined = {
        cls
        for module in MODULES
        for name, cls in vars(importlib.import_module(f"agora.{module}")).items()
        if isinstance(cls, type) and issubclass(cls, tuple) and not name.startswith("_")
        and cls.__module__ == f"agora.{module}"
    }
    assert defined == set(IMMUTABLE)


@pytest.mark.parametrize("kind", list(IMMUTABLE), ids=lambda kind: kind.__name__)
def test_an_immutable_value_compares_by_value_and_refuses_writes(kind):
    value = IMMUTABLE[kind]()
    assert type(value) is kind
    assert value == IMMUTABLE[kind]()
    assert value != value._replace(**{value._fields[0]: "other"})
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], "other")
    with pytest.raises(AttributeError):
        value.extra = 1


def test_two_eval_results_share_no_dict_or_list():
    first, second = (EvalResult.from_json({"jobName": name, "repeats": 1}) for name in "ab")
    assert first.decision_success_rate == 0.0
    for name in ("mean", "std", "annotations", "metric_values", "turns", "wall_clock_s"):
        assert getattr(first, name) == getattr(second, name)
        assert getattr(first, name) is not getattr(second, name)


def test_two_debate_states_share_no_dict_or_list():
    first, second = (
        DebateState(JobParams(), TaskInstance("1", "qa", ("x",)), "solve", []) for _ in range(2)
    )
    first.add(1, 1, Phase.DRAFT, "A", 0)
    assert (first.transcript, first.agree_flags) != (second.transcript, second.agree_flags)
    assert (second.transcript, second.agree_flags, second.current_draft) == ([], {}, None)


@pytest.mark.parametrize(
    "build",
    [
        lambda: DebateState(JobParams(), TaskInstance("1", "qa", ("x",)), "solve", []),
        lambda: JobReport("demo", 1, JobParams(), [TaskInstance("1", "qa", ("x",))]),
    ],
    ids=["DebateState", "JobReport"],
)
def test_a_mutable_value_holds_only_its_own_attributes(build):
    value = build()
    with pytest.raises(AttributeError):
        value.typo = 1


def test_two_queued_jobs_share_no_list():
    samples = [TaskInstance("1", "qa", ("x",))] * 2
    first, second = (JobReport("demo", 1, JobParams(), samples) for _ in range(2))
    first.in_flight[0] = {}
    assert second.in_flight == [None, None]
    assert (first.pending, second.pending) == (2, 2)
