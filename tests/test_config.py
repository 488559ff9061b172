"""Config vocabulary, overlay expansion, and typed job parameters. Each config
that preparation refuses is a `REFUSALS` row in test_cli.py."""

from __future__ import annotations

import json
import os
from fractions import Fraction
from importlib import resources
from typing import NamedTuple, Optional

import pytest

from agora import decisions, prompts
from agora.agents import TRAIT_OPTIONS, build_panel
from agora.config import (
    CHOICES,
    CONFIG_KEYS,
    BatchConfig,
    ConfigError,
    JobParams,
    expand_config,
    resolve_job_params,
)
from agora.domain import ParadigmKind
from agora.gateway import ChatResponse
from agora.paradigms import schedule


# -- vocabulary --


def test_config_key_vocabulary_is_pinned():
    assert len(CONFIG_KEYS) == 20


class PersonaBackend:
    """Answers every persona request with a new role and a new trait vector."""

    def __init__(self) -> None:
        self.calls = 0

    def complete(self, req) -> ChatResponse:
        self.calls += 1
        traits = {name: options[0] for name, options in TRAIT_OPTIONS.items()}
        traits["Openness"] = TRAIT_OPTIONS["Openness"][self.calls]
        persona = {"role": f"Role {self.calls}", "description": "d", "traits": traits}
        return ChatResponse(text=json.dumps(persona))


def test_every_accepted_choice_has_an_engine_dispatch():
    # A value the config accepts must never pass validation and then find no
    # prompt, schedule, panel builder or decision rule at run time.
    for value in CHOICES["persona_generator"]:
        profiles = build_panel(3, value, "t", PersonaBackend())
        assert len(profiles) == 3
    for value in CHOICES["discussion_paradigm"]:
        steps = schedule(ParadigmKind(value), 3, 2)
        assert steps
        for generator in CHOICES["response_generator"]:
            for step in steps:  # every step of every paradigm has its turn prompt
                assert prompts.render_turn_user_prompt(generator, step.phase)
    # ... and every turn prompt belongs to a generator the config accepts.
    templates = {path.name for path in resources.files("agora.templates").iterdir()}
    turn_prompts = {name for name in templates if name.endswith(("_improve.txt", "_feedback.txt", "_revise.txt"))}
    assert {name.rpartition("_")[0] for name in turn_prompts} == CHOICES["response_generator"]
    protocols = CHOICES["decision_protocol"]
    voting = protocols - decisions.CONSENSUS_PROTOCOLS - {"judge"}
    assert decisions.VOTING_PROTOCOLS == voting
    for protocol in decisions.VOTING_PROTOCOLS:
        assert "Solution 2: b" in prompts.render_vote_user(protocol, "t", "q", ["a", "b"])
    for protocol in protocols & decisions.CONSENSUS_PROTOCOLS:
        assert decisions.consensus_reached(Fraction(1), protocol)


# Each config map and the JobParams it resolves to: DEFAULTS with the row's
# fields, or with the map itself where its values need no conversion (None).
# `env` is AGORA_API_KEY, unset where None; `http` resolves for the HTTP
# backend. Each map the resolver refuses is a REFUSALS row in test_cli.py.
DEFAULTS = JobParams(
    endpoint_url="", api_key="", model_name="", input_json_file_path="", output_json_file_path="",
    task_instruction_prompt_template="", concurrent_api_requests=8, num_samples=None, max_turns=7,
    response_generator="simple", decision_protocol="majority_consensus", use_baseline=False, use_chain_of_thought=True,
    persona_generator="none", discussion_paradigm="memory", num_agents=3, seed=0, cumulative_points=10,
    voting_after_turns=3, debate_exchanges=2,
)


class Resolved(NamedTuple):
    params: dict
    fields: Optional[dict] = None
    env: Optional[str] = None
    http: bool = False


RESOLVED = {
    "defaults": Resolved({}),
    "string integers": Resolved({"max_turns": " 5 ", "num_agents": "4"}, {"max_turns": 5, "num_agents": 4}),
    "string booleans": Resolved({"use_baseline": "True", "use_chain_of_thought": "false"},
                                {"use_baseline": True, "use_chain_of_thought": False}),
    "api key from the environment": Resolved({}, {"api_key": "from-env"}, env="from-env"),
    "api key over the environment": Resolved({"api_key": "explicit"}, env="from-env"),
    **{
        f"smallest {paradigm} panel": Resolved({"discussion_paradigm": paradigm, "num_agents": smallest})
        for paradigm, smallest in (("memory", 2), ("relay", 2), ("report", 3), ("debate", 3))
    },
    "two exchanges": Resolved({"discussion_paradigm": "debate", "debate_exchanges": 2}),
    "voting on the last turn": Resolved({"decision_protocol": "judge", "voting_after_turns": 3, "max_turns": 3}),
    # The voting-turn rule is a voting protocol's, and a baseline holds no debate.
    "consensus past the turn cap": Resolved({"decision_protocol": "unanimity_consensus", "voting_after_turns": 5, "max_turns": 3}),
    "baseline": Resolved({"use_baseline": True, "discussion_paradigm": "report", "num_agents": 2,
                          "decision_protocol": "simple_voting", "voting_after_turns": 5, "max_turns": 3}),
    # Present is what the HTTP backend asks: an empty model name is the endpoint's to refuse.
    "empty model on http": Resolved({"endpoint_url": "http://x", "model_name": ""}, http=True),
}


@pytest.mark.parametrize("row", RESOLVED)
def test_a_config_map_resolves_to_its_job_params(monkeypatch, row):
    params, fields, env, http = RESOLVED[row]
    monkeypatch.delenv("AGORA_API_KEY", raising=False)
    if env is not None:
        monkeypatch.setenv("AGORA_API_KEY", env)
    assert resolve_job_params(params, http_backend=http) == DEFAULTS._replace(**(params if fields is None else fields))


# Each batch and its jobs: name, repeat and params (the run overlaid on
# common, with the repeat's log). No row changes the config it expands.
COMMON = {"endpoint_url": "http://x", "model_name": "m", "input_json_file_path": "i.json"}
EXPANDED = {
    "the run wins": ({"common": {**COMMON, "max_turns": 7, "output_json_file_path": "c.json"},
                      "runs": [{"output_json_file_path": "out/a.json", "max_turns": 3}]},
                     [("a", 1, {**COMMON, "max_turns": 3, "output_json_file_path": "out/a-r1.json"})]),
    "named by the log's stem": ({"common": COMMON, "runs": [{"output_json_file_path": "results/approval-study.json"}]},
                                [("approval-study", 1, {**COMMON, "output_json_file_path": "results/approval-study-r1.json"})]),
    "repeats": ({"repeats": 3, "common": COMMON, "runs": [{"output_json_file_path": "out/majority.json"}]},
                [("majority", r, {**COMMON, "output_json_file_path": f"out/majority-r{r}.json"}) for r in (1, 2, 3)]),
    "runs times repeats": ({"repeats": 2, "common": COMMON, "runs": [{"output_json_file_path": f"out/{run}.json"} for run in "abc"]},
                           [(run, r, {**COMMON, "output_json_file_path": f"out/{run}-r{r}.json"}) for run in "abc" for r in (1, 2)]),
    "no common": ({"runs": [{"input_json_file_path": "i.json", "output_json_file_path": "o.json"}]},
                  [("o", 1, {"input_json_file_path": "i.json", "output_json_file_path": "o-r1.json"})]),
    # `name` labels the file for its reader only.
    "the top-level name is ignored": ({"name": "my-experiment", "common": COMMON, "runs": [{"output_json_file_path": "o.json"}]},
                                      [("o", 1, {**COMMON, "output_json_file_path": "o-r1.json"})]),
}


@pytest.mark.parametrize("row", EXPANDED)
def test_a_batch_expands_to_its_jobs(tmp_path, row):
    data, jobs = EXPANDED[row]
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    cfg = BatchConfig.load(path)
    assert [(job.name, job.repeat_index, job.params) for job in expand_config(cfg)] == jobs
    assert cfg == BatchConfig.load(path)


def test_from_dict_validates_shape():
    with pytest.raises(ConfigError):
        BatchConfig.from_dict({"runs": []})
    with pytest.raises(ConfigError):
        BatchConfig.from_dict({"runs": [{}], "repeats": 0})
    with pytest.raises(ConfigError):
        BatchConfig.from_dict({"runs": [{}], "repeats": True})
    with pytest.raises(ConfigError):
        BatchConfig.from_dict({"runs": ["not an object"]})


def test_load_rejects_missing_and_malformed(tmp_path):
    with pytest.raises(ConfigError):
        BatchConfig.load(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("[]", encoding="utf-8")
    with pytest.raises(ConfigError):
        BatchConfig.load(bad)


def test_expand_missing_required_after_overlay():
    cfg = BatchConfig.from_dict({"common": {"endpoint_url": "http://x"}, "runs": [{"output_json_file_path": "o.json"}]})
    with pytest.raises(ConfigError) as exc:
        expand_config(cfg)
    assert str(exc.value) == "run 1 is missing required key(s) after overlay: input_json_file_path"


def test_expand_rejects_an_output_path_that_is_not_a_string():
    cfg = BatchConfig.from_dict({"common": {"input_json_file_path": "i.json"}, "runs": [{"output_json_file_path": None}]})
    with pytest.raises(ConfigError) as caught:
        expand_config(cfg)
    assert str(caught.value) == "output_json_file_path must be a string, got NoneType"


def test_expand_refuses_a_relative_and_an_absolute_spelling_of_one_log():
    # Not a REFUSALS row: the absolute spelling, and so the line, holds the
    # path of the test's own workspace. The line names the first writer.
    absolute = os.path.abspath("b.json")
    runs = [{"output_json_file_path": path} for path in ("b.json", "c.json", absolute)]
    with pytest.raises(ConfigError) as caught:
        expand_config(BatchConfig.from_dict({"common": {"input_json_file_path": "i.json"}, "runs": runs}))
    assert str(caught.value) == f"runs 1 and 3 both write {absolute!r}"


def test_log_view_hides_api_key_and_sorts_keys():
    params = resolve_job_params({"api_key": "secret", "num_samples": 5})
    entry = params.to_log()
    assert "api_key" not in entry
    assert "secret" not in json.dumps(entry)
    assert list(entry) == sorted(entry)
    assert entry["num_samples"] == 5


def test_log_view_drops_unset_num_samples():
    entry = resolve_job_params({}).to_log()
    assert "num_samples" not in entry
    # Everything else in the vocabulary is present.
    assert len(entry) == len(CONFIG_KEYS) - 2


def test_job_params_is_frozen():
    params = JobParams()
    with pytest.raises(AttributeError):
        params.max_turns = 3
