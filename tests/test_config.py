"""Config vocabulary, overlay expansion, and typed job parameters."""

from __future__ import annotations

import json
import os
from fractions import Fraction

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


def batch(**overrides) -> BatchConfig:
    data = {
        "common": {
            "endpoint_url": "http://localhost:8080",
            "model_name": "test-model",
            "input_json_file_path": "in.json",
        },
        "runs": [{"output_json_file_path": "out/majority.json"}],
    }
    data.update(overrides)
    return BatchConfig.from_dict(data)


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
    protocols = CHOICES["decision_protocol"]
    voting = protocols - decisions.CONSENSUS_PROTOCOLS - {"judge"}
    assert decisions.VOTING_PROTOCOLS == voting
    for protocol in decisions.VOTING_PROTOCOLS:
        assert "Solution 2: b" in prompts.render_vote_user(protocol, "t", "q", ["a", "b"])
    for protocol in protocols & decisions.CONSENSUS_PROTOCOLS:
        assert decisions.consensus_reached(Fraction(1), protocol)


def test_unknown_key_rejected_in_common_and_runs():
    # The config checks only its top level; each job's keys are checked as
    # the job is resolved, whichever of common and the run holds them.
    (job,) = expand_config(batch(common={"input_json_file_path": "in.json", "endpoiint_url": "x"}))
    with pytest.raises(ConfigError, match="^unknown config key 'endpoiint_url'$"):
        resolve_job_params(job.params)
    (job,) = expand_config(batch(runs=[{"output_json_file_path": "o.json", "turns": 3}]))
    with pytest.raises(ConfigError, match="^unknown config key 'turns'$"):
        resolve_job_params(job.params)


def test_from_dict_validates_shape():
    with pytest.raises(ConfigError):
        BatchConfig.from_dict({"runs": []})
    with pytest.raises(ConfigError):
        BatchConfig.from_dict({"runs": [{}], "repeats": 0})
    with pytest.raises(ConfigError):
        BatchConfig.from_dict({"runs": [{}], "repeats": True})
    with pytest.raises(ConfigError):
        BatchConfig.from_dict({"runs": ["not an object"]})


def test_the_top_level_name_is_accepted_and_ignored():
    assert batch(name="my-experiment") == batch()


def test_load_reads_json(tmp_path):
    path = tmp_path / "batch.json"
    path.write_text(
        json.dumps(
            {
                "common": {"endpoint_url": "http://x", "model_name": "m",
                           "input_json_file_path": "i.json"},
                "runs": [{"output_json_file_path": "o.json"}],
            }
        ),
        encoding="utf-8",
    )
    cfg = BatchConfig.load(path)
    assert cfg.repeats == 1
    assert cfg.runs[0]["output_json_file_path"] == "o.json"


def test_load_rejects_missing_and_malformed(tmp_path):
    with pytest.raises(ConfigError):
        BatchConfig.load(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("[]", encoding="utf-8")
    with pytest.raises(ConfigError):
        BatchConfig.load(bad)


# -- expansion --


def test_expand_run_overrides_common():
    cfg = batch(
        common={
            "endpoint_url": "http://x",
            "model_name": "m",
            "input_json_file_path": "i.json",
            "max_turns": 7,
        },
        runs=[{"output_json_file_path": "out/a.json", "max_turns": 3}],
    )
    (job,) = expand_config(cfg)
    assert job.params["max_turns"] == 3
    assert job.params["endpoint_url"] == "http://x"


def test_expand_names_jobs_after_output_stem():
    cfg = batch(runs=[{"output_json_file_path": "results/approval-study.json"}])
    (job,) = expand_config(cfg)
    assert job.name == "approval-study"


def test_expand_repeats_suffix_output_paths():
    cfg = batch(repeats=3)
    jobs = expand_config(cfg)
    assert [j.repeat_index for j in jobs] == [1, 2, 3]
    assert [j.params["output_json_file_path"] for j in jobs] == [
        "out/majority-r1.json",
        "out/majority-r2.json",
        "out/majority-r3.json",
    ]
    assert all(j.name == "majority" for j in jobs)


def test_expand_counts_runs_times_repeats():
    cfg = batch(
        repeats=2,
        runs=[
            {"output_json_file_path": "out/a.json"},
            {"output_json_file_path": "out/b.json"},
            {"output_json_file_path": "out/c.json"},
        ],
    )
    jobs = expand_config(cfg)
    assert len(jobs) == 6
    assert [j.name for j in jobs] == ["a", "a", "b", "b", "c", "c"]


def test_expand_rejects_two_runs_writing_one_log():
    # Both would write out/a-r1.json; the later log would replace the earlier.
    cfg = batch(
        runs=[
            {"output_json_file_path": "out/a.json"},
            {"output_json_file_path": "out/b.json"},
            {"output_json_file_path": "out/./a.json", "max_turns": 3},
        ],
    )
    with pytest.raises(ConfigError) as exc:
        expand_config(cfg)
    assert "runs 1 and 3" in str(exc.value)
    assert "out/./a.json" in str(exc.value)
    # A relative and an absolute spelling of one file collide as well.
    absolute = os.path.abspath("b.json")
    cfg = batch(runs=[{"output_json_file_path": "b.json"}, {"output_json_file_path": absolute}])
    with pytest.raises(ConfigError, match="runs 1 and 2"):
        expand_config(cfg)


def test_expand_missing_required_after_overlay():
    cfg = batch(common={"endpoint_url": "http://x"})
    with pytest.raises(ConfigError) as exc:
        expand_config(cfg)
    assert str(exc.value) == "run 1 is missing required key(s) after overlay: input_json_file_path"


def test_only_the_http_backend_requires_the_endpoint_keys():
    cfg = BatchConfig.from_dict(
        {
            "common": {"input_json_file_path": "i.json"},
            "runs": [{"output_json_file_path": "o.json"}],
        }
    )
    (job,) = expand_config(cfg)
    assert job.params["output_json_file_path"] == "o-r1.json"
    assert resolve_job_params(job.params).endpoint_url == ""
    with pytest.raises(ConfigError) as exc:
        resolve_job_params(job.params, http_backend=True)
    assert str(exc.value) == "missing required key(s) for the http backend: endpoint_url, model_name"
    with_url = {**job.params, "endpoint_url": "http://x"}
    with pytest.raises(ConfigError, match=r"^missing required key\(s\) for the http backend: model_name$"):
        resolve_job_params(with_url, http_backend=True)
    # Present is what the rule asks: an empty model name is the endpoint's to refuse.
    assert resolve_job_params({**with_url, "model_name": ""}, http_backend=True).model_name == ""


def test_expand_does_not_mutate_source_config():
    cfg = batch(repeats=2)
    expand_config(cfg)
    assert cfg.runs[0]["output_json_file_path"] == "out/majority.json"


# -- typed params --


def test_resolve_defaults():
    params = resolve_job_params({})
    assert params.concurrent_api_requests == 8
    assert params.num_samples is None
    assert params.max_turns == 7
    assert params.response_generator == "simple"
    assert params.decision_protocol == "majority_consensus"
    assert params.use_baseline is False
    assert params.use_chain_of_thought is True
    assert params.persona_generator == "none"
    assert params.discussion_paradigm == "memory"
    assert params.num_agents == 3
    assert params.seed == 0
    assert params.cumulative_points == 10
    assert params.voting_after_turns == 3
    assert params.debate_exchanges == 2


def test_resolve_accepts_string_integers():
    params = resolve_job_params({"max_turns": " 5 ", "num_agents": "4"})
    assert params.max_turns == 5
    assert params.num_agents == 4


def test_resolve_rejects_an_integer_key_given_a_fraction():
    with pytest.raises(ConfigError, match="^max_turns must be an integer, got float$"):
        resolve_job_params({"max_turns": 3.5})


def test_resolve_rejects_bad_values():
    with pytest.raises(ConfigError):
        resolve_job_params({"max_turns": "many"})
    with pytest.raises(ConfigError):
        resolve_job_params({"max_turns": True})
    with pytest.raises(ConfigError):
        resolve_job_params({"max_turns": 0})
    with pytest.raises(ConfigError):
        resolve_job_params({"num_agents": 1})
    with pytest.raises(ConfigError):
        resolve_job_params({"seed": -1})
    with pytest.raises(ConfigError):
        resolve_job_params({"use_baseline": "yes"})
    with pytest.raises(ConfigError):
        resolve_job_params({"response_generator": "clever"})
    with pytest.raises(ConfigError):
        resolve_job_params({"decision_protocol": "coin_flip"})


@pytest.mark.parametrize(
    "key, value",
    [("model_name", ["m"]), ("input_json_file_path", 5), ("output_json_file_path", None),
     ("api_key", 7), ("endpoint_url", {"url": "http://x"}),
     ("task_instruction_prompt_template", True)],
)
def test_resolve_rejects_a_string_key_of_another_type(key, value):
    with pytest.raises(ConfigError) as caught:
        resolve_job_params({key: value})
    assert str(caught.value) == f"{key} must be a string, got {type(value).__name__}"


def test_expand_rejects_an_output_path_that_is_not_a_string():
    with pytest.raises(ConfigError) as caught:
        expand_config(batch(runs=[{"output_json_file_path": None}]))
    assert str(caught.value) == "output_json_file_path must be a string, got NoneType"


# Values the debate engine trusts once a job is prepared, each refused here
# with the message `run` and `--dry-run` print after `<config>: <job> r<N>: `.
@pytest.mark.parametrize(
    "params, message",
    [
        ({"discussion_paradigm": "memory", "num_agents": 1}, "num_agents must be >= 2, got 1"),
        ({"discussion_paradigm": "relay", "num_agents": 1}, "num_agents must be >= 2, got 1"),
        (
            {"discussion_paradigm": "report", "num_agents": 2},
            "num_agents=2 is too small: report needs a central agent plus at least 2 peers",
        ),
        (
            {"discussion_paradigm": "debate", "num_agents": 2},
            "num_agents=2 is too small: debate needs a central agent plus at least 2 peers",
        ),
        ({"decision_protocol": "cumulative_voting", "cumulative_points": 0}, "cumulative_points must be >= 1, got 0"),
        ({"num_samples": 0}, "num_samples must be >= 1, got 0"),
        ({"discussion_paradigm": "debate", "debate_exchanges": 1}, "debate_exchanges must be >= 2, got 1"),
        ({"persona_generator": "mystery"}, "persona_generator must be one of expert, ipip, none; got 'mystery'"),
        (
            {"decision_protocol": "coin_flip"},
            "decision_protocol must be one of approval_voting, cumulative_voting, judge, majority_consensus, "
            "ranked_voting, simple_voting, supermajority_consensus, unanimity_consensus; got 'coin_flip'",
        ),
        (
            {"decision_protocol": "simple_voting", "voting_after_turns": 5, "max_turns": 3},
            "voting_after_turns=5 exceeds max_turns=3: simple_voting would never reach its voting turn",
        ),
    ],
    ids=[
        "memory-1", "relay-1", "report-2", "debate-2", "points-0", "samples-0", "exchanges-1", "generator", "protocol", "vote-late",
    ],
)
def test_preparation_refuses_each_value_the_engine_trusts(params, message):
    with pytest.raises(ConfigError) as caught:
        resolve_job_params(params)
    assert str(caught.value) == message


def test_resolve_accepts_the_smallest_panel_of_each_paradigm_and_two_exchanges():
    for paradigm, smallest in (("memory", 2), ("relay", 2), ("report", 3), ("debate", 3)):
        assert resolve_job_params({"discussion_paradigm": paradigm, "num_agents": smallest}).num_agents == smallest
    assert resolve_job_params({"discussion_paradigm": "debate", "debate_exchanges": 2}).debate_exchanges == 2


def test_resolve_rejects_a_voting_turn_beyond_the_turn_cap():
    for protocol in ("simple_voting", "cumulative_voting", "judge"):
        with pytest.raises(ConfigError, match="voting_after_turns=5"):
            resolve_job_params(
                {"decision_protocol": protocol, "voting_after_turns": 5, "max_turns": 3}
            )
    # Voting on the last turn is still voting.
    params = resolve_job_params(
        {"decision_protocol": "judge", "voting_after_turns": 3, "max_turns": 3}
    )
    assert params.voting_after_turns == params.max_turns


def test_resolve_keeps_consensus_and_baseline_jobs_the_rules_do_not_apply_to():
    consensus = {"decision_protocol": "unanimity_consensus", "voting_after_turns": 5, "max_turns": 3}
    assert resolve_job_params(consensus).voting_after_turns == 5
    baseline = {
        "use_baseline": True,
        "discussion_paradigm": "report",
        "num_agents": 2,
        "decision_protocol": "simple_voting",
        "voting_after_turns": 5,
        "max_turns": 3,
    }
    assert resolve_job_params(baseline).use_baseline is True


def test_resolve_accepts_string_booleans():
    params = resolve_job_params({"use_baseline": "True", "use_chain_of_thought": "false"})
    assert params.use_baseline is True
    assert params.use_chain_of_thought is False


def test_resolve_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key 'turns'"):
        resolve_job_params({"turns": 3})


def test_api_key_envvar_fallback(monkeypatch):
    monkeypatch.setenv("AGORA_API_KEY", "from-env")
    assert resolve_job_params({}).api_key == "from-env"
    assert resolve_job_params({"api_key": "explicit"}).api_key == "explicit"
    monkeypatch.delenv("AGORA_API_KEY")
    assert resolve_job_params({}).api_key == ""


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
