"""Acceptance gate: independently-written oracles against the shipped behavior.

Each test covers one release criterion; the conftest terminal hook prints a
PASS/FAIL verdict line per test at the end of the run. The criteria:
exhaustive voting-oracle equivalence, the consensus threshold table, paradigm
visibility sweeps, byte-pinned golden logs, config-expansion oracles, pinned
metric values, repeat statistics, the gateway concurrency bound, and the
prompt-catalog digests.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

from agora.config import BatchConfig, expand_config, resolve_job_params
from agora.decisions import Ballot, consensus_reached, tally
from agora.domain import Persona, Phase, TaskInstance
from agora.evaluation import aggregate
from agora.gateway import ChatMessage, ChatRequest, HttpGateway, script_from_dict
from agora.metrics import bleu, meteor_lite, rouge
from agora.paradigms import ParadigmKind, run_turn
from agora.prompts import (
    RESPONSE_GENERATORS,
    render_cot_system,
    render_discussion_system,
    render_extraction_user,
    render_judge_user,
    render_turn_user_prompt,
    render_vote_user,
)
from agora.runner import run_sample, serialize_record
from paper_rules import CONSENSUS, points, scores, visible, winners
from recording import DRAFT_HOOK, EXTRACTION_HOOK, IMPROVE_HOOK, SIMPLE_VOTE_HOOK, CountingTransport, Recording, make_state

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parent / "data"


def ballot(parsed) -> Ballot:
    return Ballot(voter=0, raw_text=str(parsed), parsed=parsed, valid=True)


# -- criterion 1: voting rules vs a brute-force oracle --


def test_criterion_1_voting_rule_oracle_equivalence():
    started = time.monotonic()
    checked = 0

    # Every profile of plurality votes, of non-empty approval sets and of
    # complete Borda rankings, over 1-4 voters and 1-4 candidates.
    options_of = {
        "simple_voting": list,
        "approval_voting": lambda candidates: [set(combo) for size in range(1, len(candidates) + 1)
                                               for combo in itertools.combinations(candidates, size)],
        "ranked_voting": lambda candidates: [list(ranking) for ranking in itertools.permutations(candidates)],
    }
    for protocol, total in zip(options_of, [494, 494 + 57164, 494 + 57164 + 347788]):
        for n in range(1, 5):
            for k in range(1, 5):
                options = options_of[protocol](range(1, k + 1))
                prebuilt = [ballot(option) for option in options]
                given = [points(protocol, option, k) for option in options]
                for profile in itertools.product(range(len(options)), repeat=n):
                    expected = winners(scores([given[i] for i in profile], k))
                    got = tally(protocol, [prebuilt[i] for i in profile], k)
                    assert got.winners == expected, (protocol, profile, k)
                    checked += 1
        assert checked == total

    # Cumulative: seeded random point allocations within a budget of 10.
    rng = random.Random(20240817)
    for _ in range(10_000):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        candidates = list(range(1, k + 1))
        profile = []
        for _voter in range(n):
            remaining = 10
            allocation: dict[int, int] = {}
            for c in rng.sample(candidates, k=rng.randint(1, k)):
                share = rng.randint(0, remaining)
                if share:
                    allocation[c] = share
                    remaining -= share
            profile.append(allocation)
        expected = winners(scores([points("cumulative_voting", a, k) for a in profile], k))
        got = tally("cumulative_voting", [ballot(a) for a in profile], k)
        assert got.winners == expected, (profile, k)
        checked += 1

    elapsed = time.monotonic() - started
    assert checked == 494 + 57164 + 347788 + 10_000
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


# -- criterion 2: consensus thresholds as exact rationals --


def test_criterion_2_consensus_threshold_table():
    started = time.monotonic()
    for n in range(2, 7):
        for agreed in range(0, n + 1):
            fraction = Fraction(agreed, n)
            for protocol, bar in CONSENSUS.items():
                assert consensus_reached(fraction, protocol) == bar(fraction), (protocol, agreed, n)
    # The documented boundary: two thirds clears the 66 percent bar.
    assert consensus_reached(Fraction(2, 3), "supermajority_consensus")
    assert not consensus_reached(Fraction(33, 50), "supermajority_consensus")
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"threshold table took {elapsed:.3f}s"


# -- criterion 3: what each paradigm lets a speaker see --


def visibility_debate(kind: ParadigmKind, seed: int):
    if kind in (ParadigmKind.MEMORY, ParadigmKind.RELAY):
        n_agents = 2 + seed % 4
    else:
        n_agents = 3 + seed % 4
    turns = 1 + seed % 3
    rules = [{"match": [], "response": f"tok{i} [DISAGREE]"} for i in range(64)]
    backend = Recording(script_from_dict({"rules": rules}))
    state = make_state(n_agents, discussion_paradigm=kind.value, max_turns=turns)
    for _ in range(turns):
        run_turn(state, backend)
    return state, backend, n_agents


def test_criterion_3_paradigm_visibility():
    started = time.monotonic()
    violations = 0
    prompts_checked = 0
    for kind in ParadigmKind:
        for seed in range(100):
            state, backend, n_agents = visibility_debate(kind, seed)
            messages = state.debate_messages()
            assert len(backend.requests) == len(messages)
            for index, request in enumerate(backend.requests):
                message = messages[index]
                assert (request.kind, request.agent) == (message.phase, message.agent_id)
                assert request.messages[0].role == "system"
                system_text = request.messages[0].content
                _, _, memory_section = system_text.partition("Discussion so far:")
                seen = {int(tok[3:]) for tok in re.findall(r"tok\d+", memory_section)}
                prior = [(m.turn, m.agent_id, m.phase) for m in messages[:index]]
                expected_tokens = set(visible(kind, prior, message.agent_id, message.turn, n_agents))
                if seen != expected_tokens:
                    violations += 1
                prompts_checked += 1
    elapsed = time.monotonic() - started
    assert prompts_checked > 0
    assert violations == 0
    assert elapsed < 30.0, f"visibility sweep took {elapsed:.1f}s"


# -- criterion 4: byte-stable end-to-end logs --


def scenario_unanimity():
    params = resolve_job_params(
        {
            "input_json_file_path": "data/demo.json",
            "output_json_file_path": "logs/unanimity.jsonl",
            "decision_protocol": "unanimity_consensus",
            "num_agents": 3,
            "max_turns": 7,
        }
    )
    sample = TaskInstance(
        id="0001",
        instruction_key="Answer the question.",
        input_lines=("Name the capital of France.",),
        references=("Paris",),
    )
    script = script_from_dict(
        {
            "rules": [
                {
                    "match": [{"contains": DRAFT_HOOK}],
                    "response": "The capital of France is Paris.",
                },
                {
                    "match": [{"contains": IMPROVE_HOOK}],
                    "response": "Correct. [AGREE]",
                    "repeatable": True,
                },
            ]
        }
    )
    return run_sample(params, sample, script)


def scenario_consensus_cap():
    params = resolve_job_params(
        {
            "input_json_file_path": "data/demo.json",
            "output_json_file_path": "logs/cap.jsonl",
            "decision_protocol": "majority_consensus",
            "num_agents": 3,
            "max_turns": 7,
        }
    )
    sample = TaskInstance(
        id="0002",
        instruction_key="Answer the question.",
        input_lines=("Pick the best route to the station.",),
        references=("Take the riverside path.",),
    )
    script = script_from_dict(
        {
            "rules": [
                {
                    "match": [{"contains": DRAFT_HOOK}],
                    "response": "Take the main road.",
                },
                {
                    "match": [{"contains": IMPROVE_HOOK}],
                    "response": "[DISAGREE] The riverside path is faster at rush hour.",
                    "repeatable": True,
                },
            ]
        }
    )
    return run_sample(params, sample, script)


def scenario_voting_tie():
    params = resolve_job_params(
        {
            "input_json_file_path": "data/demo.json",
            "output_json_file_path": "logs/tie.jsonl",
            "decision_protocol": "simple_voting",
            "num_agents": 2,
            "max_turns": 7,
        }
    )
    sample = TaskInstance(
        id="0003",
        instruction_key="Answer the question.",
        input_lines=("Summarize the meeting outcome.",),
        references=("The budget was approved.",),
    )
    script = script_from_dict(
        {
            "rules": [
                {"match": [{"contains": DRAFT_HOOK}], "response": "Budget approved."},
                {
                    "match": [{"contains": IMPROVE_HOOK}],
                    "response": "[DISAGREE] It needs the vote margin too.",
                    "repeatable": True,
                },
                {"match": [{"contains": EXTRACTION_HOOK}], "response": "Answer alpha."},
                {"match": [{"contains": EXTRACTION_HOOK}], "response": "Answer beta."},
                {
                    "match": [{"contains": EXTRACTION_HOOK}],
                    "response": "Answer alpha revised.",
                },
                {
                    "match": [{"contains": EXTRACTION_HOOK}],
                    "response": "Answer beta revised.",
                },
                {"match": [{"contains": SIMPLE_VOTE_HOOK}], "response": "1"},
                {"match": [{"contains": SIMPLE_VOTE_HOOK}], "response": "2"},
                {"match": [{"contains": SIMPLE_VOTE_HOOK}], "response": "2"},
                {"match": [{"contains": SIMPLE_VOTE_HOOK}], "response": "2"},
            ]
        }
    )
    return run_sample(params, sample, script)


GOLDEN_SCENARIOS = (
    ("unanimity-turn1", scenario_unanimity),
    ("consensus-cap", scenario_consensus_cap),
    ("voting-tie-extra-round", scenario_voting_tie),
)


def test_criterion_4_golden_logs():
    for name, build in GOLDEN_SCENARIOS:
        first = serialize_record(build()) + "\n"
        second = serialize_record(build()) + "\n"
        assert first == second, f"{name} not deterministic within a process"
        pinned = (GOLDEN / f"{name}.jsonl").read_bytes()
        assert first.encode("utf-8") == pinned, f"{name} drifted from the pinned log"

    # Spot-check the scenario shapes so the pins stay meaningful.
    unanimity = scenario_unanimity()
    assert unanimity["outcome"]["success"] is True
    assert unanimity["outcome"]["decidedAtTurn"] == 1
    assert unanimity["globalClockMs"] == 0

    cap = scenario_consensus_cap()
    assert cap["outcome"]["success"] is False
    assert max(m["turn"] for m in cap["messages"]) == 7

    tie = scenario_voting_tie()
    assert tie["outcome"]["success"] is True
    assert tie["outcome"]["tieBroken"] == "extra_round"
    assert len(tie["outcome"]["voteDetail"]) == 2
    assert tie["outcome"]["voteDetail"][0]["winners"] == [1, 2]
    assert tie["outcome"]["voteDetail"][1]["winners"] == [2]


# -- criterion 5: config expansion against a naive merge oracle --


def test_criterion_5_config_expansion():
    cfg = BatchConfig.load(DATA / "protocol_sweep.json")
    jobs = expand_config(cfg)
    assert len(jobs) == 27

    stems = [
        "baseline-cot",
        "baseline",
        "approval",
        "cumulative",
        "majority_consensus",
        "supermajority_consensus",
        "unanimity_consensus",
        "voting",
        "ranked",
    ]
    assert [job.name for job in jobs] == [s for s in stems for _ in range(3)]
    assert [job.repeat_index for job in jobs] == [1, 2, 3] * 9
    for job in jobs:
        assert job.params["output_json_file_path"] == f"results/{job.name}-r{job.repeat_index}.json"
        assert job.params["concurrent_api_requests"] == 200
        assert job.params["max_turns"] == 5

    rng = random.Random(411)
    keys = [
        "endpoint_url",
        "api_key",
        "model_name",
        "task_instruction_prompt_template",
        "concurrent_api_requests",
        "num_samples",
        "max_turns",
        "response_generator",
        "decision_protocol",
        "use_baseline",
        "use_chain_of_thought",
        "persona_generator",
        "discussion_paradigm",
        "num_agents",
        "seed",
    ]
    for trial in range(50):
        common = {
            "endpoint_url": "http://example.test",
            "model_name": "m",
            "input_json_file_path": "in.json",
        }
        run = {"output_json_file_path": "out/run.jsonl"}
        for key in rng.sample(keys, k=rng.randint(1, len(keys))):
            common[key] = f"common-{key}-{trial}"
        for key in rng.sample(keys, k=rng.randint(1, len(keys))):
            run[key] = f"run-{key}-{trial}"
        # Naive merge oracle: run-level values always shadow common ones.
        merged = {**common, **run}
        merged["output_json_file_path"] = "out/run-r1.jsonl"
        expanded = expand_config(
            BatchConfig(repeats=1, common=common, runs=(run,))
        )
        assert len(expanded) == 1
        assert expanded[0].params == merged, trial


# -- criterion 6: pinned metric values --


def test_criterion_6_metric_exactness():
    assert abs(bleu("the the the", ["the cat"], max_n=1) - 1 / 3) < 1e-9
    assert abs(rouge("the cat sat", "the cat sat on the mat", 1) - 2 / 3) < 1e-9
    assert abs(meteor_lite("one two three", "one two three") - 0.981481) < 1e-6


# -- criterion 7: repeat statistics --


def test_criterion_7_repeat_statistics():
    stats = aggregate([0.4, 0.6])
    assert abs(stats.std - 0.141421) < 1e-6
    assert aggregate([0.7, 0.7, 0.7, 0.7]).std == 0.0

    rng = random.Random(97)
    for _ in range(1_000):
        values = [rng.random() for _ in range(rng.randint(2, 9))]
        shuffled = values[:]
        rng.shuffle(shuffled)
        base = aggregate(values)
        permuted = aggregate(shuffled)
        assert base.mean == permuted.mean
        assert base.std == permuted.std


# -- criterion 8: endpoint concurrency cap and wire defaults --


def test_criterion_8_gateway_concurrency_bound():
    transport = CountingTransport()
    gateway = HttpGateway(
        "http://counting.invalid", max_in_flight=8, transport=transport
    )
    with ThreadPoolExecutor(max_workers=32) as pool:
        futures = [
            pool.submit(gateway.complete, ChatRequest((ChatMessage("user", f"q{i}"),)))
            for i in range(200)
        ]
        for future in futures:
            assert future.result().text == CountingTransport.REPLY
    assert len(transport.bodies) == 200
    assert transport.max_in_flight <= 8
    # Sanity: the pool really did overlap requests.
    assert transport.max_in_flight >= 2
    for body in transport.bodies:
        assert body["temperature"] == 1.0
        assert body["top_p"] == 1.0
        assert body["max_tokens"] == 1024


# -- criterion 9: prompt catalog digests --


# Each discussion step and the name its turn prompt has in the catalog.
TURN_PROMPTS = ((Phase.IMPROVE, "improve"), (Phase.FEEDBACK, "feedback"), (Phase.CENTRAL_SYNTHESIS, "revise"))


def prompt_catalog() -> dict[str, str]:
    """Eighteen canonical renderings with fixed inputs."""
    persona = Persona(
        name="Consulting Detective",
        description="Solves puzzles with careful deduction.",
    )
    task = "Answer the question."
    question = "Which gas do plants absorb from the atmosphere?"
    candidates = ["Carbon dioxide.", "Oxygen.", "Nitrogen."]
    entries: dict[str, str] = {}
    for generator in RESPONSE_GENERATORS:
        for phase, prompt in TURN_PROMPTS:
            entries[f"turn-{generator}-{prompt}"] = render_turn_user_prompt(generator, phase)
    for protocol in (
        "simple_voting",
        "approval_voting",
        "cumulative_voting",
        "ranked_voting",
    ):
        entries[f"vote-{protocol}"] = render_vote_user(
            protocol, task, question, candidates, points=10
        )
    entries["judge"] = render_judge_user(task, question, candidates)
    entries["extraction"] = render_extraction_user(
        task, question, "It is carbon dioxide; photosynthesis consumes it."
    )
    entries["baseline-cot"] = render_cot_system(task, question)
    entries["discussion-system-first-draft"] = render_discussion_system(
        persona, task, question
    )
    entries["discussion-system-with-draft"] = render_discussion_system(
        persona,
        task,
        question,
        draft_text="Plants absorb carbon dioxide.",
        memory_text="Participant 2: I think it is carbon dioxide.",
    )
    return entries


def test_criterion_9_prompt_catalog_digests():
    catalog = prompt_catalog()
    assert len(catalog) == 18
    digests = {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in catalog.items()
    }
    pinned = json.loads((GOLDEN / "prompt_digests.json").read_text(encoding="utf-8"))
    assert digests == pinned
