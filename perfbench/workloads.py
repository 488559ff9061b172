"""Workload definitions and their seeded input generators.

Each workload is generated from (seed, seconds) alone; the engine sees only
the files written here. Every sample's task instruction carries a unique
``[item ...]`` marker, so every request a debate sends (persona calls
included, which do not quote the input) names its debate, and no two
debates of a workload ever send an identical request.

Why these workloads (each stresses different layers; each is the bypass
case for the others' optimisations):

- protocol-sweep: the paper's traffic shape (tests/data/protocol_sweep.json
  plus a judge run): two baselines, three consensus, four voting and the
  judge protocol, three agents, memory paradigm, max_turns 5, three
  repeats, a few multiple-choice samples per job. Many short jobs, so the
  per-job pool drain leaves slots idle; voting and judge debates make
  sequential extraction+ballot chains; baseline debates are one call, where
  per-call overhead is largest. Stresses runner, decisions and gateway.
- wide-panel: a few large jobs, five agents, max_turns 7, memory and debate
  paradigms, expert personas on half the jobs, unanimity and ranked voting.
  Many samples per job keep the cap saturated, so batch scheduling changes
  should show no change here. Memory prompts grow with the transcript, so
  prompt volume, rendering, persona calls and large records dominate.
  Stresses prompts, paradigms, agents and runner serialisation.
- evaluate-freetext: `evaluate` then `chart` over seed-generated debate
  logs: mostly free-text samples with short XSum-like references and
  candidates of 40-400 tokens, plus a multiple-choice slice. The
  superlinear meteor_lite and bleu costs dominate. A small free-text debate
  batch (relay and report paradigms) runs first so that every end-to-end
  metric exists on every workload; the evaluation is timed on its own.
  Bypass case for every debate-side change.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

MC_INSTRUCTION = (
    "Answer the following multiple-choice question. [item {marker}]\n"
    "Make absolutely sure to provide your solution in the end: 'FINAL SOLUTION: <Letter>'."
)
SUMMARY_INSTRUCTION = "Summarize the following article in a single sentence. [item {marker}]"

# One sample in eight also carries the gold option text as a reference, so
# the free-text metrics run (briefly) on the debate workloads too.
REFERENCE_EVERY = 8

_VOCAB = (
    "harbor council river museum engine village senator league winter market "
    "harvest factory bridge railway island theatre tunnel orchard garrison "
    "festival archive parish colony reactor satellite vaccine drought glacier "
    "canal dynasty quarry tariff pension verdict inquiry treaty strike merger "
    "ferry cable laboratory reservoir census mayor coalition charity airport "
    "stadium hospital prison academy budget ballot rally protest debate "
    "rose fell opened closed announced rejected approved delayed expanded "
    "cut raised warned praised blamed signed planned reported claimed found "
    "after before during while because although despite since until unless "
    "new old local national regional major minor early late public private "
    "first final annual rare heavy light strong weak large small record "
    "the a of in on to for with by from at as and or but not its their"
).split()


class Gen:
    """Shape draws (lengths, counts) and word draws (text) for the inputs.

    The shape stream does not depend on the seed, so every seed of a
    workload yields inputs of the same sizes filled with different words.
    """

    def __init__(self, name: str, seed: int) -> None:
        self.shape = random.Random(f"{name}|shape")
        self.words = random.Random(f"{name}|{seed}")

    def sentence(self, lo: int, hi: int, pool: list[str] = _VOCAB) -> str:
        count = self.shape.randint(lo, hi)
        return " ".join(self.words.choice(pool) for _ in range(count)).capitalize() + "."


def mc_sample(g: Gen, sample_id: str, marker: str, with_reference: bool) -> dict[str, Any]:
    options = [g.sentence(3, 9) for _ in range(4)]
    letter = "ABCD"[g.words.randrange(4)]
    record = {
        "id": sample_id,
        "instruction": MC_INSTRUCTION.format(marker=marker),
        "inputs": [g.sentence(12, 30)[:-1] + "?"]
        + [f"{'ABCD'[i]}) {text}" for i, text in enumerate(options)],
        "context": [],
        "references": [],
        "answerLetter": letter,
    }
    if with_reference:
        record["references"] = [f"({letter}) {options['ABCD'.index(letter)]}"]
    return record


def summary_sample(g: Gen, sample_id: str, marker: str) -> dict[str, Any]:
    paragraphs = [g.sentence(30, 70) for _ in range(g.shape.randint(2, 4))]
    pool = " ".join(paragraphs).lower().replace(".", "").split()
    return {
        "id": sample_id,
        "instruction": SUMMARY_INSTRUCTION.format(marker=marker),
        "inputs": paragraphs,
        "context": [],
        "references": [g.sentence(15, 30, pool)],
    }


def candidate_text(g: Gen, reference: str, pool: list[str]) -> str:
    """40-400 tokens: runs copied from the reference mixed with article words."""
    ref = reference.rstrip(".").lower().split()
    target = g.shape.randint(40, 400)
    tokens: list[str] = []
    while len(tokens) < target:
        if g.shape.random() < 0.35:
            start = g.shape.randrange(len(ref))
            tokens.extend(ref[start : start + g.shape.randint(2, 6)])
        else:
            tokens.extend(g.words.choice(pool) for _ in range(g.shape.randint(3, 12)))
    return " ".join(tokens[:target]).capitalize() + "."


@dataclass
class Job:
    """One config run: its overlay keys and its own dataset."""

    name: str
    overlay: dict[str, Any]
    samples: list[dict[str, Any]]
    repeat: int = 1

    @property
    def output(self) -> str:
        # expand_config appends -r1; the engine renames logs to <name>-r<repeat>
        # before evaluation so repeats group the way `agora evaluate` expects.
        return f"logs/{self.name}-rep{self.repeat}.jsonl"

    @property
    def expanded_output(self) -> str:
        return f"logs/{self.name}-rep{self.repeat}-r1.jsonl"

    @property
    def eval_name(self) -> str:
        return f"{self.name}-r{self.repeat}.jsonl"


@dataclass
class Workload:
    tag: str  # prefix of sample ids and markers
    why: str
    common: dict[str, Any]
    build: Callable[["Gen", str, int, float], "tuple[list[Job], list[tuple[str, list[dict]]]]"]
    eval_repeats: int


def _mc_jobs(g: Gen, tag: str, seed: int, runs: list, repeats: tuple, per_job: int) -> list[Job]:
    """Multiple-choice jobs, one dataset per (run, repeat), in run-major order."""
    jobs = []
    index = 0
    for name, overlay in runs:
        for repeat in repeats:
            samples = []
            for i in range(per_job):
                sid = f"{tag}{len(jobs):02d}-{i:03d}"
                samples.append(mc_sample(g, sid, f"{sid}-s{seed}", index % REFERENCE_EVERY == 0))
                index += 1
            jobs.append(Job(name, overlay, samples, repeat))
    return jobs


def _sweep(g: Gen, tag: str, seed: int, seconds: float):
    runs = [
        ("baseline-cot", {"use_baseline": True}),
        ("baseline", {"use_baseline": True, "use_chain_of_thought": False}),
        ("approval", {"decision_protocol": "approval_voting"}),
        ("cumulative", {"decision_protocol": "cumulative_voting"}),
        ("majority_consensus", {"decision_protocol": "majority_consensus"}),
        ("supermajority_consensus", {"decision_protocol": "supermajority_consensus"}),
        ("unanimity_consensus", {"decision_protocol": "unanimity_consensus"}),
        ("voting", {"decision_protocol": "simple_voting"}),
        ("ranked", {"decision_protocol": "ranked_voting"}),
        ("judge", {"decision_protocol": "judge"}),
    ]
    return _mc_jobs(g, tag, seed, runs, (1, 2, 3), max(1, round(seconds * 4 / 30))), []


def _panel(g: Gen, tag: str, seed: int, seconds: float):
    runs = [
        ("memory-unanimity-expert", {"discussion_paradigm": "memory", "decision_protocol": "unanimity_consensus", "persona_generator": "expert"}),
        ("memory-ranked", {"discussion_paradigm": "memory", "decision_protocol": "ranked_voting"}),
        ("debate-unanimity", {"discussion_paradigm": "debate", "decision_protocol": "unanimity_consensus", "response_generator": "critical"}),
        ("debate-ranked-expert", {"discussion_paradigm": "debate", "decision_protocol": "ranked_voting", "persona_generator": "expert", "response_generator": "critical"}),
    ]
    return _mc_jobs(g, tag, seed, runs, (1,), max(1, round(seconds * 9 / 30))), []


def _evaluate(g: Gen, tag: str, seed: int, seconds: float):
    per_job = max(1, round(seconds * 12 / 30))
    runs = [
        ("relay-majority", {"discussion_paradigm": "relay", "decision_protocol": "majority_consensus"}),
        ("report-judge", {"discussion_paradigm": "report", "decision_protocol": "judge", "persona_generator": "expert"}),
    ]
    jobs = []
    for name, overlay in runs:
        samples = []
        for i in range(per_job):
            sid = f"{tag}{len(jobs):02d}-{i:03d}"
            samples.append(summary_sample(g, sid, f"{sid}-s{seed}"))
        jobs.append(Job(name, overlay, samples))

    # Pre-built logs: six free-text jobs and one multiple-choice job, three
    # repeats each, with per-file record counts scaled from the run length.
    per_file = max(1, round(seconds * 3))
    prebuilt: list[tuple[str, list[dict]]] = []
    for job in range(7):
        free_text = job < 6
        for repeat in (1, 2, 3):
            records = []
            for i in range(per_file):
                sid = f"{tag}p{job}{repeat}-{i:03d}"
                marker = f"{sid}-s{seed}"
                if free_text:
                    sample = summary_sample(g, sid, marker)
                    pool = " ".join(sample["inputs"]).lower().replace(".", "").split()
                    final = candidate_text(g, sample["references"][0], pool)
                else:
                    sample = mc_sample(g, sid, marker, False)
                    final = f"{g.sentence(10, 30)}\nFINAL SOLUTION: ({'ABCD'[g.words.randrange(4)]})"
                records.append(prebuilt_record(g, sample, final))
            prebuilt.append((f"prebuilt{job}-r{repeat}.jsonl", records))
    return jobs, prebuilt


def prebuilt_record(g: Gen, sample: dict[str, Any], final: str) -> dict[str, Any]:
    """A debate log record shaped like the engine's, for evaluation only."""
    turns = g.shape.randint(1, 5)
    messages = []
    for seq in range(1, 3 * turns + 1):
        entry = {
            "seq": seq,
            "turn": (seq - 1) // 3 + 1,
            "agentId": (seq - 1) % 3 + 1,
            "phase": "draft" if seq == 1 else "improve",
            "text": g.sentence(20, 80),
        }
        if seq > 1:
            entry["agreement"] = g.shape.choice(["agree", "disagree"])
        entry["clockMs"] = g.shape.randint(200, 4000)
        messages.append(entry)
    success = g.shape.random() < 0.85
    outcome = {
        "protocol": "majority_consensus",
        "finalText": final,
        "success": success,
        "decidedAtTurn": turns,
    }
    if not success:
        outcome["fallbackReason"] = "turn cap reached without consensus"
    return {
        "config": {"decision_protocol": "majority_consensus", "discussion_paradigm": "memory", "num_agents": 3},
        "task": sample,
        "personas": [
            {"agentId": i, "name": f"Participant {i}", "description": ""} for i in (1, 2, 3)
        ],
        "messages": messages,
        "outcome": outcome,
        "globalClockMs": g.shape.randint(1000, 60000),
    }


WORKLOADS = {
    "protocol-sweep": Workload(
        tag="ps",
        why="paper's protocol sweep: many short jobs, per-job pool drain, sequential ballot chains, 1-call baselines",
        common={"max_turns": 5, "response_generator": "simple", "num_agents": 3},
        build=_sweep,
        eval_repeats=15,
    ),
    "wide-panel": Workload(
        tag="wp",
        why="few large 5-agent jobs that saturate the cap; growing memory prompts, personas and big records dominate",
        common={"max_turns": 7, "num_agents": 5},
        build=_panel,
        eval_repeats=15,
    ),
    "evaluate-freetext": Workload(
        tag="ef",
        why="evaluate+chart over free-text logs (40-400 token candidates); superlinear bleu and meteor dominate",
        common={"max_turns": 4, "num_agents": 3},
        build=_evaluate,
        eval_repeats=1,
    ),
}

def slots() -> int:
    """Client slots: the `nproc` of this process."""
    return len(os.sched_getaffinity(0))


def generate(name: str, seed: int, seconds: float, root: str | Path, endpoint_url: str) -> dict[str, Any]:
    """Write datasets, the batch config and pre-built logs; return the manifest."""
    workload = WORKLOADS[name]
    jobs, prebuilt = workload.build(Gen(name, seed), workload.tag, seed, seconds)
    root = Path(root)
    for sub in ("data", "logs", "eval_logs"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    runs = []
    union: list[dict[str, Any]] = []
    for index, job in enumerate(jobs):
        path = f"data/job{index:02d}.json"
        (root / path).write_text(json.dumps(job.samples, indent=1), encoding="utf-8")
        union.extend(job.samples)
        runs.append({"output_json_file_path": job.output, "input_json_file_path": path, **job.overlay})
    for file_name, records in prebuilt:
        union.extend(record["task"] for record in records)
        with (root / "eval_logs" / file_name).open("w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n")
    (root / "data/all.json").write_text(json.dumps(union), encoding="utf-8")
    config = {
        "name": name,
        "repeats": 1,
        "common": {
            "endpoint_url": endpoint_url,
            "api_key": "bench",
            "model_name": "bench-model",
            "concurrent_api_requests": slots(),
            **workload.common,
        },
        "runs": runs,
    }
    (root / "batch.json").write_text(json.dumps(config, indent=1), encoding="utf-8")
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "config": "batch.json",
        "dataset": "data/all.json",
        "eval_repeats": workload.eval_repeats,
        "jobs": [
            {
                "log": job.expanded_output,
                "eval_name": job.eval_name,
                "sample_ids": [s["id"] for s in job.samples],
            }
            for job in jobs
        ],
        "prebuilt_records": sum(len(records) for _, records in prebuilt),
    }
