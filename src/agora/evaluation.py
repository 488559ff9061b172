"""Turning debate logs into metrics and per-job evaluation files."""

from __future__ import annotations

import json
import re
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, Sequence

from .datasets import load_input_file, read_jsonl
from .domain import TaskInstance
from .metrics import bleu, meteor_lite, rouge


class MissingReference(Exception):
    pass


class UnknownSampleId(Exception):
    pass


_FINAL_RE = re.compile(
    r"final\s+solution\s*[:\-–=]*\s*[\(\[\{]?\s*([A-Za-z])\b", re.IGNORECASE
)
_STANDALONE_CAPITAL_RE = re.compile(r"\b([A-Z])\b")


def extract_answer_letter(text: str) -> Optional[str]:
    """Letter after the last FINAL SOLUTION marker; final-line capital as fallback."""
    matches = _FINAL_RE.findall(text)
    if matches:
        return matches[-1].upper()
    lines = [line for line in text.splitlines() if line.strip()]
    if lines:
        capitals = _STANDALONE_CAPITAL_RE.findall(lines[-1])
        if len(capitals) == 1:
            return capitals[0]
    return None


def _joined(record: dict[str, Any], by_id: dict[str, TaskInstance]) -> TaskInstance:
    sample_id = record["task"]["id"]
    if sample_id not in by_id:
        raise UnknownSampleId(f"log references unknown sample id {sample_id!r}")
    return by_id[sample_id]


def record_correct(record: dict[str, Any], sample: TaskInstance) -> bool:
    if sample.answer_letter is None:
        raise MissingReference(f"sample {sample.id} has no answer letter")
    extracted = extract_answer_letter(record["outcome"]["finalText"])
    return extracted is not None and extracted == sample.answer_letter.strip().upper()


@dataclass(frozen=True)
class RepeatStats:
    mean: float
    std: float
    n: int
    annotation: Optional[str] = None


def aggregate(per_repeat_results: Sequence[float]) -> RepeatStats:
    """Mean and sample std (n-1) over repeat-level means."""
    values = list(per_repeat_results)
    if not values:
        raise ValueError("aggregate needs at least one repeat")
    mean = statistics.fmean(values)
    if len(values) == 1:
        return RepeatStats(mean=mean, std=0.0, n=1, annotation="single repeat")
    return RepeatStats(mean=mean, std=statistics.stdev(values), n=len(values))


@dataclass
class EvalResult:
    job_name: str
    repeats: int
    mean: dict[str, float] = field(default_factory=dict)
    std: dict[str, float] = field(default_factory=dict)
    annotations: dict[str, str] = field(default_factory=dict)
    metric_values: dict[str, list[float]] = field(default_factory=dict)
    decision_success_rate: float = 0.0
    turns: list[int] = field(default_factory=list)
    wall_clock_s: list[float] = field(default_factory=list)

    def to_json(self) -> dict[str, Any]:
        return {
            "jobName": self.job_name,
            "repeats": self.repeats,
            "mean": dict(sorted(self.mean.items())),
            "std": dict(sorted(self.std.items())),
            "annotations": dict(sorted(self.annotations.items())),
            "metricValues": dict(sorted(self.metric_values.items())),
            "decisionSuccessRate": self.decision_success_rate,
            "turns": list(self.turns),
            "wallClockS": list(self.wall_clock_s),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "EvalResult":
        return cls(
            job_name=data["jobName"],
            repeats=data["repeats"],
            mean=dict(data.get("mean", {})),
            std=dict(data.get("std", {})),
            annotations=dict(data.get("annotations", {})),
            metric_values=dict(data.get("metricValues", {})),
            decision_success_rate=data.get("decisionSuccessRate", 0.0),
            turns=list(data.get("turns", [])),
            wall_clock_s=list(data.get("wallClockS", [])),
        )


_REPEAT_SUFFIX_RE = re.compile(r"^(?P<job>.+)-r(?P<repeat>\d+)$")


def group_log_files(logs: str | Path) -> dict[str, list[tuple[int, Path]]]:
    """Map job name -> [(repeat index, path)] from -r{i} file name suffixes."""
    path = Path(logs)
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.suffix in (".json", ".jsonl"))
    elif path.exists():
        files = [path]
    else:
        raise FileNotFoundError(f"no such log path: {logs}")
    groups: dict[str, list[tuple[int, Path]]] = {}
    for file in files:
        match = _REPEAT_SUFFIX_RE.match(file.stem)
        if match:
            job, repeat = match.group("job"), int(match.group("repeat"))
        else:
            job, repeat = file.stem, 1
        groups.setdefault(job, []).append((repeat, file))
    for job in groups:
        groups[job].sort()
    return groups


# The fields evaluation reads from a debate log record, and their JSON types.
_LOG_FIELDS: dict[str, Any] = {
    "task.id": str,
    "outcome.finalText": str,
    "outcome.decidedAtTurn": int,
    "globalClockMs": (int, float),
}


def _log_record_fault(record: dict[str, Any]) -> Optional[str]:
    for name, kind in _LOG_FIELDS.items():
        value: Any = record
        for key in name.split("."):
            value = value.get(key) if isinstance(value, dict) else None
        if not isinstance(value, kind) or isinstance(value, bool):
            return f"has no valid {name}"
    return None


# evaluate_job reads each log through this name, which the benchmark's tracer times.
read_records = read_jsonl


def _free_text_scores(final_text: str, references: Sequence[str]) -> dict[str, float]:
    # BLEU sees every reference at once; the others take the best single one.
    return {
        "bleu": bleu(final_text, references),
        "rouge1": max(rouge(final_text, r, 1) for r in references),
        "rouge2": max(rouge(final_text, r, 2) for r in references),
        "rouge3": max(rouge(final_text, r, 3) for r in references),
        "rougeL": max(rouge(final_text, r, "L") for r in references),
        "meteor": max(meteor_lite(final_text, r) for r in references),
    }


def evaluate_job(
    job_name: str,
    repeat_files: Sequence[tuple[int, Path]],
    samples: Iterable[TaskInstance],
) -> EvalResult:
    by_id = {sample.id: sample for sample in samples}
    per_repeat: dict[str, list[float]] = {}
    pooled: dict[str, list[float]] = {}
    turns: list[int] = []
    clocks: list[float] = []
    successes = 0
    total = 0
    for _, file in repeat_files:
        records = read_records(file, _log_record_fault)
        if not records:
            continue
        repeat_scores: dict[str, list[float]] = {}
        joined = [(record, _joined(record, by_id)) for record in records]
        letters = [sample.answer_letter is not None for _, sample in joined]
        with_accuracy = any(letters)
        for record, sample in joined:
            total += 1
            outcome = record["outcome"]
            if outcome.get("success"):
                successes += 1
            turns.append(outcome["decidedAtTurn"])
            clocks.append(record["globalClockMs"] / 1000.0)
            if with_accuracy:
                value = 1.0 if record_correct(record, sample) else 0.0
                repeat_scores.setdefault("accuracy", []).append(value)
            if sample.references:
                scores = _free_text_scores(outcome["finalText"], sample.references)
                for metric, value in scores.items():
                    repeat_scores.setdefault(metric, []).append(value)
        for metric, values in repeat_scores.items():
            per_repeat.setdefault(metric, []).append(statistics.fmean(values))
            pooled.setdefault(metric, []).extend(values)
    result = EvalResult(
        job_name=job_name,
        repeats=len(repeat_files),
        metric_values=pooled,
        decision_success_rate=(successes / total) if total else 0.0,
        turns=turns,
        wall_clock_s=clocks,
    )
    for metric, means in per_repeat.items():
        stats = aggregate(means)
        result.mean[metric] = stats.mean
        result.std[metric] = stats.std
        if stats.annotation:
            result.annotations[metric] = stats.annotation
    return result


def evaluate_logs(
    logs: str | Path, dataset: str | Path, out_dir: str | Path
) -> list[Path]:
    """Evaluate every job found under `logs`; one {job}.eval.json per job."""
    samples = load_input_file(dataset)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for job_name, repeat_files in sorted(group_log_files(logs).items()):
        result = evaluate_job(job_name, repeat_files, samples)
        target = out / f"{job_name}.eval.json"
        target.write_text(
            json.dumps(result.to_json(), ensure_ascii=False, indent=2) + "\n",
            encoding="utf-8",
        )
        written.append(target)
    return written


def load_eval_results(evals_dir: str | Path) -> list[EvalResult]:
    path = Path(evals_dir)
    if path.is_dir():
        files = sorted(path.glob("*.eval.json"))
    elif path.exists():
        files = [path]
    else:
        raise FileNotFoundError(f"no such evaluation path: {evals_dir}")
    return [
        EvalResult.from_json(json.loads(f.read_text(encoding="utf-8"))) for f in files
    ]
