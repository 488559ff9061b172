"""Turning debate logs into metrics and per-job evaluation files."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Any, Iterable, Mapping, NamedTuple, Optional, Sequence

from .datasets import FieldTable, FormatError, field_fault, input_files, load_input_file, log_job, log_repeat
from .datasets import plain_name, read_input, read_jsonl, write_output
from .domain import TaskInstance
from .metrics import bleu, meteor_lite, rouge


class DatasetMismatch(Exception):
    """A log and its dataset disagree: an unknown sample id, or no answer letter to score."""


# Each whitespace run has one place in a match: when two `\s*` could share a
# run, a long run that ends in no letter is tried in every split (cubic time).
_FINAL_RE = re.compile(
    r"final\s+solution\s*(?:[:\-–=]+\s*)?(?:[\(\[\{]\s*)?([A-Za-z])\b", re.IGNORECASE
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


def _joined(record: dict[str, Any], by_id: dict[str, TaskInstance], file: Path) -> TaskInstance:
    sample_id = record["task"]["id"]
    if sample_id not in by_id:
        raise DatasetMismatch(f"{file}: log references unknown sample id {sample_id!r}")
    return by_id[sample_id]


def record_correct(record: dict[str, Any], sample: TaskInstance) -> bool:
    if sample.answer_letter is None:
        raise DatasetMismatch(f"sample {sample.id} has no answer letter")
    extracted = extract_answer_letter(record["outcome"]["finalText"])
    return extracted is not None and extracted == sample.answer_letter.strip().upper()


class RepeatStats(NamedTuple):
    mean: float
    std: float
    annotation: Optional[str] = None


def fmean(values: Sequence[float]) -> float:
    """`statistics.fmean`, bit for bit, without importing `statistics`."""
    return math.fsum(values) / len(values)


def aggregate(per_repeat_results: Sequence[float]) -> RepeatStats:
    """Mean and sample std (n-1) over repeat-level means."""
    values = list(per_repeat_results)
    if not values:
        raise ValueError("aggregate needs at least one repeat")
    mean = fmean(values)
    if len(values) == 1:
        return RepeatStats(mean=mean, std=0.0, annotation="single repeat")
    import statistics

    return RepeatStats(mean=mean, std=statistics.stdev(values))


def _numbers(*values: Any) -> bool:
    return all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)


# The eval file's fields in file order, each the camelCase name of an EvalResult
# attribute, with the test its value must pass. All but jobName and repeats may be absent.
# The job name names the chart files, so it must stay one plain file-name part.
_EVAL_FIELDS: FieldTable = {
    "jobName": (True, lambda value: isinstance(value, str) and plain_name(value)),
    "repeats": (True, lambda value: isinstance(value, int) and _numbers(value)),
    "mean": (False, lambda value: isinstance(value, dict) and _numbers(*value.values())),
    "std": (False, lambda value: isinstance(value, dict) and _numbers(*value.values())),
    "annotations": (False, lambda value: isinstance(value, dict)),
    "metricValues": (False, lambda value: isinstance(value, dict)),
    "decisionSuccessRate": (False, _numbers),
    "turns": (False, lambda value: isinstance(value, list) and _numbers(*value)),
    "wallClockS": (False, lambda value: isinstance(value, list) and _numbers(*value)),
}


def _attr(key: str) -> str:
    """The EvalResult attribute an eval-file key names: wallClockS -> wall_clock_s."""
    return re.sub("[A-Z]", lambda match: "_" + match[0].lower(), key)


class EvalResult(NamedTuple):
    """One job's scores."""

    job_name: str
    repeats: int
    mean: dict[str, float]
    std: dict[str, float]
    annotations: dict[str, str]
    metric_values: dict[str, list[float]]
    decision_success_rate: float
    turns: list[int]
    wall_clock_s: list[float]

    def to_json(self) -> dict[str, Any]:
        # Dict fields are written key-sorted, so one result always gives the same bytes.
        values = {key: getattr(self, _attr(key)) for key in _EVAL_FIELDS}
        return {k: dict(sorted(v.items())) if isinstance(v, dict) else v for k, v in values.items()}

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "EvalResult":
        """The result an eval file holds; a field it leaves out is zero, or its own empty dict or list."""
        empty = dict(
            mean={}, std={}, annotations={}, metricValues={}, decisionSuccessRate=0.0, turns=[], wallClockS=[]
        )
        return cls(**{_attr(key): data[key] if key in data else empty[key] for key in _EVAL_FIELDS})


def group_log_files(logs: str | Path) -> dict[str, list[tuple[int, Path]]]:
    """Map job name -> [(repeat index, path)], reading each log's name by `datasets.log_job`."""
    groups: dict[str, dict[int, Path]] = {}
    for file in input_files(logs, lambda file: log_repeat(file) is not None):
        job, repeat = log_job(file)  # a file named alone is read whatever its suffix
        other = groups.setdefault(job, {}).setdefault(repeat, file)
        if other != file:
            raise FormatError(f"{other} and {file} are both repeat {repeat} of job {job!r}")
    return {job: sorted(repeats.items()) for job, repeats in groups.items()}


# The fields evaluation reads from a debate log record, and the test each must pass.
_LOG_FIELDS: FieldTable = {
    "task.id": (True, lambda value: isinstance(value, str)),
    "outcome.finalText": (True, lambda value: isinstance(value, str)),
    "outcome.decidedAtTurn": (True, lambda value: isinstance(value, int) and _numbers(value)),
    "globalClockMs": (True, _numbers),
}


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
    for _, file in repeat_files:
        repeat_scores: dict[str, list[float]] = {}
        joined = [(record, _joined(record, by_id, file)) for record in read_records(file, _LOG_FIELDS)]
        with_accuracy = any(sample.answer_letter is not None for _, sample in joined)
        for record, sample in joined:
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
            per_repeat.setdefault(metric, []).append(fmean(values))
            pooled.setdefault(metric, []).extend(values)
    stats = {metric: aggregate(means) for metric, means in per_repeat.items()}
    return EvalResult(
        job_name=job_name,
        repeats=len(repeat_files),
        mean={metric: stat.mean for metric, stat in stats.items()},
        std={metric: stat.std for metric, stat in stats.items()},
        annotations={metric: stat.annotation for metric, stat in stats.items() if stat.annotation},
        metric_values=pooled,
        decision_success_rate=(successes / len(turns)) if turns else 0.0,
        turns=turns,
        wall_clock_s=clocks,
    )


def evaluate_logs(
    logs: str | Path, dataset: str | Path, out_dir: str | Path
) -> list[Path]:
    """Evaluate every job found under `logs`; one {job}.eval.json per job."""
    samples = load_input_file(dataset)
    written: list[Path] = []
    for job_name, repeat_files in sorted(group_log_files(logs).items()):
        result = evaluate_job(job_name, repeat_files, samples)
        target = Path(out_dir) / f"{job_name}.eval.json"
        write_output(target, [json.dumps(result.to_json(), ensure_ascii=False, indent=2), "\n"])
        written.append(target)
    return written


def load_eval_results(evals_dir: str | Path) -> list[EvalResult]:
    """Every eval file under `evals_dir`; one the charts cannot read raises FormatError."""
    results = []
    for file in input_files(evals_dir, lambda file: file.name.endswith(".eval.json")):
        data = read_input(file)
        problem = field_fault(data, _EVAL_FIELDS)
        if problem is not None:
            raise FormatError(f"{file} {problem}")
        results.append(EvalResult.from_json(data))
    return results
