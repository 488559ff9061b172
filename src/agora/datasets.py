"""Dataset ingestion: unified sample files, raw-file field mapping, instruction registry."""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from .domain import TaskInstance
from .prompts import multiple_choice_footer


class FormatError(ValueError):
    pass


class MappingError(Exception):
    pass


class EmptyDataset(Exception):
    pass


@dataclass(frozen=True)
class FieldMapping:
    """Where unified-format fields come from in a raw dataset file."""

    input_fields: tuple[str, ...]
    reference_fields: tuple[str, ...]
    id_field: Optional[str] = None
    context_fields: tuple[str, ...] = ()
    answer_letter_field: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.input_fields:
            raise ValueError("input_fields must not be empty")
        if not self.reference_fields:
            raise ValueError("reference_fields must not be empty")

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FieldMapping":
        return cls(
            input_fields=tuple(data.get("input_fields", ())),
            reference_fields=tuple(data.get("reference_fields", ())),
            id_field=data.get("id_field"),
            context_fields=tuple(data.get("context_fields", ())),
            answer_letter_field=data.get("answer_letter_field"),
        )


def read_jsonl(
    path: str | Path, fault: Callable[[dict[str, Any]], Optional[str]] = lambda record: None
) -> list[dict[str, Any]]:
    """One object per non-blank line. A line that is not a JSON object, or for which
    `fault(record)` names a fault, raises FormatError naming the file and the line."""
    records = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path} line {lineno}: invalid JSON: {exc}")
        problem = fault(record) if isinstance(record, dict) else "is not a JSON object"
        if problem is not None:
            raise FormatError(f"{path} line {lineno} {problem}")
        records.append(record)
    return records


def _read_records(path: str | Path, fmt: str) -> list[dict[str, Any]]:
    path = Path(path)
    if not path.exists():
        raise FormatError(f"no such file: {path}")
    if fmt == "json":
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path} is not valid JSON: {exc}")
        if not isinstance(data, list):
            raise FormatError(f"{path}: top level must be a JSON array of records")
        records = data
    elif fmt == "jsonl":
        records = read_jsonl(path)
    elif fmt == "csv":
        with path.open(encoding="utf-8", newline="") as handle:
            records = list(csv.DictReader(handle))
    else:
        raise FormatError(f"unsupported format {fmt!r}; expected json, jsonl, or csv")
    for row, record in enumerate(records, 1):
        if not isinstance(record, dict):
            raise FormatError(f"{path} record {row} is not an object")
    return records


def _lines(value: Any) -> list[str]:
    if isinstance(value, (list, tuple)):
        return [str(item) for item in value]
    return [str(value)]


def load_dataset(
    path: str | Path, format: str, mapping: FieldMapping
) -> list[TaskInstance]:
    """Map raw records into TaskInstances, rejecting bad rows all at once."""
    records = _read_records(path, format)
    if not records:
        raise EmptyDataset(f"{path} contains no records")
    required = list(mapping.input_fields) + list(mapping.reference_fields)
    declared = list(required) + list(mapping.context_fields)
    if mapping.id_field:
        declared.append(mapping.id_field)
    if mapping.answer_letter_field:
        declared.append(mapping.answer_letter_field)

    problems: list[str] = []
    instances: list[TaskInstance] = []
    width = max(4, len(str(len(records))))
    for row, record in enumerate(records, 1):
        missing = [f for f in declared if f not in record or record[f] is None]
        hard_missing = [f for f in missing if f in required or f == mapping.id_field]
        if hard_missing:
            problems.append(f"row {row}: missing field(s) {', '.join(hard_missing)}")
            continue
        if mapping.id_field:
            sample_id = str(record[mapping.id_field])
        else:
            sample_id = str(row).zfill(width)
        inputs: list[str] = []
        for field in mapping.input_fields:
            inputs.extend(_lines(record[field]))
        context: list[str] = []
        for field in mapping.context_fields:
            value = record.get(field)
            if value is None or value == "":
                continue
            context.extend(_lines(value))
        references: list[str] = []
        for field in mapping.reference_fields:
            references.extend(_lines(record[field]))
        letter = None
        if mapping.answer_letter_field:
            raw = record.get(mapping.answer_letter_field)
            if raw not in (None, ""):
                letter = str(raw).strip()
        instances.append(
            TaskInstance(
                id=sample_id,
                instruction_key="",
                input_lines=tuple(inputs),
                context_lines=tuple(context),
                references=tuple(references),
                answer_letter=letter,
            )
        )
    if problems:
        raise MappingError("; ".join(problems))
    _check_unique_ids(instances)
    return instances


def _check_unique_ids(instances: Sequence[TaskInstance]) -> None:
    seen: dict[str, int] = {}
    for instance in instances:
        seen[instance.id] = seen.get(instance.id, 0) + 1
    duplicates = sorted(sample_id for sample_id, count in seen.items() if count > 1)
    if duplicates:
        raise MappingError(f"duplicate sample ids: {', '.join(duplicates)}")


def load_unified(path: str | Path) -> list[TaskInstance]:
    """Load a file already in the unified sample schema (JSON array or JSONL)."""
    fmt = "jsonl" if str(path).endswith(".jsonl") else "json"
    records = _read_records(path, fmt)
    if not records:
        raise EmptyDataset(f"{path} contains no records")
    problems: list[str] = []
    instances: list[TaskInstance] = []
    for row, record in enumerate(records, 1):
        try:
            instances.append(unified_record_to_instance(record))
        except MappingError as exc:
            problems.append(f"row {row}: {exc}")
    if problems:
        raise MappingError("; ".join(problems))
    _check_unique_ids(instances)
    return instances


def unified_record_to_instance(record: dict[str, Any]) -> TaskInstance:
    if "id" not in record:
        raise MappingError("missing id")
    inputs = record.get("inputs")
    if not isinstance(inputs, list) or not inputs:
        raise MappingError("inputs must be a non-empty list")
    references = record.get("references", [])
    if not isinstance(references, list):
        raise MappingError("references must be a list")
    letter = record.get("answerLetter")
    if not references and letter is None:
        raise MappingError("record needs references or answerLetter")
    context = record.get("context", [])
    if not isinstance(context, list):
        raise MappingError("context must be a list")
    return TaskInstance(
        id=str(record["id"]),
        instruction_key=str(record.get("instruction", "")),
        input_lines=tuple(str(v) for v in inputs),
        context_lines=tuple(str(v) for v in context),
        references=tuple(str(v) for v in references),
        answer_letter=None if letter is None else str(letter),
    )


def sidecar_path(path: str | Path) -> Path:
    return Path(str(path) + ".mapping.json")


def load_input_file(path: str | Path) -> list[TaskInstance]:
    """Entry point for batch inputs: sidecar mapping when present, else unified."""
    sidecar = sidecar_path(path)
    if not sidecar.exists():
        return load_unified(path)
    try:
        spec = json.loads(sidecar.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{sidecar} is not valid JSON: {exc}")
    if not isinstance(spec, dict):
        raise FormatError(f"{sidecar}: top level must be a JSON object")
    try:
        mapping = FieldMapping.from_dict(spec)
    except ValueError as exc:
        raise MappingError(f"{sidecar}: {exc}")
    fmt = spec.get("format") or _infer_format(path)
    instances = load_dataset(path, fmt, mapping)
    instruction = spec.get("instruction")
    if instruction:
        instances = [replace(i, instruction_key=str(instruction)) for i in instances]
    return instances


def _infer_format(path: str | Path) -> str:
    name = str(path)
    if name.endswith(".jsonl"):
        return "jsonl"
    if name.endswith(".csv"):
        return "csv"
    return "json"


def subset(
    samples: Sequence[TaskInstance], num_samples: int, seed: int
) -> list[TaskInstance]:
    """Seeded sample without replacement, preserving source order."""
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    if num_samples >= len(samples):
        return list(samples)
    indices = sorted(random.Random(seed).sample(range(len(samples)), num_samples))
    return [samples[i] for i in indices]


def _mc(text: str) -> str:
    return text + "\n" + multiple_choice_footer()


# Instruction texts of the shipped tasks; multiple-choice tasks carry the footer.
_INSTRUCTIONS: dict[str, str] = {
    "winogrande": _mc(
        "Solve the following sentence completion task. Pick the option that fills the blank so the sentence makes sense."
    ),
    "strategyqa": _mc(
        "Answer the following yes/no question. Reason through the facts it depends on, then pick the option that matches your verdict."
    ),
    "gpqa": _mc("Answer the following multiple-choice science question."),
    "mmlu_pro": _mc("Answer the following multiple-choice question."),
    "etpc": "Paraphrase the following text. Keep the meaning identical while changing the wording.",
    "xsum": "Summarize the following article in a single sentence.",
}


def resolve_instruction(key_or_text: str) -> str:
    """Registry text for known keys; any other string is the instruction itself."""
    return _INSTRUCTIONS.get(key_or_text, key_or_text)
