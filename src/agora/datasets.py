"""Dataset ingestion: unified sample files, raw-file field mapping, instruction registry."""

from __future__ import annotations

import csv
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

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
        for key in ("input_fields", "reference_fields", "context_fields"):
            value = data.get(key, [])
            if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                raise ValueError(f"{key} must be a list of strings")
        for key in ("id_field", "answer_letter_field", "format", "instruction"):
            if not isinstance(data.get(key), (str, type(None))):
                raise ValueError(f"{key} must be a string")
        return cls(
            input_fields=tuple(data.get("input_fields", ())),
            reference_fields=tuple(data.get("reference_fields", ())),
            id_field=data.get("id_field"),
            context_fields=tuple(data.get("context_fields", ())),
            answer_letter_field=data.get("answer_letter_field"),
        )


def read_input(path: str | Path, parse: Callable[[str], Any] = json.loads) -> Any:
    """`parse` of the file's text, decoded as UTF-8 with no newline translation.
    A file that cannot be read, decoded or parsed raises FormatError naming it."""
    try:
        return parse(Path(path).read_bytes().decode("utf-8"))
    except FileNotFoundError:
        raise FormatError(f"no such file: {path}")
    except (OSError, ValueError, RecursionError, csv.Error) as exc:  # ValueError: not UTF-8 or JSON
        raise FormatError(f"cannot read {path}: {exc}")


def write_output(path: str | Path, chunks: Iterable[str]) -> None:
    """Write the chunks as UTF-8 with no newline translation, making the file's
    directory. A file that cannot be written, or text that is not UTF-8 (a lone
    surrogate), raises FormatError naming the file."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)
    except (OSError, UnicodeEncodeError) as exc:
        raise FormatError(f"cannot write {path}: {exc}")


def input_files(path: str | Path, keep: Callable[[Path], bool]) -> list[Path]:
    """The files in a directory that `keep` accepts, in name order, or the one file `path` is."""
    if Path(path).is_dir():
        return sorted(file for file in Path(path).iterdir() if keep(file))
    if not Path(path).exists():
        raise FormatError(f"no such file: {path}")
    return [Path(path)]


# A field table maps a dotted key to (required, test): an absent optional
# field passes, and a present one must pass its test.
FieldTable = Mapping[str, tuple[bool, Callable[[Any], bool]]]

_ABSENT = object()


def field_fault(data: Any, table: FieldTable) -> Optional[str]:
    """What is wrong with a JSON object against `table`, or None."""
    if not isinstance(data, dict):
        return "is not a JSON object"
    for name, (required, test) in table.items():
        value: Any = data
        for key in name.split("."):
            value = value.get(key, _ABSENT) if isinstance(value, dict) else _ABSENT
        if value is _ABSENT and not required:
            continue
        if value is _ABSENT or not test(value):
            return f"has no valid {name}"
    return None


def read_jsonl(path: str | Path, fields: FieldTable = {}) -> list[dict[str, Any]]:
    """One object per non-blank line. A line that is not a JSON object, or fails
    the field table, raises FormatError naming the file and the line."""
    records = []
    for lineno, line in enumerate(read_input(path, str.splitlines), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"{path} line {lineno}: invalid JSON: {exc}")
        problem = field_fault(record, fields)
        if problem is not None:
            raise FormatError(f"{path} line {lineno} {problem}")
        records.append(record)
    return records


def _read_records(path: str | Path, fmt: str) -> list[dict[str, Any]]:
    if fmt == "json":
        records = read_input(path)
        if not isinstance(records, list):
            raise FormatError(f"{path}: top level must be a JSON array of records")
    elif fmt == "jsonl":
        records = read_jsonl(path)
    elif fmt == "csv":
        records = read_input(
            path, lambda text: list(csv.DictReader(io.StringIO(text, newline="")))
        )
    else:
        raise FormatError(f"{path}: unsupported format {fmt!r}; expected json, jsonl, or csv")
    if not records:
        raise EmptyDataset(f"{path} contains no records")
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
    return _checked(path, instances, problems)


def _checked(
    path: str | Path, instances: list[TaskInstance], problems: list[str]
) -> list[TaskInstance]:
    """The instances, unless a row is bad or two share an id: one MappingError names them all."""
    counts = Counter(instance.id for instance in instances)
    duplicates = sorted(sample_id for sample_id, count in counts.items() if count > 1)
    if duplicates:
        problems.append(f"duplicate sample ids: {', '.join(duplicates)}")
    if problems:
        raise MappingError(f"{path}: " + "; ".join(problems))
    return instances


def load_unified(path: str | Path) -> list[TaskInstance]:
    """Load a file already in the unified sample schema (JSON array or JSONL)."""
    fmt = "jsonl" if str(path).endswith(".jsonl") else "json"
    records = _read_records(path, fmt)
    problems: list[str] = []
    instances: list[TaskInstance] = []
    for row, record in enumerate(records, 1):
        try:
            instances.append(unified_record_to_instance(record))
        except MappingError as exc:
            problems.append(f"row {row}: {exc}")
    return _checked(path, instances, problems)


def _strings(record: dict[str, Any], key: str) -> tuple[str, ...]:
    """The record's list of strings under `key` (none when absent), checked as it is copied."""
    value = record.get(key, [])
    if isinstance(value, list):
        lines = tuple(item for item in value if isinstance(item, str))
        if len(lines) == len(value):
            return lines
    raise MappingError(f"{key} must be a list of strings")


def unified_record_to_instance(record: dict[str, Any]) -> TaskInstance:
    if "id" not in record:
        raise MappingError("missing id")
    if isinstance(record["id"], bool) or not isinstance(record["id"], (str, int)):
        raise MappingError("id must be a string or an integer")
    instruction, letter = record.get("instruction", ""), record.get("answerLetter")
    if not isinstance(instruction, str):
        raise MappingError("instruction must be a string")
    if not isinstance(letter, (str, type(None))):
        raise MappingError("answerLetter must be a string")
    inputs, references = _strings(record, "inputs"), _strings(record, "references")
    if not inputs:
        raise MappingError("inputs must be a non-empty list")
    if not references and letter is None:
        raise MappingError("record needs references or answerLetter")
    return TaskInstance(
        id=str(record["id"]),
        instruction_key=instruction,
        input_lines=inputs,
        context_lines=_strings(record, "context"),
        references=references,
        answer_letter=letter,
    )


def sidecar_path(path: str | Path) -> Path:
    return Path(str(path) + ".mapping.json")


def load_input_file(path: str | Path) -> list[TaskInstance]:
    """Entry point for batch inputs: sidecar mapping when present, else unified."""
    sidecar = sidecar_path(path)
    if not sidecar.exists():
        return load_unified(path)
    spec = read_input(sidecar)
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
