"""Dataset ingestion: unified sample files, raw-file field mapping, instruction registry, debate-log names."""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from .domain import TaskInstance
from .prompts import multiple_choice_footer


class FormatError(ValueError):
    """A file that cannot be read, parsed, mapped or written; the message names it."""


# The file suffixes of a debate log: what `agora run` may write and `agora evaluate` reads.
LOG_SUFFIXES = (".json", ".jsonl")
_LOG_REPEAT_RE = re.compile(r"(?P<job>.+)-r(?P<repeat>[0-9]+)", re.S)


def job_logs(output: str, repeats: int) -> tuple[str, list[str]]:
    """The job that writes `output`, named by the stem of its file name, and its
    logs beside it, `<stem>-r<N><suffix>` for each repeat N: the names that
    `log_repeat` reads back as that job and repeat."""
    name = Path(os.path.basename(output))
    root = output[: len(output) - len(name.suffix)]
    return name.stem, [f"{root}-r{repeat}{name.suffix}" for repeat in range(1, repeats + 1)]


def log_repeat(path: Path) -> Optional[tuple[str, int]]:
    """(job, repeat) as `agora run` names a debate log and `agora evaluate` reads
    it: `<job>-r<N>.jsonl` is repeat N of `<job>`, and `<job>.jsonl` repeat 1.
    None for a file whose suffix is not a log's."""
    if path.suffix not in LOG_SUFFIXES:
        return None
    match = _LOG_REPEAT_RE.fullmatch(path.stem)
    return (match["job"], int(match["repeat"])) if match else (path.stem, 1)


def plain_name(name: str) -> bool:
    """Not empty, `.` or `..`, and no slash, backslash or NUL: a name that stays in its directory."""
    return name not in ("", ".", "..") and not set("/\\\0").intersection(name)


def log_job(path: Path) -> tuple[str, int]:
    """`log_repeat` of a log, a file of any other suffix being repeat 1 of its stem.
    The job names its eval file and charts, so one that is not a plain file
    name raises FormatError naming the log."""
    job, repeat = log_repeat(path) or (path.stem, 1)
    if not plain_name(job):
        raise FormatError(f"{path}: job name {job!r} is not a plain file name")
    return job, repeat


# The keys of a mapping sidecar, in FieldMapping's field order: the lists, then the strings.
_LIST_KEYS = ("input_fields", "reference_fields", "context_fields")
_STRING_KEYS = ("id_field", "answer_letter_field", "format", "instruction")


class FieldMapping(NamedTuple):
    """A mapping sidecar: where unified-format fields come from in a raw dataset
    file, the file's format, and the instruction its samples carry. An absent or
    empty string is None."""

    input_fields: tuple[str, ...]
    reference_fields: tuple[str, ...]
    context_fields: tuple[str, ...] = ()
    id_field: Optional[str] = None
    answer_letter_field: Optional[str] = None
    format: Optional[str] = None
    instruction: Optional[str] = None

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FieldMapping":
        """The mapping a sidecar object describes; a malformed one, or one with a key
        outside _LIST_KEYS and _STRING_KEYS, raises ValueError."""
        for key in data:
            if key not in _LIST_KEYS + _STRING_KEYS:
                raise ValueError(f"unknown key {key!r}; the keys are {', '.join(_LIST_KEYS + _STRING_KEYS)}")
        for key in _LIST_KEYS:
            value = data.get(key, [])
            if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                raise ValueError(f"{key} must be a list of strings")
        for key in _STRING_KEYS:
            if not isinstance(data.get(key), (str, type(None))):
                raise ValueError(f"{key} must be a string")
        for key in ("input_fields", "reference_fields"):
            if not data.get(key):
                raise ValueError(f"{key} must not be empty")
        return cls(*(tuple(data.get(key, ())) for key in _LIST_KEYS), *(data.get(key) or None for key in _STRING_KEYS))


def read_input(path: str | Path, parse: Callable[[str], Any] = json.loads) -> Any:
    """`parse` of the file's text, decoded as UTF-8 with no newline translation.
    A file that cannot be read, decoded or parsed raises FormatError naming it."""
    try:
        return parse(Path(path).read_bytes().decode("utf-8"))
    except FileNotFoundError:
        raise FormatError(f"no such file: {path}")
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not UTF-8 or JSON
        raise FormatError(f"cannot read {path}: {exc}")


def write_output(path: str | Path, chunks: Iterable[str]) -> None:
    """Write the chunks as UTF-8 with no newline translation, making the file's
    directory. A file that cannot be written (a NUL in its path among them), or
    text that is not UTF-8 (a lone surrogate), raises FormatError naming the file.

    The chunks go to a hidden sibling that replaces the file once all are
    written, so a failed write leaves the previous file, or none. The sibling
    reaches the disk before the rename, and the rename does too wherever the
    platform opens a directory, so a crash or power loss after this returns
    cannot leave an empty or short file."""
    target = Path(path)
    temp = target.parent / f".{target.name}.{os.urandom(4).hex()}.tmp"
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(temp, "x", encoding="utf-8", newline="") as handle:
                handle.writelines(chunks)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp, target)
        except BaseException:
            with contextlib.suppress(OSError, ValueError):
                temp.unlink()
            raise
        try:
            folder = os.open(target.parent, os.O_RDONLY)
        except OSError:  # Windows opens no directory, so it has none to sync
            return
        try:
            os.fsync(folder)
        finally:
            os.close(folder)
    except (OSError, ValueError) as exc:  # ValueError: a lone surrogate, or a NUL in the path
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


def _lines_of(text: str) -> list[str]:
    """The text's lines, ended by CR LF, CR or LF only: a JSON string may hold
    U+2028, U+2029 or U+0085 unescaped, and `str.splitlines` ends lines there too."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def read_jsonl(path: str | Path, fields: FieldTable = {}) -> list[dict[str, Any]]:
    """One object per non-blank line. A line that is not a JSON object, or fails
    the field table, raises FormatError naming the file and the line."""
    records = []
    for lineno, line in enumerate(read_input(path, _lines_of), 1):
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
        import csv

        def parse(text: str) -> list[dict[str, Any]]:
            csv.field_size_limit(max(csv.field_size_limit(), len(text)))  # never lowered
            return list(csv.DictReader(io.StringIO(text, newline="")))

        records = read_input(path, parse)
    else:
        raise FormatError(f"{path}: unsupported format {fmt!r}; expected json, jsonl, or csv")
    if not records:
        raise FormatError(f"{path} contains no records")
    for row, record in enumerate(records, 1):
        if not isinstance(record, dict):
            raise FormatError(f"{path} record {row} is not an object")
    return records


def _sample_id(field: str, value: Any) -> str:
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise FormatError(f"{field} must be a string or an integer")
    return str(value)


def _lines(field: str, value: Any) -> list[str]:
    """A mapped value's lines: a string, number or boolean is one, a flat list of them one each."""
    items = value if isinstance(value, list) else [value]
    if not all(isinstance(item, (str, int, float)) for item in items):
        raise FormatError(f"{field} must be a string, number or boolean, or a flat list of them")
    return [str(item) for item in items]


def _mapped_instance(record: dict[str, Any], mapping: FieldMapping, row_id: str) -> TaskInstance:
    """One raw record in the unified format; `row_id` is its id when the mapping names none."""
    required = mapping.input_fields + mapping.reference_fields
    if mapping.id_field:
        required += (mapping.id_field,)
    missing = [field for field in required if record.get(field) is None]
    if missing:
        raise FormatError(f"missing field(s) {', '.join(missing)}")
    if mapping.id_field:
        row_id = _sample_id(mapping.id_field, record[mapping.id_field])

    def lines(fields: Iterable[str], optional: bool = False) -> tuple[str, ...]:
        # An empty optional value counts as absent.
        return tuple(
            line
            for field in fields
            if not optional or record.get(field) not in (None, "")
            for line in _lines(field, record[field])
        )

    letter, letter_field = None, mapping.answer_letter_field
    if letter_field and record.get(letter_field) not in (None, ""):
        if not isinstance(record[letter_field], str):
            raise FormatError(f"{letter_field} must be a string")
        letter = record[letter_field].strip()
    return TaskInstance(
        id=row_id,
        instruction_key=mapping.instruction or "",
        input_lines=lines(mapping.input_fields),
        context_lines=lines(mapping.context_fields, optional=True),
        references=lines(mapping.reference_fields),
        answer_letter=letter,
    )


def _strings(record: dict[str, Any], key: str) -> tuple[str, ...]:
    """The record's list of strings under `key` (none when absent), checked as it is copied."""
    value = record.get(key, [])
    if isinstance(value, list):
        lines = tuple(item for item in value if isinstance(item, str))
        if len(lines) == len(value):
            return lines
    raise FormatError(f"{key} must be a list of strings")


def _unified_instance(record: dict[str, Any]) -> TaskInstance:
    """One record already in the unified sample schema."""
    if "id" not in record:
        raise FormatError("missing id")
    sample_id = _sample_id("id", record["id"])
    instruction, letter = record.get("instruction", ""), record.get("answerLetter")
    if not isinstance(instruction, str):
        raise FormatError("instruction must be a string")
    if not isinstance(letter, (str, type(None))):
        raise FormatError("answerLetter must be a string")
    inputs, references = _strings(record, "inputs"), _strings(record, "references")
    if not inputs:
        raise FormatError("inputs must be a non-empty list")
    if not references and letter is None:
        raise FormatError("record needs references or answerLetter")
    return TaskInstance(
        id=sample_id,
        instruction_key=instruction,
        input_lines=inputs,
        context_lines=_strings(record, "context"),
        references=references,
        answer_letter=letter,
    )


def load_input_file(path: str | Path) -> list[TaskInstance]:
    """The samples of a batch input: a raw file (JSON, JSONL or CSV) mapped by
    the sidecar `<file>.mapping.json` beside it, or else a JSON or JSONL file
    in the unified sample schema. Every bad row, and any duplicate sample id,
    is named in one FormatError."""
    name = str(path)
    fmt = "jsonl" if name.endswith(".jsonl") else "csv" if name.endswith(".csv") else "json"
    sidecar, mapping = Path(name + ".mapping.json"), None
    if sidecar.exists():
        spec = read_input(sidecar)
        if not isinstance(spec, dict):
            raise FormatError(f"{sidecar}: top level must be a JSON object")
        try:
            mapping = FieldMapping.from_dict(spec)
        except ValueError as exc:
            raise FormatError(f"{sidecar}: {exc}")
        fmt = mapping.format or fmt
    elif fmt == "csv":  # a unified dataset is JSON or JSONL, whatever its suffix
        fmt = "json"
    records = _read_records(path, fmt)
    width = max(4, len(str(len(records))))  # a mapped row's id when the mapping names none
    problems: list[str] = []
    instances: list[TaskInstance] = []
    for row, record in enumerate(records, 1):
        try:
            if mapping is None:
                instances.append(_unified_instance(record))
            else:
                instances.append(_mapped_instance(record, mapping, str(row).zfill(width)))
        except FormatError as exc:
            problems.append(f"row {row}: {exc}")
    counts = Counter(instance.id for instance in instances)
    duplicates = sorted(sample_id for sample_id, count in counts.items() if count > 1)
    if duplicates:
        problems.append(f"duplicate sample ids: {', '.join(duplicates)}")
    if problems:
        raise FormatError(f"{path}: " + "; ".join(problems))
    return instances


def subset(
    samples: Sequence[TaskInstance], num_samples: int, seed: int
) -> list[TaskInstance]:
    """Seeded sample without replacement, preserving source order."""
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
