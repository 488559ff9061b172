"""Dataset loading through `load_input_file` (one `LOADS` row per accepted
dataset), subsetting, templates, log names, and the one writer and lister of
files. Each dataset the loader refuses is a `REFUSALS` row in test_cli.py."""

from __future__ import annotations

import json
import os
import stat
from pathlib import Path

import pytest

from agora.datasets import (
    _LIST_KEYS,
    _STRING_KEYS,
    FieldMapping,
    FormatError,
    field_fault,
    input_files,
    job_logs,
    load_input_file,
    log_job,
    log_repeat,
    read_input,
    read_jsonl,
    resolve_instruction,
    subset,
    write_output,
)
from agora.domain import TaskInstance


# -- the reader, the writer, the lister and the field checker --


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8", "not-json", "too-deep"])
def test_read_input_names_a_file_it_cannot_read(tmp_path, kind):
    path = tmp_path / "input.txt"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b'["\xff"]')
    elif kind == "not-json":
        path.write_text("[1,", encoding="utf-8")
    elif kind == "too-deep":
        path.write_text("[" * 100_000, encoding="utf-8")
    with pytest.raises(FormatError) as excinfo:
        read_input(path)
    expected = f"no such file: {path}" if kind == "missing" else f"cannot read {path}: "
    assert str(excinfo.value).startswith(expected)


def test_write_output_streams_utf8_with_no_newline_translation_into_new_directories(tmp_path):
    path = tmp_path / "a" / "b" / "out.jsonl"
    write_output(path, (f"{line}\n" for line in ["déjà", "x\r\ny"]))
    assert path.read_bytes() == "déjà\nx\r\ny\n".encode("utf-8")
    write_output(path, ["replaced"])
    assert path.read_bytes() == b"replaced"


def record_syncs_and_renames(monkeypatch) -> list[tuple]:
    """Each os.fsync (of a directory or of a file, with its size) and os.replace, in call order; both still run."""
    events: list[tuple] = []
    fsync, replace = os.fsync, os.replace

    def recording_fsync(fd):
        info = os.fstat(fd)
        events.append(("fsync", "directory") if stat.S_ISDIR(info.st_mode) else ("fsync", info.st_size))
        fsync(fd)

    def recording_replace(source, target):
        events.append(("replace", Path(source).name.startswith("."), Path(target).name))
        replace(source, target)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    return events


def test_write_output_syncs_the_whole_file_before_the_rename_and_the_directory_after(tmp_path, monkeypatch):
    # A rename that reaches the disk before the file's bytes do can leave an
    # empty or short file after a power loss.
    events = record_syncs_and_renames(monkeypatch)
    write_output(tmp_path / "out.jsonl", ["déjà\n", "x\n"])
    assert events == [("fsync", len("déjà\nx\n".encode("utf-8"))), ("replace", True, "out.jsonl"), ("fsync", "directory")]


def test_write_output_skips_the_directory_sync_where_no_directory_opens(tmp_path, monkeypatch):
    events = record_syncs_and_renames(monkeypatch)
    real_open = os.open

    def open_no_directory(path, flags, *args, **kwargs):
        if os.path.isdir(path):
            raise PermissionError(13, "Permission denied", str(path))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", open_no_directory)
    write_output(tmp_path / "out.jsonl", ["ok\n"])
    assert (tmp_path / "out.jsonl").read_bytes() == b"ok\n"
    assert events == [("fsync", 3), ("replace", True, "out.jsonl")]


def test_write_output_closes_the_directory_it_opens(tmp_path, monkeypatch):
    opened, real_open = [], os.open

    def recording_open(path, flags, *args, **kwargs):
        opened.append(real_open(path, flags, *args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(os, "open", recording_open)
    write_output(tmp_path / "out.jsonl", ["ok\n"])

    def still_the_folder(fd: int) -> bool:  # a closed number may be reused by another thread, for another file
        try:
            return os.path.samestat(os.fstat(fd), os.stat(tmp_path))
        except OSError:
            return False

    assert opened and not any(still_the_folder(fd) for fd in opened)


@pytest.mark.parametrize("kind", ["parent-is-a-file", "target-is-a-directory", "lone-surrogate"])
def test_write_output_names_a_file_it_cannot_write(tmp_path, kind):
    path, chunks = tmp_path / "out" / "x.json", ["{}"]
    if kind == "parent-is-a-file":
        (tmp_path / "out").write_text("", encoding="utf-8")
    elif kind == "target-is-a-directory":
        path.mkdir(parents=True)
    else:
        chunks = ["ok", "\ud800"]
    with pytest.raises(FormatError) as excinfo:
        write_output(path, chunks)
    assert str(excinfo.value).startswith(f"cannot write {path}: ")


@pytest.mark.parametrize("previous", [None, "old\n"])
def test_write_output_that_fails_leaves_the_previous_file_or_none(tmp_path, previous):
    path = tmp_path / "out.jsonl"
    if previous is not None:
        path.write_text(previous, encoding="utf-8")
    with pytest.raises(FormatError):
        write_output(path, ["ok\n", "\ud800\n"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if previous is None else [path.name])
    if previous is not None:
        assert path.read_text(encoding="utf-8") == previous


def test_write_output_removes_its_temporary_file_when_the_chunks_raise(tmp_path):
    path = tmp_path / "out.jsonl"
    path.write_text("old\n", encoding="utf-8")

    def chunks():
        yield "partial\n"
        raise RuntimeError("record cannot be serialized")

    with pytest.raises(RuntimeError):
        write_output(path, chunks())
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert path.read_text(encoding="utf-8") == "old\n"


def test_write_output_gives_the_file_the_mode_a_plain_open_would(tmp_path):
    write_output(tmp_path / "new.json", ["{}"])
    with open(tmp_path / "plain.json", "w", encoding="utf-8") as handle:
        handle.write("{}")
    assert (tmp_path / "new.json").stat().st_mode == (tmp_path / "plain.json").stat().st_mode


def test_input_files_lists_a_directory_in_name_order_or_names_one_file(tmp_path):
    for name in ("b.json", "a.jsonl", "c.txt"):
        (tmp_path / name).write_text("", encoding="utf-8")
    keep = lambda file: file.suffix in (".json", ".jsonl")
    assert input_files(tmp_path, keep) == [tmp_path / "a.jsonl", tmp_path / "b.json"]
    assert input_files(tmp_path / "c.txt", keep) == [tmp_path / "c.txt"]
    with pytest.raises(FormatError) as excinfo:
        input_files(tmp_path / "nowhere", keep)
    assert str(excinfo.value) == f"no such file: {tmp_path / 'nowhere'}"


def test_read_jsonl_names_a_line_nested_too_deep(tmp_path):
    path = tmp_path / "deep.jsonl"
    path.write_text("{}\n" + "[" * 100_000 + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match="line 2: invalid JSON"):
        read_jsonl(path)


@pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"])
def test_read_jsonl_ends_a_line_at_lf_crlf_or_cr(tmp_path, line_end):
    path = tmp_path / "records.jsonl"
    path.write_bytes(line_end.join(['{"a": 1}', "", '{"b": 2}', "x"]).encode("utf-8"))
    with pytest.raises(FormatError, match="line 4: invalid JSON"):
        read_jsonl(path)
    path.write_bytes(line_end.join(['{"a": 1}', "", '{"b": 2}', ""]).encode("utf-8"))
    assert read_jsonl(path) == [{"a": 1}, {"b": 2}]


def test_field_fault_checks_required_optional_and_dotted_keys():
    table = {
        "a.b": (True, lambda value: isinstance(value, int)),
        "c": (False, lambda value: isinstance(value, str)),
    }
    assert field_fault({"a": {"b": 1}}, table) is None
    assert field_fault({"a": {"b": 1}, "c": "x"}, table) is None
    assert field_fault({"a": {"b": "1"}}, table) == "has no valid a.b"
    assert field_fault({"a": 1, "c": "x"}, table) == "has no valid a.b"
    assert field_fault({"a": {"b": 1}, "c": None}, table) == "has no valid c"
    assert field_fault([{"a": {"b": 1}}], table) == "is not a JSON object"


# -- loading --


def sample(id="0001", inputs=("q",), references=("a",), **fields) -> dict:
    """A sample as `TaskInstance.to_unified` gives it."""
    return {"id": id, "instruction": "", "inputs": list(inputs), "context": [], "references": list(references), **fields}


# Each dataset that `load_input_file` accepts: its files, the first the one
# loaded and `<it>.mapping.json` its sidecar, and the samples it loads. A list
# or dict is written as JSON, a .jsonl file's list one item a line, with text
# unescaped as `agora run` writes it; a str or bytes as it is. A mapped row's
# id, when the sidecar names none, is its number, zero-padded.
UNIFIED = [sample(instruction="xsum", context=["c"], answerLetter="B"), sample("0002", ["An article."], ["A summary."])]
# A JSONL line ends only at CR LF, CR or LF, and JSON text may hold these unescaped.
SEPARATED = [sample(inputs=["one\u2028two", "three\u2029four"]), sample("0002", ["\x85"])]
QA, MAPPING = {"question": "q", "answer": "a"}, {"input_fields": ["question"], "reference_fields": ["answer"]}
MAPPED = [{"question": "Why?", "answer": "Because."}, {"question": "How?", "answer": "Like so."}]
LONG = "x" * 200_000  # the csv module refuses a field over 131072 characters unless told otherwise
LOADS = {
    **{f"unified {suffix}": ({f"u.{suffix}": UNIFIED}, UNIFIED) for suffix in ("json", "jsonl")},
    "unified csv": ({"u.csv": UNIFIED}, UNIFIED),  # with no sidecar, a .csv file is read as JSON
    "an integer id and a null letter": ({"u.json": [{"id": 5, "inputs": ["q"], "references": ["a"], "answerLetter": None}]}, [sample("5")]),
    "a letter only": ({"u.json": [{"id": "0001", "inputs": ["q"], "answerLetter": "C"}]}, [sample(references=[], answerLetter="C")]),
    "unicode separators in jsonl": ({"u.jsonl": SEPARATED}, SEPARATED),
    **{
        f"mapped {suffix}": ({f"raw.{suffix}": content, f"raw.{suffix}.mapping.json": MAPPING},
                             [sample("0001", ["Why?"], ["Because."]), sample("0002", ["How?"], ["Like so."])])
        for suffix, content in [("json", MAPPED), ("jsonl", MAPPED), ("csv", "question,answer\nWhy?,Because.\nHow?,Like so.\n")]
    },
    "an id field": ({"raw.json": [{"qid": "x-9", **QA}], "raw.json.mapping.json": {**MAPPING, "id_field": "qid"}}, [sample("x-9")]),
    # An empty optional value counts as absent.
    "list fields and optional context": (
        {"raw.json": [{"parts": ["first", "second"], "answer": "a", "notes": ["n1", "n2"]}, {"parts": "q2", "answer": "a2"},
                      {"parts": "q3", "answer": "a3", "notes": ""}],
         "raw.json.mapping.json": {"input_fields": ["parts"], "reference_fields": ["answer"], "context_fields": ["notes"]}},
        [sample(inputs=["first", "second"], context=["n1", "n2"]), sample("0002", ["q2"], ["a2"]), sample("0003", ["q3"], ["a3"])]),
    "a stripped letter": ({"raw.json": [{**QA, "letter": " b "}], "raw.json.mapping.json": {**MAPPING, "answer_letter_field": "letter"}},
                          [sample(answerLetter="b")]),
    "scalar and flat-list values as text": (
        {"raw.json": [{"id": 7, "q": [1, 2.5, True, "x"], "ans": False, "c": 3, "letter": "B"}],
         "raw.json.mapping.json": {"input_fields": ["q"], "reference_fields": ["ans"], "id_field": "id", "context_fields": ["c"],
                                   "answer_letter_field": "letter"}},
        [sample("7", ["1", "2.5", "True", "x"], ["False"], context=["3"], answerLetter="B")]),
    "a csv field past the default limit": ({"raw.csv": f"question,answer\n{LONG},a\n", "raw.csv.mapping.json": MAPPING},
                                           [sample(inputs=[LONG])]),
    "csv cells holding line breaks": (
        {"raw.csv": b'question,answer\r\n"one\r\ntwo",a\r\n"three\rfour",b\nfive,c\r', "raw.csv.mapping.json": MAPPING},
        [sample(inputs=["one\r\ntwo"]), sample("0002", ["three\rfour"], ["b"]), sample("0003", ["five"], ["c"])]),
    # Without its format, a .txt file would be read as a JSON array.
    "a format override": ({"raw.txt": '{"question": "q", "answer": "a"}\n', "raw.txt.mapping.json": {**MAPPING, "format": "jsonl"}},
                          [sample()]),
    "an instruction": ({"raw.jsonl": [QA], "raw.jsonl.mapping.json": {**MAPPING, "instruction": "xsum"}}, [sample(instruction="xsum")]),
    # An empty format or instruction counts as absent: the suffix names the format.
    "an empty format and instruction": ({"raw.json": [QA], "raw.json.mapping.json": {**MAPPING, "format": "", "instruction": ""}},
                                        [sample()]),
}


@pytest.mark.parametrize("row", LOADS)
def test_load_input_file_loads_each_accepted_dataset(tmp_path, row):
    files, samples = LOADS[row]
    for name, content in files.items():
        if not isinstance(content, (str, bytes)):
            items = content if name.endswith(".jsonl") else [content]
            content = "".join(json.dumps(item, ensure_ascii=False) + "\n" for item in items)
        (tmp_path / name).write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    assert [instance.to_unified() for instance in load_input_file(tmp_path / next(iter(files)))] == samples


def test_the_sidecar_keys_are_the_mapping_fields():
    # A sidecar key that is no field would be checked and then read around the mapping.
    assert _LIST_KEYS + _STRING_KEYS == FieldMapping._fields


def test_mapping_requires_input_and_reference_fields():
    with pytest.raises(ValueError, match="input_fields must not be empty"):
        FieldMapping.from_dict({"input_fields": [], "reference_fields": ["a"]})
    with pytest.raises(ValueError, match="reference_fields must not be empty"):
        FieldMapping.from_dict({"input_fields": ["q"]})
    # The type checks come first, so a sidecar with several faults names a wrong type.
    with pytest.raises(ValueError, match="id_field must be a string"):
        FieldMapping.from_dict({"input_fields": [], "id_field": 3})


# -- subsetting --


def make_samples(n: int) -> list[TaskInstance]:
    return [
        TaskInstance(id=f"{i:04d}", instruction_key="", input_lines=(f"q{i}",), references=("r",))
        for i in range(1, n + 1)
    ]


def test_subset_is_seeded_and_order_preserving():
    samples = make_samples(10)
    first = subset(samples, 4, seed=7)
    second = subset(samples, 4, seed=7)
    assert first == second
    assert [s.id for s in first] == sorted(s.id for s in first)
    assert subset(samples, 4, seed=8) != first


def test_subset_returns_everything_when_large_enough():
    samples = make_samples(3)
    assert subset(samples, 3, seed=1) == samples
    assert subset(samples, 99, seed=1) == samples


# -- instruction registry --


def test_registry_covers_the_shipped_tasks():
    shipped = ("etpc", "gpqa", "mmlu_pro", "strategyqa", "winogrande", "xsum")
    for key in shipped:
        assert resolve_instruction(key) != key
        assert len(resolve_instruction(key)) > 20


def test_multiple_choice_templates_carry_the_footer():
    for key in ("winogrande", "strategyqa", "gpqa", "mmlu_pro"):
        assert "FINAL SOLUTION" in resolve_instruction(key)
    for key in ("etpc", "xsum"):
        assert "FINAL SOLUTION" not in resolve_instruction(key)


def test_resolve_instruction_passthrough():
    assert resolve_instruction("xsum") == "Summarize the following article in a single sentence."
    assert resolve_instruction("Do the thing.") == "Do the thing."


@pytest.mark.parametrize(
    "output, job, logs, logs_read",
    [
        ("out/a.jsonl", "a", ["out/a-r1.jsonl", "out/a-r2.jsonl"], True),
        ("./out//a.b.json", "a.b", ["./out//a.b-r1.json", "./out//a.b-r2.json"], True),
        ("x-r3.jsonl", "x-r3", ["x-r3-r1.jsonl", "x-r3-r2.jsonl"], True),
        ("out/a\nb-r1\n.jsonl", "a\nb-r1\n", ["out/a\nb-r1\n-r1.jsonl", "out/a\nb-r1\n-r2.jsonl"], True),
        ("out/..jsonl", ".", ["out/.-r1.jsonl", "out/.-r2.jsonl"], True),
        # No suffix a log has: `evaluate` reads none of these, and `run` refuses them.
        ("out/a", "a", ["out/a-r1", "out/a-r2"], False),
        ("out/a.jsonl/", "", ["out/a.jsonl/-r1", "out/a.jsonl/-r2"], False),
    ],
)
def test_log_repeat_reads_back_the_job_and_repeat_job_logs_names(output, job, logs, logs_read):
    assert job_logs(output, 2) == (job, logs)
    assert [log_repeat(Path(log)) for log in logs] == ([(job, 1), (job, 2)] if logs_read else [None, None])


def test_log_repeat_reads_a_repeat_number_in_ascii_digits_only():
    # As job_logs writes it: an ARABIC-INDIC DIGIT ONE is part of the job name.
    assert log_repeat(Path("x-r\u0661.jsonl")) == ("x-r\u0661", 1)
    assert log_repeat(Path("x-r01.jsonl")) == ("x", 1)


@pytest.mark.parametrize("name", ["..-r3.json", ".-r2.jsonl", "..jsonl", "a\\b.json"])
def test_log_job_refuses_a_job_name_that_is_not_a_plain_file_name(name):
    with pytest.raises(FormatError, match="is not a plain file name"):
        log_job(Path("logs") / name)


def test_log_job_reads_a_file_of_another_suffix_as_repeat_1_of_its_stem():
    # `evaluate` reads a log named alone whatever its suffix.
    assert log_job(Path("logs") / "x-r2.txt") == ("x-r2", 1)
