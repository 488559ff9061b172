"""Dataset ingestion: raw-file mapping, unified schema, subsetting, templates,
and the one reader, writer and lister of files."""

from __future__ import annotations

import json
import os
import stat
from pathlib import Path

import pytest

from agora.datasets import (
    FieldMapping,
    FormatError,
    field_fault,
    input_files,
    job_logs,
    load_dataset,
    load_input_file,
    load_unified,
    log_job,
    log_repeat,
    read_input,
    read_jsonl,
    resolve_instruction,
    sidecar_path,
    subset,
    unified_record_to_instance,
    write_output,
)
from agora.domain import TaskInstance


BASIC_MAPPING = FieldMapping(input_fields=("question",), reference_fields=("answer",))


def write_json(tmp_path, name: str, data) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def write_jsonl(tmp_path, name: str, records) -> str:
    path = tmp_path / name
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    return str(path)


# -- the reader and the field checker --


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


def test_a_csv_field_past_the_csv_modules_default_limit_loads_as_from_json(tmp_path):
    # The csv module refuses a field over 131072 characters unless told otherwise.
    text = "x" * 200_000
    csv_path = tmp_path / "data.csv"
    csv_path.write_text(f"question,answer\n{text},a\n", encoding="utf-8")
    json_path = write_json(tmp_path, "data.json", [{"question": text, "answer": "a"}])
    from_csv = load_dataset(str(csv_path), "csv", BASIC_MAPPING)
    assert from_csv == load_dataset(json_path, "json", BASIC_MAPPING)
    assert from_csv[0].input_lines == (text,)


def test_a_csv_cell_keeps_its_line_breaks(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(b'question,answer\r\n"one\r\ntwo",a\r\n"three\rfour",b\nfive,c\r')
    instances = load_dataset(str(path), "csv", BASIC_MAPPING)
    assert [i.input_lines for i in instances] == [("one\r\ntwo",), ("three\rfour",), ("five",)]


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


def test_a_unified_jsonl_dataset_whose_text_holds_a_unicode_line_separator_loads(tmp_path):
    # Written as `agora run` writes, unescaped: a JSONL line ends only at CR LF, CR or LF.
    records = [
        unified_record(inputs=["one\u2028two", "three\u2029four"]),
        unified_record(id="0002", inputs=["\x85"]),
    ]
    json_path = write_json(tmp_path, "u.json", records)
    jsonl_path = tmp_path / "u.jsonl"
    lines = (json.dumps(record, ensure_ascii=False) + "\n" for record in records)
    jsonl_path.write_text("".join(lines), encoding="utf-8")
    assert "\u2028" in jsonl_path.read_text(encoding="utf-8")
    assert load_unified(jsonl_path) == load_unified(json_path)
    assert load_unified(jsonl_path)[0].input_lines == ("one\u2028two", "three\u2029four")


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


# -- field mapping --


def test_mapping_requires_input_and_reference_fields():
    with pytest.raises(ValueError, match="input_fields must not be empty"):
        FieldMapping.from_dict({"input_fields": [], "reference_fields": ["a"]})
    with pytest.raises(ValueError, match="reference_fields must not be empty"):
        FieldMapping.from_dict({"input_fields": ["q"]})
    # The type checks come first, so a sidecar with several faults names a wrong type.
    with pytest.raises(ValueError, match="id_field must be a string"):
        FieldMapping.from_dict({"input_fields": [], "id_field": 3})


def test_mapping_from_dict():
    mapping = FieldMapping.from_dict(
        {
            "input_fields": ["question"],
            "reference_fields": ["answer"],
            "id_field": "qid",
            "context_fields": ["passage"],
            "answer_letter_field": "letter",
        }
    )
    assert mapping.input_fields == ("question",)
    assert mapping.id_field == "qid"
    assert mapping.context_fields == ("passage",)


# -- raw loading --


def test_load_dataset_json_array(tmp_path):
    path = write_json(
        tmp_path,
        "data.json",
        [
            {"question": "Why?", "answer": "Because."},
            {"question": "How?", "answer": "Like so."},
        ],
    )
    instances = load_dataset(path, "json", BASIC_MAPPING)
    assert [i.input_lines for i in instances] == [("Why?",), ("How?",)]
    assert instances[0].references == ("Because.",)


def test_load_dataset_synthesizes_zero_padded_ids(tmp_path):
    path = write_json(
        tmp_path, "data.json", [{"question": f"q{i}", "answer": "a"} for i in range(3)]
    )
    instances = load_dataset(path, "json", BASIC_MAPPING)
    assert [i.id for i in instances] == ["0001", "0002", "0003"]


def test_load_dataset_uses_id_field(tmp_path):
    mapping = FieldMapping(("question",), ("answer",), id_field="qid")
    path = write_json(
        tmp_path, "data.json", [{"qid": "x-9", "question": "q", "answer": "a"}]
    )
    assert load_dataset(path, "json", mapping)[0].id == "x-9"


def test_load_dataset_collects_all_bad_rows(tmp_path):
    path = write_json(
        tmp_path,
        "data.json",
        [
            {"question": "ok", "answer": "ok"},
            {"question": "no answer"},
            {"answer": "no question"},
        ],
    )
    with pytest.raises(FormatError) as exc:
        load_dataset(path, "json", BASIC_MAPPING)
    message = str(exc.value)
    assert "row 2: missing field(s) answer" in message
    assert "row 3: missing field(s) question" in message


def test_load_dataset_duplicate_ids(tmp_path):
    mapping = FieldMapping(("question",), ("answer",), id_field="qid")
    path = write_json(
        tmp_path,
        "data.json",
        [
            {"qid": "a", "question": "q", "answer": "a"},
            {"qid": "a", "question": "q2", "answer": "a2"},
        ],
    )
    with pytest.raises(FormatError, match="duplicate sample ids: a"):
        load_dataset(path, "json", mapping)


def test_load_dataset_list_fields_become_lines(tmp_path):
    mapping = FieldMapping(("parts",), ("answer",), context_fields=("notes",))
    path = write_json(
        tmp_path,
        "data.json",
        [{"parts": ["first", "second"], "answer": "a", "notes": ["n1", "n2"]}],
    )
    instance = load_dataset(path, "json", mapping)[0]
    assert instance.input_lines == ("first", "second")
    assert instance.context_lines == ("n1", "n2")


def test_load_dataset_context_is_optional_per_row(tmp_path):
    mapping = FieldMapping(("question",), ("answer",), context_fields=("passage",))
    path = write_json(
        tmp_path,
        "data.json",
        [{"question": "q", "answer": "a"}, {"question": "q2", "answer": "a2", "passage": "p"}],
    )
    instances = load_dataset(path, "json", mapping)
    assert instances[0].context_lines == ()
    assert instances[1].context_lines == ("p",)


def test_load_dataset_answer_letter(tmp_path):
    mapping = FieldMapping(("question",), ("answer",), answer_letter_field="letter")
    path = write_json(
        tmp_path,
        "data.json",
        [{"question": "q", "answer": "a", "letter": " b "}],
    )
    assert load_dataset(path, "json", mapping)[0].answer_letter == "b"


def test_load_dataset_jsonl_and_csv(tmp_path):
    jsonl = write_jsonl(
        tmp_path, "data.jsonl", [{"question": "q", "answer": "a"}]
    )
    assert len(load_dataset(jsonl, "jsonl", BASIC_MAPPING)) == 1
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("question,answer\nq,a\n", encoding="utf-8")
    instances = load_dataset(str(csv_path), "csv", BASIC_MAPPING)
    assert instances[0].input_lines == ("q",)


def test_load_dataset_rejects_unknown_format(tmp_path):
    path = write_json(tmp_path, "data.json", [{"question": "q", "answer": "a"}])
    with pytest.raises(FormatError):
        load_dataset(path, "xml", BASIC_MAPPING)


def test_load_dataset_rejects_missing_file(tmp_path):
    with pytest.raises(FormatError):
        load_dataset(tmp_path / "absent.json", "json", BASIC_MAPPING)


def test_load_dataset_rejects_empty(tmp_path):
    path = write_json(tmp_path, "data.json", [])
    with pytest.raises(FormatError):
        load_dataset(path, "json", BASIC_MAPPING)


def test_load_dataset_rejects_non_array_json(tmp_path):
    path = write_json(tmp_path, "data.json", {"not": "a list"})
    with pytest.raises(FormatError):
        load_dataset(path, "json", BASIC_MAPPING)


@pytest.mark.parametrize(
    "records, problem",
    [
        ([{"qid": "a", "question": "q"}], "row 1: missing field(s) answer"),
        ([{"qid": "a", "question": "q", "answer": "a"}] * 2, "duplicate sample ids: a"),
    ],
)
def test_load_dataset_names_the_file_in_a_content_error(tmp_path, records, problem):
    path = write_json(tmp_path, "data.json", records)
    with pytest.raises(FormatError) as excinfo:
        load_dataset(path, "json", FieldMapping(("question",), ("answer",), id_field="qid"))
    assert str(excinfo.value) == f"{path}: {problem}"


# -- unified schema --


def unified_record(**overrides):
    record = {
        "id": "0001",
        "instruction": "xsum",
        "inputs": ["An article."],
        "references": ["A summary."],
    }
    record.update(overrides)
    return record


def test_unified_record_roundtrip():
    instance = unified_record_to_instance(unified_record(context=["c"], answerLetter="B"))
    assert instance.id == "0001"
    assert instance.instruction_key == "xsum"
    assert instance.context_lines == ("c",)
    assert instance.answer_letter == "B"
    back = instance.to_unified()
    assert back["id"] == "0001"
    assert back["answerLetter"] == "B"
    assert unified_record_to_instance(back) == instance


def test_unified_record_requirements():
    with pytest.raises(FormatError, match="missing id"):
        unified_record_to_instance({"inputs": ["x"], "references": ["y"]})
    with pytest.raises(FormatError, match="inputs"):
        unified_record_to_instance(unified_record(inputs=[]))
    with pytest.raises(FormatError, match="references or answerLetter"):
        unified_record_to_instance(unified_record(references=[]))


@pytest.mark.parametrize(
    "override, problem",
    [
        ({"id": ["0001"]}, "id must be a string or an integer"),
        ({"id": True}, "id must be a string or an integer"),
        ({"instruction": ["gpqa"]}, "instruction must be a string"),
        ({"instruction": None}, "instruction must be a string"),
        ({"answerLetter": ["B"]}, "answerLetter must be a string"),
        ({"inputs": [{"a": 1}]}, "inputs must be a list of strings"),
        ({"inputs": "An article."}, "inputs must be a list of strings"),
        ({"context": ["c", 2]}, "context must be a list of strings"),
        ({"context": None}, "context must be a list of strings"),
        ({"references": [None]}, "references must be a list of strings"),
    ],
)
def test_unified_record_rejects_a_mistyped_field(override, problem):
    with pytest.raises(FormatError) as excinfo:
        unified_record_to_instance(unified_record(**override))
    assert str(excinfo.value) == problem


def test_unified_record_keeps_an_integer_id_and_a_null_letter():
    instance = unified_record_to_instance(unified_record(id=5, answerLetter=None))
    assert (instance.id, instance.answer_letter) == ("5", None)


def test_unified_letter_only_record_is_valid():
    instance = unified_record_to_instance(
        unified_record(references=[], answerLetter="C")
    )
    assert instance.references == ()
    assert instance.answer_letter == "C"


def test_load_unified_json_and_jsonl(tmp_path):
    records = [unified_record(), unified_record(id="0002")]
    json_path = write_json(tmp_path, "u.json", records)
    jsonl_path = write_jsonl(tmp_path, "u.jsonl", records)
    assert load_unified(json_path) == load_unified(jsonl_path)


def test_load_unified_reports_rows(tmp_path):
    path = write_json(tmp_path, "u.json", [unified_record(), {"inputs": ["x"]}])
    with pytest.raises(FormatError, match="row 2: missing id"):
        load_unified(path)


@pytest.mark.parametrize(
    "records, problem",
    [
        ([unified_record(), {"inputs": ["x"]}], "row 2: missing id"),
        ([unified_record(), unified_record()], "duplicate sample ids: 0001"),
    ],
)
def test_load_unified_names_the_file_in_a_content_error(tmp_path, records, problem):
    path = write_json(tmp_path, "u.json", records)
    with pytest.raises(FormatError) as excinfo:
        load_unified(path)
    assert str(excinfo.value) == f"{path}: {problem}"


def test_load_dataset_keeps_the_text_of_scalar_and_flat_list_values(tmp_path):
    mapping = FieldMapping(("q",), ("ans",), id_field="id", context_fields=("c",),
                           answer_letter_field="letter")
    path = write_json(
        tmp_path, "data.json",
        [{"id": 7, "q": [1, 2.5, True, "x"], "ans": False, "c": 3, "letter": "B"}],
    )
    (instance,) = load_dataset(path, "json", mapping)
    assert instance.id == "7"
    assert instance.input_lines == ("1", "2.5", "True", "x")
    assert instance.references == ("False",)
    assert instance.context_lines == ("3",)
    assert instance.answer_letter == "B"


def test_load_dataset_names_every_row_with_a_value_it_cannot_map(tmp_path):
    mapping = FieldMapping(("q",), ("ans",), id_field="id", context_fields=("c",),
                           answer_letter_field="letter")
    path = write_json(
        tmp_path, "data.json",
        [
            {"id": "ok", "q": "q", "ans": "a"},
            {"id": [7], "q": "q", "ans": "a"},
            {"id": True, "q": "q", "ans": "a"},
            {"id": "r4", "q": {"a": 1}, "ans": "a"},
            {"id": "r5", "q": "q", "ans": [1, {"b": 2}]},
            {"id": "r6", "q": "q", "ans": "a", "c": [["nested"]]},
            {"id": "r7", "q": "q", "ans": "a", "letter": {"x": "A"}},
            # A letter read as the text of a list or a number never equals
            # an extracted one, so the sample would be scored wrong silently.
            {"id": "r8", "q": "q", "ans": "a", "letter": ["B"]},
            {"id": "r9", "q": "q", "ans": "a", "letter": 5},
        ],
    )
    with pytest.raises(FormatError) as excinfo:
        load_dataset(path, "json", mapping)
    flat = "must be a string, number or boolean, or a flat list of them"
    assert str(excinfo.value) == f"{path}: " + "; ".join(
        [
            "row 2: id must be a string or an integer",
            "row 3: id must be a string or an integer",
            f"row 4: q {flat}",
            f"row 5: ans {flat}",
            f"row 6: c {flat}",
            "row 7: letter must be a string",
            "row 8: letter must be a string",
            "row 9: letter must be a string",
        ]
    )


# -- sidecar flow --


def test_load_input_file_unified_without_sidecar(tmp_path):
    path = write_json(tmp_path, "u.json", [unified_record()])
    assert load_input_file(path)[0].id == "0001"


def test_load_input_file_with_sidecar_mapping(tmp_path):
    data_path = write_jsonl(
        tmp_path, "raw.jsonl", [{"question": "q", "answer": "a"}]
    )
    sidecar = sidecar_path(data_path)
    sidecar.write_text(
        json.dumps(
            {
                "input_fields": ["question"],
                "reference_fields": ["answer"],
                "instruction": "xsum",
            }
        ),
        encoding="utf-8",
    )
    (instance,) = load_input_file(data_path)
    assert instance.input_lines == ("q",)
    assert instance.instruction_key == "xsum"


def test_load_input_file_sidecar_format_override(tmp_path):
    # A .txt extension would infer json; the sidecar pins jsonl.
    data_path = tmp_path / "raw.txt"
    data_path.write_text('{"question": "q", "answer": "a"}\n', encoding="utf-8")
    sidecar_path(data_path).write_text(
        json.dumps(
            {"input_fields": ["question"], "reference_fields": ["answer"], "format": "jsonl"}
        ),
        encoding="utf-8",
    )
    assert len(load_input_file(data_path)) == 1


def test_load_input_file_sidecar_without_format_infers_csv(tmp_path):
    data_path = tmp_path / "raw.csv"
    data_path.write_text("question,answer\nq,a\n", encoding="utf-8")
    sidecar_path(data_path).write_text(
        json.dumps({"input_fields": ["question"], "reference_fields": ["answer"]}), encoding="utf-8"
    )
    (instance,) = load_input_file(data_path)
    assert (instance.input_lines, instance.references) == (("q",), ("a",))


def test_load_input_file_bad_sidecar(tmp_path):
    data_path = write_json(tmp_path, "raw.json", [{"question": "q", "answer": "a"}])
    sidecar_path(data_path).write_text("not json", encoding="utf-8")
    with pytest.raises(FormatError):
        load_input_file(data_path)


@pytest.mark.parametrize(
    "override, problem",
    [
        ({"input_fields": "question"}, "input_fields must be a list of strings"),
        ({"reference_fields": ["answer", 1]}, "reference_fields must be a list of strings"),
        ({"context_fields": None}, "context_fields must be a list of strings"),
        ({"id_field": ["x"]}, "id_field must be a string"),
        ({"answer_letter_field": 2}, "answer_letter_field must be a string"),
        ({"format": 5}, "format must be a string"),
        ({"instruction": ["gpqa"]}, "instruction must be a string"),
    ],
)
def test_load_input_file_rejects_a_mistyped_sidecar_field(tmp_path, override, problem):
    data_path = write_json(tmp_path, "raw.json", [{"question": "q", "answer": "a", "x": "1"}])
    sidecar = sidecar_path(data_path)
    spec = {"input_fields": ["question"], "reference_fields": ["answer"], **override}
    sidecar.write_text(json.dumps(spec), encoding="utf-8")
    with pytest.raises(FormatError) as excinfo:
        load_input_file(data_path)
    assert str(excinfo.value) == f"{sidecar}: {problem}"


def test_sidecar_path_appends_suffix():
    assert str(sidecar_path("data/input.json")).endswith("input.json.mapping.json")


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


def test_subset_rejects_non_positive():
    with pytest.raises(ValueError):
        subset(make_samples(3), 0, seed=1)


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
