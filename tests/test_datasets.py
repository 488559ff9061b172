"""Dataset ingestion: raw-file mapping, unified schema, subsetting, templates,
and the one reader, writer and lister of files."""

from __future__ import annotations

import csv
import io
import json

import pytest

from agora.datasets import (
    EmptyDataset,
    FieldMapping,
    FormatError,
    MappingError,
    field_fault,
    input_files,
    load_dataset,
    load_input_file,
    load_unified,
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


@pytest.mark.parametrize(
    "kind", ["missing", "directory", "not-utf8", "not-json", "too-deep", "csv-error"]
)
def test_read_input_names_a_file_it_cannot_read(tmp_path, kind):
    path = tmp_path / "input.txt"
    parse = json.loads
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b'["\xff"]')
    elif kind == "not-json":
        path.write_text("[1,", encoding="utf-8")
    elif kind == "too-deep":
        path.write_text("[" * 100_000, encoding="utf-8")
    elif kind == "csv-error":
        path.write_text("a\n" + "x" * 200_000 + "\n", encoding="utf-8")
        parse = lambda text: list(csv.reader(io.StringIO(text)))
    with pytest.raises(FormatError) as excinfo:
        read_input(path, parse)
    expected = f"no such file: {path}" if kind == "missing" else f"cannot read {path}: "
    assert str(excinfo.value).startswith(expected)


def test_write_output_streams_utf8_with_no_newline_translation_into_new_directories(tmp_path):
    path = tmp_path / "a" / "b" / "out.jsonl"
    write_output(path, (f"{line}\n" for line in ["déjà", "x\r\ny"]))
    assert path.read_bytes() == "déjà\nx\r\ny\n".encode("utf-8")
    write_output(path, ["replaced"])
    assert path.read_bytes() == b"replaced"


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


def test_input_files_lists_a_directory_in_name_order_or_names_one_file(tmp_path):
    for name in ("b.json", "a.jsonl", "c.txt"):
        (tmp_path / name).write_text("", encoding="utf-8")
    keep = lambda file: file.suffix in (".json", ".jsonl")
    assert input_files(tmp_path, keep) == [tmp_path / "a.jsonl", tmp_path / "b.json"]
    assert input_files(tmp_path / "c.txt", keep) == [tmp_path / "c.txt"]
    with pytest.raises(FormatError) as excinfo:
        input_files(tmp_path / "nowhere", keep)
    assert str(excinfo.value) == f"no such file: {tmp_path / 'nowhere'}"


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
    with pytest.raises(ValueError):
        FieldMapping(input_fields=(), reference_fields=("a",))
    with pytest.raises(ValueError):
        FieldMapping(input_fields=("q",), reference_fields=())


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
    with pytest.raises(MappingError) as exc:
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
    with pytest.raises(MappingError, match="duplicate sample ids: a"):
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
    with pytest.raises(EmptyDataset):
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
    with pytest.raises(MappingError) as excinfo:
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
    with pytest.raises(MappingError, match="missing id"):
        unified_record_to_instance({"inputs": ["x"], "references": ["y"]})
    with pytest.raises(MappingError, match="inputs"):
        unified_record_to_instance(unified_record(inputs=[]))
    with pytest.raises(MappingError, match="references or answerLetter"):
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
    with pytest.raises(MappingError) as excinfo:
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
    with pytest.raises(MappingError, match="row 2: missing id"):
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
    with pytest.raises(MappingError) as excinfo:
        load_unified(path)
    assert str(excinfo.value) == f"{path}: {problem}"


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
    with pytest.raises(MappingError) as excinfo:
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
