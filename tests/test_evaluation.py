"""Answer extraction, repeat statistics, and log evaluation."""

from __future__ import annotations

import json
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from agora.domain import TaskInstance
from agora.evaluation import (
    _FINAL_RE,
    DatasetMismatch,
    EvalResult,
    aggregate,
    evaluate_job,
    evaluate_logs,
    extract_answer_letter,
    fmean,
    group_log_files,
    load_eval_results,
    read_records,
    record_correct,
)
from metrics_oracle import REFERENCE_FINAL_RE


def mc_sample(i: int, letter: str) -> TaskInstance:
    return TaskInstance(
        id=f"{i:04d}",
        instruction_key="q",
        input_lines=("question",),
        answer_letter=letter,
    )


def free_sample(i: int, *references: str) -> TaskInstance:
    return TaskInstance(
        id=f"{i:04d}",
        instruction_key="q",
        input_lines=("question",),
        references=references,
    )


def log_record(sample_id: str, final_text: str, success: bool = True, turn: int = 1):
    return {
        "config": {},
        "task": {"id": sample_id},
        "personas": [],
        "messages": [],
        "outcome": {
            "protocol": "majority_consensus",
            "finalText": final_text,
            "success": success,
            "decidedAtTurn": turn,
        },
        "globalClockMs": 1500,
    }


# -- letter extraction --


def test_extract_letter_after_marker():
    assert extract_answer_letter("Reasoning...\nFINAL SOLUTION: B") == "B"
    assert extract_answer_letter("final solution: c") == "C"
    assert extract_answer_letter("Final Solution - (d)") == "D"
    assert extract_answer_letter("FINAL SOLUTION: [A] done") == "A"


def test_extract_letter_last_marker_wins():
    text = "FINAL SOLUTION: A\nwait, no.\nFINAL SOLUTION: C"
    assert extract_answer_letter(text) == "C"


def test_extract_letter_final_line_fallback():
    assert extract_answer_letter("I believe the answer is:\nB") == "B"
    # Two standalone capitals on the last line is ambiguous.
    assert extract_answer_letter("either\nA or B") is None


def test_extract_letter_none_when_absent():
    assert extract_answer_letter("no letters here") is None
    assert extract_answer_letter("") is None


# Texts that come near a FINAL SOLUTION marker: each part of the marker in
# its order (spelling, whitespace, separators, bracket, letter, what follows),
# each part drawn from right and wrong pieces, among bits of other text.
_WHITESPACE = st.sampled_from(["", " ", "  ", "\n", "\t ", "\u2028", "\r\n"])
markers = st.tuples(
    st.sampled_from(["final", "FINAL", "Final"]),
    _WHITESPACE,
    st.sampled_from(["solution", "SOLUTION", "solutions"]),
    _WHITESPACE,
    st.sampled_from(["", ":", "-", "–", "=", ":-", "==", "!", ";"]),
    _WHITESPACE,
    st.sampled_from(["", "(", "[", "{", "((", ")"]),
    _WHITESPACE,
    st.sampled_from(["", "a", "B", "é", "1", "_", "ab"]),
    st.sampled_from(["", " ", ".", ")", "x", "1"]),
).map("".join)
marker_texts = st.lists(st.one_of(markers, st.text(max_size=6)), min_size=1, max_size=4).map("".join)


@settings(max_examples=500)
@given(marker_texts)
def test_the_answer_pattern_matches_as_the_reference_pattern_does(text):
    assert _FINAL_RE.findall(text) == REFERENCE_FINAL_RE.findall(text)


def test_extract_letter_ignores_capitals_inside_words():
    assert extract_answer_letter("The answer is\nB") == "B"
    assert extract_answer_letter("It Depends") is None


# -- correctness and accuracy --


def test_record_correct_compares_upper():
    sample = mc_sample(1, "b")
    assert record_correct(log_record("0001", "FINAL SOLUTION: B"), sample)
    assert not record_correct(log_record("0001", "FINAL SOLUTION: A"), sample)
    assert not record_correct(log_record("0001", "mumble"), sample)


def test_record_correct_requires_reference_letter():
    with pytest.raises(DatasetMismatch, match="has no answer letter"):
        record_correct(log_record("0001", "FINAL SOLUTION: A"), free_sample(1, "x"))


def test_accuracy_over_records(tmp_path):
    samples = [mc_sample(1, "A"), mc_sample(2, "B")]
    records = [
        log_record("0001", "FINAL SOLUTION: A"),
        log_record("0002", "FINAL SOLUTION: C"),
    ]
    write_log(tmp_path, "job.json", records)
    result = evaluate_job("job", [(1, tmp_path / "job.json")], samples)
    assert result.mean["accuracy"] == 0.5


def test_accuracy_unknown_sample_id(tmp_path):
    write_log(tmp_path, "job.json", [log_record("9999", "x")])
    with pytest.raises(DatasetMismatch, match="unknown sample id '9999'"):
        evaluate_job("job", [(1, tmp_path / "job.json")], [mc_sample(1, "A")])


# -- repeat statistics --


def test_aggregate_two_repeats():
    stats = aggregate([0.4, 0.6])
    assert stats.mean == pytest.approx(0.5)
    # Sample std with n-1: sqrt(((0.1)^2 + (0.1)^2) / 1) = 0.141421...
    assert stats.std == pytest.approx(0.1414213562, abs=1e-6)
    assert stats.annotation is None


def test_aggregate_single_repeat_annotated():
    stats = aggregate([0.7])
    assert stats.mean == 0.7
    assert stats.std == 0.0
    assert stats.annotation == "single repeat"


def test_aggregate_constant_repeats_zero_std():
    assert aggregate([0.3, 0.3, 0.3]).std == 0.0


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate([])


@given(st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=8), st.data())
def test_aggregate_is_permutation_invariant(values, data):
    shuffled = data.draw(st.permutations(values))
    a = aggregate(values)
    b = aggregate(shuffled)
    assert a.mean == pytest.approx(b.mean)
    assert a.std == pytest.approx(b.std)


@given(
    st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=50)
    | st.lists(st.integers(0, 10**6), min_size=1, max_size=50)
)
def test_means_equal_statistics_fmean_bit_for_bit(values):
    # `fmean` takes each repeat's mean and the charts' means; `aggregate`
    # takes the mean over repeats. Floats and integers (turn counts) alike.
    expected = statistics.fmean(values).hex()
    assert fmean(values).hex() == expected
    assert aggregate(values).mean.hex() == expected


# -- file grouping --


def test_group_log_files_by_repeat_suffix(tmp_path):
    for name in ("majority-r1.json", "majority-r2.json", "approval-r1.json", "solo.json"):
        (tmp_path / name).write_text("", encoding="utf-8")
    groups = group_log_files(tmp_path)
    assert sorted(groups) == ["approval", "majority", "solo"]
    assert [r for r, _ in groups["majority"]] == [1, 2]
    assert groups["solo"][0][0] == 1


def test_group_log_files_single_file(tmp_path):
    path = tmp_path / "job-r2.jsonl"
    path.write_text("", encoding="utf-8")
    groups = group_log_files(path)
    assert groups == {"job": [(2, path)]}


def test_read_records_skips_blank_lines(tmp_path):
    path = tmp_path / "log.json"
    path.write_text('{"a":1}\n\n{"b":2}\n', encoding="utf-8")
    assert read_records(path) == [{"a": 1}, {"b": 2}]
    bad = tmp_path / "bad.json"
    bad.write_text("{not json}\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_records(bad)


# -- job evaluation --


def write_log(tmp_path, name: str, records) -> None:
    path = tmp_path / name
    path.write_text(
        "\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8"
    )


def test_evaluate_job_accuracy_per_repeat(tmp_path):
    samples = [mc_sample(1, "A"), mc_sample(2, "B")]
    write_log(
        tmp_path,
        "job-r1.json",
        [
            log_record("0001", "FINAL SOLUTION: A"),
            log_record("0002", "FINAL SOLUTION: B"),
        ],
    )
    write_log(
        tmp_path,
        "job-r2.json",
        [
            log_record("0001", "FINAL SOLUTION: A"),
            log_record("0002", "FINAL SOLUTION: C", success=False, turn=7),
        ],
    )
    (job_files,) = group_log_files(tmp_path).values()
    result = evaluate_job("job", job_files, samples)
    assert result.repeats == 2
    # Repeat means 1.0 and 0.5.
    assert result.mean["accuracy"] == pytest.approx(0.75)
    assert result.std["accuracy"] == pytest.approx(0.3535533906, abs=1e-6)
    assert result.metric_values["accuracy"] == [1.0, 1.0, 1.0, 0.0]
    assert result.decision_success_rate == pytest.approx(3 / 4)
    assert result.turns == [1, 1, 1, 7]
    assert result.wall_clock_s == [1.5, 1.5, 1.5, 1.5]
    assert "accuracy" not in result.annotations


def test_evaluate_job_free_text_metrics(tmp_path):
    samples = [free_sample(1, "the cat sat on the mat")]
    write_log(tmp_path, "job-r1.json", [log_record("0001", "the cat sat on the mat")])
    (job_files,) = group_log_files(tmp_path).values()
    result = evaluate_job("job", job_files, samples)
    for metric in ("bleu", "rouge1", "rouge2", "rouge3", "rougeL"):
        assert result.mean[metric] == pytest.approx(1.0)
    assert result.mean["meteor"] == pytest.approx(1 - 0.5 / 6**3)
    assert "accuracy" not in result.mean
    assert result.annotations["bleu"] == "single repeat"


def test_evaluate_job_letter_and_references_together(tmp_path):
    sample = TaskInstance(
        id="0001",
        instruction_key="q",
        input_lines=("question",),
        references=("yes",),
        answer_letter="A",
    )
    write_log(tmp_path, "job-r1.json", [log_record("0001", "FINAL SOLUTION: A")])
    (job_files,) = group_log_files(tmp_path).values()
    result = evaluate_job("job", job_files, [sample])
    assert "accuracy" in result.mean and "bleu" in result.mean


# -- end-to-end evaluate + reload --


def test_evaluate_logs_writes_one_file_per_job(tmp_path):
    dataset = tmp_path / "data.json"
    dataset.write_text(
        json.dumps(
            [
                {"id": "0001", "instruction": "q", "inputs": ["x"], "answerLetter": "A"},
            ]
        ),
        encoding="utf-8",
    )
    logs = tmp_path / "logs"
    logs.mkdir()
    write_log(logs, "alpha-r1.json", [log_record("0001", "FINAL SOLUTION: A")])
    write_log(logs, "beta-r1.json", [log_record("0001", "FINAL SOLUTION: B")])
    out = tmp_path / "evals"
    written = evaluate_logs(logs, dataset, out)
    assert [p.name for p in written] == ["alpha.eval.json", "beta.eval.json"]

    results = load_eval_results(out)
    assert [r.job_name for r in results] == ["alpha", "beta"]
    assert results[0].mean["accuracy"] == 1.0
    assert results[1].mean["accuracy"] == 0.0
    # The on-disk shape uses camelCase and survives the round trip.
    raw = json.loads(written[0].read_text(encoding="utf-8"))
    assert raw["jobName"] == "alpha"
    assert raw["decisionSuccessRate"] == 1.0
    assert EvalResult.from_json(raw).mean == results[0].mean


