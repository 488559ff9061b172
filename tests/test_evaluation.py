"""Answer extraction, repeat statistics, and log evaluation.

- `LETTERS`: a final text's answer is the letter after its last `FINAL
  SOLUTION` marker in any case, past an optional run of `:`, `-`, `–` or `=`
  and one opening bracket, upper-cased; without a marker, the one standalone
  capital on its last non-blank line; else none. The marker pattern matches
  what the reference pattern in metrics_oracle.py matches, on texts near one.
- `CORRECT`: a record is correct when its answer is the sample's letter,
  trimmed and upper-cased; a sample without a letter raises DatasetMismatch.
- `AGGREGATES`: repeat means give their mean and sample std (n-1); one
  repeat has std 0 and the annotation `single repeat`; none is a ValueError.
  The repeats' order changes neither, and every mean is `statistics.fmean`,
  bit for bit.
- `GROUPS`: `<job>-r<N>` is repeat N of `<job>`, any other log repeat 1 of
  its stem, each job's repeats in number order. A folder's files that are no
  `.json` or `.jsonl` log are skipped; a file named alone is read whatever
  its suffix.
- A log holds one JSON record per non-blank line; any other line is a ValueError.
- A job's accuracy is each repeat's share of correct records, then their mean
  and std; its pooled values, success rate, turns and clocks (in seconds)
  cover every record. A sample with references adds bleu, rouge1-3, rougeL
  and meteor, and one with a letter accuracy; a record of a sample the
  dataset lacks raises DatasetMismatch.
- `evaluate_logs` writes one camelCase `<job>.eval.json` per job, in job
  order, and `load_eval_results` reads back what it wrote.
"""

from __future__ import annotations

import json
import re
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from agora.domain import TaskInstance
from agora.evaluation import _FINAL_RE, DatasetMismatch, EvalResult, aggregate, evaluate_job, evaluate_logs
from agora.evaluation import extract_answer_letter, fmean, group_log_files, load_eval_results, read_records, record_correct
from metrics_oracle import REFERENCE_FINAL_RE


def sample(i: int, letter: str | None = None, *references: str) -> TaskInstance:
    return TaskInstance(
        id=f"{i:04d}", instruction_key="q", input_lines=("question",), references=references, answer_letter=letter
    )


def log_record(sample_id: str, final_text: str, success: bool = True, turn: int = 1):
    outcome = {"protocol": "majority_consensus", "finalText": final_text, "success": success, "decidedAtTurn": turn}
    return {"config": {}, "task": {"id": sample_id}, "personas": [], "messages": [], "outcome": outcome, "globalClockMs": 1500}


def write_log(folder, name: str, records) -> None:
    (folder / name).write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


def raises_or_equals(expected, call, *args):
    """`call(*args)` raises an exception of `expected`'s type ending in its message, or returns `expected`."""
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=re.escape(str(expected)) + "$"):
            call(*args)
    else:
        assert call(*args) == expected


# -- letter extraction --

# Each final text and the letter extracted from it.
LETTERS = {
    "after the marker": ("Reasoning...\nFINAL SOLUTION: B", "B"),
    "lower case": ("final solution: c", "C"),
    "dash and parenthesis": ("Final Solution - (d)", "D"),
    "bracket and more text": ("FINAL SOLUTION: [A] done", "A"),
    "the last marker wins": ("FINAL SOLUTION: A\nwait, no.\nFINAL SOLUTION: C", "C"),
    "the last line's capital": ("I believe the answer is:\nB", "B"),
    "two capitals on the last line": ("either\nA or B", None),
    "no letter": ("no letters here", None),
    "empty": ("", None),
    "a capital starting a word is no answer": ("The answer is\nB", "B"),
    "capitals starting words only": ("It Depends", None),
}


@pytest.mark.parametrize("text, expected", LETTERS.values(), ids=list(LETTERS))
def test_extract_answer_letter(text, expected):
    assert extract_answer_letter(text) == expected


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


# -- correctness --

# A final text and the sample's letter, and the verdict.
CORRECT = {
    "same letter": ("FINAL SOLUTION: B", "b", True),
    "same letter, padded": ("FINAL SOLUTION: B", " b ", True),
    "other letter": ("FINAL SOLUTION: A", "b", False),
    "no letter extracted": ("mumble", "b", False),
    "sample without a letter": ("FINAL SOLUTION: A", None, DatasetMismatch("sample 0001 has no answer letter")),
}


@pytest.mark.parametrize("text, letter, expected", CORRECT.values(), ids=list(CORRECT))
def test_record_correct(text, letter, expected):
    raises_or_equals(expected, record_correct, log_record("0001", text), sample(1, letter, "x"))


# -- repeat statistics --

# Repeat means, and their mean, std and annotation.
AGGREGATES = {
    # Sample std with n-1: sqrt(((0.1)^2 + (0.1)^2) / 1) = 0.141421...
    "two repeats": ([0.4, 0.6], (0.5, 0.1414213562, None)),
    "one repeat": ([0.7], (0.7, 0.0, "single repeat")),
    "equal repeats": ([0.3, 0.3, 0.3], (0.3, 0.0, None)),
    "no repeat": ([], ValueError("aggregate needs at least one repeat")),
}


@pytest.mark.parametrize("values, expected", AGGREGATES.values(), ids=list(AGGREGATES))
def test_aggregate(values, expected):
    if not isinstance(expected, Exception):
        expected = pytest.approx(expected, abs=1e-9)
    raises_or_equals(expected, lambda: tuple(aggregate(values)))


@given(st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=8), st.data())
def test_aggregate_is_permutation_invariant(values, data):
    shuffled = data.draw(st.permutations(values))
    assert tuple(aggregate(shuffled))[:2] == pytest.approx(tuple(aggregate(values))[:2])


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


# -- reading logs --

# The files of a folder, the one given (None: the folder), and each job with its (repeat, file) pairs.
GROUPS = {
    "repeats and bare names": (
        ["majority-r1.json", "majority-r2.json", "approval-r1.json", "solo.json"], None,
        {"approval": [(1, "approval-r1.json")], "majority": [(1, "majority-r1.json"), (2, "majority-r2.json")], "solo": [(1, "solo.json")]},
    ),
    "repeats in number order": (["j-r10.jsonl", "j-r2.jsonl"], None, {"j": [(2, "j-r2.jsonl"), (10, "j-r10.jsonl")]}),
    "other suffixes skipped": (["job-r1.json", "notes.txt", "job-r2.json.bak"], None, {"job": [(1, "job-r1.json")]}),
    "a file given alone": (["job-r2.jsonl", "other-r1.json"], "job-r2.jsonl", {"job": [(2, "job-r2.jsonl")]}),
    "a file of another suffix given alone": (["job-r2.txt"], "job-r2.txt", {"job-r2": [(1, "job-r2.txt")]}),
}


@pytest.mark.parametrize("names, given, expected", GROUPS.values(), ids=list(GROUPS))
def test_group_log_files(tmp_path, names, given, expected):
    for name in names:
        (tmp_path / name).write_text("", encoding="utf-8")
    expected = {job: [(repeat, tmp_path / name) for repeat, name in files] for job, files in expected.items()}
    assert group_log_files(tmp_path / given if given else tmp_path) == expected


def test_read_records_skips_blank_lines(tmp_path):
    path = tmp_path / "log.json"
    path.write_text('{"a":1}\n\n{"b":2}\n', encoding="utf-8")
    assert read_records(path) == [{"a": 1}, {"b": 2}]
    bad = tmp_path / "bad.json"
    bad.write_text("{not json}\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_records(bad)


# -- job evaluation --


def evaluate(tmp_path, logs: dict, samples) -> EvalResult:
    for name, records in logs.items():
        write_log(tmp_path, name, records)
    (job_files,) = group_log_files(tmp_path).values()
    return evaluate_job("job", job_files, samples)


def test_evaluate_job_accuracy_per_repeat(tmp_path):
    right = [log_record("0001", "FINAL SOLUTION: A"), log_record("0002", "FINAL SOLUTION: B")]
    wrong = [log_record("0001", "FINAL SOLUTION: A"), log_record("0002", "FINAL SOLUTION: C", success=False, turn=7)]
    result = evaluate(tmp_path, {"job-r1.json": right, "job-r2.json": wrong}, [sample(1, "A"), sample(2, "B")])
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
    result = evaluate(tmp_path, {"job-r1.json": [log_record("0001", "the cat sat on the mat")]}, [sample(1, None, "the cat sat on the mat")])
    for metric in ("bleu", "rouge1", "rouge2", "rouge3", "rougeL"):
        assert result.mean[metric] == pytest.approx(1.0)
    assert result.mean["meteor"] == pytest.approx(1 - 0.5 / 6**3)
    assert "accuracy" not in result.mean
    assert result.annotations["bleu"] == "single repeat"


def test_evaluate_job_letter_and_references_together(tmp_path):
    result = evaluate(tmp_path, {"job-r1.json": [log_record("0001", "FINAL SOLUTION: A")]}, [sample(1, "A", "yes")])
    assert "accuracy" in result.mean and "bleu" in result.mean


def test_accuracy_unknown_sample_id(tmp_path):
    with pytest.raises(DatasetMismatch, match="unknown sample id '9999'"):
        evaluate(tmp_path, {"job.json": [log_record("9999", "x")]}, [sample(1, "A")])


# -- end-to-end evaluate + reload --


def test_evaluate_logs_writes_one_file_per_job(tmp_path):
    dataset = tmp_path / "data.json"
    dataset.write_text(
        json.dumps([{"id": "0001", "instruction": "q", "inputs": ["x"], "answerLetter": "A"}]), encoding="utf-8"
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
