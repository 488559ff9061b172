"""Fuzzing every input file through the CLI: a bad file fails in one line that names it.

Each CLI entry reads some input files: `run --dry-run` the batch config,
`run --backend scripted:` the script, `evaluate` the dataset, its mapping
sidecar and the debate logs, and `chart` the eval files. Each test writes a
valid workspace, spoils one file, runs the entry that reads it, and checks:

- no exception escapes the CLI, and the exit code is 0 or 1;
- every `Error:` and `ABORTED:` line names the spoiled file. A sidecar is part
  of the dataset it maps, so its lines may name that dataset (whose path the
  sidecar's extends); and `chart` may name the job instead of its eval file
  when the job has no metrics.

A file is spoiled by a corruption (bytes that are not UTF-8, a truncation, an
empty file, or a directory in its place) or by a mutation of its JSON
document: a dropped key or list item, or a value retyped to null, 5, "s",
[], {} or true.

The outputs get the same oracle: an `--out` that cannot be written (a file in
its place or in a parent's, or a directory where an eval file goes) fails with
exit 1 in one line that names it. A fault that `run` meets as it prepares a
job is a row of the refusal table in `test_cli.py` instead.
"""

from __future__ import annotations

import copy
import json
import tempfile
import traceback
from functools import reduce
from operator import getitem
from pathlib import Path
from typing import Any

import pytest
from click.testing import CliRunner, Result
from hypothesis import example, given, settings, strategies as st

from agora.cli import main

DRAFT_HOOK = "Nobody proposed a solution yet."
IMPROVE_HOOK = "Improve the current solution."


def documents(root: Path) -> dict[str, Any]:
    """The valid JSON document of each input file; a JSONL file's is its list of lines."""
    tasks = [
        {
            "id": f"000{i}",
            "instruction": "Answer the question.",
            "inputs": [f"What is {i}+{i}?"],
            "context": ["Pick a letter."],
            "references": [f"It is {2 * i}."],
            "answerLetter": "AB"[i - 1],
        }
        for i in (1, 2)
    ]
    raw = [
        {"qid": f"000{i}", "question": f"What is {i}+{i}?", "answer": f"It is {2 * i}.",
         "letter": "AB"[i - 1]}
        for i in (1, 2)
    ]
    sidecar = {
        "format": "json",
        "instruction": "gpqa",
        "input_fields": ["question"],
        "reference_fields": ["answer"],
        "context_fields": [],
        "id_field": "qid",
        "answer_letter_field": "letter",
    }
    log = [
        {
            "task": {"id": f"000{i}"},
            "outcome": {"finalText": f"It is {2 * i}.\nFINAL SOLUTION: (A)",
                        "decidedAtTurn": i, "success": True},
            "globalClockMs": 10 * i,
        }
        for i in (1, 2)
    ]
    evaluated = {
        "jobName": "demo",
        "repeats": 1,
        "mean": {"accuracy": 0.5, "bleu": 0.25},
        "std": {"accuracy": 0.0, "bleu": 0.0},
        "annotations": {"accuracy": "single repeat"},
        "metricValues": {"accuracy": [1.0, 0.0], "bleu": [0.5, 0.0]},
        "decisionSuccessRate": 1.0,
        "turns": [1, 2],
        "wallClockS": [0.01, 0.02],
    }
    script = {
        "rules": [
            {"match": [{"contains": DRAFT_HOOK, "role": "system"}],
             "response": "It is A.\nFINAL SOLUTION: (A)", "repeatable": True},
            {"match": [{"contains": IMPROVE_HOOK}], "response": "Right. [AGREE]",
             "repeatable": True},
            {"response": "I pick A.\nFINAL SOLUTION: (A)", "repeatable": True},
        ]
    }
    config = {
        "name": "fuzz",
        "repeats": 1,
        "common": {"input_json_file_path": str(root / "tasks.json"), "max_turns": 3},
        "runs": [
            {"output_json_file_path": str(root / "out" / "demo.jsonl")},
            {"output_json_file_path": str(root / "out" / "vote.jsonl"), "num_agents": 3,
             "decision_protocol": "simple_voting", "discussion_paradigm": "relay"},
        ],
    }
    return {
        "tasks.json": tasks,
        "raw.json": raw,
        "raw.json.mapping.json": sidecar,
        "logs/demo-r1.jsonl": log,
        "evals/demo.eval.json": evaluated,
        "script.json": script,
        "batch.json": config,
    }


def _evaluate(dataset: str, out: str = "scores"):
    return lambda root: ["evaluate", "--logs", root / "logs", "--dataset", root / dataset,
                         "--out", root / out]


def _chart(out: str = "charts"):
    return lambda root: ["chart", "--evals", root / "evals", "--out", root / out]


def _run(*flags: str):
    """`agora run` on the workspace's config, against its script."""
    return lambda root: ["run", "--config", root / "batch.json",
                         "--backend", f"scripted:{root / 'script.json'}", *flags]


# The file each entry spoils: the CLI arguments that read it, and the file its
# error lines must name.
ENTRIES = {
    "batch.json": (_run("--dry-run"), "batch.json"),
    "script.json": (_run(), "script.json"),
    "tasks.json": (_evaluate("tasks.json"), "tasks.json"),
    "raw.json.mapping.json": (_evaluate("raw.json"), "raw.json"),
    "logs/demo-r1.jsonl": (_evaluate("tasks.json"), "logs/demo-r1.jsonl"),
    "evals/demo.eval.json": (_chart(), "evals/demo.eval.json"),
}

CORRUPTIONS = ["not-utf8", "truncated", "empty", "directory"]

DROP = "<dropped>"
REPLACEMENTS = [DROP, None, 5, "s", [], {}, True]


def _encoded(name: str, document: Any) -> bytes:
    if name.endswith(".jsonl"):
        return "".join(json.dumps(line) + "\n" for line in document).encode("utf-8")
    return json.dumps(document, indent=1).encode("utf-8")


def _paths(value: Any, prefix: tuple = ()) -> list[tuple]:
    """The path of every value inside a JSON document, the document's own first."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = []
    return [prefix] + [p for key, child in children for p in _paths(child, prefix + (key,))]


def _mutated(document: Any, path: tuple, replacement: Any) -> Any:
    if not path:
        return replacement
    document = copy.deepcopy(document)
    parent = reduce(getitem, path[:-1], document)
    if replacement == DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return document


def _spoiled(name: str, document: Any, kind: str, arg: Any) -> bytes:
    valid = _encoded(name, document)
    if kind == "not-utf8":
        return valid[: len(valid) // 2] + b"\xff" + valid[len(valid) // 2 :]
    if kind == "truncated":
        return valid[: arg % len(valid)]
    if kind == "empty":
        return b""
    return _encoded(name, _mutated(document, *arg))


def workspace(root: Path) -> dict[str, Any]:
    """Write every input file's valid document under `root`, and return the documents."""
    valid = documents(root)
    for file, document in valid.items():
        (root / file).parent.mkdir(parents=True, exist_ok=True)
        (root / file).write_bytes(_encoded(file, document))
    return valid


def judged(args: list, named: Path, where: str, job_named: bool = False) -> Result:
    """Run the CLI: no exception escapes, the exit code is 0 or 1, and every error
    line names `named` (or a job with no metrics, when `job_named` allows it)."""
    result = CliRunner().invoke(main, [str(part) for part in args])
    where += f":\n{result.output}"
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        where += "".join(traceback.format_exception(result.exception))
        pytest.fail(f"uncaught exception for {where}")
    assert result.exit_code in (0, 1), where
    for line in result.output.splitlines():
        if line.startswith("Error:") or "ABORTED:" in line:
            assert str(named) in line or (job_named and "has no metrics" in line), where
    return result


def check(name: str, kind: str, arg: Any = None) -> Result:
    """Spoil one file of a fresh workspace, run the entry that reads it, and judge the output."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        valid = workspace(root)
        if kind == "directory":
            (root / name).unlink()
            (root / name).mkdir()
        elif kind != "valid":
            (root / name).write_bytes(_spoiled(name, valid[name], kind, arg))
        args, named = ENTRIES[name]
        where = f"{name} {kind} {arg!r}"
        return judged(args(root), root / named, where, job_named=name.startswith("evals/"))


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_every_entry_runs_on_the_valid_workspace(name):
    result = check(name, "valid")
    assert result.exit_code == 0 and "Error" not in result.output, result.output


@pytest.mark.parametrize("name", sorted(ENTRIES))
@pytest.mark.parametrize("kind", CORRUPTIONS)
def test_a_corrupt_input_file_fails_in_one_line_naming_it(name, kind):
    check(name, kind, len(_encoded(name, documents(Path("/")))) // 2)


# A JSONL file's document is its list of lines, which stays a list.
_PATHS = {
    name: _paths(document)[name.endswith(".jsonl") :]
    for name, document in documents(Path("/")).items()
}


@st.composite
def spoilings(draw) -> tuple[str, str, Any]:
    name = draw(st.sampled_from(sorted(ENTRIES)))
    if draw(st.integers(0, 9)) == 0:
        return name, "truncated", draw(st.integers(0, 10_000))
    path = draw(st.sampled_from(_PATHS[name]))
    replacement = draw(st.sampled_from(REPLACEMENTS if path else REPLACEMENTS[1:]))
    return name, "mutated", (path, replacement)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(spoilings())
@example(("raw.json.mapping.json", "mutated", (("format",), "s")))
@example(("tasks.json", "mutated", ((0, "id"), 5)))  # the logs name an id it lacks
@example(("tasks.json", "mutated", ((1, "answerLetter"), DROP)))  # a sample with no letter
def test_a_mutated_input_file_fails_in_one_line_naming_it_or_runs(spoiling):
    check(*spoiling)


# An output path the entry cannot write: its --out, and what stands in the way
# (a file, or a directory where the entry writes a file).
BLOCKED_OUTPUTS = [
    (_evaluate("tasks.json", "scores"), "scores", "file", "scores"),
    (_chart("charts"), "charts", "file", "charts"),
    (_chart("charts/sub"), "charts/sub", "file", "charts"),
    (_evaluate("tasks.json", "scores"), "scores", "directory", "scores/demo.eval.json"),
]


@pytest.mark.parametrize(
    "args, out, kind, blocker",
    BLOCKED_OUTPUTS,
    ids=["evaluate-out-is-a-file", "chart-out-is-a-file", "chart-out-under-a-file",
         "eval-file-is-a-directory"],
)
def test_an_output_that_cannot_be_written_fails_in_one_line_naming_it(
    tmp_path, args, out, kind, blocker
):
    workspace(tmp_path)
    if kind == "directory":
        (tmp_path / blocker).mkdir(parents=True)
    else:
        (tmp_path / blocker).write_bytes(b"")
    result = judged(args(tmp_path), tmp_path / out, f"--out {out}, a {kind} at {blocker}")
    assert result.exit_code == 1, result.output
    assert result.output.startswith("Error: cannot write "), result.output
    assert len(result.output.splitlines()) == 1, result.output
