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
exit 1 in one line that names it.

And `run --dry-run` is checked against `run`: a fault that `run` meets as it
prepares a job (in the dataset, its sidecar, a log path, a log left beside it
by an earlier batch of more repeats, or a job's keys) gives both the same exit
code and the same one `Error:` line, and neither writes a log.
"""

from __future__ import annotations

import copy
import json
import socket
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


def _run(*flags: str, backend: str = ""):
    """`agora run` on the workspace's config, against its script unless `backend` names another."""
    return lambda root: ["run", "--config", root / "batch.json",
                         "--backend", backend or f"scripted:{root / 'script.json'}", *flags]


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


def _first_run_writes(name: str):
    return lambda root, config: config["runs"][0].update(output_json_file_path=str(root / "out" / name))


# One fault that `run` meets only as it sets a job up: in the dataset, in its
# sidecar, where a log goes, or in a job's keys. Each is (the file, how it is
# spoiled, the argument of the spoiling); the sidecar's faults run on the
# dataset it maps. A "config" fault is an edit of the batch config; the "http"
# one runs the config, which names no model_name, against the HTTP backend at
# an endpoint nothing listens on.
SETUP_FAULTS = {
    "valid": ("tasks.json", "valid", None),
    "valid-mapped": ("raw.json.mapping.json", "valid", None),
    "dataset-missing": ("tasks.json", "missing", None),
    **{f"dataset-{kind}": ("tasks.json", kind, 100) for kind in CORRUPTIONS},
    "dataset-record-without-inputs": ("tasks.json", "mutated", ((0, "inputs"), DROP)),
    "sidecar-input-fields-retyped": ("raw.json.mapping.json", "mutated", (("input_fields",), 5)),
    "sidecar-id-field-absent-from-rows": ("raw.json.mapping.json", "mutated", (("id_field",), "s")),
    "log-under-a-file": ("out/demo-r1.jsonl", "under-a-file", None),
    "log-is-a-directory": ("out/demo-r1.jsonl", "directory", None),
    "log-of-a-repeat-beyond-the-batch": ("out/demo-r2.jsonl", "left-over", None),
    "unknown-key-in-common": ("batch.json", "config", lambda root, config: config["common"].update(turns=3)),
    "unknown-key-in-a-run": ("batch.json", "config", lambda root, config: config["runs"][0].update(turns=3)),
    "http-job-without-model-name": ("batch.json", "http", None),
    "log-path-holding-a-nul": ("batch.json", "config", _first_run_writes("de\0mo.jsonl")),
    "log-suffix-evaluate-skips": ("batch.json", "config", _first_run_writes("demo.txt")),
}


@pytest.fixture
def unheard_url():
    """The URL of a port that is bound but not listening: no request to it can be sent."""
    with socket.socket() as bound:
        bound.bind(("127.0.0.1", 0))
        yield f"http://127.0.0.1:{bound.getsockname()[1]}/v1"


@pytest.mark.parametrize("fault", sorted(SETUP_FAULTS))
def test_dry_run_refuses_exactly_what_run_refuses(tmp_path, unheard_url, fault):
    name, kind, arg = SETUP_FAULTS[fault]
    valid = workspace(tmp_path)
    if name.startswith("raw.json"):
        valid["batch.json"]["common"]["input_json_file_path"] = str(tmp_path / "raw.json")
        (tmp_path / "batch.json").write_bytes(_encoded("batch.json", valid["batch.json"]))
    backend = ""
    target = tmp_path / name
    if kind == "missing":
        target.unlink()
    elif kind == "under-a-file":
        target.parent.write_bytes(b"")
    elif kind == "directory":
        target.unlink(missing_ok=True)
        target.mkdir(parents=True)
    elif kind == "left-over":  # an earlier batch's log, which `evaluate` would read as this job's repeat 2
        target.parent.mkdir(parents=True)
        target.write_bytes(_encoded(name, valid["logs/demo-r1.jsonl"]))
    elif kind in ("config", "http"):
        config = copy.deepcopy(valid[name])
        if kind == "http":
            config["common"]["endpoint_url"], backend = unheard_url, "http"
        else:
            arg(tmp_path, config)
        target.write_bytes(_encoded(name, config))
    elif kind != "valid":
        target.write_bytes(_spoiled(name, valid[name], kind, arg))
    named = target if name.startswith("out/") else tmp_path / name.removesuffix(".mapping.json")
    logs = [tmp_path / "out" / f"{job}-r1.jsonl" for job in ("demo", "vote")]
    errors, codes = [], []
    # The dry run goes first and must write nothing the run could then see.
    for flags in (["--dry-run"], []):
        result = judged(_run(*flags, backend=backend)(tmp_path), named, f"{fault} {flags}")
        errors.append([line for line in result.output.splitlines() if line.startswith("Error:")])
        codes.append(result.exit_code)
        assert any(log.is_file() for log in logs) == (not flags and kind == "valid"), result.output
    assert codes[0] == codes[1] and errors[0] == errors[1], (codes, errors)
    assert (codes[0], len(errors[0])) == ((0, 0) if kind == "valid" else (1, 1)), errors
    assert kind != "left-over" or target.is_file()  # refused, not deleted
    if kind in ("config", "http"):  # refused in the form of every job's fault
        assert errors[0][0].startswith(f"Error: {named}: ") and " r1: " in errors[0][0], errors
