"""End-to-end CLI flows: run, evaluate, chart."""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from agora.cli import main

DRAFT_HOOK = "Nobody proposed a solution yet."
IMPROVE_HOOK = "Improve the current solution."


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def make_workspace(tmp_path, repeats=2):
    """Dataset + canned script + batch config wired for a scripted run."""
    dataset = write_json(
        tmp_path / "tasks.json",
        [
            {
                "id": "0001",
                "instruction": "Answer the question.",
                "inputs": ["What is 2+2?"],
                "answerLetter": "A",
            },
            {
                "id": "0002",
                "instruction": "Answer the question.",
                "inputs": ["What is 3+3?"],
                "answerLetter": "B",
            },
        ],
    )
    script = write_json(
        tmp_path / "script.json",
        {
            "rules": [
                {
                    "match": [{"contains": DRAFT_HOOK}],
                    "response": "It is A.\nFINAL SOLUTION: (A)",
                    "repeatable": True,
                },
                {
                    "match": [{"contains": IMPROVE_HOOK}],
                    "response": "Right. [AGREE]",
                    "repeatable": True,
                },
            ]
        },
    )
    config = write_json(
        tmp_path / "batch.json",
        {
            "repeats": repeats,
            "common": {"input_json_file_path": str(dataset)},
            "runs": [{"output_json_file_path": str(tmp_path / "logs" / "demo.jsonl")}],
        },
    )
    return dataset, script, config


def test_help_lists_commands():
    result = CliRunner().invoke(main, ["--help"])
    assert result.exit_code == 0
    for command in ("run", "evaluate", "chart"):
        assert command in result.output


def test_run_dry_run_prints_job_table(tmp_path):
    _, script, config = make_workspace(tmp_path, repeats=2)
    result = CliRunner().invoke(
        main,
        ["run", "--config", str(config), "--backend", f"scripted:{script}", "--dry-run"],
    )
    assert result.exit_code == 0
    assert "2 job(s) from 1 run(s) x 2 repeat(s)" in result.output
    assert "demo r1 ->" in result.output
    assert "demo-r2.jsonl" in result.output
    assert "[protocol=majority_consensus paradigm=memory]" in result.output
    # Dry run must not execute anything.
    assert not (tmp_path / "logs").exists()


def test_run_dry_run_shows_overridden_protocol(tmp_path):
    dataset, script, _ = make_workspace(tmp_path)
    config = write_json(
        tmp_path / "voting.json",
        {
            "repeats": 1,
            "common": {"input_json_file_path": str(dataset)},
            "runs": [
                {
                    "output_json_file_path": str(tmp_path / "v.jsonl"),
                    "decision_protocol": "simple_voting",
                    "discussion_paradigm": "relay",
                },
                {
                    "output_json_file_path": str(tmp_path / "b.jsonl"),
                    "use_baseline": True,
                    "discussion_paradigm": "relay",
                },
            ],
        },
    )
    result = CliRunner().invoke(
        main,
        ["run", "--config", str(config), "--backend", f"scripted:{script}", "--dry-run"],
    )
    assert result.exit_code == 0
    assert "[protocol=simple_voting paradigm=relay]" in result.output
    # A baseline runs no paradigm, and its log records the protocol `baseline`.
    assert f"  b r1 -> {tmp_path / 'b-r1.jsonl'} [protocol=baseline] 1-1 call(s) per debate x 2 sample(s)" in result.output.splitlines()


def test_run_dry_run_prints_each_jobs_call_bounds_and_the_batch_total(tmp_path):
    dataset, script, _ = make_workspace(tmp_path)
    config = write_json(
        tmp_path / "bounds.json",
        {
            "common": {"input_json_file_path": str(dataset)},
            "runs": [
                {"output_json_file_path": str(tmp_path / "base.jsonl"), "use_baseline": True},
                {"output_json_file_path": str(tmp_path / "vote.jsonl"), "decision_protocol": "simple_voting",
                 "persona_generator": "expert"},
            ],
        },
    )
    result = CliRunner().invoke(
        main, ["run", "--config", str(config), "--backend", f"scripted:{script}", "--dry-run"]
    )
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[1].endswith("] 1-1 call(s) per debate x 2 sample(s)")
    # Three experts take 3 to 15 calls, three turns of three speakers 9, and
    # a vote round 6 to 15; a tie adds a turn and a round.
    assert lines[2].endswith("] 18-57 call(s) per debate x 2 sample(s)")
    assert lines[3:] == ["total: 38-116 call(s), each of at most 4 HTTP attempts"]


def one_run_config(tmp_path, dataset, **run):
    return write_json(
        tmp_path / "one-run.json",
        {
            "repeats": 3,
            "common": {"input_json_file_path": str(dataset)},
            "runs": [{"output_json_file_path": str(tmp_path / "logs" / "one.jsonl"), **run}],
        },
    )


@pytest.mark.parametrize(
    "run, key",
    [
        ({"discussion_paradigm": "report", "num_agents": 2}, "num_agents"),
        (
            {"decision_protocol": "simple_voting", "voting_after_turns": 5, "max_turns": 3},
            "voting_after_turns",
        ),
        ({"max_turns": "many"}, "max_turns"),
    ],
)
def test_run_rejects_a_job_that_cannot_run_before_any_debate(tmp_path, run, key):
    dataset, script, _ = make_workspace(tmp_path)
    config = one_run_config(tmp_path, dataset, **run)
    for flags in (["--dry-run"], []):
        result = CliRunner().invoke(
            main, ["run", "--config", str(config), "--backend", f"scripted:{script}", *flags]
        )
        assert result.exit_code != 0
        assert "one r1:" in result.output
        assert key in result.output
        assert not (tmp_path / "logs").exists()


@pytest.mark.parametrize("key, value", [("model_name", ["m"]), ("api_key", 7)])
def test_run_dry_run_names_the_config_job_and_key_of_a_string_key_of_another_type(
    tmp_path, key, value
):
    dataset, script, _ = make_workspace(tmp_path)
    config = one_run_config(tmp_path, dataset, **{key: value})
    result = CliRunner().invoke(
        main, ["run", "--config", str(config), "--backend", f"scripted:{script}", "--dry-run"]
    )
    assert isinstance(result.exception, SystemExit) and result.exit_code == 1
    kind = type(value).__name__
    assert result.output == f"Error: {config}: one r1: {key} must be a string, got {kind}\n"


@pytest.mark.parametrize(
    "url", ["localhost:8000/v1", "ftp://host/v1", "http:///v1", "http://host:port/v1", ""]
)
def test_run_rejects_an_endpoint_url_that_is_not_http_before_any_debate(tmp_path, url):
    dataset, script, _ = make_workspace(tmp_path)
    config = one_run_config(tmp_path, dataset, endpoint_url=url, model_name="m")
    # The scripted backend never calls the endpoint, so it may leave it empty.
    backends = [[]] if url == "" else [[], ["--backend", f"scripted:{script}"]]
    for backend in backends:
        for flags in (["--dry-run"], []):
            result = CliRunner().invoke(main, ["run", "--config", str(config), *backend, *flags])
            assert isinstance(result.exception, SystemExit) and result.exit_code != 0
            assert "one r1: endpoint_url must be an http(s)://host URL" in result.output
            assert not (tmp_path / "logs").exists()


def test_run_dry_run_accepts_consensus_with_a_late_voting_turn(tmp_path):
    dataset, script, _ = make_workspace(tmp_path)
    config = one_run_config(tmp_path, dataset, voting_after_turns=5, max_turns=3)
    result = CliRunner().invoke(
        main,
        ["run", "--config", str(config), "--backend", f"scripted:{script}", "--dry-run"],
    )
    assert result.exit_code == 0
    assert "3 job(s) from 1 run(s) x 3 repeat(s)" in result.output
    assert "[protocol=majority_consensus paradigm=memory]" in result.output


def test_run_rejects_unknown_backend(tmp_path):
    _, _, config = make_workspace(tmp_path)
    result = CliRunner().invoke(main, ["run", "--config", str(config), "--backend", "grpc"])
    assert result.exit_code != 0
    assert "unknown backend" in result.output


def test_run_rejects_missing_script(tmp_path):
    _, _, config = make_workspace(tmp_path)
    result = CliRunner().invoke(
        main,
        ["run", "--config", str(config), "--backend", f"scripted:{tmp_path / 'nope.json'}"],
    )
    assert result.exit_code != 0
    assert "cannot load script" in result.output


def test_run_rejects_two_runs_with_one_output_path_before_any_debate(tmp_path):
    dataset, script, _ = make_workspace(tmp_path)
    out = str(tmp_path / "logs" / "same.jsonl")
    config = write_json(
        tmp_path / "twice.json",
        {
            "common": {"input_json_file_path": str(dataset)},
            "runs": [
                {"output_json_file_path": out},
                {"output_json_file_path": out, "max_turns": 2},
            ],
        },
    )
    for flags in (["--dry-run"], []):
        result = CliRunner().invoke(
            main, ["run", "--config", str(config), "--backend", f"scripted:{script}", *flags]
        )
        assert result.exit_code != 0
        assert "runs 1 and 2" in result.output and "same.jsonl" in result.output
        assert not (tmp_path / "logs").exists()


def test_run_rejects_two_runs_whose_logs_differ_only_in_suffix(tmp_path):
    # `evaluate` names a job by its log's stem: x.jsonl and x.json would be
    # merged into one job x.
    dataset, script, _ = make_workspace(tmp_path)
    logs = tmp_path / "logs"
    config = write_json(
        tmp_path / "suffixes.json",
        {
            "common": {"input_json_file_path": str(dataset)},
            "runs": [
                {"output_json_file_path": str(logs / "x.jsonl")},
                {"output_json_file_path": str(logs / "x.json"), "use_baseline": True},
            ],
        },
    )
    for flags in (["--dry-run"], []):
        result = CliRunner().invoke(
            main, ["run", "--config", str(config), "--backend", f"scripted:{script}", *flags]
        )
        assert result.exit_code == 1
        assert result.output == f"Error: {config}: runs 1 and 2 both write {str(logs / 'x.json')!r}\n"
        assert not logs.exists()


@pytest.mark.parametrize(
    "script, where",
    [
        ({"rules": [{"response": "ok"}, {"match": [{"contains": "x"}]}]}, "rules[1]"),
        ({"rules": [{"response": "ok"}, {"match": [{"role": "user"}], "response": "r"}]}, "rules[1]"),
        ({"rules": [{"response": "ok"}, "not a rule"]}, "rules[1]"),
        ({"rules": [{"response": 5}]}, "rules[0]"),
        ({"rules": {"response": "ok"}}, '"rules" list'),
        ([{"response": "ok"}], '"rules" list'),
        ({"rules": [{"match": [{"contains": 5}], "response": "r"}]}, "rules[0]"),
        ({"rules": [{"response": "ok"}, {"match": [{"contains": "x", "role": 1}], "response": "r"}]},
         "rules[1]"),
        ({"rules": [{"response": "ok", "repeatable": "false"}]}, "rules[0]"),
    ],
)
def test_run_rejects_a_malformed_script_rule_without_a_traceback(tmp_path, script, where):
    _, _, config = make_workspace(tmp_path)
    path = write_json(tmp_path / "bad-script.json", script)
    result = CliRunner().invoke(
        main, ["run", "--config", str(config), "--backend", f"scripted:{path}"]
    )
    assert isinstance(result.exception, SystemExit) and result.exit_code != 0
    assert "cannot load script" in result.output
    assert where in result.output


def test_run_rejects_config_missing_required(tmp_path):
    # Every job needs its dataset and log, which the config's expansion checks;
    # an HTTP job also needs endpoint_url and model_name, which are checked
    # with the rest of the job.
    dataset, script, _ = make_workspace(tmp_path)
    config = write_json(
        tmp_path / "bad.json",
        {"repeats": 1, "common": {}, "runs": [{"output_json_file_path": "x.jsonl"}]},
    )
    result = CliRunner().invoke(
        main, ["run", "--config", str(config), "--backend", f"scripted:{script}"]
    )
    assert result.exit_code == 1
    assert result.output == f"Error: {config}: run 1 is missing required key(s) after overlay: input_json_file_path\n"
    config = one_run_config(tmp_path, dataset)
    for extra in (["--dry-run"], []):
        result = CliRunner().invoke(main, ["run", "--config", str(config), *extra])
        assert result.exit_code == 1
        assert result.output == (
            f"Error: {config}: one r1: missing required key(s) for the http backend: endpoint_url, model_name\n"
        )
    assert not (tmp_path / "logs").exists()


def test_run_scripted_end_to_end(tmp_path):
    _, script, config = make_workspace(tmp_path, repeats=2)
    result = CliRunner().invoke(
        main, ["run", "--config", str(config), "--backend", f"scripted:{script}"]
    )
    assert result.exit_code == 0
    assert "demo r1: 2 record(s), 0 failure(s)" in result.output
    assert "demo r2: 2 record(s), 0 failure(s)" in result.output
    assert "total: 4 record(s), 0 failure(s), 0 aborted job(s)" in result.output
    for repeat in (1, 2):
        lines = (tmp_path / "logs" / f"demo-r{repeat}.jsonl").read_text(
            encoding="utf-8"
        ).splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert record["task"]["id"] == "0001"
        assert record["outcome"]["success"] is True
        assert record["globalClockMs"] == 0


def test_run_refuses_a_job_whose_dataset_is_missing_before_any_debate(tmp_path):
    _, script, _ = make_workspace(tmp_path)
    absent = tmp_path / "absent.json"
    config = write_json(
        tmp_path / "missing-input.json",
        {
            "repeats": 1,
            "common": {"input_json_file_path": str(absent)},
            "runs": [{"output_json_file_path": str(tmp_path / "out.jsonl")}],
        },
    )
    result = CliRunner().invoke(
        main, ["run", "--config", str(config), "--backend", f"scripted:{script}"]
    )
    assert result.exit_code == 1
    assert result.output == f"Error: {config}: out r1: no such file: {absent}\n"


def test_run_reports_aborted_job(tmp_path):
    # Only a log that fails as it is written aborts its job: a lone
    # surrogate in a sample reaches the log, which UTF-8 cannot encode.
    dataset, script, config = make_workspace(tmp_path, repeats=1)
    records = json.loads(dataset.read_text(encoding="utf-8"))
    records[1]["inputs"] = ["What is \ud800?"]
    write_json(dataset, records)
    result = CliRunner().invoke(
        main, ["run", "--config", str(config), "--backend", f"scripted:{script}"]
    )
    assert result.exit_code == 1
    log = tmp_path / "logs" / "demo-r1.jsonl"
    assert f"demo r1: ABORTED: cannot write {log}: 'utf-8' codec" in result.output
    assert "1 aborted job(s)" in result.output
    assert not log.exists()


def test_run_totals_a_failed_record_and_an_aborted_job_and_exits_1(tmp_path):
    # Sample 0002 of "mixed" meets no draft rule, so its record fails; the
    # "odd" job's log cannot encode its sample's lone surrogate.
    dataset, _, _ = make_workspace(tmp_path)
    odd = write_json(
        tmp_path / "odd.json",
        [{"id": "0001", "instruction": "Answer the question.", "inputs": ["What is 2+2 \ud800?"], "answerLetter": "A"}],
    )
    script = write_json(
        tmp_path / "script.json",
        {
            "rules": [
                {"match": [{"contains": DRAFT_HOOK}, {"contains": "2+2"}], "response": "4", "repeatable": True},
                {"match": [{"contains": IMPROVE_HOOK}], "response": "Right. [AGREE]", "repeatable": True},
            ]
        },
    )
    logs = tmp_path / "logs"
    config = write_json(
        tmp_path / "batch.json",
        {
            "runs": [
                {"input_json_file_path": str(dataset), "output_json_file_path": str(logs / "mixed.jsonl")},
                {"input_json_file_path": str(odd), "output_json_file_path": str(logs / "odd.jsonl")},
            ]
        },
    )
    result = CliRunner().invoke(main, ["run", "--config", str(config), "--backend", f"scripted:{script}"])
    assert result.exit_code == 1
    mixed, odd, total = result.output.splitlines()
    assert mixed == f"mixed r1: 2 record(s), 1 failure(s) -> {logs / 'mixed-r1.jsonl'}"
    assert odd.startswith(f"odd r1: ABORTED: cannot write {logs / 'odd-r1.jsonl'}: 'utf-8' codec")
    assert total.startswith("total: 2 record(s), 1 failure(s), 1 aborted job(s), ")


def run_pipeline(tmp_path):
    dataset, script, config = make_workspace(tmp_path, repeats=2)
    runner = CliRunner()
    assert (
        runner.invoke(
            main, ["run", "--config", str(config), "--backend", f"scripted:{script}"]
        ).exit_code
        == 0
    )
    return dataset, runner


def test_evaluate_writes_one_eval_per_job(tmp_path):
    dataset, runner = run_pipeline(tmp_path)
    out_dir = tmp_path / "evals"
    result = runner.invoke(
        main,
        [
            "evaluate",
            "--logs", str(tmp_path / "logs"),
            "--dataset", str(dataset),
            "--out", str(out_dir),
        ],
    )
    assert result.exit_code == 0
    eval_path = out_dir / "demo.eval.json"
    assert str(eval_path) in result.output
    payload = json.loads(eval_path.read_text(encoding="utf-8"))
    assert payload["jobName"] == "demo"
    assert payload["repeats"] == 2
    # Scripted answer matches 0001 (A) and misses 0002 (B) in both repeats.
    assert payload["mean"]["accuracy"] == 0.5
    assert payload["std"]["accuracy"] == 0.0


def test_evaluate_reports_missing_logs(tmp_path):
    dataset, _, _ = make_workspace(tmp_path)
    result = CliRunner().invoke(
        main,
        [
            "evaluate",
            "--logs", str(tmp_path / "nowhere"),
            "--dataset", str(dataset),
            "--out", str(tmp_path / "evals"),
        ],
    )
    assert result.exit_code != 0
    assert "nowhere" in result.output


def test_evaluate_rejects_a_log_line_that_is_not_an_object(tmp_path):
    dataset, _, _ = make_workspace(tmp_path)
    log = tmp_path / "odd.jsonl"
    log.write_text("[1]\n", encoding="utf-8")
    out_dir = tmp_path / "evals"
    result = CliRunner().invoke(
        main, ["evaluate", "--logs", str(log), "--dataset", str(dataset), "--out", str(out_dir)]
    )
    assert isinstance(result.exception, SystemExit) and result.exit_code == 1
    assert f"{log} line 1 is not a JSON object" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "record, missing",
    [({}, "task.id"), ({"task": {"id": "1"}}, "outcome.finalText")],
)
def test_evaluate_rejects_a_record_without_a_field_it_reads(tmp_path, record, missing):
    dataset, _, _ = make_workspace(tmp_path)
    log = tmp_path / "odd.jsonl"
    log.write_text("\n" + json.dumps(record) + "\n", encoding="utf-8")
    out_dir = tmp_path / "evals"
    result = CliRunner().invoke(
        main, ["evaluate", "--logs", str(log), "--dataset", str(dataset), "--out", str(out_dir)]
    )
    assert isinstance(result.exception, SystemExit) and result.exit_code == 1
    assert result.output == f"Error: {log} line 2 has no valid {missing}\n"


def test_chart_emits_files_for_each_kind(tmp_path):
    dataset, runner = run_pipeline(tmp_path)
    evals = tmp_path / "evals"
    runner.invoke(
        main,
        ["evaluate", "--logs", str(tmp_path / "logs"), "--dataset", str(dataset), "--out", str(evals)],
    )
    out_dir = tmp_path / "charts"
    result = runner.invoke(main, ["chart", "--evals", str(evals), "--out", str(out_dir)])
    assert result.exit_code == 0
    emitted = [line for line in result.output.splitlines() if line]
    assert len(emitted) == 8
    for kind in ("score", "turns", "decision", "clock"):
        assert (out_dir / f"{kind}-demo.svg").exists()
        assert (out_dir / f"{kind}-demo.csv").exists()


def test_chart_rejects_unknown_metric(tmp_path):
    dataset, runner = run_pipeline(tmp_path)
    evals = tmp_path / "evals"
    runner.invoke(
        main,
        ["evaluate", "--logs", str(tmp_path / "logs"), "--dataset", str(dataset), "--out", str(evals)],
    )
    result = runner.invoke(
        main,
        ["chart", "--evals", str(evals), "--out", str(tmp_path / "charts"), "--metric", "bogus"],
    )
    assert result.exit_code != 0
    assert "not present" in result.output


@pytest.mark.parametrize(
    "content, problem",
    [
        ({}, "has no valid jobName"),
        ([1], "is not a JSON object"),
        ({"jobName": "x", "repeats": 1, "turns": 5}, "has no valid turns"),
        # The job name names the chart files; a path in it would write outside --out.
        ({"jobName": "x/../../escaped", "repeats": 1}, "has no valid jobName"),
        ({"jobName": "x\\..\\escaped", "repeats": 1}, "has no valid jobName"),
        ({"jobName": "..", "repeats": 1}, "has no valid jobName"),
        ({"jobName": "", "repeats": 1}, "has no valid jobName"),
    ],
)
def test_chart_rejects_an_eval_file_it_cannot_read(tmp_path, content, problem):
    evals = tmp_path / "evals"
    evals.mkdir()
    bad = evals / "x.eval.json"
    bad.write_text(json.dumps(content), encoding="utf-8")
    result = CliRunner().invoke(main, ["chart", "--evals", str(evals), "--out", str(tmp_path / "c")])
    assert isinstance(result.exception, SystemExit) and result.exit_code == 1
    assert result.output == f"Error: {bad} {problem}\n"


@pytest.mark.parametrize("content", [b'{"jobName": ', b"\xff\xfe"])
def test_chart_names_an_eval_file_that_is_not_utf8_json(tmp_path, content):
    evals = tmp_path / "evals"
    evals.mkdir()
    bad = evals / "x.eval.json"
    bad.write_bytes(content)
    result = CliRunner().invoke(main, ["chart", "--evals", str(evals), "--out", str(tmp_path / "c")])
    assert isinstance(result.exception, SystemExit) and result.exit_code == 1
    assert result.output.startswith(f"Error: cannot read {bad}: ")
    assert len(result.output.splitlines()) == 1


@pytest.mark.parametrize("kind", ["not-utf8", "directory"])
def test_run_names_a_config_file_it_cannot_read(tmp_path, kind):
    _, script, _ = make_workspace(tmp_path)
    config = tmp_path / "cfg.json"
    if kind == "directory":
        config.mkdir()
    else:
        config.write_bytes(b'{"runs": [\xff]}')
    result = CliRunner().invoke(
        main, ["run", "--config", str(config), "--backend", f"scripted:{script}", "--dry-run"]
    )
    assert isinstance(result.exception, SystemExit) and result.exit_code == 1
    assert result.output.startswith("Error: ") and str(config) in result.output
    assert "Traceback" not in result.output


def test_evaluate_names_a_sidecar_with_a_mistyped_field(tmp_path):
    dataset = write_json(tmp_path / "raw.json", [{"q": "What?", "a": "A"}])
    sidecar = write_json(
        tmp_path / "raw.json.mapping.json",
        {"input_fields": ["q"], "reference_fields": ["a"], "id_field": ["x"]},
    )
    log = tmp_path / "demo.jsonl"
    log.write_text("", encoding="utf-8")
    result = CliRunner().invoke(
        main,
        ["evaluate", "--logs", str(log), "--dataset", str(dataset), "--out", str(tmp_path / "e")],
    )
    assert isinstance(result.exception, SystemExit) and result.exit_code == 1
    assert result.output == f"Error: {sidecar}: id_field must be a string\n"


@pytest.mark.parametrize(
    "content, problem",
    [
        ({"repeats": 0, "runs": [{}]}, "repeats must be an integer >= 1"),
        ({"runs": [{"output_json_file_path": "o.jsonl"}]}, "run 1 is missing required key(s)"),
        ({"runs": [{"input_json_file_path": "i.json", "output_json_file_path": "one.jsonl",
                    "num_agents": 1}]}, "one r1: num_agents must be >= 2"),
        ({"repeat": 3, "commn": {}, "runs": [{}]}, "unknown top-level key 'repeat'"),
    ],
)
def test_run_names_the_config_once_in_front_of_a_content_error(tmp_path, content, problem):
    _, script, _ = make_workspace(tmp_path)
    config = write_json(tmp_path / "cfg.json", content)
    result = CliRunner().invoke(
        main, ["run", "--config", str(config), "--backend", f"scripted:{script}", "--dry-run"]
    )
    assert isinstance(result.exception, SystemExit) and result.exit_code == 1
    assert result.output.startswith(f"Error: {config}: {problem}")
    assert result.output.count(str(config)) == 1


def test_evaluate_names_the_log_and_the_dataset_of_an_unknown_sample_id(tmp_path):
    dataset, _, _ = make_workspace(tmp_path)
    log = tmp_path / "odd.jsonl"
    record = {"task": {"id": "9"}, "outcome": {"finalText": "A", "decidedAtTurn": 1},
              "globalClockMs": 5}
    log.write_text(json.dumps(record) + "\n", encoding="utf-8")
    result = CliRunner().invoke(
        main,
        ["evaluate", "--logs", str(log), "--dataset", str(dataset), "--out", str(tmp_path / "e")],
    )
    assert isinstance(result.exception, SystemExit) and result.exit_code == 1
    assert result.output == (
        f"Error: {log}: log references unknown sample id '9' (dataset {dataset})\n"
    )


def test_a_log_path_holding_a_nul_stops_run_and_dry_run(tmp_path):
    # No file name holds a NUL, so the job is refused as it is prepared: a dry
    # run that passed would promise a job that cannot write its log.
    dataset, script, _ = make_workspace(tmp_path)
    output = str(tmp_path / "logs" / "de\0mo.jsonl")
    log = str(tmp_path / "logs" / "de\0mo-r1.jsonl")
    config = write_json(
        tmp_path / "nul.json",
        {
            "repeats": 1,
            "common": {"input_json_file_path": str(dataset)},
            "runs": [{"output_json_file_path": output}],
        },
    )
    for extra in (["--dry-run"], []):
        result = CliRunner().invoke(
            main, ["run", "--config", str(config), "--backend", f"scripted:{script}", *extra]
        )
        assert result.exit_code == 1
        assert result.output == f"Error: {config}: de\\x00mo r1: cannot write {log!r}: the path holds a NUL\n"
        assert no_control_characters(result.output)
    assert not (tmp_path / "logs").exists()


def no_control_characters(output: str) -> bool:
    """Whether no line of the output holds a C0 control character or DEL."""
    return not any(re.search("[\x00-\x1f\x7f]", line) for line in output.split("\n"))


def test_a_job_name_holding_control_characters_prints_them_escaped(tmp_path):
    # The name is a valid file name, but printed raw its ESC would drive the terminal.
    dataset, script, _ = make_workspace(tmp_path)
    config = one_run_config(tmp_path, dataset, output_json_file_path=str(tmp_path / "logs" / "de\x1bmo\t.jsonl"))
    runner = CliRunner()
    dry = runner.invoke(main, ["run", "--config", str(config), "--backend", f"scripted:{script}", "--dry-run"])
    assert dry.exit_code == 0, dry.output
    assert f"  de\\x1bmo\\x09 r1 -> {tmp_path}/logs/de\\x1bmo\\x09-r1.jsonl [" in dry.output
    ran = runner.invoke(main, ["run", "--config", str(config), "--backend", f"scripted:{script}"])
    assert ran.exit_code == 0, ran.output
    assert f"de\\x1bmo\\x09 r3: 2 record(s), 0 failure(s) -> {tmp_path}/logs/de\\x1bmo\\x09-r3.jsonl" in ran.output
    assert (tmp_path / "logs" / "de\x1bmo\t-r3.jsonl").is_file()
    evaluated = runner.invoke(
        main, ["evaluate", "--logs", str(tmp_path / "logs"), "--dataset", str(dataset), "--out", str(tmp_path / "evals")]
    )
    assert evaluated.output == f"{tmp_path}/evals/de\\x1bmo\\x09.eval.json\n"
    charted = runner.invoke(main, ["chart", "--evals", str(tmp_path / "evals"), "--out", str(tmp_path / "charts")])
    assert f"{tmp_path}/charts/score-de\\x1bmo\\x09.svg\n" in charted.output
    assert all(no_control_characters(result.output) for result in (dry, ran, evaluated, charted))


@pytest.mark.parametrize(
    "name, job", [("..jsonl", "."), ("..-r2.jsonl", ".."), ("a\\b.jsonl", "a\\b")]
)
def test_evaluate_rejects_a_log_whose_name_gives_no_plain_job_name(tmp_path, name, job):
    # The job name names the eval file, and chart would reject it.
    dataset, runner = run_pipeline(tmp_path)
    log = tmp_path / "logs" / name
    log.write_bytes((tmp_path / "logs" / "demo-r1.jsonl").read_bytes())
    out_dir = tmp_path / "evals"
    result = runner.invoke(
        main, ["evaluate", "--logs", str(log.parent), "--dataset", str(dataset), "--out", str(out_dir)]
    )
    assert isinstance(result.exception, SystemExit) and result.exit_code == 1
    assert result.output == f"Error: {log}: job name {job!r} is not a plain file name\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
def test_evaluate_reads_the_log_of_a_reply_holding_a_unicode_line_separator(tmp_path, separator):
    # The log holds the character unescaped inside a JSON string, and a JSONL
    # line ends only at CR LF, CR or LF.
    dataset, script, config = make_workspace(tmp_path, repeats=1)
    rules = json.loads(script.read_text(encoding="utf-8"))
    rules["rules"][0]["response"] = f"It is A.{separator}FINAL SOLUTION: (A)"
    write_json(script, rules)
    runner = CliRunner()
    result = runner.invoke(main, ["run", "--config", str(config), "--backend", f"scripted:{script}"])
    assert result.exit_code == 0
    assert separator in (tmp_path / "logs" / "demo-r1.jsonl").read_text(encoding="utf-8")
    out_dir = tmp_path / "evals"
    result = runner.invoke(
        main, ["evaluate", "--logs", str(tmp_path / "logs"), "--dataset", str(dataset), "--out", str(out_dir)]
    )
    assert result.exit_code == 0, result.output
    payload = json.loads((out_dir / "demo.eval.json").read_text(encoding="utf-8"))
    assert payload["mean"]["accuracy"] == 0.5


@pytest.mark.parametrize("name", ["demo.txt", "demo"])
def test_a_log_path_whose_suffix_evaluate_skips_stops_run_and_dry_run(tmp_path, name):
    # evaluate reads only .json and .jsonl logs, so any other log would be
    # written and then never scored.
    dataset, script, _ = make_workspace(tmp_path)
    output = str(tmp_path / "logs" / name)
    root, ext = os.path.splitext(output)
    config = one_run_config(tmp_path, dataset, output_json_file_path=output)
    for extra in (["--dry-run"], []):
        result = CliRunner().invoke(
            main, ["run", "--config", str(config), "--backend", f"scripted:{script}", *extra]
        )
        assert result.exit_code == 1
        assert result.output == (
            f"Error: {config}: {Path(name).stem} r1: cannot write {root}-r1{ext}: "
            "it ends in neither .json nor .jsonl, the logs evaluate reads\n"
        )
    assert not (tmp_path / "logs").exists()


@pytest.mark.parametrize("left", ["demo.jsonl", "demo-r1.json", "demo-r2.jsonl"])
def test_a_file_evaluate_would_read_as_a_repeat_of_the_job_stops_run_and_dry_run(tmp_path, left):
    # A one-repeat batch writes logs/demo-r1.jsonl, and evaluate reads each of
    # these as a repeat of job demo too: it would refuse two repeat 1s, or
    # average an old repeat 2 in. The batch's own logs are no such file.
    dataset, script, config = make_workspace(tmp_path, repeats=1)
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / left).write_text("", encoding="utf-8")
    for extra in (["--dry-run"], []):
        result = CliRunner().invoke(
            main, ["run", "--config", str(config), "--backend", f"scripted:{script}", *extra]
        )
        assert result.exit_code == 1
        assert result.output == (
            f"Error: {config}: demo r1: {logs / left} is left from an earlier batch, "
            "and evaluate would read it as a repeat of job 'demo'\n"
        )
    assert list(logs.iterdir()) == [logs / left]
    (logs / left).unlink()
    for _ in range(2):  # the second run overwrites the first one's log
        result = CliRunner().invoke(main, ["run", "--config", str(config), "--backend", f"scripted:{script}"])
        assert result.exit_code == 0, result.output
    assert list(logs.iterdir()) == [logs / "demo-r1.jsonl"]


@pytest.mark.parametrize(
    "name, job, log",
    [("..jsonl", ".", ".-r1.jsonl"), ("...json", "..", "..-r1.json"), ("a\\b.jsonl", "a\\b", "a\\b-r1.jsonl")],
)
def test_a_job_name_evaluate_refuses_stops_run_and_dry_run(tmp_path, name, job, log):
    # The job is named, and its log built, by the rule evaluate reads logs by,
    # so run refuses with evaluate's own reason before writing a log evaluate
    # would refuse.
    dataset, script, _ = make_workspace(tmp_path)
    config = one_run_config(tmp_path, dataset, output_json_file_path=str(tmp_path / "logs" / name))
    log = tmp_path / "logs" / log
    reason = f"{log}: job name {job!r} is not a plain file name"
    for extra in (["--dry-run"], []):
        result = CliRunner().invoke(
            main, ["run", "--config", str(config), "--backend", f"scripted:{script}", *extra]
        )
        assert result.exit_code == 1
        assert result.output == f"Error: {config}: {job} r1: {reason}\n"
    assert not (tmp_path / "logs").exists()
    log.parent.mkdir()
    log.write_text("", encoding="utf-8")
    result = CliRunner().invoke(
        main, ["evaluate", "--logs", str(log.parent), "--dataset", str(dataset), "--out", str(tmp_path / "evals")]
    )
    assert result.exit_code == 1
    assert result.output == f"Error: {reason}\n"
