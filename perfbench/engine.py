"""Engine-side half of the benchmark: one fresh process per use.

    python3 perfbench/engine.py setup     --workdir W
    python3 perfbench/engine.py run       --workdir W --stub-url URL [--trace]
    python3 perfbench/engine.py reference --workdir W --stub-url URL [--with-eval]

`setup` times importing agora, loading and expanding the config and loading
every dataset. `run` drives the batch through config.expand_config ->
runner.run_batch -> HttpGateway -> requests against the stub, then
evaluation.evaluate_logs -> charts.emit_charts, and writes result.json. With
--trace it first makes the same untraced pass, then resets the stub and
makes a traced pass over the same inputs. `reference` makes one pass
against a stub started with --no-sleep and prints the transcript digest,
plus the evaluation digest with --with-eval; it is how digests are
recorded, and what the HTTP run's transcripts are checked against when no
digest is recorded for a seed.

PYTHONPATH must point at the checkout's src directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import urllib.request
from pathlib import Path
from typing import Any, Optional

import checks
import tracer as tracer_module


def _stub_call(url: str, path: str, data: Optional[bytes] = None) -> dict[str, Any]:
    with urllib.request.urlopen(url + path, data=data, timeout=30) as resp:
        return json.loads(resp.read())


def setup_probe() -> float:
    started = time.perf_counter()
    from agora import charts, config, datasets, evaluation, runner  # noqa: F401

    manifest = json.loads(Path("manifest.json").read_text(encoding="utf-8"))
    jobs = config.expand_config(config.BatchConfig.load(manifest["config"]))
    for job in jobs:
        datasets.load_input_file(config.resolve_job_params(job.params).input_json_file_path)
    datasets.load_input_file(manifest["dataset"])
    return time.perf_counter() - started


def _collect_logs(manifest: dict[str, Any]) -> None:
    for job in manifest["jobs"]:
        if os.path.exists(job["log"]):
            os.replace(job["log"], os.path.join("eval_logs", job["eval_name"]))


def one_pass(manifest: dict[str, Any], durations: list, stub_url: str, eval_repeats: int) -> dict[str, Any]:
    """Batch, then `eval_repeats` evaluations and the charts (none when 0)."""
    from agora import charts, config, evaluation, runner

    durations.clear()
    before = _stub_call(stub_url, "/stats")
    jobs = config.expand_config(config.BatchConfig.load(manifest["config"]))
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    runner.run_batch(jobs)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    after = _stub_call(stub_url, "/stats")
    _collect_logs(manifest)

    eval_times = []
    for _ in range(eval_repeats):
        t0 = time.perf_counter()
        evaluation.evaluate_logs("eval_logs", manifest["dataset"], "evals")
        eval_times.append(time.perf_counter() - t0)
    if eval_repeats:
        charts.emit_charts(evaluation.load_eval_results("evals"), "charts")

    stub_delta = {
        key: after[key] - before[key]
        for key in ("calls", "prompt_chars", "completion_chars", "service_s", "connections", "unclassified")
    }
    stub_delta["kinds"] = {k: v - before["kinds"].get(k, 0) for k, v in after["kinds"].items()}
    return {
        "batch_wall_s": wall,
        "batch_cpu_s": cpu,
        "debate_s": sorted(durations),
        "stub": stub_delta,
        "eval_s": eval_times,
        "records_scored": checks.count_lines("eval_logs"),
        "validation": checks.validate_jobs(manifest),
        "transcript_digest": checks.transcript_digest(manifest),
        "evaluation_digest": checks.evaluation_digest("evals") if eval_repeats else None,
    }


def _timed_run_sample(durations: list):
    from agora import runner

    original = runner.run_sample

    def run_sample(params, sample, backend):
        started = time.perf_counter()
        try:
            return original(params, sample, backend)
        finally:
            durations.append(time.perf_counter() - started)

    runner.run_sample = run_sample


def run(stub_url: str, trace: bool) -> dict[str, Any]:
    manifest = json.loads(Path("manifest.json").read_text(encoding="utf-8"))
    durations: list[float] = []
    _timed_run_sample(durations)
    result: dict[str, Any] = {"untraced": one_pass(manifest, durations, stub_url, manifest["eval_repeats"])}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        _stub_call(stub_url, "/reset", b"{}")
        tracer = tracer_module.Tracer()
        tracer_module.install(tracer)
        try:
            # One evaluation, so evaluation and metric spans are per evaluation.
            traced = one_pass(manifest, durations, stub_url, 1)
        finally:
            tracer.undo()
        traced["layers"] = tracer_module.layer_metrics(tracer, traced["records_scored"])
        result["traced"] = traced
        tracer.dump("trace.json")
    return result


def reference(stub_url: str, with_eval: bool) -> dict[str, Optional[str]]:
    manifest = json.loads(Path("manifest.json").read_text(encoding="utf-8"))
    p = one_pass(manifest, [], stub_url, 1 if with_eval else 0)
    return {"transcript": p["transcript_digest"], "evaluation": p["evaluation_digest"]}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "reference"))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--stub-url")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--with-eval", action="store_true")
    args = parser.parse_args(argv)
    os.chdir(args.workdir)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_probe()}))
    elif args.mode == "run":
        Path("result.json").write_text(json.dumps(run(args.stub_url, args.trace)), encoding="utf-8")
    else:
        print(json.dumps(reference(args.stub_url, args.with_eval)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
