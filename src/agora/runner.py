"""Debate execution: single debates, single-agent baselines, batch orchestration."""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any, Optional

from . import datasets, decisions, paradigms, prompts
from .agents import build_panel, neutral_panel
from .config import JobParams, JobSpec, resolve_job_params
from .domain import AgentProfile, DebateState, DecisionOutcome, Phase, build_log_record
from .gateway import Backend, DebateBackend, HttpGateway, ScriptedGateway, chat_request


def run_sample(params: JobParams, sample, backend: Backend) -> dict[str, Any]:
    """One sample's debate, or its single-agent baseline, as a log record; never raises.

    A crash becomes a failure outcome. Every request names the job's model,
    and the run is timed on the backend's clock (which reads zero for a
    scripted backend).
    """
    backend = DebateBackend(backend, params.model_name)
    started = backend.clock()
    task_text = datasets.resolve_instruction(
        sample.instruction_key or params.task_instruction_prompt_template
    )
    state = DebateState(params, sample, task_text, panel=[])
    outcome: Optional[DecisionOutcome] = None
    try:
        if params.use_baseline:
            state.panel = [AgentProfile(1, neutral_panel(1)[0])]
            messages = [("system", prompts.render_cot_system(task_text, sample.input_text()))]
            if params.use_chain_of_thought:
                messages.append(("user", prompts.cot_user_text()))
            resp = backend.complete(chat_request(messages))
            state.add(1, 1, Phase.DRAFT, resp.text, resp.latency_ms)
            state.turn = 1
            outcome = DecisionOutcome(resp.text)
        else:
            state.panel = build_panel(
                params.num_agents, params.persona_generator, task_text, backend
            )
            while outcome is None:
                paradigms.run_turn(state, backend)
                outcome = decisions.decide(state, backend)
    except Exception as exc:
        outcome = DecisionOutcome("", error=f"{type(exc).__name__}: {exc}")
    state.ended = True
    clock_ms = int((backend.clock() - started) * 1000)
    return build_log_record(state, outcome, clock_ms)


def serialize_record(record: dict[str, Any]) -> str:
    return json.dumps(record, ensure_ascii=False, separators=(",", ":"))


def record_failed(record: dict[str, Any]) -> bool:
    return record.get("outcome", {}).get("error") is not None


@dataclass
class JobReport:
    name: str
    repeat_index: int
    output_path: str
    records: int = 0
    failures: int = 0
    wall_clock_s: float = 0.0
    error: Optional[str] = None


@dataclass
class BatchSummary:
    reports: list[JobReport] = field(default_factory=list)
    total_wall_clock_s: float = 0.0

    @property
    def total_records(self) -> int:
        return sum(r.records for r in self.reports)

    @property
    def total_failures(self) -> int:
        return sum(r.failures for r in self.reports)

    @property
    def aborted_jobs(self) -> int:
        return sum(1 for r in self.reports if r.error is not None)

    @property
    def ok(self) -> bool:
        return self.total_failures == 0 and self.aborted_jobs == 0


@dataclass
class _QueuedJob:
    """A job whose debates are in the batch queue; holds records until its last one ends."""

    report: JobReport
    params: JobParams
    records: list[Optional[dict[str, Any]]]
    pending: int


def _write_job(job: _QueuedJob, queued_at: float) -> None:
    """Write the job's log in sample order, fill its report and drop its records."""
    report, path = job.report, job.params.output_json_file_path
    try:
        datasets.write_output(path, (serialize_record(record) + "\n" for record in job.records))
    except datasets.FormatError as exc:
        report.error = str(exc)
    else:
        report.records = len(job.records)
        report.failures = sum(1 for record in job.records if record_failed(record))
    report.wall_clock_s = time.monotonic() - queued_at
    job.records = []


def _gateway_key(params: JobParams) -> tuple:
    return (params.endpoint_url, params.api_key, params.concurrent_api_requests)


def _shared_gateway(params: JobParams, cache: dict) -> HttpGateway:
    key = _gateway_key(params)
    if key not in cache:
        cache[key] = HttpGateway(
            params.endpoint_url,
            params.api_key,
            max_in_flight=params.concurrent_api_requests,
        )
    return cache[key]


def run_batch(
    jobs: list[JobSpec], scripted: Optional[ScriptedGateway] = None
) -> BatchSummary:
    """Run every job's debates through one queue; per-debate failures are recorded, never fatal.

    The queue has one worker per gateway slot (the sum of the distinct
    gateways' caps) and takes samples in job order, so jobs overlap. Each
    job's log is written as soon as its last debate ends.
    """
    if not jobs:
        raise ValueError("no jobs to run")
    started = time.monotonic()
    summary = BatchSummary(
        reports=[JobReport(s.name, s.repeat_index, s.output_path) for s in jobs]
    )
    ready: list[tuple[_QueuedJob, list]] = []
    for spec, report in zip(jobs, summary.reports):
        try:
            params = resolve_job_params(spec.params, http_backend=scripted is None)
            samples = datasets.load_input_file(params.input_json_file_path)
            if params.num_samples is not None:
                samples = datasets.subset(samples, params.num_samples, params.seed)
        except Exception as exc:
            report.error = f"{type(exc).__name__}: {exc}"
            continue
        ready.append((_QueuedJob(report, params, [None] * len(samples), len(samples)), samples))

    gateways: dict = {}

    def backend_for(params: JobParams) -> Backend:
        if scripted is not None:
            return scripted.fork()
        return _shared_gateway(params, gateways)

    caps = {_gateway_key(job.params): job.params.concurrent_api_requests for job, _ in ready}
    with ThreadPoolExecutor(max_workers=max(1, sum(caps.values()))) as pool:
        queued = {
            pool.submit(run_sample, job.params, sample, backend_for(job.params)): (job, index)
            for job, samples in ready
            for index, sample in enumerate(samples)
        }
        for future in as_completed(queued):
            job, index = queued.pop(future)
            job.records[index] = future.result()
            job.pending -= 1
            if job.pending == 0:
                _write_job(job, started)
    summary.total_wall_clock_s = time.monotonic() - started
    return summary
