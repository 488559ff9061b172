"""Debate execution: single debates, single-agent baselines, batch orchestration."""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from . import datasets, decisions, paradigms, prompts
from .agents import build_panel, neutral_panel
from .config import JobParams, JobSpec, resolve_job_params
from .domain import (
    AgentProfile,
    DebateState,
    DecisionOutcome,
    Message,
    Phase,
    ResponseGeneratorKind,
    build_log_record,
)
from .gateway import Backend, HttpGateway, ScriptedGateway, chat_request
from .paradigms import DebateContext, ParadigmKind


def _now_ms() -> int:
    return int(time.monotonic() * 1000)


def _context_for(params: JobParams, task_text: str, sample) -> DebateContext:
    return DebateContext(
        task_text=task_text,
        input_text=sample.input_text(),
        context_text=sample.context_text(),
        generator=ResponseGeneratorKind(params.response_generator),
        model_name=params.model_name,
        debate_exchanges=params.debate_exchanges,
        max_turns=params.max_turns,
        paradigm=ParadigmKind(params.discussion_paradigm),
        protocol=params.decision_protocol,
        voting_after_turns=params.voting_after_turns,
        cumulative_points=params.cumulative_points,
    )


def _task_text(params: JobParams, sample) -> str:
    key = sample.instruction_key or params.task_instruction_prompt_template
    return datasets.resolve_instruction(key)


def _failure_outcome(protocol: str, turn: int, exc: Exception) -> DecisionOutcome:
    return DecisionOutcome(
        protocol=protocol,
        final_text="",
        success=False,
        decided_at_turn=turn,
        error=f"{type(exc).__name__}: {exc}",
    )


def run_debate(params: JobParams, sample, backend: Backend) -> dict[str, Any]:
    """One full multi-agent debate; crashes become a failure record, never raise."""
    zero_clock = isinstance(backend, ScriptedGateway)
    started = _now_ms()
    task_text = _task_text(params, sample)
    ctx = _context_for(params, task_text, sample)
    state = DebateState(task=sample, panel=[])
    personas: list[dict[str, Any]] = []
    try:
        panel, personas = build_panel(
            params.num_agents,
            params.persona_generator,
            ctx.generator,
            task_text,
            backend,
            params.model_name,
        )
        state.panel = panel
        outcome: Optional[DecisionOutcome] = None
        while outcome is None:
            paradigms.run_turn(ctx.paradigm, state, backend, ctx)
            outcome = decisions.decide(state, backend, ctx)
    except Exception as exc:
        outcome = _failure_outcome(params.decision_protocol, state.turn, exc)
    state.ended = True
    clock = 0 if zero_clock else _now_ms() - started
    return build_log_record(params.to_log(), state, personas, outcome, clock)


def run_baseline(params: JobParams, sample, backend: Backend) -> dict[str, Any]:
    """Single-agent answer shaped like a one-message debate record."""
    zero_clock = isinstance(backend, ScriptedGateway)
    started = _now_ms()
    task_text = _task_text(params, sample)
    persona = neutral_panel(1)[0]
    generator = ResponseGeneratorKind(params.response_generator)
    state = DebateState(
        task=sample, panel=[AgentProfile(1, persona, generator)]
    )
    personas = [persona.to_log(1)]
    try:
        messages: list[tuple[str, str]] = [
            ("system", prompts.render_cot_system(task_text, sample.input_text()))
        ]
        if params.use_chain_of_thought:
            messages.append(("user", prompts.cot_user_text()))
        resp = backend.complete(chat_request(messages, model_name=params.model_name))
        state.append(
            Message(
                seq=1,
                turn=1,
                agent_id=1,
                phase=Phase.DRAFT,
                text=resp.text,
                wall_clock_ms=resp.latency_ms,
            )
        )
        state.turn = 1
        outcome = DecisionOutcome(
            protocol="baseline",
            final_text=resp.text,
            success=True,
            decided_at_turn=1,
        )
    except Exception as exc:
        outcome = _failure_outcome("baseline", state.turn, exc)
    state.ended = True
    clock = 0 if zero_clock else _now_ms() - started
    return build_log_record(params.to_log(), state, personas, outcome, clock)


def run_sample(params: JobParams, sample, backend: Backend) -> dict[str, Any]:
    if params.use_baseline:
        return run_baseline(params, sample, backend)
    return run_debate(params, sample, backend)


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
        out = Path(path)
        if out.parent != Path(""):
            out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("w", encoding="utf-8") as handle:
            for record in job.records:
                handle.write(serialize_record(record) + "\n")
    except OSError as exc:
        report.error = f"cannot write {path}: {exc}"
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
            params = resolve_job_params(spec.params)
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
