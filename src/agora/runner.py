"""Debate execution: single debates, single-agent baselines, batch orchestration."""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from pathlib import Path
from typing import Any, Optional

from . import datasets, decisions, prompts
from .agents import build_panel, neutral_panel
from .config import ConfigError, JobParams, JobSpec, resolve_job_params
from .domain import AgentProfile, CallKind, DebateState, DecisionOutcome, Phase, TaskInstance, build_log_record
from .gateway import Backend, DebateBackend, HttpGateway, ScriptedGateway, call


def run_sample(params: JobParams, sample, backend: Backend) -> dict[str, Any]:
    """One sample's debate, or its single-agent baseline, as a log record; never raises.

    A debate is its panel, then `decisions.decide`, which runs every turn
    and the decision. A crash becomes a failure outcome. Every request names
    the job's model, and the run is timed on the backend's clock (which reads
    zero for a scripted backend).
    """
    backend = DebateBackend(backend, params.model_name)
    started = backend.clock()
    task_text = datasets.resolve_instruction(
        sample.instruction_key or params.task_instruction_prompt_template
    )
    state = DebateState(params, sample, task_text, panel=[])
    try:
        if params.use_baseline:
            state.panel = [AgentProfile(1, neutral_panel(1)[0])]
            messages = [("system", prompts.render_cot_system(task_text, sample.input_text()))]
            if params.use_chain_of_thought:
                messages.append(("user", prompts.cot_user_text()))
            resp = call(backend, CallKind.BASELINE, 1, messages)
            state.add(1, 1, Phase.DRAFT, resp.text, resp.latency_ms)
            state.turn = 1
            outcome = DecisionOutcome(resp.text)
        else:
            state.panel = build_panel(params.num_agents, params.persona_generator, task_text, backend)
            outcome = decisions.decide(state, backend)
    except Exception as exc:
        outcome = DecisionOutcome("", error=f"{type(exc).__name__}: {exc}")
    clock_ms = int((backend.clock() - started) * 1000)
    return build_log_record(state, outcome, clock_ms)


def serialize_record(record: dict[str, Any]) -> str:
    return json.dumps(record, ensure_ascii=False, separators=(",", ":"))


def record_failed(record: dict[str, Any]) -> bool:
    return record.get("outcome", {}).get("error") is not None


class JobReport:
    """A prepared job: its params and samples, and its debates' records until
    its log is written; then the count of records and failures written, or
    the error that stopped the write."""

    __slots__ = ("name", "repeat_index", "params", "samples", "in_flight", "pending", "records", "failures", "error")

    def __init__(self, name: str, repeat_index: int, params: JobParams, samples: list[TaskInstance]) -> None:
        self.name, self.repeat_index, self.params, self.samples = name, repeat_index, params, samples
        self.in_flight: list[Optional[dict[str, Any]]] = [None] * len(samples)
        self.pending = len(samples)
        self.records = self.failures = 0
        self.error: Optional[str] = None


def prepare_jobs(jobs: list[JobSpec], http_backend: bool) -> list[JobReport]:
    """Each job resolved, its samples taken from a dataset loaded once per batch,
    and its log path checked. The first job that cannot run raises one
    ConfigError naming the job (and the file at fault), before any debate.
    A log path is at fault if it holds a NUL, ends in a suffix `evaluate`
    skips, gives a job name `evaluate` refuses, is a directory or lies under
    a file or a link that is not a directory, or if `evaluate` would read a
    file beside it that the batch does not write as a repeat of the same
    job: that one is left from an earlier batch, and `evaluate` would
    average it in or refuse the two."""
    writes = {Path(str(spec.params.get("output_json_file_path"))) for spec in jobs}  # each is checked as its job is
    loaded: dict[str, list[TaskInstance]] = {}
    listed: dict[Path, list[tuple[str, Path]]] = {}  # per log folder, once a batch: each log's job and file
    prepared = []
    for spec in jobs:
        try:
            params = resolve_job_params(spec.params, http_backend)
            dataset = os.path.abspath(params.input_json_file_path)
            if dataset not in loaded:
                loaded[dataset] = datasets.load_input_file(params.input_json_file_path)
            samples = loaded[dataset]
            if params.num_samples is not None:
                samples = datasets.subset(samples, params.num_samples, params.seed)
            log = params.output_json_file_path
            if "\0" in log:
                raise ConfigError(f"cannot write {log!r}: the path holds a NUL")
            if datasets.log_repeat(Path(log)) is None:
                raise ConfigError(f"cannot write {log}: it ends in neither {' nor '.join(datasets.LOG_SUFFIXES)}, the logs evaluate reads")
            job, _ = datasets.log_job(Path(log))  # refuses a job name that evaluate would refuse
            if os.path.isdir(log):
                raise ConfigError(f"cannot write {log}: it is a directory")
            ancestor = Path(log).parent  # the nearest entry, a link too, must be a directory
            while not os.path.lexists(ancestor) and ancestor != ancestor.parent:
                ancestor = ancestor.parent
            if not ancestor.is_dir():
                raise ConfigError(f"cannot write {log}: {ancestor} is not a directory")
            folder = Path(log).parent
            if folder not in listed:
                files = sorted(folder.iterdir()) if folder.is_dir() else []
                listed[folder] = [(named[0], file) for file in files if (named := datasets.log_repeat(file))]
            left = [file for name, file in listed[folder] if name == job and file not in writes]
            if left:
                raise ConfigError(f"{left[0]} is left from an earlier batch, and evaluate would read it as a repeat of job {job!r}")
        except (ConfigError, OSError, ValueError) as exc:  # FormatError too
            raise ConfigError(f"{spec.name} r{spec.repeat_index}: {exc}")
        prepared.append(JobReport(spec.name, spec.repeat_index, params, samples))
    return prepared


def _write_job(job: JobReport) -> None:
    """Write the job's log in sample order, count what it holds, and drop its records and samples."""
    try:
        datasets.write_output(job.params.output_json_file_path, (serialize_record(record) + "\n" for record in job.in_flight))
    except datasets.FormatError as exc:
        job.error = str(exc)
    else:
        job.records = len(job.in_flight)
        job.failures = sum(1 for record in job.in_flight if record_failed(record))
    job.in_flight, job.samples = [], []


def run_batch(jobs: list[JobSpec], scripted: Optional[ScriptedGateway] = None) -> list[JobReport]:
    """Run every job's debates on one queue and `cap` workers per endpoint; per-debate failures are recorded, never fatal.

    A job that cannot run raises ConfigError before any debate. An endpoint's
    queue holds its jobs longest first, by the most calls a debate of each can
    make (`decisions.call_bounds`; ties keep job order), and each job's
    samples in sample order. So jobs overlap, every endpoint is busy from the
    start, no call waits for a slot, and the longest debates start first
    rather than run on alone at the end; every gateway exists before the
    first worker starts.
    The worker that ends a job's last debate writes its log. After a worker's
    error or Ctrl-C no sample starts, and the debates in flight end before the
    error reaches the caller. Returns the prepared jobs in the order given,
    each holding what its log holds.
    """
    if not jobs:
        raise ValueError("no jobs to run")
    queued = prepare_jobs(jobs, http_backend=scripted is None)
    # An endpoint is a URL, API key and cap: one gateway (so one set of slots), queue and set of workers each.
    keys = [(job.params.endpoint_url, job.params.api_key, job.params.concurrent_api_requests) for job in queued]
    gateways = {key: HttpGateway(*key) for key in dict.fromkeys(keys)} if scripted is None else {}
    queues: dict[tuple[str, str, int], deque] = {key: deque() for key in keys}
    for job, key in sorted(zip(queued, keys), key=lambda pair: -decisions.call_bounds(pair[0].params)[1]):  # stable: ties keep job order
        queues[key].extend((job, index, sample, gateways.get(key) or scripted.fork()) for index, sample in enumerate(job.samples))
    lock = threading.Lock()
    raised: list[BaseException] = []
    ended = threading.Semaphore(0)  # one release per worker that has ended

    def work(todo: deque) -> None:
        try:
            while True:
                with lock:
                    if raised or not todo:
                        return
                    job, index, sample, backend = todo.popleft()
                record = run_sample(job.params, sample, backend)
                with lock:
                    job.in_flight[index] = record
                    job.pending -= 1
                    if job.pending:
                        continue
                _write_job(job)
        except BaseException as exc:
            with lock:
                raised.append(exc)
        finally:
            ended.release()

    workers = [threading.Thread(target=work, args=(todo,), daemon=True) for (_, _, cap), todo in queues.items() for _ in range(cap)]
    try:
        for worker in workers:
            worker.start()
        # Timed waits, which `_thread.interrupt_main()` ends as Ctrl-C does; an
        # interrupted Thread.join can mark a live worker as ended.
        for _ in workers:
            while not ended.acquire(timeout=0.05):
                pass
    finally:
        for todo in queues.values():
            todo.clear()
        for worker in workers:
            if worker.ident is not None:
                worker.join()
    if raised:
        raise raised[0]
    return queued
