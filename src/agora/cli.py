"""Command-line interface: run batches, evaluate logs, draw charts."""

from __future__ import annotations

import sys

import click

from . import charts, evaluation, runner
from .config import BatchConfig, ConfigError, expand_config, resolve_job_params
from .datasets import EmptyDataset, MappingError, read_input
from .evaluation import MissingReference, UnknownSampleId
from .gateway import ScriptedGateway, script_from_dict


@click.group()
def main() -> None:
    """Multi-agent debate batches over a chat-completions endpoint."""


def _load_backend(backend: str) -> ScriptedGateway | None:
    if backend == "http":
        return None
    if backend.startswith("scripted:"):
        path = backend.split(":", 1)[1]
        try:
            return script_from_dict(read_input(path))
        except ValueError as exc:  # FormatError among them
            raise click.ClickException(f"cannot load script {path}: {exc}")
    raise click.ClickException(
        f"unknown backend {backend!r}; expected http or scripted:<script.json>"
    )


@main.command()
@click.option("--config", "config_path", required=True, help="Batch config JSON file.")
@click.option(
    "--backend",
    default="http",
    show_default=True,
    help="http, or scripted:<script.json> for a deterministic canned backend.",
)
@click.option("--dry-run", is_flag=True, help="Print the expanded job table and exit.")
def run(config_path: str, backend: str, dry_run: bool) -> None:
    """Expand a batch config into jobs and run every debate."""
    scripted = _load_backend(backend)
    try:
        cfg = BatchConfig.load(config_path)
    except ConfigError as exc:  # it names the file
        raise click.ClickException(str(exc))
    # Every job is resolved up front, so a job that cannot run stops the
    # batch (and a dry run) before any debate starts.
    where = ""
    try:
        jobs = expand_config(cfg, scripted_backend=scripted is not None)
        resolved = []
        for job in jobs:
            where = f"{job.name} r{job.repeat_index}: "
            resolved.append(resolve_job_params(job.params, http_backend=scripted is None))
    except ConfigError as exc:
        raise click.ClickException(f"{config_path}: {where}{exc}")

    if dry_run:
        click.echo(f"{len(jobs)} job(s) from {len(cfg.runs)} run(s) x {cfg.repeats} repeat(s)")
        for job, params in zip(jobs, resolved):
            click.echo(
                f"  {job.name} r{job.repeat_index} -> {job.output_path} "
                f"[protocol={params.decision_protocol} paradigm={params.discussion_paradigm}]"
            )
        return

    summary = runner.run_batch(jobs, scripted=scripted)
    for report in summary.reports:
        if report.error is not None:
            click.echo(f"{report.name} r{report.repeat_index}: ABORTED: {report.error}")
        else:
            click.echo(
                f"{report.name} r{report.repeat_index}: {report.records} record(s), "
                f"{report.failures} failure(s) -> {report.output_path}"
            )
    click.echo(
        f"total: {summary.total_records} record(s), {summary.total_failures} failure(s), "
        f"{summary.aborted_jobs} aborted job(s), {summary.total_wall_clock_s:.1f}s"
    )
    sys.exit(0 if summary.ok else 1)


@main.command()
@click.option("--logs", required=True, help="Debate log file or directory of logs.")
@click.option("--dataset", required=True, help="Dataset the debates ran against.")
@click.option("--out", "out_dir", required=True, help="Directory for eval JSON files.")
def evaluate(logs: str, dataset: str, out_dir: str) -> None:
    """Score debate logs against their dataset, one eval file per job."""
    try:
        written = evaluation.evaluate_logs(logs, dataset, out_dir)
    except (ValueError, MappingError, EmptyDataset) as exc:  # FormatError too
        raise click.ClickException(str(exc))
    except (MissingReference, UnknownSampleId) as exc:  # a log and its dataset disagree
        raise click.ClickException(f"{exc} (dataset {dataset})")
    for path in written:
        click.echo(str(path))


@main.command()
@click.option("--evals", required=True, help="Directory of *.eval.json files.")
@click.option("--out", "out_dir", required=True, help="Directory for SVG/CSV output.")
@click.option("--metric", default=None, help="Metric for the score chart.")
def chart(evals: str, out_dir: str, metric: str | None) -> None:
    """Render score, turns, decision, and wall-clock charts per job."""
    try:
        results = evaluation.load_eval_results(evals)
        manifest = charts.emit_charts(results, out_dir, metric=metric)
    except (ValueError, charts.EmptyResults) as exc:  # FormatError too
        raise click.ClickException(str(exc))
    for path in manifest:
        click.echo(str(path))
