"""Command-line interface: run batches, evaluate logs, draw charts."""

from __future__ import annotations

import sys
import time

import click

from .datasets import read_input


# Each control character as `\xNN`, for every line a command prints: a job name or path may hold one.
_ESCAPES = {code: f"\\x{code:02x}" for code in [*range(32), 127]}


@click.group()
def main() -> None:
    """Multi-agent debate batches over a chat-completions endpoint."""


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
    # Each command imports what it runs: `evaluate` and `chart` load no gateway.
    from . import decisions, runner
    from .config import BatchConfig, ConfigError, expand_config
    from .gateway import MAX_RETRIES, script_from_dict

    scripted = None
    if backend.startswith("scripted:"):
        path = backend.split(":", 1)[1]
        try:
            scripted = script_from_dict(read_input(path))
        except ValueError as exc:  # FormatError among them
            raise click.ClickException(f"cannot load script {path}: {exc}".translate(_ESCAPES))
    elif backend != "http":
        raise click.ClickException(f"unknown backend {backend!r}; expected http or scripted:<script.json>")
    try:
        cfg = BatchConfig.load(config_path)
    except ConfigError as exc:  # it names the file
        raise click.ClickException(str(exc).translate(_ESCAPES))
    # Every job is prepared up front, so a job that cannot run stops the
    # batch (and a dry run) before any debate starts.
    try:
        jobs = expand_config(cfg)
        started = time.monotonic()
        reports = runner.prepare_jobs(jobs, http_backend=scripted is None) if dry_run else runner.run_batch(jobs, scripted=scripted)
    except ConfigError as exc:
        raise click.ClickException(f"{config_path}: {exc}".translate(_ESCAPES))

    if dry_run:
        click.echo(f"{len(jobs)} job(s) from {len(cfg.runs)} run(s) x {cfg.repeats} repeat(s)")
        fewest = most = 0
        for job in reports:
            low, high = decisions.call_bounds(job.params)
            fewest, most = fewest + low * len(job.samples), most + high * len(job.samples)
            # A baseline runs no paradigm; its protocol is the one its log records.
            kind = "protocol=baseline" if job.params.use_baseline else f"protocol={job.params.decision_protocol} paradigm={job.params.discussion_paradigm}"
            click.echo((
                f"  {job.name} r{job.repeat_index} -> {job.params.output_json_file_path} "
                f"[{kind}] {low}-{high} call(s) per debate x {len(job.samples)} sample(s)"
            ).translate(_ESCAPES))
        click.echo(f"total: {fewest}-{most} call(s), each of at most {MAX_RETRIES + 1} HTTP attempts")
        return

    seconds = time.monotonic() - started
    for report in reports:
        if report.error is not None:
            click.echo(f"{report.name} r{report.repeat_index}: ABORTED: {report.error}".translate(_ESCAPES))
        else:
            click.echo((
                f"{report.name} r{report.repeat_index}: {report.records} record(s), "
                f"{report.failures} failure(s) -> {report.params.output_json_file_path}"
            ).translate(_ESCAPES))
    failures = sum(report.failures for report in reports)
    aborted = sum(1 for report in reports if report.error is not None)
    click.echo(
        f"total: {sum(report.records for report in reports)} record(s), {failures} failure(s), "
        f"{aborted} aborted job(s), {seconds:.1f}s"
    )
    sys.exit(1 if failures or aborted else 0)


@main.command()
@click.option("--logs", required=True, help="Debate log file or directory of logs.")
@click.option("--dataset", required=True, help="Dataset the debates ran against.")
@click.option("--out", "out_dir", required=True, help="Directory for eval JSON files.")
def evaluate(logs: str, dataset: str, out_dir: str) -> None:
    """Score debate logs against their dataset, one eval file per job."""
    from . import evaluation

    try:
        written = evaluation.evaluate_logs(logs, dataset, out_dir)
    except ValueError as exc:  # FormatError too
        raise click.ClickException(str(exc).translate(_ESCAPES))
    except evaluation.DatasetMismatch as exc:
        raise click.ClickException(f"{exc} (dataset {dataset})".translate(_ESCAPES))
    for path in written:
        click.echo(str(path).translate(_ESCAPES))


@main.command()
@click.option("--evals", required=True, help="Directory of *.eval.json files.")
@click.option("--out", "out_dir", required=True, help="Directory for SVG/CSV output.")
@click.option("--metric", default=None, help="Metric for the score chart.")
def chart(evals: str, out_dir: str, metric: str | None) -> None:
    """Render score, turns, decision, and wall-clock charts per job."""
    from . import charts, evaluation

    try:
        results = evaluation.load_eval_results(evals)
        manifest = charts.emit_charts(results, out_dir, metric=metric)
    except ValueError as exc:  # FormatError too
        raise click.ClickException(str(exc).translate(_ESCAPES))
    for path in manifest:
        click.echo(str(path).translate(_ESCAPES))


if __name__ == "__main__":
    main()
