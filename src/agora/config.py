"""Batch configuration: key vocabulary, overlay expansion, typed job parameters."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Mapping, NamedTuple

from . import decisions
from .agents import PERSONA_GENERATORS
from .datasets import FormatError, job_logs, read_input
from .domain import JobParams, ParadigmKind, ResponseGeneratorKind
from .gateway import is_endpoint_url, shown_url

CONFIG_KEYS = frozenset(JobParams._fields)

# The values each choice key accepts: exactly what the engine dispatches on.
CHOICES = {
    "response_generator": frozenset(kind.value for kind in ResponseGeneratorKind),
    "persona_generator": frozenset(PERSONA_GENERATORS),
    "discussion_paradigm": frozenset(kind.value for kind in ParadigmKind),
    "decision_protocol": decisions.ALL_PROTOCOLS,
}

# Integer keys whose floor is not 1: a panel needs two agents, and a debate pair
# two exchanges before both of its peers have spoken.
_MINIMUMS = {"num_agents": 2, "seed": 0, "debate_exchanges": 2}


class ConfigError(Exception):
    pass


class BatchConfig(NamedTuple):
    repeats: int
    common: dict[str, Any]
    runs: tuple[dict[str, Any], ...]

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BatchConfig":
        for key in data:
            if key not in ("name", "repeats", "common", "runs"):
                raise ConfigError(f"unknown top-level key {key!r}; the keys are name, repeats, common and runs")
        repeats = data.get("repeats", 1)
        if isinstance(repeats, bool) or not isinstance(repeats, int) or repeats < 1:
            raise ConfigError("repeats must be an integer >= 1")
        common = data.get("common", {})
        if not isinstance(common, Mapping):
            raise ConfigError("common must be an object")
        runs = data.get("runs")
        if not isinstance(runs, list) or not runs:
            raise ConfigError("runs must be a non-empty list")
        for index, run in enumerate(runs, 1):
            if not isinstance(run, Mapping):
                raise ConfigError(f"run {index} must be an object")
        return cls(repeats, dict(common), tuple(dict(run) for run in runs))  # `name` labels the file for its reader only

    @classmethod
    def load(cls, path: str | Path) -> "BatchConfig":
        """The config in a JSON file; every ConfigError it raises names the file."""
        try:
            data = read_input(path)
        except FormatError as exc:
            raise ConfigError(str(exc))
        try:
            if not isinstance(data, dict):
                raise ConfigError("top level must be a JSON object")
            return cls.from_dict(data)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}")


class JobSpec(NamedTuple):
    name: str
    params: dict[str, Any]
    repeat_index: int


def expand_config(cfg: BatchConfig) -> list[JobSpec]:
    """Overlay each run onto common (run wins) and fan out over repeats.

    Each run must name its dataset and its log, and `datasets.job_logs` names
    the job and each repeat's log. Two runs may not share a job name in one
    folder, however the path is spelled or whichever link it goes through:
    the later job's log would replace the earlier one's, or `evaluate` would
    average both in as one job's. Every other check of a job is made as it
    is prepared (`runner.prepare_jobs`).
    """
    jobs: list[JobSpec] = []
    writers: dict[tuple[str, str], int] = {}
    for index, run in enumerate(cfg.runs, 1):
        merged = {**cfg.common, **run}
        missing = [key for key in ("input_json_file_path", "output_json_file_path") if key not in merged]
        if missing:
            raise ConfigError(f"run {index} is missing required key(s) after overlay: {', '.join(missing)}")
        output = _typed("output_json_file_path", merged["output_json_file_path"], "")
        name, logs = job_logs(output, cfg.repeats)
        folder = os.path.dirname(output)  # realpath raises on a NUL, which prepare_jobs refuses by name
        first = writers.setdefault((folder if "\0" in folder else os.path.realpath(folder), name), index)
        if first != index:
            raise ConfigError(f"runs {first} and {index} both write {output!r}")
        jobs += [JobSpec(name, {**merged, "output_json_file_path": log}, repeat) for repeat, log in enumerate(logs, 1)]
    return jobs


def _as_int(value: Any, key: str, minimum: int = 1) -> int:
    if isinstance(value, bool):
        raise ConfigError(f"{key} must be an integer, got a boolean")
    if isinstance(value, int):
        result = value
    elif isinstance(value, str):
        try:
            result = int(value.strip())
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {value!r}")
    else:
        raise ConfigError(f"{key} must be an integer, got {type(value).__name__}")
    if result < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {result}")
    return result


def _as_bool(value: Any, key: str) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str) and value.strip().lower() in ("true", "false"):
        return value.strip().lower() == "true"
    raise ConfigError(f"{key} must be a boolean, got {value!r}")


def _as_choice(value: Any, key: str, choices: frozenset[str]) -> str:
    text = str(value)
    if text not in choices:
        raise ConfigError(f"{key} must be one of {', '.join(sorted(choices))}; got {text!r}")
    return text


def _typed(key: str, value: Any, default: Any) -> Any:
    """One config value checked and converted to the type of its JobParams default."""
    if key in CHOICES:
        return _as_choice(value, key, CHOICES[key])
    if isinstance(default, bool):
        return _as_bool(value, key)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{key} must be a string, got {type(value).__name__}")
        return value
    if default is None and value is None:
        return None
    return _as_int(value, key, _MINIMUMS.get(key, 1))


def _check_runnable(job: JobParams, http_backend: bool) -> None:
    """Reject a job that would fail, or fall back, on every sample. The panel-size
    rule lives here alone (with the floor of 2 in `_MINIMUMS`); `paradigms.schedule` trusts it."""
    if (job.endpoint_url or http_backend) and not is_endpoint_url(job.endpoint_url):
        raise ConfigError(
            f"endpoint_url must be an http(s)://host URL with no user, password, query or fragment "
            f"(a key goes in api_key), got {shown_url(job.endpoint_url)}"
        )
    if job.use_baseline:
        return
    if job.num_agents < 3 and job.discussion_paradigm in (ParadigmKind.REPORT, ParadigmKind.DEBATE):
        raise ConfigError(f"num_agents={job.num_agents} is too small: {job.discussion_paradigm} needs a central agent plus at least 2 peers")
    voting = job.decision_protocol not in decisions.CONSENSUS_PROTOCOLS
    if voting and not decisions.voting_due(job.max_turns, job.voting_after_turns):
        raise ConfigError(
            f"voting_after_turns={job.voting_after_turns} exceeds max_turns={job.max_turns}: "
            f"{job.decision_protocol} would never reach its voting turn"
        )


def resolve_job_params(params: Mapping[str, Any], http_backend: bool = False) -> JobParams:
    """Type-check and default one overlaid job map; AGORA_API_KEY fills api_key.

    A key outside the vocabulary is rejected, and so is a job the engine
    cannot run: one for the HTTP backend without an endpoint_url or a
    model_name, an endpoint_url that is not an http(s) URL (or an empty one
    when the job runs against the HTTP backend), a debate panel too small
    for its paradigm, or a voting or judge protocol whose voting turn lies
    beyond max_turns.
    """
    for key in params:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    missing = [key for key in ("endpoint_url", "model_name") if http_backend and key not in params]
    if missing:
        raise ConfigError(f"missing required key(s) for the http backend: {', '.join(missing)}")
    values = {key: _typed(key, params[key], default) for key, default in JobParams._field_defaults.items() if key in params}
    values["api_key"] = values.get("api_key") or os.environ.get("AGORA_API_KEY", "")
    job = JobParams(**values)
    _check_runnable(job, http_backend)
    return job
