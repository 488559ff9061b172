"""Batch configuration: key vocabulary, overlay expansion, typed job parameters."""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Mapping

from . import decisions, paradigms
from .agents import PERSONA_GENERATORS
from .datasets import FormatError, read_input
from .domain import JobParams, ParadigmKind, ResponseGeneratorKind
from .gateway import is_endpoint_url

CONFIG_KEYS = frozenset(f.name for f in fields(JobParams))

REQUIRED_KEYS = (
    "endpoint_url",
    "model_name",
    "input_json_file_path",
    "output_json_file_path",
)

# The values each choice key accepts: exactly what the engine dispatches on.
CHOICES = {
    "response_generator": frozenset(kind.value for kind in ResponseGeneratorKind),
    "persona_generator": frozenset(PERSONA_GENERATORS),
    "discussion_paradigm": frozenset(kind.value for kind in ParadigmKind),
    "decision_protocol": decisions.ALL_PROTOCOLS,
}

# Integer keys whose floor is not 1.
_MINIMUMS = {"num_agents": 2, "seed": 0}


class ConfigError(Exception):
    pass


class ConfigKeyUnknown(ConfigError):
    def __init__(self, key: str):
        super().__init__(f"unknown config key {key!r}")
        self.key = key


class ConfigMissingRequired(ConfigError):
    def __init__(self, keys: list[str], run_index: int):
        super().__init__(
            f"run {run_index} is missing required key(s) after overlay: {', '.join(keys)}"
        )
        self.keys = keys


@dataclass(frozen=True)
class BatchConfig:
    name: str
    repeats: int
    common: dict[str, Any]
    runs: tuple[dict[str, Any], ...]

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BatchConfig":
        repeats = data.get("repeats", 1)
        if isinstance(repeats, bool) or not isinstance(repeats, int) or repeats < 1:
            raise ConfigError("repeats must be an integer >= 1")
        common = data.get("common", {})
        if not isinstance(common, Mapping):
            raise ConfigError("common must be an object")
        runs = data.get("runs")
        if not isinstance(runs, list) or not runs:
            raise ConfigError("runs must be a non-empty list")
        for key in common:
            if key not in CONFIG_KEYS:
                raise ConfigKeyUnknown(key)
        for index, run in enumerate(runs, 1):
            if not isinstance(run, Mapping):
                raise ConfigError(f"run {index} must be an object")
            for key in run:
                if key not in CONFIG_KEYS:
                    raise ConfigKeyUnknown(key)
        return cls(
            name=str(data.get("name", "")),
            repeats=repeats,
            common=dict(common),
            runs=tuple(dict(run) for run in runs),
        )

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


@dataclass(frozen=True)
class JobSpec:
    name: str
    params: dict[str, Any]
    repeat_index: int

    @property
    def output_path(self) -> str:
        return str(self.params["output_json_file_path"])


def _suffix_output(path: str, repeat_index: int) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}-r{repeat_index}{ext}"


def expand_config(cfg: BatchConfig, scripted_backend: bool = False) -> list[JobSpec]:
    """Overlay each run onto common (run wins) and fan out over repeats.

    Two runs may not share an output file, however its path is spelled: the
    later job's log would replace the earlier one's.
    """
    required = list(REQUIRED_KEYS)
    if scripted_backend:
        required = ["input_json_file_path", "output_json_file_path"]
    jobs: list[JobSpec] = []
    writers: dict[str, int] = {}
    for index, run in enumerate(cfg.runs, 1):
        merged = {**cfg.common, **run}
        missing = [key for key in required if key not in merged]
        if missing:
            raise ConfigMissingRequired(missing, index)
        output = _typed("output_json_file_path", merged["output_json_file_path"], "")
        first = writers.setdefault(os.path.abspath(output), index)
        if first != index:
            raise ConfigError(f"runs {first} and {index} both write {output!r}")
        name = Path(output).stem
        for repeat in range(1, cfg.repeats + 1):
            params = dict(merged)
            params["output_json_file_path"] = _suffix_output(output, repeat)
            jobs.append(JobSpec(name=name, params=params, repeat_index=repeat))
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
        raise ConfigError(
            f"{key} must be one of {', '.join(sorted(choices))}; got {text!r}"
        )
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
    """Reject a job that would fail, or fall back, on every sample."""
    if (job.endpoint_url or http_backend) and not is_endpoint_url(job.endpoint_url):
        raise ConfigError(f"endpoint_url must be an http(s)://host URL, got {job.endpoint_url!r}")
    if job.use_baseline:
        return
    try:
        paradigms.schedule(
            ParadigmKind(job.discussion_paradigm), job.num_agents, job.debate_exchanges
        )
    except paradigms.PanelTooSmall as exc:
        raise ConfigError(f"num_agents={job.num_agents} is too small: {exc}")
    if job.decision_protocol not in decisions.CONSENSUS_PROTOCOLS and not decisions.voting_due(
        job.max_turns, job.voting_after_turns
    ):
        raise ConfigError(
            f"voting_after_turns={job.voting_after_turns} exceeds max_turns={job.max_turns}: "
            f"{job.decision_protocol} would never reach its voting turn"
        )


def resolve_job_params(params: Mapping[str, Any], http_backend: bool = False) -> JobParams:
    """Type-check and default one overlaid job map; AGORA_API_KEY fills api_key.

    A job the engine cannot run is rejected as well: an endpoint_url that is
    not an http(s) URL (or an empty one when the job runs against the HTTP
    backend), a debate panel too small for its paradigm, or a voting or
    judge protocol whose voting turn lies beyond max_turns.
    """
    for key in params:
        if key not in CONFIG_KEYS:
            raise ConfigKeyUnknown(key)
    values = {
        f.name: _typed(f.name, params[f.name], f.default)
        for f in fields(JobParams)
        if f.name in params
    }
    values["api_key"] = values.get("api_key") or os.environ.get("AGORA_API_KEY", "")
    job = JobParams(**values)
    _check_runnable(job, http_backend)
    return job
