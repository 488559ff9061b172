"""Output checks and digests shared by the benchmark run and digest recording."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

# Fields that legitimately differ between runs of the same seed: wall-clock
# readings, the stub's port, and the slot count (nproc of the machine).
_CLOCK_KEYS = ("clockMs", "globalClockMs")
_CONFIG_KEYS = ("endpoint_url", "concurrent_api_requests")


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def count_lines(directory: str | Path) -> int:
    total = 0
    for path in sorted(Path(directory).glob("*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            total += sum(1 for line in handle if line.strip())
    return total


def _strip(record: dict[str, Any]) -> dict[str, Any]:
    record = dict(record)
    for key in _CLOCK_KEYS:
        record.pop(key, None)
    record["config"] = {k: v for k, v in record.get("config", {}).items() if k not in _CONFIG_KEYS}
    record["messages"] = [
        {k: v for k, v in m.items() if k not in _CLOCK_KEYS} for m in record.get("messages", [])
    ]
    return record


def transcript_digest(manifest: dict[str, Any], root: str | Path = ".") -> str:
    """sha256 over every debate record in job order, clock fields excluded."""
    digest = hashlib.sha256()
    for job in manifest["jobs"]:
        path = Path(root) / "eval_logs" / job["eval_name"]
        digest.update(job["eval_name"].encode("utf-8"))
        if path.exists():
            for record in read_jsonl(path):
                digest.update(json.dumps(_strip(record), sort_keys=True, ensure_ascii=False).encode("utf-8"))
    return digest.hexdigest()


def evaluation_digest(evals_dir: str | Path) -> str:
    """sha256 over every eval file, wallClockS excluded."""
    digest = hashlib.sha256()
    for path in sorted(Path(evals_dir).glob("*.eval.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        data.pop("wallClockS", None)
        digest.update(path.name.encode("utf-8"))
        digest.update(json.dumps(data, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


def validate_jobs(manifest: dict[str, Any], root: str | Path = ".") -> tuple[int, int, list[str]]:
    """(samples attempted, samples failed, problems) over the debate jobs.

    Each job must leave one record per sample, in sample order, with no
    error record; a job without a log counts all its samples as failed.
    """
    attempted = failed = 0
    problems: list[str] = []
    for job in manifest["jobs"]:
        expected = job["sample_ids"]
        attempted += len(expected)
        path = Path(root) / "eval_logs" / job["eval_name"]
        if not path.exists():
            failed += len(expected)
            problems.append(f"{job['eval_name']}: no log (job aborted)")
            continue
        records = read_jsonl(path)
        ids = [r.get("task", {}).get("id") for r in records]
        if ids != expected:
            problems.append(f"{job['eval_name']}: records {ids} do not match samples {expected}")
        errors = [r for r in records if r.get("outcome", {}).get("error") is not None]
        failed += len(errors) + max(0, len(expected) - len(records))
        for record in errors[:3]:
            problems.append(f"{job['eval_name']}: {record['task']['id']}: {record['outcome']['error']}")
    return attempted, failed, problems
