"""Record the expected transcript and evaluation digests per workload and seed.

    python3 perfbench/record_digests.py --seeds 0-63 [--workloads a,b] [--seconds 30]

Each digest comes from one pass of the workload against a stub that does
not sleep (engine.py reference --with-eval), which gives the same
transcripts as the timed run in a fraction of its time. The results are
merged into
perfbench/digests.json, which run.py checks every run against. Re-record
only when the benchmark's inputs or stub change; a change to the program
that alters transcripts or evaluation output is what the check exists to
catch.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import sys
from pathlib import Path

import run
import steady
import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(sorted(workloads.WORKLOADS)))
    parser.add_argument("--seeds", default="0-63")
    parser.add_argument("--seconds", type=int, default=run.load_spec()["run_seconds"])
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "agora" / "__init__.py").is_file():
        print("record_digests: run from the root of an agora checkout", file=sys.stderr)
        return 2
    for workload in args.workloads.split(","):
        for seed in steady.seeds_from(args.seeds):
            workdir = root / ".bench_out" / f"record-{workload}-s{seed}"
            digests = run.reference_digests(root, workdir, workload, seed, args.seconds, True, 600)
            merge(args.seconds, workload, seed, digests)
            print(f"{workload} seed {seed}: {digests['transcript'][:16]} {digests['evaluation'][:16]}", flush=True)
    return 0


def merge(seconds: int, workload: str, seed: int, digests: dict) -> None:
    """Add one seed's digests under a lock, so recordings can run side by side."""
    path = HERE / "digests.json"
    with open(path, "r+", encoding="utf-8") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        data = json.load(handle)
        if data["seconds"] != seconds:
            data = {"seconds": seconds, "workloads": {}}
        data["workloads"].setdefault(workload, {})[str(seed)] = digests
        handle.seek(0)
        handle.truncate()
        handle.write(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
