"""Offline agora benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload protocol-sweep --seed 3 --seconds 20 --trace 0

Run from the root of an agora checkout. The program is imported from
./src; nothing is installed. The seeded stub endpoint runs as a child
process on loopback, the engine runs in a fresh child process, and
set-up time is the median of several fresh processes. Scratch files go
to ./.bench_out. The last line of standard output is one JSON object:
with --trace 0 it carries the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics of a separate traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

import workloads

HERE = Path(__file__).resolve().parent
# Fresh-process set-up timings: some before the engine run and some after,
# so that one burst of contention on the host does not set the median.
SETUP_STARTS = (6, 5)
# Every run must end within 180 s; leave room for the checks and cleanup.
DEADLINE_S = 165.0


class BenchError(Exception):
    pass


def load_spec() -> dict[str, Any]:
    """BENCHMARK.json: the metric names, units and bounds this script reports."""
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def tail_point(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with >= 10 values beyond it.

    With n < 11 values there is no such percentile; the maximum is reported
    with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _python(script: str, args: list[str], env: dict[str, str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, timeout),
    )


def _checked(proc: subprocess.CompletedProcess, what: str) -> str:
    if proc.returncode != 0:
        raise BenchError(f"{what} failed (exit {proc.returncode}):\n{proc.stderr[-4000:]}")
    return proc.stdout


class StubProcess:
    def __init__(self, seed: int, templates: Path, sleep: bool = True, timeout: float = 30.0) -> None:
        args = ["--seed", str(seed), "--templates", str(templates)] + ([] if sleep else ["--no-sleep"])
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), *args], stdout=subprocess.PIPE, text=True
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("PORT "):
            self.stop()
            raise BenchError("stub endpoint did not start")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def prepare(root: Path, workdir: Path, workload: str, seed: int, seconds: float, endpoint: str) -> dict[str, Any]:
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    manifest = workloads.generate(workload, seed, seconds, workdir, endpoint)
    manifest["templates"] = str(root / "src" / "agora" / "templates")
    (workdir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return manifest


def reference_digests(
    root: Path, workdir: Path, workload: str, seed: int, seconds: float, with_eval: bool, timeout: float
) -> dict[str, Optional[str]]:
    """Digests from one pass of the same inputs against a stub that does not sleep."""
    stub = StubProcess(seed, root / "src" / "agora" / "templates", sleep=False)
    try:
        prepare(root, workdir, workload, seed, seconds, stub.url + "/v1")
        args = ["reference", "--workdir", str(workdir), "--stub-url", stub.url]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        out = _checked(_python("engine.py", args + (["--with-eval"] if with_eval else []), env, timeout), "reference run")
    finally:
        stub.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    return json.loads(out.strip().splitlines()[-1])


def recorded_digests(workload: str, seed: int, seconds: float) -> Optional[dict[str, str]]:
    data = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    if float(data["seconds"]) != float(seconds):
        return None
    return data["workloads"].get(workload, {}).get(str(seed))


def end_to_end(result: dict[str, Any], setup: list[float]) -> tuple[dict[str, tuple], int, int]:
    """Metric rows name -> (value, q1, q3, n, note), samples attempted, failed."""
    p = result["untraced"]
    attempted, failed, _ = p["validation"]
    failed_total = failed + p["stub"]["unclassified"]
    debates = p["debate_s"]
    d_q1, d_med, d_q3 = quartiles(debates)
    tail, pct = tail_point(debates)
    s_q1, s_med, s_q3 = quartiles(setup)
    e_q1, e_med, e_q3 = quartiles(p["eval_s"])
    scored = p["records_scored"]
    rows = {
        "setup_s": (s_med, s_q1, s_q3, len(setup), "median of fresh starts"),
        "debates_per_s": ((attempted - failed) / p["batch_wall_s"], None, None, attempted, "non-failed records / run_batch wall"),
        "debate_p50_s": (d_med, d_q1, d_q3, len(debates), "run_sample entry to return"),
        "debate_tail_s": (tail, None, None, len(debates), f"p{pct:.1f}: 10 debates beyond it"),
        "calls_per_debate": (p["stub"]["calls"] / attempted, None, None, attempted, "stub-counted, exact"),
        "prompt_chars_per_debate": (p["stub"]["prompt_chars"] / attempted, None, None, attempted, "stub-counted, exact"),
        "failed_share": (failed_total / attempted, None, None, attempted, "reported as failed/attempted"),
        "peak_rss_mb": (result["peak_rss_mb"], None, None, 1, "engine process"),
        "eval_records_per_s": (scored / e_med, scored / e_q3, scored / e_q1, len(p["eval_s"]), f"{scored} records; unbounded"),
    }
    return rows, attempted, failed_total


def per_layer(result: dict[str, Any], cap: int) -> dict[str, float]:
    u, t = result["untraced"], result["traced"]
    layers = dict(t["layers"])
    busy = u["stub"]["service_s"]
    layers["runner.slot_util"] = busy / (cap * u["batch_wall_s"])
    layers["runner.idle_slot_s"] = cap * u["batch_wall_s"] - busy
    layers["runner.cpu_ms_per_call"] = 1000.0 * u["batch_cpu_s"] / max(1, u["stub"]["calls"])
    layers["gateway.calls_per_connection"] = u["stub"]["calls"] / max(1, u["stub"]["connections"])
    layers["evaluation.records_per_s"] = u["records_scored"] / statistics.median(u["eval_s"])
    layers["trace.throughput_ratio"] = u["batch_wall_s"] / t["batch_wall_s"]
    layers["trace.eval_throughput_ratio"] = statistics.median(u["eval_s"]) / statistics.median(t["eval_s"])
    return layers


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Offline agora benchmark (one workload, one seed).")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    root = Path.cwd()
    if not (root / "src" / "agora" / "__init__.py").is_file():
        print("perfbench: src/agora not found; run from the root of an agora checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    base = root / ".bench_out"
    workdir = base / f"{args.workload}-s{args.seed}-{os.getpid()}"

    def left() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    try:
        stub = StubProcess(args.seed, root / "src" / "agora" / "templates")
        try:
            manifest = prepare(root, workdir, args.workload, args.seed, args.seconds, stub.url + "/v1")
            setup: list[float] = []

            def probe_setup(times: int) -> None:
                for _ in range(times):
                    out = _checked(_python("engine.py", ["setup", "--workdir", str(workdir)], env, left()), "setup probe")
                    setup.append(json.loads(out.strip().splitlines()[-1])["setup_s"])

            probe_setup(SETUP_STARTS[0])
            run_args = ["run", "--workdir", str(workdir), "--stub-url", stub.url]
            if args.trace:
                run_args.append("--trace")
            _checked(_python("engine.py", run_args, env, left()), "engine run")
            probe_setup(SETUP_STARTS[1])
        finally:
            stub.stop()
        result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
        if args.trace:
            shutil.copyfile(workdir / "trace.json", base / f"trace-{args.workload}-s{args.seed}.json")

        expected = recorded_digests(args.workload, args.seed, args.seconds)
        source = "recorded"
        if expected is None:
            # No digest recorded for this seed and run length: compare the
            # transcripts with a reference run of the same inputs.
            # The evaluation digest is only checked against recorded values,
            # since the reference run would share the metric code under test.
            source = "reference run"
            ref_dir = base / f"{args.workload}-s{args.seed}-{os.getpid()}-ref"
            expected = reference_digests(root, ref_dir, args.workload, args.seed, args.seconds, False, left())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = []
    passes = [("untraced", result["untraced"])] + ([("traced", result["traced"])] if args.trace else [])
    for label, p in passes:
        problems += [f"{label}: {text}" for text in p["validation"][2]]
        if p["stub"]["unclassified"]:
            problems.append(f"{label}: stub could not classify {p['stub']['unclassified']} request(s)")
        for kind in ("transcript", "evaluation"):
            if expected[kind] is not None and p[f"{kind}_digest"] != expected[kind]:
                problems.append(f"{label}: {kind} digest {p[f'{kind}_digest'][:16]} != {source} {expected[kind][:16]}")

    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(failed_share="ratio", eval_records_per_s="1/s")
    rows, attempted, failed = end_to_end(result, setup)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  slots {workloads.slots()}  digests: {source}")
    print(f"{'metric':<34}{'value':>14}  {'unit':<6}{'q1':>12}{'q3':>12}{'n':>7}  note")
    for name, (value, q1, q3, n, note) in rows.items():
        q1s = f"{q1:12.6g}" if q1 is not None else f"{'-':>12}"
        q3s = f"{q3:12.6g}" if q3 is not None else f"{'-':>12}"
        print(f"{name:<34}{value:14.6g}  {units[name]:<6}{q1s}{q3s}{n:7d}  {note}")
    stub_counts = result["untraced"]["stub"]
    print(f"stub: {json.dumps(stub_counts, sort_keys=True)}")
    if args.trace:
        layers = per_layer(result, workloads.slots())
        for name, value in layers.items():
            print(f"{name:<34}{value:14.6g}  {units[name]}")
        names = [m["name"] for m in spec["per_layer"]]
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in names}
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        metrics = {name: {"value": rows[name][0], "unit": units[name]} for name in names}
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
