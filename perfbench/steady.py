"""Steadiness self-check: run the benchmark over several seeds and summarise.

    python3 perfbench/steady.py --workloads protocol-sweep,wide-panel --seeds 0-9
    python3 perfbench/steady.py --seeds 0-9 --repeat-first

For every workload and end-to-end metric it prints the median, quartiles
and n over the runs, and the spread (interquartile range over median)
against the metric's bound in BENCHMARK.json: the spread should stay below
a third of the bound (setup_s is exempt; it is compared by median only).
--repeat-first runs the first seed a second time and checks that the exact
counts (calls_per_debate, prompt_chars_per_debate) repeat bit for bit.
Raw results are saved to .bench_out/steady-<time>.json; --compare A B
checks that the second set's medians are not worse than the first's by
more than each bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import load_spec

HERE = Path(__file__).resolve().parent
EXACT = ("calls_per_debate", "prompt_chars_per_debate")


def seeds_from(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [*load_spec()["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - started
    print(f"  {workload} seed {seed}: correct={result['correct']} failed={result['failed']} "
          f"({result['elapsed_s']:.1f} s)", flush=True)
    return result


def summarise(runs: dict[str, list[dict]]) -> bool:
    bounds = {m["name"]: m for m in load_spec()["end_to_end"]}
    steady = True
    for workload, results in runs.items():
        print(f"\n{workload}: n={len(results)}")
        print(f"  {'metric':<26}{'median':>14}{'q1':>14}{'q3':>14}  {'unit':<6}{'spread':>8}{'bound':>7}")
        for name, meta in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else float("inf")
            ok = name == "setup_s" or spread < meta["bound"] / 3
            steady &= ok
            print(f"  {name:<26}{med:14.6g}{q1:14.6g}{q3:14.6g}  {meta['unit']:<6}{spread:8.3f}{meta['bound']:7.2f}"
                  f"{'' if ok else '  <-- above a third of the bound'}")
        if any(not r["correct"] or r["failed"] for r in results):
            steady = False
            print("  some runs were incorrect or had failures")
    return steady


def compare(first: dict, second: dict) -> bool:
    bounds = {m["name"]: m for m in load_spec()["end_to_end"]}
    ok = True
    for workload in first:
        for name, meta in bounds.items():
            a = statistics.median(r["metrics"][name]["value"] for r in first[workload])
            b = statistics.median(r["metrics"][name]["value"] for r in second[workload])
            worse = (b - a) / a if meta["better"] == "lower" else (a - b) / a
            flag = worse > meta["bound"]
            ok &= not flag
            print(f"{workload:<20}{name:<26}{a:14.6g}{b:14.6g}{worse:+9.3f}{'  <-- worse than bound' if flag else ''}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in load_spec()["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=load_spec()["run_seconds"])
    parser.add_argument("--repeat-first", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    if args.compare:
        first, second = (json.loads(Path(p).read_text())["runs"] for p in args.compare)
        return 0 if compare(first, second) else 1

    seeds = seeds_from(args.seeds)
    runs: dict[str, list[dict]] = {}
    repeat_ok = True
    for workload in args.workloads.split(","):
        runs[workload] = [run_once(workload, seed, args.seconds) for seed in seeds]
        if args.repeat_first:
            again = run_once(workload, seeds[0], args.seconds)
            for name in EXACT:
                a, b = runs[workload][0]["metrics"][name]["value"], again["metrics"][name]["value"]
                if a != b:
                    repeat_ok = False
                    print(f"  {workload} {name} did not repeat: {a!r} != {b!r}")
    out = HERE.parent / ".bench_out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seeds": seeds, "seconds": args.seconds, "runs": runs}), encoding="utf-8")
    steady = summarise(runs)
    print(f"\nraw results: {out}")
    if args.repeat_first and repeat_ok:
        print("exact counts repeated")
    return 0 if steady and repeat_ok else 1


if __name__ == "__main__":
    sys.exit(main())
