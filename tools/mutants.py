"""Statement-deletion mutants of `src/agora` modules, run against test files.

Each statement in a function body of each given module (at any depth, but
not a docstring or a `pass`) is replaced by `pass`, one at a time, in a copy
of the tree made in a temporary folder; `src/` is never written. The given
pytest arguments run in that copy. A mutant they fail on is killed, and its
failing node ids are printed (a run that takes three times as long as the
unmutated tree's is killed as a hang). A mutant they pass on is then run
against all of Tier-1 (`pytest --continue-on-collection-errors -x` at the
copy's root), the same way, and survives only if that passes too. As many
mutants run at once as there are CPUs, each in its own copy.

    python tools/mutants.py runner decisions -- tests/test_runner.py tests/test_decisions.py -x

prints one line per mutant, then the survivors again. A mutant is named by
its module, line, function and statement, so the runs of two trees can be
compared by everything after the line number.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["--continue-on-collection-errors", "-x"]  # no path: all the tests at the tree's root
FAILED = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", re.MULTILINE)  # -rfE's lines: "FAILED <node id> - <message>"


def statements(node: ast.AST):
    """The statements under `node`, at any depth, but not inside a function or class defined there."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            yield child
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            yield from statements(child)


def mutants(source: str) -> list[tuple[str, str]]:
    """(name, mutated source) for each statement of a function body, in source order."""
    lines = source.splitlines(keepends=True)
    found = []
    for function in ast.walk(ast.parse(source)):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            docstring = function.body[0] if ast.get_docstring(function, clean=False) is not None else None
            found += [(function.name, stmt) for stmt in statements(function) if stmt is not docstring and not isinstance(stmt, ast.Pass)]
    result = []
    for function, stmt in sorted(found, key=lambda pair: (pair[1].lineno, pair[1].col_offset)):
        decorators = getattr(stmt, "decorator_list", [])
        first, col = (decorators[0].lineno - 1, decorators[0].col_offset - 1) if decorators else (stmt.lineno - 1, stmt.col_offset)
        last = stmt.end_lineno - 1
        text = lines[stmt.lineno - 1][stmt.col_offset :].strip()
        # `pass` in the statement's place, and a blank line for each other line it held, so every line number stays.
        mutated = lines[:first] + [lines[first][:col] + "pass" + "\n" * (last - first) + lines[last][stmt.end_col_offset :]] + lines[last + 1 :]
        result.append((f"{stmt.lineno} {function}: {text}", "".join(mutated)))
    return result


def copy_tree(into: Path) -> Path:
    tree = into / "tree"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis"))
    return tree


def run(tree: Path, pytest_args: list[str], timeout: float | None) -> tuple[bool, list[str]]:
    """Whether the tests pass in `tree`, and the node ids that failed."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *pytest_args]
    process = subprocess.Popen(command, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        output, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return False, [f"(no result within {timeout:.0f} s)"]
    return process.returncode == 0, FAILED.findall(output)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", help="module names under src/agora, e.g. runner")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)  # what follows "--" goes to pytest
    args, pytest_args = parser.parse_args(argv[:split]), argv[split + 1 :]
    todo = [
        (module, name, mutated)
        for module in args.modules
        for name, mutated in mutants((ROOT / "src" / "agora" / f"{module}.py").read_text(encoding="utf-8"))
    ]
    with tempfile.TemporaryDirectory() as scratch:
        trees = [copy_tree(Path(scratch) / str(n)) for n in range(os.cpu_count() or 1)]
        first = run_pass(trees, todo, pytest_args, ("passed its tests", "killed"))
        survivors = first and run_pass(trees, first, TIER1, ("SURVIVED", "killed in Tier-1"))
    if first is None or survivors is None:
        return 2
    print(f"\n{len(todo) - len(first)} of {len(todo)} mutants killed by the given tests, {len(first) - len(survivors)} more by Tier-1; survivors:")
    for module, name, _ in survivors:
        print(f"  {module}.py:{name}")
    return 0


def run_pass(trees: list[Path], todo: list[tuple[str, str, str]], pytest_args: list[str], verdicts: tuple[str, str]):
    """Run each mutant against the pytest arguments, one per tree at a time, and print
    each one's fate; the mutants the tests pass on, or None if the unmutated tree fails."""
    start = time.monotonic()
    passed, failed = run(trees[0], pytest_args, None)
    if not passed:
        print(f"the unmutated tree fails {' '.join(pytest_args)}: {failed}", file=sys.stderr)
        return None
    timeout = 3 * (time.monotonic() - start)
    free = list(trees)

    def one(job: tuple[str, str, str]) -> tuple[bool, list[str]]:
        module, name, mutated = job
        tree = free.pop()
        target = tree / "src" / "agora" / f"{module}.py"
        original = target.read_text(encoding="utf-8")
        target.write_text(mutated, encoding="utf-8")
        try:
            return run(tree, pytest_args, timeout)
        finally:
            target.write_text(original, encoding="utf-8")
            free.append(tree)

    survivors = []
    with ThreadPoolExecutor(len(trees)) as pool:
        for job, (survived, failed) in zip(todo, pool.map(one, todo)):
            print(f"{verdicts[not survived]} {job[0]}.py:{job[1]}" + ("" if survived else f" by {' '.join(failed) or '(no node id)'}"), flush=True)
            if survived:
                survivors.append(job)
    return survivors


if __name__ == "__main__":
    sys.exit(main())
