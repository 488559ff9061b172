"""Source hygiene: every public top-level name in src/agora is used by src/agora.

A public function, class or constant that only its own definition mentions
exists for tests alone (or for nobody); such code belongs in the tests or
nowhere. The console entry point is the one name used from outside, and a
decorated function counts as used, because its decorator may register it
(the click subcommands). The same holds for each enum member, except in
the enums whose members the config selects by value.

Also: every function parameter in src/agora is read by its function
(Protocol stubs aside), and starting the CLI imports no third-party HTTP
client, because every `agora` invocation pays for what it imports. And the
per-debate backend is the one carrier of the job's model and of the clock:
no function takes a `model_name`, and nothing type-checks the scripted backend.
The debate state is the one carrier of a debate's job: no function takes it
next to a second one. And `datasets.read_input` is the one place that reads
an input file, and `datasets.write_output` the one place that writes an
output file, so every input and output error names its file in one way.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "agora"

# Names used from outside src/agora by design: the console entry point.
EXTERNAL_ENTRY_POINTS = {("cli", "main")}

# Enums whose members the config selects by value (through config.CHOICES),
# so a member may be named nowhere in the code.
VALUE_SELECTED_ENUMS = {"ResponseGeneratorKind", "ParadigmKind"}


def _definitions(tree: ast.Module):
    """(name, node) for each public top-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.decorator_list:
                yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _references(node: ast.AST) -> Counter:
    """How often each identifier is read, as a name, an attribute or an import."""
    counts: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            counts[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            counts[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            counts.update(alias.name for alias in sub.names)
    return counts


def _parsed_package() -> tuple[dict[str, ast.Module], Counter]:
    """Each module's tree, and how often the whole package reads each identifier."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    total: Counter = Counter()
    for tree in trees.values():
        total.update(_references(tree))
    return trees, total


def unreferenced_public_names() -> list[str]:
    trees, total = _parsed_package()
    flagged = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            if name.startswith("_") or (module, name) in EXTERNAL_ENTRY_POINTS:
                continue
            # Mentions inside the definition itself (recursion, a constant's
            # own right-hand side) do not count as use.
            if total[name] - _references(node)[name] == 0:
                flagged.append(f"{module}.{name}")
    return sorted(flagged)


def test_every_public_name_is_used_inside_the_package():
    assert unreferenced_public_names() == []


def unreferenced_enum_members() -> list[str]:
    """`module.Enum.MEMBER` for each member that no code in src/agora names."""
    trees, total = _parsed_package()
    flagged = []
    for module, tree in trees.items():
        for node in tree.body:
            is_enum = isinstance(node, ast.ClassDef) and any(
                getattr(base, "id", None) == "Enum" for base in node.bases
            )
            if not is_enum or node.name in VALUE_SELECTED_ENUMS:
                continue
            flagged += [
                f"{module}.{node.name}.{target.id}"
                for statement in node.body
                if isinstance(statement, ast.Assign)
                for target in statement.targets
                if isinstance(target, ast.Name) and total[target.id] == 0
            ]
    return sorted(flagged)


def test_every_enum_member_is_used_inside_the_package():
    # A member nothing writes or reads is a value the program never produces.
    assert unreferenced_enum_members() == []


def test_cli_import_loads_no_http_client_library():
    code = "import sys, agora.cli; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def _is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """A body that is only `...` (after an optional docstring): a Protocol method."""
    values = [
        statement.value.value
        for statement in node.body
        if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant)
    ]
    return len(values) == len(node.body) and values[-1] is Ellipsis


def unread_parameters() -> list[str]:
    """`module.function(parameter)` for every parameter its function never reads."""
    flagged = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or _is_stub(node):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            read = {
                sub.id
                for statement in node.body
                for sub in ast.walk(statement)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            }
            flagged += [
                f"{path.stem}.{node.name}({param.arg})"
                for param in params
                if param is not None and param.arg not in read
            ]
    return sorted(flagged)


def test_every_parameter_is_read():
    # A parameter nobody reads is a second carrier of something the function
    # takes from elsewhere, or dead weight on every call site.
    assert unread_parameters() == []


def model_and_clock_bypasses() -> list[str]:
    """`model_name` parameters and `isinstance` checks against ScriptedGateway in src/agora."""
    flagged = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
                if "model_name" in [param.arg for param in params]:
                    flagged.append(f"{path.stem}.{node.name}(model_name)")
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                if "ScriptedGateway" in _references(node):
                    flagged.append(f"{path.stem}:{node.lineno} isinstance(..., ScriptedGateway)")
    return flagged


def test_the_debate_backend_alone_names_the_model_and_keeps_the_clock():
    # The job's model reaches every request through gateway.DebateBackend, and
    # each backend declares its own clock; a second route for either drifts.
    assert model_and_clock_bypasses() == []


def second_job_carriers() -> list[str]:
    """`module.function` for each function taking a DebateState and a JobParams or DebateContext."""
    flagged = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                types: Counter = Counter()
                for param in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                    if param.annotation is not None:
                        types.update(_references(param.annotation))
                if types["DebateState"] and (types["JobParams"] or types["DebateContext"]):
                    flagged.append(f"{path.stem}.{node.name}")
    return sorted(flagged)


def test_the_debate_state_alone_carries_its_job():
    # DebateState holds the job, the sample and its task text; a function
    # that takes them a second time next to it can see two that disagree.
    assert second_job_carriers() == []


# The one reader of input files, and the one package resource read beside it.
READERS = {("datasets", "read_input"), ("prompts", "template_text")}

# The one writer of output files.
WRITERS = {("datasets", "write_output")}


def _open_mode(call: ast.Call) -> str | None:
    """The mode an `open` or `.open` call opens in ("r" by default, "?" when not a
    constant), or None for any other call."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        modes = call.args[1:2]
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        modes = call.args[:1]
    else:
        return None
    modes += [keyword.value for keyword in call.keywords if keyword.arg == "mode"]
    if not modes:
        return "r"
    return str(modes[0].value) if isinstance(modes[0], ast.Constant) else "?"


def _reads_a_file(call: ast.Call) -> bool:
    """read_text, read_bytes, json.load, or open / .open in a mode that reads."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("read_text", "read_bytes"):
        return True
    if isinstance(func, ast.Attribute) and func.attr == "load":
        return getattr(func.value, "id", None) == "json"
    mode = _open_mode(call)
    return mode is not None and (mode == "?" or not set("wax").intersection(mode))


def _writes_a_file(call: ast.Call) -> bool:
    """write_text, write_bytes, mkdir, makedirs, or open / .open in a mode that writes."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes", "mkdir", "makedirs"):
        return True
    mode = _open_mode(call)
    return mode is not None and (mode == "?" or bool(set("wax").intersection(mode)))


def calls_outside(matches, allowed: set[tuple[str, str]]) -> list[str]:
    """`module.py:line` for each call in src/agora that `matches`, outside `allowed`."""
    flagged = []

    def visit(node: ast.AST, module: str, function: str) -> None:
        if isinstance(node, ast.Call) and matches(node) and (module, function) not in allowed:
            flagged.append(f"{module}.py:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            visit(child, module, function or inner or "")

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return sorted(flagged)


def test_only_the_reader_reads_files():
    # A second reader is a second set of read, decode and parse errors, and
    # the ones it forgets reach the user as a traceback or an unnamed file.
    assert calls_outside(_reads_a_file, READERS) == []


def test_only_the_writer_writes_files():
    # A second writer is a second set of directory, encoding and write errors,
    # and the ones it forgets reach the user as a traceback.
    assert calls_outside(_writes_a_file, WRITERS) == []
