"""Source hygiene: every public top-level name in src/agora is used by src/agora.

A public function, class or constant that only its own definition mentions
exists for tests alone (or for nobody); such code belongs in the tests or
nowhere. The console entry point is the one name used from outside, and a
decorated function counts as used, because its decorator may register it
(the click subcommands). The same holds for each enum member, except in
the enums whose members the config selects by value (`ResponseGeneratorKind`,
`ParadigmKind`).

Also: every function parameter in src/agora is read by its function
(Protocol stubs aside), and starting the CLI imports no third-party HTTP
client, because every `agora` invocation pays for what it imports, and
importing the modules a command sets up with loads none of `dataclasses`,
`xml.sax`, `logging`, `concurrent.futures`, `fractions`, `decimal`,
`statistics` or `csv`, for the same reason; nor does `agora run`, and
`agora evaluate` and `agora chart` load no gateway or network code. And the
per-debate backend is the one carrier of the job's model and of the clock:
no function takes a `model_name`, and nothing type-checks the scripted backend.
The debate state is the one carrier of a debate's job: no function takes it
next to a second one. And `datasets.read_input` is the one place that reads
an input file (the package's prompt templates aside), and
`datasets.write_output` the one place that writes an output file
(`write_text`, `write_bytes`, `mkdir`, `makedirs`, `os.write`, an `os.open`
that is not read-only, or `open` in a mode with `w`, `a` or `x`), so every
input and output error names its file in one way.
And `DebateState.add` is the one place that builds a `Message`: the state
numbers each message, and the message reads its agreement from its text.
And `gateway` alone builds a `ChatRequest` and calls `.complete(`: every
debate call goes through `gateway.call`, which labels it with its kind and
agent for the backend.
And an exception class that subclasses, or is subclassed by, another one
defined in src/agora is caught by name somewhere in src/agora: a subclass
nothing tells apart from its base is a second name for one failure. The
gateway's `EndpointUnreachable`, `MalformedResponse` and `NoRuleMatched` are
exempt: a failure record's error reads `<class>: <message>`, so each name is
the diagnosis the user reads.
And `runner.prepare_jobs` is the one place that resolves a job and loads
its dataset (`evaluate` loads its own), and `run_sample` the one place that
catches any exception, so a job's set-up fault stops the batch instead of
becoming a result. And each value type is one class: no class derives from
a NamedTuple defined in src/agora, and no NamedTuple defines `__new__`, so
a value is checked by the one reader of outside input that builds it.
And `decisions.decide` alone calls `paradigms.run_turn`, so one loop runs a
debate's turns, its vote and a tie's extra round, and `decisions.call_bounds`,
beside it, counts what that loop can call.
And `datasets` alone builds or parses a debate log's name (`<job>-r<N><suffix>`)
and decides whether a job name is a plain file name, so `run` names a job,
writes its logs and refuses a name by the rule `evaluate` reads them by.
And the debate engine (`agents`, `paradigms`, `decisions`, `domain`) trusts
a prepared job: each of its `raise`s is a failed model reply, a guard on the
transcript or a bare re-raise, because `runner.prepare_jobs` has already
refused every value a second check there could catch.

The rule for start-up imports: a module imports at its top only what the
commands that import it run. `agora.cli` imports each command's modules
inside that command, so `evaluate` and `chart` never load the gateway (nor
`http.client`, `ssl`, `urllib.request`, `concurrent.futures` or `logging`).
`statistics` (for `stdev` and chart quartiles) and `csv` (for chart CSV twins
and CSV datasets) are imported inside the one function that uses each; means
are `math.fsum(v) / len(v)`, which is `statistics.fmean` bit for bit. No other
module is imported inside a function.

And the tests' oracles (`tests/metrics_oracle.py`, `tests/paper_rules.py`)
import only the standard library: a fault the engine shared with its oracle
would cancel out in every comparison.
"""

from __future__ import annotations

import ast
import builtins
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

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


def loaded_by_a_fresh_import(modules: str, then: str = "") -> set[str]:
    """The names of the modules a fresh interpreter holds after `import <modules>`
    and the statements `then`."""
    code = f"import sys, {modules}\n{then}\nprint(' '.join(sys.modules))"
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return set(out.stdout.split())


def test_cli_import_loads_no_http_client_library():
    assert {"requests", "urllib3"} & loaded_by_a_fresh_import("agora.cli") == set()


# What set-up never runs: the value types are NamedTuples and plain classes,
# the charts escape their own text, the ranked-ballot cut logs nothing, the
# batch runs its own workers, consensus is decided in integers, and only
# `evaluate` and `chart` use statistics and csv, which they import where
# they use them.
NOT_FOR_SETUP = {
    "dataclasses", "xml.sax", "logging", "concurrent.futures", "fractions", "decimal", "statistics", "csv",
}


def test_setup_imports_load_no_dataclasses_or_xml_sax():
    # What `run`, `evaluate` and `chart` import before their first debate or
    # file; every command pays for it.
    setup = "agora.charts, agora.config, agora.datasets, agora.evaluation, agora.runner"
    assert NOT_FOR_SETUP & loaded_by_a_fresh_import(setup) == set()


def loaded_by_a_command(*args: str) -> set[str]:
    """The modules a fresh interpreter holds after running `agora <args>` on
    inputs that do not exist: the command's own imports, and no file's."""
    then = (
        "try:\n"
        f"    agora.cli.main({list(args)!r})\n"
        "except SystemExit as exit:\n"
        "    assert exit.code == 1, exit.code"
    )
    return loaded_by_a_fresh_import("agora.cli", then)


# What a command that sends no request must not load.
NETWORK = {"agora.gateway", "http.client", "ssl", "urllib.request", "concurrent.futures", "logging"}


@pytest.mark.parametrize(
    "command",
    [
        ["evaluate", "--logs", "no-logs", "--dataset", "no-dataset.json", "--out", "no-evals"],
        ["chart", "--evals", "no-evals", "--out", "no-charts"],
    ],
    ids=lambda command: command[0],
)
def test_a_command_that_sends_no_request_loads_no_network_code(command):
    loaded = loaded_by_a_command(*command)
    assert "agora.evaluation" in loaded
    assert NETWORK & loaded == set()


def test_run_loads_no_thread_pool_logging_or_http_client_library():
    loaded = loaded_by_a_command("run", "--config", "no-config.json", "--dry-run")
    assert "agora.runner" in loaded
    assert ({"requests", "urllib3"} | NOT_FOR_SETUP) & loaded == set()


# What a function may import: the two stdlib modules that only `evaluate`
# and `chart` use, and, in the CLI, each command's own agora modules.
LOCAL_IMPORTS = {"statistics", "csv"}


def imports_inside_functions() -> list[str]:
    """`module.function: name` for each import a function makes outside LOCAL_IMPORTS."""
    flagged = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Import):
                    names = [alias.name for alias in sub.names]
                elif isinstance(sub, ast.ImportFrom):
                    names = ["." * sub.level + (sub.module or "")]
                else:
                    continue
                flagged.update(
                    f"{path.stem}.{node.name}: {name}"
                    for name in names
                    if name not in LOCAL_IMPORTS and not (path.stem == "cli" and name.startswith("."))
                )
    return sorted(flagged)


def test_start_up_saves_by_removing_imports_not_by_moving_them():
    # An import moved into a function is paid on first use instead, and
    # hides what a module needs from the fresh-import checks above.
    assert imports_inside_functions() == []


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


# What a function next to a DebateState would take a second time: the job, or one of its values.
JOB_CARRIERS = ("JobParams", "DebateContext", "ParadigmKind", "ResponseGeneratorKind")


def second_job_carriers() -> list[str]:
    """`module.function` for each function taking a DebateState and a JobParams or
    DebateContext, or a ParadigmKind or ResponseGeneratorKind: job values the state holds."""
    flagged = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                types: Counter = Counter()
                for param in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                    if param.annotation is not None:
                        types.update(_references(param.annotation))
                if types["DebateState"] and any(types[name] for name in JOB_CARRIERS):
                    flagged.append(f"{path.stem}.{node.name}")
    return sorted(flagged)


def test_the_debate_state_alone_carries_its_job():
    # DebateState holds the job, the sample and its task text; a function
    # that takes them, or the job's paradigm or generator, a second time next
    # to it can see two that disagree.
    assert second_job_carriers() == []


# The one reader of input files, and the one package resource read beside it.
READERS = {("datasets", "read_input"), ("prompts", "template_text")}

# The one writer of output files.
WRITERS = {("datasets", "write_output")}


def _os_call(call: ast.Call, name: str) -> bool:
    func = call.func
    return isinstance(func, ast.Attribute) and func.attr == name and getattr(func.value, "id", None) == "os"


def _open_mode(call: ast.Call) -> str | None:
    """The mode an `open` or `.open` call opens in ("r" by default, "?" when not a
    constant), or None for any other call. `os.open` is none: it gives a
    descriptor (the writer's directory sync takes one), so it counts as
    writing unless its flags are `os.O_RDONLY`, and `os.read` and `os.write`
    are what read and write through it."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        modes = call.args[1:2]
    elif isinstance(func, ast.Attribute) and func.attr == "open" and not _os_call(call, "open"):
        modes = call.args[:1]
    else:
        return None
    modes += [keyword.value for keyword in call.keywords if keyword.arg == "mode"]
    if not modes:
        return "r"
    return str(modes[0].value) if isinstance(modes[0], ast.Constant) else "?"


def _reads_a_file(call: ast.Call) -> bool:
    """read_text, read_bytes, json.load, os.read, or open / .open in a mode that reads."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("read_text", "read_bytes") or _os_call(call, "read"):
        return True
    if isinstance(func, ast.Attribute) and func.attr == "load":
        return getattr(func.value, "id", None) == "json"
    mode = _open_mode(call)
    return mode is not None and (mode == "?" or not set("wax").intersection(mode))


def _writes_a_file(call: ast.Call) -> bool:
    """write_text, write_bytes, mkdir, makedirs, os.write, os.open but read-only,
    or open / .open in a mode that writes."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes", "mkdir", "makedirs") or _os_call(call, "write"):
        return True
    if _os_call(call, "open"):
        flags = call.args[1] if len(call.args) > 1 else None
        return not (isinstance(flags, ast.Attribute) and flags.attr == "O_RDONLY")
    mode = _open_mode(call)
    return mode is not None and (mode == "?" or bool(set("wax").intersection(mode)))


def calls_outside(matches, allowed: set[tuple[str, str]], kind: type = ast.Call) -> list[str]:
    """`module.py:line` for each call (or other `kind` of node) in src/agora that
    `matches`, outside the top-level functions `allowed`."""
    flagged = []

    def visit(node: ast.AST, module: str, function: str) -> None:
        if isinstance(node, kind) and matches(node) and (module, function) not in allowed:
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


def _calls(name: str):
    """A matcher for calls of the function, class or method `name`."""

    def matches(call: ast.Call) -> bool:
        func = call.func
        return (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == name

    return matches


def test_only_the_state_builds_a_message():
    # A message built anywhere else carries a number and an agreement that
    # the transcript did not give it.
    assert calls_outside(_calls("Message"), {("domain", "add")}) == []


def requests_outside_the_gateway() -> list[str]:
    """`module.py:line` for each `.complete(` call, and each `ChatRequest(` or
    `chat_request(` built, outside `gateway`."""
    names = ("complete", "ChatRequest", "chat_request")
    sites = calls_outside(lambda call: any(_calls(name)(call) for name in names), set())
    return [site for site in sites if not site.startswith("gateway.py:")]


def test_only_the_gateway_builds_and_sends_a_request():
    # A request built or sent anywhere else carries no kind or agent, so a
    # backend that reads them (a trace, a deadline, a journal) misses it.
    assert requests_outside_the_gateway() == []


def test_only_the_preparation_step_resolves_a_job_or_loads_its_dataset():
    # A second place would check a job, or read its dataset, a second time,
    # and could let through what the first refuses.
    prepare = ("runner", "prepare_jobs")
    assert calls_outside(_calls("resolve_job_params"), {prepare}) == []
    assert calls_outside(_calls("load_input_file"), {prepare, ("evaluation", "evaluate_logs")}) == []


def test_only_decide_runs_a_turn():
    # A second loop over turns would check the protocol by a second rule, and
    # call_bounds would bound one of the two.
    assert calls_outside(_calls("run_turn"), {("decisions", "decide")}) == []
    trees, _ = _parsed_package()
    assert [module for module, tree in trees.items() if "call_bounds" in dict(_definitions(tree))] == ["decisions"]


def _catches_any_exception(handler: ast.ExceptHandler) -> bool:
    return handler.type is None or _references(handler.type)["Exception"] > 0


def test_only_a_debate_turns_any_exception_into_a_result():
    # run_sample turns a crashed debate into a failure record; a catch-all
    # anywhere else would turn a set-up fault, or a bug, into a result too.
    assert calls_outside(_catches_any_exception, {("runner", "run_sample")}, ast.ExceptHandler) == []


# The gateway's failures that no src code tells apart, kept under their own
# names: a failure record's error reads "<class>: <message>", so each name is
# the diagnosis the user reads.
GATEWAY_DIAGNOSES = {"EndpointUnreachable", "MalformedResponse", "NoRuleMatched"}


def uncaught_family_members() -> list[str]:
    """`module.Class` for each exception class in a family that no `except` names.

    A family is the exception classes defined in src/agora that subclass one
    another; a class that subclasses none of the others, and none of the
    others subclasses, stands alone and is no family.
    """
    trees, _ = _parsed_package()
    bases: dict[str, set[str]] = {}
    modules: dict[str, str] = {}
    caught: set[str] = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught.update(_references(node.type))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {name for base in node.bases for name in _references(base)}
                modules[node.name] = module

    def is_exception(name: str) -> bool:
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type):
            return issubclass(builtin, BaseException)
        return any(is_exception(base) for base in bases.get(name, ()))

    exceptions = {name for name in bases if is_exception(name)}
    subclasses = {name for name in exceptions if bases[name] & exceptions}
    family = subclasses | {base for name in subclasses for base in bases[name] & exceptions}
    return sorted(
        f"{modules[name]}.{name}" for name in family - caught - GATEWAY_DIAGNOSES
    )


def test_an_exception_family_is_caught_by_name():
    # A subclass that no code catches by name tells the program nothing its
    # base does not: one error type per failure the program handles.
    assert uncaught_family_members() == []


def layered_value_types() -> list[str]:
    """`module.Class` for each class that derives from a NamedTuple defined in
    src/agora, and for each NamedTuple that defines `__new__`."""
    trees, _ = _parsed_package()
    classes = [
        (module, node, {name for base in node.bases for name in _references(base)})
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    ]
    named_tuples = {node.name for _, node, bases in classes if "NamedTuple" in bases}
    flagged = []
    for module, node, bases in classes:
        defines_new = any(isinstance(item, ast.FunctionDef) and item.name == "__new__" for item in node.body)
        if bases & named_tuples or ("NamedTuple" in bases and defines_new):
            flagged.append(f"{module}.{node.name}")
    return sorted(flagged)


def test_each_value_type_is_one_class():
    # A private base plus a subclass that checks or fills it in `__new__` is
    # two carriers of one value, and the check runs on every internal copy too.
    assert layered_value_types() == []


# What only the log-name rule handles: a file name's stem and suffix, the
# `-r<N>` of a repeat (an f-string part before the number, or a pattern), and
# the names and separators that keep a job name plain.
NAME_PARTS = {"splitext", "stem", "suffix", "suffixes", "with_stem", "with_suffix"}
REPEAT_PART = re.compile(r"-r(\d|\\d|\(|$)")


def _is_log_name_rule(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in NAME_PARTS
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value
        return bool(REPEAT_PART.search(text)) or text == ".." or ("/" in text and "\\" in text)
    return False


def log_name_rules_outside_datasets() -> list[str]:
    """`module.py:line` for each piece of the log-name rule outside `datasets`."""
    flagged = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "datasets":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            flagged += [f"{path.stem}.py:{node.lineno}" for node in ast.walk(tree) if _is_log_name_rule(node)]
    return flagged


def test_only_datasets_names_a_log_or_judges_a_job_name():
    # A second copy of the rule that names logs drifts from the one that
    # reads them: a job `run` accepts whose logs `evaluate` then refuses.
    assert log_name_rules_outside_datasets() == []


# What the debate engine may raise: a model reply it cannot use, and a
# misused transcript (stored state that a correct caller never trips).
ENGINE = ("agents", "paradigms", "decisions", "domain")
REPLY_FAILURES = {"VoteParseFailure", "PersonaParseFailure", "PersonaUniquenessFailure", "TraitOutOfRange"}
TRANSCRIPT_GUARDS = {"SequenceViolation", "DebateEnded"}

# The functions that raise ValueError on a malformed reply: the JSON span
# reader and the persona parsers (each generator's nested `parse`, and `_role`).
REPLY_READERS = {"extract_json_object", "parse", "_role"}


def _walk(node: ast.AST, function: str = "", guarded: bool = False):
    """(node, innermost function, whether a `try` around it in that function catches ValueError) for each node."""
    yield node, function, guarded
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function, guarded = node.name, False
    for field, value in ast.iter_fields(node):
        inner = guarded or (
            isinstance(node, ast.Try)
            and field == "body"
            and any(h.type is None or _references(h.type)["ValueError"] for h in node.handlers)
        )
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield from _walk(child, function, inner)


def engine_raises_of_another_kind() -> list[str]:
    """`module.py:line function: Class` for each raise in the engine that is not a
    failed reply, a transcript guard or a bare re-raise; and `module.py:line
    function: calls reader` for each call of a reply reader that no `try`
    catching ValueError surrounds, outside the readers themselves."""
    flagged = []
    for module in ENGINE:
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        for node, function, guarded in _walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = getattr(raised, "id", None) or getattr(raised, "attr", None)
                reply_value_error = name == "ValueError" and function in REPLY_READERS
                if name not in REPLY_FAILURES | TRANSCRIPT_GUARDS and not reply_value_error:
                    flagged.append(f"{module}.py:{node.lineno} {function}: {name}")
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in REPLY_READERS:
                if not guarded and function not in REPLY_READERS:
                    flagged.append(f"{module}.py:{node.lineno} {function}: calls {node.func.id}")
    return flagged


def test_the_engine_raises_only_on_a_failed_reply_or_a_misused_transcript():
    # A check below the preparation step re-tests a value that step fixed:
    # only a test can trip it, and it drifts from the rule the user meets.
    assert engine_raises_of_another_kind() == []


def test_each_oracle_imports_only_the_standard_library():
    for oracle in ("metrics_oracle.py", "paper_rules.py"):
        tree = ast.parse((Path(__file__).parent / oracle).read_text(encoding="utf-8"))
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
        imported += ["." * node.level + (node.module or "") for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert [name for name in imported if name.partition(".")[0] not in sys.stdlib_module_names] == [], oracle
