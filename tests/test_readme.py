"""The README's quick start, run as written.

The `sh` block under "Quick start" is taken from `README.md`: its heredocs
are written into a fresh directory, and its three `agora` commands run there
in-process through click's `CliRunner`. Every file they write (two logs, one
eval file, four SVGs and four CSVs) is pinned by sha256 below, and so are
the lines `agora run` prints, with the seconds figure masked. A README edit
that breaks the quick start fails here, and so does a change to a template,
a rule or the CLI that alters one output byte.
"""

from __future__ import annotations

import hashlib
import re
import shlex
from pathlib import Path

from click.testing import CliRunner

from agora.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

QUICK_START_OUTPUTS = {
    "logs/demo-r1.jsonl": "ed12cbe1561963fb412befa498bc1fd8e0e1f542138d236a016f9b2665b28151",
    "logs/demo-r2.jsonl": "88c7efdaf710d6a177a55efe752a6224738feb669101a02a5cdf8dcc3939d13a",
    "evals/demo.eval.json": "b65ba2e4466c74456ccaa940acc24918cb4b584e569e20e3921dfd12b90e0ccd",
    "charts/score-demo.svg": "7fa0ec8121cbefa887dea32f0262ea5da66f2215967cb359d7110d6f6bb8df84",
    "charts/score-demo.csv": "e96d2cd72aab82c9f89666c87b54ddd4ab24ec5880cb5bc0b20afa9085761016",
    "charts/turns-demo.svg": "17214d59c81e67245ecce30d7d0e87554755fdf010e93b007e232ef72c6f5885",
    "charts/turns-demo.csv": "ac4a8d998034eaa35ef74ddbeb5016d5d397f814f4b5a607c9eed5cee4b805a6",
    "charts/decision-demo.svg": "7360f785a962cbb0d89183590ed140fde6416f6caae25d33ffaf097c8eb7ebcc",
    "charts/decision-demo.csv": "06def903141766123b1642f815b19e66687c72a47c0c94fb5d764051a0acb65a",
    "charts/clock-demo.svg": "7720c9c1ad051fb185e207e4a00c600a852a010f38e9de23ddf2ab33e4f925cc",
    "charts/clock-demo.csv": "2c033572023c200a24da5b6572d84f03f91943fd0f45b0d0079adbb1432b514c",
}

RUN_OUTPUT = [
    "demo r1: 1 record(s), 0 failure(s) -> logs/demo-r1.jsonl",
    "demo r2: 1 record(s), 0 failure(s) -> logs/demo-r2.jsonl",
    "total: 2 record(s), 0 failure(s), 0 aborted job(s), <s>s",
]


def quick_start_script() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Quick start", 1)[1].split("\n## ", 1)[0]
    (script,) = re.findall(r"```sh\n(.*?)```", section, re.S)
    return script


def run_quick_start(script: str, where: Path) -> list[str]:
    """Write the script's heredocs into `where`, run its `agora` commands there,
    and return what `agora run` printed."""
    files = re.findall(r"^cat > (\S+) <<'EOF'\n(.*?)^EOF$", script, re.S | re.M)
    assert [name for name, _ in files] == ["tasks.json", "script.json", "batch.json"]
    for name, text in files:
        (where / name).write_text(text, encoding="utf-8")
    commands = [shlex.split(line) for line in script.splitlines() if line.startswith("agora ")]
    assert [command[1] for command in commands] == ["run", "evaluate", "chart"]
    outputs = []
    for command in commands:
        result = CliRunner().invoke(main, command[1:])
        assert result.exit_code == 0, result.output
        outputs.append(result.output)
    return outputs[0].splitlines()


def test_the_quick_start_writes_its_pinned_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    printed = run_quick_start(quick_start_script(), tmp_path)
    assert [re.sub(r"\d+\.\d+s$", "<s>s", line) for line in printed] == RUN_OUTPUT
    written = sorted(str(path.relative_to(tmp_path)) for path in tmp_path.rglob("*") if path.is_file())
    assert written == sorted([*QUICK_START_OUTPUTS, "tasks.json", "script.json", "batch.json"])
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in QUICK_START_OUTPUTS}
    assert digests == QUICK_START_OUTPUTS
