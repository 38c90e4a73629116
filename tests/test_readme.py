"""The README's quick start and CLI examples run; the namespace is what the quick start uses."""

import importlib
import re
import shlex
from pathlib import Path

import pytest

import coinwalk
from coinwalk import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def code_block(heading: str, language: str) -> str:
    section = README.read_text(encoding="utf-8").split(heading, 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def quick_start_code() -> str:
    return code_block("## Quick start", "python")


CLI_COMMANDS = [line for line in code_block("## CLI", "sh").splitlines()
                if line.startswith("coinwalk ")]


def table_names() -> list[tuple[str, str]]:
    """(module, name) for each backticked bare identifier in the "What's inside" table."""
    section = README.read_text(encoding="utf-8").split("## What's inside", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(coinwalk\.\w+)` \| (.*) \|$", section, re.M)
    return [(module, name) for module, contents in rows
            for name in re.findall(r"`([A-Za-z_]\w*)`", contents) if name != "coinwalk"]


def test_quick_start_runs():
    namespace = {}
    exec(compile(quick_start_code(), str(README), "exec"), namespace)
    assert namespace["dist"].support == (-6, -4, -2, 0, 2, 4, 6)
    assert len(namespace["walk"]) == 31 and len(namespace["rhos"]) == 6
    assert namespace["cw"] is coinwalk


def test_exported_names_resolve():
    for name in coinwalk.__all__:
        assert getattr(coinwalk, name) is not None


def test_quick_start_uses_exactly_the_exported_names():
    used = set(re.findall(r"\bcw\.(\w+)", quick_start_code()))
    assert used == set(coinwalk.__all__)


def test_table_lists_the_modules_and_their_names():
    modules = {module for module, _ in table_names()}
    assert modules == {"coinwalk.laurent", "coinwalk.engine", "coinwalk.kernels",
                       "coinwalk.svgplot"}
    assert len(table_names()) == 21


@pytest.mark.parametrize("module,name", table_names())
def test_table_names_resolve_in_their_module(module, name):
    # a name deleted from the code but left in the table fails here
    assert hasattr(importlib.import_module(module), name)


def test_cli_block_lists_the_commands():
    assert len(CLI_COMMANDS) == 10


@pytest.mark.parametrize("command", CLI_COMMANDS)
def test_cli_command_runs(tmp_path, command):
    argv = shlex.split(command)[1:]
    if "--out" in argv:
        k = argv.index("--out") + 1
        argv[k] = str(tmp_path / argv[k])
    else:
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
