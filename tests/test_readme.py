"""The README's library quick start runs, and the package namespace is what it uses."""

import re
from pathlib import Path

import coinwalk

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_code() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


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
