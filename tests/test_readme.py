import ast
import re
from pathlib import Path

import opreduce

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The fenced python block under the README's ``## Library example`` heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under '## Library example'"
    return match.group(1)


def test_library_example_runs():
    exec(compile(library_example(), str(README), "exec"), {})


def test_top_level_exports_are_the_example_names_plus_det():
    imported = {
        alias.name
        for node in ast.walk(ast.parse(library_example()))
        if isinstance(node, ast.ImportFrom) and node.module == "opreduce"
        for alias in node.names
    }
    assert sorted(opreduce.__all__) == sorted(imported | {"det"})
