"""Every public function and class of the package is reached by something
other than its own definition: another module, the rest of its own module,
or a backticked span of README.md (a documented API). Click commands are
reached through the command line.
"""

import ast
import re
from pathlib import Path

import pytest

import ventureval

PACKAGE_DIR = Path(ventureval.__file__).parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))
README = Path(__file__).resolve().parents[1] / "README.md"


def readme_spans() -> str:
    """The text of README.md's backticked spans. A span closes on a run of
    as many backticks as opened it, so a fenced block is one span."""
    text = README.read_text(encoding="utf-8")
    return "\n".join(body for _, body in re.findall(r"(`+)(.+?)\1", text, re.DOTALL))


def is_click_command(node) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr == "command"
        for d in node.decorator_list
    )


def unreached(path: Path, spans: str) -> list:
    """``"<module>.<name>"`` for each public top-level function or class of
    ``path`` whose name, as a whole word, appears in no other module, in no
    line of ``path`` outside its definition and in none of ``spans``."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    others = "\n".join(p.read_text(encoding="utf-8") for p in MODULES if p != path)
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if is_click_command(node):
            continue
        start = min([node.lineno] + [d.lineno for d in node.decorator_list])
        rest = "\n".join(lines[: start - 1] + lines[node.end_lineno :])
        word = re.compile(rf"\b{node.name}\b")
        if not any(word.search(text) for text in (others, rest, spans)):
            found.append(f"{path.stem}.{node.name}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_name_is_reached(path):
    assert unreached(path, readme_spans()) == []
