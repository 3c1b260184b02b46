"""No module of the package imports another module's private name.

A rule shared by several modules lives under a public name in one of them;
importing a private module itself (``from . import _kernels``) is allowed.
"""

import ast
from pathlib import Path

import pytest

import ventureval

PACKAGE_DIR = Path(ventureval.__file__).parent


def private_imports(source: str) -> list:
    """``"<module>.<name>"`` for each underscore-prefixed name that ``source``
    imports from a module of the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue  # `from . import _kernels` imports a module
        if node.level == 0 and node.module.split(".")[0] != "ventureval":
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.endswith("__"):
                found.append(f"{node.module}.{alias.name}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_private_name_of_another(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []
