"""Module boundaries inside the package: no mvlci module imports another
module's private (underscore-prefixed) names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mvlci"


def private_imports(path: Path) -> list:
    """(line, module, name) for each `from <mvlci module> import _name`,
    relative or absolute; dunder names such as __version__ are public."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module != "mvlci" and not module.startswith("mvlci."):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append((node.lineno, "." * node.level + module, name))
    return found


def test_no_module_imports_another_modules_private_names():
    files = sorted(SRC.glob("*.py"))
    assert files
    bad = [f"{path.name}:{line}: from {module} import {name}"
           for path in files for line, module, name in private_imports(path)]
    assert not bad, "\n".join(bad)
