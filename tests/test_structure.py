"""Module boundaries: no mvlci module, test or tool imports a private
(underscore-prefixed) name of an mvlci module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the package, its tests and its tools; bench/ is left out
SCANNED = (ROOT / "src" / "mvlci", ROOT / "tests", ROOT / "tools")


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
    files = [sorted(folder.glob("*.py")) for folder in SCANNED]
    assert all(files)
    bad = [f"{path.relative_to(ROOT)}:{line}: from {module} import {name}"
           for paths in files for path in paths
           for line, module, name in private_imports(path)]
    assert not bad, "\n".join(bad)
