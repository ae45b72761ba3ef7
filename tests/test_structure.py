"""Module boundaries: no mvlci module, test or tool imports a private
(underscore-prefixed) name of an mvlci module, no mvlci module imports
scipy, and in the CLI only `main` frames a manifest."""

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


def imports(path: Path) -> list:
    """(line, module) for each import statement anywhere in the module,
    function bodies and `if TYPE_CHECKING:` blocks included."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return found


def test_no_mvlci_module_imports_scipy():
    """The package runs on numpy alone; scipy is a test-only dependency."""
    paths = sorted((ROOT / "src" / "mvlci").glob("*.py"))
    assert paths
    bad = [f"{path.relative_to(ROOT)}:{line}: imports {module}"
           for path in paths for line, module in imports(path)
           if module == "scipy" or module.startswith("scipy.")]
    assert not bad, "\n".join(bad)


def manifest_framing(path: Path) -> list:
    """(line, top-level name, what) for each write_manifest call,
    time.perf_counter call or "wall_time_s" string outside `main`."""
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        name = getattr(top, "name", None)
        if name == "main":
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                called = getattr(func, "id", None) or getattr(func, "attr", None)
                if called in ("write_manifest", "perf_counter"):
                    found.append((node.lineno, name, f"calls {called}"))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and "wall_time_s" in node.value:
                found.append((node.lineno, name, 'holds "wall_time_s"'))
    return found


def test_only_cli_main_frames_a_manifest():
    """Each cmd_* returns its manifest path and entries; main alone times
    the command and writes the manifest, so the frame has one author."""
    path = ROOT / "src" / "mvlci" / "cli.py"
    bad = [f"{path.relative_to(ROOT)}:{line}: {name or 'module level'} {what}"
           for line, name, what in manifest_framing(path)]
    assert not bad, "\n".join(bad)
