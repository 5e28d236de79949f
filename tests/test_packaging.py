"""Dependency guard: sysmean imports only the standard library and its declared dependencies."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sysmean"


def declared_dependencies() -> set[str]:
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = (re.match(r"[A-Za-z0-9_.-]+", spec).group(0) for spec in project["dependencies"])
    return {name.lower() for name in names}


def imported_packages(path: Path) -> set[str]:
    """Top-level package of every absolute import in the file, nested ones included."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


def test_import_does_not_load_scipy():
    code = "import sys, sysmean; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.stdout.strip() == "False"


def test_every_import_is_stdlib_or_declared():
    allowed = set(sys.stdlib_module_names) | {"sysmean"} | declared_dependencies()
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        undeclared = imported_packages(path) - allowed
        assert not undeclared, f"{path.name} imports undeclared {sorted(undeclared)}"
