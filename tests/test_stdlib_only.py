"""The library imports nothing but the standard library.

The test extras (pytest, hypothesis, mpmath) are installed wherever the tests
run, so an import of any of them from `src/baselkit` would otherwise pass
unnoticed.  The tests themselves import no other package, so the extras stay
pure Python.  Start-up is a tracked figure, so `import baselkit.cli` must not
load the slow stdlib modules that only type hints or ``dataclasses`` once
needed.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "baselkit").glob("*.py"))


def _absolute_imports(path: Path) -> list[str]:
    """Top-level names of the absolute imports in one module."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.partition(".")[0])
    return names


def test_every_library_import_is_stdlib():
    assert len(MODULES) >= 7
    outside = {
        f"{path.name}: {name}"
        for path in MODULES
        for name in _absolute_imports(path)
        if name not in sys.stdlib_module_names
    }
    assert not outside, sorted(outside)


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)


def test_the_tests_import_only_stdlib_the_library_and_the_test_extras():
    extras = ("pytest", "hypothesis", "mpmath")
    tests = sorted((ROOT / "tests").rglob("*.py"))
    assert len(tests) >= 12
    outside = {
        f"{path.name}: {name}"
        for path in tests
        for name in _absolute_imports(path)
        if name not in sys.stdlib_module_names and name not in ("baselkit", "oracles", *extras)
    }
    assert not outside, sorted(outside)
    # a regex, not tomllib, which Python 3.10 lacks
    text = (ROOT / "pyproject.toml").read_text()
    assert re.findall(r"^test = .*$", text, re.MULTILINE) == [
        'test = ["pytest", "hypothesis", "mpmath"]']


def test_the_cli_import_loads_no_heavy_stdlib_module():
    # a diff of sys.modules, so a host whose site already loads some of them passes too
    code = ("import sys; before = set(sys.modules); import baselkit.cli; "
            "print(*sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    added = set(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                               capture_output=True, text=True).stdout.split())
    assert "baselkit.cli" in added
    assert not added & {"dataclasses", "inspect", "typing", "tempfile", "csv"}, sorted(added)
