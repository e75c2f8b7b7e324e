"""Each module's ``__all__`` lists every name its siblings import from it, and
the package exports exactly the exact core."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import baselkit
from baselkit import exact

SRC = Path(__file__).resolve().parent.parent / "src" / "baselkit"


def _sibling_imports() -> list[tuple[str, str, str]]:
    """(importer, sibling, name) for each public ``from .sibling import name``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                found += [(path.stem, node.module, alias.name) for alias in node.names
                          if alias.name != "*" and not alias.name.startswith("_")]
    return found


def test_every_name_imported_from_a_sibling_is_in_its_all():
    imports = _sibling_imports()
    assert ("cli", "verify", "REPORT_FIELDS") in imports
    missing = sorted(
        f"{importer}: {sibling}.{name}" for importer, sibling, name in imports
        if name not in importlib.import_module(f"baselkit.{sibling}").__all__
    )
    assert not missing, missing


def test_the_package_exports_the_exact_core():
    assert baselkit.__all__ == [*exact.__all__, "__version__"]
    for name in exact.__all__:
        assert getattr(baselkit, name) is getattr(exact, name), name
