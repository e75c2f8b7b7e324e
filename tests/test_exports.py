"""Each module's ``__all__`` lists every name its siblings import from it, the
package exports exactly the exact core, and every public name has a reader.

The reachability rule: one ``run_suite()`` and one in-process run of each CLI
subcommand (every ``series --which`` branch and each ``--format``) must call
every function in each module's ``__all__``, and every public method and
property of each class there (dunders aside).  A name that neither reaches
goes, or goes on ``_UNREACHED_ON_PURPOSE`` with its reason; a listed name that
is reached, or no longer exists, fails too, so the list cannot go stale.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import sys
from pathlib import Path
from types import FunctionType

import baselkit
from baselkit import cli, exact
from baselkit.series import WHICH
from baselkit.verify import run_suite

SRC = Path(__file__).resolve().parent.parent / "src" / "baselkit"

#: Public names that neither the suite nor the CLI calls, each kept for its reason.
_UNREACHED_ON_PURPOSE = {
    "exact.parse_fraction": "README documents it as the inverse of fraction_str",
    "exact.term_log_integral": "the paper's Tonelli term -1/(n+1)^2, awaiting a suite row",
    "exact.signed_factorial_integral": "the Gamma factor (-1)^k k! of that term, likewise",
}

# One argv per CLI path: each subcommand, each series branch and each --format.
_CLI_RUNS = [
    ["bernoulli", "--n", "12"],
    ["genocchi", "--n", "12", "--format", "json"],
    ["zeta", "--even", "2", "--format", "csv"],
    ["poly", "--kind", "bernoulli", "--n", "4"],
    ["poly", "--kind", "genocchi", "--n", "4"],
    ["integrate", "--kind", "log_over_1pt"],
    ["riemann", "--kind", "log_over_1mt", "--n", "100"],
    ["product", "--kind", "plus", "--n", "100"],
    ["dilog", "--x", "0.25"],
    ["dilog", "--x", "0.25", "--mode", "integral"],
    ["series", "--which", "zeta2", "--n", "10"],
    ["series", "--which", "eta2", "--n", "10"],
    *(["series", "--which", which, "--m-max", "10"] for which in WHICH),
    ["mei", "--x", "1.0", "--level", "3"],
    ["verify", "--list"],
    *(["verify", "--suite", "erratum_E1", "--format", fmt] for fmt in ("pretty", "json", "csv")),
]


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


def _public_code() -> dict[str, object]:
    """'module.name' or 'module.Class.member' -> code object, for each function in a
    module's ``__all__`` and each public method or property of a class there; the
    package's ``__all__`` is exact's, and cli has none."""
    found = {}
    for module in sorted(path.stem for path in SRC.glob("[!_]*.py")):
        namespace = importlib.import_module(f"baselkit.{module}")
        for name in getattr(namespace, "__all__", ()):
            obj = getattr(namespace, name)
            if isinstance(obj, FunctionType):
                found[f"{module}.{name}"] = obj.__code__
            elif isinstance(obj, type):
                for member, attr in vars(obj).items():
                    func = getattr(attr, "fget", None) or getattr(attr, "__func__", attr)
                    if not member.startswith("_") and isinstance(func, FunctionType):
                        found[f"{module}.{name}.{member}"] = func.__code__
    return found


def _reached_code() -> set:
    """The code objects called by one run_suite() and each of _CLI_RUNS in process."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run_suite()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = [cli.main(argv) for argv in _CLI_RUNS]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(_CLI_RUNS), list(zip(codes, _CLI_RUNS))
    return seen


def test_the_cli_runs_take_every_subcommand_branch_and_format():
    assert {argv[0] for argv in _CLI_RUNS} == set(cli._COMMANDS)
    assert {argv[2] for argv in _CLI_RUNS if argv[0] == "series"} == {"zeta2", "eta2", *WHICH}
    formats = {argv[argv.index("--format") + 1] if "--format" in argv else "pretty"
               for argv in _CLI_RUNS}
    assert formats == {"pretty", "json", "csv"}


def test_every_public_name_is_reached_by_the_suite_or_the_cli():
    reached = _reached_code()
    unreached = {name for name, code in _public_code().items() if code not in reached}
    no_reader = sorted(unreached - _UNREACHED_ON_PURPOSE.keys())
    assert not no_reader, f"public names that nothing reaches: {no_reader}"
    stale = sorted(_UNREACHED_ON_PURPOSE.keys() - unreached)
    assert not stale, f"allow-listed names that are reached or gone: {stale}"
