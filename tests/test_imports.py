"""Static hygiene of the package: no stale imports, no dangling exports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scatsplit as ss

SRC = Path(ss.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that nothing reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(a.asname or a.name).partition(".")[0] for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_import_is_detected():
    assert _unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        "math", "path"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_every_export_resolves():
    assert [name for name in ss.__all__ if not hasattr(ss, name)] == []


def test_cli_import_builds_no_rendering_table():
    # the power-of-ten and digit tables of the CSV renderer are built on first
    # use, so importing the CLI does no work that every command would pay
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    code = "import scatsplit.cli as c; print(c._float_tables.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert out.stdout.strip() == "0"
