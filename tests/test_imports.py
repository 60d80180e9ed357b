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


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """"module.name" for each top-level private name a module defines (by
    def, class or assignment) that no module reads: not the module itself,
    not a module importing it from there, and no attribute access."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    reads, attrs = set(), set()  # (defining module, name) pairs read; attributes read
    for mod, tree in trees.items():
        loaded = {n.id for n in ast.walk(tree)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        attrs |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        reads |= {(mod, name) for name in loaded}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                reads |= {(node.module or "__init__", a.name) for a in node.names
                          if (a.asname or a.name) in loaded}
    unread = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [f"{mod}.{name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and (mod, name) not in reads and name not in attrs]
    return unread


def test_unread_private_name_is_detected():
    # b's _A is a leftover of a move to a: a reads its own, no one reads b's
    sources = {"a": "_A = 1\n_B = 2\ndef _f():\n    return _A\n",
               "b": "from .a import _f\n_A = 1\nX = _f()\n"}
    assert _unread_private_names(sources) == ["a._B", "b._A"]


def test_every_private_name_is_read():
    # a constant or helper left behind by a move is read nowhere
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert _unread_private_names(sources) == []


def _unread_parameters(source: str) -> list[str]:
    """"function.parameter" for each parameter of a def or lambda, at any
    depth, that its body never loads."""
    unread = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        loaded = {n.id for stmt in body for n in ast.walk(stmt)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{getattr(fn, 'name', '<lambda>')}.{p}" for p in params if p not in loaded]
    return unread


def test_unread_parameter_is_detected():
    # a read inside a nested function counts; a parameter only stored to does not
    source = ("def f(a, b, *c, d=1, **e):\n    b = 2\n    def g(h):\n        return a\n"
              "    return g(d)\n\nk = lambda x, y: x\n")
    assert sorted(_unread_parameters(source)) == ["<lambda>.y", "f.b", "f.c", "f.e", "g.h"]


# cli.load_config's `workers` is ignored, and kept only because
# perfbench/tests/test_perfbench.py passes it positionally (ROADMAP item 1)
_IGNORED_PARAMETERS = {"cli.load_config.workers"}


def test_every_parameter_is_read():
    # a knob left with one value in use, or a parameter a change stopped reading
    unread = [f"{p.stem}.{name}" for p in MODULES for name in _unread_parameters(p.read_text())]
    assert sorted(set(unread) - _IGNORED_PARAMETERS) == []
    assert _IGNORED_PARAMETERS <= set(unread)  # the exemption is still needed


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


def test_times_and_evolve_leave_numpy_ma_unloaded(tmp_path):
    # numpy.ma costs its import on the first command that touches it: an
    # undefined dwell time goes to times.json as None, and event_window
    # sorts its probes without np.unique
    (tmp_path / "run.ini").write_text(
        "[barrier]\nkind = rectangular\na = 0.0\nb = 1.0\nv0 = 2.0\n"
        "[packet]\nx0 = -40.0\nsigma = 8.0\nk0 = 1.0\nn_k = 192\n[run]\n")
    (tmp_path / "evolve.ini").write_text(
        (tmp_path / "run.ini").read_text() + "times = 0.0 30.0\ndx = 0.05\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    code = (
        "import sys, scatsplit as ss\n"
        "from scatsplit.cli import main\n"
        "assert main(['times', '--config', 'run.ini', '--out', 'out']) == 0\n"
        "bar = ss.make_rectangular(0.0, 1.0, 2.0)\n"
        "ss.quiet_times(ss.make_gaussian_packet(-40.0, 8.0, 1.0, barrier=bar, n=192), bar)\n"
        "assert main(['evolve', '--config', 'evolve.ini', '--out', 'out']) == 0\n"
        "print('numpy.ma' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, cwd=tmp_path, timeout=120, check=True)
    assert out.stdout.strip() == "False"
