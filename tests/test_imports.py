"""Import hygiene: every name a module imports is read somewhere in that
module, every private module-level name of the package is read somewhere in
the package, and importing the CLI leaves the process pool out."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# a package __init__ imports names to re-export them, not to read them
MODULES = sorted(
    path
    for path in (*ROOT.glob("src/rcbandit/*.py"), *ROOT.glob("tests/*.py"))
    if path.name != "__init__.py"
)


def unread_imports(source: str) -> list[str]:
    """Names bound by the source's import statements that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a; `from m import *` binds nothing nameable
                if alias.name != "*":
                    bound.add(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_scan_sees_an_unread_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport sys\nfrom math import pi as PI, tau\n"
        "print(os.path.sep, PI)\n"
    )
    assert unread_imports(source) == ["sys", "tau"]


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES]
)
def test_no_unread_imports(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """module:name for each private (single-underscore) name that a module
    binds at its top level and no module of sources reads, as a name, an
    attribute or an import."""
    bound, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                names = []
            bound += [(module, name) for name in names
                      if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(f"{module}:{name}" for module, name in bound if name not in read)


def test_scan_sees_an_unread_private_name():
    sources = {
        "a": "_USED, _SPARE = 1, 2\n_LEFT: int = 3\ndef _helper():\n    return _USED\n"
             "class _Kept:\n    pass\n__all__ = []\n",
        "b": "from .a import _Kept\nimport a\nprint(a._helper())\n",
    }
    assert unread_private_names(sources) == ["a:_LEFT", "a:_SPARE"]


def test_no_unread_private_names():
    """A private constant or helper that a change leaves unread cannot linger."""
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in ROOT.glob("src/rcbandit/*.py")}
    assert unread_private_names(sources) == []


def test_cli_import_leaves_the_process_pool_out():
    """Only a run with workers > 1 imports concurrent.futures, so the CLI's
    start-up does not pay for it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    probe = "import sys, rcbandit.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"
