"""Import hygiene: every name a module imports is read somewhere in that
module, and importing the CLI leaves the process pool out."""

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


def test_cli_import_leaves_the_process_pool_out():
    """Only a run with workers > 1 imports concurrent.futures, so the CLI's
    start-up does not pay for it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    probe = "import sys, rcbandit.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"
