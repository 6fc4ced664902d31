"""Imports: every imported name is read, and the package imports lightly.

A static check with the standard ``ast`` module: an import binds names,
and each bound name must appear as a loaded ``Name`` in the same module.
``__init__.py`` is exempt, as its imports are the package's exports.  A
fresh interpreter checks what ``import jacobicode`` loads.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "jacobicode").glob("*.py")
                 if p.name != "__init__.py") + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never loaded, in bind order."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_checker_flags_unread_names():
    source = ("from __future__ import annotations\n"
              "import os, json as j\nfrom a.b import c, d as e\nimport x.y\n"
              "print(j, c, x.y)\n")
    assert unused_imports(source) == ["os", "e"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_import_leaves_out_dataclasses():
    # dataclasses imports inspect, which imports ast, dis and tokenize: about
    # 0.9 MB of allocations in every process that imports the package
    code = ("import sys, jacobicode; "
            "print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"
