"""Imports: every imported name is read, and the package imports lightly.

A static check with the standard ``ast`` module: an import binds names,
and each bound name must appear as a loaded ``Name`` in the same module.
``__init__.py`` is exempt, as its imports are the package's exports; each
export must in turn be read by the library or the benchmark, so that no
library code serves the tests alone.  A fresh interpreter checks what
``import jacobicode`` loads.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "jacobicode"
LIBRARY = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULES = LIBRARY + sorted((ROOT / "tests").glob("*.py"))
# the code outside the tests: an export that none of it reads is test-only
CONSUMERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))


def loaded_names(source: str) -> set[str]:
    """Every name the source reads, as a variable or as an attribute."""
    tree = ast.parse(source)
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)})


def exported_names(source: str) -> list[str]:
    """Names a package ``__init__`` binds by ``from .module import ...``."""
    return [alias.asname or alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names]


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


def test_checker_finds_exports_and_reads():
    source = "from .a import b, c as d\nfrom e import f\nx = g.h + i\n"
    assert exported_names(source) == ["b", "d"]
    assert loaded_names(source) == {"g", "h", "i"}


def test_every_export_is_read_outside_the_tests():
    read = set().union(*(loaded_names(p.read_text()) for p in CONSUMERS))
    exports = exported_names((PACKAGE / "__init__.py").read_text())
    assert len(exports) >= 40
    assert [name for name in exports if name not in read] == []


def test_cantor_stays_in_the_tests():
    # Cantor's algorithm is the tests' oracle for the closed-form group law;
    # no library path composes through an extended gcd or an exact division
    for path in LIBRARY + [PACKAGE / "__init__.py"]:
        tree = ast.parse(path.read_text())
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert "_cantor" not in defined, path.name
        assert not {"ext_gcd", "exact_div"} & loaded_names(path.read_text()), path.name


def test_weil_factorization_stays_in_the_tests():
    # simplicity is read in closed form from (q, c1, c2); the factorization
    # over Z and Newton's power sums are the tests' oracles
    for path in LIBRARY + [PACKAGE / "__init__.py"]:
        tree = ast.parse(path.read_text())
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert not {"factor_weil", "WeilFactorization", "FactorShape", "poly_mul_z",
                    "power_sums"} & defined, path.name


def test_each_exact_decision_is_made_one_way():
    # the phi_r branch is the integer test (r + 1) m <= N1, the circle four
    # integer inequalities, x^q a log-table lookup and the embedding's root
    # a local of ``image``; the sign-case circle test is the tests' oracle
    for path in LIBRARY + [PACKAGE / "__init__.py"]:
        tree = ast.parse(path.read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names} \
            | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        stored = {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
        assert "fractions" not in imported and "Fraction" not in loaded_names(path.read_text())
        assert not {"pow_", "_nonneg_with_sqrt", "_find_root"} & defined, path.name
        assert "root" not in stored, path.name


def test_group_law_runs_on_field_scalars():
    # every form of the group law is straight-line on field scalars: the
    # tuple composition is gone, and no helper of the law reads the
    # polynomial layer, directly or through _norm
    tree = ast.parse((PACKAGE / "mumford.py").read_text())
    bodies = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "_sum_tuples" not in bodies
    for name in ("_explicit_sum", "_point_sum", "_cubic_sum", "_sum_scalars", "_shared_root",
                 "_remaining_point", "_on_curve", "_quotient_mod_u"):
        read = {node.id for node in ast.walk(bodies[name]) if isinstance(node, ast.Name)}
        assert not {"poly", "_norm"} & read, name


def defined_functions(path: Path) -> dict[str, ast.FunctionDef]:
    """The module-level functions of a library module, by name."""
    return {node.name: node for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef)}


def test_one_form_per_concept():
    # every degree-2 pair with a common root reads the sum off the points
    # over it in _shared_root; the field bootstrap trims nothing of its own
    # (poly.trim is the one trim); a model's kind is read off deg f; and
    # the search keeps every model that validates, which has the space's kind
    from jacobicode.curves import CurveModel
    assert "_split_double" not in defined_functions(PACKAGE / "mumford.py")
    assert "_ptrim" not in defined_functions(PACKAGE / "fields.py")
    assert CurveModel._fields == ("field", "h", "f")
    curves = defined_functions(PACKAGE / "explore.py")["_curves"]
    assert "kind" not in loaded_names(ast.unparse(curves))


def test_import_leaves_out_dataclasses():
    # dataclasses imports inspect, which imports ast, dis and tokenize: about
    # 0.9 MB of allocations in every process that imports the package; the
    # exact layers decide in integers, so fractions (with decimal and
    # numbers) stays out too
    code = ("import sys, jacobicode; print(sorted({'dataclasses', 'inspect', 'ast', "
            "'fractions', 'decimal', 'numbers'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"
