"""Every import in ``src/repro`` is used (an offline stand-in for ruff F401).

CI lints ``src`` with ``ruff check --select F401``; this test applies the
same rule with only :mod:`ast`, so a parameter deletion that leaves its
type import behind fails tier-1 even where ruff is not installed.  A
name counts as used when a ``Name`` node, a string annotation or an
``__all__`` entry of the module refers to it.  Package ``__init__``
modules are skipped: their imports are re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names.setdefault(bound, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names.setdefault(alias.asname or alias.name, node.lineno)
    return names


def _annotations(tree: ast.Module):
    """Every annotation expression in the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_in(expr: ast.AST) -> set[str]:
    """Names an expression refers to, string annotations parsed."""
    used: set[str] = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                used |= _names_in(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return used


def _used(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        used |= _names_in(annotation)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                elt.value for elt in getattr(node.value, "elts", ())
                if isinstance(elt, ast.Constant)
            }
    return used


def unused_imports(path: Path) -> list[str]:
    """``module:line: name`` for every import ``path`` never uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    rel = path.relative_to(SRC.parent)
    return [
        f"{rel}:{line}: {name}"
        for name, line in sorted(_imported(tree).items(), key=lambda kv: kv[1])
        if name not in used
    ]


def test_no_unused_imports_in_src():
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert modules, "no modules found under src/repro"
    findings = [line for path in modules for line in unused_imports(path)]
    assert findings == [], "unused imports:\n" + "\n".join(findings)


def test_check_flags_an_unused_import(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "from typing import TYPE_CHECKING\n"
        "from os import path, sep\n"
        "import json\n"
        "if TYPE_CHECKING:\n"
        "    from decimal import Decimal\n"
        "__all__ = ['sep']\n"
        "def f(x: 'Decimal') -> None:\n"
        "    return path\n"
    )
    tree = ast.parse(module.read_text())
    assert set(_imported(tree)) - _used(tree) == {"json"}
