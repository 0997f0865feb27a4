"""No dead exports: every public name is used by the package or documented."""

import ast
import re
from pathlib import Path

import ncgb

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "ncgb"


def _referenced_names():
    """Names loaded or read as attributes in the package's modules, except
    ``__init__.py`` and a function's or class's references to itself."""
    names = set()
    for path in _SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            used = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                used.discard(stmt.name)
            names |= used
    return names


def test_every_export_is_used_or_documented():
    used = _referenced_names()
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    dead = [
        name
        for name in ncgb.__all__
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert dead == []
