"""Every module-level function and class of ``martkit`` is reached: named by
other code of the package, exported from ``martkit``, or named by the
benchmark's tracer or workloads, which wrap or call it from outside.  A
helper that only the tests reach belongs in the tests."""

import ast
import re
from pathlib import Path

import martkit

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "martkit"
OUTSIDE = (ROOT / "benchmarks" / "tracing.py", ROOT / "benchmarks" / "workloads.py")


def names_in(node: ast.AST) -> set[str]:
    """Every name, attribute and imported name that ``node`` mentions."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def unreached(src: Path, outside: tuple[Path, ...], exported: set[str]) -> list[str]:
    defined, used = [], set()
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(f"{path.stem}.{node.name}")
                used |= names_in(node) - {node.name}  # a definition does not reach itself
            else:
                used |= names_in(node)
    text = "\n".join(p.read_text() for p in outside)
    return [
        qual
        for qual in defined
        if (name := qual.split(".")[1]) not in used | exported and not re.search(rf"\b{re.escape(name)}\b", text)
    ]


def test_every_module_level_name_is_reached():
    assert unreached(SRC, OUTSIDE, set(martkit.__all__)) == []
