"""Every module of ``src/repro`` uses each name it imports.

An AST scan: a name an ``import`` statement binds must be read
somewhere in its module, in code or inside a string annotation (where
the ``TYPE_CHECKING`` imports are read).  Package ``__init__.py``
files re-export by design and are skipped; the deliberate re-exports
of other modules are listed in :data:`REEXPORTS`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Module (relative to ``src/repro``) -> names it imports only so that
#: callers can import them from there.
REEXPORTS = {
    # The runner tests import the unit types from the experiments side.
    "experiments/common.py": {"TableSpec", "Unit", "campaign_payload"},
}


def imported_names(tree):
    """name -> line, for each name an import statement binds."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    found[alias.asname or alias.name] = node.lineno
    return found


def _annotations(node):
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        return [node.annotation]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns]
    return []


def read_names(tree):
    """Every name *tree* reads, string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for annotation in filter(None, _annotations(node)):
            for part in ast.walk(annotation):
                if (isinstance(part, ast.Constant)
                        and isinstance(part.value, str)):
                    names |= read_names(ast.parse(part.value, mode="eval"))
    return names


def unused_imports(source, reexports=frozenset()):
    """``(line, name)`` for each imported name *source* never reads."""
    tree = ast.parse(source)
    read = read_names(tree)
    return sorted((line, name)
                  for name, line in imported_names(tree).items()
                  if name not in read and name not in reexports)


def test_no_module_imports_a_name_it_never_uses():
    unused = {}
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        module = path.relative_to(SRC).as_posix()
        found = unused_imports(path.read_text(encoding="utf-8"),
                               REEXPORTS.get(module, frozenset()))
        if found:
            unused[module] = found
    assert unused == {}


def test_scan_counts_string_annotations_and_flags_the_rest():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import TYPE_CHECKING, Dict, List, Optional\n"
        "if TYPE_CHECKING:\n"
        "    from .trace import TraceBus, Unused\n"
        "trace: Optional['TraceBus'] = None\n"
        "def f(x: 'Dict[str, int]') -> int:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(source) == [(3, "List"), (5, "Unused")]
    assert unused_imports(source, {"List"}) == [(5, "Unused")]
