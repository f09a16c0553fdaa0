"""Every module-level function and class of ``src/repro`` has a reader.

A textual scan: each name a module of ``src/repro`` binds with a
top-level ``def`` or ``class`` must occur somewhere in the Python files
of the repository's code directories beyond its own definition line —
a call, an import, a test, a benchmark or a string that names it.
Package ``__init__.py`` files only re-export, so a name they list is
not a reader.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: The directories whose Python files may read a definition.
READER_DIRS = ("src", "tests", "benchmarks", "examples", "e2ebench", "tools")

PACKAGE = "src/repro/"

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _is_reexport(path):
    return path.startswith(PACKAGE) and path.endswith("__init__.py")


def dead_definitions(sources):
    """``module:name`` for each top-level def/class nothing else names.

    *sources* maps repository-relative paths to file text.  A name
    defined at top level in several modules is live while the files
    hold more occurrences of it than definition lines.
    """
    sites = {}
    words = Counter()
    for path, text in sources.items():
        if _is_reexport(path):
            continue
        if path.startswith(PACKAGE):
            for node in ast.parse(text).body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    sites.setdefault(node.name, []).append(path)
        words.update(_WORD.findall(text))
    return sorted(f"{path}:{name}"
                  for name, paths in sites.items()
                  if words[name] <= len(paths)
                  for path in paths)


def repository_sources(root=ROOT):
    return {path.relative_to(root).as_posix(): path.read_text(encoding="utf-8")
            for directory in READER_DIRS
            for path in sorted((root / directory).rglob("*.py"))}


def test_every_definition_has_a_reader():
    assert dead_definitions(repository_sources()) == []


def test_scan_ignores_definition_lines_and_reexports():
    sources = {
        "src/repro/pkg/__init__.py": "from .mod import helper, orphan\n",
        "src/repro/pkg/mod.py": (
            "def helper():\n"
            "    return 1\n"
            "def orphan():\n"
            "    return helper()\n"
            "class Twin:\n"
            "    pass\n"
        ),
        "src/repro/pkg/other.py": "class Twin:\n    pass\n",
        "tests/test_mod.py": "# Twin is named here once\n",
    }
    assert dead_definitions(sources) == ["src/repro/pkg/mod.py:orphan"]
