"""Documentation consistency checker (run by the CI docs job).

Six checks over the repository's Markdown:

1. **Links resolve.**  Every intra-repo link target (relative path,
   ``#anchor`` stripped) must exist on disk.  External links
   (``http(s)://``, ``mailto:``) and pure-anchor links are skipped.
2. **CLI references are real.**  Every ``repro <subcommand>`` named in
   a code span or fenced code block must be a subcommand that
   ``repro.cli.build_parser`` actually registers — docs can't drift
   ahead of (or behind) the CLI.  Every ``--flag`` written on the same
   command line must be an option that subcommand actually takes, so a
   renamed or removed flag can't linger in the docs.
3. **The docs index covers every package.**  Every top-level package
   under ``src/repro/`` must be mentioned as ``repro.<pkg>`` in
   ``docs/README.md``, so a new subsystem cannot ship without an
   entry point in the documentation.
4. **Documented env vars exist.**  Every ``REPRO_*`` token the docs
   mention must appear somewhere in ``src/**/*.py`` — a renamed or
   removed knob can't linger in the docs.
5. **Documented ``repro.*`` names resolve.**  Every dotted
   ``repro.<...>`` name in a code span or fenced code block must
   import as a module or be reached by ``getattr`` from the longest
   prefix that imports — a moved or deleted module, class or function
   can't linger in the docs.
6. **Catalogued names exist.**  Every backticked name (an identifier:
   a metric, field or event kind) in the first column of a table row
   in ``docs/OBSERVABILITY.md`` must be the value of some string
   literal in ``src/**/*.py`` — a metric the program stopped emitting
   can't linger in the catalog.

Usage::

    python tools/check_docs.py          # check, exit 1 on any problem
"""

from __future__ import annotations

import ast
import importlib
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

#: Markdown that documents the project (working notes like ISSUE.md,
#: SNIPPETS.md and the paper dumps are deliberately out of scope).
DOC_FILES = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
)
DOC_DIRS = ("docs",)
#: The page whose tables catalogue metric, field and event names.
CATALOG = os.path.join("docs", "OBSERVABILITY.md")

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE = re.compile(r"```.*?```", re.DOTALL)
_CODE_SPAN = re.compile(r"`[^`]+`")
_CLI_REF = re.compile(r"(?:python -m\s+)?\brepro\s+([a-z][a-z-]*)")
_FLAG = re.compile(r"(--[a-z][a-z-]*)")
_ENV_VAR = re.compile(r"\bREPRO_[A-Z0-9_]+")
_REPRO_NAME = re.compile(r"(?<![\w.])repro(?:\.\w+)+")
_CATALOGUED = re.compile(r"`([A-Za-z_]\w*)`")


def doc_paths() -> list:
    paths = [os.path.join(REPO_ROOT, name) for name in DOC_FILES]
    for dirname in DOC_DIRS:
        root = os.path.join(REPO_ROOT, dirname)
        for entry in sorted(os.listdir(root)):
            if entry.endswith(".md"):
                paths.append(os.path.join(root, entry))
    return [path for path in paths if os.path.exists(path)]


def check_links(path: str, text: str) -> list:
    """Relative link targets that don't exist, as error strings."""
    errors = []
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        target = target.split("#", 1)[0]
        if not target:
            continue
        resolved = os.path.normpath(
            os.path.join(os.path.dirname(path), target))
        if not os.path.exists(resolved):
            line = text[:match.start()].count("\n") + 1
            errors.append(f"{os.path.relpath(path, REPO_ROOT)}:{line}: "
                          f"broken link -> {target}")
    return errors


def cli_subcommands() -> dict:
    """``subcommand -> set of option strings``, introspected."""
    from repro.cli import build_parser

    parser = build_parser()
    for action in parser._subparsers._group_actions:
        return {name: {opt for sub_action in sub._actions
                       for opt in sub_action.option_strings}
                for name, sub in action.choices.items()}
    raise SystemExit("repro.cli.build_parser() has no subparsers")


def check_cli_refs(path: str, text: str, known: dict) -> list:
    """``repro <word> [--flags]`` mentions that don't match cli.py.

    Flags are checked per command line: a ``--flag`` counts against
    the ``repro <subcommand>`` it shares a (continuation-joined) line
    with, so prose mentioning a flag in isolation is not flagged.
    """
    errors = []
    rel = os.path.relpath(path, REPO_ROOT)
    snippets = _FENCE.findall(text) + _CODE_SPAN.findall(text)
    for snippet in snippets:
        for line in snippet.replace("\\\n", " ").splitlines():
            match = _CLI_REF.search(line)
            if not match:
                continue
            word = match.group(1)
            if word not in known:
                errors.append(
                    f"{rel}: documented subcommand `repro {word}` "
                    f"does not exist in cli.py "
                    f"(known: {', '.join(sorted(known))})")
                continue
            for flag in _FLAG.findall(line[match.end():]):
                if flag not in known[word]:
                    errors.append(
                        f"{rel}: `repro {word}` does not take "
                        f"{flag} (cli.py has: "
                        f"{', '.join(sorted(known[word]))})")
    return errors


def repro_packages() -> list:
    """Top-level packages under ``src/repro/`` (have ``__init__.py``)."""
    root = os.path.join(REPO_ROOT, "src", "repro")
    return sorted(
        entry for entry in os.listdir(root)
        if os.path.isfile(os.path.join(root, entry, "__init__.py")))


def check_package_index() -> list:
    """Packages ``docs/README.md`` forgot to mention."""
    index_path = os.path.join(REPO_ROOT, "docs", "README.md")
    with open(index_path, "r", encoding="utf-8") as fh:
        index = fh.read()
    return [
        f"docs/README.md: package `repro.{pkg}` (src/repro/{pkg}/) "
        f"is not mentioned in the docs index"
        for pkg in repro_packages() if f"repro.{pkg}" not in index]


def _source_texts():
    """The text of every ``src/**/*.py`` file."""
    for dirpath, _dirnames, filenames in os.walk(
            os.path.join(REPO_ROOT, "src")):
        for filename in filenames:
            if filename.endswith(".py"):
                with open(os.path.join(dirpath, filename), "r",
                          encoding="utf-8") as fh:
                    yield fh.read()


def source_env_vars() -> set:
    """Every ``REPRO_*`` token appearing in ``src/**/*.py``."""
    found = set()
    for source in _source_texts():
        found.update(_ENV_VAR.findall(source))
    return found


def source_string_literals() -> set:
    """The value of every string literal in ``src/**/*.py``."""
    return {node.value for source in _source_texts()
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def check_env_vars(path: str, text: str, known: set) -> list:
    """Documented ``REPRO_*`` variables that no source file defines."""
    rel = os.path.relpath(path, REPO_ROOT)
    errors = []
    for match in _ENV_VAR.finditer(text):
        if match.group(0) not in known:
            line = text[:match.start()].count("\n") + 1
            errors.append(f"{rel}:{line}: documented env var "
                          f"{match.group(0)} does not appear in src/")
    return errors


def resolves(name: str) -> bool:
    """Does dotted *name* import, or reach an attribute by ``getattr``
    from its longest importable prefix?"""
    parts = name.split(".")
    for end in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:end]))
        except ModuleNotFoundError:
            continue
        for attr in parts[end:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def _backticked(text: str):
    """``(offset, snippet)`` for every fenced block and code span."""
    for match in _FENCE.finditer(text):
        yield match.start(), match.group(0)
    # Blank the fences out (keeping offsets) so spans skip them.
    outside = _FENCE.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)),
                         text)
    for match in _CODE_SPAN.finditer(outside):
        yield match.start(), match.group(0)


def check_repro_names(path: str, text: str) -> list:
    """Documented dotted ``repro.*`` names that do not resolve."""
    rel = os.path.relpath(path, REPO_ROOT)
    errors = []
    for offset, snippet in _backticked(text):
        for match in _REPRO_NAME.finditer(snippet):
            if not resolves(match.group(0)):
                line = text[:offset + match.start()].count("\n") + 1
                errors.append(f"{rel}:{line}: documented name "
                              f"`{match.group(0)}` is neither a module "
                              f"nor an attribute of one")
    return errors


def check_catalog(path: str, text: str, literals: set) -> list:
    """Backticked names in a table row's first column that no string
    literal in ``src/`` spells."""
    rel = os.path.relpath(path, REPO_ROOT)
    errors = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.startswith("|"):
            continue
        for name in _CATALOGUED.findall(line.split("|")[1]):
            if name not in literals:
                errors.append(f"{rel}:{number}: catalogued name `{name}` "
                              f"is no string literal in src/")
    return errors


def main() -> int:
    known = cli_subcommands()
    env_known = source_env_vars()
    errors = check_package_index()
    paths = doc_paths()
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        errors.extend(check_links(path, text))
        errors.extend(check_cli_refs(path, text, known))
        errors.extend(check_env_vars(path, text, env_known))
        errors.extend(check_repro_names(path, text))
        if os.path.relpath(path, REPO_ROOT) == CATALOG:
            errors.extend(check_catalog(path, text,
                                        source_string_literals()))
    for error in errors:
        print(error)
    if errors:
        print(f"FAIL: {len(errors)} documentation problem(s) "
              f"in {len(paths)} file(s)")
        return 1
    print(f"ok: {len(paths)} Markdown file(s), all links resolve, "
          f"all CLI references and flags exist "
          f"({', '.join(sorted(known))}), all {len(repro_packages())} "
          f"packages indexed, all documented REPRO_* env vars, "
          f"repro.* names and catalogued names exist")
    return 0


if __name__ == "__main__":
    sys.exit(main())
