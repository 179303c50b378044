"""No dead definitions in ``src/``.

Every function, method and class defined under ``src/`` must be named
somewhere besides its own definition: in ``src/``, the tests, the
benchmarks, the scripts or the examples.  A module-level function or a
class counts wherever its name appears as a word (a call, an attribute, a
string, a comment).  A method counts only where it can be reached: as an
attribute (``.name``) or as a quoted string (``"name"``, how ``getattr``
and the tracer's patch table name it) — a bare word is a module function or
a local of the same name, not a call of the method.  Dunder methods are
exempt: the interpreter calls them.

Three mentions are no use: a package ``__init__``'s ``from ... import`` of
the name (a re-export), an ``__all__`` entry, and any word inside the
definition itself (its docstring, a recursive call).  A name that only its
package exports is public surface without a caller.

A second check applies the same rules without ``tests/``: a definition that
only the tests name is test code living in ``src/``, and there is none.  A
reference body a test needs lives in ``tests/`` as an oracle.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "benchmarks", "scripts", "examples")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
ATTRIBUTE = re.compile(r"\.([A-Za-z_][A-Za-z0-9_]*)")
QUOTED = re.compile(r"""["']([A-Za-z_][A-Za-z0-9_]*)["']""")


def _spans(tree: ast.Module, path: Path) -> list:
    """``(start, end)`` line spans of what no reference counts in: re-exports and ``__all__``."""
    spans = []
    for node in ast.walk(tree):
        reexport = isinstance(node, ast.ImportFrom) and path.name == "__init__.py"
        exported = isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        )
        if reexport or exported:
            spans.append((node.lineno, node.end_lineno))
    return spans


def _mentions(lines: list) -> tuple:
    """``(words, reachable)`` counters of ``lines`` (methods count only if reachable)."""
    text = "\n".join(lines)
    reachable = Counter(ATTRIBUTE.findall(text))
    reachable.update(QUOTED.findall(text))
    return Counter(WORD.findall(text)), reachable


def unreferenced_definitions(searched) -> list:
    """``path::name`` of every ``src/`` definition not named in ``searched``."""
    words: Counter = Counter()
    reachable: Counter = Counter()
    for directory in searched:
        for path in (ROOT / directory).rglob("*.py"):
            if path == Path(__file__).resolve():
                continue  # the guard's own words are no reference
            lines = path.read_text().splitlines()
            for start, end in _spans(ast.parse("\n".join(lines)), path):
                lines[start - 1 : end] = [""] * (end - start + 1)
            file_words, file_reachable = _mentions(lines)
            words.update(file_words)
            reachable.update(file_reachable)
    definitions = []
    methods = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = _mentions(lines[node.lineno - 1 : node.end_lineno])
                definitions.append((node, path.relative_to(ROOT), own))
            if isinstance(node, ast.ClassDef):
                methods.update(
                    id(child)
                    for child in node.body
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
    defined = Counter(node.name for node, _path, _own in definitions)
    unreferenced = []
    for node, path, (own_words, own_reachable) in definitions:
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if id(node) in methods:
            referenced = reachable[name] > own_reachable[name]
        else:
            # every other definition of the name spells it once on its own line
            referenced = words[name] - own_words[name] > defined[name] - 1
        if not referenced:
            unreferenced.append(f"{path.as_posix()}::{name}")
    return unreferenced


def test_every_definition_in_src_is_referenced():
    unreferenced = unreferenced_definitions(SEARCHED)
    assert not unreferenced, "defined but never named:\n" + "\n".join(unreferenced)


def test_no_new_definition_in_src_serves_only_the_tests():
    """No ``src/`` definition is named only from ``tests/``.

    Code kept for the tests alone belongs in ``tests/``: delete it with its
    tests, or move it there as the oracle a test compares against.
    """
    program = tuple(directory for directory in SEARCHED if directory != "tests")
    test_only = sorted(
        set(unreferenced_definitions(program)) - set(unreferenced_definitions(SEARCHED))
    )
    assert not test_only, "src/ definitions named only from tests/:\n" + "\n".join(test_only)
