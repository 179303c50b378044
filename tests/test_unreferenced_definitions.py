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

def unreferenced_definitions(searched) -> list:
    """``path::name`` of every ``src/`` definition not named in ``searched``."""
    words: Counter = Counter()
    reachable: Counter = Counter()
    for directory in searched:
        for path in (ROOT / directory).rglob("*.py"):
            if path == Path(__file__).resolve():
                continue  # the guard's own words are no reference
            text = path.read_text()
            words.update(WORD.findall(text))
            reachable.update(ATTRIBUTE.findall(text))
            reachable.update(QUOTED.findall(text))
    definitions = []
    methods = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((node, path.relative_to(ROOT)))
            if isinstance(node, ast.ClassDef):
                methods.update(
                    id(child)
                    for child in node.body
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
    defined = Counter(node.name for node, _path in definitions)
    unreferenced = []
    for node, path in definitions:
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if id(node) in methods:
            referenced = reachable[name] > 0
        else:
            referenced = words[name] > defined[name]
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
