"""No dead definitions in ``src/``.

Every function, method and class defined under ``src/`` must be named
somewhere besides its own definition: in ``src/``, the tests, the
benchmarks, the scripts or the examples.  A name counts wherever it appears
as a word (a call, an attribute, a string, a comment), so the check never
calls something dead that is only reached by ``getattr`` or a patch table.
Dunder methods are exempt: the interpreter calls them.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "benchmarks", "scripts", "examples")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def test_every_definition_in_src_is_referenced():
    words: Counter = Counter()
    for directory in SEARCHED:
        for path in (ROOT / directory).rglob("*.py"):
            words.update(WORD.findall(path.read_text()))
    definitions = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((node.name, path.relative_to(ROOT), node.lineno))
    defined = Counter(name for name, _path, _line in definitions)
    unreferenced = [
        f"{path}:{line} {name}"
        for name, path, line in definitions
        if not (name.startswith("__") and name.endswith("__"))
        and words[name] <= defined[name]
    ]
    assert not unreferenced, "defined but never named:\n" + "\n".join(unreferenced)
