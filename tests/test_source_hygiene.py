"""Source hygiene: no module under ``src/repro`` imports a name it never uses.

Package ``__init__`` modules are exempt: their imports are the re-exports.  A
name counts as used when it appears as a ``Name`` node (which covers the base
of an attribute chain such as ``np.asarray``) or inside a string constant that
parses as an expression (string annotations, ``__all__`` entries).  Prose in
docstrings does not count.
"""

import ast
from pathlib import Path
from typing import List, Set

SRC = Path(__file__).resolve().parent.parent / "src"


def _names_in_string(text: str) -> Set[str]:
    try:
        expression = ast.parse(text, mode="eval")
    except SyntaxError:
        return set()
    return {node.id for node in ast.walk(expression) if isinstance(node, ast.Name)}


def unused_imports(path: Path) -> List[str]:
    """``"module:line name"`` for each name ``path`` imports and never uses."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(_names_in_string(node.value))
    module = path.relative_to(SRC).as_posix()
    return [f"{module}:{line} {name}"
            for name, line in sorted(imported.items(), key=lambda item: item[1])
            if name not in used]


def test_no_unused_imports():
    modules = sorted(path for path in (SRC / "repro").rglob("*.py") if path.name != "__init__.py")
    assert modules
    unused = [entry for path in modules for entry in unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)
