"""Source hygiene: no dead top-level imports, and a public API that resolves.

Both checks read the package with the stdlib `ast` module only.  An
import that a module never uses is either dead code or a silent
re-export; `__init__.py` is the one module whose job is re-exporting, so
it is checked through `__all__` instead.
"""

import ast
from pathlib import Path

import greenwalk

PACKAGE = Path(greenwalk.__file__).resolve().parent


def _imported_names(tree: ast.Module) -> dict:
    """{bound name: line} for the module's top-level imports."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out[name] = node.lineno
    return out


def _used_names(tree: ast.Module) -> set:
    """Every name the module reads or binds; a name used only inside a
    quoted annotation counts as unused."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_unused_top_level_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used_names(tree)
        unused += [f"{path.name}:{line} {name}"
                   for name, line in _imported_names(tree).items()
                   if name not in used]
    assert not unused, unused


def test_public_names_resolve():
    missing = [n for n in greenwalk.__all__ if not hasattr(greenwalk, n)]
    assert not missing, missing
