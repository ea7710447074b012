"""Source hygiene: no dead top-level imports, private names or defaulted
parameters, a public API that resolves, and no unbounded cache.

The checks read the package with the stdlib `ast` module, except the cache
check, which asks each imported module-level cache for its maxsize.  An
import that a module never uses is either dead code or a silent
re-export; `__init__.py` is the one module whose job is re-exporting, so
it is checked through `__all__` instead.  A private module-level name
that no module reads is dead, and so is a parameter with a default that
its function never reads: every caller passes a value that goes nowhere.
"""

import ast
import importlib
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


def _modules() -> dict:
    """{file name: parsed module} for every module of the package."""
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _read_names(tree: ast.AST) -> set:
    """Names the code reads: loaded names, attributes and imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _private_top_level(tree: ast.Module) -> dict:
    """{name: line} for the module's private top-level definitions."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for n in node.targets for t in ast.walk(n)
                       if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node.lineno
    return out


def test_no_unused_top_level_imports():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue
        used = _used_names(tree)
        unused += [f"{name}:{line} {imported}"
                   for imported, line in _imported_names(tree).items()
                   if imported not in used]
    assert not unused, unused


def test_no_unread_private_names():
    modules = _modules()
    read = set().union(*map(_read_names, modules.values()))
    unread = [f"{name}:{line} {private}"
              for name, tree in modules.items()
              for private, line in _private_top_level(tree).items()
              if private not in read]
    assert not unread, unread


def test_no_unread_defaulted_parameters():
    unread = []
    for name, tree in _modules().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            args = fn.args.args
            defaulted = args[len(args) - len(fn.args.defaults):]
            read = _read_names(ast.Module(body=fn.body, type_ignores=[]))
            unread += [f"{name}:{fn.lineno} {fn.name}({a.arg})"
                       for a in defaulted if a.arg not in read]
    assert not unread, unread


def test_public_names_resolve():
    missing = [n for n in greenwalk.__all__ if not hasattr(greenwalk, n)]
    assert not missing, missing


def test_every_cache_is_bounded():
    """A cache without a maxsize grows for the life of the process."""
    sizes = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"greenwalk.{path.stem}")
        for name, obj in vars(module).items():
            if (hasattr(obj, "cache_parameters")
                    and obj.__module__ == module.__name__):
                sizes[f"{path.stem}.{name}"] = (
                    obj.cache_parameters()["maxsize"])
    assert {"conformal._kms_sides", "conformal._kms_leaves",
            "conformal._cylinder_pieces", "conformal._cylinder_leaves",
            "measures._letters"} <= set(sizes)
    assert None not in sizes.values(), sizes
