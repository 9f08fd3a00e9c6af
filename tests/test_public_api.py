"""Every exported name is real and reached by the package, a script or the benchmark.

A name listed in a module's ``__all__`` must resolve on that module, and it
must be used somewhere in ``src/``, ``scripts/`` or ``perfbench/`` outside
its own definition: as a name, an attribute, or an imported name, read from
the syntax tree (docstring and comment text does not count).  Tests are not
callers; an export only tests reach belongs in ``tests/reference.py``.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import uwbnav

ROOT = Path(__file__).resolve().parent.parent
CALLERS = ("src", "scripts", "perfbench")


def _names(node: ast.AST) -> set[str]:
    """Names, attribute names and imported names referenced anywhere under ``node``."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def _uses() -> set[tuple[str, str | None, str | None]]:
    """``(name, module, definition)`` per reference: the uwbnav module and top-level definition it sits in."""
    uses = set()
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            module = path.stem if path.parent.name == "uwbnav" else None
            for node in ast.parse(path.read_text()).body:
                owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
                uses.update((name, module, owner) for name in _names(node))
    return uses


def test_every_export_resolves_and_has_a_caller():
    modules = {
        info.name: importlib.import_module(f"uwbnav.{info.name}")
        for info in pkgutil.iter_modules(uwbnav.__path__)
    }
    exports = [(m, name) for m, mod in modules.items() for name in getattr(mod, "__all__", ())]
    missing = [f"{m}.{name}" for m, name in exports if not hasattr(modules[m], name)]
    assert not missing, f"__all__ names that do not resolve: {missing}"

    uses = _uses()
    unused = [
        f"{m}.{name}" for m, name in exports
        if not any(used == name and (module, owner) != (m, name) for used, module, owner in uses)
    ]
    assert not unused, f"exported but never used outside its own definition: {unused}"
