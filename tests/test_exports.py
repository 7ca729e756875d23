"""Every exported name resolves, so a deletion cannot leave a stale export,
and every name a submodule exports has a caller outside the tests."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fedrk

MODULES = ["fedrk"] + [f"fedrk.{info.name}" for info in pkgutil.iter_modules(fedrk.__path__)]

SRC = Path(fedrk.__path__[0])
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(module, name)] == []


def _names(node):
    """Every identifier ``node`` reads or writes, as a Name or an Attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _defines(stmt):
    """The names a top-level statement binds: a def, a class or an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {name for target in targets for name in _names(target)}
    return set()


def _uses(tree, own=()):
    """Names used by ``tree``'s top-level statements other than imports, the
    ``__all__`` list and the definitions of the names in ``own``."""
    used = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        defined = _defines(stmt)
        if "__all__" in defined:
            continue
        used.update(set(_names(stmt)) - (defined & set(own)))
    return used


def test_every_public_name_has_a_caller_outside_tests():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    del trees["__init__"]
    perfbench = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        perfbench |= _uses(ast.parse(path.read_text()))

    unused = {}
    for stem in trees:
        exported = getattr(importlib.import_module(f"fedrk.{stem}"), "__all__", [])
        used = set(perfbench)
        for other, tree in trees.items():
            used |= _uses(tree, own=exported if other == stem else ())
        missing = [name for name in exported if name not in used]
        if missing:
            unused[stem] = missing
    report = "\n".join(f"{stem}: {', '.join(names)}" for stem, names in unused.items())
    assert not unused, f"exported names with no caller outside tests:\n{report}"
