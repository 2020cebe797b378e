"""The package holds only code the package runs, and only data it reads.

A top-level function or class, or a method that is not a dunder, is live when
code outside it references its name, as a ``Name`` or an ``Attribute``. Code
inside a dead definition does not count, so the scan repeats until no more
definitions die: a helper that only dead code calls is dead too. Names are
matched as bare strings, so a definition whose name is also some attribute
elsewhere always reads as live; the scan can miss dead code but never
reports live code as dead.
"""

import ast
from collections import defaultdict
from pathlib import Path

import conetrack
from conetrack.config import builtin_config_names, load_config

PACKAGE = Path(conetrack.__file__).resolve().parent


def _definitions(tree: ast.Module) -> list:
    """Top-level functions and classes, and the non-dunder methods of those classes."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append(node)
        if isinstance(node, ast.ClassDef):
            found += [
                item
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not (item.name.startswith("__") and item.name.endswith("__"))
            ]
    return found


def unreferenced_definitions(package: Path = PACKAGE) -> list[str]:
    """``module:name`` of every definition that no live code outside it references."""
    definitions = []
    references = defaultdict(list)  # name -> the ids of the definitions enclosing each reference to it
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        nodes = _definitions(tree)
        definitions += [(f"{path.stem}:{node.name}", id(node), node.name) for node in nodes]
        defined = {id(node) for node in nodes}
        stack = [(tree, ())]
        while stack:
            node, owners = stack.pop()
            if isinstance(node, ast.Name):
                references[node.id].append(owners)
            elif isinstance(node, ast.Attribute):
                references[node.attr].append(owners)
            for child in ast.iter_child_nodes(node):
                stack.append((child, owners + (id(child),) if id(child) in defined else owners))
    dead: set[int] = set()
    while True:
        newly_dead = {
            key
            for _, key, name in definitions
            if key not in dead and all(key in owners or dead.intersection(owners) for owners in references[name])
        }
        if not newly_dead:
            return sorted(label for label, key, _ in definitions if key in dead)
        dead |= newly_dead


def test_every_definition_is_referenced_by_package_code():
    assert unreferenced_definitions() == []


def private_imports(package: Path = PACKAGE) -> list[str]:
    """``module:name`` of every underscore name one package module imports from another."""
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            internal = isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("conetrack"))
            if internal:
                found += [f"{path.stem}:{alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_of_another():
    assert private_imports() == []


def test_every_shipped_config_file_is_a_builtin_scenario():
    configs = PACKAGE / "configs"
    shipped = sorted(path.relative_to(configs).as_posix() for path in configs.rglob("*") if path.is_file())
    assert shipped == sorted(f"{name}.json" for name in builtin_config_names())
    for name in builtin_config_names():
        load_config(name)
