"""Every name a motifkit module imports is used in that module, every
function, class and method the package defines is used somewhere in it, and
the modules that build corpora do not load NumPy."""

import ast
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import motifkit

PACKAGE = Path(motifkit.__file__).resolve().parent

# Names kept although nothing in the package refers to them, with the reason.
USED_FROM_OUTSIDE = {
    "cli.py:main": "the `motifkit` console script",
    "core.py:Graph.complement": "test reference probes and a perfbench span",
    "generators.py:domset_brute": "perfbench certifies corpus answers with it",
    "generators.py:X3cInstance.has_exact_cover": "perfbench corpus certificate",
    "generators.py:SetSystem.has_hitting_set": "perfbench corpus certificate",
    "generators.py:SetSystem.has_set_cover": "perfbench corpus certificate",
    "generators.py:PartitionedGraph.has_pattern_clique": "perfbench corpus certificate",
}


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # Names listed in __all__ are re-exports.
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_is_detected():
    source = "import os\nfrom typing import List, Set\nx: List[int] = []\n"
    assert unused_imports(source) == [(1, "os"), (2, "Set")]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(PACKAGE)}:{line} {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []


def definitions(tree: ast.Module):
    """Top-level functions and classes, and the non-dunder methods of the
    classes, as (qualified name, node)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def unreferenced(sources: dict):
    """`file:name` of each definition in `sources` (file -> source text)
    whose name appears in no file except inside its own definition.

    A name appears where it is read as a variable or an attribute; import
    lines, `__all__` strings and the `def`/`class` line do not count.
    """
    trees = {path: ast.parse(text) for path, text in sources.items()}
    reads = defaultdict(list)  # name -> [(file, line)]
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reads[node.id].append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads[node.attr].append((path, node.lineno))
    found = []
    for path, tree in trees.items():
        for qualname, node in definitions(tree):
            inside = range(node.lineno, node.end_lineno + 1)
            uses = reads[qualname.rsplit(".", 1)[-1]]
            if all(file == path and line in inside for file, line in uses):
                found.append(f"{path}:{qualname}")
    return sorted(found)


def test_unreferenced_definition_is_detected():
    sources = {
        "a.py": "def used():\n    return 1\n\n\ndef dead():\n    return dead()\n",
        "b.py": (
            "from a import used, dead\n__all__ = ['dead']\n\n\n"
            "class C:\n    def __init__(self):\n        pass\n\n"
            "    def m(self):\n        return used()\n\n\n"
            "def make():\n    return C().m()\n"
        ),
    }
    assert unreferenced(sources) == ["a.py:dead", "b.py:make"]


def test_no_unreferenced_definitions():
    sources = {
        path.relative_to(PACKAGE).as_posix(): path.read_text()
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    found = [name for name in unreferenced(sources) if name not in USED_FROM_OUTSIDE]
    assert not found, "nothing in the package uses " + ", ".join(found)


def test_allowlist_names_existing_definitions():
    defined = {
        f"{path.relative_to(PACKAGE).as_posix()}:{qualname}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for qualname, _ in definitions(ast.parse(path.read_text()))
    }
    assert set(USED_FROM_OUTSIDE) <= defined


def test_core_and_generators_do_not_load_numpy():
    # Importing NumPy takes about 0.1 s, more than building a small corpus.
    code = "import sys, motifkit.core, motifkit.generators; print('numpy' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "False\n"
