"""Every name a motifkit module imports is used in that module, every
function, class and method the package defines is used somewhere in it, and
the modules that build corpora, and a one-shot command on a file below the
twin reader's edge count, do not load NumPy."""

import ast
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import motifkit
from motifkit import cli
from motifkit.core import format_instance
from motifkit.csct import solve_csct
from motifkit.generators import SetSystem, gen_hitting_set_split
from motifkit.solvers import dist_clique

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


@pytest.mark.parametrize(
    "algo, cover",
    [
        ("maxleaf", None),
        ("vc", None),
        ("vcc", ("--vertex-clique-cover", "0 1\n2 3\n")),
        ("ecc", ("--edge-clique-cover", "0 1\n1 2\n2 3\n")),
    ],
)
def test_a_small_solve_does_not_load_numpy(tmp_path, algo, cover):
    # A file below `TWIN_READER_MIN_EDGES` edges goes to the line parser,
    # and the block reader is the only user of NumPy.
    instance = tmp_path / "path.gm"
    instance.write_text(
        "p gm 4 3\ne 0 1\ne 1 2\ne 2 3\nc 0 0\nc 1 1\nc 2 0\nc 3 1\n"
        "m 0 2\nm 1 1\n"
    )
    argv = ["solve", str(instance), "--algo", algo]
    if cover:
        option, text = cover
        (tmp_path / "cover.txt").write_text(text)
        argv += [option, str(tmp_path / "cover.txt")]
    assert exit_code_and_numpy_loaded(argv) == "0 False"


def clique_hs_300(tmp_path):
    """A file shaped like the 300-edge clique-hs files of the auto-mixed
    corpus: a 24-vertex element clique and eight sets of three."""
    sets = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11),
            (0, 3, 6), (1, 4, 9), (2, 7, 10), (5, 8, 11)]
    inst = gen_hitting_set_split(SetSystem(24, tuple(sets), 4)).instance
    assert inst.graph.num_edges() == 300
    instance = tmp_path / "clique-hs.gm"
    instance.write_text(format_instance(inst))
    return instance


SOLVES_WITH_CSCT = [["solve"], ["solve", "--algo", "dist-clique"]]


@pytest.mark.parametrize(
    "command",
    [["solve", "--algo", "maxleaf"], ["solve", "--algo", "vc"], ["params", "--limit", "3"],
     *SOLVES_WITH_CSCT],
    ids=["solve-maxleaf", "solve-vc", "params-limit-3", "solve-auto", "solve-dist-clique"],
)
def test_a_300_edge_command_does_not_load_numpy(tmp_path, command):
    argv = [command[0], str(clique_hs_300(tmp_path)), *command[1:]]
    assert exit_code_and_numpy_loaded(argv) == "0 False"


@pytest.mark.parametrize("command", SOLVES_WITH_CSCT, ids=["solve-auto", "solve-dist-clique"])
def test_the_300_edge_solves_run_the_set_cover_dp(tmp_path, monkeypatch, command):
    # The NumPy check above covers the set-cover DP only if these solves reach it.
    calls = []

    def counted(inst):
        calls.append(inst.n)
        return solve_csct(inst)

    monkeypatch.setattr(dist_clique, "solve_csct", counted)
    assert cli.main([command[0], str(clique_hs_300(tmp_path)), *command[1:]]) == 0
    assert calls


def exit_code_and_numpy_loaded(argv):
    """`main(argv)`'s exit code and whether NumPy was loaded, in a fresh
    process, as one line."""
    code = (
        "import sys\nfrom motifkit import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(code, 'numpy' in sys.modules)"
    )
    path = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.splitlines()[-1]
