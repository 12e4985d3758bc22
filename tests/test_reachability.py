"""Every definition in ``src/gridgap`` is reached by the program, not only by tests.

A top-level function or class, or a method or property of a top-level
class (dunders aside), must be referenced somewhere the program runs: in
``src/`` outside its own definition, in ``scripts/``, or in ``perfbench/``.
A top-level name counts as referenced by a name or an attribute of that
spelling; a method or property only by an attribute, so that a local
variable of the same name does not keep it alive. An import, an
``__all__`` entry or a config key spelled the same is not a use.

A method named like an attribute of an array, a string, a container, a
path, a file or an argparse parser (``copy``, ``write``, ``size``) cannot
be told from that attribute by name, so it counts as reached only through
an ``ALLOWED`` entry that says what reaches it.
"""

import argparse
import ast
import io
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gridgap"
PROGRAM = [ROOT / d for d in ("src", "scripts", "perfbench")]

COMMON_TYPES = (
    np.ndarray, str, list, dict, set, tuple, Path,
    io.TextIOWrapper, io.BufferedReader, io.BufferedWriter, argparse.ArgumentParser,
)
COMMON_ATTRIBUTES = frozenset(name for t in COMMON_TYPES for name in dir(t))

# definitions that the name match cannot prove reached, each with what reaches it
ALLOWED = {
    "_Parser.error": "argparse calls it on bad usage, so main() owns the exit code",
    "SearchSpace.size": "the search's no-model message and run_search_experiment.py print it",
    "RunRecorder.write": "main() writes the run manifest through it after each command",
    "InputFile.read_bytes": "readers call .read_bytes() on a Path or an InputFile",
}


def _definitions(src=SRC):
    """(qualified name, is method, file, first line, last line) of each checked definition."""
    for path in sorted(src.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield node.name, False, path, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        qualname = f"{node.name}.{item.name}"
                        yield qualname, True, path, item.lineno, item.end_lineno


def _references(paths):
    """(name, is attribute, file, line) of each name read in ``paths``."""
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                yield node.id, False, path, node.lineno
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                yield node.attr, True, path, node.lineno


def _unreached(src=SRC, program=PROGRAM) -> dict[str, Path]:
    """{qualified name: file} of the definitions in ``src`` that nothing in
    ``program`` (directories) references."""
    paths = [p for d in program for p in sorted(d.rglob("*.py"))]
    by_name = {}
    for name, is_attr, path, line in _references(paths):
        by_name.setdefault(name, []).append((is_attr, path, line))
    unreached = {}
    for qualname, is_method, path, first, last in _definitions(src):
        name = qualname.rpartition(".")[2]
        uses = () if is_method and name in COMMON_ATTRIBUTES else by_name.get(name, ())
        if not any(
            (is_attr or not is_method) and not (where == path and first <= line <= last)
            for is_attr, where, line in uses
        ):
            unreached[qualname] = path.relative_to(src.parent)
    return unreached


def test_every_definition_is_reached_outside_tests():
    unreached = _unreached()
    assert sorted(f"{unreached[n]}::{n}" for n in unreached.keys() - ALLOWED.keys()) == []


def test_allowlist_names_only_live_definitions():
    # a deleted definition takes its entry with it
    defined = {qualname for qualname, *_ in _definitions()}
    assert sorted(ALLOWED.keys() - defined) == []


def test_method_named_like_a_common_attribute_is_not_reached_by_that_attribute(tmp_path):
    # arr.copy() and fh.write() call ndarray's and the file's methods, not Table's
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "table.py").write_text(
        "class Table:\n"
        "    def copy(self):\n        return Table()\n\n"
        "    def write(self, fh):\n        fh.write('table')\n\n"
        "    def rows(self):\n        return []\n"
    )
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "main.py").write_text(
        "import numpy as np\n"
        "from pkg.table import Table\n\n"
        "arr = np.zeros(3).copy()\n"
        "with open('out.txt', 'w') as fh:\n    fh.write(str(Table().rows()))\n"
    )
    unreached = _unreached(tmp_path / "pkg", [tmp_path / "pkg", tmp_path / "run"])
    assert sorted(unreached) == ["Table.copy", "Table.write"]
