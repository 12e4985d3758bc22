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

Each parameter with a default must be passed, by position or by keyword,
by some call in the program to a function of that name outside the
function itself; a call with ``*args`` or ``**kwargs`` counts as passing
every parameter. A default that no call overrides is a constant, not an
option.
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
    """(qualified name, is method, file, node) of each checked definition."""
    for path in sorted(src.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield node.name, False, path, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        yield f"{node.name}.{item.name}", True, path, item


def _references(paths):
    """(name, is attribute, file, line) of each name read in ``paths``."""
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                yield node.id, False, path, node.lineno
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                yield node.attr, True, path, node.lineno


def _inside(node, path, where, line) -> bool:
    """Whether ``line`` of file ``where`` lies in definition ``node`` of file ``path``."""
    return where == path and node.lineno <= line <= node.end_lineno


def _unreached(src=SRC, program=PROGRAM) -> dict[str, Path]:
    """{qualified name: file} of the definitions in ``src`` that nothing in
    ``program`` (directories) references."""
    paths = [p for d in program for p in sorted(d.rglob("*.py"))]
    by_name = {}
    for name, is_attr, path, line in _references(paths):
        by_name.setdefault(name, []).append((is_attr, path, line))
    unreached = {}
    for qualname, is_method, path, node in _definitions(src):
        name = qualname.rpartition(".")[2]
        uses = () if is_method and name in COMMON_ATTRIBUTES else by_name.get(name, ())
        if not any(
            (is_attr or not is_method) and not _inside(node, path, where, line)
            for is_attr, where, line in uses
        ):
            unreached[qualname] = path.relative_to(src.parent)
    return unreached


def _defaulted(node, is_method):
    """(parameter, call position or None) of each parameter of ``node`` with a default."""
    args = node.args
    positional = args.posonlyargs + args.args
    if is_method:
        positional = positional[1:]  # self or cls: a call's first argument is the next one
    first = len(positional) - len(args.defaults)
    for position, arg in enumerate(positional[first:], start=first):
        yield arg.arg, position
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _calls(paths):
    """(called name, file, line, positional count, keywords, has star) of each call in ``paths``."""
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                keywords = {k.arg for k in node.keywords}
                star = None in keywords or any(isinstance(a, ast.Starred) for a in node.args)
                yield name, path, node.lineno, len(node.args), keywords, star


def _unpassed(src=SRC, program=PROGRAM) -> list[str]:
    """``qualified name(parameter)`` of each defaulted parameter in ``src`` that
    no call in ``program`` (directories) passes."""
    paths = [p for d in program for p in sorted(d.rglob("*.py"))]
    by_name = {}
    for name, *call in _calls(paths):
        by_name.setdefault(name, []).append(call)
    unpassed = []
    for qualname, is_method, path, node in _definitions(src):
        if isinstance(node, ast.ClassDef):
            continue
        calls = [
            (count, keywords, star)
            for where, line, count, keywords, star in by_name.get(node.name, ())
            if not _inside(node, path, where, line)
        ]
        for param, position in _defaulted(node, is_method):
            if not any(
                star or param in keywords or (position is not None and position < count)
                for count, keywords, star in calls
            ):
                unpassed.append(f"{qualname}({param})")
    return unpassed


def test_every_definition_is_reached_outside_tests():
    unreached = _unreached()
    assert sorted(f"{unreached[n]}::{n}" for n in unreached.keys() - ALLOWED.keys()) == []


def test_every_default_is_overridden_by_some_call():
    assert _unpassed() == []


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


def test_default_that_no_call_passes_is_reported(tmp_path):
    # one call passes scale by keyword and another limit by position; nothing passes tol or
    # round, and fit's own recursive call does not count
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "fit.py").write_text(
        "def fit(x, scale=1.0, tol=1e-8):\n    return fit(x, scale, tol) if x else x\n\n\n"
        "class Model:\n    def predict(self, x, limit=10, *, round=False):\n        return x\n\n"
        "    def score(self, x, weight=1.0):\n        return x\n"
    )
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "main.py").write_text(
        "from pkg.fit import Model, fit\n\n"
        "fit([1.0], scale=2.0)\n"
        "Model().predict([1.0], 5)\n"
        "options = {'weight': 2.0}\n"
        "Model().score([1.0], **options)\n"
    )
    unpassed = _unpassed(tmp_path / "pkg", [tmp_path / "pkg", tmp_path / "run"])
    assert unpassed == ["fit(tol)", "Model.predict(round)"]
