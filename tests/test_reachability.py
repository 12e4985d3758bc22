"""Every definition in ``src/gridgap`` is reached by the program, not only by tests.

"The program" is ``src/``, ``scripts/`` and ``perfbench/``. Five rules:

1. A top-level function or class, or a method or property of a top-level
   class (dunders aside), must be referenced somewhere the program runs,
   outside its own definition. A top-level name counts as referenced by a
   name or an attribute of that spelling; a method or property only by an
   attribute, so that a local variable of the same name does not keep it
   alive. An import, an ``__all__`` entry or a config key spelled the same
   is not a use.
2. A method named like an attribute of an array, a string, a container, a
   path, a file or an argparse parser (``copy``, ``write``, ``size``)
   cannot be told from that attribute by name, so it counts as reached
   only through an ``ALLOWED`` entry that says what reaches it.
3. Each parameter with a default, and each dataclass field with a plain
   (not ``field(...)``) default, must be passed, by position or by
   keyword, by some call in the program: a call to a function of that
   name outside the function itself, or a construction of the class by
   its name or by ``cls(...)`` in one of its classmethods. A call with
   ``*args`` or ``**kwargs`` counts as passing every parameter. A default
   that no call overrides is a constant, not an option.
4. Each field of a dataclass must be read as an attribute of that name
   somewhere in the program, its own class's methods included. A field
   that is only constructed, or read only by tests, is a result nobody
   uses.

Rules 3 to 5 take a ``NamedTuple`` class for a dataclass: its fields are
constructor parameters and attributes in the same way.
5. No parameter or field may be passed as one and the same scalar literal
   (``"load"``, ``True``, ``-1``) by every call that reaches it, unless
   ``SINGLE_VALUED`` says why it stays. A value no call ever varies is a
   constant, not an option."""

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

# parameters that every call passes as one literal, each with why it stays
SINGLE_VALUED = {
    "run_diagnostics(cointegration_ok)": (
        "perfbench/workloads.py passes it, so it goes with the next change to the benchmark"
    ),
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


def _parameters(node, is_method):
    """(parameter, call position or None, has default) of each parameter of ``node``."""
    args = node.args
    positional = args.posonlyargs + args.args
    if is_method:
        positional = positional[1:]  # self or cls: a call's first argument is the next one
    first = len(positional) - len(args.defaults)
    for position, arg in enumerate(positional):
        yield arg.arg, position, position >= first
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        yield arg.arg, None, default is not None


def _is_dataclass(node) -> bool:
    """Whether ``node`` is a dataclass or a ``NamedTuple`` class."""
    return isinstance(node, ast.ClassDef) and (
        any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list)
        or any(ast.unparse(b).endswith("NamedTuple") for b in node.bases)
    )


def _field_nodes(node):
    return [
        item for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]


def _field_parameters(node):
    """(field, position, has a plain default) of each field of dataclass ``node``;
    a ``field(...)`` default does not count as plain."""
    for position, item in enumerate(_field_nodes(node)):
        value = item.value
        plain = value is not None and not (
            isinstance(value, ast.Call) and ast.unparse(value.func).endswith("field")
        )
        yield item.target.id, position, plain


def _calls(paths):
    """(called name, file, call node) of each call in ``paths`` by name or attribute."""
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                yield name, path, node


STAR = object()  # a *args or **kwargs argument: it may pass any parameter


def _argument(call, param, position):
    """The node ``call`` passes as ``param`` (at ``position``, None if keyword-only),
    ``STAR``, or None if it passes nothing."""
    if any(k.arg is None for k in call.keywords) or any(
        isinstance(a, ast.Starred) for a in call.args
    ):
        return STAR
    by_keyword = {k.arg: k.value for k in call.keywords}
    if param in by_keyword:
        return by_keyword[param]
    if position is not None and position < len(call.args):
        return call.args[position]
    return None


def _call_sites(src, program):
    """(qualified name, parameters, calls) of each function, method and dataclass
    in ``src``, with the calls in ``program`` (directories) that reach it.

    A function's own calls to its name do not count. A dataclass is called by
    its name anywhere, and by ``cls(...)`` in its own classmethods."""
    paths = [p for d in program for p in sorted(d.rglob("*.py"))]
    by_name = {}
    for name, path, call in _calls(paths):
        by_name.setdefault(name, []).append((path, call))
    for qualname, is_method, path, node in _definitions(src):
        if isinstance(node, ast.ClassDef):
            if not _is_dataclass(node):
                continue
            classmethods = [
                item for item in node.body
                if isinstance(item, ast.FunctionDef)
                and any(ast.unparse(d) == "classmethod" for d in item.decorator_list)
            ]
            calls = [call for _, call in by_name.get(node.name, ())] + [
                call for where, call in by_name.get("cls", ())
                if any(_inside(m, path, where, call.lineno) for m in classmethods)
            ]
            yield qualname, list(_field_parameters(node)), calls
        else:
            calls = [
                call for where, call in by_name.get(node.name, ())
                if not _inside(node, path, where, call.lineno)
            ]
            yield qualname, list(_parameters(node, is_method)), calls


def _unpassed(src=SRC, program=PROGRAM) -> list[str]:
    """``qualified name(parameter)`` of each defaulted parameter or dataclass
    field in ``src`` that no call in ``program`` (directories) passes."""
    return [
        f"{qualname}({param})"
        for qualname, params, calls in _call_sites(src, program)
        for param, position, default in params
        if default and all(_argument(call, param, position) is None for call in calls)
    ]


def _literal(node) -> str | None:
    """The source of ``node`` if it is a scalar literal (``"load"``, ``True``, ``-1``)."""
    inner = node.operand if isinstance(node, ast.UnaryOp) else node
    return ast.unparse(node) if isinstance(inner, ast.Constant) else None


def _single_valued(src=SRC, program=PROGRAM) -> list[str]:
    """``qualified name(parameter)`` of each parameter or dataclass field in ``src``
    that every call in ``program`` (directories) passes as one and the same
    scalar literal."""
    return [
        f"{qualname}({param})"
        for qualname, params, calls in _call_sites(src, program)
        if calls
        for param, position, _ in params
        if len(passed := {_literal(_argument(call, param, position)) for call in calls}) == 1
        and None not in passed
    ]


def _fields(src=SRC):
    """(qualified name, file) of each field of each top-level dataclass in ``src``."""
    for path in sorted(src.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if _is_dataclass(node):
                for item in _field_nodes(node):
                    yield f"{node.name}.{item.target.id}", path


def _unread(src=SRC, program=PROGRAM) -> list[str]:
    """``file::qualified name`` of each dataclass field in ``src`` that nothing
    in ``program`` (directories) reads as an attribute."""
    paths = [p for d in program for p in sorted(d.rglob("*.py"))]
    read = {name for name, is_attr, *_ in _references(paths) if is_attr}
    return [
        f"{path.relative_to(src.parent)}::{qualname}"
        for qualname, path in _fields(src)
        if qualname.rpartition(".")[2] not in read
    ]


def test_every_definition_is_reached_outside_tests():
    unreached = _unreached()
    assert sorted(f"{unreached[n]}::{n}" for n in unreached.keys() - ALLOWED.keys()) == []


def test_every_default_is_overridden_by_some_call():
    assert _unpassed() == []


def test_no_parameter_gets_one_literal_from_every_call():
    # an entry whose parameter is gone or varies again is stale
    assert sorted(_single_valued()) == sorted(SINGLE_VALUED)


def test_every_dataclass_field_is_read_by_the_program():
    assert _unread() == []


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


def test_field_that_only_tests_read_is_reported(tmp_path):
    # nobs is read only from a test, width only by its own class's property, and
    # label never (a store is not a read); Plain is no dataclass, so hidden is no field
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "fit.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\nclass Fit:\n    stat: float\n    nobs: int\n"
        "    width: int\n    label: str = ''\n\n"
        "    @property\n    def wide(self):\n        return self.width > 1\n\n\n"
        "class Plain:\n    hidden: int = 0\n"
    )
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "main.py").write_text(
        "from pkg.fit import Fit\n\n"
        "fit = Fit(1.0, 10, 2)\n"
        "fit.label = 'x'\n"
        "print(fit.stat, fit.wide)\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_fit.py").write_text(
        "from pkg.fit import Fit\n\n\ndef test_nobs():\n    assert Fit(1.0, 10, 2).nobs == 10\n"
    )
    unread = _unread(tmp_path / "pkg", [tmp_path / "pkg", tmp_path / "run"])
    assert unread == ["pkg/fit.py::Fit.nobs", "pkg/fit.py::Fit.label"]


def test_named_tuple_fields_are_checked_like_a_dataclass(tmp_path):
    # Grid is a NamedTuple: nothing reads its scale, and no construction passes its
    # label; Plain's base is no NamedTuple, so its hidden is no field
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "grid.py").write_text(
        "from typing import NamedTuple\n\n\n"
        "class Grid(NamedTuple):\n    cells: list\n    scale: float\n    label: str = ''\n\n\n"
        "class Plain(tuple):\n    hidden: int = 0\n"
    )
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "main.py").write_text(
        "from pkg.grid import Grid\n\ngrid = Grid([1.0], 2.0)\nprint(grid.cells, grid.label)\n"
    )
    program = [tmp_path / "pkg", tmp_path / "run"]
    assert _unread(tmp_path / "pkg", program) == ["pkg/grid.py::Grid.scale"]
    assert _unpassed(tmp_path / "pkg", program) == ["Grid(label)"]


def test_field_default_that_no_construction_passes_is_reported(tmp_path):
    # scale is passed by a construction and tol by cls(...) in a classmethod; limit
    # only by the class's plain method, which counts too, and nothing passes label
    # or the field(...) default tags
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "fit.py").write_text(
        "from dataclasses import dataclass, field\n\n\n"
        "@dataclass(frozen=True)\nclass Fit:\n    x: float\n    scale: float = 1.0\n"
        "    tol: float = 1e-8\n    limit: int = 10\n    label: str = ''\n"
        "    tags: tuple = field(default_factory=tuple)\n\n"
        "    @classmethod\n    def loose(cls, x):\n        return cls(x, tol=1e-3)\n\n"
        "    def capped(self):\n        return Fit(self.x, limit=5)\n\n\n"
        "class Plain:\n    hidden: int = 0\n"
    )
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "main.py").write_text(
        "from pkg.fit import Fit\n\nFit(1.0, 2.0)\nFit.loose(1.0).capped()\n"
    )
    unpassed = _unpassed(tmp_path / "pkg", [tmp_path / "pkg", tmp_path / "run"])
    assert unpassed == ["Fit(label)"]


def test_parameter_every_call_passes_one_literal_is_reported(tmp_path):
    # every call passes name as "load" and sign as -1, by position or keyword; scale
    # gets two literals, kind a variable once, and Day's n one literal but tag two
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "frame.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "def daily(name, scale, kind, sign=1):\n    return daily(name, 2.0, kind, 1)\n\n\n"
        "@dataclass\nclass Day:\n    n: int\n    tag: str\n"
    )
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "main.py").write_text(
        "from pkg.frame import Day, daily\n\nkind = 'wind'\n"
        "daily('load', 1.0, 'temperature', -1)\n"
        "daily(name='load', scale=2.0, kind=kind, sign=-1)\n"
        "Day(3, 'a')\nDay(3, tag='b')\n"
    )
    single = _single_valued(tmp_path / "pkg", [tmp_path / "pkg", tmp_path / "run"])
    assert single == ["daily(name)", "daily(sign)", "Day(n)"]
