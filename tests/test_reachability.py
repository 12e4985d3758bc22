"""Every definition in ``src/gridgap`` is reached by the program, not only by tests.

A top-level function or class, or a method or property of a top-level
class (dunders aside), must be referenced somewhere the program runs: in
``src/`` outside its own definition, in ``scripts/``, or in ``perfbench/``.
A top-level name counts as referenced by a name or an attribute of that
spelling; a method or property only by an attribute, so that a local
variable of the same name does not keep it alive. An import, an
``__all__`` entry or a config key spelled the same is not a use.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gridgap"

# definitions kept although only tests reach them, each with its reason
ALLOWED = {
    "CalendarInfo": "the calendar row of the feature-matrix oracle; see from_date",
    "CalendarInfo.from_date": "builds the feature-matrix oracle's calendar rows",
    "gradient_check": "checks backprop against central differences in the network tests",
    "simulate_var": "draws the seeded VAR systems the acceptance and CLI tests fit",
    "feature_names": "labels the feature columns that the backcast tests look up",
    "moon_angle_grid": "builds the lunar-angle fixtures of the NTL tests",
    # perfbench's parser.error is argparse's own, so only argparse reaches this one
    "_Parser.error": "argparse calls it on bad usage, so main() owns the exit code",
}


def _definitions():
    """(qualified name, is method, file, first line, last line) of each checked definition."""
    for path in sorted(SRC.rglob("*.py")):
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


def _unreached() -> dict[str, Path]:
    """{qualified name: file} of the definitions nothing outside tests references."""
    paths = [p for d in ("src", "scripts", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    by_name = {}
    for name, is_attr, path, line in _references(paths):
        by_name.setdefault(name, []).append((is_attr, path, line))
    unreached = {}
    for qualname, is_method, path, first, last in _definitions():
        uses = by_name.get(qualname.rpartition(".")[2], ())
        if not any(
            (is_attr or not is_method) and not (where == path and first <= line <= last)
            for is_attr, where, line in uses
        ):
            unreached[qualname] = path.relative_to(ROOT)
    return unreached


def test_every_definition_is_reached_outside_tests():
    unreached = _unreached()
    assert sorted(f"{unreached[n]}::{n}" for n in unreached.keys() - ALLOWED.keys()) == []


def test_allowlist_names_only_live_definitions():
    # a deleted definition takes its entry with it
    defined = {qualname for qualname, *_ in _definitions()}
    assert sorted(ALLOWED.keys() - defined) == []
