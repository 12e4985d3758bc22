"""Self-tests of the benchmark's own arithmetic and correctness checks.

    python3 -m pytest perfbench -q
"""

import json
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]

import layers  # noqa: E402
import run  # noqa: E402
from spans import Tracer, self_times, summarize  # noqa: E402
from workloads import check_backcast, check_search, compare_outputs  # noqa: E402


def test_self_time_subtracts_children_on_a_synthetic_tree():
    spans = [
        ["cli", 0.0, 10.0, -1],
        ["train", 1.0, 4.0, 0],
        ["step", 2.0, 3.0, 1],
        ["save", 5.0, 6.5, 0],
        ["save", 7.0, 8.0, 0],
    ]
    assert self_times(spans) == pytest.approx([4.5, 2.0, 1.0, 1.5, 1.0])
    table = summarize(spans)
    assert table["cli"] == pytest.approx({"calls": 1, "s": 10.0, "self_s": 4.5})
    assert table["train"] == pytest.approx({"calls": 1, "s": 3.0, "self_s": 2.0})
    assert table["save"] == pytest.approx({"calls": 2, "s": 2.5, "self_s": 2.5})


def test_a_name_nested_in_itself_counts_its_outer_span_once():
    table = summarize([["f", 0.0, 4.0, -1], ["f", 1.0, 2.0, 0]])
    assert table["f"] == pytest.approx({"calls": 2, "s": 4.0, "self_s": 4.0})


def test_wrappers_record_parents_and_are_removed():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    original = ns.inner
    tracer = Tracer()
    tracer.wrap(ns, "outer", "outer")
    tracer.wrap(ns, "inner", "inner", key=lambda a, k: a[0])
    tracer.wrap(ns, "absent", "absent")
    assert ns.outer(1) == 4 and ns.outer(1) == 4
    tracer.uninstall()
    assert ns.inner is original
    assert tracer.missing == ["SimpleNamespace.absent"]
    spans, _, keys = tracer.take()
    assert [(s[0], s[3]) for s in spans] == [("outer", -1), ("inner", 0), ("outer", -1), ("inner", 2)]
    assert keys["inner"] == {1}


def _summary(tmp_path, row):
    (tmp_path / "summary.txt").write_text(row + "\n")
    return tmp_path


def test_backcast_check_accepts_april_near_ten(tmp_path):
    problems, info = check_backcast(_summary(tmp_path, "Average in April: 10.30% [9.10, 11.20]"), 0, tmp_path)
    assert problems == [] and info["april_err_pp"] == pytest.approx(0.30)


@pytest.mark.parametrize(
    "row,code",
    [
        ("Average in April: 11.60% [10.10, 12.90]", 0),  # 1.6 pp out
        ("Average in April: 8.40% [7.10, 9.90]", 0),
        ("Average in April: 10.3% [9.10, 11.20]", 0),  # not c07's format
        ("Average in April: 10.30% [9.10, 11.20]", 1),
    ],
)
def test_backcast_check_rejects_corrupted_output(tmp_path, row, code):
    problems, _ = check_backcast(_summary(tmp_path, row), code, tmp_path)
    assert problems


def test_search_check_rejects_an_undocumented_exit(tmp_path):
    problems, _ = check_search(tmp_path, 1, tmp_path)
    assert problems


def _op(code=0, **digests):
    return {"code": code, "digests": digests, "problems": []}


def test_parallel_outputs_must_match_the_serial_reference():
    ops = [_op(**{"search_log.csv": "aa"}), _op(**{"search_log.csv": "aa"})]
    compare_outputs(ops, {"jobs": 1, "code": 0, "digests": {"search_log.csv": "aa"}})
    assert all(op["problems"] == [] for op in ops)
    compare_outputs(ops, {"jobs": 1, "code": 0, "digests": {"search_log.csv": "bb"}})
    assert all(op["problems"] for op in ops)


def test_operations_must_agree_with_each_other():
    ops = [_op(**{"summary.txt": "aa"}), _op(**{"summary.txt": "ab"}), _op(3)]
    compare_outputs(ops)
    assert [bool(op["problems"]) for op in ops] == [False, True, True]


def test_benchmark_json_lists_every_metric_the_runner_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    names = layers.metric_names()
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [(n, layers.unit(n)) for n in names]
