"""Where each gridgap layer is timed, and the per-layer metrics it yields.

Every wrapper sits on the name the caller looks up: ``cli.main`` imports
its helpers into its own namespace, ``backcast.ensemble`` imports
``forward`` and ``train_network`` from ``network``, and the sweep imports
the ``rvar`` tests into ``search.sweep``. The wrappers are installed only
around a traced operation, so the benchmark's own correctness checks are
never counted.
"""

from __future__ import annotations

import importlib
import os
import statistics

import numpy.linalg

from spans import Tracer, fingerprint, summarize

# first gate named in a "failed:<gate>..." search status
GATES = (
    "window",
    "difference",
    "adf",
    "cointegration",
    "fit",
    "stability",
    "whiteness",
    "dw",
    "sign",
)

COUNTERS = (
    ("cli.sha256_file.bytes", "B"),
    ("ingest.read_wide_csv.bytes", "B"),
    ("ensemble.save_ensemble.bytes", "B"),
    ("ensemble.load_ensemble.bytes", "B"),
    ("features.feature_matrix.rows", "count"),
    ("network.loss_and_grads.gflop", "GFLOP"),
    ("rvar.lstsq.calls", "count"),
)


def _size(position: int, counter: str):
    def count(args, kwargs, result):
        return {counter: os.path.getsize(args[position])}

    return count


def _rows(args, kwargs, result):
    return {"features.feature_matrix.rows": result.shape[0]}


def _gflop(args, kwargs, result):
    """Multiply-adds of the dense layers, computed from the shapes.

    Forward x@W per layer, the weight gradient act.T@delta per layer, and
    delta@W.T for every layer but the first; two flops per multiply-add.
    """
    params, x = args[0], args[1]
    sizes = [w.shape[0] * w.shape[1] for w, _ in params]
    return {"network.loss_and_grads.gflop": 2 * x.shape[0] * (2 * sum(sizes) + sum(sizes[1:])) / 1e9}


def _key(args, kwargs):
    return fingerprint(args, kwargs)


MAIN = "gridgap.cli.main"
SWEEP = "gridgap.search.sweep"

# (span, owner, attribute, counters, input key). The owner is the module
# whose name the caller looks up, or "module:Class" for a method.
WRAPPED = (
    ("cli.sha256_file", "gridgap.cli.manifest", "sha256_file", _size(0, "cli.sha256_file.bytes"), None),
    ("ingest.read_wide_csv", MAIN, "read_wide_csv", _size(0, "ingest.read_wide_csv.bytes"), None),
    ("ingest.read_series_csv", MAIN, "read_series_csv", None, None),
    ("features.feature_matrix", MAIN, "feature_matrix", _rows, None),
    ("ensemble.train_ensemble", MAIN, "train_ensemble", None, None),
    ("ensemble.save_ensemble", MAIN, "save_ensemble", _size(1, "ensemble.save_ensemble.bytes"), None),
    ("ensemble.load_ensemble", MAIN, "load_ensemble", _size(0, "ensemble.load_ensemble.bytes"), None),
    ("ensemble.reduction_series", MAIN, "reduction_series", None, None),
    ("ensemble.predict_many", "gridgap.backcast.ensemble", "predict_many", None, None),
    ("network.train_network", "gridgap.backcast.ensemble", "train_network", None, None),
    ("network.loss_and_grads", "gridgap.backcast.network", "loss_and_grads", _gflop, None),
    ("network.forward", "gridgap.backcast.ensemble", "forward", None, None),
    ("search.run_search", MAIN, "run_search", None, None),
    ("search.build_restriction_mask", SWEEP, "build_restriction_mask", None, None),
    ("frames.select", "gridgap.frames:TimeSeriesFrame", "select", None, None),
    ("frames.slice_dates", "gridgap.frames:TimeSeriesFrame", "slice_dates", None, None),
    ("transforms.difference", SWEEP, "difference", None, None),
    ("rvar.adf_test", SWEEP, "adf_test", None, _key),
    ("rvar.engle_granger", SWEEP, "engle_granger", None, _key),
    ("rvar.granger_wald", "gridgap.search.masks", "granger_wald", None, _key),
    ("rvar.fit_restricted_var", SWEEP, "fit_restricted_var", None, None),
    ("rvar.diagnostics", SWEEP, "residuals", None, None),
    ("rvar.diagnostics", SWEEP, "ljung_box", None, None),
    ("rvar.diagnostics", SWEEP, "durbin_watson", None, None),
    ("rvar.diagnostics", SWEEP, "stability_test", None, None),
    ("rvar.diagnostics", SWEEP, "information_criteria", None, None),
    ("rvar.analysis", SWEEP, "irf", None, None),
    ("rvar.analysis", SWEEP, "fevd", None, None),
)

# "cli" is the benchmark's own span around main(argv)
SPANS = ("cli", *dict.fromkeys(row[0] for row in WRAPPED))
DISTINCT = tuple(dict.fromkeys(row[0] for row in WRAPPED if row[4] is not None))


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def install(tracer: Tracer) -> None:
    """Wrap every traced name; ``tracer.uninstall()`` undoes it."""
    for span, owner, attr, counters, key in WRAPPED:
        tracer.wrap(_owner(owner), attr, span, counters, key)
    tracer.count(numpy.linalg, "lstsq", "rvar.lstsq.calls")


def op_metrics(spans, counters, keys, statuses, child_cpu_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced operation."""
    table = summarize(spans)
    out: dict[str, float] = {}
    for name in SPANS:
        row = table.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.s"] = row["s"]
        out[f"{name}.self_s"] = row["self_s"]
    for name, _ in COUNTERS:
        out[name] = counters.get(name, 0)
    lg_s = out["network.loss_and_grads.s"]
    out["network.loss_and_grads.gflops"] = out["network.loss_and_grads.gflop"] / lg_s if lg_s else 0.0
    for name in DISTINCT:
        calls = out[f"{name}.calls"]
        out[f"{name}.distinct_ratio"] = len(keys.get(name, ())) / calls if calls else 0.0
    # the parent's own time inside run_search: with --jobs 2 that is the
    # time it waits on the pool, since child spans are not visible here
    out["pool.wait_s"] = out["search.run_search.self_s"]
    out["pool.child_cpu_s"] = child_cpu_s
    gates = [s.split(":")[1].split(" ")[0] for s in statuses if s != "ok"]
    out["search.admissible_ratio"] = statuses.count("ok") / len(statuses) if statuses else 0.0
    for gate in GATES:
        out[f"search.rejected.{gate}"] = gates.count(gate)
    return out


def unit(metric: str) -> str:
    """The unit a per-layer metric is reported in."""
    for name, u in COUNTERS:
        if metric == name:
            return u
    if metric.endswith(".gflops"):
        return "GFLOP/s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    return "count"


def metric_names() -> list[str]:
    """Every per-layer metric a traced run prints, in a fixed order."""
    return list(op_metrics([], {}, {}, [], 0.0)) + ["trace.overhead_s"]


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
