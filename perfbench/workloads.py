"""The workloads: the inputs each one generates, the command it runs, and
how each operation's outputs are checked.

Inputs come from the generators the repository already ships:
``scripts/make_synthetic.py`` for the backcast corpus and
``scripts/run_search_experiment.py`` for the five-variable search system.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import make_synthetic
import numpy as np
import run_search_experiment as experiment

from gridgap.ingest import parse_keyvalue_text, read_series_csv, write_series_csv
from gridgap.rvar import load_model, run_diagnostics
from gridgap.search import ScoringConfig
from gridgap.transforms import difference

# c07's summary row; the corpus drops April load by exactly 10%
SUMMARY_ROW = re.compile(r"^Average in April: (-?\d+\.\d{2})% \[-?\d+\.\d{2}, -?\d+\.\d{2}\]$")
APRIL_DROP_PP = 10.0
APRIL_TOLERANCE_PP = 1.5

# the documented exit codes of a search: a chosen model, or none admissible
SEARCH_EXITS = (0, 3)

MANIFEST = "run_manifest.json"  # holds wall time, so it is never digested


def _write_cfg(path: Path, keys: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))


def _backcast_corpus(inputs: Path, seed: int) -> dict:
    """make_synthetic's backcast section (its stream 1) at this seed."""
    make_synthetic.write_backcast_corpus(inputs, np.random.default_rng([seed, 1]))
    return parse_keyvalue_text((inputs / "backcast.cfg").read_text())


def prepare_train(inputs: Path, seed: int) -> None:
    keys = _backcast_corpus(inputs, seed)
    _write_cfg(inputs / "op.cfg", keys)  # 80 candidates x 150 epochs
    _write_cfg(inputs / "warmup.cfg", {**keys, "candidates": 2, "epochs": 5})


def prepare_reuse(inputs: Path, seed: int) -> None:
    keys = _backcast_corpus(inputs, seed)
    _write_cfg(
        inputs / "warmup.cfg",
        {**keys, "candidates": 200, "epochs": 30, "keep_fraction": 1.0},
    )
    del keys["candidates"], keys["epochs"]
    _write_cfg(
        inputs / "op.cfg",
        {**keys, "eval_start": "2019-01-01", "ensemble": "warmup/ensemble.json"},
    )


# The search system is c10's: run_search_experiment.py at generator seed 16.
# Drawing the system from the workload seed instead moves the work of one
# search from 3.7 s to 6.0 s (generator seeds 0-19 on a 2-core Xeon), as
# more or fewer combinations clear the cointegration gate; no bound could
# hold that spread. The workload seed shuffles the 23 windows instead: the
# combinations, and so the work, stay the same while the enumeration
# order, indices and output bytes change.
SEARCH_SYSTEM_SEED = 16


def prepare_search(inputs: Path, seed: int) -> None:
    """The 207-combination space of run_search_experiment.py, as a config."""
    frame = experiment.integrated_levels(SEARCH_SYSTEM_SEED, 560)
    write_series_csv(frame, inputs / "system.csv")
    end = frame.dates[-1]
    windows = [(frame.dates[0] + dt.timedelta(days=10 * k), end) for k in range(23)]
    windows = [windows[i] for i in np.random.default_rng(seed).permutation(len(windows))]
    keys = {
        "series": "system.csv",
        "target": experiment.NAMES[0],
        "subsets": ",".join(experiment.NAMES),
        "ranges": ";".join(f"{a}..{b}" for a, b in windows),
        "orders": "1,2,3",
        "rules": "1,2,3",
        **{f"sign.{name}": sign for name, sign in experiment.SIGNS.items()},
    }
    _write_cfg(inputs / "op.cfg", keys)
    first = windows[0]
    _write_cfg(inputs / "warmup.cfg", {**keys, "ranges": f"{first[0]}..{first[1]}"})


def digests(out: Path) -> dict[str, str]:
    """sha256 of every output file except the manifest."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file() and p.name != MANIFEST
    }


def compare_outputs(ops: list[dict], reference: dict | None = None) -> None:
    """Flag each operation whose exit code or output digests differ from the
    first operation's or, when given, from the reference run's."""
    first = ops[0]
    for op in ops[1:]:
        if (op["code"], op["digests"]) != (first["code"], first["digests"]):
            op["problems"].append("exit code or output digests differ from the first operation's")
    if reference is None:
        return
    for op in ops:
        if (op["code"], op["digests"]) != (reference["code"], reference["digests"]):
            op["problems"].append(
                f"outputs differ from the --jobs {reference['jobs']} run at the same seed"
            )


def check_backcast(out: Path, code, inputs: Path):
    """Exit 0, c07's row format, and the April rate within 1.5 pp of 10."""
    if code != 0:
        return [f"backcast exit {code}, expected 0"], {}
    row = (out / "summary.txt").read_text().strip()
    match = SUMMARY_ROW.match(row)
    if not match:
        return [f"summary row {row!r} does not match c07's format"], {}
    err = abs(float(match.group(1)) - APRIL_DROP_PP)
    problems = []
    if err > APRIL_TOLERANCE_PP:
        problems.append(f"April reduction {match.group(1)}% is {err:.2f} pp from {APRIL_DROP_PP}")
    return problems, {"april_err_pp": err}


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_search(out: Path, code, inputs: Path):
    """A documented exit code; on exit 0 the chosen model passes c10's
    diagnostics gate."""
    if code not in SEARCH_EXITS:
        return [f"search exit {code}, expected one of {SEARCH_EXITS}"], {}
    if code == 3:
        return [], {"statuses": [r["status"] for r in _rows(out / "failures.csv")]}
    log = _rows(out / "search_log.csv")
    statuses = [r["status"] for r in log]
    ok = [r for r in log if r["status"] == "ok"]
    if not ok:
        return ["exit 0 but no admissible row in search_log.csv"], {"statuses": statuses}
    chosen = min(ok, key=lambda r: (float(r["bic"]), float(r["aic"]), int(r["index"])))
    model = load_model(out / "model.json")
    scoring = ScoringConfig()
    window = read_series_csv(inputs / "system.csv").slice_dates(chosen["start"], chosen["end"])
    report = run_diagnostics(
        model, difference(window), cointegration_ok=True, lb_lags=scoring.lb_lags
    )
    problems = []
    if model.p != int(chosen["order"]):
        problems.append(f"model order {model.p} != chosen order {chosen['order']}")
    if not report.all_pass(lb_alpha=scoring.lb_alpha, dw_range=scoring.dw_range):
        problems.append(f"chosen combination {chosen['index']} fails run_diagnostics")
    return problems, {"statuses": statuses}


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    command: str
    jobs: int
    prepare: Callable[[Path, int], None]
    check: Callable[[Path, int | None, Path], tuple[list[str], dict]]
    warmup_exits: tuple[int, ...]
    # jobs of a run whose outputs must equal this workload's, byte for byte
    reference_jobs: int | None = None
    setup_repeats: int = 5

    def argv(self, config: Path, seed: int, out: Path, jobs: int | None = None) -> list[str]:
        return [
            self.command, "--config", str(config), "--seed", str(seed),
            "--jobs", str(jobs or self.jobs), "--out", str(out),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train", 0, "backcast", 1, prepare_train, check_backcast, (0,)),
        Workload("sweep", 16, "search", 1, prepare_search, check_search, SEARCH_EXITS),
        # one set-up trains a 200-member ensemble (~9 s), so it runs once
        Workload("reuse", 0, "backcast", 1, prepare_reuse, check_backcast, (0,), setup_repeats=1),
        Workload("parallel", 16, "search", 2, prepare_search, check_search, SEARCH_EXITS, 1),
    )
}
