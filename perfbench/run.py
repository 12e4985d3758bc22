"""gridgap benchmark: time to a correct result, end to end and per layer.

    python3 perfbench/run.py --workload train --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each operation calls ``gridgap.cli.main.main(argv)`` in this process, on
inputs generated from the workload seed, and is checked for correctness.
Operations repeat until ``--seconds`` have passed. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced operations
and reports the per-layer metrics plus the tracing overhead. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Inputs, outputs, per-run results and spans go under ``.perfbench-work/``.

Nothing here sets a BLAS or thread variable: output bytes and timings
depend on them, so they are recorded as found.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layers
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def locate_program() -> None:
    """Put the checkout's own sources first on the path, or refuse to run."""
    src, scripts = ROOT / "src", ROOT / "scripts"
    needed = (
        src / "gridgap" / "cli" / "main.py",
        scripts / "make_synthetic.py",
        scripts / "run_search_experiment.py",
    )
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.exit(f"perfbench: the program is not in {ROOT}: missing {', '.join(missing)}")
    sys.path[:0] = [str(src), str(scripts)]
    import gridgap

    if Path(gridgap.__file__).resolve().parent != src / "gridgap":
        sys.exit(f"perfbench: imported gridgap from {gridgap.__file__}, not from {src}")


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        **{var: os.environ.get(var, "unset") for var in THREAD_VARS},
    }


def cpu_seconds() -> tuple[float, float]:
    """CPU of this process (all its threads) and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def call_cli(argv: list[str], tracer=None) -> dict:
    """One in-process CLI call; its own output is captured, not printed."""
    from gridgap.cli.main import main

    captured = io.StringIO()
    own0, kids0 = cpu_seconds()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = tracer.span("cli", main, argv) if tracer else main(argv)
    except Exception:  # a crash is a failed operation, not the end of the run
        code = None
        captured.write(traceback.format_exc())
    wall = time.perf_counter() - start
    own1, kids1 = cpu_seconds()
    return {
        "code": code,
        "wall_s": wall,
        "cpu_s": (own1 - own0) + (kids1 - kids0),
        "child_cpu_s": kids1 - kids0,
        "log": captured.getvalue(),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Run:
    """Set-up, measurement and checks of one workload at one seed."""

    def __init__(self, workload, seed: int, trace: bool):
        self.w = workload
        self.seed = seed
        self.trace = trace
        self.dir = WORK / workload.name
        self.inputs = self.dir / "inputs"
        self.out = self.dir / "out"
        self.ops: list[dict] = []
        self.spans: list[dict] = []
        self.untraced_names: list[str] = []
        self.reference: dict | None = None

    def setup(self) -> float:
        """Median over repeated set-ups: generate the inputs, then one
        warm-up CLI call (for reuse, the call that trains its ensemble)."""
        shutil.rmtree(self.dir, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        times = []
        for _ in range(self.w.setup_repeats):
            start = time.perf_counter()
            self.w.prepare(self.inputs, self.seed)
            warm = call_cli(self.w.argv(self.inputs / "warmup.cfg", self.seed, self.inputs / "warmup"))
            times.append(time.perf_counter() - start)
            if warm["code"] not in self.w.warmup_exits:
                raise RuntimeError(f"warm-up exit {warm['code']}:\n{warm['log']}")
        return statistics.median(times)

    def operation(self, traced: bool) -> dict:
        from workloads import digests

        shutil.rmtree(self.out, ignore_errors=True)
        argv = self.w.argv(self.inputs / "op.cfg", self.seed, self.out)
        tracer = Tracer() if traced else None
        if traced:
            layers.install(tracer)
            self.untraced_names = tracer.missing
        try:
            op = call_cli(argv, tracer)
        finally:
            if traced:
                tracer.uninstall()
        op["traced"] = traced
        try:
            op["problems"], info = self.w.check(self.out, op["code"], self.inputs)
        except Exception:
            op["problems"], info = [f"check raised:\n{traceback.format_exc()}"], {}
        if op["code"] is None:
            op["problems"].append(f"the CLI raised:\n{op['log']}")
        op["april_err_pp"] = info.get("april_err_pp")
        op["digests"] = digests(self.out) if self.out.is_dir() else {}
        if traced:
            spans, counters, keys = tracer.take()
            op["layers"] = layers.op_metrics(
                spans, counters, keys, info.get("statuses", []), op["child_cpu_s"]
            )
            self.spans.append({"op": len(self.ops), "spans": spans})
        return op

    def measure(self, seconds: float) -> None:
        start = time.perf_counter()
        least = 2 if self.trace else 1
        while len(self.ops) < least or time.perf_counter() - start < seconds:
            self.ops.append(self.operation(traced=self.trace and len(self.ops) % 2 == 1))

    def cross_check(self) -> None:
        """Compare every operation's outputs with the first one's and, where
        the workload has one, with a reference run at other ``--jobs``."""
        from workloads import compare_outputs, digests

        if self.w.reference_jobs is not None:
            ref_out = self.dir / "reference"
            argv = self.w.argv(self.inputs / "op.cfg", self.seed, ref_out, self.w.reference_jobs)
            ref = call_cli(argv)
            self.reference = {
                "jobs": self.w.reference_jobs,
                "code": ref["code"],
                "digests": digests(ref_out) if ref_out.is_dir() else {},
            }
        compare_outputs(self.ops, self.reference)

    def result(self, setup_s: float, peak_rss_mb: float) -> dict:
        failed = sum(1 for op in self.ops if op["problems"])
        plain = [op for op in self.ops if not op["traced"]]
        walls = [op["wall_s"] for op in plain]
        if self.trace:
            traced = [op for op in self.ops if op["traced"]]
            values = layers.median_metrics([op["layers"] for op in traced])
            values["trace.overhead_s"] = statistics.median(
                op["wall_s"] for op in traced
            ) - statistics.median(walls)
            metrics = {k: {"value": v, "unit": layers.unit(k)} for k, v in values.items()}
        else:
            values = {
                "wall_s": statistics.median(walls),
                "cpu_s": statistics.median(op["cpu_s"] for op in plain),
                "peak_rss_mb": peak_rss_mb,
                "setup_s": setup_s,
            }
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
        errs = [op["april_err_pp"] for op in self.ops if op["april_err_pp"] is not None]
        return {
            "correct": failed == 0,
            "attempted": len(self.ops),
            "failed": failed,
            "metrics": metrics,
            "info": {
                "workload": self.w.name,
                "seed": self.seed,
                "trace": int(self.trace),
                "environment": environment(),
                "wall_s": dict(zip(("q1", "median", "q3"), quartiles(walls)), n=len(walls)),
                "cpu_s": dict(
                    zip(("q1", "median", "q3"), quartiles([op["cpu_s"] for op in plain])),
                    n=len(plain),
                ),
                "fail_rate": failed / len(self.ops),
                "april_err_pp": statistics.median(errs) if errs else None,
                "exit_codes": sorted({op["code"] for op in self.ops}, key=str),
                "digests": self.ops[0]["digests"],
                "reference": self.reference,
                "untraced_names": self.untraced_names,
                "problems": [p for op in self.ops for p in op["problems"]],
            },
        }


def print_report(res: dict) -> None:
    info = res["info"]
    print(
        f"perfbench {info['workload']} seed={info['seed']} trace={info['trace']}"
        f" operations={res['attempted']}"
    )
    print("environment: " + " ".join(f"{k}={v}" for k, v in info["environment"].items()))
    for name, m in res["metrics"].items():
        spread = info.get(name) if not info["trace"] else None
        extra = f"  q1 {spread['q1']:.4f}  q3 {spread['q3']:.4f}  n={spread['n']}" if spread else ""
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}{extra}")
    print(f"  fail_rate {res['failed']}/{res['attempted']} = {info['fail_rate']:.4f}")
    if info["april_err_pp"] is not None:
        print(f"  april_err_pp {info['april_err_pp']:.2f} pp")
    print("  exit codes: " + ", ".join(map(str, info["exit_codes"])))
    for name, digest in info["digests"].items():
        print(f"  sha256 {name} {digest}")
    for name in info["untraced_names"]:
        print(f"  not traced (name not found): {name}")
    for problem in info["problems"]:
        print(f"  PROBLEM: {problem}")


def run_one(name: str, seed: int | None, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    run = Run(workload, workload.default_seed if seed is None else seed, trace)
    setup_s = run.setup()
    run.measure(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.cross_check()
    res = run.result(setup_s, peak_rss_mb)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{run.seed}-trace{int(trace)}"
    (results / f"{stem}.json").write_text(json.dumps(res, indent=1) + "\n")
    if trace:
        (results / f"{stem}-spans.json").write_text(json.dumps(run.spans) + "\n")
    return res


def run_all(seed: int | None, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, then one table of every metric."""
    from workloads import WORKLOADS

    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name, workload in WORKLOADS.items():
        seed_n = workload.default_seed if seed is None else seed
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed_n), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.exit(f"perfbench: workload {name} exited {proc.returncode}:\n{proc.stderr}")
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        totals["correct"] &= res["correct"]
        totals["attempted"] += res["attempted"]
        totals["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            totals["metrics"][f"{name}.{metric}"] = m
        record = WORK / "results" / f"{name}-seed{seed_n}-trace{int(trace)}.json"
        rows.append((name, res, json.loads(record.read_text())["info"]["april_err_pp"]))
    if not trace:
        print(f"\n{'workload':<10}" + "".join(f"{k:>14}" for k, _ in END_TO_END)
              + f"{'fail_rate':>11}{'april_err_pp':>14}")
        for name, res, april in rows:
            cells = "".join(f"{res['metrics'][k]['value']:>14.4f}" for k, _ in END_TO_END)
            april = "-" if april is None else f"{april:.2f}"
            print(f"{name:<10}{cells}{res['failed'] / res['attempted']:>11.4f}{april:>14}")
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="train, sweep, reuse, parallel or all")
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 reports per-layer metrics")
    args = parser.parse_args(argv)
    locate_program()
    from workloads import WORKLOADS

    if args.workload == "all":
        res = run_all(args.seed, args.seconds, bool(args.trace))
    elif args.workload in WORKLOADS:
        res = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        print_report(res)
        del res["info"]
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
