"""Run every subcommand over the synthetic corpus and print the headlines.

Expects the corpus from make_synthetic.py.  The backcast step uses the
80-candidate test-mode config; the full run is ``backcast`` on the corpus's
``backcast_full.cfg``.
"""

import argparse
import sys
from pathlib import Path

from gridgap.cli.main import main as cli


def run(label, argv, expect=0):
    code = cli(argv)
    if code != expect:
        sys.exit(f"{label}: exit {code}, expected {expect}")
    print(f"[{label}] ok")
    return code


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", default="demo-data", help="corpus from make_synthetic.py")
    parser.add_argument("--out", default="demo-out", help="base output directory")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    data = Path(args.data)
    if not (data / "ingest.cfg").exists():
        sys.exit(f"no corpus at {data}/; run scripts/make_synthetic.py first")
    out = Path(args.out)
    seed = ["--seed", str(args.seed)]

    run("ingest", ["ingest", "--config", str(data / "ingest.cfg"), "--out", str(out / "ingest"), *seed])
    print("  ", (out / "ingest" / "load.qc.txt").read_text().splitlines()[1])

    run("qc-report", ["qc-report", "--config", str(data / "qc.cfg"), "--out", str(out / "qc"), *seed])

    run("trend", ["trend", "--config", str(data / "trend.cfg"), "--out", str(out / "trend"), *seed])
    for line in (out / "trend" / "transition.txt").read_text().splitlines()[:2]:
        print("  ", line)

    run("backcast", ["backcast", "--config", str(data / "backcast.cfg"), "--out", str(out / "backcast"), *seed])
    print("  ", (out / "backcast" / "summary.txt").read_text().strip())

    run("analyze", ["analyze", "--config", str(data / "analyze.cfg"), "--out", str(out / "analyze"), *seed])
    for line in (out / "analyze" / "diagnostics.txt").read_text().splitlines()[1:7]:
        print("  ", line)

    model = (out / "analyze" / "model.json").resolve()
    irf_cfg = out / "irf.cfg"
    irf_cfg.write_text(f"model = {model}\nshock = mobility\nhorizon = 15\nvariable = load\n")
    run("irf", ["irf", "--config", str(irf_cfg), "--out", str(out / "irf"), *seed])

    fevd_cfg = out / "fevd.cfg"
    fevd_cfg.write_text(f"model = {model}\nhorizon = 15\nvariable = load\n")
    run("fevd", ["fevd", "--config", str(fevd_cfg), "--out", str(out / "fevd"), *seed])

    run("search", ["search", "--config", str(data / "analyze.cfg"), "--out", str(out / "search"), *seed])

    run("ntl", ["ntl", "--config", str(data / "ntl.cfg"), "--out", str(out / "ntl"), *seed])
    for line in (out / "ntl" / "ntl_report.txt").read_text().splitlines():
        if line.startswith(("repaired =", "isolated =")):
            print("  ", line)

    print(f"all outputs under {out}/, one run_manifest.json per step")


if __name__ == "__main__":
    main()
