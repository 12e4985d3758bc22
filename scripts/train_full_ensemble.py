"""Train the full 800-candidate backcast ensemble on the synthetic corpus.

Reads the corpus config from make_synthetic.py, optionally overrides the
candidate count, and reports the April reduction summary.  Candidates train
on worker processes, one per BLAS core even at ``--jobs 1``; the full 800
took about 30 s on a 2-core Xeon.
"""

import argparse
import sys
import time
from pathlib import Path

from gridgap.cli.main import main as cli
from gridgap.ingest import parse_keyvalue_text


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", default="demo-data", help="corpus from make_synthetic.py")
    parser.add_argument("--out", default="demo-out/backcast-full")
    parser.add_argument("--candidates", type=int, default=None, help="override the config value")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    base = Path(args.data) / "backcast_full.cfg"
    if not base.exists():
        sys.exit(f"no corpus at {args.data}/; run scripts/make_synthetic.py first")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = base
    if args.candidates is not None:
        keys = parse_keyvalue_text(base.read_text())
        keys["candidates"] = str(args.candidates)
        # data paths in the corpus config are relative to its directory
        for key, value in keys.items():
            if key == "load" or key.startswith("weather."):
                keys[key] = str((base.parent / value).resolve())
        cfg_path = out / "derived.cfg"
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))

    start = time.perf_counter()
    code = cli(
        ["backcast", "--config", str(cfg_path), "--seed", str(args.seed),
         "--jobs", str(args.jobs), "--out", str(out)]
    )
    elapsed = time.perf_counter() - start
    if code != 0:
        sys.exit(f"backcast failed with exit {code}")
    print((out / "summary.txt").read_text().strip())
    print(f"trained in {elapsed:.0f}s; ensemble and daily series under {out}/")


if __name__ == "__main__":
    main()
