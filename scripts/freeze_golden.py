"""Rewrite tests/data/golden_outputs.json from the runs of acceptance c12.

Runs each of the nine commands twice at c12's inputs and seeds, and
``qc-report`` twice more on a table it repairs; records the output digests
(``run_manifest.json`` itself excluded) and the numeric stack they came from,
and prints which outputs changed against the previous file.

    python scripts/freeze_golden.py
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_acceptance import GOLDEN_OUTPUTS, c12_digests, numeric_stack  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        outputs = c12_digests(Path(tmp))
    before = json.loads(GOLDEN_OUTPUTS.read_text())["outputs"] if GOLDEN_OUTPUTS.exists() else {}
    payload = {"stack": numeric_stack(), "outputs": outputs}
    GOLDEN_OUTPUTS.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    changed = [
        f"{command}/{name}"
        for command, files in outputs.items()
        for name, digest in files.items()
        if before.get(command, {}).get(name) != digest
    ]
    print(f"wrote {GOLDEN_OUTPUTS.relative_to(ROOT)}; {len(changed)} outputs changed")
    for name in changed:
        print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
