"""Run manifests: what a command read, what it wrote, and the digests.

Every command records its inputs before doing work and its outputs as they
are written, then drops ``run_manifest.json`` in the output directory.  The
digest map is the reproducibility contract: identical inputs and seed must
reproduce identical output digests (wall time and ``details``, how the run
executed, are informational only).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from .. import __version__

MANIFEST_NAME = "run_manifest.json"


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunRecorder:
    command: str
    out_dir: Path
    config_path: str | None = None
    seed: int = 0
    jobs: int = 1
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)
    details: dict[str, object] = field(default_factory=dict)
    started: float = field(default_factory=time.perf_counter)

    def record_input(self, path) -> None:
        key = str(path)
        if key not in self.inputs:
            self.inputs[key] = sha256_file(path)

    def record_output(self, path) -> None:
        name = str(Path(path).relative_to(self.out_dir))
        if name not in self.outputs:
            self.outputs.append(name)

    def output_path(self, name: str) -> Path:
        """Resolve a file name inside the run's output directory."""
        path = self.out_dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def write(self) -> Path:
        digests = {name: sha256_file(self.out_dir / name) for name in sorted(self.outputs)}
        payload = {
            "command": self.command,
            "version": __version__,
            "config": self.config_path,
            "seed": self.seed,
            "jobs": self.jobs,
            "inputs": dict(sorted(self.inputs.items())),
            "outputs": digests,
            "details": self.details,
            "wall_time_s": round(time.perf_counter() - self.started, 3),
        }
        path = self.out_dir / MANIFEST_NAME
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def read_manifest(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
