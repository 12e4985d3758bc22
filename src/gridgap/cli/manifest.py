"""Run manifests: what a command read, what it wrote, and the digests.

Every command records its inputs before doing work and takes the path of
each output from ``RunRecorder.output``, which records it; when it returns,
``main`` drops ``run_manifest.json`` in the output directory (a run that
fails with an error writes none, and makes no directory before its first
output).  The digest map is the reproducibility
contract: identical inputs and seed must reproduce identical output digests
(wall time and ``details``, how the run executed, are informational only).
"""

from __future__ import annotations

import hashlib
import json
import os
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

    def record_input(self, path, data: bytes) -> None:
        """Record ``path``'s digest, taken of ``data``, the bytes already read from it,
        under its normalized path, so that two spellings of one file give one key."""
        key = os.path.normpath(path)
        if key not in self.inputs:
            self.inputs[key] = hashlib.sha256(data).hexdigest()

    def output(self, name: str) -> Path:
        """The path of output ``name``, its directory made and the file recorded."""
        path = self.out_dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if name not in self.outputs:
            self.outputs.append(name)
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
        self.out_dir.mkdir(parents=True, exist_ok=True)  # a run with no output made none
        path = self.out_dir / MANIFEST_NAME
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path
